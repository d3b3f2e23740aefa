//! `eval_batch`: the paper's offline evaluation of the S70b tier in f32
//! on the study's default engine. Closed loop, one caller: each pass runs
//! `token_method_outcomes` over a seed-drawn subset, then
//! `instruct_method` over another.

use crate::check;
use crate::common::{
    self, counter, hit_rate, median, prepare, saved_share, serve_counters, timed_setup, Args,
    Outcome, ServeCounters, World,
};
use crate::layers;
use astro_eval::{
    extract_answer, generate_job, instruct_method, instruct_method_answer, score_job,
    token_method_outcomes, EvalModel, InstructAnswer, InstructEvalConfig, TokenEvalConfig,
    TokenOutcome,
};
use astro_mcq::Mcq;
use astro_prng::Rng;
use astro_serve::{EngineConfig, EvalEngine};
use std::time::Instant;

/// Questions per token-method batch.
pub const TOKEN_QUESTIONS: usize = 48;
/// Questions per full-instruct batch.
pub const INSTRUCT_QUESTIONS: usize = 24;
/// Token-method questions per pass checked against the serial reference.
const TOKEN_CHECKS: usize = 2;
/// Full-instruct questions per pass checked against the serial reference.
const INSTRUCT_CHECKS: usize = 1;

struct Configs {
    token: TokenEvalConfig,
    instruct: InstructEvalConfig,
}

fn configs(world: &World, engine: EngineConfig) -> Configs {
    Configs {
        token: TokenEvalConfig {
            engine,
            ..Default::default()
        },
        instruct: InstructEvalConfig {
            engine,
            verbose_prompt: world.study.config.verbose_prompt,
            ..Default::default()
        },
    }
}

/// One pass's inputs, all drawn from the seed.
struct Pass<'a> {
    token_qs: Vec<&'a Mcq>,
    instruct_qs: Vec<&'a Mcq>,
    rng: Rng,
    check_rng: Rng,
}

fn draw_pass(world: &World, seed: u64, index: u64) -> Pass<'_> {
    let mut rng = Rng::seed_from(seed).substream_idx("perfbench.eval.pass", index);
    let token_qs = world.study.mcq.subset(TOKEN_QUESTIONS, &mut rng);
    let instruct_qs = world.study.mcq.subset(INSTRUCT_QUESTIONS, &mut rng);
    Pass {
        token_qs,
        instruct_qs,
        rng: rng.substream("instruct"),
        check_rng: rng.substream("check"),
    }
}

/// A pass's outputs and timings.
struct PassResult {
    token: Vec<TokenOutcome>,
    instruct: Vec<InstructAnswer>,
    token_s: f64,
    instruct_s: f64,
}

fn run_pass(world: &World, cfg: &Configs, pass: &Pass<'_>) -> PassResult {
    let model = EvalModel {
        params: &world.params,
        tokenizer: &world.study.tokenizer,
    };
    let t0 = Instant::now();
    let token = token_method_outcomes(
        &model,
        &pass.token_qs,
        &world.study.mcq.exemplars,
        &cfg.token,
    );
    let token_s = t0.elapsed().as_secs_f64();
    let t1 = Instant::now();
    let instruct = instruct_method(
        &model,
        &pass.instruct_qs,
        &cfg.instruct,
        &mut pass.rng.clone(),
    );
    let instruct_s = t1.elapsed().as_secs_f64();
    PassResult {
        token,
        instruct,
        token_s,
        instruct_s,
    }
}

/// The first serial references a pass compared against.
#[derive(Default)]
struct Reference {
    scores: Vec<f32>,
    raw: String,
    prediction: Option<usize>,
}

impl Reference {
    /// Self-test both comparators on these references.
    fn self_test(&self, out: &mut Outcome) {
        check::self_test_scores(out, "token-method scores", &self.scores);
        check::self_test_answer(out, &self.raw, self.prediction);
    }
}

/// Count engine errors and compare a seed-drawn sample bitwise against
/// the serial reference (`EngineConfig::serial()`, same substreams).
/// Returns the first compared references for the comparator self-tests.
fn check_pass(
    out: &mut Outcome,
    world: &World,
    serial: &Configs,
    pass: &Pass<'_>,
    res: &PassResult,
) -> Reference {
    let model = EvalModel {
        params: &world.params,
        tokenizer: &world.study.tokenizer,
    };
    for o in res.token.iter().filter(|o| o.error.is_some()) {
        out.fail(format!("token-method engine error {:?}", o.error));
    }
    for a in res.instruct.iter().filter(|a| a.error.is_some()) {
        out.fail(format!("instruct-method engine error {:?}", a.error));
    }
    let mut check_rng = pass.check_rng.clone();
    let mut first = Reference::default();
    for i in check_rng.sample_indices(pass.token_qs.len(), TOKEN_CHECKS) {
        let want = token_method_outcomes(
            &model,
            &pass.token_qs[i..=i],
            &world.study.mcq.exemplars,
            &serial.token,
        );
        if !check::same_bits(&res.token[i].scores, &want[0].scores) {
            out.fail(format!(
                "token-method scores differ from the serial reference (question {})",
                pass.token_qs[i].id
            ));
        }
        if first.scores.is_empty() {
            first.scores = want[0].scores.to_vec();
        }
    }
    for i in check_rng.sample_indices(pass.instruct_qs.len(), INSTRUCT_CHECKS) {
        let mut qrng = pass.rng.substream_idx("instruct-q", i as u64);
        let want = instruct_method_answer(&model, pass.instruct_qs[i], &serial.instruct, &mut qrng);
        let got = &res.instruct[i];
        if !check::same_answer(&got.raw, got.prediction, &want.raw, want.prediction) {
            out.fail(format!(
                "instruct-method answer differs from the serial reference (question {})",
                pass.instruct_qs[i].id
            ));
        }
        if first.raw.is_empty() {
            first.raw = want.raw.clone();
            first.prediction = want.prediction;
        }
    }
    first
}

/// A small pass outside the timed window: pool threads, page faults.
fn warm_up(world: &World, cfg: &Configs, seed: u64) {
    let mut warm = draw_pass(world, seed, u64::MAX);
    warm.token_qs.truncate(8);
    warm.instruct_qs.truncate(4);
    run_pass(world, cfg, &warm);
}

pub fn run(args: &Args, out: &mut Outcome) {
    let (world, setup_s) = timed_setup(|| prepare(args.seed), drop);
    let cfg = configs(&world, world.study.config.eval_engine);
    let serial = configs(&world, EngineConfig::serial());
    out.line(format!(
        "eval_batch: S70b f32, engine {:?}, {TOKEN_QUESTIONS} token + {INSTRUCT_QUESTIONS} instruct questions per pass",
        cfg.token.engine
    ));

    if args.trace {
        return traced(args, out, &world, &cfg, &serial);
    }

    warm_up(&world, &cfg, args.seed);
    // Passes run while the next one, as long as the last, still ends
    // inside the window.
    let t_start = Instant::now();
    let mut passes: Vec<(Pass<'_>, PassResult)> = Vec::new();
    loop {
        let last = passes
            .last()
            .map(|(_, r)| r.token_s + r.instruct_s)
            .unwrap_or(0.0);
        if !passes.is_empty() && t_start.elapsed().as_secs_f64() + last > args.seconds {
            break;
        }
        let pass = draw_pass(&world, args.seed, passes.len() as u64);
        let res = run_pass(&world, &cfg, &pass);
        passes.push((pass, res));
    }

    let mut token_qps = Vec::new();
    let mut instruct_ms = Vec::new();
    let mut reference = Reference::default();
    for (pass, res) in &passes {
        out.attempted += (res.token.len() + res.instruct.len()) as u64;
        token_qps.push(res.token.len() as f64 / res.token_s);
        instruct_ms.push(res.instruct_s * 1e3 / res.instruct.len() as f64);
        let r = check_pass(out, &world, &serial, pass, res);
        if reference.scores.is_empty() {
            reference = r;
        }
    }
    reference.self_test(out);

    let n = passes.len();
    let show = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.2}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    out.line(format!(
        "passes: token q/s [{}], instruct ms/question [{}]",
        show(&token_qps),
        show(&instruct_ms)
    ));
    // Rates over the whole window: total questions over total time.
    let token_q: usize = passes.iter().map(|(_, r)| r.token.len()).sum();
    let token_s: f64 = passes.iter().map(|(_, r)| r.token_s).sum();
    let instruct_q: usize = passes.iter().map(|(_, r)| r.instruct.len()).sum();
    let instruct_s: f64 = passes.iter().map(|(_, r)| r.instruct_s).sum();
    let tq = token_q as f64 / token_s;
    let iq_ms = instruct_s * 1e3 / instruct_q as f64;
    out.line(format!(
        "eval_token_qps     {tq:.3} questions/s ({token_q} questions over {n} passes)"
    ));
    out.line(format!(
        "eval_instruct_qps  {:.3} questions/s ({instruct_q} questions over {n} passes)",
        1e3 / iq_ms
    ));
    out.metric(
        "setup_s",
        setup_s,
        "s",
        format!("median of {} set-ups", common::SETUP_REPS),
    );
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MB", "VmHWM");
    out.metric(
        "throughput_per_s",
        (token_q + instruct_q) as f64 / (token_s + instruct_s),
        "1/s",
        format!("questions/s over both methods' batch time, {n} passes"),
    );
}

/// Timings and outputs of one pass through the public pieces of each
/// layer: tokenizer (job build), serve (engine calls), eval (decode and
/// extraction), each timed from outside.
struct TracedPass {
    score_build_s: f64,
    score_batch_s: f64,
    gen_build_s: f64,
    generate_batch_s: f64,
    extract_s: f64,
    wall_s: f64,
    counters: [ServeCounters; 3],
    scores: Vec<Result<Vec<f32>, astro_serve::ServeError>>,
    answers: Vec<(String, Option<usize>)>,
    score_prompts: Vec<Vec<u32>>,
    gen_prompts: Vec<Vec<u32>>,
}

fn traced_pass(world: &World, cfg: &Configs, pass: &Pass<'_>) -> TracedPass {
    let model = EvalModel {
        params: &world.params,
        tokenizer: &world.study.tokenizer,
    };
    let t_pass = Instant::now();
    let t = Instant::now();
    let score_jobs: Vec<_> = pass
        .token_qs
        .iter()
        .map(|q| score_job(&model, q, &world.study.mcq.exemplars, &cfg.token))
        .collect();
    let score_build_s = t.elapsed().as_secs_f64();
    let score_prompts = score_jobs.iter().map(|j| j.prompt.clone()).collect();
    let c0 = serve_counters();
    let engine = EvalEngine::new(cfg.token.engine, &world.params);
    let t = Instant::now();
    let scores = engine.score_batch(score_jobs);
    let score_batch_s = t.elapsed().as_secs_f64();
    let c1 = serve_counters();

    let t = Instant::now();
    let gen_jobs: Vec<_> = pass
        .instruct_qs
        .iter()
        .enumerate()
        .map(|(i, q)| {
            generate_job(
                &model,
                q,
                &cfg.instruct,
                pass.rng.substream_idx("instruct-q", i as u64),
            )
        })
        .collect();
    let gen_build_s = t.elapsed().as_secs_f64();
    let gen_prompts = gen_jobs.iter().map(|j| j.prompt.clone()).collect();
    let engine = EvalEngine::new(cfg.instruct.engine, &world.params);
    let t = Instant::now();
    let generated = engine.generate_batch(gen_jobs);
    let generate_batch_s = t.elapsed().as_secs_f64();
    let c2 = serve_counters();
    let t = Instant::now();
    let answers = generated
        .iter()
        .zip(&pass.instruct_qs)
        .map(|(g, q)| {
            let raw = world.study.tokenizer.decode(g.as_deref().unwrap_or(&[]));
            let (pred, _) = extract_answer(&raw, &q.options);
            (raw, pred)
        })
        .collect();
    let extract_s = t.elapsed().as_secs_f64();
    TracedPass {
        score_build_s,
        score_batch_s,
        gen_build_s,
        generate_batch_s,
        extract_s,
        wall_s: t_pass.elapsed().as_secs_f64(),
        counters: [c0, c1, c2],
        scores,
        answers,
        score_prompts,
        gen_prompts,
    }
}

/// Alternating untraced and traced passes over the same inputs.
const TRACE_REPS: usize = 3;

/// The traced run: untraced passes alternated with traced passes over
/// the same inputs, then the f32 model and kernel timings.
fn traced(args: &Args, out: &mut Outcome, world: &World, cfg: &Configs, serial: &Configs) {
    let before = (
        counter("router.connections"),
        counter("gateway.connections"),
    );
    warm_up(world, cfg, args.seed);
    let pass = draw_pass(world, args.seed, 0);
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut runs = Vec::new();
    for _ in 0..TRACE_REPS {
        let t0 = Instant::now();
        let res = run_pass(world, cfg, &pass);
        untraced_s.push(t0.elapsed().as_secs_f64());
        let tp = traced_pass(world, cfg, &pass);
        traced_s.push(tp.wall_s);
        out.attempted += 2 * (res.token.len() + res.instruct.len()) as u64;
        runs.push((res, tp));
    }
    let (res, tp) = runs.pop().expect("at least one traced pass");
    check_pass(out, world, serial, &pass, &res).self_test(out);
    // The traced pass must reproduce the untraced one bitwise.
    for (i, (s, o)) in tp.scores.iter().zip(&res.token).enumerate() {
        if !s.as_ref().is_ok_and(|s| check::same_bits(s, &o.scores)) {
            out.fail(format!(
                "traced score_batch differs from token_method_outcomes at {i}"
            ));
        }
    }
    for (i, ((raw, pred), a)) in tp.answers.iter().zip(&res.instruct).enumerate() {
        if !check::same_answer(raw, *pred, &a.raw, a.prediction) {
            out.fail(format!(
                "traced generate_batch differs from instruct_method at {i}"
            ));
        }
    }

    let nt = pass.token_qs.len() as f64;
    let ni = pass.instruct_qs.len() as f64;
    let [c0, c1, c2] = &tp.counters;
    out.metric(
        "workload.eval_token_qps",
        nt / res.token_s,
        "1/s",
        "untraced pass",
    );
    out.metric(
        "workload.eval_instruct_qps",
        ni / res.instruct_s,
        "1/s",
        "untraced pass",
    );
    out.metric(
        "serve.score_batch_s",
        tp.score_batch_s,
        "s",
        format!("EvalEngine::score_batch, {nt} jobs"),
    );
    out.metric(
        "serve.generate_batch_s",
        tp.generate_batch_s,
        "s",
        format!("EvalEngine::generate_batch, {ni} jobs"),
    );
    out.metric(
        "serve.score.saved_share",
        saved_share(c0, c1),
        "share",
        "serve.tokens.saved / (saved + encoded)",
    );
    out.metric(
        "serve.generate.saved_share",
        saved_share(c1, c2),
        "share",
        "serve.tokens.saved / (saved + encoded)",
    );
    out.metric(
        "serve.saved_share",
        saved_share(c0, c2),
        "share",
        "both endpoints",
    );
    out.metric(
        "serve.prefix_hit_rate",
        hit_rate(c0, c2),
        "share",
        "serve.prefix.hits / (hits + misses)",
    );
    out.metric(
        "serve.cache_evictions",
        (c2.evictions - c0.evictions) as f64,
        "count",
        "",
    );
    out.metric(
        "serve.tokens_encoded",
        (c2.encoded - c0.encoded) as f64,
        "count",
        "",
    );
    out.metric(
        "tokenizer.prompt_encode_us",
        tp.score_build_s * 1e6 / nt,
        "us",
        format!("score_job (render + encode), mean of {nt}"),
    );
    out.metric(
        "eval.extract_us",
        tp.extract_s * 1e6 / ni,
        "us",
        format!("decode + extract_answer, mean of {ni}"),
    );
    out.metric(
        "router.connections",
        (counter("router.connections") - before.0) as f64,
        "count",
        "bypassed",
    );
    out.metric(
        "gateway.connections",
        (counter("gateway.connections") - before.1) as f64,
        "count",
        "bypassed",
    );
    let attributed =
        tp.score_build_s + tp.score_batch_s + tp.gen_build_s + tp.generate_batch_s + tp.extract_s;
    out.metric(
        "unattributed_share",
        1.0 - attributed / tp.wall_s,
        "share",
        "traced pass wall time not in a timed layer call",
    );
    let (untraced, traced) = (median(&untraced_s), median(&traced_s));
    out.metric(
        "trace_overhead_pct",
        (traced / untraced - 1.0) * 100.0,
        "%",
        format!("medians of {TRACE_REPS} alternated passes: traced {traced:.3}s vs untraced {untraced:.3}s"),
    );
    out.line(format!(
        "accounting: engine calls {:.3}s + job build {:.3}s + extract {:.3}s of {:.3}s traced wall",
        tp.score_batch_s + tp.generate_batch_s,
        tp.score_build_s + tp.gen_build_s,
        tp.extract_s,
        tp.wall_s
    ));

    layers::model_rates(out, &world.params, &tp.gen_prompts, "f32");
    let preamble = common_prefix(&tp.score_prompts);
    layers::fork_us(out, &world.params, &preamble);
    let m = world.params.cfg;
    let mean_prompt =
        tp.score_prompts.iter().map(Vec::len).sum::<usize>() / tp.score_prompts.len().max(1);
    layers::matmul_rate(out, "decode", 1, m.d_model, m.d_ff);
    layers::matmul_rate(out, "prefill", mean_prompt, m.d_model, m.d_ff);
}

/// Longest common prefix of the score prompts: the two-shot preamble.
fn common_prefix(prompts: &[Vec<u32>]) -> Vec<u32> {
    let Some(first) = prompts.first() else {
        return Vec::new();
    };
    let len = prompts.iter().skip(1).fold(first.len(), |n, p| {
        n.min(first.iter().zip(p).take_while(|(a, b)| a == b).count())
    });
    first[..len].to_vec()
}
