//! `train_cpt`: continual pretraining of an S70b init on the Summary
//! recipe with the fast preset's trainer (batch 4, seq 224, bf16
//! weights). Closed loop, one caller: repeated `Study::cpt` calls of a
//! fixed step count from the same init.

use crate::check;
use crate::common::{self, counter, median, prepare, time_median, timed_setup, Args, Outcome};
use crate::layers;
use astro_model::{Params, TrainContext};
use astro_prng::Rng;
use astro_train::{clip_grad_norm, AdamW, LmBatch, TrainReport};
use astro_world::CorpusRecipe;
use std::time::Instant;

/// Optimizer steps per `Study::cpt` call.
pub const STEPS_PER_CALL: u64 = 1;

/// One timed `Study::cpt` call: trained weights, report, wall seconds.
type CptCall = Option<(Params, TrainReport, f64)>;

pub fn run(args: &Args, out: &mut Outcome) {
    let (mut world, setup_s) = timed_setup(|| prepare(args.seed), drop);
    world.study.config.cpt_steps = STEPS_PER_CALL;
    let (batch, seq) = (world.study.config.batch, world.study.config.seq);
    out.line(format!(
        "train_cpt: S70b, Summary recipe, batch {batch} x seq {seq}, {STEPS_PER_CALL} step(s) per Study::cpt call"
    ));
    let before = (
        counter("serve.tokens.encoded"),
        counter("router.connections"),
        counter("gateway.connections"),
    );

    // Reference call, outside the timed window: every timed call starts
    // from the same init and substream, so it must reproduce this
    // bitwise.
    let cpt = |out: &mut Outcome| -> CptCall {
        let t0 = Instant::now();
        match world.study.cpt(&world.params, CorpusRecipe::Summary) {
            Ok((p, r)) => Some((p, r, t0.elapsed().as_secs_f64())),
            Err(e) => {
                out.fail(format!("Study::cpt: {e}"));
                None
            }
        }
    };
    let Some((ref_params, ref_report, _)) = cpt(out) else {
        return;
    };
    check_first_loss(out, &world, &ref_report);
    check::self_test_scores(out, "trained parameters", &ref_params.data);
    check::self_test_losses(out, &ref_report.losses);

    if args.trace {
        traced(out, &world, &cpt);
        let encoded = counter("serve.tokens.encoded") - before.0;
        out.metric("serve.tokens_encoded", encoded as f64, "count", "bypassed");
        out.metric(
            "router.connections",
            (counter("router.connections") - before.1) as f64,
            "count",
            "bypassed",
        );
        out.metric(
            "gateway.connections",
            (counter("gateway.connections") - before.2) as f64,
            "count",
            "bypassed",
        );
        return;
    }

    let t_start = Instant::now();
    let (mut tokens, mut total_s) = (0u64, 0.0);
    let mut step_ms = Vec::new();
    // Calls run while the next one, as long as the last, still ends
    // inside the window.
    while step_ms.is_empty()
        || t_start.elapsed().as_secs_f64()
            + step_ms.last().copied().unwrap_or(0.0) / 1e3 * STEPS_PER_CALL as f64
            <= args.seconds
    {
        out.attempted += STEPS_PER_CALL;
        let Some((p, r, t)) = cpt(out) else {
            break;
        };
        tokens += r.tokens_processed;
        total_s += t;
        step_ms.push(t * 1e3 / r.steps as f64);
        if !check::same_bits(&p.data, &ref_params.data)
            || !check::same_losses(&r.losses, &ref_report.losses)
        {
            out.fail("Study::cpt is not reproducible: a repeated call differs bitwise");
        }
    }
    let n = step_ms.len();
    // Tokens over the whole window's training time.
    let tps = tokens as f64 / total_s;
    out.line(format!(
        "train_tokens_per_s {tps:.1} tokens/s ({tokens} tokens over {n} calls)"
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
        tps,
        "1/s",
        format!("train_tokens_per_s over {n} calls"),
    );
}

/// The first CPT batch, drawn exactly as the trainer draws it.
fn first_batch(world: &common::World) -> LmBatch {
    let stream = world
        .study
        .cpt_stream(CorpusRecipe::Summary)
        .expect("prepare packs the Summary corpus");
    let mut rng = Rng::seed_from(world.study.config.seed)
        .substream(&format!("cpt-{}", CorpusRecipe::Summary.label()))
        .substream_idx("train-device", 0);
    LmBatch::sample(
        stream,
        world.study.config.batch,
        world.study.config.seq,
        &mut rng,
    )
}

/// The reported step-0 loss must equal an independent forward pass of
/// the init weights over the same batch, and sit near ln(vocab) for
/// untrained weights.
fn check_first_loss(out: &mut Outcome, world: &common::World, report: &TrainReport) {
    let batch = first_batch(world);
    let mut ctx = TrainContext::new(world.params.cfg, batch.batch, batch.seq);
    let want = ctx.loss(&world.params, &batch.tokens, &batch.targets, &batch.mask);
    let got = report.losses.first().map(|&(_, l)| l).unwrap_or(f32::NAN);
    let uniform = (world.params.cfg.vocab_size as f32).ln();
    if got.to_bits() != want.to_bits() || (got - uniform).abs() > 1.5 {
        out.fail(format!(
            "step-0 loss {got} differs from the independent forward {want} (ln vocab {uniform})"
        ));
    }
}

/// Alternating `Study::cpt` steps and layer-by-layer steps.
const TRACE_REPS: usize = 3;

/// Per-layer timings of one training step's public pieces, with the
/// untraced `Study::cpt` step alternated against the same step run one
/// timed layer call at a time.
fn traced(out: &mut Outcome, world: &common::World, cpt: &dyn Fn(&mut Outcome) -> CptCall) {
    let batch = first_batch(world);
    let params = &world.params;
    let mut ctx = TrainContext::new(params.cfg, batch.batch, batch.seq);
    let mut grad = vec![0.0f32; params.data.len()];
    let mut opt = AdamW::new(params.data.len());
    let mut data = params.data.clone();
    let (mut step_s, mut block_s) = (Vec::new(), Vec::new());
    for _ in 0..TRACE_REPS {
        out.attempted += STEPS_PER_CALL;
        if let Some((_, r, t)) = cpt(out) {
            step_s.push(t / r.steps as f64);
        }
        let t0 = Instant::now();
        grad.fill(0.0);
        ctx.loss_and_grad(
            params,
            &batch.tokens,
            &batch.targets,
            &batch.mask,
            &mut grad,
        );
        clip_grad_norm(&mut grad, 1.0);
        opt.step(&mut data, &grad, 1e-4);
        block_s.push(t0.elapsed().as_secs_f64());
    }
    let fwd = time_median(3, || {
        ctx.loss(params, &batch.tokens, &batch.targets, &batch.mask);
    });
    let fwd_bwd = time_median(3, || {
        grad.fill(0.0);
        ctx.loss_and_grad(
            params,
            &batch.tokens,
            &batch.targets,
            &batch.mask,
            &mut grad,
        );
    });
    let clip_src = grad.clone();
    let clip = time_median(5, || {
        grad.copy_from_slice(&clip_src);
        clip_grad_norm(&mut grad, 1.0);
    });
    let optim = time_median(5, || opt.step(&mut data, &grad, 1e-4));

    let (step_s, block_s) = (median(&step_s), median(&block_s));
    let step_ms = step_s * 1e3;
    let tokens = (batch.batch * batch.seq) as f64;
    out.metric(
        "workload.train_tokens_per_s",
        tokens / step_s,
        "1/s",
        format!("Study::cpt, median of {TRACE_REPS} steps"),
    );
    out.metric(
        "train.step_ms",
        step_ms,
        "ms",
        "Study::cpt wall time / steps",
    );
    out.metric(
        "train.fwd_ms",
        fwd * 1e3,
        "ms",
        "TrainContext::loss, median of 3",
    );
    out.metric(
        "train.bwd_ms",
        (fwd_bwd - fwd) * 1e3,
        "ms",
        "loss_and_grad minus loss, medians of 3",
    );
    out.metric(
        "train.optim_ms",
        optim * 1e3,
        "ms",
        "AdamW::step, median of 5",
    );
    out.metric(
        "train.clip_ms",
        clip * 1e3,
        "ms",
        "clip_grad_norm, median of 5",
    );
    let parts = fwd_bwd + clip + optim;
    out.metric(
        "unattributed_share",
        1.0 - parts / step_s,
        "share",
        "step time not in fwd + bwd + optim + clip",
    );
    out.metric(
        "trace_overhead_pct",
        (block_s / step_s - 1.0) * 100.0,
        "%",
        format!("medians of {TRACE_REPS}: layer-by-layer step {:.1} ms vs Study::cpt step {step_ms:.1} ms", block_s * 1e3),
    );
    out.line(format!(
        "accounting: fwd {:.1} + bwd {:.1} + optim {:.1} + clip {:.1} = {:.1} ms of {step_ms:.1} ms step",
        fwd * 1e3,
        (fwd_bwd - fwd) * 1e3,
        optim * 1e3,
        clip * 1e3,
        parts * 1e3
    ));
    let cfg = params.cfg;
    layers::matmul_rate(out, "train", batch.batch * batch.seq, cfg.d_model, cfg.d_ff);
}
