//! `serve_mixed`: open-loop Poisson arrivals of `/v1/score` and
//! `/v1/generate` at 2:1 through `Cluster::spawn` (router + 2 gateway
//! replicas, default configs) serving S70b int8 weights, at a ladder of
//! fixed rates.

use crate::check;
use crate::common::{
    self, counter, hit_rate, median, percentile, saved_share, serve_counters, timed_setup, Args,
    Outcome, World,
};
use crate::layers;
use astro_eval::json::Json;
use astro_eval::{
    extract_answer, generate_job, score_job, EvalModel, InstructEvalConfig, TokenEvalConfig,
};
use astro_gateway::api::mcq_from_request;
use astro_gateway::client::{post_json, HttpResponse};
use astro_gateway::{GatewayConfig, GatewayState};
use astro_mcq::Mcq;
use astro_model::Params;
use astro_prng::Rng;
use astro_router::affinity::AffinityKeyer;
use astro_router::{Cluster, ClusterConfig, Ring, RouterConfig};
use astro_serve::{EngineConfig, EvalEngine};
use astro_telemetry::event::write_json_string;
use std::collections::{HashMap, HashSet};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Gateway replicas behind the router.
pub const REPLICAS: usize = 2;
/// Concurrent sender connections (the host's core count).
pub const SENDERS: usize = 2;
/// The ladder's nominal rate, requests/s; latencies are reported here.
/// About a third of what the 2-sender stack sustains, so a slower host
/// does not push it up the queueing knee.
pub const NOMINAL_RPS: f64 = 12.0;
/// The overload rate, well past what the 2-sender stack sustains; the
/// rate it achieves there is its capacity.
pub const OVERLOAD_RPS: f64 = 64.0;
/// Ladder rates in requests/s, run in this order, with each rung's share
/// of the run's measuring time.
pub const LADDER: &[(f64, f64)] = &[(6.0, 0.05), (NOMINAL_RPS, 0.85), (OVERLOAD_RPS, 0.10)];
/// Goodput limit on score p95 latency, from the due time.
pub const SCORE_P95_LIMIT_MS: f64 = 500.0;
/// Goodput limit on generate p90 latency, from the due time.
pub const GENERATE_P90_LIMIT_MS: f64 = 600.0;
/// Lateness "grows" when the last quarter's median exceeds the first
/// quarter's by more than this.
pub const LATENESS_GROWTH_MS: f64 = 50.0;
/// Responses per endpoint checked bitwise against the serial reference.
pub const CHECKS_PER_ENDPOINT: usize = 16;
/// Requests per replica sent directly during warm-up.
const WARMUP_PER_REPLICA: usize = 6;
/// Score requests used to measure the router hop in the traced run.
const HOP_REQUESTS: usize = 24;
/// Direct/via-router round pairs per hop request.
const HOP_ROUNDS: usize = 6;
const TIMEOUT: Duration = Duration::from_secs(60);

#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum Kind {
    Score,
    Generate,
}

impl Kind {
    fn path(self) -> &'static str {
        match self {
            Kind::Score => "/v1/score",
            Kind::Generate => "/v1/generate",
        }
    }

    fn name(self) -> &'static str {
        match self {
            Kind::Score => "score",
            Kind::Generate => "generate",
        }
    }
}

/// One scheduled request.
struct Req<'a> {
    kind: Kind,
    q: &'a Mcq,
    /// Offset of the due time from the phase start.
    due: Duration,
    gen_seed: u64,
    body: String,
}

/// One answered (or failed) request.
#[derive(Clone)]
struct Res {
    /// HTTP status; 0 for a transport error.
    status: u16,
    /// Due time to response, ms.
    latency_ms: f64,
    /// Send to response, ms.
    service_ms: f64,
    /// Send time minus due time, ms.
    lateness_ms: f64,
    /// Send time, from the phase start.
    sent: Duration,
    replica: String,
    body: String,
    /// The gateway's `trace.phases` block, parsed by the sender right
    /// after the response (traced runs only), and the time that took.
    phases: Vec<(String, f64)>,
    trace_s: f64,
}

fn request_body(kind: Kind, q: &Mcq, gen_seed: u64, client: &str) -> String {
    let mut s = String::from("{\"question\":");
    write_json_string(&mut s, &q.question);
    s.push_str(",\"options\":[");
    for (i, o) in q.options.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_json_string(&mut s, o);
    }
    s.push_str(&format!("],\"group\":{},\"client\":", q.article));
    write_json_string(&mut s, client);
    if kind == Kind::Generate {
        s.push_str(&format!(",\"seed\":{gen_seed}"));
    }
    s.push('}');
    s
}

/// Hands out unique questions in a seed-shuffled order, with the kind
/// mix, arrival times and sampler seeds drawn from the same seed.
struct Source<'a> {
    questions: Vec<&'a Mcq>,
    next: usize,
    rng: Rng,
    tag: u64,
}

impl<'a> Source<'a> {
    fn new(world: &'a World, seed: u64) -> Self {
        let mut rng = Rng::seed_from(seed).substream("perfbench.serve");
        let mut questions: Vec<&Mcq> = world.study.mcq.questions.iter().collect();
        rng.shuffle(&mut questions);
        Source {
            questions,
            next: 0,
            rng,
            tag: seed,
        }
    }

    fn take(&mut self, kind: Kind, due: Duration) -> Req<'a> {
        let q = self.questions[self.next % self.questions.len()];
        let client = format!("vu-{}-{}", self.tag, self.next);
        self.next += 1;
        let gen_seed = self.rng.next_u64();
        Req {
            kind,
            q,
            due,
            gen_seed,
            body: request_body(kind, q, gen_seed, &client),
        }
    }

    /// `n` requests at `rate`: exactly two score requests per generate
    /// request (shuffled), Poisson gaps rescaled so the last arrival
    /// lands at `n / rate`.
    fn phase(&mut self, n: usize, rate: f64) -> Vec<Req<'a>> {
        let mut kinds: Vec<Kind> = (0..n)
            .map(|i| {
                if i % 3 == 2 {
                    Kind::Generate
                } else {
                    Kind::Score
                }
            })
            .collect();
        self.rng.shuffle(&mut kinds);
        let gaps: Vec<f64> = (0..n).map(|_| -(1.0 - self.rng.f64()).ln()).collect();
        let scale = n as f64 / rate / gaps.iter().sum::<f64>();
        let mut t = 0.0;
        kinds
            .into_iter()
            .zip(gaps)
            .map(|(k, g)| {
                t += g * scale;
                self.take(k, Duration::from_secs_f64(t))
            })
            .collect()
    }
}

fn send(addr: SocketAddr, req: &Req<'_>) -> Result<HttpResponse, String> {
    post_json(addr, req.kind.path(), &req.body, TIMEOUT)
}

/// Run one open-loop phase against `addr` with [`SENDERS`] senders;
/// with `trace`, each sender also parses every response's trace block.
fn run_phase(addr: SocketAddr, reqs: &[Req<'_>], trace: bool) -> Vec<Res> {
    let next = AtomicUsize::new(0);
    let results: Mutex<Vec<Option<Res>>> = Mutex::new(vec![None; reqs.len()]);
    let t0 = Instant::now() + Duration::from_millis(20);
    std::thread::scope(|s| {
        for _ in 0..SENDERS {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::SeqCst);
                let Some(req) = reqs.get(i) else {
                    break;
                };
                let due = t0 + req.due;
                let now = Instant::now();
                if due > now {
                    std::thread::sleep(due - now);
                }
                let sent = Instant::now();
                let resp = send(addr, req);
                let done = Instant::now();
                let (status, replica, body) = match resp {
                    Ok(r) => (
                        r.status,
                        r.header("x-astro-replica").unwrap_or("").to_string(),
                        r.body,
                    ),
                    Err(e) => (0, String::new(), e),
                };
                let t_trace = Instant::now();
                let phases = if trace {
                    trace_phases(&body)
                } else {
                    Vec::new()
                };
                let trace_s = if trace {
                    t_trace.elapsed().as_secs_f64()
                } else {
                    0.0
                };
                let res = Res {
                    status,
                    latency_ms: (done - due).as_secs_f64() * 1e3,
                    service_ms: (done - sent).as_secs_f64() * 1e3,
                    lateness_ms: sent.saturating_duration_since(due).as_secs_f64() * 1e3,
                    sent: sent - t0,
                    replica,
                    body,
                    phases,
                    trace_s,
                };
                results.lock().expect("results lock")[i] = Some(res);
            });
        }
    });
    results
        .into_inner()
        .expect("results lock")
        .into_iter()
        .map(|r| r.expect("every request answered"))
        .collect()
}

/// The serving stack: S70b int8 weights behind the cluster.
struct Stack {
    cluster: Cluster,
    qparams: Params,
    token_config: TokenEvalConfig,
    instruct_config: InstructEvalConfig,
}

fn spawn_stack(world: &World, source_warm: &[&Mcq]) -> Stack {
    let qparams = world.params.clone().quantized();
    let token_config = TokenEvalConfig::default();
    let instruct_config = InstructEvalConfig::default();
    let state = GatewayState {
        params: Arc::new(qparams.clone()),
        draft: None,
        tokenizer: Arc::new(world.study.tokenizer.clone()),
        exemplars: Arc::new(world.study.mcq.exemplars.clone()),
        token_config,
        instruct_config,
    };
    let config = ClusterConfig {
        replicas: REPLICAS,
        gateway: GatewayConfig::default(),
        router: RouterConfig::default(),
    };
    let cluster = Cluster::spawn(config, state).expect("cluster spawns");
    // Warm-up: both endpoints on every replica, so each prefix cache
    // holds the shared preambles before timing starts.
    for r in 0..REPLICAS {
        let addr = cluster.replica_addr(r);
        for (i, q) in source_warm
            .iter()
            .skip(r * WARMUP_PER_REPLICA)
            .take(WARMUP_PER_REPLICA)
            .enumerate()
        {
            let kind = if i % 3 == 2 {
                Kind::Generate
            } else {
                Kind::Score
            };
            let body = request_body(kind, q, i as u64, &format!("warm-{r}-{i}"));
            let resp = post_json(addr, kind.path(), &body, TIMEOUT).expect("warm-up request");
            assert_eq!(
                resp.status, 200,
                "warm-up answered {}: {}",
                resp.status, resp.body
            );
        }
    }
    Stack {
        cluster,
        qparams,
        token_config,
        instruct_config,
    }
}

fn ok(r: &Res) -> bool {
    r.status == 200
}

fn latencies(reqs: &[Req<'_>], res: &[Res], kind: Kind) -> Vec<f64> {
    reqs.iter()
        .zip(res)
        .filter(|(q, r)| q.kind == kind && ok(r))
        .map(|(_, r)| r.latency_ms)
        .collect()
}

/// Median lateness of the last quarter minus that of the first quarter,
/// by send order.
fn lateness_growth(res: &[Res]) -> f64 {
    let mut by_send: Vec<&Res> = res.iter().collect();
    by_send.sort_by_key(|r| r.sent);
    let q = (by_send.len() / 4).max(1);
    let first: Vec<f64> = by_send.iter().take(q).map(|r| r.lateness_ms).collect();
    let last: Vec<f64> = by_send
        .iter()
        .rev()
        .take(q)
        .map(|r| r.lateness_ms)
        .collect();
    median(&last) - median(&first)
}

/// Per-rung summary.
struct Rung {
    rate: f64,
    n: usize,
    failed: usize,
    score_p95: f64,
    generate_p90: f64,
    growth: f64,
    achieved: f64,
}

impl Rung {
    fn passes(&self) -> bool {
        self.failed == 0
            && self.score_p95 <= SCORE_P95_LIMIT_MS
            && self.generate_p90 <= GENERATE_P90_LIMIT_MS
            && self.growth <= LATENESS_GROWTH_MS
    }
}

fn summarize(rate: f64, reqs: &[Req<'_>], res: &[Res], mismatched: usize) -> Rung {
    let failed = res.iter().filter(|r| !ok(r)).count() + mismatched;
    // Requests completed per second, first due time to last response.
    let span_ms = res
        .iter()
        .map(|r| r.sent.as_secs_f64() * 1e3 + r.service_ms)
        .fold(0.0, f64::max)
        - reqs
            .first()
            .map(|q| q.due.as_secs_f64() * 1e3)
            .unwrap_or(0.0);
    Rung {
        rate,
        n: res.len(),
        failed,
        score_p95: percentile(&latencies(reqs, res, Kind::Score), 0.95),
        generate_p90: percentile(&latencies(reqs, res, Kind::Generate), 0.90),
        growth: lateness_growth(res),
        achieved: (res.len() - failed) as f64 / (span_ms / 1e3),
    }
}

/// Compare a seed-drawn sample of responses, one per article group per
/// endpoint, bitwise against the serial in-process reference. Returns
/// the indices (into `reqs`) that mismatched.
fn check_sample(
    out: &mut Outcome,
    world: &World,
    stack: &Stack,
    reqs: &[&Req<'_>],
    res: &[&Res],
    rng: &mut Rng,
) -> HashSet<usize> {
    let model = EvalModel {
        params: &stack.qparams,
        tokenizer: &world.study.tokenizer,
    };
    let engine = EvalEngine::new(EngineConfig::serial(), &stack.qparams);
    let mut bad = HashSet::new();
    for kind in [Kind::Score, Kind::Generate] {
        let mut idx: Vec<usize> = (0..reqs.len())
            .filter(|&i| reqs[i].kind == kind && ok(res[i]))
            .collect();
        rng.shuffle(&mut idx);
        let mut groups = HashSet::new();
        let picked: Vec<usize> = idx
            .into_iter()
            .filter(|&i| groups.insert(reqs[i].q.article))
            .take(CHECKS_PER_ENDPOINT)
            .collect();
        let mut self_tested = false;
        for i in picked {
            let req = reqs[i];
            let body = &res[i].body;
            let mcq = mcq_from_request(&req.q.question, &req.q.options, req.q.article as u64);
            let matched = match kind {
                Kind::Score => {
                    let job = score_job(
                        &model,
                        &mcq,
                        &world.study.mcq.exemplars,
                        &stack.token_config,
                    );
                    let want = engine.score_batch(vec![job]).remove(0).unwrap_or_default();
                    let matched = check::score_response_matches(body, &want);
                    if matched && !self_tested {
                        check::self_test_score_response(out, body, &want);
                        self_tested = true;
                    }
                    matched
                }
                Kind::Generate => {
                    let job = generate_job(
                        &model,
                        &mcq,
                        &stack.instruct_config,
                        Rng::seed_from(req.gen_seed),
                    );
                    let tokens = engine
                        .generate_batch(vec![job])
                        .remove(0)
                        .unwrap_or_default();
                    let want_raw = world.study.tokenizer.decode(&tokens);
                    let (want_pred, _) = extract_answer(&want_raw, &req.q.options);
                    let matched = check::generate_response_matches(body, &want_raw, want_pred);
                    if matched && !self_tested {
                        check::self_test_generate_response(out, body, &want_raw, want_pred);
                        self_tested = true;
                    }
                    matched
                }
            };
            if !matched {
                out.fail(format!(
                    "{} response for question {} differs from the serial reference",
                    kind.name(),
                    req.q.id
                ));
                bad.insert(i);
            }
        }
        if !self_tested {
            out.fail(format!(
                "self-test: no {} response matched its reference to test with",
                kind.name()
            ));
        }
    }
    bad
}

pub fn run(args: &Args, out: &mut Outcome) {
    let (world, prep_s) = timed_setup(|| common::prepare(args.seed), drop);
    // Set-up is prepare + quantize + spawn + warm-up; the cluster part is
    // timed on the final world, median of the same number of repetitions.
    let warm: Vec<&Mcq> = Source::new(&world, args.seed)
        .questions
        .iter()
        .rev()
        .take(REPLICAS * WARMUP_PER_REPLICA)
        .copied()
        .collect();
    let (stack, spawn_s) = timed_setup(
        || spawn_stack(&world, &warm),
        |old: Stack| {
            old.cluster.shutdown();
        },
    );
    let setup_s = prep_s + spawn_s;
    out.line(format!(
        "serve_mixed: S70b int8, router + {REPLICAS} replicas, {SENDERS} senders, score:generate 2:1, nominal {NOMINAL_RPS} rps"
    ));
    let router = stack.cluster.router_addr();
    let mut source = Source::new(&world, args.seed);
    let mut check_rng = Rng::seed_from(args.seed).substream("perfbench.serve.check");

    if args.trace {
        traced(args, out, &world, &stack, &mut source, &mut check_rng);
        let stats = stack.cluster.shutdown();
        out.metric(
            "router.failovers",
            stats.router.failovers as f64,
            "count",
            "RouterStats",
        );
        out.metric(
            "router.redispatches",
            stats.router.redispatches as f64,
            "count",
            "RouterStats",
        );
        out.metric(
            "router.lost",
            stats.router.lost as f64,
            "count",
            "RouterStats",
        );
        return;
    }

    let mut phases = Vec::new();
    for &(rate, share) in LADDER {
        let n = (rate * share * args.seconds).round().max(3.0) as usize;
        let reqs = source.phase(n, rate);
        let res = run_phase(router, &reqs, false);
        phases.push((rate, reqs, res));
    }

    // Correctness: one sample over every rung, outside the timed windows.
    let all_reqs: Vec<&Req<'_>> = phases.iter().flat_map(|(_, q, _)| q.iter()).collect();
    let all_res: Vec<&Res> = phases.iter().flat_map(|(_, _, r)| r.iter()).collect();
    let bad = check_sample(out, &world, &stack, &all_reqs, &all_res, &mut check_rng);
    let stats = stack.cluster.shutdown();
    if stats.router.lost > 0 {
        out.fail(format!("router lost {} requests", stats.router.lost));
    }

    let mut offset = 0;
    let mut goodput = None;
    let mut nominal = None;
    let mut capacity = None;
    for (rate, reqs, res) in &phases {
        let mismatched = (offset..offset + res.len())
            .filter(|i| bad.contains(i))
            .count();
        offset += res.len();
        out.attempted += res.len() as u64;
        for r in res.iter().filter(|r| !ok(r)) {
            out.fail(format!("status {} at {rate} rps: {}", r.status, r.body));
        }
        let rung = summarize(*rate, reqs, res, mismatched);
        let lateness: Vec<f64> = res.iter().map(|r| r.lateness_ms).collect();
        out.line(format!(
            "rung {:>5.1} rps: n {:>4} failed {} score p95 {:>7.1} ms, generate p90 {:>7.1} ms, lateness p50 {:.1} max {:.1} ms, growth {:+.1} ms, achieved {:.2} rps -> {}",
            rung.rate,
            rung.n,
            rung.failed,
            rung.score_p95,
            rung.generate_p90,
            median(&lateness),
            lateness.iter().copied().fold(0.0, f64::max),
            rung.growth,
            rung.achieved,
            if rung.passes() { "meets limits" } else { "misses limits" }
        ));
        if (*rate - OVERLOAD_RPS).abs() < 1e-9 {
            capacity = Some(rung.achieved);
        }
        if rung.passes() && goodput.as_ref().is_none_or(|g: &Rung| g.rate < rung.rate) {
            goodput = Some(rung);
        }
        if (*rate - NOMINAL_RPS).abs() < 1e-9 {
            nominal = Some((reqs, res));
        }
    }
    let (reqs, res) = nominal.expect("the ladder includes the nominal rate");
    let score = latencies(reqs, res, Kind::Score);
    let generate = latencies(reqs, res, Kind::Generate);
    let lateness: Vec<f64> = res.iter().map(|r| r.lateness_ms).collect();
    out.line(format!(
        "at the nominal {NOMINAL_RPS} rps rung, latency from each request's due time:"
    ));
    for (name, xs, p) in [
        ("score_p50_ms", &score, 0.5),
        ("score_p95_ms", &score, 0.95),
        ("generate_p50_ms", &generate, 0.5),
        ("generate_p90_ms", &generate, 0.9),
    ] {
        out.line(format!(
            "  {name:<16} {:>9.2} ms  (n={})",
            percentile(xs, p),
            xs.len()
        ));
    }
    out.line(format!(
        "  lateness         p50 {:.2} ms, max {:.2} ms  (n={})",
        median(&lateness),
        lateness.iter().copied().fold(0.0, f64::max),
        lateness.len()
    ));
    let goodput_rps = goodput.as_ref().map(|g| g.achieved).unwrap_or(0.0);
    out.line(format!(
        "goodput_rps {goodput_rps:.3} at the {:.0} rps rung (highest rung meeting score p95 <= {SCORE_P95_LIMIT_MS} ms, generate p90 <= {GENERATE_P90_LIMIT_MS} ms, no failure, lateness growth <= {LATENESS_GROWTH_MS} ms)",
        goodput.as_ref().map(|g| g.rate).unwrap_or(0.0)
    ));
    let capacity_rps = capacity.expect("the ladder includes the overload rate");
    out.line(format!(
        "capacity_rps {capacity_rps:.3} (completed requests/s at the {OVERLOAD_RPS} rps overload rung)"
    ));
    out.metric(
        "setup_s",
        setup_s,
        "s",
        format!(
            "prepare + quantize + spawn + warm-up, medians of {}",
            common::SETUP_REPS
        ),
    );
    out.metric("peak_rss_mb", common::peak_rss_mb(), "MB", "VmHWM");
    out.metric(
        "throughput_per_s",
        capacity_rps,
        "1/s",
        format!("capacity_rps at the {OVERLOAD_RPS} rps overload rung"),
    );
}

/// Parse the gateway's `trace.phases` block from a response body.
fn trace_phases(body: &str) -> Vec<(String, f64)> {
    let Ok(v) = Json::parse(body) else {
        return Vec::new();
    };
    match v.get("trace").and_then(|t| t.get("phases")) {
        Some(Json::Object(m)) => m
            .iter()
            .filter_map(|(k, v)| match v {
                Json::Number(n) => Some((k.clone(), *n)),
                _ => None,
            })
            .collect(),
        _ => Vec::new(),
    }
}

const PHASES: &[&str] = &[
    "recv",
    "build",
    "queue_wait",
    "batch_form",
    "exec_wait",
    "cache_lookup",
    "prefill",
    "decode",
    "sync",
    "extract",
];

/// The traced run: the nominal rate with every response's trace block,
/// headers and registry deltas recorded; the router hop; and the int8
/// model and kernel timings.
fn traced(
    args: &Args,
    out: &mut Outcome,
    world: &World,
    stack: &Stack,
    source: &mut Source<'_>,
    check_rng: &mut Rng,
) {
    let router = stack.cluster.router_addr();
    let share = LADDER
        .iter()
        .find(|(r, _)| *r == NOMINAL_RPS)
        .map(|(_, s)| *s)
        .unwrap_or(0.5);
    let n = (NOMINAL_RPS * share * args.seconds).round() as usize;
    let reqs = source.phase(n, NOMINAL_RPS);
    let c0 = serve_counters();
    let hist = astro_telemetry::histogram("gateway.batch_occupancy");
    let (occ_n0, occ_sum0) = (hist.count(), hist.mean() * hist.count() as f64);
    let conns0 = (
        counter("router.connections"),
        counter("gateway.connections"),
    );
    let res = run_phase(router, &reqs, true);
    let c1 = serve_counters();
    let (occ_n1, occ_sum1) = (hist.count(), hist.mean() * hist.count() as f64);
    let conns1 = (
        counter("router.connections"),
        counter("gateway.connections"),
    );

    let all_reqs: Vec<&Req<'_>> = reqs.iter().collect();
    let all_res: Vec<&Res> = res.iter().collect();
    out.attempted += all_res.len() as u64;
    for r in all_res.iter().filter(|r| !ok(r)) {
        out.fail(format!("status {}: {}", r.status, r.body));
    }
    check_sample(out, world, stack, &all_reqs, &all_res, check_rng);

    // Gateway phases, per endpoint.
    let mut phase_samples: HashMap<(Kind, &str), Vec<f64>> = HashMap::new();
    let (mut phase_total, mut client_total) = (0.0, 0.0);
    for (q, r) in reqs.iter().zip(&res).filter(|(_, r)| ok(r)) {
        let phases = &r.phases;
        for &p in PHASES {
            let v = phases
                .iter()
                .find(|(k, _)| k == p)
                .map(|(_, v)| *v)
                .unwrap_or(0.0);
            phase_samples.entry((q.kind, p)).or_default().push(v);
        }
        phase_total += phases.iter().map(|(_, v)| v).sum::<f64>() / 1e3;
        client_total += r.service_ms;
    }
    for kind in [Kind::Score, Kind::Generate] {
        for &p in PHASES {
            let xs = phase_samples.get(&(kind, p)).cloned().unwrap_or_default();
            out.metric(
                &format!("gateway.{}.{p}_us", kind.name()),
                median(&xs),
                "us",
                format!("p50 of trace.phases, n={}", xs.len()),
            );
        }
    }
    let rejected = all_res
        .iter()
        .filter(|r| matches!(r.status, 429 | 503 | 504))
        .count();
    out.metric(
        "gateway.phase_sum_ratio",
        phase_total / client_total,
        "share",
        "sum of phases / client-observed latency (from send)",
    );
    let occ = if occ_n1 > occ_n0 {
        (occ_sum1 - occ_sum0) / (occ_n1 - occ_n0) as f64
    } else {
        0.0
    };
    out.metric(
        "gateway.batch_occupancy_mean",
        occ,
        "count",
        format!("{} batches", occ_n1 - occ_n0),
    );
    out.metric(
        "gateway.rejected",
        rejected as f64,
        "count",
        "429 + 503 + 504 responses",
    );
    out.metric(
        "gateway.connections",
        (conns1.1 - conns0.1) as f64,
        "count",
        "gateway.connections, traced phase",
    );
    out.metric(
        "router.connections",
        (conns1.0 - conns0.0) as f64,
        "count",
        "router.connections, traced phase",
    );
    out.metric(
        "serve.saved_share",
        saved_share(&c0, &c1),
        "share",
        "both endpoints, mixed traffic",
    );
    out.metric(
        "serve.prefix_hit_rate",
        hit_rate(&c0, &c1),
        "share",
        "serve.prefix.hits / (hits + misses)",
    );
    out.metric(
        "serve.cache_evictions",
        (c1.evictions - c0.evictions) as f64,
        "count",
        "",
    );
    out.metric(
        "serve.tokens_encoded",
        (c1.encoded - c0.encoded) as f64,
        "count",
        "",
    );

    // Workload detail at the nominal rate, from the traced phase.
    let score = latencies(&reqs, &res, Kind::Score);
    let generate = latencies(&reqs, &res, Kind::Generate);
    let lateness: Vec<f64> = res.iter().map(|r| r.lateness_ms).collect();
    out.metric(
        "workload.score_p50_ms",
        percentile(&score, 0.5),
        "ms",
        format!("n={}", score.len()),
    );
    out.metric(
        "workload.score_p95_ms",
        percentile(&score, 0.95),
        "ms",
        format!("n={}", score.len()),
    );
    out.metric(
        "workload.generate_p50_ms",
        percentile(&generate, 0.5),
        "ms",
        format!("n={}", generate.len()),
    );
    out.metric(
        "workload.generate_p90_ms",
        percentile(&generate, 0.9),
        "ms",
        format!("n={}", generate.len()),
    );
    let rung = summarize(NOMINAL_RPS, &reqs, &res, 0);
    out.metric(
        "workload.goodput_rps",
        if rung.passes() { rung.achieved } else { 0.0 },
        "1/s",
        "nominal rung only",
    );
    out.metric(
        "loadgen.lateness_p50_ms",
        median(&lateness),
        "ms",
        format!("n={}", lateness.len()),
    );
    out.metric(
        "loadgen.lateness_max_ms",
        lateness.iter().copied().fold(0.0, f64::max),
        "ms",
        "",
    );

    // Affinity: the ring owner of each group's learned anchor, replayed
    // in send order with the router's own keyer and ring.
    let mut keyer = AffinityKeyer::new();
    let mut ring = Ring::new(RouterConfig::default().vnodes);
    for r in 0..REPLICAS {
        ring.insert(r as u32);
    }
    let mut order: Vec<usize> = (0..all_reqs.len()).collect();
    order.sort_by_key(|&i| all_res[i].sent);
    let mut owner_hits = 0usize;
    let mut answered = 0usize;
    for i in order {
        let key = keyer.key(Some(all_reqs[i].q.article as u64), &all_reqs[i].q.question);
        if !ok(all_res[i]) {
            continue;
        }
        answered += 1;
        let owner = ring
            .primary(key)
            .map(|o| format!("replica-{o}"))
            .unwrap_or_default();
        if all_res[i].replica == owner {
            owner_hits += 1;
        }
    }
    out.metric(
        "router.affinity_share",
        owner_hits as f64 / answered.max(1) as f64,
        "share",
        format!("n={answered}"),
    );

    // Router hop: the same (fully cached) score request, alternately
    // via the router and straight to the replica that owns it. The
    // fastest of several rounds per path filters scheduling noise that is
    // larger than the hop itself.
    let mut hops = Vec::new();
    for _ in 0..HOP_REQUESTS {
        let req = source.take(Kind::Score, Duration::ZERO);
        let Ok(first) = send(router, &req) else {
            out.fail("hop warm-up transport error");
            continue;
        };
        let replica: usize = first
            .header("x-astro-replica")
            .and_then(|r| r.strip_prefix("replica-"))
            .and_then(|r| r.parse().ok())
            .unwrap_or(0);
        let direct_addr = stack.cluster.replica_addr(replica);
        let (mut via, mut direct) = (Vec::new(), Vec::new());
        for _ in 0..HOP_ROUNDS {
            for (addr, sink) in [(direct_addr, &mut direct), (router, &mut via)] {
                let t = Instant::now();
                match send(addr, &req) {
                    Ok(r) if r.status == 200 => sink.push(t.elapsed().as_secs_f64() * 1e3),
                    _ => out.fail("hop request failed"),
                }
            }
        }
        out.attempted += 1 + 2 * HOP_ROUNDS as u64;
        let fastest = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
        hops.push(fastest(&via) - fastest(&direct));
    }
    let hop_ms = median(&hops);
    out.metric(
        "router.hop_ms",
        hop_ms,
        "ms",
        format!(
            "p50 over {} requests of fastest via-router minus fastest direct, {HOP_ROUNDS} rounds each",
            hops.len()
        ),
    );

    // Accounting: gateway phases plus the router hop against client
    // latency.
    let answered_n = res.iter().filter(|r| ok(r)).count() as f64;
    out.metric(
        "unattributed_share",
        1.0 - (phase_total + hop_ms * answered_n) / client_total,
        "share",
        "client latency not in gateway phases + router hop",
    );
    let trace_s: f64 = res.iter().map(|r| r.trace_s).sum();
    out.metric(
        "trace_overhead_pct",
        trace_s * 1e3 / client_total * 100.0,
        "%",
        "sender time parsing trace blocks / client latency (the hop and phases are read from headers and bodies the program sends anyway)",
    );

    // Layer timings of the int8 model path and the tokenizer and
    // extraction work each request does.
    let model = EvalModel {
        params: &stack.qparams,
        tokenizer: &world.study.tokenizer,
    };
    let gen_prompts: Vec<Vec<u32>> = reqs
        .iter()
        .filter(|q| q.kind == Kind::Generate)
        .take(8)
        .map(|q| {
            generate_job(
                &model,
                q.q,
                &stack.instruct_config,
                Rng::seed_from(q.gen_seed),
            )
            .prompt
        })
        .collect();
    layers::model_rates(out, &stack.qparams, &gen_prompts, "int8");
    let cfg = stack.qparams.cfg;
    layers::matvec_q8_rate(out, cfg.d_model, cfg.d_ff);
    let score_qs: Vec<&Mcq> = reqs
        .iter()
        .filter(|q| q.kind == Kind::Score)
        .map(|q| q.q)
        .collect();
    let t = Instant::now();
    for q in &score_qs {
        let mcq = mcq_from_request(&q.question, &q.options, q.article as u64);
        std::hint::black_box(score_job(
            &model,
            &mcq,
            &world.study.mcq.exemplars,
            &stack.token_config,
        ));
    }
    out.metric(
        "tokenizer.prompt_encode_us",
        t.elapsed().as_secs_f64() * 1e6 / score_qs.len().max(1) as f64,
        "us",
        format!("score_job (render + encode), mean of {}", score_qs.len()),
    );
    let raws: Vec<(String, &Mcq)> = reqs
        .iter()
        .zip(&res)
        .filter(|(q, r)| q.kind == Kind::Generate && ok(r))
        .filter_map(|(q, r)| {
            Json::parse(&r.body)
                .ok()?
                .get("raw")?
                .as_str()
                .map(|s| (s.to_string(), q.q))
        })
        .collect();
    let t = Instant::now();
    for (raw, q) in &raws {
        std::hint::black_box(extract_answer(raw, &q.options));
    }
    out.metric(
        "eval.extract_us",
        t.elapsed().as_secs_f64() * 1e6 / raws.len().max(1) as f64,
        "us",
        format!("extract_answer, mean of {}", raws.len()),
    );
}
