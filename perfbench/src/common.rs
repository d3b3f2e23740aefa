//! Shared pieces: arguments, the study/weights set-up every workload
//! starts from, sample statistics, the host record and the result line.

use astro_model::{Params, Tier};
use astro_prng::Rng;
use astromlab::{Study, StudyConfig};
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
pub const SETUP_REPS: usize = 5;

/// Parsed command line.
#[derive(Clone, Debug)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

impl Args {
    /// Parse `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
    pub fn parse(argv: &[String]) -> Result<Args, String> {
        let mut workload = None;
        let mut seed = None;
        let mut seconds = None;
        let mut trace = None;
        let mut it = argv.iter();
        while let Some(flag) = it.next() {
            let value = it
                .next()
                .ok_or_else(|| format!("flag {flag} needs a value"))?;
            match flag.as_str() {
                "--workload" => workload = Some(value.clone()),
                "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
                "--seconds" => {
                    let s = value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?;
                    if !(s.is_finite() && s > 0.0 && s <= 600.0) {
                        return Err(format!("--seconds {s} outside (0, 600]"));
                    }
                    seconds = Some(s);
                }
                "--trace" => {
                    trace = Some(match value.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("--trace must be 0 or 1, got {other}")),
                    })
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(Args {
            workload: workload.ok_or("missing --workload")?,
            seed: seed.ok_or("missing --seed")?,
            seconds: seconds.ok_or("missing --seconds")?,
            trace: trace.unwrap_or(false),
        })
    }
}

/// The prepared world plus the workload's untrained S70b weights.
pub struct World {
    pub study: Study,
    pub params: Params,
}

/// Seed of the `fast` preset's world, tokenizer and benchmark. They are
/// the system under test, fixed like its code; the run's `--seed` draws
/// the inputs (question subsets, arrivals, sampler seeds) and weights.
pub const WORLD_SEED: u64 = 42;

/// Prepare the `fast` study and draw S70b weights from the seed.
pub fn prepare(seed: u64) -> World {
    let study = Study::prepare(StudyConfig::fast(WORLD_SEED)).expect("fast preset prepares");
    let cfg = study.model_config(Tier::S70b);
    let mut rng = Rng::seed_from(seed).substream("perfbench.weights");
    let params = Params::init(cfg, &mut rng);
    World { study, params }
}

/// Run `build` [`SETUP_REPS`] times, keep the last result, and return it
/// with the median wall time. Earlier results go to `teardown`, outside
/// the timed part.
pub fn timed_setup<T>(mut build: impl FnMut() -> T, mut teardown: impl FnMut(T)) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut last = None;
    for _ in 0..SETUP_REPS {
        if let Some(old) = last.take() {
            teardown(old);
        }
        let t0 = Instant::now();
        let v = build();
        times.push(t0.elapsed().as_secs_f64());
        last = Some(v);
    }
    (last.expect("at least one set-up"), median(&times))
}

/// Median of a sample (mean of the middle two for even counts); 0 for
/// an empty sample.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// Nearest-rank percentile (`p` in 0..=1); 0 for an empty sample.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Median of `f` over `reps` calls, in seconds.
pub fn time_median(reps: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..reps)
        .map(|_| {
            let t0 = Instant::now();
            f();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    median(&times)
}

/// Peak resident set size of this process, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// Current value of a counter in the process-wide telemetry registry.
pub fn counter(name: &str) -> u64 {
    astro_telemetry::counter(name).get()
}

/// One reported metric.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// Free-text context printed beside the value (sample counts, how a
    /// rate was derived).
    pub note: String,
}

/// A workload's result: correctness, operation counts and metrics.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every correctness check ran and passed.
    pub correct: bool,
    pub metrics: Vec<Metric>,
    /// Human-readable lines printed before the result line.
    pub lines: Vec<String>,
}

impl Outcome {
    pub fn new() -> Self {
        Outcome {
            correct: true,
            ..Default::default()
        }
    }

    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str, note: impl Into<String>) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value,
            unit,
            note: note.into(),
        });
    }

    pub fn line(&mut self, s: impl Into<String>) {
        self.lines.push(s.into());
    }

    /// Record a failed check: the operation counts as failed and the run
    /// as incorrect.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.correct = false;
        self.lines.push(format!("FAILED: {}", what.into()));
    }
}

/// What this run ran on.
pub struct Host {
    pub nproc: usize,
    pub cpu: String,
    pub commit: String,
}

impl Host {
    pub fn detect() -> Host {
        let nproc = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .unwrap_or_default()
            .lines()
            .find_map(|l| l.strip_prefix("model name"))
            .and_then(|l| l.split_once(':'))
            .map(|(_, v)| v.trim().to_string())
            .unwrap_or_else(|| "unknown".to_string());
        Host {
            nproc,
            cpu,
            commit: git_commit().unwrap_or_else(|| "unknown".to_string()),
        }
    }
}

/// The checked-out commit, read from `.git` without running git; `None`
/// outside a git checkout.
fn git_commit() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(id) = std::fs::read_to_string(format!(".git/{reference}")) {
        return Some(id.trim().to_string());
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()?
        .lines()
        .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
}

/// A finite number rendered with every digit Rust's shortest
/// round-trip formatting gives.
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Serve-layer counters from the telemetry registry.
pub struct ServeCounters {
    pub saved: u64,
    pub encoded: u64,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
}

pub fn serve_counters() -> ServeCounters {
    ServeCounters {
        saved: counter("serve.tokens.saved"),
        encoded: counter("serve.tokens.encoded"),
        hits: counter("serve.prefix.hits"),
        misses: counter("serve.prefix.misses"),
        evictions: counter("serve.cache.evictions"),
    }
}

pub fn saved_share(a: &ServeCounters, b: &ServeCounters) -> f64 {
    let saved = (b.saved - a.saved) as f64;
    let encoded = (b.encoded - a.encoded) as f64;
    if saved + encoded == 0.0 {
        0.0
    } else {
        saved / (saved + encoded)
    }
}

pub fn hit_rate(a: &ServeCounters, b: &ServeCounters) -> f64 {
    let hits = (b.hits - a.hits) as f64;
    let misses = (b.misses - a.misses) as f64;
    if hits + misses == 0.0 {
        0.0
    } else {
        hits / (hits + misses)
    }
}
