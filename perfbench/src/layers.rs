//! Per-layer timings of public functions, called from outside the
//! program: model sessions and decoding, tensor kernels, prompt encoding
//! and answer extraction. Used only by traced runs.

use crate::common::{median, time_median, Outcome};
use astro_model::{InferenceSession, Params, SamplerConfig, StepDecoder};
use astro_prng::Rng;
use astro_tensor::{matmul_a_bt, matvec_q8, quantize_row_q8};
use std::hint::black_box;
use std::time::Instant;

/// Prompts fed per prefill measurement.
const PREFILL_PROMPTS: usize = 6;
/// Decode steps per decode measurement.
const DECODE_STEPS: usize = 48;

/// `model.prefill_tok_s.<tag>` and `model.decode_step_us.<tag>`: prompt
/// encoding with `feed_prompt`, then greedy `StepDecoder::step` calls
/// continuing from each prompt.
pub fn model_rates(out: &mut Outcome, params: &Params, prompts: &[Vec<u32>], tag: &str) {
    let mut tok_rates = Vec::new();
    let mut step_us = Vec::new();
    for prompt in prompts.iter().take(PREFILL_PROMPTS) {
        let mut sess = InferenceSession::new(params.cfg);
        let t0 = Instant::now();
        black_box(sess.feed_prompt(params, prompt));
        tok_rates.push(prompt.len() as f64 / t0.elapsed().as_secs_f64());
        let steps = DECODE_STEPS.min(sess.remaining());
        let mut dec = StepDecoder::new(
            SamplerConfig::greedy(),
            Rng::seed_from(0),
            Vec::new(),
            steps,
        );
        let t1 = Instant::now();
        let mut n = 0usize;
        while dec.step(params, &mut sess).is_some() {
            n += 1;
        }
        if n > 0 {
            step_us.push(t1.elapsed().as_secs_f64() * 1e6 / n as f64);
        }
    }
    let count = tok_rates.len();
    out.metric(
        &format!("model.prefill_tok_s.{tag}"),
        median(&tok_rates),
        "tok/s",
        format!("median of {count} prompts"),
    );
    out.metric(
        &format!("model.decode_step_us.{tag}"),
        median(&step_us),
        "us",
        format!("median over {count} sequences of {DECODE_STEPS} steps"),
    );
}

/// `model.fork_us`: `assign_from` of a session holding `preamble`, the
/// copy a prefix-cache hit makes.
pub fn fork_us(out: &mut Outcome, params: &Params, preamble: &[u32]) {
    let mut src = InferenceSession::new(params.cfg);
    src.feed_prompt(params, preamble);
    let mut dst = InferenceSession::new(params.cfg);
    let reps = 200;
    let t = time_median(7, || {
        for _ in 0..reps {
            dst.assign_from(black_box(&src));
        }
    });
    out.metric(
        "model.fork_us",
        t * 1e6 / reps as f64,
        "us",
        format!("{}-token preamble, median of 7 x {reps}", preamble.len()),
    );
}

/// `tensor.matmul_a_bt.<shape>_{gflops,gbps}` for an `m×k · (n×k)ᵀ`
/// product. The byte rate is computed from tensor sizes (each of a, b
/// and c moved once), not measured.
pub fn matmul_rate(out: &mut Outcome, shape: &str, m: usize, k: usize, n: usize) {
    let mut rng = Rng::seed_from(7);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gauss_f32()).collect();
    let b: Vec<f32> = (0..n * k).map(|_| rng.gauss_f32()).collect();
    let mut c = vec![0.0f32; m * n];
    let reps = (150_000_000 / (2 * m * k * n)).clamp(1, 20_000);
    let t = time_median(7, || {
        for _ in 0..reps {
            matmul_a_bt(&mut c, black_box(&a), black_box(&b), m, k, n);
        }
    }) / reps as f64;
    let flops = 2.0 * (m * k * n) as f64;
    let bytes = 4.0 * (m * k + n * k + m * n) as f64;
    let note = format!("m={m} k={k} n={n}; bytes computed from tensor sizes");
    out.metric(
        &format!("tensor.matmul_a_bt.{shape}_gflops"),
        flops / t / 1e9,
        "GFLOP/s",
        note.clone(),
    );
    out.metric(
        &format!("tensor.matmul_a_bt.{shape}_gbps"),
        bytes / t / 1e9,
        "GB/s",
        note,
    );
}

/// `tensor.matvec_q8_{gflops,gbps}`: one int8 activation row against an
/// `n×k` int8 weight with per-channel scales.
pub fn matvec_q8_rate(out: &mut Outcome, k: usize, n: usize) {
    let mut rng = Rng::seed_from(8);
    let x: Vec<f32> = (0..k).map(|_| rng.gauss_f32()).collect();
    let mut xq = vec![0i8; k];
    let xs = quantize_row_q8(&mut xq, &x);
    let w: Vec<i8> = (0..n * k)
        .map(|_| (rng.below(255) as i64 - 127) as i8)
        .collect();
    let ws: Vec<f32> = (0..n).map(|_| 0.01 + rng.f32() * 0.01).collect();
    let mut y = vec![0.0f32; n];
    let reps = 20_000;
    let t = time_median(7, || {
        for _ in 0..reps {
            matvec_q8(&mut y, black_box(&xq), xs, black_box(&w), &ws, k, n);
        }
    }) / reps as f64;
    let flops = 2.0 * (k * n) as f64;
    let bytes = (k + n * k) as f64 + 4.0 * (n + n + 1) as f64;
    let note = format!("k={k} n={n}; bytes computed from tensor sizes");
    out.metric(
        "tensor.matvec_q8_gflops",
        flops / t / 1e9,
        "GFLOP/s",
        note.clone(),
    );
    out.metric("tensor.matvec_q8_gbps", bytes / t / 1e9, "GB/s", note);
}
