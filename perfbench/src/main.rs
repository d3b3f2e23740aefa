//! The repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <eval_batch|serve_mixed|train_cpt> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line reports the end-to-end metrics;
//! with `--trace 1` it reports the per-layer ledger. See `README.md`.

mod check;
mod common;
mod eval_batch;
mod layers;
mod serve_mixed;
mod train_cpt;

use astro_telemetry::event::write_json_string;
use common::{json_num, Args, Host, Outcome};

/// End-to-end metrics every untraced run reports, with units.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("throughput_per_s", "1/s"),
];

/// The per-layer ledger every traced run reports. A layer a workload
/// bypasses reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("workload.eval_token_qps", "1/s"),
    ("workload.eval_instruct_qps", "1/s"),
    ("workload.score_p50_ms", "ms"),
    ("workload.score_p95_ms", "ms"),
    ("workload.generate_p50_ms", "ms"),
    ("workload.generate_p90_ms", "ms"),
    ("workload.goodput_rps", "1/s"),
    ("workload.train_tokens_per_s", "1/s"),
    ("loadgen.lateness_p50_ms", "ms"),
    ("loadgen.lateness_max_ms", "ms"),
    ("router.connections", "count"),
    ("router.hop_ms", "ms"),
    ("router.affinity_share", "share"),
    ("router.failovers", "count"),
    ("router.redispatches", "count"),
    ("router.lost", "count"),
    ("gateway.connections", "count"),
    ("gateway.score.recv_us", "us"),
    ("gateway.score.build_us", "us"),
    ("gateway.score.queue_wait_us", "us"),
    ("gateway.score.batch_form_us", "us"),
    ("gateway.score.exec_wait_us", "us"),
    ("gateway.score.cache_lookup_us", "us"),
    ("gateway.score.prefill_us", "us"),
    ("gateway.score.decode_us", "us"),
    ("gateway.score.sync_us", "us"),
    ("gateway.score.extract_us", "us"),
    ("gateway.generate.recv_us", "us"),
    ("gateway.generate.build_us", "us"),
    ("gateway.generate.queue_wait_us", "us"),
    ("gateway.generate.batch_form_us", "us"),
    ("gateway.generate.exec_wait_us", "us"),
    ("gateway.generate.cache_lookup_us", "us"),
    ("gateway.generate.prefill_us", "us"),
    ("gateway.generate.decode_us", "us"),
    ("gateway.generate.sync_us", "us"),
    ("gateway.generate.extract_us", "us"),
    ("gateway.phase_sum_ratio", "share"),
    ("gateway.batch_occupancy_mean", "count"),
    ("gateway.rejected", "count"),
    ("serve.tokens_encoded", "count"),
    ("serve.score.saved_share", "share"),
    ("serve.generate.saved_share", "share"),
    ("serve.saved_share", "share"),
    ("serve.prefix_hit_rate", "share"),
    ("serve.cache_evictions", "count"),
    ("serve.score_batch_s", "s"),
    ("serve.generate_batch_s", "s"),
    ("model.prefill_tok_s.f32", "tok/s"),
    ("model.prefill_tok_s.int8", "tok/s"),
    ("model.decode_step_us.f32", "us"),
    ("model.decode_step_us.int8", "us"),
    ("model.fork_us", "us"),
    ("tensor.matmul_a_bt.decode_gflops", "GFLOP/s"),
    ("tensor.matmul_a_bt.decode_gbps", "GB/s"),
    ("tensor.matmul_a_bt.prefill_gflops", "GFLOP/s"),
    ("tensor.matmul_a_bt.prefill_gbps", "GB/s"),
    ("tensor.matmul_a_bt.train_gflops", "GFLOP/s"),
    ("tensor.matmul_a_bt.train_gbps", "GB/s"),
    ("tensor.matvec_q8_gflops", "GFLOP/s"),
    ("tensor.matvec_q8_gbps", "GB/s"),
    ("train.step_ms", "ms"),
    ("train.fwd_ms", "ms"),
    ("train.bwd_ms", "ms"),
    ("train.optim_ms", "ms"),
    ("train.clip_ms", "ms"),
    ("tokenizer.prompt_encode_us", "us"),
    ("eval.extract_us", "us"),
    ("trace_overhead_pct", "%"),
    ("unattributed_share", "share"),
];

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match Args::parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    astro_telemetry::log::set_level(astro_telemetry::log::Level::Quiet);
    let host = Host::detect();
    let mut out = Outcome::new();
    match args.workload.as_str() {
        "eval_batch" => eval_batch::run(&args, &mut out),
        "serve_mixed" => serve_mixed::run(&args, &mut out),
        "train_cpt" => train_cpt::run(&args, &mut out),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (eval_batch, serve_mixed, train_cpt)");
            std::process::exit(2);
        }
    }
    if out.attempted == 0 {
        out.fail("no operation was attempted");
    }
    print_result(&args, &host, &out);
}

fn print_result(args: &Args, host: &Host, out: &Outcome) {
    for l in &out.lines {
        println!("{l}");
    }
    let wanted = if args.trace { PER_LAYER } else { END_TO_END };
    println!(
        "{} metrics ({}):",
        args.workload,
        if args.trace {
            "per-layer, traced run"
        } else {
            "end-to-end"
        }
    );
    let mut metrics = String::from("{");
    for (i, (name, unit)) in wanted.iter().enumerate() {
        let found = out.metrics.iter().find(|m| m.name == *name);
        let value = found.map(|m| m.value).unwrap_or(0.0);
        if let Some(m) = found.filter(|m| m.unit != *unit) {
            eprintln!(
                "perfbench: {name} measured in {} but declared in {unit}",
                m.unit
            );
        }
        let note = found
            .map(|m| m.note.as_str())
            .unwrap_or("not on this workload's path");
        println!("  {name:<36} {value:>14.4} {unit:<8} {note}");
        if i > 0 {
            metrics.push(',');
        }
        write_json_string(&mut metrics, name);
        metrics.push_str(&format!(":{{\"value\":{},\"unit\":", json_num(value)));
        write_json_string(&mut metrics, unit);
        metrics.push('}');
    }
    metrics.push('}');
    println!(
        "operations: attempted {} failed {}",
        out.attempted, out.failed
    );

    let mut record = String::from("{\"workload\":");
    write_json_string(&mut record, &args.workload);
    record.push_str(&format!(
        ",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"cpu\":",
        args.seed,
        json_num(args.seconds),
        u8::from(args.trace),
        host.nproc
    ));
    write_json_string(&mut record, &host.cpu);
    record.push_str(",\"commit\":");
    write_json_string(&mut record, &host.commit);
    record.push('}');
    println!("record: {record}");

    println!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{metrics}}}",
        out.correct && out.failed == 0,
        out.attempted,
        out.failed
    );
}
