//! The repository benchmark: four fixed-composition workloads over the
//! public APIs of `serve`, `bench::scenario`, `thermal` and `dtm`.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <serve-warm|scenario-cold|movie-spectral|movie-mgpcg> \
//!     --seed <n> --seconds <s> --trace <0|1> [--capacity-tail-limit-ms <ms>]
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the
//! workload untraced and then traced, and prints the per-layer metrics,
//! the per-layer table and the tracing overhead. The last stdout line is
//! the JSON result; the exit code is non-zero when a correctness check
//! failed. See `perfbench/README.md` for every metric's definition.

mod measure;
mod movie;
mod replay;
mod scenario_cold;
mod serve_warm;
mod trace;

use measure::{median, Latency, Metric, Outcome};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;

/// Solver-kernel threads (`HOTIRON_THREADS`): one, so kernels never spin
/// beside the daemon's workers and the load generator.
const HOTIRON_THREADS: usize = 1;

const WORKLOADS: [&str; 4] = ["serve-warm", "scenario-cold", "movie-spectral", "movie-mgpcg"];

/// How a per-layer metric reduces its samples.
#[derive(Clone, Copy)]
enum Agg {
    Median,
    Mean,
    Tail,
}

/// Per-layer metrics read from named samples: name, unit, reduction.
const NAMED: &[(&str, &str, Agg)] = &[
    ("protocol.decode_us", "us", Agg::Median),
    ("protocol.encode_us", "us", Agg::Median),
    ("engine.resolve_us", "us", Agg::Median),
    ("engine.solve_us", "us", Agg::Median),
    ("server.wait_us", "us", Agg::Median),
    ("generator.lateness_ms", "ms", Agg::Tail),
    ("circuit.cache_hit_share", "1", Agg::Mean),
    ("greens.response_cache_hit_share", "1", Agg::Mean),
    ("engine.coalesced_share", "1", Agg::Mean),
    ("scenario.parse_us", "us", Agg::Median),
    ("scenario.lower_us", "us", Agg::Median),
    ("circuit.assemble_ms", "ms", Agg::Median),
    ("cholesky.factor_ms", "ms", Agg::Median),
    ("cholesky.fill_nnz", "count", Agg::Mean),
    ("multigrid.setup_ms", "ms", Agg::Median),
    ("multigrid.cycles", "count", Agg::Mean),
    ("greens.spectral_setup_ms", "ms", Agg::Median),
    ("solve.steady_ms", "ms", Agg::Median),
    ("sparse.cg_iterations", "count", Agg::Mean),
    ("scenario.oracles_report_ms", "ms", Agg::Median),
    ("report.csv_ms", "ms", Agg::Median),
    ("greens.transient_setup_ms", "ms", Agg::Median),
    ("greens.step_us", "us", Agg::Median),
    ("greens.emit_us", "us", Agg::Median),
    ("solve.be_setup_ms", "ms", Agg::Median),
    ("solve.be_step_ms", "ms", Agg::Median),
    ("solve.be_iterations_per_step", "count", Agg::Mean),
    ("camera.push_us", "us", Agg::Median),
];

/// Layers of the per-layer table (span-name prefixes).
const LAYERS: &[&str] = &[
    "server",
    "protocol",
    "engine",
    "scenario",
    "report",
    "circuit",
    "cholesky",
    "multigrid",
    "greens",
    "solve",
    "camera",
    "movie",
];

/// Span durations recorded as per-call samples.
const SPAN_SAMPLES: &[(&str, &str, f64)] = &[
    ("greens.step", "greens.step_us", 1e-3),
    ("greens.emit", "greens.emit_us", 1e-3),
    ("camera.push", "camera.push_us", 1e-3),
    ("solve.be_step", "solve.be_step_ms", 1e-6),
];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    tail_limit_ms: f64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 15.0,
        trace: false,
        tail_limit_ms: 100.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value == "1",
            "--capacity-tail-limit-ms" => args.tail_limit_ms = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {}", WORKLOADS.join(", ")));
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".to_owned());
    }
    Ok(args)
}

fn run_workload(args: &Args, tracer: &mut Tracer) -> Outcome {
    let (seed, seconds) = (args.seed, args.seconds);
    match args.workload.as_str() {
        "serve-warm" => serve_warm::run(seed, seconds, args.tail_limit_ms, tracer),
        "scenario-cold" => scenario_cold::run(seed, seconds, tracer),
        "movie-spectral" => movie::run(movie::Stepper::Spectral, seed, seconds, tracer),
        _ => movie::run(movie::Stepper::MgPcg, seed, seconds, tracer),
    }
}

fn reduce(samples: &[f64], agg: Agg) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    match agg {
        Agg::Median => median(samples),
        Agg::Mean => samples.iter().sum::<f64>() / samples.len() as f64,
        Agg::Tail => Latency::of(samples).tail,
    }
}

/// Per-layer metrics of a traced run, printing the per-layer table.
fn per_layer(
    workload: &str,
    tracer: &mut Tracer,
    untraced: &Outcome,
    traced: &Outcome,
) -> Vec<Metric> {
    for (span, sample, scale) in SPAN_SAMPLES {
        for v in tracer.durations(span) {
            tracer.sample(sample, v * scale);
        }
    }
    let mut out: Vec<Metric> = NAMED
        .iter()
        .map(|(name, unit, agg)| Metric {
            name: (*name).to_owned(),
            unit,
            value: reduce(tracer.samples(name), *agg),
        })
        .collect();
    let op_ns = tracer.root_ns();
    let layers: BTreeMap<&str, (usize, f64)> = tracer.layers();
    println!(
        "per-layer table ({workload}; self time over {:.1} ms of traced wall time)",
        op_ns * 1e-6
    );
    println!("{:<10} {:>9} {:>12} {:>8}", "layer", "count", "self ms", "share %");
    for layer in LAYERS {
        let (count, self_ns) = layers.get(layer).copied().unwrap_or((0, 0.0));
        let share = if op_ns > 0.0 { 100.0 * self_ns / op_ns } else { 0.0 };
        println!("{layer:<10} {count:>9} {:>12.3} {share:>8.2}", self_ns * 1e-6);
        out.push(Metric { name: format!("{layer}.count"), unit: "count", value: count as f64 });
        out.push(Metric { name: format!("{layer}.self_ms"), unit: "ms", value: self_ns * 1e-6 });
        out.push(Metric { name: format!("{layer}.share"), unit: "%", value: share });
    }
    println!("tracing overhead (traced minus untraced):");
    for m in &traced.metrics {
        if let Some(base) = untraced.metrics.iter().find(|b| b.name == m.name) {
            println!("  {:<18} {:+.6} {}", m.name, m.value - base.value, m.unit);
            if m.name == "latency_p50_ms" || m.name == "cpu_ms_per_op" {
                out.push(Metric {
                    name: format!("trace.{}_overhead", m.name),
                    unit: m.unit,
                    value: m.value - base.value,
                });
            }
        }
    }
    println!("per-layer metrics:");
    for m in &out {
        println!("  {:<34} {:>16.6} {}", m.name, m.value, m.unit);
    }
    out
}

fn spans_path(workload: &str, seed: u64) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target.join("perfbench-spans").join(format!("{workload}-seed{seed}.csv"))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    measure::cap_malloc_arenas();
    hotiron_thermal::pool::init_global(HOTIRON_THREADS);
    println!(
        "workload = {}, seed = {}, seconds = {}, trace = {}, nproc = {}, hotiron_threads = {HOTIRON_THREADS}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        measure::nproc()
    );

    let mut untraced_tracer = Tracer::new(false);
    let untraced = run_workload(&args, &mut untraced_tracer);
    let (outcome, metrics) = if args.trace {
        let mut tracer = Tracer::new(true);
        let traced = run_workload(&args, &mut tracer);
        let metrics = per_layer(&args.workload, &mut tracer, &untraced, &traced);
        let path = spans_path(&args.workload, args.seed);
        match tracer.write_csv(&path) {
            Ok(()) => println!("spans written to {}", path.display()),
            Err(e) => eprintln!("perfbench: cannot write spans to {}: {e}", path.display()),
        }
        let mut merged = traced;
        merged.attempted += untraced.attempted;
        merged.failed += untraced.failed;
        merged.errors.extend(untraced.errors);
        (merged, metrics)
    } else {
        let metrics = untraced.metrics.clone();
        (untraced, metrics)
    };

    for note in &outcome.notes {
        println!("{note}");
    }
    for m in outcome.metrics.iter().filter(|_| !args.trace) {
        println!("{:<18} {:>16.6} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
    let correct = outcome.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|m| format!("\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}", m.name, m.value, m.unit))
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        outcome.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
