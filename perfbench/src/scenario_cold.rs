//! `scenario-cold`: the `figures` path, `.scn` text → `scenario::parse` →
//! `scenario::run_in` at paper fidelity → `Table::to_csv`, with nothing
//! cached between ops.
//!
//! A cycle runs one op of each shipped scenario in seeded order; an odd
//! class count keeps the median inside one class. `bare-die-forced-air` is
//! pinned to the spectral solver, as serve-warm's spectral share is, so the
//! spectral setup runs cold too.
//! `paper-air` runs at 24×24 instead of its shipped 64×64: one cold 64² op
//! takes ~97 s on a 2-core x86-64 box (32²: ~1.0 s, 24²: ~0.17 s).
//!
//! Each op's stack gets a seeded relative perturbation of at most 1e-7 on
//! its top layer's thickness, so its content hash is new and neither the
//! circuit cache (a fresh one per op) nor the process-wide spectral
//! response cache can hit. The seed changes the class order and the
//! perturbations, never the composition.

use crate::measure::{self, median, secs, Outcome, Rng};
use crate::replay;
use crate::trace::Tracer;
use hotiron_bench::common::Fidelity;
use hotiron_bench::scenario::{self, Scenario, SolverSpec};
use hotiron_thermal::greens::ResponseCache;
use hotiron_thermal::CircuitCache;
use hotiron_verify::tol;
use std::time::Instant;

/// Cycles per second of `--seconds` (a cycle takes ~0.2 s on a 2-core
/// x86-64 box, most of it the paper-air op).
const CYCLES_PER_SECOND: f64 = 5.0;
/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// Largest relative thickness perturbation.
const PERTURB_REL: f64 = 1e-7;

/// The op classes: label and unperturbed scenario.
fn classes() -> Vec<(String, Scenario)> {
    let mut out = Vec::new();
    for (name, text) in scenario::SHIPPED {
        let mut sc = scenario::parse(text).expect("shipped scenarios parse");
        if *name == "paper-air" {
            sc.rows = 24;
            sc.cols = 24;
        }
        if *name == "bare-die-forced-air" {
            sc.solver = SolverSpec::Spectral;
        }
        out.push(((*name).to_owned(), sc));
    }
    out
}

/// Scales the top layer of the stack (of the first placement, on boards).
fn perturb(sc: &Scenario, factor: f64) -> Scenario {
    let mut sc = sc.clone();
    let layers = match sc.places.first_mut() {
        Some(place) => &mut place.layers,
        None => &mut sc.layers,
    };
    layers.last_mut().expect("stacks have layers").thickness *= factor;
    sc
}

/// `silicon_max_C` from a scenario CSV.
fn silicon_max(csv: &str) -> Option<f64> {
    csv.lines().find_map(|l| l.strip_prefix("silicon_max_C,")).and_then(|v| v.parse().ok())
}

/// One op: text → parse → cold run → CSV, with a span around each call
/// when tracing. Returns the CSV and, when tracing, what [`replay_op`]
/// needs.
fn op(
    text: &str,
    tracer: &mut Tracer,
    op: u32,
) -> Result<(String, Option<(Scenario, u32)>), String> {
    let root = tracer.begin(0, op, "scenario.op");
    let (parsed, parse_id) = tracer.span(root, op, "scenario.parse", || scenario::parse(text));
    let sc = parsed.map_err(|e| format!("parse: {e}"))?;
    let cache = CircuitCache::new(1);
    let (solved, run_id) =
        tracer.span(root, op, "scenario.run_in", || scenario::run_in(&sc, Fidelity::Paper, &cache));
    let solution = solved.map_err(|e| format!("run_in: {e}"))?;
    let (csv, csv_id) = tracer.span(root, op, "report.csv", || solution.table.to_csv());
    tracer.end(root);
    if !tracer.enabled() {
        return Ok((csv, None));
    }
    tracer.sample("scenario.parse_us", tracer.ms(parse_id) * 1e3);
    tracer.sample("report.csv_ms", tracer.ms(csv_id));
    let c = cache.counters();
    tracer.sample("circuit.cache_hit_share", c.hits as f64 / (c.hits + c.misses) as f64);
    replay::record_solve_counts(tracer, &solution.solve_stats);
    Ok((csv, Some((sc, run_id))))
}

/// Replays the calls `run_in` made for one traced op, attached to its
/// span. The spectral response cache is cleared first so the replayed
/// setup builds, as the op's did.
fn replay_op(tracer: &mut Tracer, sc: &Scenario, run_id: u32, op: u32) {
    if sc.board.is_none() {
        let (_, lower) = tracer.replay(run_id, op, "scenario.lower", || sc.stack());
        tracer.sample("scenario.lower_us", tracer.ms(lower) * 1e3);
    }
    ResponseCache::process().clear();
    let cache = CircuitCache::new(1);
    let (lowered, assemble) = tracer
        .replay(run_id, op, "circuit.assemble", || replay::lower(sc, sc.rows, sc.cols, &cache));
    tracer.sample("circuit.assemble_ms", tracer.ms(assemble));
    let t = tracer.now();
    if let Some((name, metric)) = lowered.setup() {
        let end = tracer.now();
        let id = tracer.record(run_id, op, name, t, end, true);
        tracer.sample(metric, tracer.ms(id));
    }
    let (_, solve) = tracer.replay(run_id, op, "solve.steady", || lowered.solve());
    tracer.sample("solve.steady_ms", tracer.ms(solve));
}

/// Runs the workload.
pub fn run(seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let classes = classes();
    let texts: Vec<String> = classes.iter().map(|(_, sc)| sc.to_scn()).collect();

    // Set-up: lazy process init (the memoized gcc power maps, pool start)
    // plus one untimed op per class, unperturbed, which also gives the
    // reference temperatures.
    let mut reference = vec![0.0; classes.len()];
    let mut setup = Vec::new();
    let mut off = Tracer::new(false);
    for _ in 0..SETUP_REPS {
        ResponseCache::process().clear();
        let t = Instant::now();
        for (k, text) in texts.iter().enumerate() {
            let (csv, _) = op(text, &mut off, 0).expect("unperturbed shipped scenarios run");
            reference[k] = silicon_max(&csv).expect("csv reports silicon_max_C");
        }
        setup.push(secs(t));
    }
    out.metric("setup_s", "s", median(&setup));

    let cycles = ((seconds * CYCLES_PER_SECOND).round() as usize).max(4);
    let mut rng = Rng::new(seed, 2);
    let mut latency_ms = Vec::with_capacity(cycles * classes.len());
    let mut per_class = vec![Vec::with_capacity(cycles); classes.len()];
    let cpu0 = measure::process_cpu_ns();
    let start = Instant::now();
    let mut n = 0u32;
    let mut replays = Vec::new();
    for _ in 0..cycles {
        let mut order: Vec<usize> = (0..classes.len()).collect();
        rng.shuffle(&mut order);
        for k in order {
            let sign = if rng.next_u64() & 1 == 0 { 1.0 } else { -1.0 };
            let factor = 1.0 + sign * rng.uniform(0.1, 1.0) * PERTURB_REL;
            let text = perturb(&classes[k].1, factor).to_scn();
            n += 1;
            let t = Instant::now();
            let result = op(&text, tracer, n);
            latency_ms.push(secs(t) * 1e3);
            per_class[k].push(secs(t) * 1e3);
            out.attempted += 1;
            let result = result.map(|(csv, traced)| {
                replays.extend(traced.map(|(sc, run_id)| (sc, run_id, n)));
                silicon_max(&csv)
            });
            match result {
                Ok(Some(v)) if (v - reference[k]).abs() <= tol::FUZZ_STEADY_AGREEMENT_K => {}
                Ok(v) => out.fail(format!(
                    "{}: silicon_max_C {v:?} vs unperturbed {}",
                    classes[k].0, reference[k]
                )),
                Err(e) => out.fail(format!("{}: {e}", classes[k].0)),
            }
        }
    }
    let wall = secs(start);
    let cpu_ms = (measure::process_cpu_ns() - cpu0) as f64 * 1e-6;
    out.metric("peak_rss_mb", "MiB", measure::peak_rss_mib());
    for (sc, run_id, n) in &replays {
        replay_op(tracer, sc, *run_id, *n);
    }
    for v in tracer.self_times("scenario.run_in") {
        tracer.sample("scenario.oracles_report_ms", v * 1e-6);
    }
    // One segment: a segment boundary could split the per-class ranks.
    out.latency(&latency_ms, usize::MAX);
    out.metric("throughput_per_s", "1/s", latency_ms.len() as f64 / wall);
    out.metric(
        "capacity_rps",
        "1/s",
        1e3 * latency_ms.len() as f64 / latency_ms.iter().sum::<f64>(),
    );
    out.metric("cpu_ms_per_op", "ms", cpu_ms / latency_ms.len() as f64);
    out.notes.push(format!("cycles = {cycles}, ops = {}", latency_ms.len()));
    for ((label, _), ms) in classes.iter().zip(&per_class) {
        out.notes.push(format!("  {label:<20} median {:.3} ms", median(ms)));
    }
    out
}
