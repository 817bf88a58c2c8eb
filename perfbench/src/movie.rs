//! `movie-spectral` and `movie-mgpcg`: the registered `movie` configuration
//! (EV6 at 128², 1 kHz steps, Fig 8 pulse train 15 ms on / 85 ms off,
//! `IrCamera::typical` at 30 fps) advanced for a fixed number of camera
//! frames, by the spectral exponential stepper on the uniform-film oil
//! stack, or by MG-PCG backward Euler on the paper-default local-film stack.
//!
//! One op is one camera frame: 33 solver steps, each followed by the field
//! emit and a `FrameAccumulator::push`. The first [`GOLDEN_FRAMES`] frames
//! run the unscaled pulse train (so the spectral movie can be checked
//! against the golden); from then on every pulse's power is scaled by a
//! seeded factor, the only thing the seed changes.

use crate::measure::{self, median, secs, Outcome, Rng};
use crate::trace::Tracer;
use hotiron_bench::common::ambient_k;
use hotiron_dtm::{FrameAccumulator, IrCamera};
use hotiron_floorplan::{library, Floorplan};
use hotiron_thermal::greens::SpectralTransient;
use hotiron_thermal::solve::BackwardEuler;
use hotiron_thermal::{
    CircuitCache, ModelConfig, OilSiliconPackage, Package, PowerMap, SolverChoice, ThermalModel,
};
use hotiron_verify::tol;
use std::time::Instant;

/// Grid of the registered `movie` experiment.
const GRID: usize = 128;
/// Solver step, s (1 kHz).
const DT: f64 = 1e-3;
/// Steps per pulse period (100 ms) and of them powered (15 ms).
const PERIOD_STEPS: usize = 100;
const ON_STEPS: usize = 15;
/// Frames per latency segment (p98 tails; the MG-PCG movie has one).
const LATENCY_SEGMENT: usize = 500;
/// Frames of `results/movie.csv` (copied to `data/movie.csv`).
const GOLDEN_FRAMES: usize = 30;
const GOLDEN: &str = include_str!("../data/movie.csv");

/// Which stepper a movie workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stepper {
    /// `greens::SpectralTransient` on the uniform-film stack.
    Spectral,
    /// `BackwardEuler::auto` (MG-PCG) on the local-film stack.
    MgPcg,
}

impl Stepper {
    /// Frames per second of `--seconds`, sized so a run measures about
    /// that long on a 2-core x86-64 box (≈3.6 ms and ≈175 ms per frame
    /// with one solver thread).
    fn frames_per_second(self) -> f64 {
        match self {
            Stepper::Spectral => 250.0,
            Stepper::MgPcg => 5.5,
        }
    }

    /// Setup samples, and constructions timed together in each sample
    /// (a 128² spectral build takes ~8 ms, so three make one sample).
    fn setup_shape(self) -> (usize, usize) {
        match self {
            Stepper::Spectral => (9, 3),
            Stepper::MgPcg => (5, 1),
        }
    }
}

/// Icache at the Fig 6/8 power density of 2 W/mm².
fn hot_block_power(plan: &Floorplan) -> PowerMap {
    let area = plan.block("Icache").expect("ev6 has an Icache").area();
    PowerMap::from_pairs(plan, [("Icache", 2.0e6 * area)]).expect("valid power")
}

fn model(stepper: Stepper) -> ThermalModel {
    let film = OilSiliconPackage::paper_default().with_target_r_convec(1.0);
    let film = match stepper {
        Stepper::Spectral => film.with_uniform_film(),
        Stepper::MgPcg => film,
    };
    let cfg = ModelConfig::paper_default().with_grid(GRID, GRID).with_ambient(ambient_k());
    // A private cache: every construction assembles, none is a cache hit.
    ThermalModel::new_in(library::ev6(), Package::OilSilicon(film), cfg, &CircuitCache::new(1))
        .expect("valid oil model")
}

fn accumulator(plan: &Floorplan) -> FrameAccumulator {
    let pitch = (plan.width() / GRID as f64, plan.height() / GRID as f64);
    FrameAccumulator::new(IrCamera::typical(), DT, GRID, GRID, pitch.0, pitch.1)
}

/// Per-pulse power scale: 1 through the golden frames, seeded after.
fn pulse_scales(seed: u64, steps: usize) -> Vec<f64> {
    let mut rng = Rng::new(seed, 3);
    let golden_pulses = (GOLDEN_FRAMES * 33).div_ceil(PERIOD_STEPS);
    (0..steps.div_ceil(PERIOD_STEPS))
        .map(|k| if k < golden_pulses { 1.0 } else { rng.uniform(0.75, 1.25) })
        .collect()
}

/// Golden rows: (time ms, camera hot, camera mean, model hot peak).
fn golden_rows() -> Vec<[f64; 4]> {
    GOLDEN
        .lines()
        .filter(|l| !l.starts_with('#') && !l.starts_with("time"))
        .map(|l| {
            let v: Vec<f64> = l.split(',').map(|c| c.parse().expect("numeric golden")).collect();
            [v[0], v[1], v[2], v[3]]
        })
        .collect()
}

fn within_snapshot(golden: f64, value: f64) -> bool {
    (value - golden).abs() <= tol::SNAPSHOT_ABS + tol::SNAPSHOT_REL * golden.abs()
}

/// Runs one movie workload.
pub fn run(stepper: Stepper, seed: u64, seconds: f64, tracer: &mut Tracer) -> Outcome {
    let mut out = Outcome::default();
    let frames = ((seconds * stepper.frames_per_second()).round() as usize).max(GOLDEN_FRAMES + 10);
    let plan = library::ev6();
    let (samples, per_sample) = stepper.setup_shape();

    // Set-up: model build (assembly) plus stepper construction, repeated;
    // the last construction is the one the movie runs on.
    let mut setup = Vec::with_capacity(samples);
    for _ in 0..samples - 1 {
        let t = Instant::now();
        for _ in 0..per_sample {
            let m = model(stepper);
            match stepper {
                Stepper::Spectral => drop(std::hint::black_box(
                    SpectralTransient::new(m.circuit(), DT).expect("uniform film qualifies"),
                )),
                Stepper::MgPcg => drop(std::hint::black_box(BackwardEuler::auto(m.circuit(), DT))),
            }
            std::hint::black_box(accumulator(&plan));
        }
        setup.push(secs(t) / per_sample as f64);
    }
    let t = Instant::now();
    let m = model(stepper);
    let setup_start = tracer.now();
    let spectral = (stepper == Stepper::Spectral)
        .then(|| SpectralTransient::new(m.circuit(), DT).expect("uniform film qualifies"));
    let be = (stepper == Stepper::MgPcg).then(|| BackwardEuler::auto(m.circuit(), DT));
    let setup_end = tracer.now();
    let mut acc = accumulator(&plan);
    setup.push(secs(t));
    out.metric("setup_s", "s", median(&setup));
    match (&spectral, &be) {
        (Some(st), _) => {
            tracer.record(0, 0, "greens.transient_setup", setup_start, setup_end, false);
            tracer.sample("greens.transient_setup_ms", st.build_seconds() * 1e3);
        }
        (_, Some(be)) => {
            tracer.record(0, 0, "solve.be_setup", setup_start, setup_end, false);
            tracer.sample("solve.be_setup_ms", (setup_end - setup_start) as f64 * 1e-6);
            if be.solver() != SolverChoice::Multigrid {
                out.fail(format!("BackwardEuler::auto picked {:?}, not MG-PCG", be.solver()));
            }
        }
        _ => unreachable!("one stepper is built"),
    }

    let ambient = m.ambient();
    let p_on = m.cell_power(&hot_block_power(&plan));
    let per_frame = acc.samples_per_frame();
    let steps = frames * per_frame;
    let scales = pulse_scales(seed, steps);
    let (mut p_scaled, mut scaled_for) = (p_on.clone(), 1.0);
    let p_off = vec![0.0; p_on.len()];
    let circuit = m.circuit();
    let si = circuit.si_offset()..circuit.si_offset() + circuit.cell_count();

    let mut field = vec![0.0; GRID * GRID];
    let mut frame_ms = Vec::with_capacity(frames);
    let mut recorded = Vec::with_capacity(GOLDEN_FRAMES);
    let mut window_peak = f64::MIN;
    // Spectral state, or backward-Euler state plus its energy books.
    let mut spec_state = spectral.as_ref().map(|s| (s.state(), s.scratch()));
    let mut be_state = vec![ambient; circuit.node_count()];
    let (mut energy_in, mut energy_out) = (0.0, 0.0);
    let cpu0 = measure::process_cpu_ns();
    let loop_start = Instant::now();
    let mut op = 0u32;
    let mut frame_start = Instant::now();
    let mut frame_id = tracer.begin(0, op, "movie.frame");
    for i in 0..steps {
        let scale = scales[i / PERIOD_STEPS];
        let p = if i % PERIOD_STEPS >= ON_STEPS {
            &p_off
        } else if scale == 1.0 {
            &p_on
        } else {
            if scaled_for != scale {
                p_scaled.iter_mut().zip(&p_on).for_each(|(d, s)| *d = s * scale);
                scaled_for = scale;
            }
            &p_scaled
        };
        if let (Some(st), Some((state, scratch))) = (&spectral, &mut spec_state) {
            tracer.span(frame_id, op, "greens.step", || st.step(state, p, scratch));
            tracer.span(frame_id, op, "greens.emit", || {
                st.emit_si(state, ambient, &mut field, scratch)
            });
        } else if let Some(be) = &be {
            let (res, _) =
                tracer.span(frame_id, op, "solve.be_step", || be.step(&mut be_state, p, ambient));
            match res {
                Ok(stats) => {
                    let cycles = stats.multigrid.as_ref().map_or(stats.iterations, |s| s.cycles);
                    tracer.sample("solve.be_iterations_per_step", stats.iterations as f64);
                    tracer.sample("multigrid.cycles", cycles as f64);
                    if stats.factor_seconds > 0.0 {
                        tracer.sample("multigrid.setup_ms", stats.factor_seconds * 1e3);
                    }
                }
                Err(e) => out.fail(format!("step {i} did not converge: {e}")),
            }
            energy_in += p.iter().sum::<f64>() * DT;
            energy_out += DT
                * circuit
                    .ambient_conductance()
                    .iter()
                    .zip(&be_state)
                    .map(|(g, t)| g * (t - ambient))
                    .sum::<f64>();
            field.copy_from_slice(&be_state[si.clone()]);
        }
        for v in &mut field {
            *v -= 273.15;
        }
        window_peak = window_peak.max(field.iter().copied().fold(f64::MIN, f64::max));
        let (pushed, _) = tracer.span(frame_id, op, "camera.push", || acc.push(&field));
        if let Some((t, frame)) = pushed {
            frame_ms.push(secs(frame_start) * 1e3);
            tracer.end(frame_id);
            if spectral.is_some() && recorded.len() < GOLDEN_FRAMES {
                let hot = frame.iter().copied().fold(f64::MIN, f64::max);
                let mean = frame.iter().sum::<f64>() / frame.len() as f64;
                recorded.push([(t * 1e3).round(), hot, mean, window_peak]);
            }
            window_peak = f64::MIN;
            op += 1;
            frame_start = Instant::now();
            frame_id = if i + 1 < steps { tracer.begin(0, op, "movie.frame") } else { 0 };
        }
    }
    let wall = secs(loop_start);
    let cpu_ms = (measure::process_cpu_ns() - cpu0) as f64 * 1e-6;
    out.metric("peak_rss_mb", "MiB", measure::peak_rss_mib());
    out.attempted = frames as u64;

    // Correctness.
    if let (Some(_), Some((state, _))) = (&spectral, &spec_state) {
        for (k, (got, want)) in recorded.iter().zip(golden_rows()).enumerate() {
            let ok = got[0] == want[0] && (1..4).all(|c| within_snapshot(want[c], got[c]));
            if !ok {
                out.fail(format!(
                    "frame {} differs from the movie golden: {got:?} vs {want:?}",
                    k + 1
                ));
            }
        }
        let residual = state.ledger().residual_rel();
        if residual > 1e-9 {
            out.fail(format!("spectral energy ledger residual {residual:.3e} > 1e-9"));
        }
        out.notes.push(format!("ledger_residual = {residual:.3e}"));
    } else {
        let stored: f64 =
            circuit.capacitance().iter().zip(&be_state).map(|(c, t)| c * (t - ambient)).sum();
        let scale = energy_in.abs().max(stored.abs()).max(energy_out.abs());
        let rel = (energy_in - stored - energy_out).abs() / scale;
        if rel > tol::TRANSIENT_ENERGY_REL {
            out.fail(format!(
                "energy accounting violated: {energy_in:.9} J in, {stored:.9} J stored, \
                 {energy_out:.9} J out (rel {rel:.3e})"
            ));
        }
        out.notes.push(format!("energy_rel = {rel:.3e}"));
    }

    out.latency(&frame_ms, LATENCY_SEGMENT);
    out.metric("throughput_per_s", "1/s", frames as f64 / wall);
    out.metric("capacity_rps", "1/s", 1e3 * frames as f64 / frame_ms.iter().sum::<f64>());
    out.metric("cpu_ms_per_op", "ms", cpu_ms / frames as f64);
    out.notes.push(format!("frames = {frames}, steps = {steps}, grid = {GRID}x{GRID}"));
    out
}
