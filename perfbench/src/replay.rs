//! Replays of the layer calls `scenario::run_in` makes internally, built
//! from public functions only, so the traced run can time assembly, solver
//! setup and the steady solve on their own (see `trace` on replayed spans).
//!
//! The lowering mirrors `bench::scenario`: the plan, die geometry, grid
//! mapping, board placements and per-cell power are derived from the parsed
//! [`Scenario`] the same way, so the replayed circuit has the same cache key
//! as the one `run_in` assembled.

use hotiron_bench::common;
use hotiron_bench::scenario::{PlanKind, PowerSpec, Scenario, SolverSpec};
use hotiron_floorplan::{library, Floorplan, GridMapping};
use hotiron_thermal::circuit::ThermalCircuit;
use hotiron_thermal::solve::{solve_steady_with, MG_AUTO_MIN_CELLS};
use hotiron_thermal::sparse::SolveStats;
use hotiron_thermal::units::celsius_to_kelvin;
use hotiron_thermal::{
    Board, Boundary, CircuitCache, DieGeometry, Layer, LayerStack, PcbSpec, Placement, PowerMap,
    SolverChoice, ViaField,
};
use std::sync::Arc;

/// A scenario lowered to its circuit and right-hand side.
pub struct Lowered {
    /// The assembled (or cache-hit) circuit.
    pub circuit: Arc<ThermalCircuit>,
    /// Per-silicon-cell power, placement-major for boards.
    pub cell_power: Vec<f64>,
    /// Ambient, K.
    pub ambient: f64,
    /// The solver `run_in` dispatches to for this scenario.
    pub choice: SolverChoice,
}

fn plan_for(kind: PlanKind, width: Option<f64>, height: Option<f64>) -> Floorplan {
    match kind {
        PlanKind::Uniform => library::uniform_die(
            width.expect("uniform plan has width"),
            height.expect("uniform plan has height"),
        ),
        PlanKind::Ev6 => library::ev6(),
        PlanKind::Athlon64 => library::athlon64(),
        PlanKind::CenterSource => library::center_source_die(),
    }
}

fn block_power(power: &PowerSpec, kind: PlanKind, plan: &Floorplan) -> PowerMap {
    match power {
        PowerSpec::Uniform(w) => PowerMap::uniform_density(plan, w / plan.covered_area()),
        PowerSpec::Gcc => match kind {
            PlanKind::Athlon64 => common::athlon_gcc().1,
            _ => common::ev6_gcc().1,
        },
        PowerSpec::Blocks(blocks) => {
            let mut map = PowerMap::zeros(plan);
            for (b, w) in blocks {
                map.set(plan, b, *w).expect("parsed scenarios name known blocks");
            }
            map
        }
    }
}

fn layers_of(specs: &[hotiron_bench::scenario::LayerSpec], silicon: Option<&str>) -> LayerStack {
    let si = silicon
        .and_then(|m| specs.iter().position(|l| l.name == m))
        .or_else(|| specs.iter().position(|l| l.name == "silicon"))
        .unwrap_or(0);
    let layers = specs
        .iter()
        .map(|l| match l.side {
            Some(side) => Layer::plate(l.name.clone(), l.material, l.thickness, side),
            None => Layer::new(l.name.clone(), l.material, l.thickness),
        })
        .collect();
    LayerStack::new(layers, si)
}

/// Lowers and assembles `sc` at `rows`×`cols` through `cache`.
///
/// # Panics
///
/// Panics on a scenario `run_in` would reject; the benchmark only replays
/// scenarios that already ran.
pub fn lower(sc: &Scenario, rows: usize, cols: usize, cache: &CircuitCache) -> Lowered {
    let (circuit, cell_power) = match &sc.board {
        None => {
            let plan = plan_for(sc.plan, sc.width, sc.height);
            let stack = layers_of(&sc.layers, sc.silicon.as_deref())
                .with_bottom(sc.bottom.clone())
                .with_top(sc.top.clone());
            let die = DieGeometry {
                width: plan.width(),
                height: plan.height(),
                thickness: stack.layers[stack.si_index].thickness,
            };
            let mapping = GridMapping::new(&plan, rows, cols);
            let (circuit, _) = cache.get_or_build(&mapping, die, &stack).expect("valid stack");
            let power = block_power(&sc.power, sc.plan, &plan);
            (circuit, mapping.spread_block_values(power.values()))
        }
        Some(bs) => {
            let mut board = Board::new(
                rows,
                cols,
                PcbSpec {
                    width: bs.width,
                    height: bs.height,
                    thickness: bs.thickness,
                    material: bs.material,
                    bottom: bs.bottom.clone(),
                },
            );
            for v in &bs.vias {
                board = board.with_via(ViaField {
                    name: v.name.clone(),
                    x: v.x,
                    y: v.y,
                    width: v.width,
                    height: v.height,
                    conductance_per_area: v.sigma,
                });
            }
            let mut mappings = Vec::new();
            let mut cell_power = Vec::new();
            for p in &sc.places {
                let plan = plan_for(p.plan, p.width, p.height);
                let stack = layers_of(&p.layers, p.silicon.as_deref())
                    .with_bottom(Boundary::Insulated)
                    .with_top(p.top.clone());
                let die = DieGeometry {
                    width: plan.width(),
                    height: plan.height(),
                    thickness: stack.layers[stack.si_index].thickness,
                };
                board = board.with_placement(Placement {
                    name: p.name.clone(),
                    die,
                    stack,
                    x: p.x,
                    y: p.y,
                    rotation: p.rotation,
                });
                let mapping = GridMapping::new(&plan, rows, cols);
                let power = block_power(&p.power, p.plan, &plan);
                cell_power.extend(mapping.spread_block_values(power.values()));
                mappings.push(mapping);
            }
            let (circuit, _) = cache.get_or_build_board(&board, &mappings).expect("valid board");
            (circuit, cell_power)
        }
    };
    let choice = match sc.solver {
        SolverSpec::Direct => SolverChoice::Direct,
        SolverSpec::Cg => SolverChoice::Cg,
        SolverSpec::Multigrid => SolverChoice::Multigrid,
        SolverSpec::Spectral => SolverChoice::Spectral,
        // `solve_steady`'s rule.
        SolverSpec::Auto if circuit.cell_count() >= MG_AUTO_MIN_CELLS => {
            if circuit.spectral().is_ok() {
                SolverChoice::Spectral
            } else {
                SolverChoice::Multigrid
            }
        }
        SolverSpec::Auto => SolverChoice::Cg,
    };
    Lowered { circuit, cell_power, ambient: celsius_to_kelvin(sc.ambient_c), choice }
}

impl Lowered {
    /// Builds the solver state `choice` memoizes on the circuit (LDLᵀ
    /// factor, multigrid hierarchy or spectral response). Returns the span
    /// name and the per-layer metric it belongs to; `None` when the solver
    /// keeps no setup.
    pub fn setup(&self) -> Option<(&'static str, &'static str)> {
        match self.choice {
            SolverChoice::Direct => {
                self.circuit.steady_factor_with_setup();
                Some(("cholesky.factor", "cholesky.factor_ms"))
            }
            SolverChoice::Multigrid => {
                self.circuit.multigrid_with_setup();
                Some(("multigrid.setup", "multigrid.setup_ms"))
            }
            SolverChoice::Spectral => {
                let _ = self.circuit.spectral_with_setup();
                Some(("greens.spectral_setup", "greens.spectral_setup_ms"))
            }
            SolverChoice::Cg => None,
        }
    }

    /// The steady solve `run_in` performs, from an ambient start.
    ///
    /// # Panics
    ///
    /// Panics when the solve fails; the replayed scenario already solved.
    pub fn solve(&self) -> SolveStats {
        let mut state = vec![self.ambient; self.circuit.node_count()];
        solve_steady_with(&self.circuit, &self.cell_power, self.ambient, &mut state, self.choice)
            .expect("replayed solve converges")
    }
}

/// Records the counters of one steady solve under the per-layer sample
/// names. A spectral solve that reports no setup time reused a built
/// response (from the `ResponseCache`, or pinned on a cached circuit).
pub fn record_solve_counts(tracer: &mut crate::trace::Tracer, stats: &SolveStats) {
    if stats.factor_nnz > 0 {
        tracer.sample("cholesky.fill_nnz", stats.factor_nnz as f64);
    }
    match stats.method.label() {
        "spectral" => tracer.sample(
            "greens.response_cache_hit_share",
            if stats.factor_seconds == 0.0 { 1.0 } else { 0.0 },
        ),
        "cg" => tracer.sample("sparse.cg_iterations", stats.iterations as f64),
        "mg-cg" => tracer.sample(
            "multigrid.cycles",
            stats.multigrid.as_ref().map_or(stats.iterations, |m| m.cycles) as f64,
        ),
        _ => {}
    }
}
