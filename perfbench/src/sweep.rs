//! `paper_sweep`: the E2 cell grid — every suite benchmark as a
//! homogeneous 64-core workload at a 60 % budget under OD-RL, OD-RL with
//! the market, MaxBIPS-DP, steepest-drop and PID — with a shortened epoch
//! count, cells fanned across two threads by `run_cells_parallel`.
//!
//! One pass builds all cells through `RunBuilder::build_chip` and runs
//! them; passes repeat until the window is spent. The first pass's
//! simulated outputs are digested.

use crate::alloc::Allocs;
use crate::measure::{
    closed_loop_epoch, cpu_seconds, timed_builds, Outcome, Samples, SimTally, Window,
};
use crate::spans::{SpanLog, ROOT};
use odrl_bench::{run_cells_parallel, ChipRun, ControllerKind, RunBuilder, Scenario};
use odrl_manycore::{Observation, Parallelism};
use odrl_power::LevelId;
use odrl_workload::MixPolicy;
use std::sync::Mutex;
use std::time::Instant;

/// Sizes of one `paper_sweep` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Cores per cell.
    pub cores: usize,
    /// Suite benchmarks swept (the first `benches` of the suite).
    pub benches: usize,
    /// Epochs per cell.
    pub cell_epochs: u64,
    /// Grid builds timed before and again after the window; `setup_s` is
    /// the median of all of them.
    pub setup_reps: usize,
}

impl Params {
    /// The benchmark's `paper_sweep` workload.
    pub const FULL: Params = Params {
        cores: 64,
        benches: usize::MAX,
        cell_epochs: 100,
        setup_reps: 25,
    };
}

/// Threads the cells fan across.
const THREADS: usize = 2;

/// The controllers of E2's grid, with their decide span names and
/// per-layer decide metrics.
const KINDS: [(ControllerKind, &str, &str); 5] = [
    (
        ControllerKind::OdRl,
        "controllers.od_rl",
        "controllers.od_rl.decide_us",
    ),
    (
        ControllerKind::OdRlMarket,
        "controllers.od_rl_market",
        "controllers.od_rl_market.decide_us",
    ),
    (
        ControllerKind::MaxBipsDp,
        "controllers.maxbips_dp",
        "controllers.maxbips_dp.decide_us",
    ),
    (
        ControllerKind::SteepestDrop,
        "controllers.steepest_drop",
        "controllers.steepest_drop.decide_us",
    ),
    (
        ControllerKind::Pid,
        "controllers.pid",
        "controllers.pid.decide_us",
    ),
];

/// Index of OD-RL in [`KINDS`]: the controller the sim metrics describe.
const OD_RL: usize = 0;

/// Index of MaxBIPS-DP in [`KINDS`].
const MAXBIPS: usize = 2;

/// Spans one traced cell epoch records at most.
const SPANS_PER_EPOCH: usize = 9;

/// One (benchmark, controller) cell with its buffers.
struct Cell {
    index: usize,
    kind: usize,
    run: ChipRun,
    obs: Observation,
    actions: Vec<LevelId>,
    levels: usize,
    epoch_ns: Samples,
    decide_ns: Samples,
    sim: SimTally,
    failed: bool,
    spans: Option<SpanLog>,
}

fn build_cells(p: &Params, seed: u64, trace: Option<Instant>) -> Vec<Cell> {
    let benches = odrl_workload::names();
    let mut cells = Vec::new();
    for bench in benches.iter().take(p.benches) {
        let scenario = Scenario {
            cores: p.cores,
            budget_frac: 0.6,
            epochs: p.cell_epochs,
            mix: MixPolicy::Homogeneous((*bench).into()),
            seed,
            parallelism: Parallelism::Serial,
        };
        for (kind, (controller, _, _)) in KINDS.iter().enumerate() {
            let run = RunBuilder::new(scenario.clone())
                .controller(*controller)
                .build_chip()
                .expect("E2 cell config is valid");
            let n = p.cell_epochs as usize;
            cells.push(Cell {
                index: cells.len(),
                kind,
                obs: run.system.observation(run.budget),
                actions: vec![LevelId(0); p.cores],
                levels: run.system.spec().vf_table.len(),
                run,
                epoch_ns: Samples::with_capacity(n),
                decide_ns: Samples::with_capacity(n),
                sim: SimTally::default(),
                failed: false,
                spans: trace.map(|origin| {
                    SpanLog::with_capacity("paper_sweep", origin, n * SPANS_PER_EPOCH)
                }),
            });
        }
    }
    cells
}

/// Runs one cell's closed loop to completion, checking every epoch.
fn run_cell(c: &mut Cell, epochs: u64) {
    let budget = c.run.budget;
    let tid = c.index as u32 + 1;
    let mut prev = *c.run.system.stage_timers();
    for epoch in 0..epochs {
        let e = closed_loop_epoch(
            &mut c.run.system,
            c.run.controller.as_mut(),
            &mut c.obs,
            &mut c.actions,
            c.levels,
            budget,
        );
        let [t0, t1, t2, t3] = e.t;
        c.epoch_ns.record(t0, t3);
        c.decide_ns.record(t0, t1);
        c.failed |= !e.ok;
        c.sim
            .record(e.power, budget, e.instructions, e.energy, e.dt);
        if let Some(log) = c.spans.as_mut() {
            let now = *c.run.system.stage_timers();
            let root = log.push("epoch", t0, t3, ROOT, tid, epoch);
            log.push(KINDS[c.kind].1, t0, t1, root, tid, epoch);
            let step = log.push("manycore.step", t1, t2, root, tid, epoch);
            log.push_system_stages(&now, &prev, log.ns(t1), step, tid, epoch);
            log.push("manycore.observe", t2, t3, root, tid, epoch);
            prev = now;
        }
    }
}

/// Builds and runs one pass over the grid; returns the finished cells and
/// the run phase's wall and CPU seconds and allocations.
fn pass(p: &Params, seed: u64, trace: Option<Instant>) -> (Vec<Cell>, f64, f64, Allocs) {
    let cells: Vec<Mutex<Option<Cell>>> = build_cells(p, seed, trace)
        .into_iter()
        .map(|c| Mutex::new(Some(c)))
        .collect();
    let a0 = Allocs::now();
    let cpu0 = cpu_seconds();
    let t0 = Instant::now();
    let done = run_cells_parallel(&cells, Parallelism::Threads(THREADS), |slot| {
        let mut cell = slot
            .lock()
            .expect("cell slot")
            .take()
            .expect("each cell runs once");
        run_cell(&mut cell, p.cell_epochs);
        cell
    });
    let wall = t0.elapsed().as_secs_f64();
    (done, wall, cpu_seconds() - cpu0, Allocs::now().since(a0))
}

/// Per-kind latency samples and totals across passes.
struct Totals {
    window: Window,
    decide: Vec<Samples>,
    cells: u64,
    failed: u64,
}

impl Totals {
    fn new() -> Self {
        Self {
            window: Window::default(),
            decide: (0..KINDS.len()).map(|_| Samples::default()).collect(),
            cells: 0,
            failed: 0,
        }
    }

    fn add(&mut self, cells: &[Cell], wall: f64, cpu: f64, allocs: Allocs) {
        let w = &mut self.window;
        w.wall_s += wall;
        w.cpu_s += cpu;
        w.allocs.add(allocs);
        for c in cells {
            w.epochs += c.epoch_ns.len() as u64;
            w.epoch_ns.extend(&c.epoch_ns);
            self.decide[c.kind].extend(&c.decide_ns);
            self.cells += 1;
            self.failed += u64::from(c.failed);
        }
    }
}

/// Runs passes until `seconds` have elapsed (at least one).
fn drive(
    p: &Params,
    seed: u64,
    seconds: f64,
    trace: Option<Instant>,
    mut on_pass: impl FnMut(&[Cell]),
) -> Totals {
    let mut totals = Totals::new();
    let start = Instant::now();
    loop {
        let (cells, wall, cpu, allocs) = pass(p, seed, trace);
        totals.add(&cells, wall, cpu, allocs);
        on_pass(&cells);
        if start.elapsed().as_secs_f64() >= seconds {
            return totals;
        }
    }
}

/// Runs `paper_sweep` for `seconds`; with a span log, the traced passes
/// are followed by untraced ones for the overhead comparison.
pub fn run(p: &Params, seed: u64, seconds: f64, log: Option<&mut SpanLog>) -> Outcome {
    let mut setup = Vec::new();
    timed_builds(p.setup_reps, &mut setup, || build_cells(p, seed, None));

    let mut log = log;
    let trace = log.as_ref().map(|l| l.origin());
    let main_s = if trace.is_some() {
        seconds * 0.75
    } else {
        seconds
    };
    let mut sim: Option<SimTally> = None;
    let mut digest = SimTally::default();
    let totals = drive(p, seed, main_s, trace, |cells| {
        if sim.is_none() {
            let mut odrl = SimTally::default();
            for c in cells {
                digest.merge(&c.sim);
                if c.kind == OD_RL {
                    odrl.merge(&c.sim);
                }
            }
            sim = Some(odrl);
        }
        if let Some(log) = log.as_deref_mut() {
            for cell_log in cells.iter().filter_map(|c| c.spans.as_ref()) {
                log.append(cell_log.spans());
            }
        }
    });
    let mut sim = sim.expect("at least one pass");
    sim.digest = digest.digest;

    let mut out = Outcome {
        attempted: totals.cells,
        failed: totals.failed,
        ..Outcome::default()
    };
    let w = &totals.window;
    out.set_common(w, &sim, (p.cores as u64 * w.epochs) as f64);
    out.finish_setup(p.setup_reps, &mut setup, || build_cells(p, seed, None));
    out.set_decide(&totals.decide[OD_RL]);

    if let Some(log) = log {
        for (k, (_, _, metric)) in KINDS.iter().enumerate() {
            out.set(metric, totals.decide[k].mean_us());
        }
        let all_ns = w.epoch_ns.sum_ns().max(1) as f64;
        out.set(
            "controllers.maxbips_dp.wall_share",
            totals.decide[MAXBIPS].sum_ns() as f64 / all_ns,
        );
        log.per_epoch(w.epochs).set_step_layers(&mut out);
        let plain = drive(p, seed, seconds * 0.25, None, |_| {});
        out.attempted += plain.cells;
        out.failed += plain.failed;
        out.set(
            "bench.trace_overhead_frac",
            w.epoch_ns.mean_us() / plain.window.epoch_ns.mean_us() - 1.0,
        );
    }
    out
}
