//! `rack16x64`: 16 chips × 64 cores under the rack arbiter, the rack
//! market, the watchdog, a fleet-wide budget-loss window and the flight
//! recorder, fanned across two shards.
//!
//! `Fleet::step_epoch` hides its stages, so the traced run times the same
//! public types from outside on replicas fed with this run's budgets and
//! powers: 16 `ChipRun`s stepped through `shard_chunks` at two shards
//! (fan-out and per-shard busy time), a `BudgetArbiter`, a
//! `MarketAllocator` and a `FleetMetrics` merge.

use crate::alloc::Allocs;
use crate::measure::{
    closed_loop_epoch, cpu_seconds, timed_builds, Outcome, Samples, SimTally, Window,
};
use crate::spans::{SpanLog, ROOT};
use odrl_bench::{
    BudgetArbiter, ChipRun, ControllerKind, Fleet, FleetMetrics, RecorderConfig, RunBuilder,
    Scenario,
};
use odrl_core::{MarketAllocator, MarketConfig, MarketScratch};
use odrl_faults::{BudgetFault, FaultKind, FaultPlan, Target};
use odrl_manycore::parallel::{shard_chunks, stream_seed};
use odrl_manycore::{Observation, Parallelism};
use odrl_obs::MetricsSnapshot;
use odrl_power::{LevelId, Watts};
use odrl_workload::MixPolicy;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

/// Sizes of one `rack16x64` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Chips in the rack.
    pub chips: usize,
    /// Cores per chip.
    pub cores: usize,
    /// Fleet builds timed before and again after the window; `setup_s` is
    /// the median of all of them.
    pub setup_reps: usize,
    /// Untimed fleet epochs before the window.
    pub warmup: u64,
    /// Leading window epochs whose simulated outputs are digested.
    pub sim_epochs: u64,
    /// First fleet epoch of the budget-loss window (inside the sim window).
    pub loss_start: u64,
    /// Length of the budget-loss window, epochs.
    pub loss_len: u64,
    /// Epochs between arbiter rounds.
    pub arbiter_period: u64,
    /// Fleet epochs between two blocks of the decide probe.
    pub probe_every: u64,
    /// Epochs per block of the decide probe.
    pub probe_block: u64,
    /// Latency samples reserved per second of window.
    pub samples_per_s: usize,
}

impl Params {
    /// The benchmark's `rack16x64` workload.
    pub const FULL: Params = Params {
        chips: 16,
        cores: 64,
        setup_reps: 25,
        warmup: 100,
        sim_epochs: 3000,
        loss_start: 500,
        loss_len: 300,
        arbiter_period: 20,
        // Rare, longer blocks: the fleet epoch right after a block pays to
        // wake the parked shard worker, so blocks stay below 0.1 % of
        // epochs and out of the fleet's latency percentiles.
        probe_every: 1000,
        probe_block: 250,
        samples_per_s: 20_000,
    };
}

/// Shards the fleet and the replica fan-out use.
const SHARDS: usize = 2;

/// Untimed leading epochs of each decide-probe block.
const PROBE_WARMUP: u64 = 10;

fn scenario(p: &Params, seed: u64) -> Scenario {
    Scenario {
        cores: p.cores,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed,
        parallelism: Parallelism::Serial,
    }
}

fn build_fleet(p: &Params, seed: u64) -> Fleet {
    let plan = FaultPlan::new().with_event(
        FaultKind::Budget(BudgetFault::Lost),
        Target::All,
        p.loss_start,
        p.loss_len,
    );
    RunBuilder::new(scenario(p, seed))
        .controller(ControllerKind::OdRl)
        .arbiter_period(p.arbiter_period)
        .market(MarketConfig::enabled())
        .faults(plan)
        .watchdog(true)
        .recorder(RecorderConfig::default())
        .fleet_parallelism(Parallelism::Threads(SHARDS))
        .build_fleet(p.chips)
        .expect("rack16x64 fleet config is valid")
}

/// One chip built the way the fleet builds its chips (watchdog and
/// diagnostics on), driven from outside.
struct Replica {
    run: ChipRun,
    obs: Observation,
    actions: Vec<LevelId>,
    levels: usize,
    measured: Watts,
    ok: bool,
}

impl Replica {
    fn new(p: &Params, seed: u64, chip: usize) -> Self {
        let run = RunBuilder::new(scenario(p, stream_seed(seed, chip as u64)))
            .controller(ControllerKind::OdRl)
            .watchdog(true)
            .diag(true)
            .build_chip()
            .expect("replica chip config is valid");
        Self {
            obs: run.system.observation(run.budget),
            actions: vec![LevelId(0); p.cores],
            levels: run.system.spec().vf_table.len(),
            run,
            measured: Watts::ZERO,
            ok: true,
        }
    }

    /// One closed-loop epoch under `budget`; returns (before decide, after
    /// decide).
    fn step(&mut self, budget: Watts) -> (Instant, Instant) {
        self.run.budget = budget;
        self.obs.budget = budget;
        let e = closed_loop_epoch(
            &mut self.run.system,
            self.run.controller.as_mut(),
            &mut self.obs,
            &mut self.actions,
            self.levels,
            budget,
        );
        self.measured = e.measured;
        self.ok = e.ok;
        (e.t[0], e.t[1])
    }
}

/// The replicas of the layers `Fleet::step_epoch` runs internally.
struct Layers {
    chips: Vec<Replica>,
    arbiter: BudgetArbiter,
    market: MarketAllocator,
    scratch: MarketScratch,
    metrics: FleetMetrics,
    snapshot: MetricsSnapshot,
    total: f64,
    /// The fleet's chip budgets this epoch, for the fan-out.
    budgets: Vec<Watts>,
    /// Per-shard busy interval of the current fan-out, ns since it began.
    busy: [(AtomicU64, AtomicU64); SHARDS],
    /// Shard-seconds offered to fan-outs so far (wall × shards), ns.
    fanout_ns: u64,
    /// Shard-seconds spent stepping chips so far, ns.
    busy_ns: u64,
    /// Replica epochs or market rounds that failed a check.
    failed: u64,
}

impl Layers {
    fn new(p: &Params, seed: u64, fleet: &Fleet) -> Self {
        Self {
            chips: (0..p.chips).map(|k| Replica::new(p, seed, k)).collect(),
            arbiter: BudgetArbiter::new(
                fleet.total_budget(),
                p.chips,
                p.arbiter_period,
                0.5,
                0.25,
                0.25,
            )
            .expect("replica arbiter config is valid"),
            market: MarketAllocator::new(p.chips, MarketConfig::enabled())
                .expect("default market config is valid"),
            scratch: MarketScratch::default(),
            metrics: FleetMetrics::new(),
            snapshot: MetricsSnapshot::default(),
            total: fleet.total_budget().value(),
            budgets: vec![Watts::ZERO; p.chips],
            busy: Default::default(),
            fanout_ns: 0,
            busy_ns: 0,
            failed: 0,
        }
    }

    /// Steps every replica layer once for fleet epoch `epoch`, recording
    /// spans under `root`.
    fn step(&mut self, fleet: &Fleet, epoch: u64, log: &mut SpanLog, root: u32) {
        // Fan-out: the 16 chips under the fleet's current budgets.
        for (k, b) in self.budgets.iter_mut().enumerate() {
            *b = fleet.chip_budget(k);
        }
        let (budgets, busy) = (&self.budgets, &self.busy);
        let t0 = Instant::now();
        shard_chunks(
            Parallelism::Threads(SHARDS),
            &mut self.chips[..],
            |base, chunk: &mut [Replica]| {
                let s = t0.elapsed().as_nanos() as u64;
                for (j, chip) in chunk.iter_mut().enumerate() {
                    chip.step(budgets[base + j]);
                }
                // Relaxed: the stamps are statistics only, and the pool's
                // join orders them before the caller reads them.
                let slot = &busy[(base / chunk.len().max(1)).min(SHARDS - 1)];
                slot.0.store(s, Ordering::Relaxed);
                slot.1
                    .store(t0.elapsed().as_nanos() as u64, Ordering::Relaxed);
            },
        );
        let t1 = Instant::now();
        let fan = log.push("fleet.fanout", t0, t1, root, 0, epoch);
        let base_ns = log.ns(t0);
        for (k, (s, e)) in self.busy.iter().enumerate() {
            let (s, e) = (s.swap(0, Ordering::Relaxed), e.swap(0, Ordering::Relaxed));
            self.busy_ns += e.saturating_sub(s);
            log.push_ns(
                "manycore.shard",
                base_ns + s,
                base_ns + e,
                fan,
                k as u32 + 1,
                epoch,
            );
        }
        self.fanout_ns += SHARDS as u64 * t1.saturating_duration_since(t0).as_nanos() as u64;
        self.failed += self.chips.iter().filter(|c| !c.ok).count() as u64;

        // Arbiter: observe every chip, reallocate on round boundaries.
        let t0 = Instant::now();
        for (k, chip) in self.chips.iter().enumerate() {
            self.arbiter.observe(k, chip.measured);
        }
        if epoch > 0 && epoch.is_multiple_of(self.arbiter.period()) {
            self.arbiter.reallocate();
        }
        let t1 = Instant::now();
        log.push("fleet.arbiter", t0, t1, root, 0, epoch);

        // Market round on market epochs.
        if epoch > 0 && epoch.is_multiple_of(self.market.period()) {
            let t0 = Instant::now();
            let (powers, shares) = self.scratch.stage();
            for (k, chip) in self.chips.iter().enumerate() {
                powers.push(chip.measured.value());
                shares.push(self.arbiter.shares()[k]);
            }
            let round = self.market.step(self.total, &mut self.scratch);
            let t1 = Instant::now();
            log.push("market.step", t0, t1, root, 0, epoch);
            if round.conservation_error() != 0.0 {
                self.failed += 1;
            }
        }

        // Rack metric merge.
        let t0 = Instant::now();
        self.metrics.begin_epoch(epoch);
        for (k, chip) in self.chips.iter().enumerate() {
            if let Some(snap) = chip.run.controller.metrics_snapshot() {
                self.metrics.record_chip(k as u32, snap);
            }
        }
        self.metrics.snapshot_into(&mut self.snapshot);
        log.push("obs.fleet_merge", t0, Instant::now(), root, 0, epoch);
    }
}

/// Whether the fleet's budget ledger and market ledger balance.
fn conserved(fleet: &Fleet) -> bool {
    let total = fleet.total_budget().value();
    let tel = fleet.telemetry();
    (fleet.arbitrated_sum() - total).abs() <= 1e-9 * total
        && fleet
            .market_round()
            .is_none_or(|r| r.conservation_error() == 0.0)
        && tel.total_energy().value().is_finite()
        && tel.total_instructions().is_finite()
        && tel.peak_power().value().is_finite()
}

fn watchdog_flips(fleet: &Fleet) -> u64 {
    fleet.fleet_snapshot().map_or(0, |s| {
        [
            "fleet_watchdog_stale_flips",
            "fleet_watchdog_dead_flips",
            "fleet_watchdog_dark_flips",
        ]
        .iter()
        .filter_map(|n| s.counter_by_name(n))
        .sum()
    })
}

/// Per-window tallies beyond the common [`Window`].
#[derive(Default)]
struct Extra {
    dumps: u64,
    dump_allocs: u64,
    loss_rate_sum: f64,
}

/// Steps the fleet for at least `min_epochs` epochs and `seconds`,
/// digesting the first `sim_epochs`. With `layers`, also steps the
/// replicas after every fleet epoch and records spans.
#[allow(clippy::too_many_arguments)]
fn drive(
    fleet: &mut Fleet,
    p: &Params,
    seconds: f64,
    min_epochs: u64,
    sim: &mut SimTally,
    out: &mut Outcome,
    probe: &mut Probe,
    mut traced: Option<(&mut Layers, &mut SpanLog)>,
) -> (Window, Extra) {
    let reserve = (seconds * p.samples_per_s as f64) as usize + min_epochs as usize;
    let mut w = Window {
        epoch_ns: Samples::with_capacity(reserve),
        ..Window::default()
    };
    let mut extra = Extra::default();
    let tel0 = fleet.telemetry().clone();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    // Wall and CPU time spent beside the fleet (probe blocks, replicas),
    // excluded from the fleet's totals.
    let (mut aside_wall, mut aside_cpu) = (0.0, 0.0);
    loop {
        if w.epochs % p.probe_every == p.probe_every - 1 {
            let (t, c) = (Instant::now(), cpu_seconds());
            probe.block(p.probe_block, fleet.chip_budget(0), out);
            aside_wall += t.elapsed().as_secs_f64();
            aside_cpu += cpu_seconds() - c;
        }
        let dumps0 = fleet.anomaly_dumps().len();
        let a0 = Allocs::now();
        let t0 = Instant::now();
        let stepped = fleet.step_epoch();
        let t1 = Instant::now();
        let allocs = Allocs::now().since(a0);
        w.epoch_ns.record(t0, t1);
        if fleet.anomaly_dumps().len() > dumps0 {
            extra.dumps += 1;
            extra.dump_allocs += allocs.total();
        } else {
            w.allocs.add(allocs);
        }
        out.attempted += 1;
        if stepped.is_err() || !conserved(fleet) {
            out.failed += 1;
        }
        extra.loss_rate_sum += fleet
            .fleet_snapshot()
            .and_then(|s| s.gauge_by_name("rack_budget_loss_rate"))
            .unwrap_or(0.0);
        if sim.epochs < p.sim_epochs {
            let tel = fleet.telemetry();
            sim.digest.f64(tel.total_instructions());
            sim.digest.f64(tel.total_energy().value());
            for k in 0..fleet.num_chips() {
                sim.digest.f64(fleet.chip_budget(k).value());
            }
            sim.epochs += 1;
            if sim.epochs == p.sim_epochs {
                sim.instructions = tel.total_instructions() - tel0.total_instructions();
                sim.energy_j = tel.total_energy().value() - tel0.total_energy().value();
                sim.time_s = tel.elapsed().value() - tel0.elapsed().value();
                sim.over_j = tel.overshoot_energy().value() - tel0.overshoot_energy().value();
                sim.over_epochs = tel.overshoot_epochs() - tel0.overshoot_epochs();
            }
        }
        if let Some((layers, log)) = traced.as_mut() {
            let c = cpu_seconds();
            let epoch = fleet.epoch() - 1;
            let root = log.push_ns("epoch", log.ns(t0), 0, ROOT, 0, epoch);
            log.push("fleet.step_epoch", t0, t1, root, 0, epoch);
            layers.step(fleet, epoch, log, root);
            let end = Instant::now();
            log.close(root, end);
            aside_wall += end.saturating_duration_since(t1).as_secs_f64();
            aside_cpu += cpu_seconds() - c;
        }
        w.epochs += 1;
        if w.epochs >= min_epochs && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    w.wall_s = start.elapsed().as_secs_f64() - aside_wall;
    w.cpu_s = cpu_seconds() - cpu0 - aside_cpu;
    (w, extra)
}

/// Times `decide_into` on one chip built like the rack's chips, in
/// short blocks spread over the fleet window. The fleet owns its
/// controllers, so per-chip decide cost is taken here; the blocks' time
/// is excluded from the fleet's wall and CPU totals.
struct Probe {
    chip: Replica,
    decide_ns: Samples,
}

impl Probe {
    fn new(p: &Params, seed: u64, seconds: f64) -> Self {
        let mut chip = Replica::new(p, seed, 0);
        let budget = chip.run.budget;
        for _ in 0..p.warmup {
            chip.step(budget);
        }
        let blocks = seconds * p.samples_per_s as f64 / p.probe_every as f64 + 1.0;
        Self {
            chip,
            decide_ns: Samples::with_capacity(blocks as usize * p.probe_block as usize),
        }
    }

    /// Steps the probe chip `epochs` times, timing all but the first
    /// [`PROBE_WARMUP`]: the fleet epochs in between leave the chip's
    /// tables out of cache, which would otherwise set the p99.
    fn block(&mut self, epochs: u64, budget: Watts, out: &mut Outcome) {
        for i in 0..epochs {
            let (t0, t1) = self.chip.step(budget);
            if i >= PROBE_WARMUP {
                self.decide_ns.record(t0, t1);
            }
            out.attempted += 1;
            if !self.chip.ok {
                out.failed += 1;
            }
        }
    }
}

/// Runs `rack16x64` for `seconds`; with a span log, steps the layer
/// replicas alongside, then runs a short untraced window for the overhead
/// comparison.
pub fn run(p: &Params, seed: u64, seconds: f64, mut log: Option<&mut SpanLog>) -> Outcome {
    let mut setup = Vec::new();
    let mut fleet = timed_builds(p.setup_reps, &mut setup, || build_fleet(p, seed));
    fleet.run(p.warmup).expect("warm-up epochs step");

    let mut out = Outcome::default();
    let mut sim = SimTally::default();
    let rounds0 = fleet.arbiter().rounds();
    let flips0 = watchdog_flips(&fleet);
    let traced = log.is_some();
    let mut probe = Probe::new(p, seed, seconds);
    let mut layers = traced.then(|| Layers::new(p, seed, &fleet));
    let main_s = if traced { seconds * 0.75 } else { seconds };
    let (w, extra) = drive(
        &mut fleet,
        p,
        main_s,
        p.sim_epochs,
        &mut sim,
        &mut out,
        &mut probe,
        layers.as_mut().zip(log.as_deref_mut()),
    );
    out.set_common(&w, &sim, (p.chips * p.cores) as f64 * w.epochs as f64);
    out.finish_setup(p.setup_reps, &mut setup, || build_fleet(p, seed));
    out.set_decide(&probe.decide_ns);

    let market = fleet.market().expect("rack market is on");
    let donated = market.pool().total_donated();
    out.set(
        "market.grant_ratio",
        if donated > 0.0 {
            market.pool().total_granted() / donated
        } else {
            0.0
        },
    );
    out.set(
        "faults.budget_loss_rate",
        extra.loss_rate_sum / w.epochs as f64,
    );
    out.set(
        "faults.watchdog_flips",
        (watchdog_flips(&fleet) - flips0) as f64,
    );
    out.set(
        "fleet.arbiter_rounds",
        (fleet.arbiter().rounds() - rounds0) as f64,
    );
    out.set("obs.recorder_dumps", fleet.anomaly_dumps().len() as f64);
    out.set(
        "obs.dump_allocs",
        if extra.dumps > 0 {
            extra.dump_allocs as f64 / extra.dumps as f64
        } else {
            0.0
        },
    );

    if let (Some(layers), Some(log)) = (layers, log) {
        out.failed += layers.failed;
        let t = log.per_epoch(w.epochs);
        let step = t.total_us("fleet.step_epoch");
        let fanout = t.total_us("fleet.fanout");
        out.set("fleet.step_epoch_us", step);
        out.set("fleet.fanout_us", fanout);
        out.set("fleet.rack_other_us", step - fanout);
        out.set(
            "manycore.pool_idle_frac",
            1.0 - layers.busy_ns as f64 / layers.fanout_ns.max(1) as f64,
        );
        out.set("fleet.arbiter_us", t.total_us("fleet.arbiter"));
        out.set("market.step_us", t.per_span_us("market.step"));
        out.set("obs.fleet_merge_us", t.total_us("obs.fleet_merge"));
        out.set("bench.traced_epoch_us", step);
        out.set("bench.epoch_other_us", t.self_us("epoch"));
        // Same fleet without replicas or spans: how much tracing costs.
        let mut scratch = Outcome::default();
        let (plain, _) = drive(
            &mut fleet,
            p,
            seconds * 0.25,
            1,
            &mut SimTally::default(),
            &mut scratch,
            &mut probe,
            None,
        );
        out.attempted += scratch.attempted;
        out.failed += scratch.failed;
        out.set(
            "bench.trace_overhead_frac",
            w.epoch_ns.mean_us() / plain.epoch_ns.mean_us() - 1.0,
        );
    }
    out
}
