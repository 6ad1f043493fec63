//! `chip1024`: one 1024-core chip under OD-RL with i16 Q-banks.
//!
//! Built directly (as the `epoch_kernel` harness does) so both stage
//! timers stay reachable: the traced run splits every epoch into the
//! controller's RL and realloc stages and the system's workload, power,
//! sensor, NoC and thermal stages, with outside stamps around
//! `decide_into`, `step_in_place` and `observation_into`.

use crate::alloc::Allocs;
use crate::measure::{
    closed_loop_epoch, cpu_seconds, timed_builds, Outcome, Samples, SimTally, Stepped, Window,
};
use crate::spans::{stage_ns, SpanLog, ROOT};
use odrl_bench::Scenario;
use odrl_core::{OdRlConfig, OdRlController, QTableLayout};
use odrl_manycore::{Observation, Parallelism, Stage, StageTimers, System};
use odrl_power::{LevelId, Watts};
use odrl_workload::MixPolicy;
use std::time::Instant;

/// Sizes of one `chip1024` run.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Cores on the chip.
    pub cores: usize,
    /// Builds timed before and again after the window; `setup_s` is the
    /// median of all of them.
    pub setup_reps: usize,
    /// Untimed epochs before the window.
    pub warmup: u64,
    /// Leading window epochs whose simulated outputs are tallied and
    /// digested (always run in full, however long they take).
    pub sim_epochs: u64,
    /// Latency samples reserved per second of window.
    pub samples_per_s: usize,
}

impl Params {
    /// The benchmark's `chip1024` workload.
    pub const FULL: Params = Params {
        cores: 1024,
        setup_reps: 25,
        warmup: 200,
        sim_epochs: 4000,
        samples_per_s: 20_000,
    };
}

/// A built chip and its loop buffers.
struct Chip {
    system: System,
    controller: OdRlController,
    budget: Watts,
    obs: Observation,
    actions: Vec<LevelId>,
    levels: usize,
}

fn build(p: &Params, seed: u64) -> Chip {
    let scenario = Scenario {
        cores: p.cores,
        budget_frac: 0.6,
        epochs: 0,
        mix: MixPolicy::RoundRobin,
        seed,
        parallelism: Parallelism::Serial,
    };
    let config = scenario
        .try_system_config()
        .expect("chip1024 scenario is valid");
    let budget = Watts::new(scenario.budget_frac * config.max_power().value());
    let system = System::new(config).expect("chip1024 system config is valid");
    let spec = system.spec();
    let odrl = OdRlConfig {
        layout: QTableLayout::Quantized,
        ..OdRlConfig::default()
    };
    let controller =
        OdRlController::new(odrl, &spec, budget).expect("default OD-RL config is valid");
    Chip {
        obs: system.observation(budget),
        actions: vec![LevelId(0); p.cores],
        levels: spec.vf_table.len(),
        system,
        controller,
        budget,
    }
}

impl Chip {
    /// One checked closed-loop epoch and the heap allocations it made.
    fn epoch(&mut self) -> (Stepped, Allocs) {
        let a0 = Allocs::now();
        let e = closed_loop_epoch(
            &mut self.system,
            &mut self.controller,
            &mut self.obs,
            &mut self.actions,
            self.levels,
            self.budget,
        );
        (e, Allocs::now().since(a0))
    }

    fn timers(&self) -> (StageTimers, StageTimers) {
        (*self.system.stage_timers(), *self.controller.stage_timers())
    }
}

/// Records one epoch's spans: outside stamps for the three calls, with
/// the stage-timer deltas laid out inside them.
fn record_spans(
    log: &mut SpanLog,
    e: &Stepped,
    index: u64,
    sys: [&StageTimers; 2],
    ctl: [&StageTimers; 2],
) {
    let [t0, t1, t2, t3] = e.t;
    let root = log.push("epoch", t0, t3, ROOT, 0, index);
    let decide = log.push("core.decide", t0, t1, root, 0, index);
    let start = log.ns(t0);
    let realloc = stage_ns(ctl[0], ctl[1], Stage::Realloc);
    let rl_ns = stage_ns(ctl[0], ctl[1], Stage::Rl);
    log.push_ns("core.realloc", start, start + realloc, decide, 0, index);
    let rl = log.push_ns(
        "rl",
        start + realloc,
        start + realloc + rl_ns,
        decide,
        0,
        index,
    );
    log.push_sequence(
        &[
            ("rl.decide", stage_ns(ctl[0], ctl[1], Stage::RlDecide)),
            ("rl.learn", stage_ns(ctl[0], ctl[1], Stage::RlLearn)),
        ],
        start + realloc,
        rl,
        0,
        index,
    );
    let step = log.push("manycore.step", t1, t2, root, 0, index);
    log.push_system_stages(sys[0], sys[1], log.ns(t1), step, 0, index);
    log.push("manycore.observe", t2, t3, root, 0, index);
}

/// Drives the loop for at least `min_epochs` epochs and at least
/// `seconds`, tallying the first `sim_epochs` epochs' simulated outputs.
fn drive(
    chip: &mut Chip,
    p: &Params,
    seconds: f64,
    min_epochs: u64,
    sim: &mut SimTally,
    out: &mut Outcome,
    mut log: Option<&mut SpanLog>,
) -> (Window, Samples) {
    let reserve = (seconds * p.samples_per_s as f64) as usize + min_epochs as usize;
    let mut w = Window {
        epoch_ns: Samples::with_capacity(reserve),
        ..Window::default()
    };
    let mut decide_ns = Samples::with_capacity(reserve);
    let mut prev = chip.timers();
    let cpu0 = cpu_seconds();
    let start = Instant::now();
    loop {
        let (e, allocs) = chip.epoch();
        w.epoch_ns.record(e.t[0], e.t[3]);
        decide_ns.record(e.t[0], e.t[1]);
        w.allocs.add(allocs);
        out.attempted += 1;
        if !e.ok {
            out.failed += 1;
        }
        if sim.epochs < p.sim_epochs {
            sim.record(e.power, chip.budget, e.instructions, e.energy, e.dt);
        }
        if let Some(log) = log.as_deref_mut() {
            let now = chip.timers();
            record_spans(log, &e, w.epochs, [&now.0, &prev.0], [&now.1, &prev.1]);
            prev = now;
        }
        w.epochs += 1;
        if w.epochs >= min_epochs && start.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    w.wall_s = start.elapsed().as_secs_f64();
    w.cpu_s = cpu_seconds() - cpu0;
    (w, decide_ns)
}

/// Runs `chip1024` for `seconds`; with a span log, runs the traced window
/// followed by a short untraced one for the overhead comparison.
pub fn run(p: &Params, seed: u64, seconds: f64, mut log: Option<&mut SpanLog>) -> Outcome {
    let mut setup = Vec::new();
    let mut chip = timed_builds(p.setup_reps, &mut setup, || build(p, seed));
    for _ in 0..p.warmup {
        chip.epoch();
    }
    chip.system.reset_stage_timers();
    chip.controller.reset_stage_timers();

    let mut out = Outcome::default();
    let mut sim = SimTally::default();
    let traced = log.is_some();
    let main_s = if traced { seconds * 0.75 } else { seconds };
    let (w, decide_ns) = drive(
        &mut chip,
        p,
        main_s,
        p.sim_epochs,
        &mut sim,
        &mut out,
        log.as_deref_mut(),
    );
    out.set_common(&w, &sim, (p.cores as u64 * w.epochs) as f64);
    out.finish_setup(p.setup_reps, &mut setup, || build(p, seed));
    out.set_decide(&decide_ns);
    if let Some(log) = log {
        let t = log.per_epoch(w.epochs);
        t.set_step_layers(&mut out);
        for (metric, span) in [
            ("rl.decide_us", "rl.decide"),
            ("rl.learn_us", "rl.learn"),
            ("core.decide_us", "core.decide"),
            ("core.realloc_us", "core.realloc"),
            ("controllers.od_rl.decide_us", "core.decide"),
        ] {
            out.set(metric, t.total_us(span));
        }
        out.set("rl.other_us", t.self_us("rl"));
        out.set("core.decide_other_us", t.self_us("core.decide"));
        // Same loop without span recording: how much tracing itself costs.
        let mut scratch = Outcome::default();
        let (plain, _) = drive(
            &mut chip,
            p,
            seconds * 0.25,
            1,
            &mut SimTally::default(),
            &mut scratch,
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
