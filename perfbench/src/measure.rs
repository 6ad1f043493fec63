//! Shared measurement pieces: metric registry, the checked closed-loop
//! epoch, latency samples, the simulated-output tally and digest, and
//! host facts.

use crate::alloc::Allocs;
use odrl_controllers::PowerController;
use odrl_manycore::{Observation, System};
use odrl_power::{Joules, LevelId, Seconds, Watts};
use std::collections::BTreeMap;
use std::time::Instant;

/// End-to-end metrics that `BENCHMARK.json` gates, in output order.
///
/// Only metrics that repeat within their bound across seeds on a shared
/// 2-vCPU host are gated. A single-threaded run there drifts between
/// faster and slower host phases, which moves its throughput, CPU time
/// and median latency by 20-30 % from run to run; a sharded run's upper
/// tail is set by shard-worker wake-ups. The epoch p75 and the decide p99
/// stayed within a fifth on every workload.
pub const GATED: &[(&str, &str)] = &[
    ("epoch_us_p75", "us"),
    ("decide_us_p99", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("instr_per_j", "1/J"),
    ("sim_gips", "GIPS"),
];

/// End-to-end metrics without a relative bound, because they do not repeat
/// from run to run on a shared host (see [`GATED`]) or can be exactly
/// zero on a healthy run (the counts and the simulated overshoot).
/// Untraced runs print them in the report; traced runs also emit them
/// with the per-layer set.
pub const UNGATED: &[(&str, &str)] = &[
    ("core_epochs_per_s", "1/s"),
    ("cpu_us_per_epoch", "us"),
    ("epoch_us_p50", "us"),
    ("epoch_us_p99", "us"),
    ("decide_us_p50", "us"),
    ("decide_us_p90", "us"),
    ("allocs_per_epoch", "count"),
    ("failed_frac", "frac"),
    ("overshoot_j", "J"),
    ("overshoot_frac", "frac"),
];

/// Per-layer metrics, emitted by traced runs in this order. A layer a
/// workload does not exercise reads 0 there.
pub const LAYERS: &[(&str, &str)] = &[
    ("workload.us_per_epoch", "us"),
    ("power.us_per_epoch", "us"),
    ("manycore.sensor_us_per_epoch", "us"),
    ("noc.us_per_epoch", "us"),
    ("thermal.us_per_epoch", "us"),
    ("manycore.step_us", "us"),
    ("manycore.observe_us", "us"),
    ("manycore.step_other_us", "us"),
    ("rl.decide_us", "us"),
    ("rl.learn_us", "us"),
    ("rl.other_us", "us"),
    ("core.decide_us", "us"),
    ("core.realloc_us", "us"),
    ("core.decide_other_us", "us"),
    ("controllers.od_rl.decide_us", "us"),
    ("controllers.od_rl_market.decide_us", "us"),
    ("controllers.maxbips_dp.decide_us", "us"),
    ("controllers.steepest_drop.decide_us", "us"),
    ("controllers.pid.decide_us", "us"),
    ("controllers.maxbips_dp.wall_share", "frac"),
    ("fleet.step_epoch_us", "us"),
    ("fleet.fanout_us", "us"),
    ("fleet.rack_other_us", "us"),
    ("manycore.pool_idle_frac", "frac"),
    ("fleet.arbiter_us", "us"),
    ("market.step_us", "us"),
    ("obs.fleet_merge_us", "us"),
    ("market.grant_ratio", "frac"),
    ("faults.budget_loss_rate", "frac"),
    ("faults.watchdog_flips", "count"),
    ("fleet.arbiter_rounds", "count"),
    ("obs.recorder_dumps", "count"),
    ("obs.dump_allocs", "count"),
    ("alloc.caller_per_epoch", "count"),
    ("alloc.worker_per_epoch", "count"),
    ("bench.traced_epoch_us", "us"),
    ("bench.epoch_other_us", "us"),
    ("bench.trace_overhead_frac", "frac"),
    ("core_epochs_per_s", "1/s"),
    ("cpu_us_per_epoch", "us"),
    ("epoch_us_p50", "us"),
    ("epoch_us_p99", "us"),
    ("decide_us_p50", "us"),
    ("decide_us_p90", "us"),
    ("allocs_per_epoch", "count"),
    ("failed_frac", "frac"),
    ("overshoot_j", "J"),
    ("overshoot_frac", "frac"),
];

/// The unit of a metric named in [`GATED`], [`UNGATED`] or [`LAYERS`].
///
/// # Panics
///
/// Panics on an unknown name.
pub fn unit(name: &str) -> &'static str {
    GATED
        .iter()
        .chain(UNGATED)
        .chain(LAYERS)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("unknown metric {name}"))
}

/// What one workload run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Checked units of work: epochs, or cells on `paper_sweep`.
    pub attempted: u64,
    /// Units that failed a correctness check.
    pub failed: u64,
    /// FNV-1a digest of the simulated outputs of the fixed sim window.
    pub digest: u64,
    /// Metric values by name.
    pub values: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Sets a metric.
    ///
    /// # Panics
    ///
    /// Panics on an unknown name.
    pub fn set(&mut self, name: &'static str, value: f64) {
        unit(name);
        self.values.insert(name, value);
    }

    /// A metric's value; 0 when the workload does not measure it.
    pub fn get(&self, name: &str) -> f64 {
        self.values.get(name).copied().unwrap_or(0.0)
    }

    /// Sets the controller-runtime metrics from per-call decide samples.
    pub fn set_decide(&mut self, decide_ns: &Samples) {
        self.set("decide_us_p50", decide_ns.percentile_us(0.50));
        self.set("decide_us_p90", decide_ns.percentile_us(0.90));
        self.set("decide_us_p99", decide_ns.percentile_us(0.99));
    }

    /// Times the closing batch of `reps` builds and sets `setup_s` to the
    /// median of every build timed in the run. Called after
    /// [`Outcome::set_common`], so the closing builds stay out of
    /// `peak_rss_mb`.
    pub fn finish_setup<T>(&mut self, reps: usize, setup: &mut Vec<f64>, build: impl FnMut() -> T) {
        timed_builds(reps, setup, build);
        self.set("setup_s", median(setup));
    }

    /// Sets the end-to-end metrics every workload derives the same way.
    pub fn set_common(&mut self, w: &Window, sim: &SimTally, core_epochs: f64) {
        self.set("core_epochs_per_s", core_epochs / w.wall_s);
        self.set("epoch_us_p50", w.epoch_ns.percentile_us(0.50));
        self.set("epoch_us_p75", w.epoch_ns.percentile_us(0.75));
        self.set("epoch_us_p99", w.epoch_ns.percentile_us(0.99));
        self.set("cpu_us_per_epoch", w.cpu_s * 1e6 / w.epochs as f64);
        self.set("peak_rss_mb", peak_rss_mb());
        let per_epoch = |n: u64| n as f64 / w.epochs as f64;
        self.set("allocs_per_epoch", per_epoch(w.allocs.total()));
        self.set("alloc.caller_per_epoch", per_epoch(w.allocs.caller));
        self.set("alloc.worker_per_epoch", per_epoch(w.allocs.worker));
        sim.set_metrics(self);
    }
}

/// Timing totals of one measured window.
#[derive(Debug, Clone, Default)]
pub struct Window {
    /// Epochs timed.
    pub epochs: u64,
    /// Wall seconds.
    pub wall_s: f64,
    /// Process CPU seconds, all threads.
    pub cpu_s: f64,
    /// Steady-state heap allocations, by thread role.
    pub allocs: Allocs,
    /// Per-epoch latencies.
    pub epoch_ns: Samples,
}

/// Latency samples in nanoseconds, in storage reserved up front so that
/// recording never allocates inside a timed window. Samples past the
/// reserve are dropped (the percentiles then cover a prefix).
#[derive(Debug, Clone, Default)]
pub struct Samples(Vec<u32>);

impl Samples {
    /// Room for `n` samples. The storage is written once up front so its
    /// pages are resident from the start: peak RSS then does not depend
    /// on how many epochs a run managed.
    pub fn with_capacity(n: usize) -> Self {
        let mut v = vec![u32::MAX; n];
        v.clear();
        Self(v)
    }

    /// Records the time from `t0` to `t1`.
    #[inline]
    pub fn record(&mut self, t0: Instant, t1: Instant) {
        if self.0.len() < self.0.capacity() {
            let ns = t1.saturating_duration_since(t0).as_nanos();
            self.0.push(u32::try_from(ns).unwrap_or(u32::MAX));
        }
    }

    /// Appends another set's samples.
    pub fn extend(&mut self, other: &Samples) {
        self.0.extend_from_slice(&other.0);
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Sum of all samples, nanoseconds.
    pub fn sum_ns(&self) -> u64 {
        self.0.iter().map(|&x| u64::from(x)).sum()
    }

    /// Mean, microseconds (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.0.is_empty() {
            0.0
        } else {
            self.sum_ns() as f64 / self.0.len() as f64 / 1e3
        }
    }

    /// The `q` quantile (nearest rank), microseconds (0 when empty).
    pub fn percentile_us(&self, q: f64) -> f64 {
        if self.0.is_empty() {
            return 0.0;
        }
        let mut sorted = self.0.clone();
        sorted.sort_unstable();
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        f64::from(sorted[rank - 1]) / 1e3
    }
}

/// What one closed-loop epoch produced.
#[derive(Debug, Clone, Copy)]
pub struct Stepped {
    /// Stamps before decide, after decide, after step and after observe.
    pub t: [Instant; 4],
    /// Whether the epoch passed every check: the step succeeded, every VF
    /// level was in range, and true and measured power are finite.
    pub ok: bool,
    /// True chip power.
    pub power: Watts,
    /// Sensor-measured chip power.
    pub measured: Watts,
    /// Instructions retired.
    pub instructions: f64,
    /// Energy spent.
    pub energy: Joules,
    /// Simulated epoch length.
    pub dt: Seconds,
}

/// Runs one closed-loop epoch — `decide_into`, `step_in_place`,
/// `observation_into` under `budget` — stamping each call and checking
/// its outputs. `levels` is the VF table's length.
pub fn closed_loop_epoch<C: PowerController + ?Sized>(
    system: &mut System,
    controller: &mut C,
    obs: &mut Observation,
    actions: &mut [LevelId],
    levels: usize,
    budget: Watts,
) -> Stepped {
    let t0 = Instant::now();
    controller.decide_into(obs, actions);
    let t1 = Instant::now();
    let levels_ok = actions.iter().all(|l| l.0 < levels);
    let stepped = system.step_in_place(actions).map(|r| {
        (
            r.total_power,
            r.measured_power,
            r.total_instructions(),
            r.energy,
            r.dt,
        )
    });
    let t2 = Instant::now();
    system.observation_into(budget, obs);
    let t = [t0, t1, t2, Instant::now()];
    match stepped {
        Ok((power, measured, instructions, energy, dt)) => Stepped {
            t,
            ok: levels_ok && power.value().is_finite() && measured.value().is_finite(),
            power,
            measured,
            instructions,
            energy,
            dt,
        },
        Err(_) => Stepped {
            t,
            ok: false,
            power: Watts::ZERO,
            measured: Watts::ZERO,
            instructions: 0.0,
            energy: Joules::new(0.0),
            dt: Seconds::new(0.0),
        },
    }
}

/// Builds `reps` times (at least once), appending each build's seconds to
/// `setup`, and returns the last build. Workloads time builds both before
/// and after their window, so `setup_s` samples the host at both ends of
/// the run rather than in one burst.
pub fn timed_builds<T>(reps: usize, setup: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..reps.max(1) {
        drop(last.take());
        let t0 = Instant::now();
        last = Some(build());
        setup.push(t0.elapsed().as_secs_f64());
    }
    last.expect("at least one build")
}

/// Median of a non-empty slice (mean of the middle pair for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// 64-bit FNV-1a over the bit patterns of simulated values.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fnv(u64);

impl Default for Fnv {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Folds one 64-bit word in, byte by byte.
    pub fn word(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds one float's bit pattern in.
    pub fn f64(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest so far.
    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Simulated outputs of the fixed sim window: identical for a given seed
/// however fast the host is, traced or not.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimTally {
    /// Epochs tallied.
    pub epochs: u64,
    /// Instructions retired.
    pub instructions: f64,
    /// Energy, joules.
    pub energy_j: f64,
    /// Simulated time, seconds.
    pub time_s: f64,
    /// Energy above the budget, joules.
    pub over_j: f64,
    /// Epochs whose true power exceeded the budget.
    pub over_epochs: u64,
    /// Digest of every tallied epoch.
    pub digest: Fnv,
}

impl SimTally {
    /// Tallies one chip epoch.
    pub fn record(
        &mut self,
        power: Watts,
        budget: Watts,
        instructions: f64,
        energy: Joules,
        dt: Seconds,
    ) {
        self.epochs += 1;
        self.instructions += instructions;
        self.energy_j += energy.value();
        self.time_s += dt.value();
        let over = power.value() - budget.value();
        if over > 0.0 {
            self.over_epochs += 1;
            self.over_j += over * dt.value();
        }
        self.digest.f64(power.value());
        self.digest.f64(instructions);
    }

    /// Adds another tally (e.g. one sweep cell) into this one.
    pub fn merge(&mut self, other: &SimTally) {
        self.epochs += other.epochs;
        self.instructions += other.instructions;
        self.energy_j += other.energy_j;
        self.time_s += other.time_s;
        self.over_j += other.over_j;
        self.over_epochs += other.over_epochs;
        self.digest.word(other.digest.finish());
    }

    /// Sets the four simulated-output metrics.
    pub fn set_metrics(&self, out: &mut Outcome) {
        out.set("instr_per_j", self.instructions / self.energy_j);
        out.set("sim_gips", self.instructions / self.time_s / 1e9);
        out.set("overshoot_j", self.over_j);
        out.set(
            "overshoot_frac",
            self.over_epochs as f64 / self.epochs.max(1) as f64,
        );
        out.digest = self.digest.finish();
    }
}

/// Peak resident set size (`VmHWM`), megabytes; 0 where `/proc` is absent.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Process CPU seconds, all threads, exited ones included.
///
/// Reads `CLOCK_PROCESS_CPUTIME_ID` (nanosecond resolution) on Linux;
/// elsewhere falls back to `odrl_bench::cputime`, whose 10 ms tick would
/// make short per-epoch figures repeat exactly.
pub fn cpu_seconds() -> f64 {
    #[cfg(target_os = "linux")]
    {
        #[repr(C)]
        struct Timespec {
            tv_sec: i64,
            tv_nsec: i64,
        }
        extern "C" {
            fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
        }
        const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec for the call's duration.
        if unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) } == 0 {
            return ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9;
        }
    }
    odrl_bench::cputime::process_cpu_seconds().unwrap_or(0.0)
}

/// Logical CPUs available to the process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// One-line host and build stamp: CPU model, `nproc`, rustc version and
/// the workspace features the benchmark was built with.
pub fn host_stamp() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "cpu={cpu}; nproc={}; rustc={}; features={}; profile={}",
        nproc(),
        env!("PERFBENCH_RUSTC"),
        env!("PERFBENCH_FEATURES"),
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_use_nearest_rank() {
        let mut s = Samples::with_capacity(100);
        let t0 = Instant::now();
        for i in 1..=100u64 {
            s.record(t0, t0 + std::time::Duration::from_nanos(i * 1000));
        }
        assert_eq!(s.percentile_us(0.5), 50.0);
        assert_eq!(s.percentile_us(0.99), 99.0);
        assert_eq!(s.len(), 100);
        s.record(t0, t0);
        assert_eq!(s.len(), 100, "samples past the reserve are dropped");
    }

    #[test]
    fn median_handles_odd_and_even() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn every_metric_name_is_unique() {
        let mut names: Vec<&str> = GATED.iter().chain(LAYERS).map(|(n, _)| *n).collect();
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for (name, _) in UNGATED {
            assert!(
                LAYERS.iter().any(|(n, _)| n == name),
                "{name} is traced too"
            );
        }
    }
}
