//! Per-core performance/power prediction for model-based baselines.

use odrl_manycore::{CoreObservation, SystemSpec};
use odrl_power::{LevelId, Watts};
use serde::{Deserialize, Serialize};

/// One predicted operating point for one core.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictedPoint {
    /// The VF level this prediction is for.
    pub level: LevelId,
    /// Predicted instructions per second.
    pub ips: f64,
    /// Predicted core power.
    pub power: Watts,
}

/// Predicts each core's (IPS, power) at every VF level from its last-epoch
/// counters.
///
/// This is the "system model" that MaxBIPS-class algorithms assume: given
/// the counter-derived workload signature of the previous epoch, an
/// analytical model extrapolates performance and power across the whole
/// DVFS table. The prediction is *stale by one epoch* — precisely the
/// weakness the paper's model-free OD-RL avoids when workloads shift
/// between decisions.
///
/// ```
/// use odrl_controllers::Predictor;
/// use odrl_manycore::SystemConfig;
/// # use odrl_manycore::{System};
/// # use odrl_power::{LevelId, Watts};
/// let config = SystemConfig::builder().cores(2).seed(0).build()?;
/// let mut system = System::new(config)?;
/// system.step(&vec![LevelId(3); 2])?;
/// let predictor = Predictor::new(system.spec());
/// let obs = system.observation(Watts::new(10.0));
/// let points = predictor.predict(&obs.cores[0]);
/// assert_eq!(points.len(), 8);
/// assert!(points[7].power > points[0].power);
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Predictor {
    spec: SystemSpec,
}

impl Predictor {
    /// Creates a predictor for a system spec.
    pub fn new(spec: SystemSpec) -> Self {
        Self { spec }
    }

    /// The underlying spec.
    pub fn spec(&self) -> &SystemSpec {
        &self.spec
    }

    /// Predicts (IPS, power) for `core` at every VF level, slowest first.
    ///
    /// Power uses the activity derating the real hardware exhibits (stalled
    /// cycles clock-gate the datapath) and the core's measured temperature
    /// for leakage.
    pub fn predict(&self, core: &CoreObservation) -> Vec<PredictedPoint> {
        let mut out = Vec::new();
        self.each_point(core, |p| out.push(p));
        out
    }

    /// Predicts the full system: one row per core, one column per level.
    pub fn predict_all(&self, cores: &[CoreObservation]) -> Vec<Vec<PredictedPoint>> {
        cores.iter().map(|c| self.predict(c)).collect()
    }

    /// Predicts the full system into a reusable flat [`PredictionTable`],
    /// allocation-free once the table has reached capacity.
    pub fn predict_all_into(&self, cores: &[CoreObservation], table: &mut PredictionTable) {
        table.levels = self.spec.vf_table.len();
        table.points.clear();
        for core in cores {
            self.each_point(core, |p| table.points.push(p));
        }
    }

    /// Evaluates the model at every VF level for one core, slowest first.
    /// Single source of the prediction arithmetic so the allocating and
    /// scratch-reusing paths are bit-identical.
    fn each_point(&self, core: &CoreObservation, mut f: impl FnMut(PredictedPoint)) {
        let params = core.counters;
        for (id, level) in self.spec.vf_table.iter() {
            // One effective-CPI evaluation feeds both the IPS and the busy
            // fraction; `PerfModel::ips` is frequency / effective_cpi, so
            // sharing the divisor is bit-identical to evaluating it twice.
            let ecpi = self.spec.perf.effective_cpi(&params, level.frequency);
            let ips = level.frequency.to_hertz() / ecpi;
            let busy = params.cpi_base / ecpi;
            let activity = params.activity * (0.3 + 0.7 * busy);
            let power = self
                .spec
                .power
                .total_power(level, activity, core.temperature);
            f(PredictedPoint {
                level: id,
                ips,
                power,
            });
        }
    }
}

/// A full-system prediction in flat row-major layout: row `i` holds core
/// `i`'s predicted points across all VF levels, slowest first. Owned by a
/// controller and refilled in place each decision, so steady-state decides
/// never allocate.
#[derive(Debug, Clone, Default)]
pub struct PredictionTable {
    points: Vec<PredictedPoint>,
    levels: usize,
}

impl PredictionTable {
    /// Number of cores in the table.
    pub fn cores(&self) -> usize {
        self.points.len().checked_div(self.levels).unwrap_or(0)
    }

    /// Number of VF levels per core row.
    pub fn levels(&self) -> usize {
        self.levels
    }

    /// Whether the table holds no predictions.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// Core `i`'s predicted points across all levels, slowest first.
    pub fn row(&self, core: usize) -> &[PredictedPoint] {
        &self.points[core * self.levels..(core + 1) * self.levels]
    }

    /// Hints the prefetcher at core `i`'s row, mirroring
    /// `odrl_rl::QTableStorage::prefetch_select`: a solver scanning core `i`
    /// can pull core `i + 1`'s predictions toward L1 while the current
    /// row's arithmetic retires. No-op on non-x86_64 targets and for
    /// out-of-range cores.
    #[inline]
    pub fn prefetch_row(&self, core: usize) {
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            let start = core * self.levels;
            if self.levels == 0 || start >= self.points.len() {
                return;
            }
            // SAFETY: prefetch is a hint; the pointer derives from a live
            // in-bounds slice and is never dereferenced architecturally.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(self.points[start..].as_ptr().cast::<i8>()) }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            let _ = core;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrl_manycore::SystemConfig;
    use odrl_power::Celsius;
    use odrl_workload::PhaseParams;

    fn obs(cpi: f64, mpki: f64, act: f64) -> CoreObservation {
        CoreObservation {
            level: LevelId(0),
            ips: 0.0,
            power: Watts::ZERO,
            temperature: Celsius::new(70.0),
            counters: PhaseParams::new(cpi, mpki, act).unwrap(),
        }
    }

    fn predictor() -> Predictor {
        let config = SystemConfig::builder().cores(4).build().unwrap();
        Predictor::new(config.spec())
    }

    #[test]
    fn predictions_cover_all_levels_in_order() {
        let p = predictor();
        let points = p.predict(&obs(1.0, 2.0, 0.9));
        assert_eq!(points.len(), 8);
        for (i, pt) in points.iter().enumerate() {
            assert_eq!(pt.level, LevelId(i));
        }
    }

    #[test]
    fn power_and_ips_monotone_in_level() {
        let p = predictor();
        let points = p.predict(&obs(1.0, 2.0, 0.9));
        for w in points.windows(2) {
            assert!(w[1].power > w[0].power);
            assert!(w[1].ips > w[0].ips);
        }
    }

    #[test]
    fn memory_bound_core_predicted_to_saturate() {
        let p = predictor();
        let compute = p.predict(&obs(0.7, 0.1, 1.0));
        let memory = p.predict(&obs(0.7, 25.0, 1.0));
        let gain = |pts: &[PredictedPoint]| pts[7].ips / pts[0].ips;
        assert!(gain(&compute) > 2.0);
        assert!(gain(&memory) < 1.5);
    }

    #[test]
    fn hotter_core_predicted_to_burn_more() {
        let p = predictor();
        let mut cool = obs(1.0, 1.0, 1.0);
        cool.temperature = Celsius::new(50.0);
        let mut hot = cool;
        hot.temperature = Celsius::new(95.0);
        let pc = p.predict(&cool);
        let ph = p.predict(&hot);
        assert!(ph[4].power > pc[4].power);
        // Performance prediction is temperature-independent.
        assert_eq!(ph[4].ips, pc[4].ips);
    }

    #[test]
    fn predict_all_shape() {
        let p = predictor();
        let cores = vec![obs(1.0, 1.0, 1.0), obs(1.2, 9.0, 0.6)];
        let all = p.predict_all(&cores);
        assert_eq!(all.len(), 2);
        assert_eq!(all[0].len(), 8);
    }
}
