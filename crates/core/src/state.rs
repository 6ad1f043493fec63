//! The per-core state encoding of the fine-grain RL agents.

use crate::config::OdRlConfig;
use crate::error::OdRlError;
use odrl_manycore::CoreObservation;
use odrl_rl::{StateSpace, UniformBins};
use serde::{Deserialize, Serialize};

/// Encodes a core's sensor readings into a tabular state index.
///
/// The state the fine-grain agents condition on is deliberately
/// **action-independent** — it describes the core's *situation*, not the
/// actuator's last position — so the learned mapping state → best level is
/// stable (no self-referential limit cycles):
///
/// 1. **budget affordability** — the core's local power budget divided by
///    the highest power this core has been observed to draw (a decaying
///    maximum maintained by the controller), binned over `[0, 1.5]`. A
///    value ≥ 1 means "the budget would cover even my hungriest behaviour";
///    small values mean the budget forces throttling.
/// 2. **memory-boundedness**, binned over `[0, 1]` — derived from CPI/MPKI
///    counters; tells the agent whether frequency buys performance.
/// 3. optionally (`include_level`) the **current VF level**, for the ablation
///    that restores the action-coupled state.
///
/// All inputs are continuous sensor values; binning saturates rather than
/// failing on out-of-range readings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StateEncoder {
    afford: UniformBins,
    mem: UniformBins,
    space: StateSpace,
    levels: usize,
    include_level: bool,
}

impl StateEncoder {
    /// Builds the encoder for a given config and VF-table size.
    ///
    /// # Errors
    ///
    /// Returns [`OdRlError::EmptySpec`] if `levels == 0`, or forwards
    /// invalid bin counts.
    pub fn new(config: &OdRlConfig, levels: usize) -> Result<Self, OdRlError> {
        if levels == 0 {
            return Err(OdRlError::EmptySpec);
        }
        let afford = UniformBins::new(0.0, 1.5, config.power_bins)?;
        let mem = UniformBins::new(0.0, 1.0, config.mem_bins)?;
        let mut dims = vec![config.power_bins, config.mem_bins];
        if config.include_level {
            dims.push(levels);
        }
        let space = StateSpace::new(dims)?;
        Ok(Self {
            afford,
            mem,
            space,
            levels,
            include_level: config.include_level,
        })
    }

    /// Total number of states.
    pub fn num_states(&self) -> usize {
        self.space.len()
    }

    /// Number of actions (VF levels).
    pub fn num_actions(&self) -> usize {
        self.levels
    }

    /// Number of memory-boundedness bins.
    pub fn num_mem_bins(&self) -> usize {
        self.mem.len()
    }

    /// Encodes one core's observation.
    ///
    /// `affordability` is `local_budget / max observed core power`; the
    /// controller maintains the decaying maximum. Non-finite values saturate
    /// into the top bin (an unknown ceiling reads as "rich").
    pub fn encode(&self, core: &CoreObservation, affordability: f64) -> usize {
        self.encode_with_mem(core, affordability).0
    }

    /// [`encode`](Self::encode) that also hands back the
    /// memory-boundedness bin it computed along the way (the reward
    /// normalizer's phase class), so a decide pass can cache it for the
    /// learn pass instead of re-deriving it.
    pub fn encode_with_mem(&self, core: &CoreObservation, affordability: f64) -> (usize, usize) {
        let a = if affordability.is_finite() {
            affordability
        } else {
            f64::MAX
        };
        let ab = self.afford.bin(a);
        let mb = self.mem.bin(core.memory_boundedness());
        // Row-major over (afford, mem[, level]) like `StateSpace::index`;
        // every bin is in range by construction.
        let s = ab * self.mem.len() + mb;
        if self.include_level {
            let lv = core.level.index().min(self.levels - 1);
            (s * self.levels + lv, mb)
        } else {
            (s, mb)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrl_power::{Celsius, LevelId, Watts};
    use odrl_workload::PhaseParams;

    fn encoder() -> StateEncoder {
        StateEncoder::new(&OdRlConfig::default(), 8).unwrap()
    }

    fn core(mpki: f64, level: usize) -> CoreObservation {
        CoreObservation {
            level: LevelId(level),
            ips: 1e9,
            power: Watts::new(1.0),
            temperature: Celsius::new(70.0),
            counters: PhaseParams::new(1.0, mpki, 0.8).unwrap(),
        }
    }

    #[test]
    fn state_space_size_matches_config() {
        let e = encoder();
        assert_eq!(e.num_states(), 8 * 4);
        assert_eq!(e.num_actions(), 8);
        assert_eq!(e.num_mem_bins(), 4);
        let with_level = StateEncoder::new(
            &OdRlConfig {
                include_level: true,
                ..OdRlConfig::default()
            },
            8,
        )
        .unwrap();
        assert_eq!(with_level.num_states(), 8 * 4 * 8);
    }

    #[test]
    fn all_encodings_are_in_range() {
        let e = encoder();
        for &a in &[0.0, 0.4, 1.0, 1.5, 100.0, f64::INFINITY, f64::NAN] {
            for &m in &[0.0, 5.0, 50.0, 200.0] {
                for l in 0..8 {
                    let s = e.encode(&core(m, l), a);
                    assert!(s < e.num_states());
                }
            }
        }
    }

    #[test]
    fn affordability_separates_poor_and_rich() {
        let e = encoder();
        let poor = e.encode(&core(1.0, 3), 0.3);
        let rich = e.encode(&core(1.0, 3), 1.3);
        assert_ne!(poor, rich);
    }

    #[test]
    fn memory_boundedness_separates_workload_types() {
        let e = encoder();
        let compute = e.encode(&core(0.1, 3), 1.0);
        let memory = e.encode(&core(30.0, 3), 1.0);
        assert_ne!(compute, memory);
        assert_ne!(
            e.encode_with_mem(&core(0.1, 3), 1.0).1,
            e.encode_with_mem(&core(30.0, 3), 1.0).1
        );
    }

    #[test]
    fn state_is_action_independent_by_default() {
        let e = encoder();
        let a = e.encode(&core(1.0, 2), 0.8);
        let b = e.encode(&core(1.0, 5), 0.8);
        assert_eq!(a, b, "level must not split states by default");
        let with_level = StateEncoder::new(
            &OdRlConfig {
                include_level: true,
                ..OdRlConfig::default()
            },
            8,
        )
        .unwrap();
        let a = with_level.encode(&core(1.0, 2), 0.8);
        let b = with_level.encode(&core(1.0, 5), 0.8);
        assert_ne!(a, b);
    }

    #[test]
    fn unknown_ceiling_reads_as_rich() {
        let e = encoder();
        let inf = e.encode(&core(1.0, 0), f64::INFINITY);
        let rich = e.encode(&core(1.0, 0), 100.0);
        assert_eq!(inf, rich);
    }
}
