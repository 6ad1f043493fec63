//! The reward shaping of the fine-grain agents.

use odrl_manycore::parallel::ShardSplit;
use odrl_power::Watts;
use serde::{Deserialize, Serialize};

/// Computes per-core rewards: phase-normalized throughput minus a local
/// overshoot penalty.
///
/// `r_i = ips_i / ref_i[phase] − λ · max(0, (p_i − b_i) / b_i)`
///
/// `ref_i[phase]` is a per-core, **per-phase-class** decaying maximum of
/// observed IPS (the phase class is the memory-boundedness bin of the
/// agent's state). Conditioning the normalizer on the phase class keeps the
/// throughput term comparable *within* each state: a memory-bound phase's
/// modest IPS is judged against the best seen in memory-bound phases, not
/// against a compute-phase peak — otherwise the level-to-level reward
/// differences drown in phase-to-phase variance. The penalty term makes
/// budget violations immediately and strongly negative, which is what
/// drives the paper's near-zero overshoot.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RewardShaper {
    lambda: f64,
    phases: usize,
    /// Per-(core, phase-class) decaying max of observed IPS, row-major.
    refs: Vec<f64>,
    /// Multiplicative decay applied to the reference each epoch it is used.
    decay: f64,
}

impl RewardShaper {
    /// Creates a shaper for `cores` cores × `phases` phase classes with
    /// penalty weight `lambda`.
    pub fn new(cores: usize, phases: usize, lambda: f64) -> Self {
        Self {
            lambda,
            phases: phases.max(1),
            refs: vec![0.0; cores * phases.max(1)],
            decay: 0.999,
        }
    }

    /// The penalty weight λ.
    pub fn lambda(&self) -> f64 {
        self.lambda
    }

    /// The current IPS normalizer of core `i` in phase class `phase`
    /// (0 until first observation).
    ///
    /// # Panics
    ///
    /// Panics if `i` or `phase` is out of range.
    pub fn reference(&self, i: usize, phase: usize) -> f64 {
        assert!(phase < self.phases, "phase {phase} out of range");
        self.refs[i * self.phases + phase]
    }

    /// Computes the reward for core `i` in phase class `phase` and updates
    /// that normalizer.
    ///
    /// # Panics
    ///
    /// Panics if `i` or `phase` is out of range.
    pub fn reward(
        &mut self,
        i: usize,
        phase: usize,
        ips: f64,
        power: Watts,
        local_budget: Watts,
    ) -> f64 {
        let phases = self.phases;
        RewardRow {
            lambda: self.lambda,
            decay: self.decay,
            refs: &mut self.refs[i * phases..(i + 1) * phases],
        }
        .reward(phase, ips, power, local_budget)
    }

    /// Borrows the whole shaper as a contiguous [`RewardRows`] view. The
    /// view implements [`ShardSplit`], so a sharded decide loop can split it at
    /// core boundaries and reward disjoint core ranges concurrently.
    pub fn rows_view(&mut self) -> RewardRows<'_> {
        RewardRows {
            lambda: self.lambda,
            decay: self.decay,
            phases: self.phases,
            refs: &mut self.refs,
        }
    }
}

/// One core's mutable slice of the [`RewardShaper`]: its per-phase IPS
/// normalizers plus the (shared, immutable) penalty parameters.
#[derive(Debug)]
pub struct RewardRow<'a> {
    lambda: f64,
    decay: f64,
    refs: &'a mut [f64],
}

impl RewardRow<'_> {
    /// Computes this core's reward in phase class `phase` and updates the
    /// phase's normalizer. Same arithmetic as [`RewardShaper::reward`].
    ///
    /// # Panics
    ///
    /// Panics if `phase` is out of range.
    pub fn reward(&mut self, phase: usize, ips: f64, power: Watts, local_budget: Watts) -> f64 {
        assert!(phase < self.refs.len(), "phase {phase} out of range");
        let ips = ips.max(0.0);
        self.refs[phase] = (self.refs[phase] * self.decay).max(ips);
        let perf = if self.refs[phase] > 0.0 {
            ips / self.refs[phase]
        } else {
            0.0
        };
        let over = if local_budget.value() > 0.0 {
            ((power - local_budget).value() / local_budget.value()).max(0.0)
        } else if power.value() > 0.0 {
            1.0 // any power against a zero budget is a full violation
        } else {
            0.0
        };
        perf - self.lambda * over
    }
}

/// A contiguous range of cores' reward state, borrowed from a
/// [`RewardShaper`]. Splitting at a core boundary yields two disjoint
/// views, so sharded decide loops can reward core ranges in parallel
/// without materialising one [`RewardRow`] per core.
#[derive(Debug)]
pub struct RewardRows<'a> {
    lambda: f64,
    decay: f64,
    phases: usize,
    refs: &'a mut [f64],
}

impl RewardRows<'_> {
    /// Number of cores covered by this view.
    pub fn len(&self) -> usize {
        self.refs.len() / self.phases
    }

    /// Whether the view covers no cores.
    pub fn is_empty(&self) -> bool {
        self.refs.is_empty()
    }

    /// Computes the reward of the view's `row`-th core in phase class
    /// `phase` and updates that normalizer. Same arithmetic as
    /// [`RewardShaper::reward`].
    ///
    /// # Panics
    ///
    /// Panics if `row` or `phase` is out of range.
    pub fn reward(
        &mut self,
        row: usize,
        phase: usize,
        ips: f64,
        power: Watts,
        local_budget: Watts,
    ) -> f64 {
        let phases = self.phases;
        RewardRow {
            lambda: self.lambda,
            decay: self.decay,
            refs: &mut self.refs[row * phases..(row + 1) * phases],
        }
        .reward(phase, ips, power, local_budget)
    }
}

impl ShardSplit for RewardRows<'_> {
    fn shard_len(&self) -> usize {
        self.len()
    }

    fn split_at_mut(self, mid: usize) -> (Self, Self) {
        let (head, tail) = self.refs.split_at_mut(mid * self.phases);
        (
            RewardRows {
                lambda: self.lambda,
                decay: self.decay,
                phases: self.phases,
                refs: head,
            },
            RewardRows {
                lambda: self.lambda,
                decay: self.decay,
                phases: self.phases,
                refs: tail,
            },
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn under_budget_reward_is_normalized_throughput() {
        let mut s = RewardShaper::new(1, 1, 4.0);
        let r = s.reward(0, 0, 2e9, Watts::new(1.0), Watts::new(2.0));
        // First observation defines the reference: perf term = 1.
        assert!((r - 1.0).abs() < 1e-12);
        // Half the throughput at the same reference: ~0.5.
        let r = s.reward(0, 0, 1e9, Watts::new(1.0), Watts::new(2.0));
        assert!((r - 0.5).abs() < 0.01);
    }

    #[test]
    fn overshoot_is_heavily_penalised() {
        let mut s = RewardShaper::new(1, 1, 4.0);
        let under = s.reward(0, 0, 1e9, Watts::new(1.9), Watts::new(2.0));
        let over = s.reward(0, 0, 1e9, Watts::new(3.0), Watts::new(2.0));
        assert!(under > 0.0);
        assert!(over < 0.0, "50% overshoot must be net-negative: {over}");
        assert!(under - over > 1.0);
    }

    #[test]
    fn phase_classes_have_independent_references() {
        let mut s = RewardShaper::new(1, 2, 0.0);
        // Compute phase: 3e9 IPS; memory phase: 5e8 IPS.
        s.reward(0, 0, 3e9, Watts::ZERO, Watts::new(1.0));
        s.reward(0, 1, 5e8, Watts::ZERO, Watts::new(1.0));
        assert!(s.reference(0, 0) > s.reference(0, 1));
        // Memory phase at its own best still earns a full perf reward.
        let r = s.reward(0, 1, 5e8, Watts::ZERO, Watts::new(1.0));
        assert!(r > 0.99, "phase-conditioned reward should be ~1, got {r}");
    }

    #[test]
    fn reference_decays_and_recovers() {
        let mut s = RewardShaper::new(1, 1, 0.0);
        s.reward(0, 0, 4e9, Watts::ZERO, Watts::new(1.0));
        let high_ref = s.reference(0, 0);
        for _ in 0..2000 {
            s.reward(0, 0, 1e9, Watts::ZERO, Watts::new(1.0));
        }
        assert!(s.reference(0, 0) < high_ref);
        let r = s.reward(0, 0, s.reference(0, 0), Watts::ZERO, Watts::new(1.0));
        assert!(r > 0.99);
    }

    #[test]
    fn zero_budget_with_power_is_a_violation() {
        let mut s = RewardShaper::new(1, 1, 4.0);
        let r = s.reward(0, 0, 1e9, Watts::new(0.5), Watts::ZERO);
        assert!(r < 0.0);
        let r0 = s.reward(0, 0, 0.0, Watts::ZERO, Watts::ZERO);
        assert!(r0 <= 0.0);
    }

    #[test]
    fn zero_lambda_ignores_overshoot() {
        let mut s = RewardShaper::new(1, 1, 0.0);
        let r = s.reward(0, 0, 1e9, Watts::new(100.0), Watts::new(1.0));
        assert!((r - 1.0).abs() < 1e-12);
    }

    #[test]
    fn negative_ips_clamps_to_zero() {
        let mut s = RewardShaper::new(1, 1, 1.0);
        let r = s.reward(0, 0, -5.0, Watts::ZERO, Watts::new(1.0));
        assert_eq!(r, 0.0);
    }

    #[test]
    fn cores_have_independent_references() {
        let mut s = RewardShaper::new(2, 1, 1.0);
        s.reward(0, 0, 4e9, Watts::ZERO, Watts::new(1.0));
        s.reward(1, 0, 1e9, Watts::ZERO, Watts::new(1.0));
        assert!(s.reference(0, 0) > s.reference(1, 0));
    }

    #[test]
    #[should_panic(expected = "phase")]
    fn out_of_range_phase_panics() {
        let mut s = RewardShaper::new(1, 2, 1.0);
        s.reward(0, 5, 1e9, Watts::ZERO, Watts::new(1.0));
    }
}
