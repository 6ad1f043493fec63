//! Coarse-grain global power-budget reallocation.

use odrl_manycore::Observation;
use odrl_power::Watts;
use serde::{Deserialize, Serialize};

/// The paper's coarse-grain layer: every `K` epochs, redistribute the chip
/// power budget across cores to maximize overall performance.
///
/// The algorithm is O(n) per invocation and fully model-free:
///
/// 1. each core's *demand* is its recent measured power plus headroom —
///    cores pressed against their share need more, idle cores need less;
/// 2. surplus (budget − total demand) is distributed proportionally to a
///    *marginal-benefit score*: an exponential moving average of the
///    observed ΔIPS/ΔW across recent level changes, falling back to the
///    core's compute-boundedness when no transition has been observed
///    (memory-bound cores gain almost nothing from extra watts);
/// 3. shortfall is absorbed proportionally above a protected minimum share
///    so no core is starved below `min_share · B/n`;
/// 4. the new allocation is blended into the old one with gain `η` to
///    avoid thrashing the fine-grain agents' state definitions.
///
/// The allocation always sums to the chip budget (up to floating-point
/// rounding).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BudgetAllocator {
    gain: f64,
    min_share: f64,
    headroom: f64,
    /// EMA of observed marginal throughput per watt, per core.
    marginals: Vec<f64>,
    /// Last observed (ips, power) per core, for marginal estimation.
    last_point: Vec<Option<(f64, f64)>>,
    /// Decaying maximum of observed power per core — budget handed out
    /// beyond this ceiling cannot be spent and is redirected.
    max_power_seen: Vec<f64>,
    ema: f64,
}

impl BudgetAllocator {
    /// Creates an allocator for `cores` cores.
    ///
    /// `gain` is the blend factor per reallocation in `(0, 1]`;
    /// `min_share` the protected fraction of the fair share.
    pub fn new(cores: usize, gain: f64, min_share: f64) -> Self {
        Self {
            gain,
            min_share,
            headroom: 1.3,
            marginals: vec![0.0; cores],
            last_point: vec![None; cores],
            max_power_seen: vec![0.0; cores],
            ema: 0.2,
        }
    }

    /// Updates the marginal-benefit estimates from the latest observation.
    ///
    /// Called every epoch (cheap: O(n)) so that by reallocation time the
    /// estimates reflect recent behaviour.
    pub fn observe(&mut self, obs: &Observation) {
        for (i, core) in obs.cores.iter().enumerate() {
            let p = core.power.value();
            let ips = core.ips;
            // A non-finite reading is sensor garbage, not a data point.
            if !(p.is_finite() && ips.is_finite()) {
                continue;
            }
            self.max_power_seen[i] = (self.max_power_seen[i] * 0.999).max(p);
            if let Some((last_ips, last_p)) = self.last_point[i] {
                let dp = p - last_p;
                if dp.abs() > 1e-3 {
                    let marginal = ((ips - last_ips) / dp).max(0.0);
                    if marginal.is_finite() {
                        self.marginals[i] =
                            (1.0 - self.ema) * self.marginals[i] + self.ema * marginal;
                    }
                }
            }
            self.last_point[i] = Some((ips, p));
        }
    }

    /// The current marginal-benefit score of core `i` against the given
    /// observation (falls back to compute-boundedness before any level
    /// transition has been observed).
    fn score(&self, obs: &Observation, i: usize) -> f64 {
        if self.marginals[i] > 0.0 {
            self.marginals[i]
        } else {
            // Compute-bound cores convert watts into instructions;
            // memory-bound cores do not. Small floor keeps scores positive.
            (1.0 - obs.cores[i].memory_boundedness()).max(0.05)
        }
    }

    /// Computes the new per-core budgets for chip budget `total`, blending
    /// into `current` with the configured gain.
    ///
    /// Convenience wrapper over [`BudgetAllocator::reallocate_into`] that
    /// allocates fresh working buffers and a fresh result vector per call.
    ///
    /// # Panics
    ///
    /// Panics if `current.len()` differs from the observation's core count.
    pub fn reallocate(&self, obs: &Observation, current: &[Watts], total: Watts) -> Vec<Watts> {
        let mut scratch = AllocScratch::default();
        let mut out = Vec::new();
        self.reallocate_into(obs, current, total, &mut scratch, &mut out);
        out
    }

    /// Computes the new per-core budgets for chip budget `total`, blending
    /// into `current` with the configured gain, writing the result into
    /// `out` and using `scratch` for all intermediates. Allocation-free
    /// once the buffers have reached capacity; bit-identical to
    /// [`BudgetAllocator::reallocate`].
    ///
    /// # Panics
    ///
    /// Panics if `current.len()` differs from the observation's core count.
    pub fn reallocate_into(
        &self,
        obs: &Observation,
        current: &[Watts],
        total: Watts,
        scratch: &mut AllocScratch,
        out: &mut Vec<Watts>,
    ) {
        let n = obs.cores.len();
        assert_eq!(current.len(), n, "budget vector length mismatch");
        out.clear();
        if n == 0 {
            return;
        }
        let b = total.value().max(0.0);
        let fair = b / n as f64;
        let floor = self.min_share * fair;

        // Demand: recent power with headroom, at least the floor.
        let demands = &mut scratch.demands;
        demands.clear();
        // A non-finite reading demands the floor (`max` drops a NaN; an
        // infinite demand would swamp every other core's share).
        demands.extend(obs.cores.iter().map(|c| {
            let p = c.power.value();
            if p.is_finite() {
                (p * self.headroom).max(floor)
            } else {
                floor
            }
        }));
        let total_demand: f64 = demands.iter().sum();

        let targets = &mut scratch.targets;
        targets.clear();
        if total_demand <= b {
            // Surplus: hand extra watts to the cores that convert them best.
            let surplus = b - total_demand;
            let scores = &mut scratch.scores;
            scores.clear();
            scores.extend((0..n).map(|i| self.score(obs, i)));
            let score_sum: f64 = scores.iter().sum();
            targets.extend(
                demands
                    .iter()
                    .zip(scores.iter())
                    .map(|(d, s)| d + surplus * s / score_sum.max(1e-12)),
            );
        } else {
            // Shortfall: shrink the above-floor portion uniformly.
            let above: f64 = demands.iter().map(|d| d - floor).sum();
            let available = (b - floor * n as f64).max(0.0);
            let scale = if above > 0.0 { available / above } else { 0.0 };
            targets.extend(demands.iter().map(|d| floor + (d - floor) * scale));
        }

        // Cap each target at the core's observed power ceiling (with slack
        // for one level step); watts a core cannot physically spend are
        // redirected to cores that can. A few passes converge.
        for _ in 0..3 {
            let caps = &mut scratch.caps;
            caps.clear();
            caps.extend((0..n).map(|i| {
                if self.max_power_seen[i] > 0.0 {
                    (self.max_power_seen[i] * 1.15).max(floor)
                } else {
                    f64::INFINITY
                }
            }));
            let mut excess = 0.0;
            let mut open_score = 0.0;
            for i in 0..n {
                if targets[i] > caps[i] {
                    excess += targets[i] - caps[i];
                    targets[i] = caps[i];
                } else {
                    open_score += self.score(obs, i);
                }
            }
            if excess <= 1e-12 || open_score <= 1e-12 {
                break;
            }
            for i in 0..n {
                if targets[i] < caps[i] {
                    targets[i] += excess * self.score(obs, i) / open_score;
                }
            }
        }

        // Blend and renormalize to exactly the chip budget.
        let new = &mut scratch.next;
        new.clear();
        new.extend(
            current
                .iter()
                .zip(targets.iter())
                .map(|(c, t)| (1.0 - self.gain) * c.value() + self.gain * t),
        );
        let sum: f64 = new.iter().sum();
        if sum > 0.0 {
            let k = b / sum;
            for v in new.iter_mut() {
                *v *= k;
            }
        } else {
            new.fill(fair);
        }
        out.extend(new.iter().copied().map(Watts::new));
    }

    /// An even split of `total` across `n` cores (the initial allocation).
    pub fn fair_split(total: Watts, n: usize) -> Vec<Watts> {
        let share = if n == 0 {
            Watts::ZERO
        } else {
            total / n as f64
        };
        vec![share; n]
    }
}

/// Reusable working buffers for [`BudgetAllocator::reallocate_into`].
///
/// The allocator itself serializes as learned state, so its per-invocation
/// intermediates live here, owned by the caller and reused across
/// reallocations.
#[derive(Debug, Clone, Default)]
pub struct AllocScratch {
    demands: Vec<f64>,
    scores: Vec<f64>,
    targets: Vec<f64>,
    caps: Vec<f64>,
    next: Vec<f64>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use odrl_manycore::CoreObservation;
    use odrl_power::{Celsius, LevelId, Seconds};
    use odrl_workload::PhaseParams;

    fn obs(powers: &[f64], mpkis: &[f64], ipss: &[f64]) -> Observation {
        let cores = powers
            .iter()
            .zip(mpkis)
            .zip(ipss)
            .map(|((&p, &m), &ips)| CoreObservation {
                level: LevelId(3),
                ips,
                power: Watts::new(p),
                temperature: Celsius::new(70.0),
                counters: PhaseParams::new(1.0, m, 0.8).unwrap(),
            })
            .collect();
        Observation {
            epoch: 0,
            dt: Seconds::new(1e-3),
            budget: Watts::new(powers.iter().sum()),
            cores,
            total_power: Watts::new(powers.iter().sum()),
        }
    }

    #[test]
    fn allocation_sums_to_budget() {
        let alloc = BudgetAllocator::new(4, 1.0, 0.25);
        let o = obs(
            &[1.0, 2.0, 0.5, 3.0],
            &[1.0, 10.0, 0.1, 20.0],
            &[1e9, 5e8, 2e9, 4e8],
        );
        let total = Watts::new(10.0);
        let current = BudgetAllocator::fair_split(total, 4);
        let new = alloc.reallocate(&o, &current, total);
        let sum: f64 = new.iter().map(|w| w.value()).sum();
        assert!((sum - 10.0).abs() < 1e-9, "sum {sum}");
    }

    #[test]
    fn compute_bound_core_gets_more_than_memory_bound() {
        let alloc = BudgetAllocator::new(2, 1.0, 0.25);
        // Same measured power, very different memory profiles.
        let o = obs(&[1.0, 1.0], &[0.1, 30.0], &[2e9, 4e8]);
        let total = Watts::new(6.0);
        let current = BudgetAllocator::fair_split(total, 2);
        let new = alloc.reallocate(&o, &current, total);
        assert!(new[0] > new[1], "compute-bound should win surplus: {new:?}");
    }

    #[test]
    fn no_core_starved_below_protected_floor() {
        let alloc = BudgetAllocator::new(4, 1.0, 0.25);
        // One core hogging power; very tight total.
        let o = obs(
            &[50.0, 0.1, 0.1, 0.1],
            &[0.1, 1.0, 1.0, 1.0],
            &[5e9, 1e8, 1e8, 1e8],
        );
        let total = Watts::new(4.0);
        let fair = 1.0;
        let floor = 0.25 * fair;
        let current = BudgetAllocator::fair_split(total, 4);
        let new = alloc.reallocate(&o, &current, total);
        for w in &new {
            assert!(
                w.value() >= floor * 0.9, // blending slack
                "core starved: {new:?}"
            );
        }
    }

    #[test]
    fn gain_blends_gradually() {
        let slow = BudgetAllocator::new(2, 0.1, 0.25);
        let fast = BudgetAllocator::new(2, 1.0, 0.25);
        let o = obs(&[3.0, 0.2], &[0.1, 25.0], &[2e9, 3e8]);
        let total = Watts::new(4.0);
        let current = BudgetAllocator::fair_split(total, 2);
        let a_slow = slow.reallocate(&o, &current, total);
        let a_fast = fast.reallocate(&o, &current, total);
        let drift = |a: &[Watts]| (a[0].value() - 2.0).abs();
        assert!(drift(&a_slow) < drift(&a_fast));
    }

    #[test]
    fn marginal_observation_shifts_scores() {
        let mut alloc = BudgetAllocator::new(2, 1.0, 0.25);
        // Two epochs: core 0 shows a big IPS gain per watt, core 1 none.
        alloc.observe(&obs(&[1.0, 1.0], &[5.0, 5.0], &[1e9, 1e9]));
        alloc.observe(&obs(&[2.0, 2.0], &[5.0, 5.0], &[3e9, 1e9]));
        let o = obs(&[1.0, 1.0], &[5.0, 5.0], &[1e9, 1e9]);
        // Keep the pot below the sum of power-ceiling caps so the
        // marginal-driven split is visible.
        let total = Watts::new(4.0);
        let current = BudgetAllocator::fair_split(total, 2);
        let new = alloc.reallocate(&o, &current, total);
        assert!(new[0] > new[1], "observed marginal should win: {new:?}");
    }

    #[test]
    fn fair_split_is_even() {
        let split = BudgetAllocator::fair_split(Watts::new(12.0), 4);
        assert_eq!(split.len(), 4);
        for w in split {
            assert!((w.value() - 3.0).abs() < 1e-12);
        }
        assert!(BudgetAllocator::fair_split(Watts::new(12.0), 0).is_empty());
    }

    #[test]
    fn reallocate_into_matches_allocating_path() {
        let mut alloc = BudgetAllocator::new(4, 0.7, 0.25);
        alloc.observe(&obs(
            &[1.0, 2.0, 0.5, 3.0],
            &[1.0, 10.0, 0.1, 20.0],
            &[1e9, 5e8, 2e9, 4e8],
        ));
        alloc.observe(&obs(
            &[1.5, 1.8, 0.9, 2.5],
            &[1.0, 10.0, 0.1, 20.0],
            &[2e9, 4e8, 3e9, 5e8],
        ));
        let total = Watts::new(9.0);
        let mut current = BudgetAllocator::fair_split(total, 4);
        let mut scratch = AllocScratch::default();
        let mut out = Vec::new();
        for round in 0..5 {
            let o = obs(
                &[1.0 + round as f64 * 0.2, 2.0, 0.5, 3.0],
                &[1.0, 10.0, 0.1, 20.0],
                &[1e9, 5e8, 2e9, 4e8],
            );
            let fresh = alloc.reallocate(&o, &current, total);
            alloc.reallocate_into(&o, &current, total, &mut scratch, &mut out);
            assert_eq!(out, fresh, "round {round}");
            current = fresh;
        }
    }

    #[test]
    fn zero_budget_yields_zero_allocation() {
        let alloc = BudgetAllocator::new(2, 1.0, 0.25);
        let o = obs(&[1.0, 1.0], &[1.0, 1.0], &[1e9, 1e9]);
        let current = BudgetAllocator::fair_split(Watts::ZERO, 2);
        let new = alloc.reallocate(&o, &current, Watts::ZERO);
        let sum: f64 = new.iter().map(|w| w.value()).sum();
        assert!(sum.abs() < 1e-9);
    }
}
