//! Tabular temporal-difference agents: Q-learning and SARSA over one
//! Q-table, double Q-learning over two.

use crate::error::RlError;
use crate::policy::{EpsCache, Policy};
use crate::schedule::Schedule;
use crate::snapshot::{self, SnapshotError, KIND_AGENT, KIND_DOUBLE_AGENT};
use crate::storage::{QTableLayout, QTableStorage, QuantHealth, RowStats};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::path::Path;

/// Which TD update rule a controller applies ([`Agent::update`] implements
/// Q-learning; [`Agent::update_sarsa`] implements SARSA — this enum lets
/// configurations name the choice).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[non_exhaustive]
pub enum Algorithm {
    /// Off-policy: `Q(s,a) ← Q + α·(r + γ·max_a' Q(s',a') − Q)`.
    QLearning,
    /// On-policy: `Q(s,a) ← Q + α·(r + γ·Q(s',a') − Q)` with the actually
    /// selected `a'`.
    Sarsa,
    /// Double Q-learning (two tables, decoupled selection/evaluation): an
    /// [`Agent`] built with [`AgentBuilder::double`].
    DoubleQLearning,
}

/// A tabular TD agent: one or two Q-tables, update rule, learning-rate
/// schedule and exploration policy.
///
/// The paper's per-core controllers are instances of this with the OD-RL
/// state encoding; the agent itself is domain-agnostic.
///
/// With one table the agent runs Q-learning or SARSA. With two (see
/// [`AgentBuilder::double`]) it runs double Q-learning (van Hasselt,
/// NIPS 2010): updates alternate deterministically between the tables, the
/// updated table picks the argmax action in `s'` and the *other* table
/// evaluates it — so a lucky noise spike in one table cannot inflate its
/// own bootstrap. Selection acts on the sum of the two tables. This helps
/// when sensor noise is high: plain Q-learning's max operator
/// systematically overestimates the value of rarely-tried levels.
///
/// ```
/// use odrl_rl::{Agent, Algorithm, Policy, Schedule};
/// use rand::rngs::StdRng;
/// use rand::SeedableRng;
///
/// let _which = Algorithm::QLearning; // named in configs; `update` implements it
/// let mut agent = Agent::builder(4, 2)
///     .gamma(0.9)
///     .alpha(Schedule::constant(0.2)?)
///     .policy(Policy::default_epsilon_greedy())
///     .build()?;
/// let mut rng = StdRng::seed_from_u64(0);
/// let a = agent.select(0, &mut rng)?;
/// agent.update(0, a, 1.0, 1)?;
///
/// let mut double = Agent::builder(4, 2).double().build()?;
/// let a = double.select(0, &mut rng)?;
/// double.update(0, a, 1.0, 1)?;
/// assert!(double.qb().is_some());
/// # Ok::<(), odrl_rl::RlError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Agent {
    q: QTableStorage,
    /// The second estimator of double Q-learning; `None` for one table.
    qb: Option<QTableStorage>,
    gamma: f64,
    alpha: Schedule,
    policy: Policy,
    step: u64,
    /// Double-Q rotation: two-table updates so far. The next
    /// [`Agent::learn`] writes `q` when even, `qb` when odd.
    updates: u64,
}

impl Agent {
    /// Starts building an agent over `states × actions`.
    pub fn builder(states: usize, actions: usize) -> AgentBuilder {
        AgentBuilder {
            states,
            actions,
            gamma: 0.9,
            alpha: Schedule::Constant { value: 0.1 },
            policy: Policy::default_epsilon_greedy(),
            optimistic: 0.0,
            layout: QTableLayout::Scalar,
            double: false,
        }
    }

    /// The agent's Q-table storage (the first table of a double-Q agent).
    pub fn q(&self) -> &QTableStorage {
        &self.q
    }

    /// The second table of a double-Q agent; `None` for one table.
    pub fn qb(&self) -> Option<&QTableStorage> {
        self.qb.as_ref()
    }

    /// `(states, actions)` of the agent's table(s).
    pub fn dims(&self) -> (usize, usize) {
        (self.q.states(), self.q.actions())
    }

    /// Number of decisions made so far.
    pub fn step_count(&self) -> u64 {
        self.step
    }

    /// The discount factor.
    pub fn gamma(&self) -> f64 {
        self.gamma
    }

    /// The table the next update writes and the table that evaluates its
    /// bootstrap: the one table twice, or the double-Q rotation's current
    /// table and the other one.
    fn rotation(&self) -> (&QTableStorage, &QTableStorage) {
        match &self.qb {
            None => (&self.q, &self.q),
            Some(qb) if self.updates.is_multiple_of(2) => (&self.q, qb),
            Some(qb) => (qb, &self.q),
        }
    }

    /// Selects an action in state `s` (advances the decision counter, which
    /// drives the exploration schedule). A double-Q agent selects on the
    /// summed tables.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn select<R: Rng + ?Sized>(&mut self, s: usize, rng: &mut R) -> Result<usize, RlError> {
        let a = self.select_full(s, rng)?;
        self.step += 1;
        Ok(a)
    }

    /// Policy selection over the whole row of `s` at the current step,
    /// without counting it.
    fn select_full<R: Rng + ?Sized>(&self, s: usize, rng: &mut R) -> Result<usize, RlError> {
        let Some(qb) = &self.qb else {
            return self.policy.select_storage(&self.q, s, self.step, rng);
        };
        if s >= self.q.states() {
            return Err(RlError::IndexOutOfRange {
                what: "state",
                requested: s,
                size: self.q.states(),
            });
        }
        // Sum the two rows on the fly instead of materialising the
        // combined row — keeps per-decision selection allocation-free.
        let qa = &self.q;
        Ok(self.policy.select_with(
            qa.actions(),
            |i| qa.value_at(s, i) + qb.value_at(s, i),
            self.step,
            rng,
        ))
    }

    /// The greedy action in state `s` (on the summed tables for double-Q)
    /// without exploring or counting.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn exploit(&self, s: usize) -> Result<usize, RlError> {
        match &self.qb {
            None => self.q.best_action(s),
            Some(qb) => scan_pair(&self.q, qb, s).map(|(best, _)| best),
        }
    }

    /// Applies one TD update for transition `(s, a, r, s')`, returning the
    /// TD error `target − Q(s, a)` (the learning-health signal). A double-Q
    /// agent bootstraps from the decoupled estimate and advances its table
    /// rotation.
    ///
    /// For [`Algorithm::Sarsa`] the bootstrap uses the greedy action of
    /// `s'` as a stand-in when the next action has not been chosen yet; use
    /// [`Agent::update_sarsa`] to supply the actual `a'`.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices or
    /// [`RlError::InvalidParameter`] for a non-finite reward.
    pub fn update(
        &mut self,
        s: usize,
        a: usize,
        reward: f64,
        s_next: usize,
    ) -> Result<f64, RlError> {
        let bootstrap = match self.qb {
            None => self.q.max_value(s_next)?,
            Some(_) => {
                let (upd, eval) = self.rotation();
                eval.get(s_next, upd.best_action(s_next)?)?
            }
        };
        self.learn(s, a, reward, bootstrap)
    }

    /// SARSA update with an explicit next action `a'`, returning the TD
    /// error. A double-Q agent evaluates `a'` in the table it is not
    /// updating.
    ///
    /// # Errors
    ///
    /// As [`Agent::update`].
    pub fn update_sarsa(
        &mut self,
        s: usize,
        a: usize,
        reward: f64,
        s_next: usize,
        a_next: usize,
    ) -> Result<f64, RlError> {
        let bootstrap = self.rotation().1.get(s_next, a_next)?;
        self.learn(s, a, reward, bootstrap)
    }

    /// The decide half of a decide/learn pair: selects an action in
    /// `s_next` and returns `(action, explored, bootstrap)`. `bootstrap`
    /// is what [`Agent::learn`] prices the pending transition with once its
    /// reward is known — `Q(s_next, a_next)` for [`Algorithm::Sarsa`], the
    /// row maximum for every other rule. A double-Q agent ignores
    /// `algorithm`: one fused pass over its two rows yields the summed
    /// argmax for selection and the decoupled double-Q bootstrap. `explored`
    /// is `true` when the action came from the ε branch.
    ///
    /// Two inputs let a controller batch work across agents without
    /// changing any result:
    ///
    /// * `scan` — the `(argmax, max)` a [`crate::kernel::scan_rows`] batch
    ///   produced for this agent's [`Agent::quant_row`]; `None` scans the
    ///   row here.
    /// * `draw` — the raw `next_u64` this agent's RNG would have produced
    ///   for the leading ε uniform, pre-drawn by the caller. Only pass it
    ///   when [`Agent::policy_pre_draws`] holds; `None` lets the policy
    ///   draw from `rng` itself.
    ///
    /// Per-agent draw order (ε uniform, then the action draw only when
    /// exploring) is the same either way, so seeded runs are bit-identical
    /// whether or not the caller batches. The double-Q rotation advances in
    /// [`Agent::learn`], so a decide without a learn leaves it untouched.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    #[inline]
    pub fn decide<R: Rng + ?Sized>(
        &mut self,
        algorithm: Algorithm,
        s_next: usize,
        scan: Option<(usize, f64)>,
        draw: Option<u64>,
        rng: &mut R,
        cache: &mut EpsCache,
    ) -> Result<(usize, bool, f64), RlError> {
        let (best, max_v) = match (&self.qb, scan) {
            (None, Some(pair)) => pair,
            (None, None) => self.q.best_action_and_max(s_next)?,
            (Some(_), _) => {
                let (upd, eval) = self.rotation();
                let (best, own) = scan_pair(upd, eval, s_next)?;
                (best, eval.get(s_next, own)?)
            }
        };
        let (a_next, explored) = match self.policy.select_from_argmax(
            self.q.actions(),
            best,
            self.step,
            draw,
            rng,
            cache,
        ) {
            Some(pair) => pair,
            None => (self.select_full(s_next, rng)?, false),
        };
        self.step += 1;
        let bootstrap = match algorithm {
            Algorithm::Sarsa if self.qb.is_none() => self.q.get(s_next, a_next)?,
            _ => max_v,
        };
        Ok((a_next, explored, bootstrap))
    }

    /// Whether this agent's policy consumes exactly one leading uniform
    /// draw per decision (see [`Policy::pre_draws_uniform`]) — the gate a
    /// controller must check before pre-drawing for [`Agent::decide`].
    #[must_use]
    pub fn policy_pre_draws(&self) -> bool {
        self.policy.pre_draws_uniform()
    }

    /// The block-scan hook: the banked row and scale this agent's next
    /// decision in `s_next` would scan, or `None` when the storage is not
    /// quantized or the agent has two tables (it scans their sum, which
    /// the block kernel does not model). A batch caller collects one pair
    /// per agent, scans them all in one [`crate::kernel::scan_rows`] call,
    /// and feeds each result back as [`Agent::decide`]'s `scan`.
    #[inline]
    #[must_use]
    pub fn quant_row(&self, s_next: usize) -> Option<(&[i16], f32)> {
        match self.qb {
            None => self.q.quant_row(s_next),
            Some(_) => None,
        }
    }

    /// The learn half of a decide/learn pair: applies the TD update for
    /// `(s, a, reward)` against a bootstrap previously returned by
    /// [`Agent::decide`]. Returns the TD error `target − Q(s, a)` against
    /// the updated table; a double-Q agent alternates which table that is.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for invalid indices or
    /// [`RlError::InvalidParameter`] for a non-finite reward or update.
    #[inline]
    pub fn learn(
        &mut self,
        s: usize,
        a: usize,
        reward: f64,
        bootstrap: f64,
    ) -> Result<f64, RlError> {
        if !reward.is_finite() {
            return Err(RlError::InvalidParameter {
                name: "reward",
                value: reward,
            });
        }
        // Per-(s,a) learning rate driven by visit count gives the
        // Robbins-Monro convergence conditions when using InverseTime.
        let target = reward + self.gamma * bootstrap;
        let table = match &mut self.qb {
            None => &mut self.q,
            Some(qb) => {
                let first = self.updates.is_multiple_of(2);
                self.updates += 1;
                if first {
                    &mut self.q
                } else {
                    qb
                }
            }
        };
        table.td_step(s, a, &self.alpha, target)
    }

    /// Min/max action value and visit count of state `s` — the
    /// diagnostics tap (for double-Q, the element-wise union over both
    /// tables).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn row_stats(&self, s: usize) -> Result<RowStats, RlError> {
        let a = self.q.row_stats(s)?;
        let Some(qb) = &self.qb else {
            return Ok(a);
        };
        let b = qb.row_stats(s)?;
        Ok(RowStats {
            q_min: a.q_min.min(b.q_min),
            q_max: a.q_max.max(b.q_max),
            visit_min: a.visit_min.min(b.visit_min),
            visit_max: a.visit_max.max(b.visit_max),
        })
    }

    /// Quantized-storage health (summed over both tables for double-Q);
    /// `None` when the storage is scalar. Full-table scan: callers gate it
    /// on a period.
    #[must_use]
    pub fn quant_health(&self) -> Option<QuantHealth> {
        let a = self.q.quant_health()?;
        let Some(qb) = &self.qb else {
            return Some(a);
        };
        let b = qb.quant_health()?;
        Some(QuantHealth {
            doublings: a.doublings + b.doublings,
            saturated: a.saturated + b.saturated,
            lanes: a.lanes + b.lanes,
        })
    }

    /// Hints the CPU to pull state `s`'s Q-row(s) and row scale(s) toward
    /// L1 (see [`QTableStorage::prefetch_select`]).
    #[inline]
    pub fn prefetch_select(&self, s: usize) {
        self.q.prefetch_select(s);
        if let Some(qb) = &self.qb {
            qb.prefetch_select(s);
        }
    }

    /// Hints the CPU at everything a TD update of `(s, a)` will touch, in
    /// either table (see [`QTableStorage::prefetch_update`]).
    #[inline]
    pub fn prefetch_update(&self, s: usize, a: usize) {
        self.q.prefetch_update(s, a);
        if let Some(qb) = &self.qb {
            qb.prefetch_update(s, a);
        }
    }

    /// Fraction of `(s, a)` pairs visited at least once (averaged over the
    /// two tables for double-Q).
    pub fn coverage(&self) -> f64 {
        match &self.qb {
            None => self.q.coverage(),
            Some(qb) => (self.q.coverage() + qb.coverage()) / 2.0,
        }
    }

    /// The action values of state `s` that selection acts on (summed over
    /// both tables for double-Q), materialised as `f64` (allocates —
    /// inspection path, not the decide loop).
    ///
    /// # Errors
    ///
    /// Returns [`RlError::IndexOutOfRange`] for an invalid state.
    pub fn row_values(&self, s: usize) -> Result<Vec<f64>, RlError> {
        let mut row = self.q.row_values(s)?;
        if let Some(qb) = &self.qb {
            for (a, v) in row.iter_mut().enumerate() {
                *v += qb.value_at(s, a);
            }
        }
        Ok(row)
    }

    /// The snapshot kind tag of this agent: [`KIND_AGENT`] for one table,
    /// [`KIND_DOUBLE_AGENT`] for two.
    #[must_use]
    pub fn kind(&self) -> u8 {
        if self.qb.is_some() {
            KIND_DOUBLE_AGENT
        } else {
            KIND_AGENT
        }
    }

    /// Serializes the agent to the versioned binary snapshot format (see
    /// [`crate::snapshot`] for the layout), under its [`Agent::kind`].
    pub fn snapshot_bytes(&self) -> Vec<u8> {
        let mut out = snapshot::header(self.kind());
        self.encode_block(&mut out);
        out
    }

    /// Decodes an agent from [`Agent::snapshot_bytes`] output of either
    /// kind. Round trips are bit-identical: every Q value, visit count,
    /// scale and counter is restored exactly.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] for a malformed, truncated or
    /// version-mismatched buffer.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> Result<Self, RlError> {
        let (kind, mut cur) = snapshot::open(bytes)?;
        let agent = Self::decode_block(&mut cur, u64::from(kind))?;
        cur.finish()?;
        Ok(agent)
    }

    /// Decodes one agent block of `kind` ([`KIND_AGENT`] or
    /// [`KIND_DOUBLE_AGENT`]; header already consumed) — the building block
    /// multi-agent controller snapshots frame per agent.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::Snapshot`] for another kind or a malformed or
    /// truncated block.
    pub fn decode_block(cur: &mut snapshot::SnapCursor<'_>, kind: u64) -> Result<Self, RlError> {
        let double = match u8::try_from(kind) {
            Ok(KIND_AGENT) => false,
            Ok(KIND_DOUBLE_AGENT) => true,
            _ => {
                return Err(RlError::Snapshot {
                    reason: "not an agent snapshot kind",
                })
            }
        };
        let (gamma, step, alpha, policy) = snapshot::read_agent_block(cur)?;
        let updates = if double { cur.take_u64()? } else { 0 };
        let q = snapshot::read_storage(cur)?;
        let qb = double.then(|| snapshot::read_storage(cur)).transpose()?;
        if qb
            .as_ref()
            .is_some_and(|qb| (qb.states(), qb.actions()) != (q.states(), q.actions()))
        {
            return Err(RlError::Snapshot {
                reason: "double-agent tables disagree on dimensions",
            });
        }
        Ok(Self {
            q,
            qb,
            gamma,
            alpha,
            policy,
            step,
            updates,
        })
    }

    /// Encodes this agent's block without the file header — the building
    /// block multi-agent controller snapshots frame per agent. A double-Q
    /// block carries the rotation counter and the second table too.
    pub fn encode_block(&self, out: &mut Vec<u8>) {
        snapshot::write_agent_block(out, self.gamma, self.step, &self.alpha, &self.policy);
        if self.qb.is_some() {
            snapshot::put_u64(out, self.updates);
        }
        snapshot::write_storage(out, &self.q);
        if let Some(qb) = &self.qb {
            snapshot::write_storage(out, qb);
        }
    }

    /// Writes the snapshot to `path` (see [`Agent::snapshot_bytes`]).
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be written.
    pub fn save<P: AsRef<Path>>(&self, path: P) -> Result<(), SnapshotError> {
        std::fs::write(path, self.snapshot_bytes()).map_err(SnapshotError::Io)
    }

    /// Loads an agent saved with [`Agent::save`].
    ///
    /// # Errors
    ///
    /// Returns [`SnapshotError::Io`] if the file cannot be read, or
    /// [`SnapshotError::Format`] if the bytes do not decode.
    pub fn load<P: AsRef<Path>>(path: P) -> Result<Self, SnapshotError> {
        let bytes = std::fs::read(path).map_err(SnapshotError::Io)?;
        Self::from_snapshot_bytes(&bytes).map_err(SnapshotError::Format)
    }
}

/// One fused pass over the `s` rows of two equally sized tables: the
/// argmax of their sum (what double-Q selection acts on) and the argmax of
/// `upd` alone (the action the double-Q bootstrap evaluates in the other
/// table). Both break ties toward the lowest index; the sum is commutative,
/// so the table order never changes the result.
fn scan_pair(
    upd: &QTableStorage,
    eval: &QTableStorage,
    s: usize,
) -> Result<(usize, usize), RlError> {
    if s >= upd.states() {
        return Err(RlError::IndexOutOfRange {
            what: "state",
            requested: s,
            size: upd.states(),
        });
    }
    let len = upd.actions();
    // Matching the layouts once gives each common pairing a loop free of
    // per-element dispatch.
    Ok(match (upd, eval) {
        (QTableStorage::Scalar(u), QTableStorage::Scalar(e)) => {
            fused_argmax(len, |i| u.value_at(s, i), |i| e.value_at(s, i))
        }
        (QTableStorage::Quantized(u), QTableStorage::Quantized(e)) => {
            fused_argmax(len, |i| u.value_at(s, i), |i| e.value_at(s, i))
        }
        _ => fused_argmax(len, |i| upd.value_at(s, i), |i| eval.value_at(s, i)),
    })
}

/// `(argmax of upd + eval, argmax of upd)` over actions `0..len`.
#[inline]
fn fused_argmax(
    len: usize,
    upd: impl Fn(usize) -> f64,
    eval: impl Fn(usize) -> f64,
) -> (usize, usize) {
    let (mut own, mut own_v) = (0, upd(0));
    let (mut best, mut best_v) = (0, own_v + eval(0));
    for i in 1..len {
        let u = upd(i);
        let v = u + eval(i);
        if v > best_v {
            (best, best_v) = (i, v);
        }
        if u > own_v {
            (own, own_v) = (i, u);
        }
    }
    (best, own)
}

/// Builder for [`Agent`].
#[derive(Debug, Clone)]
pub struct AgentBuilder {
    states: usize,
    actions: usize,
    gamma: f64,
    alpha: Schedule,
    policy: Policy,
    optimistic: f64,
    layout: QTableLayout,
    double: bool,
}

impl AgentBuilder {
    /// Sets the discount factor (must be in `[0, 1)`).
    pub fn gamma(mut self, gamma: f64) -> Self {
        self.gamma = gamma;
        self
    }

    /// Sets the learning-rate schedule (indexed by `(s, a)` visit count).
    pub fn alpha(mut self, alpha: Schedule) -> Self {
        self.alpha = alpha;
        self
    }

    /// Sets the exploration policy.
    pub fn policy(mut self, policy: Policy) -> Self {
        self.policy = policy;
        self
    }

    /// Initialises all action values (of every table) to `value`
    /// (optimistic exploration).
    pub fn optimistic(mut self, value: f64) -> Self {
        self.optimistic = value;
        self
    }

    /// Selects the Q-table storage layout (default [`QTableLayout::Scalar`]).
    pub fn layout(mut self, layout: QTableLayout) -> Self {
        self.layout = layout;
        self
    }

    /// Adds a second table: the agent runs double Q-learning (see
    /// [`Agent`]).
    pub fn double(mut self) -> Self {
        self.double = true;
        self
    }

    /// Builds the agent.
    ///
    /// # Errors
    ///
    /// Returns [`RlError::EmptySpace`] for empty spaces or
    /// [`RlError::InvalidParameter`] for `gamma` outside `[0, 1)`.
    pub fn build(self) -> Result<Agent, RlError> {
        if !(self.gamma.is_finite() && (0.0..1.0).contains(&self.gamma)) {
            return Err(RlError::InvalidParameter {
                name: "gamma",
                value: self.gamma,
            });
        }
        let table = || {
            if self.optimistic != 0.0 {
                QTableStorage::optimistic(self.layout, self.states, self.actions, self.optimistic)
            } else {
                QTableStorage::new(self.layout, self.states, self.actions)
            }
        };
        Ok(Agent {
            q: table()?,
            qb: self.double.then(table).transpose()?,
            gamma: self.gamma,
            alpha: self.alpha,
            policy: self.policy,
            step: 0,
            updates: 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// A 2-state chain: action 1 in state 0 yields +1 and stays; action 0
    /// yields 0. The agent must learn Q(0,1) > Q(0,0).
    #[test]
    fn q_learning_learns_a_trivial_preference() {
        let mut agent = Agent::builder(2, 2)
            .gamma(0.5)
            .alpha(Schedule::constant(0.3).unwrap())
            .policy(Policy::EpsilonGreedy {
                epsilon: Schedule::constant(0.3).unwrap(),
            })
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..500 {
            let a = agent.select(0, &mut rng).unwrap();
            let r = if a == 1 { 1.0 } else { 0.0 };
            agent.update(0, a, r, 0).unwrap();
        }
        assert_eq!(agent.exploit(0).unwrap(), 1);
        assert!(agent.q().get(0, 1).unwrap() > agent.q().get(0, 0).unwrap());
    }

    /// Deterministic chain with known optimal values:
    /// state 0 --a1/r=0--> state 1 --a1/r=1--> state 1 (absorbing, r=1).
    /// Q*(1,1) = 1/(1-γ)·... with γ=0.5: Q*(1,1)=2, Q*(0,1)=0+0.5·2=1.
    #[test]
    fn q_learning_converges_to_known_values() {
        let mut agent = Agent::builder(2, 2)
            .gamma(0.5)
            .alpha(Schedule::inverse_time(1.0, 0.0).unwrap())
            .policy(Policy::EpsilonGreedy {
                epsilon: Schedule::constant(0.5).unwrap(),
            })
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let mut s = 0;
        for _ in 0..20_000 {
            let a = agent.select(s, &mut rng).unwrap();
            let (r, s2) = match (s, a) {
                (0, 1) => (0.0, 1),
                (0, 0) => (0.0, 0),
                (1, 1) => (1.0, 1),
                (1, 0) => (0.0, 0),
                _ => unreachable!(),
            };
            agent.update(s, a, r, s2).unwrap();
            s = s2;
        }
        let q11 = agent.q().get(1, 1).unwrap();
        let q01 = agent.q().get(0, 1).unwrap();
        assert!((q11 - 2.0).abs() < 0.1, "Q(1,1) = {q11}");
        assert!((q01 - 1.0).abs() < 0.1, "Q(0,1) = {q01}");
    }

    #[test]
    fn sarsa_update_uses_supplied_action() {
        let mut agent = Agent::builder(2, 2)
            .gamma(0.9)
            .alpha(Schedule::constant(1.0).unwrap())
            .build()
            .unwrap();
        // Set Q(1,0)=0, Q(1,1)=10. SARSA with a'=0 must bootstrap from 0.
        agent.q.set(1, 1, 10.0).unwrap();
        agent.update_sarsa(0, 0, 1.0, 1, 0).unwrap();
        assert!((agent.q().get(0, 0).unwrap() - 1.0).abs() < 1e-12);
        // Q-learning-style update would instead have used max = 10.
        agent.update(0, 1, 1.0, 1).unwrap();
        assert!((agent.q().get(0, 1).unwrap() - 10.0).abs() < 1e-12);
    }

    #[test]
    fn rejects_bad_gamma_and_reward() {
        assert!(Agent::builder(2, 2).gamma(1.0).build().is_err());
        assert!(Agent::builder(2, 2).gamma(-0.1).build().is_err());
        let mut agent = Agent::builder(2, 2).build().unwrap();
        assert!(agent.update(0, 0, f64::NAN, 1).is_err());
    }

    #[test]
    fn optimistic_initialisation_applies() {
        let agent = Agent::builder(2, 2).optimistic(5.0).build().unwrap();
        assert_eq!(agent.q().get(0, 0).unwrap(), 5.0);
    }

    #[test]
    fn step_counter_advances_on_select_only() {
        let mut agent = Agent::builder(2, 2).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(agent.step_count(), 0);
        agent.select(0, &mut rng).unwrap();
        agent.update(0, 0, 0.0, 0).unwrap();
        assert_eq!(agent.step_count(), 1);
    }

    #[test]
    fn decide_and_learn_error_paths() {
        let mut agent = Agent::builder(2, 2).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut cache = EpsCache::new();
        // An invalid state fails before the decision counter advances.
        assert!(agent
            .decide(Algorithm::QLearning, 9, None, None, &mut rng, &mut cache)
            .is_err());
        assert_eq!(agent.step_count(), 0);
        let (_, _, boot) = agent
            .decide(Algorithm::Sarsa, 0, None, None, &mut rng, &mut cache)
            .unwrap();
        assert_eq!(agent.step_count(), 1);
        // Non-finite rewards and out-of-range pairs are rejected untouched.
        let before = agent.q().clone();
        for r in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert!(agent.learn(0, 0, r, boot).is_err());
        }
        assert!(agent.learn(0, 5, 0.0, boot).is_err());
        assert_eq!(agent.q(), &before);
    }

    #[test]
    fn update_errors_on_bad_indices() {
        let mut agent = Agent::builder(2, 2).build().unwrap();
        assert!(agent.update(5, 0, 0.0, 0).is_err());
        assert!(agent.update(0, 5, 0.0, 0).is_err());
        assert!(agent.update(0, 0, 0.0, 5).is_err());
    }

    fn double(states: usize, actions: usize) -> AgentBuilder {
        Agent::builder(states, actions).double()
    }

    #[test]
    fn double_q_converges_on_deterministic_chain() {
        // Same fixed point as plain Q-learning: Q*(0,0) = 1/(1-gamma).
        let mut agent = double(1, 1)
            .gamma(0.5)
            .alpha(Schedule::constant(0.2).unwrap())
            .policy(Policy::Greedy)
            .build()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for _ in 0..3000 {
            let a = agent.select(0, &mut rng).unwrap();
            agent.update(0, a, 1.0, 0).unwrap();
        }
        let q = agent.row_values(0).unwrap()[0] / 2.0;
        assert!((q - 2.0).abs() < 0.05, "combined mean {q}");
    }

    /// Sutton & Barto's maximization-bias MDP: from A, `right` terminates
    /// with reward 0; `left` goes to B, whose many actions pay
    /// N(-0.1, 1) then terminate. The optimal policy goes right; plain
    /// Q-learning is fooled by the max over B's noisy values far longer
    /// than double Q-learning.
    #[test]
    fn double_q_reduces_maximization_bias() {
        let episodes = 300;
        let b_actions = 8;
        // States: 0 = A, 1 = B, 2 = terminal. A has 2 actions, B has 8.
        let left_fraction = |two_tables: bool, seed: u64| -> f64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut builder = Agent::builder(3, b_actions)
                .gamma(1.0 - 1e-9)
                .alpha(Schedule::constant(0.1).unwrap())
                .policy(Policy::EpsilonGreedy {
                    epsilon: Schedule::constant(0.1).unwrap(),
                });
            if two_tables {
                builder = builder.double();
            }
            let mut agent = builder.build().unwrap();
            let mut lefts = 0;
            for _ in 0..episodes {
                // In A, action 0 = left, action 1 = right (restrict to 2).
                let a = loop {
                    let cand = agent.select(0, &mut rng).unwrap();
                    if cand < 2 {
                        break cand;
                    }
                };
                if a == 0 {
                    lefts += 1;
                    // Go to B, take a (random-ish greedy) action, get noisy
                    // reward, terminate.
                    let ab = agent.select(1, &mut rng).unwrap();
                    let u1: f64 = rng.gen::<f64>().max(1e-12);
                    let u2: f64 = rng.gen();
                    let noise = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
                    agent.update(0, 0, 0.0, 1).unwrap();
                    agent.update(1, ab, -0.1 + noise, 2).unwrap();
                } else {
                    agent.update(0, 1, 0.0, 2).unwrap();
                }
            }
            lefts as f64 / episodes as f64
        };

        let mut single_total = 0.0;
        let mut double_total = 0.0;
        for seed in 0..8 {
            single_total += left_fraction(false, seed);
            double_total += left_fraction(true, seed + 100);
        }
        assert!(
            double_total < single_total,
            "double-Q should take the biased branch less: single {single_total} double {double_total}"
        );
    }

    #[test]
    fn double_q_alternates_tables() {
        let mut agent = double(1, 1)
            .gamma(0.0)
            .alpha(Schedule::constant(1.0).unwrap())
            .build()
            .unwrap();
        agent.update(0, 0, 1.0, 0).unwrap();
        agent.update(0, 0, 2.0, 0).unwrap();
        assert_eq!(agent.q().get(0, 0).unwrap(), 1.0);
        assert_eq!(agent.qb().unwrap().get(0, 0).unwrap(), 2.0);
    }

    #[test]
    fn double_q_rejects_bad_parameters() {
        assert!(double(0, 2).build().is_err());
        assert!(double(2, 2).gamma(1.0).build().is_err());
        let mut agent = double(2, 2).build().unwrap();
        assert!(agent.update(0, 0, f64::NAN, 1).is_err());
        assert!(agent.update(5, 0, 0.0, 1).is_err());
    }

    #[test]
    fn double_q_decide_and_learn_error_paths() {
        let mut agent = double(2, 2).build().unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        let mut cache = EpsCache::new();
        let alg = Algorithm::DoubleQLearning;
        assert!(agent
            .decide(alg, 9, None, None, &mut rng, &mut cache)
            .is_err());
        let (_, _, boot) = agent
            .decide(alg, 0, None, None, &mut rng, &mut cache)
            .unwrap();
        assert!(agent.learn(0, 0, f64::INFINITY, boot).is_err());
        assert!(agent.learn(0, 0, 1.0, boot).is_ok());
        // Two tables sum in selection, so the block-scan hook opts out.
        assert!(agent.quant_row(0).is_none());
    }

    #[test]
    fn double_q_coverage_optimism_and_diagnostics() {
        let agent = double(2, 2).optimistic(3.0).build().unwrap();
        assert_eq!(agent.q().get(0, 0).unwrap(), 3.0);
        assert_eq!(agent.coverage(), 0.0);
        assert_eq!(agent.row_values(0).unwrap(), vec![6.0, 6.0]);
        assert_eq!(agent.dims(), (2, 2));
        assert_eq!(agent.kind(), KIND_DOUBLE_AGENT);
        assert!(agent.quant_health().is_none());

        let mut agent = double(2, 3)
            .layout(QTableLayout::Quantized)
            .alpha(Schedule::constant(1.0).unwrap())
            .gamma(0.0)
            .build()
            .unwrap();
        agent.update(0, 2, 20.0, 0).unwrap(); // first table, forces doublings
        agent.update(0, 0, -1.0, 0).unwrap(); // second table
        let st = agent.row_stats(0).unwrap();
        assert!((st.q_min - -1.0).abs() < 1e-3 && (st.q_max - 20.0).abs() < 1e-2);
        assert_eq!((st.visit_min, st.visit_max), (0, 1));
        let h = agent.quant_health().unwrap();
        assert_eq!(h.lanes, 12);
        assert_eq!(h.doublings, 4);
        agent.prefetch_select(0);
        agent.prefetch_update(0, 1);
    }

    #[test]
    fn snapshot_kind_follows_the_table_count() {
        for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
            for two_tables in [false, true] {
                let mut builder = Agent::builder(3, 4).layout(layout);
                if two_tables {
                    builder = builder.double();
                }
                let mut agent = builder.build().unwrap();
                for t in 0..20 {
                    agent
                        .update(t % 3, t % 4, t as f64 * 0.1, (t + 1) % 3)
                        .unwrap();
                }
                let bytes = agent.snapshot_bytes();
                let kind = if two_tables {
                    KIND_DOUBLE_AGENT
                } else {
                    KIND_AGENT
                };
                assert_eq!(bytes[12], kind);
                assert_eq!(Agent::from_snapshot_bytes(&bytes).unwrap(), agent);
            }
        }
    }
}
