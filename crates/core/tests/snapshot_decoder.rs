//! The binary policy decoders never panic and never allocate from a size
//! the buffer merely claims: `PolicySnapshot::from_bytes` and
//! `Agent::from_snapshot_bytes` return `Err` (or a valid value) for any
//! input, including truncations, random byte flips and forged lengths.

use odrl_core::PolicySnapshot;
use odrl_rl::{
    snapshot as rl_snapshot, Agent, Policy, QTableLayout, Schedule, KIND_AGENT, KIND_POLICY_SET,
};

const STATES: usize = 3;
const ACTIONS: usize = 5;

/// A small seeded generator (xorshift64*), so the mutation stream is
/// reproducible without extra dependencies.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// An agent with non-trivial tables: updated along a fixed trajectory so
/// values, visits and (quantized) scales all leave their defaults.
fn trained(layout: QTableLayout, double: bool, policy: Policy) -> Agent {
    let mut builder = Agent::builder(STATES, ACTIONS)
        .gamma(0.8)
        .alpha(Schedule::constant(0.5).unwrap())
        .policy(policy)
        .layout(layout)
        .optimistic(1.5);
    if double {
        builder = builder.double();
    }
    let mut agent = builder.build().unwrap();
    for t in 0..40 {
        let reward = (t as f64 * 0.7).sin() * 30.0;
        agent
            .update(t % STATES, t % ACTIONS, reward, (t + 1) % STATES)
            .unwrap();
    }
    agent
}

/// A policy-set snapshot framing `agents`, as `PolicySnapshot::to_bytes`
/// lays it out.
fn policy_set(agents: &[Agent]) -> Vec<u8> {
    let mut bytes = rl_snapshot::header(KIND_POLICY_SET);
    rl_snapshot::put_u64(&mut bytes, STATES as u64);
    rl_snapshot::put_u64(&mut bytes, ACTIONS as u64);
    rl_snapshot::put_u64(&mut bytes, agents.len() as u64);
    for agent in agents {
        rl_snapshot::put_u64(&mut bytes, u64::from(agent.kind()));
        agent.encode_block(&mut bytes);
    }
    bytes
}

/// Every valid input the mutation test starts from: single and double
/// agents in both layouts, alone and framed as policy sets (uniform and
/// mixed), under policies with and without schedule payloads.
fn valid_inputs() -> Vec<Vec<u8>> {
    let mut inputs = Vec::new();
    let mut all = Vec::new();
    for layout in [QTableLayout::Scalar, QTableLayout::Quantized] {
        for double in [false, true] {
            let a = trained(layout, double, Policy::default_epsilon_greedy());
            let b = trained(layout, double, Policy::Ucb1 { c: 0.5 });
            inputs.push(a.snapshot_bytes());
            inputs.push(policy_set(&[a.clone(), b.clone()]));
            all.push(a);
            all.push(b);
        }
    }
    inputs.push(policy_set(&all));
    inputs
}

/// Runs both decoders; a panic fails the test, any `Result` passes.
fn decode_both(bytes: &[u8]) -> (bool, bool) {
    let set = PolicySnapshot::from_bytes(bytes).is_ok();
    let agent = Agent::from_snapshot_bytes(bytes).is_ok();
    (set, agent)
}

#[test]
fn valid_inputs_decode_and_round_trip() {
    for bytes in valid_inputs() {
        let (set, agent) = decode_both(&bytes);
        assert!(set != agent, "exactly one decoder accepts each input");
        if set {
            assert_eq!(
                PolicySnapshot::from_bytes(&bytes).unwrap().to_bytes(),
                bytes
            );
        } else {
            assert_eq!(
                Agent::from_snapshot_bytes(&bytes).unwrap().snapshot_bytes(),
                bytes
            );
        }
    }
}

#[test]
fn oversized_storage_claim_is_rejected_without_allocating() {
    // A 1×1 greedy agent is a 120-byte snapshot. Claiming 2^20 × 2^20
    // cells in its storage block once made the decoder reserve 8 TiB and
    // abort the process; the claim must fail against the unread length.
    let agent = Agent::builder(1, 1).policy(Policy::Greedy).build().unwrap();
    let mut bytes = agent.snapshot_bytes();
    assert_eq!((bytes.len(), bytes[12]), (120, KIND_AGENT));
    let dims = bytes.len() - 32; // storage: tag · states · actions · value · visit
    for field in [dims, dims + 8] {
        bytes[field..field + 8].copy_from_slice(&(1u64 << 20).to_le_bytes());
    }
    assert!(Agent::from_snapshot_bytes(&bytes).is_err());
    // The same forged block inside a one-agent 1×1 policy set.
    let mut set = rl_snapshot::header(KIND_POLICY_SET);
    for word in [1, 1, 1, u64::from(KIND_AGENT)] {
        rl_snapshot::put_u64(&mut set, word);
    }
    set.extend_from_slice(&bytes[16..]);
    assert!(PolicySnapshot::from_bytes(&set).is_err());
}

#[test]
fn decoders_survive_seeded_mutation() {
    let mut rng = XorShift(0x0D51_5EED_F00D_CAFE);
    for good in valid_inputs() {
        // Every strict prefix is a truncation and must be rejected.
        for cut in 0..good.len() {
            assert_eq!(
                decode_both(&good[..cut]),
                (false, false),
                "prefix of {cut} bytes decoded"
            );
        }
        // Random single- and multi-byte flips.
        for _ in 0..2000 {
            let mut bad = good.clone();
            for _ in 0..=rng.below(3) {
                let at = rng.below(bad.len());
                bad[at] ^= 1 << rng.below(8);
            }
            decode_both(&bad);
        }
        // Forged lengths, counts, tags and floats at every aligned word.
        for at in (0..good.len() - 7).step_by(8) {
            for word in [u64::MAX, 1 << 40] {
                let mut bad = good.clone();
                bad[at..at + 8].copy_from_slice(&word.to_le_bytes());
                decode_both(&bad);
            }
        }
    }
}
