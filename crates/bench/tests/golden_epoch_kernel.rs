//! Golden regression for the struct-of-arrays epoch kernel.
//!
//! The constants below were captured from the pre-SoA (per-core struct)
//! implementation of the fixed-seed 256-core closed loop: run summary,
//! telemetry totals and the exported Q-table snapshot, hashed over their
//! canonical encodings (JSON for the summary, the versioned binary
//! snapshot for the policy). The SoA kernel — `observation_into` +
//! `step_in_place` with reused scratch — must reproduce every one of them
//! bit for bit, both on the serial path and sharded four ways.
//!
//! If an intentional numerical change lands (new model term, different
//! reduction order), re-capture the constants and say so in the commit.

use odrl_controllers::PowerController;
use odrl_core::{OdRlConfig, OdRlController, PolicySnapshot};
use odrl_faults::FaultPlan;
use odrl_manycore::{Parallelism, System, SystemConfig};
use odrl_metrics::RunRecorder;
use odrl_power::{LevelId, Watts};
use odrl_rl::{
    snapshot as rl_snapshot, Agent, Algorithm, Policy, QTableLayout, Schedule, KIND_POLICY_SET,
};
use odrl_workload::MixPolicy;

/// Scenario: 256 cores, round-robin mix, seed 42, budget 0.6 × max power.
const CORES: usize = 256;
const SEED: u64 = 42;
const BUDGET_FRAC: f64 = 0.6;
const EPOCHS: u64 = 120;

/// Re-captured when the power sensors switched to spare-slot Box-Muller
/// (each `(ln, sqrt, sin_cos)` evaluation now yields two epochs of noise),
/// which moved every downstream trajectory. Serial, four-shard and
/// empty-fault-plan runs still agree on every constant bit for bit.
const GOLDEN_INSTR_BITS: u64 = 0x4228_afd9_3345_0c22;
const GOLDEN_ENERGY_BITS: u64 = 0x4049_0737_2bf4_f1ec;
const GOLDEN_MEAN_POWER_BITS: u64 = 0x407a_122e_cdc9_d155;
const GOLDEN_OVERSHOOT_BITS: u64 = 0x0000_0000_0000_0000;
const GOLDEN_SUMMARY_HASH: u64 = 0xfe16_4aa4_946d_c5c2;
/// The exported Q-tables hashed over their versioned binary snapshot
/// (`PolicySnapshot::to_bytes`, the only policy encoding): every Q-value,
/// visit count and row scale as raw bits.
const GOLDEN_POLICY_BYTES_HASH: u64 = 0x921a_a096_0c22_473e;

/// FNV-1a over a canonical encoding: cheap, stable, and sensitive to any
/// bit difference in any serialized field.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

fn check(par: Parallelism, empty_fault_plan: bool) {
    let config = SystemConfig::builder()
        .cores(CORES)
        .mix(MixPolicy::RoundRobin)
        .seed(SEED)
        .parallelism(par)
        .build()
        .expect("valid config");
    let budget = Watts::new(BUDGET_FRAC * config.max_power().value());
    let mut system = System::new(config).expect("valid system");
    if empty_fault_plan {
        // A compiled-but-inert fault engine must leave every golden
        // constant untouched: injection only ever transforms pass outputs,
        // so a plan with no events is invisible to the kernel.
        system
            .attach_faults(&FaultPlan::new())
            .expect("empty plan compiles");
    }
    let odrl = OdRlConfig {
        parallelism: par,
        ..OdRlConfig::default()
    };
    let mut ctrl = OdRlController::new(odrl, &system.spec(), budget).expect("valid config");
    let mut recorder = RunRecorder::new("golden");
    let mut actions = vec![LevelId(0); system.num_cores()];
    let mut obs = system.observation(budget);
    for _ in 0..EPOCHS {
        ctrl.decide_into(&obs, &mut actions);
        let report = system.step_in_place(&actions).expect("valid actions");
        recorder.record(
            report.total_power,
            budget,
            report.total_instructions(),
            report.dt,
        );
        system.observation_into(budget, &mut obs);
    }
    let summary = recorder.finish();
    let policy = ctrl.export_policy();

    assert_eq!(system.telemetry().epochs(), EPOCHS, "{par:?}");
    assert_eq!(
        system.telemetry().total_instructions().to_bits(),
        GOLDEN_INSTR_BITS,
        "{par:?}: telemetry total instructions drifted"
    );
    assert_eq!(
        system.telemetry().total_energy().value().to_bits(),
        GOLDEN_ENERGY_BITS,
        "{par:?}: telemetry total energy drifted"
    );
    assert_eq!(
        summary.total_instructions.to_bits(),
        GOLDEN_INSTR_BITS,
        "{par:?}: summary total instructions drifted"
    );
    assert_eq!(
        summary.mean_power.value().to_bits(),
        GOLDEN_MEAN_POWER_BITS,
        "{par:?}: summary mean power drifted"
    );
    assert_eq!(
        summary.overshoot_energy.value().to_bits(),
        GOLDEN_OVERSHOOT_BITS,
        "{par:?}: summary overshoot energy drifted"
    );
    let summary_json = serde_json::to_string(&summary).expect("serializable summary");
    assert_eq!(
        fnv1a(summary_json.as_bytes()),
        GOLDEN_SUMMARY_HASH,
        "{par:?}: full run summary drifted"
    );
    let policy_bytes_hash = fnv1a(&policy.to_bytes());
    assert_eq!(
        policy_bytes_hash, GOLDEN_POLICY_BYTES_HASH,
        "{par:?}: binary Q-table snapshot drifted ({policy_bytes_hash:#018x})"
    );
}

#[test]
fn serial_closed_loop_matches_pre_soa_golden() {
    check(Parallelism::Serial, false);
}

#[test]
fn four_shard_closed_loop_matches_pre_soa_golden() {
    check(Parallelism::Threads(4), false);
}

#[test]
fn zero_fault_plan_preserves_golden_hashes() {
    check(Parallelism::Serial, true);
    check(Parallelism::Threads(4), true);
}

// ---------------------------------------------------------------------------
// Per-algorithm / per-layout goldens for the RL block pipeline.
//
// Every TD rule × Q-table layout pairing, serial and sharded four ways, plus
// chips that imported policies which draw no leading ε uniform (softmax,
// UCB1, greedy) and so select per core inside the block loop. Each case
// hashes the run summary, the exported Q-tables and the telemetry totals
// into one constant. The serial and four-shard runs of a case share it.

/// Scenario for the per-variant goldens: 64 cores, round-robin mix, seed
/// 7, budget 0.55 × max power, 100 epochs.
const VARIANT_CORES: usize = 64;
const VARIANT_SEED: u64 = 7;
const VARIANT_EPOCHS: u64 = 100;

/// How the per-core agents of a variant run are seeded.
#[derive(Clone, Copy, Debug)]
enum Agents {
    /// Built by the controller from [`OdRlConfig`] (ε-greedy).
    Config(Algorithm, QTableLayout),
    /// Replaced right after construction by an imported snapshot whose
    /// agents all carry `policy`.
    Imported(Algorithm, QTableLayout, Policy),
}

/// A policy snapshot of `cores` fresh agents carrying `policy`, built with
/// the same hyper-parameters the controller would use.
fn snapshot_with(
    odrl: &OdRlConfig,
    states: usize,
    actions: usize,
    cores: usize,
    algorithm: Algorithm,
    layout: QTableLayout,
    policy: Policy,
) -> PolicySnapshot {
    let optimistic = 1.0 / (1.0 - odrl.gamma);
    let mut bytes = rl_snapshot::header(KIND_POLICY_SET);
    rl_snapshot::put_u64(&mut bytes, states as u64);
    rl_snapshot::put_u64(&mut bytes, actions as u64);
    rl_snapshot::put_u64(&mut bytes, cores as u64);
    let mut builder = Agent::builder(states, actions)
        .gamma(odrl.gamma)
        .alpha(odrl.alpha)
        .policy(policy)
        .layout(layout)
        .optimistic(optimistic);
    if algorithm == Algorithm::DoubleQLearning {
        builder = builder.double().optimistic(optimistic / 2.0);
    }
    let agent = builder.build().expect("valid agent");
    for _ in 0..cores {
        rl_snapshot::put_u64(&mut bytes, u64::from(agent.kind()));
        agent.encode_block(&mut bytes);
    }
    PolicySnapshot::from_bytes(&bytes).expect("well-formed snapshot")
}

/// Runs one variant and folds summary, binary policy snapshot and telemetry
/// into one hash.
fn variant_hash(agents: Agents, par: Parallelism) -> u64 {
    let config = SystemConfig::builder()
        .cores(VARIANT_CORES)
        .mix(MixPolicy::RoundRobin)
        .seed(VARIANT_SEED)
        .parallelism(par)
        .build()
        .expect("valid config");
    let budget = Watts::new(0.55 * config.max_power().value());
    let mut system = System::new(config).expect("valid system");
    let (algorithm, layout) = match agents {
        Agents::Config(alg, layout) | Agents::Imported(alg, layout, _) => (alg, layout),
    };
    let odrl = OdRlConfig {
        algorithm,
        layout,
        parallelism: par,
        seed: VARIANT_SEED,
        ..OdRlConfig::default()
    };
    let mut ctrl = OdRlController::new(odrl.clone(), &system.spec(), budget).expect("valid config");
    if let Agents::Imported(_, _, policy) = agents {
        let fresh = ctrl.export_policy();
        let snap = snapshot_with(
            &odrl,
            fresh.states(),
            fresh.actions(),
            fresh.num_agents(),
            algorithm,
            layout,
            policy,
        );
        ctrl.import_policy(snap).expect("matching snapshot");
    }
    let mut recorder = RunRecorder::new("golden-variant");
    let mut actions = vec![LevelId(0); system.num_cores()];
    let mut obs = system.observation(budget);
    for _ in 0..VARIANT_EPOCHS {
        ctrl.decide_into(&obs, &mut actions);
        let report = system.step_in_place(&actions).expect("valid actions");
        recorder.record(
            report.total_power,
            budget,
            report.total_instructions(),
            report.dt,
        );
        system.observation_into(budget, &mut obs);
    }
    let mut canon = serde_json::to_string(&recorder.finish())
        .expect("serializable summary")
        .into_bytes();
    canon.extend_from_slice(&ctrl.export_policy().to_bytes());
    canon.extend_from_slice(
        format!(
            "{:016x}{:016x}",
            system.telemetry().total_instructions().to_bits(),
            system.telemetry().total_energy().value().to_bits()
        )
        .as_bytes(),
    );
    fnv1a(&canon)
}

fn check_variant(agents: Agents, golden: u64) {
    for par in [Parallelism::Serial, Parallelism::Threads(4)] {
        let got = variant_hash(agents, par);
        assert_eq!(
            got, golden,
            "{agents:?} {par:?}: hash {got:#018x} drifted from the golden"
        );
    }
}

#[test]
fn q_learning_scalar_matches_golden() {
    check_variant(
        Agents::Config(Algorithm::QLearning, QTableLayout::Scalar),
        0xb4e7_1e84_66f9_4eee,
    );
}

#[test]
fn q_learning_quantized_matches_golden() {
    check_variant(
        Agents::Config(Algorithm::QLearning, QTableLayout::Quantized),
        0x10c3_0ebe_05e9_893c,
    );
}

#[test]
fn sarsa_scalar_matches_golden() {
    check_variant(
        Agents::Config(Algorithm::Sarsa, QTableLayout::Scalar),
        0x081c_b227_6abb_e141,
    );
}

#[test]
fn sarsa_quantized_matches_golden() {
    check_variant(
        Agents::Config(Algorithm::Sarsa, QTableLayout::Quantized),
        0x42aa_0467_3852_6fb4,
    );
}

#[test]
fn double_q_scalar_matches_golden() {
    check_variant(
        Agents::Config(Algorithm::DoubleQLearning, QTableLayout::Scalar),
        0x1a01_0332_d179_f1d9,
    );
}

#[test]
fn double_q_quantized_matches_golden() {
    check_variant(
        Agents::Config(Algorithm::DoubleQLearning, QTableLayout::Quantized),
        0x2f33_3e39_4c7e_c431,
    );
}

#[test]
fn imported_softmax_policy_matches_golden() {
    let softmax = Policy::Softmax {
        temperature: Schedule::constant(0.5).expect("valid schedule"),
    };
    check_variant(
        Agents::Imported(Algorithm::QLearning, QTableLayout::Quantized, softmax),
        0xa94d_cf57_9f76_752c,
    );
}

#[test]
fn imported_ucb1_policy_matches_golden() {
    check_variant(
        Agents::Imported(
            Algorithm::Sarsa,
            QTableLayout::Scalar,
            Policy::Ucb1 { c: 0.5 },
        ),
        0xa4d9_bb40_3d43_09cb,
    );
}

#[test]
fn imported_greedy_policy_matches_golden() {
    check_variant(
        Agents::Imported(
            Algorithm::QLearning,
            QTableLayout::Quantized,
            Policy::Greedy,
        ),
        0x09ba_b9eb_e9dc_3137,
    );
}

#[test]
fn imported_double_q_softmax_policy_matches_golden() {
    let softmax = Policy::Softmax {
        temperature: Schedule::constant(0.5).expect("valid schedule"),
    };
    check_variant(
        Agents::Imported(Algorithm::DoubleQLearning, QTableLayout::Quantized, softmax),
        0xb928_1aef_5442_339c,
    );
}
