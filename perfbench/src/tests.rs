//! The benchmark's own checks: digests repeat per seed (traced or not)
//! and differ across seeds, on shrunken versions of every workload; and
//! `BENCHMARK.json` lists exactly the metrics the program emits.

use crate::measure::{GATED, LAYERS};
use crate::spans::SpanLog;
use crate::{chip, rack, sweep};
use std::time::Instant;

const SECONDS: f64 = 0.01;

fn digests(run: impl Fn(u64, Option<&mut SpanLog>) -> crate::measure::Outcome) {
    let plain = run(1, None);
    let mut log = SpanLog::new("test", Instant::now());
    let traced = run(1, Some(&mut log));
    let other = run(2, None);
    assert!(plain.attempted > 0);
    assert_eq!(plain.failed, 0, "outputs pass every check");
    assert_eq!(traced.failed, 0, "traced outputs pass every check");
    assert!(log.len() > 0, "the traced run records spans");
    assert_eq!(
        plain.digest, traced.digest,
        "tracing must not change simulated outputs"
    );
    assert_ne!(
        plain.digest, other.digest,
        "another seed gives other outputs"
    );
}

#[test]
fn chip_digest_is_per_seed() {
    let p = chip::Params {
        cores: 32,
        setup_reps: 1,
        warmup: 5,
        sim_epochs: 40,
        samples_per_s: 1000,
    };
    digests(|seed, log| chip::run(&p, seed, SECONDS, log));
}

#[test]
fn rack_digest_is_per_seed() {
    let p = rack::Params {
        chips: 4,
        cores: 16,
        setup_reps: 1,
        warmup: 5,
        sim_epochs: 60,
        loss_start: 20,
        loss_len: 20,
        arbiter_period: 10,
        probe_every: 10,
        probe_block: 15,
        samples_per_s: 1000,
    };
    digests(|seed, log| rack::run(&p, seed, SECONDS, log));
}

#[test]
fn sweep_digest_is_per_seed() {
    let p = sweep::Params {
        cores: 8,
        benches: 2,
        cell_epochs: 10,
        setup_reps: 1,
    };
    digests(|seed, log| sweep::run(&p, seed, SECONDS, log));
}

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn listed(section: &str) -> Vec<(String, String)> {
    let text = include_str!("../../BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("quoted value")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

#[test]
fn benchmark_json_matches_emitted_metrics() {
    let own = |list: &[(&str, &str)]| {
        list.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(listed("end_to_end"), own(GATED));
    assert_eq!(listed("per_layer"), own(LAYERS));
}
