//! Stamps the compiler version and feature set into the binary, so every
//! result names the toolchain and build it came from.

use std::process::Command;

fn main() {
    let rustc = std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into());
    let version = Command::new(&rustc)
        .arg("--version")
        .output()
        .ok()
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".into(), |v| v.trim().to_string());
    println!("cargo:rustc-env=PERFBENCH_RUSTC={version}");
    // The manifest enables no optional feature of any workspace crate
    // (in particular not `simd`); say so, and list any of our own.
    let mut features: Vec<String> = std::env::vars()
        .filter_map(|(k, _)| k.strip_prefix("CARGO_FEATURE_").map(str::to_lowercase))
        .collect();
    features.sort();
    let features = if features.is_empty() {
        "default".to_string()
    } else {
        features.join(",")
    };
    println!("cargo:rustc-env=PERFBENCH_FEATURES={features}");
    println!("cargo:rerun-if-changed=build.rs");
}
