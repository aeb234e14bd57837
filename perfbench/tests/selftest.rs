//! Tiny-scale self-test of the benchmark: every named metric is emitted
//! with its unit, end-to-end metrics are positive, and the
//! deterministic per-layer counts repeat exactly across two runs on one
//! seed.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::PathBuf;

use zendoo_perfbench::{run, Budget, Options, Outcome, Scale, END_TO_END, PER_LAYER, WORKLOADS};

/// Per-layer counts that depend only on the inputs.
const DETERMINISTIC: [&str; 5] = [
    "mainchain.admit.sig_checks",
    "crosschain.delivered",
    "latus.certs",
    "latus.sc_blocks",
    "store.records_replayed",
];

fn options(workload: &str, trace: bool, attempt: u32) -> Options {
    let steps = match workload {
        "payments" => 8,
        _ => 2,
    };
    Options {
        seed: 7,
        budget: Budget::Steps(steps),
        trace,
        lanes: 2,
        scale: Scale::tiny(),
        data_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR"))
            .join(format!("selftest-{workload}-{}-{attempt}", u8::from(trace))),
        exe: PathBuf::from(env!("CARGO_BIN_EXE_perfbench")),
    }
}

fn run_ok(workload: &str, trace: bool, attempt: u32) -> Outcome {
    run(workload, &options(workload, trace, attempt))
        .unwrap_or_else(|e| panic!("{workload} (trace {trace}) failed: {e}"))
}

fn assert_metric_set(outcome: &Outcome, expected: &[(&str, &str)]) {
    let emitted: Vec<(&str, &str)> = outcome.metrics.iter().map(|m| (m.name, m.unit)).collect();
    assert_eq!(
        emitted, expected,
        "metric names or units differ from the declared set"
    );
    assert!(outcome.metrics.iter().all(|m| m.value.is_finite()));
}

/// The declared sets are the ones `BENCHMARK.json` lists.
#[test]
fn declared_metrics_match_benchmark_json() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    for (name, unit) in END_TO_END.iter().chain(PER_LAYER.iter()) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "BENCHMARK.json lacks {entry}");
    }
    for workload in WORKLOADS {
        assert!(
            json.contains(&format!("\"name\": \"{workload}\"")),
            "{workload} missing"
        );
    }
    assert_eq!(
        json.matches("\"unit\"").count(),
        END_TO_END.len() + PER_LAYER.len()
    );
}

fn check_workload(workload: &str) {
    let untraced = run_ok(workload, false, 0);
    assert_metric_set(&untraced, &END_TO_END);
    assert_eq!(untraced.failed, 0);
    assert!(untraced.attempted > 0);
    for metric in &untraced.metrics {
        assert!(
            metric.value > 0.0,
            "{workload}: {} is {}",
            metric.name,
            metric.value
        );
    }

    let first = run_ok(workload, true, 1);
    let second = run_ok(workload, true, 2);
    assert_metric_set(&first, &PER_LAYER);
    for name in DETERMINISTIC {
        let a = first.get(name).expect("declared").value;
        let b = second.get(name).expect("declared").value;
        assert_eq!(a, b, "{workload}: {name} differs across runs on one seed");
    }
    let exercised = match workload {
        "payments" => "mainchain.admit.sig_checks",
        "xchain_ring" => "crosschain.delivered",
        _ => "store.records_replayed",
    };
    assert!(
        first.get(exercised).expect("declared").value > 0.0,
        "{workload}: {exercised} is 0"
    );
}

#[test]
fn payments_selftest() {
    check_workload("payments");
}

#[test]
fn xchain_ring_selftest() {
    check_workload("xchain_ring");
}

#[test]
fn restart_selftest() {
    check_workload("restart");
}
