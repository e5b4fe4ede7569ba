//! Self-tests of the benchmark binary: repeatability of simulated
//! metrics and exact counts, and metric names against
//! `BENCHMARK.json`. The digest gate is tested in `src/main.rs`.
//!
//! Each invocation runs the minimum number of rounds, so the suite
//! takes a few minutes: `cargo test --release` from this directory.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, Output};

const BIN: &str = env!("CARGO_BIN_EXE_perfledger");
const WORKLOADS: [&str; 3] = ["bcast16-hi", "mixed-asym-burst", "sweep-8x8"];
const DEFAULT_SEED: &str = "1";

/// The repository root: the benchmark reads its sources from there.
fn root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn invoke(workload: &str, seed: &str, trace: &str) -> Output {
    Command::new(BIN)
        .args(["--workload", workload, "--seed", seed, "--seconds", "1"])
        .args(["--trace", trace])
        .current_dir(root())
        .output()
        .expect("benchmark binary runs")
}

/// The result line's metric values, as printed.
fn metrics(out: &Output) -> BTreeMap<String, String> {
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("a result line");
    let body = last
        .split_once("\"metrics\": {")
        .expect("a metrics object")
        .1;
    body.split("}, \"")
        .map(|entry| {
            let entry = entry.trim_start_matches('"');
            let (name, rest) = entry.split_once("\": {\"value\": ").expect("metric entry");
            let value = rest.split(',').next().expect("metric value");
            (name.to_string(), value.to_string())
        })
        .collect()
}

fn correct(out: &Output) -> bool {
    let stdout = String::from_utf8_lossy(&out.stdout);
    stdout
        .lines()
        .last()
        .is_some_and(|l| l.starts_with("{\"correct\": true"))
}

/// Metric names `BENCHMARK.json` declares in one section.
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s.split('"').next().expect("quoted name").to_string())
        .collect()
}

#[test]
fn repeated_invocations_agree_on_simulated_metrics_and_counts() {
    const EXACT_E2E: [&str; 2] = ["recv_delay_mean_slots", "recv_delay_p99_slots"];
    const EXACT_LAYER: [&str; 6] = [
        "engine.slots",
        "engine.tx",
        "engine.peak_queue_total",
        "sharded.boundary_packets",
        "net.messages_per_slot",
        "arrivals.tasks_per_slot",
    ];
    for wl in WORKLOADS {
        for (trace, names) in [("0", &EXACT_E2E[..]), ("1", &EXACT_LAYER[..])] {
            let a = invoke(wl, "7", trace);
            let b = invoke(wl, "7", trace);
            assert!(
                correct(&a) && correct(&b),
                "{wl} trace {trace} failed its gate"
            );
            let (ma, mb) = (metrics(&a), metrics(&b));
            for name in names {
                assert_eq!(ma[*name], mb[*name], "{wl}: {name} differs between runs");
            }
        }
    }
}

#[test]
fn every_emitted_metric_is_declared() {
    let wl = WORKLOADS[1];
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let out = invoke(wl, DEFAULT_SEED, trace);
        assert!(correct(&out), "{wl} trace {trace} failed its gate");
        let emitted: Vec<String> = metrics(&out).into_keys().collect();
        let mut want = declared(section);
        want.sort();
        assert_eq!(
            emitted, want,
            "trace {trace} emits other metrics than {section}"
        );
    }
}
