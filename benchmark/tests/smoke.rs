//! `lfbench all --quick` end to end: every workload at 1/20 of its steps,
//! every metric the issue and `BENCHMARK.json` name present and finite.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;
use std::time::Duration;

use lfbench::compare::bounds_of;
use lfbench::driver::{child_of, read_json, ChildError};
use lfbench::layers::LAYERS;
use lfbench::metrics::{EXCHANGE_P95, PEAK_RSS, SETUP, TRACED, TRIAL_E2E};
use lfbench::result::{Doc, PASS_E2E, PASS_LAYERS, PASS_TRACED};
use lfbench::workloads::WORKLOADS;
use obsv::json::Value;

fn bench_dir() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
}

fn names(list: &Value) -> Vec<String> {
    list.as_arr()
        .expect("a list")
        .iter()
        .map(|m| m.get("name").and_then(Value::as_str).expect("a name").to_string())
        .collect()
}

/// `BENCHMARK.json` and the harness must name the same workloads and
/// metrics: the contract run prints exactly what the file promises.
#[test]
fn benchmark_json_matches_the_harness() {
    let contract = read_json(&bench_dir().join("../BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names(contract.get("workloads").expect("workloads"));
    assert_eq!(workloads, WORKLOADS.map(|w| w.name));
    for (listed, w) in contract.get("workloads").unwrap().as_arr().unwrap().iter().zip(&WORKLOADS) {
        assert_eq!(listed.get("why").and_then(Value::as_str), Some(w.why));
    }
    let e2e: Vec<&str> = TRIAL_E2E.iter().chain([&PEAK_RSS, &SETUP]).map(|n| n.0).collect();
    assert_eq!(names(contract.get("end_to_end").expect("end_to_end")), e2e);
    let layers: Vec<&str> = LAYERS.iter().chain(&TRACED).map(|n| n.0).collect();
    assert_eq!(names(contract.get("per_layer").expect("per_layer")), layers);
    let bounds = bounds_of(&contract).expect("bounds");
    assert!(bounds.iter().all(|b| b.bound > 0.0 && b.bound <= 0.25));
    let setup = bounds.iter().find(|b| b.name == SETUP.0).expect("setup_s");
    assert!(bounds.iter().all(|b| b.bound <= setup.bound), "setup_s has the largest bound");
    assert_eq!(contract.get("paths").map(names_or_strings), Some(vec!["benchmark".to_string()]));
}

fn names_or_strings(list: &Value) -> Vec<String> {
    list.as_arr().expect("a list").iter().map(|v| v.as_str().expect("a string").into()).collect()
}

/// The hang guard, on a child that merely takes longer than it is given:
/// it is killed, waited for, and its rank threads are named.
#[test]
fn a_child_past_its_deadline_is_killed_and_its_threads_named() {
    let exe = Path::new(env!("CARGO_BIN_EXE_lfbench"));
    let args = ["run-one", "bulk_shallow", "--trials", "50"].map(String::from);
    let started = std::time::Instant::now();
    match child_of(exe, &args, Duration::from_millis(1500)) {
        Err(ChildError::Hung(threads)) => {
            assert!(threads.iter().any(|t| t.starts_with("rank-")), "{threads:?}");
        }
        other => panic!("expected a hung child, got {other:?}"),
    }
    assert!(started.elapsed() < Duration::from_secs(10), "the kill is prompt");
}

#[test]
fn quick_run_reports_every_metric_with_a_finite_value() {
    let started = std::time::Instant::now();
    let out = Command::new(env!("CARGO_BIN_EXE_lfbench"))
        .args(["all", "--quick", "--seed", "5"])
        .output()
        .expect("lfbench runs");
    let table = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "lfbench all --quick failed:\n{table}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let doc = Doc::from_json(&read_json(&bench_dir().join("results/quick.json")).expect("result"))
        .expect("a result document");
    assert!(doc.quick && doc.seed == 5);
    let metrics_of = |pass: &str, workload: &str| -> BTreeSet<String> {
        let run = doc.run(pass, workload).unwrap_or_else(|| panic!("no {pass} run of {workload}"));
        assert_eq!((run.failed, &run.errors), (0, &Vec::new()), "{pass} {workload}");
        for m in &run.metrics {
            assert!(!m.samples.is_empty() && m.samples.iter().all(|v| v.is_finite()), "{}", m.name);
            assert!(table.contains(&m.name), "{} is printed by name", m.name);
        }
        run.metrics.iter().map(|m| m.name.clone()).collect()
    };
    let set = |named: &[(&str, &str)]| named.iter().map(|n| n.0.to_string()).collect();
    let e2e: BTreeSet<String> = set(&[&TRIAL_E2E[..], &[EXCHANGE_P95, PEAK_RSS, SETUP]].concat());
    for w in &WORKLOADS {
        assert_eq!(metrics_of(PASS_E2E, w.name), e2e, "{}", w.name);
        assert_eq!(metrics_of(PASS_TRACED, w.name), set(&TRACED), "{}", w.name);
        assert!(doc.run(PASS_E2E, w.name).unwrap().attempted > 0);
        assert!(bench_dir().join(format!("results/{}.spans.json", w.name)).exists());
    }
    assert_eq!(metrics_of(PASS_LAYERS, "-"), set(&LAYERS));
    assert!(table.contains("failed_ops_pct"));
    assert!(started.elapsed().as_secs() < 30, "the smoke run stays short");
}
