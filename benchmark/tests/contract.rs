//! The benchmark's own contract: the measured engine is the shipped one,
//! and what the benchmark emits is what `BENCHMARK.json` lists.

use gsql_serve::json::{self, Json};
use gsqlbench::spec::{Metric, END_TO_END, PER_LAYER};
use gsqlbench::{host, workload};
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

fn read(relative: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join(relative);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()))
}

fn benchmark_json() -> Json {
    json::parse(&read("../BENCHMARK.json")).expect("BENCHMARK.json parses")
}

#[test]
fn release_profile_is_the_roots() {
    let (own, root) = (
        host::release_profile(&read("Cargo.toml")),
        host::release_profile(&read("../Cargo.toml")),
    );
    assert!(
        !root.is_empty(),
        "the root manifest has a [profile.release] table"
    );
    assert_eq!(
        own, root,
        "benchmark/Cargo.toml must copy the root's [profile.release]"
    );
}

fn listed(doc: &Json, family: &str) -> Vec<(String, String, String, Option<f64>)> {
    doc.get(family)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("BENCHMARK.json has `{family}`"))
        .iter()
        .map(|m| {
            let text = |k: &str| {
                m.get(k)
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (
                text("name"),
                text("unit"),
                text("better"),
                m.get("bound").and_then(Json::as_f64),
            )
        })
        .collect()
}

fn declared(family: &[Metric]) -> Vec<(String, String, String, Option<f64>)> {
    family
        .iter()
        .map(|m| {
            (
                m.name.to_string(),
                m.unit.to_string(),
                m.better.to_string(),
                m.bound,
            )
        })
        .collect()
}

#[test]
fn benchmark_json_lists_the_declared_metrics_and_workloads() {
    let doc = benchmark_json();
    assert_eq!(listed(&doc, "end_to_end"), declared(END_TO_END));
    assert_eq!(listed(&doc, "per_layer"), declared(PER_LAYER));
    let workloads: Vec<String> = doc
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("BENCHMARK.json has `workloads`")
        .iter()
        .map(|w| {
            w.get("name")
                .and_then(Json::as_str)
                .unwrap_or_default()
                .to_string()
        })
        .collect();
    let defs: Vec<String> = workload::DEFS.iter().map(|d| d.name.to_string()).collect();
    assert_eq!(workloads, defs);
}

/// Runs one smoke pass and returns the metric names of its result line.
fn smoke(workload: &str, trace: &str) -> BTreeSet<String> {
    let out = Command::new(env!("CARGO_BIN_EXE_gsqlbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            trace,
            "--smoke",
        ])
        .output()
        .expect("run gsqlbench");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        out.status.success(),
        "{workload} --trace {trace} failed:\n{stderr}"
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let line =
        json::parse(stdout.lines().last().expect("a result line")).expect("result line is JSON");
    let keys: Vec<&str> = line
        .as_obj()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
    assert_eq!(
        line.get("correct"),
        Some(&Json::Bool(true)),
        "{workload} --trace {trace}:\n{stderr}"
    );
    assert!(line.get("attempted").and_then(Json::as_i64).unwrap_or(0) >= 1);
    line.get("metrics")
        .and_then(Json::as_obj)
        .expect("metrics object")
        .iter()
        .map(|(name, m)| {
            assert!(
                m.get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite),
                "{name} is a number"
            );
            assert_eq!(
                m.get("unit").and_then(Json::as_str),
                Some(gsqlbench::spec::unit_of(name)),
                "unit of {name}"
            );
            name.clone()
        })
        .collect()
}

/// No metric printed but unlisted, none listed but missing — on every
/// workload, in both passes.
#[test]
fn smoke_runs_emit_exactly_the_listed_metrics() {
    let doc = benchmark_json();
    for (trace, family) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected: BTreeSet<String> = listed(&doc, family).into_iter().map(|m| m.0).collect();
        for def in workload::DEFS {
            assert_eq!(
                smoke(def.name, trace),
                expected,
                "{} --trace {trace}",
                def.name
            );
        }
    }
}
