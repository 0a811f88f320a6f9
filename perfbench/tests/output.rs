//! The binary's result line parses and carries every metric; bad
//! arguments fail without printing a result.

use perfbench::metrics::{Metric, END_TO_END, PER_LAYER};
use std::process::Command;
use tarch_runner::Json;

fn run(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(args)
        .output()
        .expect("benchmark binary runs")
}

fn check_result(trace: &str, catalog: &[Metric]) {
    let out = run(&[
        "--workload",
        "short-scripts",
        "--seed",
        "3",
        "--seconds",
        "1",
        "--trace",
        trace,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout.lines().last().expect("a result line");
    let json = Json::parse(last).expect("result line parses");
    assert_eq!(
        json.get("correct").and_then(Json::as_bool),
        Some(true),
        "{stdout}"
    );
    assert!(json
        .get("attempted")
        .and_then(Json::as_u64)
        .is_some_and(|n| n >= 1));
    assert_eq!(json.get("failed").and_then(Json::as_u64), Some(0));
    let metrics = json.get("metrics").expect("metrics");
    let Json::Obj(entries) = metrics else {
        panic!("metrics is not an object")
    };
    assert_eq!(entries.len(), catalog.len());
    for m in catalog {
        let entry = metrics
            .get(m.name)
            .unwrap_or_else(|| panic!("{} missing", m.name));
        assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
        let v = entry
            .get("value")
            .and_then(Json::as_f64)
            .expect("numeric value");
        assert!(v.is_finite());
        if m.bound.is_some() {
            assert!(v > 0.0, "{} reads {v}", m.name);
        }
    }
}

#[test]
fn end_to_end_result_line() {
    check_result("0", &END_TO_END);
}

#[test]
fn per_layer_result_line() {
    check_result("1", &PER_LAYER);
}

#[test]
fn bad_arguments_fail_without_a_result() {
    for args in [
        &["--workload", "nosuch", "--seed", "1"][..],
        &["--workload", "fleet"][..],
        &["--workload", "fleet", "--seed", "x"][..],
        &["--workload", "fleet", "--seed", "1", "--trace", "2"][..],
        &["--seed"][..],
    ] {
        let out = run(args);
        assert!(!out.status.success(), "{args:?} succeeded");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
