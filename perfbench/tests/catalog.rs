//! Metric and workload names follow the naming rule, and
//! `BENCHMARK.json` lists exactly the catalog the benchmark prints.

use perfbench::metrics::{valid_name, Metric, END_TO_END, PER_LAYER};
use perfbench::WORKLOADS;
use tarch_runner::Json;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text =
        std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark directory");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

#[test]
fn names_follow_the_rule() {
    let names: Vec<&str> = END_TO_END
        .iter()
        .chain(&PER_LAYER)
        .map(|m| m.name)
        .chain(WORKLOADS)
        .collect();
    for n in &names {
        assert!(valid_name(n), "bad name {n}");
    }
    let mut sorted = names.clone();
    sorted.sort_unstable();
    sorted.dedup();
    assert_eq!(sorted.len(), names.len(), "a name is used twice");
    assert!(!valid_name("_x") && !valid_name("a b") && !valid_name(&"a".repeat(65)));
}

fn check_list(json: &Json, key: &str, catalog: &[Metric]) {
    let listed = json
        .get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("{key} missing"));
    assert_eq!(listed.len(), catalog.len(), "{key} length");
    for (entry, m) in listed.iter().zip(catalog) {
        assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
        assert_eq!(
            entry.get("unit").and_then(Json::as_str),
            Some(m.unit),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("better").and_then(Json::as_str),
            Some(m.better),
            "{}",
            m.name
        );
        assert_eq!(
            entry.get("bound").and_then(Json::as_f64),
            m.bound,
            "{}",
            m.name
        );
    }
}

#[test]
fn benchmark_json_matches_the_catalog() {
    let json = benchmark_json();
    check_list(&json, "end_to_end", &END_TO_END);
    check_list(&json, "per_layer", &PER_LAYER);
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("workload name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
    assert!(END_TO_END
        .iter()
        .any(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower"));
    assert!(END_TO_END
        .iter()
        .all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
}
