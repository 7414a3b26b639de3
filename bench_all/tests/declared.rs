//! `BENCHMARK.json` at the repository root is the contract the driver
//! reads; `spec.rs` is what the binary reports. They must be one list.

use std::collections::BTreeSet;
use std::path::PathBuf;

use bench_all::json::{self, Value};
use bench_all::spec;

fn benchmark_json() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
}

#[test]
fn benchmark_json_is_what_spec_renders() {
    let rendered = spec::benchmark_json();
    assert!(
        benchmark_json() == rendered,
        "BENCHMARK.json differs from src/spec.rs; it should read:\n{rendered}"
    );
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'.' | b'-'))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || matches!(b, b'_' | b'/' | b'%' | b'.' | b'-'))
}

fn keys(v: &Value) -> Vec<&str> {
    v.as_obj().unwrap().keys().map(String::as_str).collect()
}

#[test]
fn benchmark_json_is_within_the_contracts_limits() {
    let text = benchmark_json();
    assert!(text.len() <= 64 * 1024);
    let doc = json::parse(&text).unwrap();
    assert_eq!(
        keys(&doc),
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );

    let command = doc.get("command").and_then(Value::as_arr).unwrap();
    assert!((1..=32).contains(&command.len()));
    for arg in command {
        let arg = arg.as_str().unwrap();
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let paths = doc.get("paths").and_then(Value::as_arr).unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("bench_all"));
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));

    let mut names = BTreeSet::new();
    let workloads = doc.get("workloads").and_then(Value::as_arr).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    for w in workloads {
        assert_eq!(keys(w), ["name", "why"]);
        let why = w.get("why").and_then(Value::as_str).unwrap();
        assert!(why.len() <= 200 && !why.contains('\n'));
        assert!(names.insert(w.get("name").and_then(Value::as_str).unwrap()));
    }
    let end_to_end = doc.get("end_to_end").and_then(Value::as_arr).unwrap();
    assert!((1..=16).contains(&end_to_end.len()));
    for m in end_to_end {
        assert_eq!(keys(m), ["better", "bound", "name", "unit"]);
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25);
    }
    let per_layer = doc.get("per_layer").and_then(Value::as_arr).unwrap();
    assert!((1..=128).contains(&per_layer.len()));
    for m in per_layer {
        assert_eq!(keys(m), ["better", "name", "unit"]);
    }
    for m in end_to_end.iter().chain(per_layer) {
        let name = m.get("name").and_then(Value::as_str).unwrap();
        assert!(names.insert(name), "{name} used twice");
        assert!(
            unit_ok(m.get("unit").and_then(Value::as_str).unwrap()),
            "{name}"
        );
        let better = m.get("better").and_then(Value::as_str).unwrap();
        assert!(better == "lower" || better == "higher");
    }
    assert!(names.iter().all(|n| name_ok(n)));
    let setup = end_to_end
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some("setup_s"))
        .expect("setup_s is declared");
    assert_eq!(setup.get("unit").and_then(Value::as_str), Some("s"));
    assert_eq!(setup.get("better").and_then(Value::as_str), Some("lower"));
    let largest = end_to_end
        .iter()
        .filter_map(|m| m.get("bound").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
}
