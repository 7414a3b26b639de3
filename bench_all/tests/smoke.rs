//! Run the real binary on a tenth-size database (`--quick`) for every
//! workload, untraced and traced, and hold its output to the contract:
//! every declared name exactly once with a finite value, nothing
//! failed, the result line valid JSON with exactly the four keys.
//! Runs in the default profile (about two minutes) and in `--release`.

use std::process::Command;

use bench_all::json::{self, Value};
use bench_all::spec::{END_TO_END, PER_LAYER, WORKLOADS};

fn run(workload: &str, trace: bool) -> (String, Value) {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args([
            "--workload",
            workload,
            "--seed",
            "7",
            "--seconds",
            "10",
            "--quick",
        ])
        .args(["--trace", if trace { "1" } else { "0" }])
        .output()
        .expect("start bench_all");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} trace={trace} exited {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    btrim_obs::json::validate(last).expect("result line is valid JSON");
    // `parse` refuses duplicate keys, so a name reported twice fails here.
    let result = json::parse(last).expect("result line parses");
    (stdout, result)
}

fn check(workload: &str, trace: bool, declared: &[(&str, &str)]) -> Value {
    let (stdout, result) = run(workload, trace);
    let keys: Vec<&str> = result
        .as_obj()
        .unwrap()
        .keys()
        .map(String::as_str)
        .collect();
    assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
    assert_eq!(result.get("correct"), Some(&Value::Bool(true)));
    assert_eq!(result.get("failed").and_then(Value::as_f64), Some(0.0));
    assert!(result.get("attempted").and_then(Value::as_f64).unwrap() >= 1.0);

    let metrics = result.get("metrics").and_then(Value::as_obj).unwrap();
    let reported: Vec<&str> = metrics.keys().map(String::as_str).collect();
    let mut expected: Vec<&str> = declared.iter().map(|d| d.0).collect();
    expected.sort_unstable();
    assert_eq!(reported, expected, "{workload} trace={trace}");
    for (name, unit) in declared {
        let m = &metrics[*name];
        assert!(m
            .get("value")
            .and_then(Value::as_f64)
            .is_some_and(f64::is_finite));
        assert_eq!(m.get("unit").and_then(Value::as_str), Some(*unit), "{name}");
        // And once among the human-readable lines.
        let prefix = format!("{workload} {name} ");
        assert_eq!(
            stdout.lines().filter(|l| l.starts_with(&prefix)).count(),
            1,
            "{prefix}"
        );
    }
    result
}

#[test]
fn every_workload_reports_every_end_to_end_metric() {
    let declared: Vec<(&str, &str)> = END_TO_END.iter().map(|m| (m.name, m.unit)).collect();
    for w in &WORKLOADS {
        check(w.name, false, &declared);
    }
}

/// Also holds the bypass predictions, on the quick database: the
/// workload that should not touch a layer reports that it did not.
#[test]
fn every_workload_reports_every_per_layer_metric() {
    let declared: Vec<(&str, &str)> = PER_LAYER.iter().map(|m| (m.name, m.unit)).collect();
    let value = |result: &Value, name: &str| {
        result
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Value::as_f64)
            .unwrap_or_else(|| panic!("{name} missing"))
    };
    for w in &WORKLOADS {
        let result = check(w.name, true, &declared);
        match w.name {
            "tpcc_imrs" => {
                assert_eq!(value(&result, "pagestore.evictions_per_txn"), 0.0);
                assert_eq!(value(&result, "pagestore.hit_rate"), 1.0);
                assert!(value(&result, "wal.flush_share") < 0.01);
                assert!(value(&result, "core.imrs_hit_rate") > 0.5);
                assert_eq!(value(&result, "core.recovery_s"), 0.0);
                assert_eq!(value(&result, "core.scan_p50_ms"), 0.0);
            }
            "tpcc_page_spill" => {
                assert_eq!(value(&result, "core.imrs_hit_rate"), 0.0);
                assert_eq!(value(&result, "core.pack_rows_per_ktxn"), 0.0);
                assert_eq!(value(&result, "imrs.peak_mib"), 0.0);
                assert!(value(&result, "pagestore.evictions_per_txn") > 0.0);
            }
            "tpcc_durable" => {
                assert!(value(&result, "core.recovery_s") > 0.0);
                assert!(value(&result, "core.recovery_records_replayed") > 0.0);
                assert!(value(&result, "wal.flushes_per_txn") > 1.0);
            }
            _ => {
                assert!(value(&result, "core.scan_p50_ms") > 0.0);
                assert!(value(&result, "core.snapshot_read_p50_us") > 0.0);
            }
        }
    }
}

#[test]
fn a_run_with_bad_arguments_fails_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_bench_all"))
        .args(["--workload", "no_such_workload", "--trace", "0"])
        .output()
        .expect("start bench_all");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}
