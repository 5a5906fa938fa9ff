//! The benchmark's short mode: every workload on the default seed and on
//! one held-out seed, untraced and traced, for one second each.
//!
//! Each run must check out (`correct`, no failed point), print exactly the
//! metrics `BENCHMARK.json` names for its mode, and stamp its context line
//! with the seed and the machine fingerprint. A traced point whose stats
//! differ from the untraced reference counts as failed, so a passing traced
//! run shows that the wrappers leave every result unchanged.

use std::process::Command;

use ba_obs::{parse_json_line, Json};

const DEFAULT_SEED: u64 = 1;
const HELD_OUT_SEED: u64 = 90_210;

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let flat: String = text.lines().map(str::trim).collect();
    parse_json_line(&flat).expect("BENCHMARK.json parses")
}

fn names(spec: &Json, key: &str) -> Vec<String> {
    match spec.get(key) {
        Some(Json::Arr(items)) => items
            .iter()
            .map(|m| m.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect(),
        _ => panic!("BENCHMARK.json has no {key} list"),
    }
}

fn run(workload: &str, seed: u64, trace: bool) -> (Json, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", "1", "--trace", if trace { "1" } else { "0" }])
        .current_dir(env!("CARGO_TARGET_TMPDIR"))
        .output()
        .expect("the benchmark runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed}: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lines: Vec<&str> = stdout.lines().collect();
    let [.., context, result] = lines.as_slice() else {
        panic!("{workload}: expected a context and a result line in {stdout:?}");
    };
    (
        parse_json_line(context).expect("context line parses"),
        parse_json_line(result).expect("result line parses"),
    )
}

#[test]
fn every_workload_checks_out_on_the_default_and_a_held_out_seed() {
    let spec = benchmark_json();
    let end_to_end = names(&spec, "end_to_end");
    let per_layer = names(&spec, "per_layer");
    let workloads = names(&spec, "workloads");
    assert_eq!(workloads.len(), 4);
    for workload in &workloads {
        for seed in [DEFAULT_SEED, HELD_OUT_SEED] {
            for trace in [false, true] {
                let (context, result) = run(workload, seed, trace);
                let label = format!("{workload} seed {seed} trace {trace}");
                assert_eq!(
                    context.get("seed").and_then(Json::as_u64),
                    Some(seed),
                    "{label}"
                );
                let fingerprint = context.get("fingerprint").expect("fingerprint");
                for key in ["nproc", "cpu", "rustc"] {
                    assert!(fingerprint.get(key).is_some(), "{label}: no {key}");
                }
                assert_eq!(
                    result.get("correct").and_then(Json::as_bool),
                    Some(true),
                    "{label}"
                );
                assert_eq!(
                    result.get("failed").and_then(Json::as_u64),
                    Some(0),
                    "{label}"
                );
                assert!(result.get("attempted").and_then(Json::as_u64).unwrap() >= 1);
                let Some(Json::Obj(metrics)) = result.get("metrics") else {
                    panic!("{label}: no metrics object");
                };
                let printed: Vec<&String> = metrics.iter().map(|(k, _)| k).collect();
                let expected = if trace { &per_layer } else { &end_to_end };
                assert_eq!(printed, expected.iter().collect::<Vec<_>>(), "{label}");
                for (name, m) in metrics {
                    let value = m.get("value").and_then(Json::as_f64).expect("numeric");
                    assert!(
                        value.is_finite() && value >= 0.0,
                        "{label}: {name} = {value}"
                    );
                    assert!(
                        m.get("unit").and_then(Json::as_str).is_some(),
                        "{label}: {name}"
                    );
                    if !trace {
                        assert!(value > 0.0, "{label}: {name} reads 0");
                    }
                }
            }
        }
    }
}

#[test]
fn bad_arguments_fail_without_a_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", "no-such-workload", "--seed", "1"])
        .args(["--seconds", "1", "--trace", "0"])
        .output()
        .expect("the benchmark runs");
    assert!(!out.status.success());
    assert!(out.stdout.is_empty());
}

#[test]
fn compare_refuses_results_from_different_machines() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let result = r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"pass_ms_p50":{"value":2.0,"unit":"ms"}}}"#;
    let write = |name: &str, cpu: &str| {
        let path = dir.join(name);
        let context = format!(
            r#"{{"workload":"judge","seed":1,"trace":0,"fingerprint":{{"nproc":2,"cpu":"{cpu}","rustc":"r"}}}}"#
        );
        std::fs::write(&path, format!("{context}\n{result}\n")).unwrap();
        path
    };
    let a = write("compare-a.out", "cpu-a");
    let b = write("compare-b.out", "cpu-a");
    let c = write("compare-c.out", "cpu-c");
    let compare = |x: &std::path::Path, y: &std::path::Path| {
        Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .arg("compare")
            .args([x, y])
            .output()
            .expect("the benchmark runs")
    };
    let same = compare(&a, &b);
    assert!(same.status.success());
    assert!(String::from_utf8_lossy(&same.stdout).contains("pass_ms_p50"));
    let different = compare(&a, &c);
    assert!(!different.status.success());
    assert!(String::from_utf8_lossy(&different.stderr).contains("fingerprint"));
}
