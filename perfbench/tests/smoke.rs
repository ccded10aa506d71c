//! The benchmark's own checks, at smoke scale (`--smoke`): every metric
//! named in `BENCHMARK.json` is printed with its unit, each traced budget
//! sums to its op, and a tampered reference is counted as failed ops.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::process::{Command, Output};

use aqua_serve::json::Json;

const WORKLOADS: [&str; 3] = ["phase1_wssc", "serve_epa", "campaign_wssc"];

fn run(workload: &str, trace: bool, extra: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "3", "--seconds", "1"])
        .args(["--trace", if trace { "1" } else { "0" }, "--smoke"])
        .args(extra)
        .output()
        .expect("benchmark binary runs")
}

fn stdout_lines(out: &Output) -> Vec<Json> {
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .map(|l| Json::parse(l).unwrap_or_else(|e| panic!("non-JSON line {l:?}: {e}")))
        .collect()
}

/// `(name, unit)` of every metric in a `BENCHMARK.json` section.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    doc.get(section)
        .and_then(Json::as_arr)
        .expect("metric list")
        .iter()
        .map(|m| {
            let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("unit"))
        })
        .collect()
}

#[test]
fn every_declared_metric_is_printed_with_its_unit() {
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let wanted = declared(section);
        for workload in WORKLOADS {
            let out = run(workload, trace, &[]);
            assert!(out.status.success(), "{workload}: {out:?}");
            let lines = stdout_lines(&out);
            let host = &lines[0];
            assert_eq!(
                host.get("smoke").map(|v| matches!(v, Json::Bool(true))),
                Some(true)
            );
            for key in ["nproc", "cpu_model", "rustc", "commit"] {
                assert!(host.get("host").and_then(|h| h.get(key)).is_some(), "{key}");
            }
            let result = lines.last().expect("result line");
            assert!(
                matches!(result.get("correct"), Some(Json::Bool(true))),
                "{workload}"
            );
            assert_eq!(result.get("failed").and_then(Json::as_u64), Some(0));
            assert!(result.get("attempted").and_then(Json::as_u64) >= Some(1));
            let metrics = result.get("metrics").expect("metrics");
            for (name, unit) in &wanted {
                let m = metrics
                    .get(name)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit.as_str()));
                assert!(m.get("value").and_then(Json::as_f64).is_some(), "{name}");
            }
        }
    }
}

#[test]
fn every_traced_budget_sums_to_its_op() {
    for workload in WORKLOADS {
        let out = run(workload, true, &[]);
        assert!(out.status.success(), "{workload}: {out:?}");
        let lines = stdout_lines(&out);
        let budget = lines
            .iter()
            .find(|l| l.get("budget").is_some())
            .expect("budget line");
        let parts: Vec<(String, f64)> = budget
            .get("parts")
            .and_then(Json::as_arr)
            .expect("parts")
            .iter()
            .map(|p| {
                let p = p.as_arr().expect("[name, ms]");
                (
                    p[0].as_str().expect("name").to_string(),
                    p[1].as_f64().expect("ms"),
                )
            })
            .collect();
        let (last, rest) = parts.split_last().expect("non-empty budget");
        assert_eq!(last.0, "op");
        assert!(rest.iter().any(|(n, _)| n == "unattributed"));
        assert!(rest.len() >= 3, "{workload}: too few layers");
        let sum: f64 = rest.iter().map(|(_, v)| v).sum();
        assert!(
            (sum - last.1).abs() <= 1e-9 * last.1.abs().max(1.0),
            "{workload}: parts sum to {sum}, op is {}",
            last.1
        );
    }
}

#[test]
fn a_tampered_reference_fails_ops() {
    for workload in WORKLOADS {
        let out = run(workload, false, &["--tamper"]);
        assert_eq!(out.status.code(), Some(1), "{workload}: {out:?}");
        let lines = stdout_lines(&out);
        let result = lines.last().expect("result line");
        assert!(matches!(result.get("correct"), Some(Json::Bool(false))));
        let failed = result.get("failed").and_then(Json::as_u64).expect("failed");
        let attempted = result
            .get("attempted")
            .and_then(Json::as_u64)
            .expect("attempted");
        assert!(
            failed >= 1 && failed <= attempted,
            "{workload}: {failed}/{attempted}"
        );
    }
}

#[test]
fn bad_arguments_print_no_result() {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ])
        .output()
        .expect("benchmark binary runs");
    assert_eq!(out.status.code(), Some(2));
    assert!(out.stdout.is_empty());
}
