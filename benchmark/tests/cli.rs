//! The binary end to end: every workload in `--quick` mode, the result
//! line's shape, the agreement with `BENCHMARK.json`, and the exit code
//! when the bit-exact check fails.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use ltnc_ledger::spec::{END_TO_END, PER_LAYER, WORKLOADS};
use ltnc_telemetry::json::JsonValue;

fn benchmark_json() -> JsonValue {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json is at the repository root");
    JsonValue::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(value: &'a JsonValue, key: &str) -> &'a str {
    value.get(key).and_then(JsonValue::as_str).unwrap_or_else(|| panic!("{key} is a string"))
}

fn entries<'a>(doc: &'a JsonValue, key: &str) -> &'a [JsonValue] {
    doc.get(key).and_then(JsonValue::as_array).unwrap_or_else(|| panic!("{key} is a list"))
}

/// Runs the binary, writing its files under the test's own `out`
/// directory; returns its exit success and the parsed last line of its
/// standard output.
fn ledger(out: &str, args: &[&str]) -> (bool, JsonValue) {
    let out = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(out);
    let output = Command::new(env!("CARGO_BIN_EXE_ltnc-ledger"))
        .args(args)
        .arg("--out")
        .arg(out)
        .output()
        .expect("the binary starts");
    let stdout = String::from_utf8(output.stdout).expect("UTF-8 output");
    let last = stdout.lines().last().unwrap_or_else(|| panic!("{args:?} printed nothing"));
    (output.status.success(), JsonValue::parse(last).expect("the last line is JSON"))
}

fn keys(object: &JsonValue) -> Vec<&str> {
    match object {
        JsonValue::Object(members) => members.iter().map(|(key, _)| key.as_str()).collect(),
        other => panic!("not an object: {other:?}"),
    }
}

#[test]
fn benchmark_json_says_what_the_binary_knows() {
    let doc = benchmark_json();
    assert_eq!(
        keys(&doc),
        ["command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"]
    );
    let paths: Vec<&str> = entries(&doc, "paths").iter().filter_map(JsonValue::as_str).collect();
    assert_eq!(paths, ["benchmark"]);
    let seconds = doc.get("run_seconds").and_then(JsonValue::as_i64).expect("a whole number");
    assert!((1..=60).contains(&seconds));

    let workloads: Vec<(&str, &str)> =
        entries(&doc, "workloads").iter().map(|w| (text(w, "name"), text(w, "why"))).collect();
    let known: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    assert_eq!(workloads, known);

    let end_to_end: Vec<(&str, &str, &str, f64)> = entries(&doc, "end_to_end")
        .iter()
        .map(|m| {
            let bound = m.get("bound").and_then(JsonValue::as_f64).expect("a bound");
            (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
        })
        .collect();
    let known: Vec<(&str, &str, &str, f64)> =
        END_TO_END.iter().map(|m| (m.name, m.unit, m.better.label(), m.bound)).collect();
    assert_eq!(end_to_end, known);

    let per_layer: Vec<(&str, &str, &str)> = entries(&doc, "per_layer")
        .iter()
        .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
        .collect();
    let known: Vec<(&str, &str, &str)> =
        PER_LAYER.iter().map(|m| (m.name, m.unit, m.better.label())).collect();
    assert_eq!(per_layer, known);
}

#[test]
fn quick_mode_runs_every_workload_and_prints_the_declared_metrics() {
    let doc = benchmark_json();
    let declared = |key: &str| -> BTreeSet<String> {
        entries(&doc, key).iter().map(|m| text(m, "name").to_string()).collect()
    };
    for workload in WORKLOADS {
        for (trace, key) in [("0", "end_to_end"), ("1", "per_layer")] {
            let args = ["--workload", workload.name, "--seed", "42", "--seconds", "1"];
            let (ok, result) =
                ledger("quick", &[&args[..], &["--trace", trace, "--quick"]].concat());
            assert!(ok, "{} --trace {trace} exited non-zero", workload.name);
            assert_eq!(keys(&result), ["correct", "attempted", "failed", "metrics"]);
            assert_eq!(result.get("correct"), Some(&JsonValue::Bool(true)));
            assert_eq!(result.get("failed").and_then(JsonValue::as_i64), Some(0));
            // One set-up with its warm-up, then the two quick operations.
            assert_eq!(result.get("attempted").and_then(JsonValue::as_i64), Some(3));
            let metrics = result.get("metrics").expect("metrics");
            let printed: BTreeSet<String> = keys(metrics).into_iter().map(String::from).collect();
            assert_eq!(printed, declared(key), "{} --trace {trace}", workload.name);
            for name in keys(metrics) {
                let entry = metrics.get(name).expect("listed");
                assert_eq!(keys(entry), ["value", "unit"], "{name}");
                let value = entry.get("value").and_then(JsonValue::as_f64).expect("a number");
                assert!(value.is_finite() && value >= 0.0, "{name} = {value}");
                assert!(trace == "1" || value > 0.0, "end-to-end {name} must never be 0");
            }
        }
    }
}

#[test]
fn a_corrupted_comparison_fails_every_operation_and_the_exit_code() {
    let args = ["--workload", "line5_clean_16k", "--seed", "42", "--seconds", "1"];
    let flags = ["--trace", "0", "--quick", "--corrupt-reference"];
    let (ok, result) = ledger("corrupt", &[&args[..], &flags[..]].concat());
    assert!(!ok, "a failed bit-exact check must exit non-zero");
    assert_eq!(result.get("correct"), Some(&JsonValue::Bool(false)));
    assert_eq!(result.get("failed"), result.get("attempted"));
}

#[test]
fn unknown_workloads_and_arguments_are_refused_without_a_result() {
    for args in [&["--workload", "nope"][..], &["--frobnicate"][..]] {
        let output =
            Command::new(env!("CARGO_BIN_EXE_ltnc-ledger")).args(args).output().expect("starts");
        assert!(!output.status.success());
        assert!(output.stdout.is_empty(), "no result line for {args:?}");
    }
}
