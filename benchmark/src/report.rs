//! Output: the driver's one-line result, the per-run detail and trace
//! files, and the `all` / `check` suites that run every workload in a
//! process of its own and print one row per workload.

use std::fs::{self, File};
use std::io::{self, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

use ltnc_telemetry::json::JsonValue;

use crate::run::{RunConfig, RunResult};
use crate::spec::{self, END_TO_END, PER_LAYER, SETUP_SLACK_S, WORKLOADS};
use crate::trace::{Span, NO_PARENT};

fn metrics_json(metrics: &[(&'static str, f64)]) -> JsonValue {
    metrics.iter().fold(JsonValue::object(), |doc, &(name, value)| {
        let unit = spec::unit_of(name).expect("every reported metric is in the spec");
        doc.field(name, JsonValue::object().field("value", value).field("unit", unit))
    })
}

/// The last line of a run's standard output, as the driver reads it.
#[must_use]
pub fn result_line(result: &RunResult) -> String {
    JsonValue::object()
        .field("correct", result.correct())
        .field("attempted", result.tally.attempted)
        .field("failed", result.tally.failed)
        .field("metrics", metrics_json(&result.metrics))
        .render()
}

/// Everything a run measured, for the suites and for people.
fn detail_json(config: &RunConfig, result: &RunResult) -> JsonValue {
    let walls = result.op_wall_s.iter().map(|&s| JsonValue::from(s)).collect();
    JsonValue::object()
        .field("workload", config.workload.as_str())
        .field("seed", config.seed)
        .field("seconds", config.seconds)
        .field("trace", u64::from(config.traced))
        .field("correct", result.correct())
        .field("attempted", result.tally.attempted)
        .field("failed", result.tally.failed)
        .field("metrics", metrics_json(&result.metrics))
        .field("harness", metrics_json(&result.harness))
        .field("op_wall_s", JsonValue::array(walls))
}

/// Streams the trace file: a traced chain run holds several hundred
/// thousand spans, too many to build a `JsonValue` tree of first. Span
/// names are this crate's own identifiers and need no escaping.
fn write_trace(path: &Path, config: &RunConfig, spans: &[Span]) -> io::Result<()> {
    let mut file = BufWriter::new(File::create(path)?);
    let head = JsonValue::object()
        .field("workload", config.workload.as_str())
        .field("seed", config.seed)
        .render();
    write!(
        file,
        "{},\"columns\":[\"name\",\"op\",\"parent\",\"start_ns\",\"end_ns\"],\"spans\":[",
        head.trim_end_matches('}')
    )?;
    for (i, span) in spans.iter().enumerate() {
        let parent = if span.parent == NO_PARENT { -1 } else { i64::from(span.parent) };
        let comma = if i == 0 { "" } else { "," };
        write!(
            file,
            "{comma}\n[\"{}\",{},{parent},{},{}]",
            span.name, span.op, span.start_ns, span.end_ns
        )?;
    }
    file.write_all(b"\n]}\n")?;
    // A `BufWriter` dropped with bytes pending swallows the error.
    file.flush()
}

fn detail_path(out: &Path, workload: &str, traced: bool) -> PathBuf {
    out.join(format!("run_{workload}_trace{}.json", u8::from(traced)))
}

/// Writes `run_<workload>_trace<0|1>.json` and, for a traced run,
/// `trace_<workload>.json` with every span (`parent` indexes the spans of
/// the same op, −1 for a root).
///
/// # Errors
///
/// The I/O error, with the path it concerns.
pub fn write_files(out: &Path, config: &RunConfig, result: &RunResult) -> Result<(), String> {
    fs::create_dir_all(out).map_err(|e| format!("cannot create {}: {e}", out.display()))?;
    let path = detail_path(out, &config.workload, config.traced);
    fs::write(&path, detail_json(config, result).render())
        .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    if let Some(trace) = &result.trace {
        let path = out.join(format!("trace_{}.json", config.workload));
        write_trace(&path, config, trace.finished())
            .map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    }
    Ok(())
}

/// Options of the `all` and `check` suites.
#[derive(Debug, Clone)]
pub struct SuiteConfig {
    /// `--seed`.
    pub seed: u64,
    /// `--seconds` of every run.
    pub seconds: f64,
    /// `--quick` on every run.
    pub quick: bool,
    /// Where the runs and the suite write their files.
    pub out: PathBuf,
}

/// Runs one workload in a process of its own, so that its peak RSS and
/// CPU time are its own, and reads its detail file back.
fn run_child(suite: &SuiteConfig, workload: &str, traced: bool) -> Result<JsonValue, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", workload, "--seed", &suite.seed.to_string()])
        .args(["--seconds", &suite.seconds.to_string(), "--trace", if traced { "1" } else { "0" }])
        .arg("--out")
        .arg(&suite.out)
        .stdout(Stdio::null());
    if suite.quick {
        command.arg("--quick");
    }
    eprintln!("  {workload} (trace {}) ...", u8::from(traced));
    // `status` waits for the child; a failed operation makes it exit
    // non-zero but it has still written what it measured.
    let status = command.status().map_err(|e| format!("cannot start {workload}: {e}"))?;
    let path = detail_path(&suite.out, workload, traced);
    let text = fs::read_to_string(&path).map_err(|e| {
        format!("{workload} exited with {status} and left no {}: {e}", path.display())
    })?;
    JsonValue::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn run_suite(suite: &SuiteConfig, traced: bool) -> Result<Vec<JsonValue>, String> {
    WORKLOADS.iter().map(|workload| run_child(suite, workload.name, traced)).collect()
}

fn metric(run: &JsonValue, group: &str, name: &str) -> f64 {
    run.get(group)
        .and_then(|metrics| metrics.get(name))
        .and_then(|entry| entry.get("value"))
        .and_then(JsonValue::as_f64)
        .unwrap_or(f64::NAN)
}

fn count(run: &JsonValue, key: &str) -> i64 {
    run.get(key).and_then(JsonValue::as_i64).unwrap_or(-1)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|output| output.status.success())
        .map(|output| String::from_utf8_lossy(&output.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

fn environment(suite: &SuiteConfig) -> JsonValue {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get() as u64);
    JsonValue::object()
        .field("seed", suite.seed)
        .field("seconds", suite.seconds)
        .field("nproc", nproc)
        .field("rustc", command_line("rustc", &["-V"]))
        .field("commit", command_line("git", &["rev-parse", "HEAD"]))
        .field("traffic", "host loopback only")
}

/// One row per workload: every end-to-end metric with its unit, and the
/// sample count and spread of the operations behind them.
fn print_end_to_end(title: &str, runs: &[JsonValue]) {
    println!("\n{title}");
    print!("{:<20}", "workload");
    for m in END_TO_END {
        print!(" {:>22}", format!("{} [{}]", m.name, m.unit));
    }
    println!(" {:>8} {:>12} {:>14}", "ops (n)", "op_iqr_s [s]", "failed/tried");
    for run in runs {
        print!("{:<20}", run.get("workload").and_then(JsonValue::as_str).unwrap_or("?"));
        for m in END_TO_END {
            print!(" {:>22.6}", metric(run, "metrics", m.name));
        }
        println!(
            " {:>8} {:>12.6} {:>14}",
            metric(run, "harness", "harness.ops"),
            metric(run, "harness", "harness.op_iqr_s"),
            format!("{}/{}", count(run, "failed"), count(run, "attempted")),
        );
    }
}

/// One row per layer metric, one column per workload.
fn print_per_layer(runs: &[JsonValue]) {
    println!("\nper-layer metrics (traced run; 0 = does not apply to the workload)");
    print!("{:<44}", "metric [unit]");
    for workload in WORKLOADS {
        print!(" {:>18}", workload.name);
    }
    println!();
    for layer in PER_LAYER {
        print!("{:<44}", format!("{} [{}]", layer.name, layer.unit));
        for run in runs {
            print!(" {:>18.6}", metric(run, "metrics", layer.name));
        }
        println!();
    }
}

/// Failed operations over `runs`; a run without the count (−1) counts
/// as a failure too.
fn failed_ops(runs: &[JsonValue]) -> i64 {
    runs.iter().map(|run| count(run, "failed").abs()).sum()
}

fn all_correct(runs: &[JsonValue]) -> bool {
    runs.iter().all(|run| run.get("correct") == Some(&JsonValue::Bool(true)))
}

fn write_result(suite: &SuiteConfig, name: &str, doc: &JsonValue) -> Result<(), String> {
    let path = suite.out.join(format!("{name}-seed{}.json", suite.seed));
    fs::write(&path, doc.render()).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
    println!("\nwrote {}", path.display());
    Ok(())
}

/// `all`: every workload untraced, then traced. Returns whether every
/// output passed the bit-exact check.
///
/// # Errors
///
/// A run that could not start or left no result.
pub fn all(suite: &SuiteConfig) -> Result<bool, String> {
    eprintln!("untraced suite:");
    let untraced = run_suite(suite, false)?;
    eprintln!("traced suite:");
    let traced = run_suite(suite, true)?;
    print_end_to_end("end-to-end metrics (untraced run, one row per workload)", &untraced);
    print_per_layer(&traced);
    let ok = all_correct(&untraced) && all_correct(&traced);
    let doc = JsonValue::object()
        .field("environment", environment(suite))
        .field("untraced", JsonValue::array(vec![JsonValue::array(untraced)]))
        .field("traced", JsonValue::array(traced));
    write_result(suite, "result", &doc)?;
    Ok(ok)
}

/// `check`: the untraced suite twice on the same code, then the traced
/// suite once. Passes when no operation failed and every end-to-end
/// metric of every workload agrees between the two runs within its bound.
///
/// # Errors
///
/// A run that could not start or left no result.
pub fn check(suite: &SuiteConfig) -> Result<bool, String> {
    eprintln!("untraced suite, first run:");
    let first = run_suite(suite, false)?;
    eprintln!("untraced suite, second run:");
    let second = run_suite(suite, false)?;
    eprintln!("traced suite:");
    let traced = run_suite(suite, true)?;
    print_end_to_end("end-to-end metrics, first run", &first);
    print_end_to_end("end-to-end metrics, second run", &second);
    print_per_layer(&traced);

    println!(
        "\nagreement of the two untraced runs (second ÷ first; bound is the allowed difference)"
    );
    println!(
        "{:<20} {:<14} {:>12} {:>12} {:>8} {:>7} {:>10} {:>10}  verdict",
        "workload", "metric", "first", "second", "ratio", "bound", "iqr_1 [s]", "iqr_2 [s]"
    );
    let mut ok = failed_ops(&first) + failed_ops(&second) + failed_ops(&traced) == 0;
    for ((workload, a), b) in WORKLOADS.iter().zip(&first).zip(&second) {
        for m in END_TO_END {
            let (x, y) = (metric(a, "metrics", m.name), metric(b, "metrics", m.name));
            let bound = spec::bound(&m, workload.name);
            let mut allowed = bound * x;
            if m.name == "setup_s" {
                allowed = allowed.max(SETUP_SLACK_S);
            }
            // NaN (a run without a value) must not pass.
            let agrees = (y - x).abs() <= allowed;
            ok &= agrees;
            println!(
                "{:<20} {:<14} {:>12.6} {:>12.6} {:>8.4} {:>7.2} {:>10.6} {:>10.6}  {}",
                workload.name,
                m.name,
                x,
                y,
                y / x,
                bound,
                metric(a, "harness", "harness.op_iqr_s"),
                metric(b, "harness", "harness.op_iqr_s"),
                if agrees { "agrees" } else { "DIFFERS" },
            );
        }
    }
    let doc = JsonValue::object()
        .field("environment", environment(suite))
        .field("agrees", ok)
        .field(
            "untraced",
            JsonValue::array(vec![JsonValue::array(first), JsonValue::array(second)]),
        )
        .field("traced", JsonValue::array(traced));
    write_result(suite, "check", &doc)?;
    println!("{}", if ok { "check passed" } else { "check FAILED" });
    Ok(ok)
}
