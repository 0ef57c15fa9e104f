//! Command line of `ltnc-ledger`.
//!
//! ```text
//! ltnc-ledger --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, as the driver makes it
//! ltnc-ledger all   [--seed <n>] [--seconds <s>] [--quick]              every workload, untraced then traced
//! ltnc-ledger check [--seed <n>] [--seconds <s>] [--quick]              the untraced suite twice, compared
//! ```
//!
//! A single run prints its result as the last line of standard output.
//! Every mode exits non-zero when an operation failed the bit-exact
//! check.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use ltnc_ledger::report::{self, SuiteConfig};
use ltnc_ledger::run::{self, RunConfig};

/// Window length when `--seconds` is not given; `BENCHMARK.json` passes
/// the same value as `run_seconds`.
const DEFAULT_SECONDS: f64 = 18.0;

struct Args {
    mode: Option<String>,
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    traced: bool,
    ops: Option<u64>,
    quick: bool,
    corrupt_reference: bool,
    out: PathBuf,
}

fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        mode: None,
        workload: None,
        seed: 42,
        seconds: DEFAULT_SECONDS,
        traced: false,
        ops: None,
        quick: false,
        corrupt_reference: false,
        out: PathBuf::from("benchmark/out"),
    };
    while let Some(arg) = argv.next() {
        let mut value = || argv.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |text: String| text.parse::<u64>().map_err(|e| format!("{arg} {text}: {e}"));
        match arg.as_str() {
            "all" | "check" if args.mode.is_none() => args.mode = Some(arg.clone()),
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => {
                let text = value()?;
                args.seconds = text.parse().map_err(|e| format!("--seconds {text}: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 60.0) {
                    return Err(format!("--seconds {text}: must be within (0, 60]"));
                }
            }
            "--trace" => args.traced = number(value()?)? != 0,
            "--ops" => args.ops = Some(number(value()?)?),
            "--out" => args.out = PathBuf::from(value()?),
            "--quick" => args.quick = true,
            // Test-only: every operation must then be reported as failed.
            "--corrupt-reference" => args.corrupt_reference = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args = match parse(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(error) => {
            eprintln!("ltnc-ledger: {error}");
            return ExitCode::from(2);
        }
    };
    let suite =
        SuiteConfig { seed: args.seed, seconds: args.seconds, quick: args.quick, out: args.out };
    let outcome = match (args.mode.as_deref(), args.workload) {
        (Some("check"), None) => report::check(&suite),
        (Some(_), None) | (None, None) => report::all(&suite),
        (None, Some(workload)) => {
            let config = RunConfig {
                workload,
                seed: args.seed,
                seconds: args.seconds,
                traced: args.traced,
                ops: args.ops,
                quick: args.quick,
                corrupt_reference: args.corrupt_reference,
            };
            run::run(&config, process_start).and_then(|result| {
                report::write_files(&suite.out, &config, &result)?;
                println!("{}", report::result_line(&result));
                Ok(result.correct())
            })
        }
        (Some(mode), Some(_)) => Err(format!("{mode} runs every workload; drop --workload")),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("ltnc-ledger: an operation failed the bit-exact check");
            ExitCode::FAILURE
        }
        Err(error) => {
            eprintln!("ltnc-ledger: {error}");
            ExitCode::FAILURE
        }
    }
}
