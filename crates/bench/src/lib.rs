//! Figure-reproduction harness for the LTNC paper (ICDCS 2010).
//!
//! Every table and figure of the paper's evaluation has a dedicated binary in
//! `src/bin/` that regenerates it:
//!
//! | Binary              | Paper artifact | What it prints |
//! |----------------------|----------------|----------------|
//! | `fig2_soliton`       | Figure 2       | Robust Soliton pmf vs degree |
//! | `fig7a_convergence`  | Figure 7a      | % of complete nodes vs gossip period, WC/LTNC/RLNC |
//! | `fig7b_completion`   | Figure 7b      | average time to complete vs code length |
//! | `fig7c_overhead`     | Figure 7c      | communication overhead vs code length (LTNC) |
//! | `fig8_cost`          | Figure 8a–8d   | recoding/decoding cost, control/data, vs code length |
//! | `stats_recoding`     | §III-B/§III-C in-text numbers | degree-draw acceptance, build accuracy, occurrence spread, redundancy catches |
//! | `ablations`          | design choices | refinement / redundancy-detection / feedback ablations |
//!
//! The Criterion benches in `benches/` measure wall-clock time of the same
//! operations (GF(2) primitives, Soliton sampling, recoding, decoding, one
//! full dissemination step) so that trends can also be checked against real
//! time rather than the operation-count cost model alone.
//!
//! All binaries accept `--quick` (default) or `--full`; `--full` uses the
//! paper-scale parameters (N = 1000, k = 2048) and takes correspondingly
//! longer. Output is plain text tables plus gnuplot-friendly TSV blocks, so
//! two runs can be diffed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::env;

use ltnc_metrics::TimeSeries;

/// Command-line options shared by every figure binary.
#[derive(Debug, Clone, PartialEq)]
pub struct HarnessOptions {
    /// Run the paper-scale configuration instead of the quick one.
    pub full: bool,
    /// Number of Monte-Carlo runs to average (the paper uses 25).
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for HarnessOptions {
    fn default() -> Self {
        HarnessOptions { full: false, runs: 3, seed: 42 }
    }
}

impl HarnessOptions {
    /// Parses options from an iterator of arguments (usually `std::env::args`).
    ///
    /// Recognised flags: `--full`, `--quick`, `--runs <n>`, `--seed <n>`.
    /// Unknown flags are ignored so binaries can add their own.
    #[must_use]
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Self {
        let mut options = HarnessOptions::default();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            match arg.as_str() {
                "--full" => options.full = true,
                "--quick" => options.full = false,
                "--runs" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        options.runs = v;
                    }
                }
                "--seed" => {
                    if let Some(v) = iter.next().and_then(|s| s.parse().ok()) {
                        options.seed = v;
                    }
                }
                _ => {}
            }
        }
        options.runs = options.runs.max(1);
        options
    }

    /// Parses the options from the process arguments.
    #[must_use]
    pub fn from_env() -> Self {
        Self::parse(env::args().skip(1))
    }
}

/// Prints a table: a header row followed by aligned data rows.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n== {title} ==");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let header_line: Vec<String> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| format!("{h:>width$}", width = widths[i]))
        .collect();
    println!("{}", header_line.join("  "));
    for row in rows {
        let line: Vec<String> = row
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{c:>width$}", width = widths.get(i).copied().unwrap_or(0)))
            .collect();
        println!("{}", line.join("  "));
    }
}

/// Prints one or more series as a gnuplot-friendly TSV block with a comment header.
pub fn print_series(title: &str, series: &[&TimeSeries]) {
    println!("\n# {title}");
    for s in series {
        println!("# series: {}", s.label());
        print!("{}", s.to_tsv());
        println!();
    }
}

/// Formats a float with a fixed number of decimals, for table cells.
#[must_use]
pub fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// The code lengths swept by Figures 7b/7c (paper: 512 → 4096) scaled to the
/// harness mode.
#[must_use]
pub fn code_length_sweep(full: bool) -> Vec<usize> {
    if full {
        vec![512, 1024, 2048, 3072, 4096]
    } else {
        vec![16, 32, 64, 96, 128]
    }
}

/// The code lengths swept by Figure 8 (paper: 400 → 2000) scaled to the
/// harness mode.
#[must_use]
pub fn cost_code_length_sweep(full: bool) -> Vec<usize> {
    if full {
        vec![400, 800, 1200, 1600, 2000]
    } else {
        vec![32, 64, 96, 128, 160]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_are_quick() {
        let o = HarnessOptions::default();
        assert!(!o.full);
        assert!(o.runs >= 1);
    }

    #[test]
    fn parse_recognises_flags() {
        let o = HarnessOptions::parse(args(&["--full", "--runs", "25", "--seed", "7"]));
        assert!(o.full);
        assert_eq!(o.runs, 25);
        assert_eq!(o.seed, 7);
    }

    #[test]
    fn parse_ignores_unknown_flags_and_clamps_runs() {
        let o = HarnessOptions::parse(args(&["--wat", "--runs", "0"]));
        assert!(!o.full);
        assert_eq!(o.runs, 1);
        let o = HarnessOptions::parse(args(&["--full", "--quick"]));
        assert!(!o.full);
    }

    #[test]
    fn sweeps_are_increasing_and_mode_dependent() {
        for sweep in [
            code_length_sweep(false),
            code_length_sweep(true),
            cost_code_length_sweep(false),
            cost_code_length_sweep(true),
        ] {
            assert!(sweep.windows(2).all(|w| w[0] < w[1]));
        }
        assert!(code_length_sweep(true).contains(&2048));
        assert!(cost_code_length_sweep(true).contains(&2000));
    }

    #[test]
    fn fmt_f_rounds() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(2.0, 0), "2");
    }
}
