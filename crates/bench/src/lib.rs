//! Figure-reproduction harness for the LTNC paper (ICDCS 2010).
//!
//! One binary, `experiments`, regenerates the paper's evaluation as
//! Markdown: one heading per section, its tables and TSV blocks in a fenced
//! block. `--figure <name>` picks a section (repeatable; default: all six,
//! in this order):
//!
//! | `--figure`  | Paper artifact | What it prints |
//! |-------------|----------------|----------------|
//! | `2`         | Figure 2       | Robust Soliton pmf vs degree |
//! | `7a`        | Figure 7a      | % of complete nodes vs time in ticks, WC/LTNC/RLNC |
//! | `7bc`       | Figures 7b, 7c | average time to complete and communication overhead vs code length, from one sweep |
//! | `8`         | Figure 8a–8d   | recoding/decoding cost, control/data, vs code length |
//! | `stats`     | §III-B/§III-C in-text numbers | degree-draw acceptance, build accuracy, occurrence spread, redundancy catches |
//! | `ablations` | design choices | refinement / redundancy-detection / feedback / RLNC sparsity ablations |
//!
//! Figures 7a–c and the feedback ablation run the protocol we ship — the
//! `ltnc-net` node state machine, header-first handshake, pacing and event
//! clocks included — on the virtual-time driver ([`epidemic`]), so they
//! replay from their seed and report time in gossip ticks. Every section is
//! deterministic, so the quick output of all six is committed as
//! `EXPERIMENTS.md` at the repository root and pinned byte for byte by
//! `crates/bench/tests/experiments.rs`.
//!
//! Wall-clock time is not measured here: the reference benchmark
//! (`ltnc-ledger`, in `benchmark/`) times the coding plane, the wire codec,
//! the UDP swarm and the TCP fetch, and `crates/topo/tests/virtual_gates.rs`
//! pins the lossy scenarios it does not run in exact virtual-time counts.
//!
//! `--quick` is the default; `--full` uses the paper-scale parameters
//! (N = 1000, k = 2048) and takes correspondingly longer. `--runs <n>` sets
//! the Monte-Carlo runs to average and `--seed <n>` the base seed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt::{self, Write};
use std::time::Duration;
use std::{env, io, process};

use ltnc_metrics::TimeSeries;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{Topology, TopologyConfig, TopologyReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

mod sections;

/// Overlay degree of the epidemic runs: the 16-peer partial view of the
/// paper's peer sampling service, as a random 16-regular overlay.
pub const VIEW_DEGREE: usize = 16;

/// The paper's epidemic (§IV-A) on the protocol we ship: `peers` receivers
/// on a random [`VIEW_DEGREE`]-regular overlay and a source that reaches
/// each of them ([`Topology::epidemic`]), one generation of `k` random
/// symbols of `payload` bytes, for [`ltnc_topo::run_topology_virtual`].
/// The timeout (virtual time) is an hour.
#[must_use]
pub fn epidemic(
    scheme: SchemeKind,
    peers: usize,
    k: usize,
    payload: usize,
    seed: u64,
) -> TopologyConfig {
    let mut object = vec![0u8; k * payload];
    SmallRng::seed_from_u64(seed).fill(&mut object[..]);
    let overlay = Topology::epidemic(peers, VIEW_DEGREE, seed);
    let mut config = TopologyConfig::quick(scheme, object, overlay);
    config.code_length = k;
    config.payload_size = payload;
    config.options = NodeOptions { seed, ..NodeOptions::default() };
    config.timeout = Duration::from_secs(3600);
    config
}

/// When each peer of a run completed, in gossip ticks; a peer that never
/// did counts at the timeout.
#[must_use]
pub fn completion_ticks(config: &TopologyConfig, report: &TopologyReport) -> Vec<f64> {
    let tick = config.options.tick.as_secs_f64();
    let at = |done: &Option<Duration>| done.unwrap_or(config.timeout).as_secs_f64() / tick;
    report.swarm.completed_at.iter().map(at).collect()
}

/// The mean of `values` (0 for none).
#[must_use]
pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// The convergence curve of a run: the percentage of peers complete
/// against time, one step per completion.
#[must_use]
pub fn convergence(label: &str, completion_ticks: &[f64]) -> TimeSeries {
    let mut ticks = completion_ticks.to_vec();
    ticks.sort_by(f64::total_cmp);
    let mut curve = TimeSeries::new(label);
    curve.push(0.0, 0.0);
    for (done, &at) in ticks.iter().enumerate() {
        curve.push(at, 100.0 * (done + 1) as f64 / ticks.len() as f64);
    }
    curve
}

/// Communication overhead in percent (Figure 7c): payloads delivered
/// beyond the `peers × k` every run needs at least.
#[must_use]
pub fn overhead_percent(config: &TopologyConfig, report: &TopologyReport) -> f64 {
    let necessary = (report.swarm.peer_reports.len() * config.code_length) as f64;
    let delivered = report.swarm.total_wire.transfers_delivered as f64;
    ((delivered - necessary) / necessary * 100.0).max(0.0)
}

/// What `experiments` accepts; printed to stderr with every rejected
/// command line.
pub const USAGE: &str = "usage: experiments [--quick | --full] [--runs <n>] [--seed <n>] \
                         [--figure <2|7a|7bc|8|stats|ablations>]...";

/// Command-line options shared by every section.
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
    /// Parses options and the selected sections from an iterator of
    /// arguments (usually `std::env::args`).
    ///
    /// Recognised flags: `--full`, `--quick`, `--runs <n>` (0 counts as 1),
    /// `--seed <n>` and `--figure <name>`, once per section wanted; with no
    /// `--figure`, every section in [`SECTIONS`] order.
    ///
    /// # Errors
    /// An unknown flag, a missing or malformed value, or an unknown figure,
    /// described in the message.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<(Self, Vec<Section>), String> {
        let mut options = HarnessOptions::default();
        let mut sections = Vec::new();
        let mut iter = args.into_iter();
        while let Some(arg) = iter.next() {
            let mut value = || iter.next().ok_or_else(|| format!("{arg} needs a value"));
            match arg.as_str() {
                "--full" => options.full = true,
                "--quick" => options.full = false,
                "--runs" => options.runs = number(&arg, &value()?)?,
                "--seed" => options.seed = number(&arg, &value()?)?,
                "--figure" => {
                    let name = value()?;
                    let section = SECTIONS.into_iter().find(|s| s.flag == name);
                    sections.push(section.ok_or_else(|| format!("unknown figure {name:?}"))?);
                }
                _ => return Err(format!("unknown flag {arg:?}")),
            }
        }
        options.runs = options.runs.max(1);
        if sections.is_empty() {
            sections = SECTIONS.to_vec();
        }
        Ok((options, sections))
    }

    /// Parses the process arguments; a rejected command line prints why and
    /// [`USAGE`] to stderr and exits with status 2.
    #[must_use]
    pub fn from_env() -> (Self, Vec<Section>) {
        Self::parse(env::args().skip(1)).unwrap_or_else(|why| {
            eprintln!("experiments: {why}\n{USAGE}");
            process::exit(2)
        })
    }

    /// The `mode:` line every section opens with: quick or full, then the
    /// section's own parameters.
    fn mode(&self, out: &mut impl Write, params: fmt::Arguments) -> fmt::Result {
        writeln!(out, "mode: {} | {params}", if self.full { "full" } else { "quick" })
    }
}

fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value.parse().map_err(|_| format!("{flag} takes a non-negative integer, not {value:?}"))
}

/// One section of the evaluation, selected by `--figure`.
#[derive(Debug, Clone, Copy)]
pub struct Section {
    /// The `--figure` value that selects the section.
    pub flag: &'static str,
    /// The section's Markdown heading.
    pub heading: &'static str,
    write: fn(&HarnessOptions, &mut String) -> fmt::Result,
}

/// Every section, in the order `experiments` prints them.
pub const SECTIONS: [Section; 6] = [
    Section {
        flag: "2", heading: "Figure 2 — Robust Soliton distribution", write: sections::fig2
    },
    Section {
        flag: "7a",
        heading: "Figure 7a — convergence (proportion of complete nodes vs gossip ticks)",
        write: sections::fig7a,
    },
    Section {
        flag: "7bc",
        heading: "Figures 7b and 7c — time to complete and communication overhead vs code length",
        write: sections::fig7bc,
    },
    Section {
        flag: "8",
        heading: "Figure 8 — computational cost of recoding and decoding",
        write: sections::fig8,
    },
    Section {
        flag: "stats",
        heading: "Recoding statistics (§III-B / §III-C in-text numbers)",
        write: sections::stats,
    },
    Section {
        flag: "ablations",
        heading: "Ablations of the LTNC design choices",
        write: sections::ablations,
    },
];

impl Section {
    /// Runs the section and renders it as Markdown: its heading, then in a
    /// fenced block its `mode:` line, tables and gnuplot-friendly TSV blocks.
    #[must_use]
    pub fn markdown(&self, options: &HarnessOptions) -> String {
        let mut text = String::new();
        (self.write)(options, &mut text).expect("writing to a String cannot fail");
        format!("\n## {}\n\n```text\n{}\n```\n", self.heading, text.trim_end())
    }
}

/// Writes the document `experiments` prints: a title naming the options,
/// then each of `sections` as [`Section::markdown`], written as it is done.
///
/// # Errors
/// Whatever writing to `out` fails with.
pub fn write_document(
    options: &HarnessOptions,
    sections: &[Section],
    out: &mut impl io::Write,
) -> io::Result<()> {
    let mode = if options.full { "full" } else { "quick" };
    let mut command =
        format!("experiments --{mode} --runs {} --seed {}", options.runs, options.seed);
    if sections.iter().map(|s| s.flag).ne(SECTIONS.iter().map(|s| s.flag)) {
        sections.iter().for_each(|s| command += &format!(" --figure {}", s.flag));
    }
    writeln!(out, "# Experiments\n")?;
    writeln!(
        out,
        "The LTNC paper's evaluation as `{command}` prints it (crate `ltnc-bench`). \
         Every section replays exactly from its seed."
    )?;
    for section in sections {
        out.write_all(section.markdown(options).as_bytes())?;
        out.flush()?;
    }
    Ok(())
}

/// Writes a table: a blank line and the `== title ==` line, a header row,
/// then the data rows, every column right-aligned to its widest cell.
pub(crate) fn print_table(
    out: &mut impl Write,
    title: &str,
    headers: &[&str],
    rows: &[Vec<String>],
) -> fmt::Result {
    writeln!(out, "\n== {title} ==")?;
    let widths: Vec<usize> = (0..headers.len())
        .map(|i| rows.iter().map(|row| row[i].len()).fold(headers[i].len(), usize::max))
        .collect();
    let header: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    for row in std::iter::once(&header).chain(rows) {
        let cells: Vec<String> =
            row.iter().zip(&widths).map(|(cell, &width)| format!("{cell:>width$}")).collect();
        writeln!(out, "{}", cells.join("  "))?;
    }
    Ok(())
}

/// Writes one or more series as a gnuplot-friendly TSV block with a comment header.
pub(crate) fn print_series(
    out: &mut impl Write,
    title: &str,
    series: &[&TimeSeries],
) -> fmt::Result {
    writeln!(out, "\n# {title}")?;
    for s in series {
        writeln!(out, "# series: {}", s.label())?;
        writeln!(out, "{}", s.to_tsv())?;
    }
    Ok(())
}

/// Formats a float with a fixed number of decimals, for table cells.
#[must_use]
pub(crate) fn fmt_f(value: f64, decimals: usize) -> String {
    format!("{value:.decimals$}")
}

/// The code lengths swept by Figures 7b/7c (paper: 512 → 4096) scaled to the
/// harness mode.
#[must_use]
pub(crate) fn code_length_sweep(full: bool) -> Vec<usize> {
    if full {
        vec![512, 1024, 2048, 3072, 4096]
    } else {
        vec![16, 32, 64, 96, 128]
    }
}

/// The code lengths swept by Figure 8 (paper: 400 → 2000) scaled to the
/// harness mode.
#[must_use]
pub(crate) fn cost_code_length_sweep(full: bool) -> Vec<usize> {
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

    fn flags(sections: &[Section]) -> Vec<&str> {
        sections.iter().map(|s| s.flag).collect()
    }

    #[test]
    fn parse_recognises_flags() {
        let (o, sections) =
            HarnessOptions::parse(args(&["--full", "--runs", "25", "--seed", "7"])).unwrap();
        assert!(o.full);
        assert_eq!(o.runs, 25);
        assert_eq!(o.seed, 7);
        assert_eq!(flags(&sections), flags(&SECTIONS), "no --figure selects every section");
    }

    #[test]
    fn parse_selects_figures_in_order_and_clamps_runs() {
        let line = ["--figure", "7bc", "--runs", "0", "--figure", "2"];
        let (o, sections) = HarnessOptions::parse(args(&line)).unwrap();
        assert_eq!(flags(&sections), ["7bc", "2"]);
        assert_eq!(o.runs, 1);
        let (o, _) = HarnessOptions::parse(args(&["--full", "--quick"])).unwrap();
        assert!(!o.full);
        for section in SECTIONS {
            let (_, picked) = HarnessOptions::parse(args(&["--figure", section.flag])).unwrap();
            assert_eq!(flags(&picked), [section.flag]);
        }
    }

    #[test]
    fn parse_rejects_unknown_flags_and_malformed_values() {
        for (line, why) in [
            (&["--ful"][..], "unknown flag \"--ful\""),
            (&["--quick", "extra"], "unknown flag \"extra\""),
            (&["--runs", "x"], "--runs takes a non-negative integer, not \"x\""),
            (&["--runs", "-1"], "--runs takes a non-negative integer, not \"-1\""),
            (&["--seed", "4.2"], "--seed takes a non-negative integer, not \"4.2\""),
            (&["--seed"], "--seed needs a value"),
            (&["--figure", "7b"], "unknown figure \"7b\""),
            (&["--figure"], "--figure needs a value"),
        ] {
            assert_eq!(HarnessOptions::parse(args(line)).err().as_deref(), Some(why), "{line:?}");
        }
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
    fn convergence_curve_is_monotone_and_reaches_100() {
        let config = epidemic(SchemeKind::Ltnc, 20, 16, 8, 7);
        let report = ltnc_topo::run_topology_virtual(&config);
        assert!(report.swarm.converged && report.swarm.bit_exact);
        let ticks = completion_ticks(&config, &report);
        let curve = convergence("LTNC", &ticks);
        let points = curve.points();
        assert_eq!(points.len(), 21, "the origin and one step per peer");
        assert!(points.windows(2).all(|w| w[1].0 >= w[0].0 && w[1].1 > w[0].1));
        assert_eq!(points.last().map(|p| p.1), Some(100.0));
        let last = report.swarm.elapsed.as_secs_f64() / config.options.tick.as_secs_f64();
        assert_eq!(points.last().map(|p| p.0), Some(last), "the last peer converges the run");
        assert!(mean(&ticks) <= last && overhead_percent(&config, &report) > 0.0);
    }

    #[test]
    fn fmt_f_rounds() {
        assert_eq!(fmt_f(1.23456, 2), "1.23");
        assert_eq!(fmt_f(2.0, 0), "2");
    }
}
