//! Figure-reproduction harness for the LTNC paper (ICDCS 2010).
//!
//! Every table and figure of the paper's evaluation has a dedicated binary in
//! `src/bin/` that regenerates it:
//!
//! | Binary              | Paper artifact | What it prints |
//! |----------------------|----------------|----------------|
//! | `fig2_soliton`       | Figure 2       | Robust Soliton pmf vs degree |
//! | `fig7a_convergence`  | Figure 7a      | % of complete nodes vs time in ticks, WC/LTNC/RLNC |
//! | `fig7b_completion`   | Figure 7b      | average time to complete vs code length |
//! | `fig7c_overhead`     | Figure 7c      | communication overhead vs code length (LTNC) |
//! | `fig8_cost`          | Figure 8a–8d   | recoding/decoding cost, control/data, vs code length |
//! | `stats_recoding`     | §III-B/§III-C in-text numbers | degree-draw acceptance, build accuracy, occurrence spread, redundancy catches |
//! | `ablations`          | design choices | refinement / redundancy-detection / feedback ablations |
//!
//! Figures 7a–c and the feedback ablation run the protocol we ship — the
//! `ltnc-net` node state machine, header-first handshake, pacing and event
//! clocks included — on the virtual-time driver ([`epidemic`]), so they
//! replay from their seed and report time in gossip ticks.
//!
//! Wall-clock time is not measured here: the reference benchmark
//! (`ltnc-ledger`, in `benchmark/`) times the coding plane, the wire codec,
//! the UDP swarm and the TCP fetch, and `crates/topo/tests/virtual_gates.rs`
//! pins the lossy scenarios it does not run in exact virtual-time counts.
//!
//! All binaries accept `--quick` (default) or `--full`; `--full` uses the
//! paper-scale parameters (N = 1000, k = 2048) and takes correspondingly
//! longer. Output is plain text tables plus gnuplot-friendly TSV blocks, so
//! two runs can be diffed.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::env;
use std::time::Duration;

use ltnc_metrics::TimeSeries;
use ltnc_net::NodeOptions;
use ltnc_scheme::SchemeKind;
use ltnc_topo::{Topology, TopologyConfig, TopologyReport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

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
