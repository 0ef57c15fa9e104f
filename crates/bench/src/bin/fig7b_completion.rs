//! Figure 7b: average time to complete as a function of the code length `k`
//! (paper sweep: 512 → 4096), for WC, LTNC and RLNC — the protocol we ship
//! on 16-peer views, in virtual time, reported in gossip ticks.
//!
//! Expected shape (paper): for every `k`, RLNC < LTNC < WC, and the relative
//! gap between LTNC and RLNC shrinks as `k` grows.

use ltnc_bench::{
    code_length_sweep, completion_ticks, epidemic, fmt_f, mean, print_series, print_table,
    HarnessOptions,
};
use ltnc_metrics::TimeSeries;
use ltnc_scheme::SchemeKind;
use ltnc_topo::run_topology_virtual;

fn main() {
    let options = HarnessOptions::from_env();
    let sweep = code_length_sweep(options.full);
    let (peers, payload) = if options.full { (1000, 64) } else { (80, 8) };
    println!("Figure 7b — average time to complete vs code length");
    println!(
        "mode: {} | k sweep: {:?} | runs: {}",
        if options.full { "full" } else { "quick" },
        sweep,
        options.runs
    );

    let mut series: Vec<TimeSeries> =
        SchemeKind::ALL.iter().map(|s| TimeSeries::new(s.label())).collect();
    let mut rows = Vec::new();
    for &k in &sweep {
        let mut row = vec![k.to_string()];
        for (i, &scheme) in SchemeKind::ALL.iter().enumerate() {
            let mut avg = 0.0;
            for run in 0..options.runs {
                let config = epidemic(scheme, peers, k, payload, options.seed + run as u64);
                avg += mean(&completion_ticks(&config, &run_topology_virtual(&config)));
            }
            avg /= options.runs as f64;
            series[i].push(k as f64, avg);
            row.push(fmt_f(avg, 1));
        }
        rows.push(row);
    }

    let headers: Vec<&str> =
        std::iter::once("k").chain(SchemeKind::ALL.iter().map(|s| s.label())).collect();
    print_table("Average time to complete (gossip ticks)", &headers, &rows);

    // Relative overhead of LTNC vs RLNC (the paper reports ≈ +30 % that
    // decreases with k).
    let mut ratio_rows = Vec::new();
    for &k in &sweep {
        let ltnc = series[1].y_at(k as f64).unwrap_or(f64::NAN);
        let rlnc = series[2].y_at(k as f64).unwrap_or(f64::NAN);
        ratio_rows.push(vec![k.to_string(), fmt_f((ltnc / rlnc - 1.0) * 100.0, 1)]);
    }
    print_table("LTNC completion-time overhead vs RLNC (%)", &["k", "overhead %"], &ratio_rows);

    let refs: Vec<&TimeSeries> = series.iter().collect();
    print_series("Figure 7b data (k vs average time to complete)", &refs);
}
