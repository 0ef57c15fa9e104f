//! Figure 7c: communication overhead of LTNC as a function of the code length.
//!
//! Overhead counts the payloads delivered beyond the `N · k` necessary ones:
//! LTNC's cheap redundancy detection (degree ≤ 3) lets some non-innovative
//! packets through the feedback channel, so their payloads are transferred for
//! nothing. The paper plots LTNC only, against exact checks that cost
//! nothing; we print all three, from the protocol we ship on 16-peer views
//! in virtual time. There several offers per neighbour are in flight at
//! once, so even an exact check (WC, RLNC) accepts some payloads that an
//! earlier acceptance made redundant by the time they land.
//!
//! Expected shape (paper): ≈ 20 % at k = 2048, decreasing with k.

use ltnc_bench::{
    code_length_sweep, epidemic, fmt_f, overhead_percent, print_series, print_table, HarnessOptions,
};
use ltnc_metrics::TimeSeries;
use ltnc_scheme::SchemeKind;
use ltnc_topo::run_topology_virtual;

fn main() {
    let options = HarnessOptions::from_env();
    let sweep = code_length_sweep(options.full);
    let (peers, payload) = if options.full { (1000, 64) } else { (80, 8) };
    println!("Figure 7c — communication overhead vs code length");
    println!(
        "mode: {} | k sweep: {:?} | runs: {}",
        if options.full { "full" } else { "quick" },
        sweep,
        options.runs
    );

    let mut ltnc_series = TimeSeries::new("LTNC");
    let mut rows = Vec::new();
    for &k in &sweep {
        let mut row = vec![k.to_string()];
        for &scheme in &SchemeKind::ALL {
            let mut overhead = 0.0;
            let mut aborted = 0u64;
            let mut delivered = 0u64;
            for run in 0..options.runs {
                let config = epidemic(scheme, peers, k, payload, options.seed + run as u64);
                let report = run_topology_virtual(&config);
                overhead += overhead_percent(&config, &report);
                aborted += report.swarm.total_wire.transfers_aborted;
                delivered += report.swarm.total_wire.transfers_delivered;
            }
            overhead /= options.runs as f64;
            if scheme == SchemeKind::Ltnc {
                ltnc_series.push(k as f64, overhead);
                row.push(fmt_f(overhead, 1));
                row.push(fmt_f(100.0 * aborted as f64 / (aborted + delivered).max(1) as f64, 1));
            } else {
                row.push(fmt_f(overhead, 1));
            }
        }
        rows.push(row);
    }

    print_table(
        "Communication overhead (%)",
        &["k", "WC", "LTNC", "LTNC aborted %", "RLNC"],
        &rows,
    );
    print_series("Figure 7c data (k vs LTNC overhead %)", &[&ltnc_series]);
}
