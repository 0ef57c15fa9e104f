//! Figure 7a: convergence — proportion of nodes that decoded the full content
//! as a function of time (gossip ticks), for WC, LTNC and RLNC.
//!
//! Paper setting: N = 1000 nodes, k = 2048 packets of 256 KB. The quick mode
//! scales the network down so the three curves are produced in seconds; the
//! `--full` mode uses the paper-scale network (expect hours). Every run is
//! the protocol we ship on 16-peer views in virtual time.
//!
//! Expected shape (paper): RLNC converges first, LTNC slightly later (≈ 30 %
//! slower), WC clearly last — coding pays off, and LTNC keeps most of RLNC's
//! dissemination performance.

use ltnc_bench::{
    completion_ticks, convergence, epidemic, fmt_f, mean, print_series, print_table, HarnessOptions,
};
use ltnc_metrics::TimeSeries;
use ltnc_scheme::SchemeKind;
use ltnc_topo::run_topology_virtual;

fn main() {
    let options = HarnessOptions::from_env();
    let (peers, k, payload) = if options.full { (1000, 2048, 64) } else { (100, 64, 8) };
    println!("Figure 7a — convergence (proportion of complete nodes vs gossip ticks)");
    println!(
        "mode: {} | runs per scheme: {}",
        if options.full { "full (paper scale)" } else { "quick (scaled down)" },
        options.runs
    );

    let mut curves: Vec<TimeSeries> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    for scheme in SchemeKind::ALL {
        // The convergence curve is reported for a single representative run
        // (as in the paper); completion statistics are averaged over runs.
        let mut avg_completion = 0.0;
        let mut representative: Option<TimeSeries> = None;
        for run in 0..options.runs {
            let config = epidemic(scheme, peers, k, payload, options.seed + run as u64);
            let ticks = completion_ticks(&config, &run_topology_virtual(&config));
            avg_completion += mean(&ticks);
            if run == 0 {
                representative = Some(convergence(scheme.label(), &ticks));
            }
        }
        avg_completion /= options.runs as f64;
        let curve = representative.expect("at least one run");
        rows.push(vec![
            scheme.label().to_string(),
            fmt_f(avg_completion, 1),
            fmt_f(curve.first_x_reaching(50.0).unwrap_or(f64::NAN), 1),
            fmt_f(curve.first_x_reaching(100.0).unwrap_or(f64::NAN), 1),
        ]);
        curves.push(curve);
    }

    print_table(
        "Completion summary (gossip ticks)",
        &["scheme", "avg time to complete", "50% of nodes", "100% of nodes"],
        &rows,
    );
    let refs: Vec<&TimeSeries> = curves.iter().collect();
    print_series("Figure 7a data (ticks vs % complete)", &refs);
}
