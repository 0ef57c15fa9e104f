//! File dissemination: an Avalanche-style swarm distributing a file from one
//! source to a network of peers, comparing the three schemes of the paper's
//! evaluation (WC, LTNC, RLNC) on convergence time, communication overhead and
//! decoding cost. This is a scaled-down version of Figure 7, run by the
//! protocol we ship in virtual time; `experiments --figure 7a` (and `7bc`)
//! of `ltnc-bench` produces the full figures.
//!
//! ```text
//! cargo run --release -p ltnc-examples --bin file_dissemination
//! ```

use std::time::Duration;

use ltnc_metrics::{CostModel, OpCounters};
use ltnc_scheme::SchemeKind;
use ltnc_topo::{run_topology_virtual, Topology, TopologyConfig};

fn main() {
    let peers = 100;
    let k = 64;
    let m = 64; // carried payload bytes; costs are also modelled at 256 KB
    let file: Vec<u8> = (0..k * m).map(|i| (i * 31 % 251) as u8).collect();
    println!("file dissemination: {peers} peers, 16-peer views, k = {k} blocks\n");
    println!(
        "{:<6} {:>10} {:>12} {:>12} {:>16} {:>16}",
        "scheme", "ticks", "overhead %", "aborted", "decode ctrl cyc", "decode data cyc"
    );

    for scheme in SchemeKind::ALL {
        let overlay = Topology::epidemic(peers, 16, 42);
        let mut config = TopologyConfig::quick(scheme, file.clone(), overlay);
        config.code_length = k;
        config.payload_size = m;
        config.timeout = Duration::from_secs(3600);
        let report = run_topology_virtual(&config).swarm;
        assert!(report.converged && report.bit_exact, "every peer must hold the original file");

        let tick = config.options.tick.as_secs_f64();
        let ticks: f64 =
            report.completed_at.iter().flatten().map(|at| at.as_secs_f64() / tick).sum();
        let necessary = (peers * k) as f64;
        let overhead = (report.total_wire.transfers_delivered as f64 / necessary - 1.0) * 100.0;
        let mut decoding = OpCounters::new();
        for peer in &report.peer_reports {
            decoding.merge(&peer.decoding);
        }
        // Model the data-plane cost as if blocks were the paper's 256 KB.
        let cost = CostModel::new(k, 256 * 1024).evaluate(&decoding);
        println!(
            "{:<6} {:>10.0} {:>12.1} {:>12} {:>16.3e} {:>16.3e}",
            scheme.label(),
            ticks / peers as f64,
            overhead.max(0.0),
            report.total_wire.transfers_aborted,
            cost.control_cycles / peers as f64,
            cost.data_cycles / peers as f64,
        );
    }

    println!(
        "\nexpected shape (paper): RLNC fastest, LTNC close behind with some overhead,\n\
         WC slowest; LTNC's decoding cost is orders of magnitude below RLNC's."
    );
}
