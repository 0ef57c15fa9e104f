//! Ledger closure on the chains: the spans' self times add up to the
//! operation's wall time, and the counts the program makes repeat exactly
//! for a seed — so a later change may rest a claim on them.

use std::time::Instant;

use ltnc_ledger::run::{run, RunConfig};
use ltnc_ledger::workload::Metrics;

fn traced(workload: &str, seed: u64) -> Metrics {
    let config = RunConfig {
        workload: workload.to_string(),
        seed,
        // Only sizes the probes here: the operations are counted.
        seconds: 0.5,
        traced: true,
        ops: Some(2),
        quick: false,
        corrupt_reference: false,
    };
    let result = run(&config, Instant::now()).expect("the chain sets up");
    assert_eq!(result.tally.failed, 0, "{workload}: of {} ops", result.tally.attempted);
    result.metrics
}

/// The metrics that are counts made by the program under test.
fn counts(metrics: &Metrics) -> Metrics {
    let exact = |name: &str| {
        name.starts_with("chain.decode.")
            || name.starts_with("chain.recode.")
            || name == "chain.src_symbols_per_k"
            || name == "chain.relay_symbols_per_k"
    };
    metrics.iter().copied().filter(|(name, _)| exact(name)).collect()
}

fn value(metrics: &Metrics, name: &str) -> f64 {
    metrics.iter().find(|m| m.0 == name).unwrap_or_else(|| panic!("{name} is reported")).1
}

fn closes(workload: &str) {
    let first = traced(workload, 42);
    let again = traced(workload, 42);
    let other = traced(workload, 7);

    assert_eq!(counts(&first).len(), 20, "two symbol counts and eighteen op-kind tallies");
    assert_eq!(counts(&first), counts(&again), "{workload}: counts must repeat for a seed");
    assert_ne!(counts(&first), counts(&other), "{workload}: another seed, other inputs");

    for metrics in [&first, &again, &other] {
        let coverage = value(metrics, "chain.ledger_coverage");
        assert!((0.95..=1.0).contains(&coverage), "{workload}: ledger coverage {coverage}");
        assert!(value(metrics, "trace.spans") > 1000.0, "{workload}: spans were recorded");
    }
}

#[test]
fn ltnc_chain_ledger_closes_and_counts_repeat() {
    closes("chain_ltnc_k2048");
}

#[test]
fn rlnc_chain_ledger_closes_and_counts_repeat() {
    closes("chain_rlnc_k2048");
}
