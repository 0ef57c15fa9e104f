//! End-to-end integration tests across the whole workspace: the simulator
//! drives real LTNC / RLNC / WC nodes and every completed node must hold the
//! original content bit-for-bit.

use ltnc_sim::{Engine, SchemeKind, SimConfig};

fn quick(scheme: SchemeKind, seed: u64) -> SimConfig {
    let mut c = SimConfig::quick(scheme);
    c.nodes = 50;
    c.code_length = 32;
    c.payload_size = 16;
    c.max_periods = 10_000;
    c.seed = seed;
    c
}

#[test]
fn all_three_schemes_disseminate_the_same_content() {
    for scheme in SchemeKind::ALL {
        let report = Engine::new(quick(scheme, 1)).run();
        assert_eq!(report.completed_nodes, 50, "{}: not every node completed", scheme.label());
        assert!(report.content_verified, "{}: content mismatch", scheme.label());
        assert!(report.completion_period.is_some());
    }
}

#[test]
fn ltnc_trades_overhead_for_decoding_cost() {
    // The traffic half of the paper's headline trade-off, checked end-to-end
    // on the simulator: LTNC sends somewhat more payloads than RLNC, while
    // both stay ahead of WC on completion time.
    //
    // The other half — LTNC decodes dramatically cheaper on the data plane —
    // is asserted at the k where the paper makes the claim (k = 2048, Figure
    // 8d) by `ltnc_decodes_with_an_order_of_magnitude_fewer_payload_xors_than_rlnc`
    // in `crates/core/tests/paper_claims.rs`. It used to be compared here too,
    // at this deliberately tiny k = 32, where it was never the paper's claim:
    // a Gaussian recipe over 32 rows is ~16 payloads long and belief
    // propagation has little to save, so the ratio sat at 0.67 against the
    // old one-XOR-per-recipe-bit baseline. With RLNC's replay tabulating
    // groups of four rows (ISSUE 17) the honest baseline at k = 32 is as cheap
    // as BP; the gap only opens with k (k²/2 → ≈ k²/7 for RLNC, k·log k for
    // LTNC).
    let ltnc = Engine::new(quick(SchemeKind::Ltnc, 2)).run();
    let rlnc = Engine::new(quick(SchemeKind::Rlnc, 2)).run();
    let wc = Engine::new(quick(SchemeKind::Wc, 2)).run();

    // Overhead: RLNC ≈ 0, LTNC ≥ RLNC.
    assert!(rlnc.overhead_percent() < 1.0);
    assert!(ltnc.overhead_percent() >= rlnc.overhead_percent());

    // Dissemination: both coded schemes beat WC.
    assert!(ltnc.avg_time_to_complete < wc.avg_time_to_complete);
    assert!(rlnc.avg_time_to_complete < wc.avg_time_to_complete);
}

#[test]
fn feedback_channel_reduces_wasted_payloads() {
    let mut with = quick(SchemeKind::Ltnc, 3);
    with.feedback = true;
    let mut without = quick(SchemeKind::Ltnc, 3);
    without.feedback = false;
    let with = Engine::new(with).run();
    let without = Engine::new(without).run();
    assert!(with.transfers_aborted > 0, "feedback should abort some transfers");
    assert_eq!(without.transfers_aborted, 0);
    assert!(
        with.payloads_delivered < without.payloads_delivered,
        "feedback should save payload transfers ({} vs {})",
        with.payloads_delivered,
        without.payloads_delivered
    );
    assert!(with.content_verified && without.content_verified);
}

#[test]
fn reports_expose_consistent_counters() {
    let report = Engine::new(quick(SchemeKind::Ltnc, 4)).run();
    assert!(report.useful_deliveries <= report.payloads_delivered);
    assert!(report.packets_recoded >= report.payloads_delivered);
    assert!(report.decoding_counters.total_ops() > 0);
    assert!(report.recoding_counters.total_ops() > 0);
    assert!(report.completion_ratio() > 0.99);
    // Every node needs at least k useful packets to decode k natives.
    assert!(report.useful_deliveries >= (report.config.nodes * report.config.code_length) as u64);
}

#[test]
fn larger_networks_still_converge() {
    let mut c = quick(SchemeKind::Ltnc, 5);
    c.nodes = 150;
    let report = Engine::new(c).run();
    assert_eq!(report.completed_nodes, 150);
    assert!(report.content_verified);
}
