//! Regression tests for the lost-natives livelock (ROADMAP item A.2).
//!
//! Refinement used to break occurrence-count ties by the smallest index,
//! so a (nearly) complete node swept the index space in order and
//! neighbouring natives entered its packets in lock-step: 42 % of the
//! degree ≥ 2 packets of a complete node at k = 2048 held two adjacent
//! indices. A relay then only ever emitted some pairs together
//! (`x106 ⊕ x107`), and a sink with that relay as its one upstream ended
//! two natives short of complete, buffering copies of the same pair for
//! ever. Ties are now broken uniformly at random.

use ltnc_core::{LtncConfig, LtncNode};
use ltnc_gf2::Payload;
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn natives(k: usize, m: usize) -> Vec<Payload> {
    (0..k).map(|i| Payload::from_vec((0..m).map(|j| (i * 7 + j * 3 + 1) as u8).collect())).collect()
}

/// Source → relay → sink, round-robin, with the header-only redundancy
/// check as the accept test of each hop. Returns the number of rounds.
///
/// Panics when a complete relay makes `2·k` offers in a row of which the
/// sink can use none: the livelock.
fn chain_rounds(k: usize, m: usize, seed: u64) -> usize {
    let nat = natives(k, m);
    let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
    let (mut relay, mut sink) = (LtncNode::new(k, m), LtncNode::new(k, m));
    let mut source_rng = SmallRng::seed_from_u64(seed);
    let mut relay_rng = SmallRng::seed_from_u64(seed + 1);
    let (mut rounds, mut fruitless) = (0, 0);
    while !sink.is_complete() {
        rounds += 1;
        if !relay.is_complete() {
            let p = source.recode(&mut source_rng).expect("a complete source always recodes");
            if !relay.is_redundant(p.vector()) {
                relay.receive(&p);
            }
        }
        let Some(p) = relay.recode(&mut relay_rng) else { continue };
        let useful = !sink.is_redundant(p.vector()) && sink.receive(&p).is_useful();
        fruitless = if useful { 0 } else { fruitless + 1 };
        assert!(
            !(relay.is_complete() && fruitless >= 2 * k),
            "seed {seed}: {fruitless} fruitless offers in a row from a complete relay, \
             sink at {}/{k} decoded with {} buffered after {rounds} rounds",
            sink.decoded_count(),
            sink.buffered_count(),
        );
    }
    assert_eq!(sink.decode().unwrap(), nat);
    rounds
}

#[test]
fn complete_relay_never_starves_its_sink() {
    for seed in 1..=8 {
        chain_rounds(512, 8, seed);
    }
}

/// The sweep that found the livelock: at the parent of ISSUE 16 seed 58
/// never finishes.
#[test]
#[ignore = "stress: 60 chains at k = 2048"]
fn complete_relay_never_starves_its_sink_at_paper_scale() {
    for seed in 1..=60 {
        chain_rounds(2048, 64, seed);
    }
}

#[test]
fn complete_node_packets_do_not_pair_up_neighbours() {
    let (k, m) = (2048, 8);
    let mut node = LtncNode::with_all_natives(k, m, &natives(k, m), LtncConfig::default());
    let mut rng = SmallRng::seed_from_u64(2048);
    let mut seen = vec![false; k];
    let (mut combined, mut with_neighbours) = (0u32, 0u32);
    for _ in 0..20 * k {
        let p = node.recode(&mut rng).unwrap();
        let ones = p.vector().ones();
        for &x in &ones {
            seen[x] = true;
        }
        if ones.len() >= 2 {
            combined += 1;
            with_neighbours += u32::from(ones.windows(2).any(|w| w[1] == w[0] + 1));
        }
    }
    assert!(seen.iter().all(|&s| s), "some natives never left the node");
    // Uniformly random members would pair neighbours in ≈ 9 % of packets.
    let share = f64::from(with_neighbours) / f64::from(combined);
    assert!(share < 0.15, "{share:.3} of degree ≥ 2 packets hold two adjacent indices");
}
