//! LT Network Codes (LTNC) — the primary contribution of the paper.
//!
//! LTNC makes LT codes usable as *network codes*: intermediary nodes holding
//! only a partial set of encoded packets can generate fresh encoded packets
//! whose statistics still look like LT codes (Robust Soliton degrees for
//! encoded packets, near-uniform degrees for native packets), so receivers
//! keep decoding with cheap belief propagation instead of Gaussian
//! elimination.
//!
//! The crate provides [`LtncNode`], the per-node state machine, built on the
//! substrates of the workspace:
//!
//! * reception — redundancy detection (Algorithm 3 of the paper), belief
//!   propagation via [`ltnc_lt::BpDecoder`], and maintenance of the three
//!   complementary structures of Table I:
//!   [`DegreeIndex`] (packets grouped by degree), [`ComponentTracker`]
//!   (connected components of natives under degree ≤ 2 packets) and
//!   [`OccurrenceTracker`] (occurrences of natives in previously sent packets);
//! * emission — degree picking with reachability heuristics (§III-B.1), the
//!   greedy build of Algorithm 1 and the refinement of Algorithm 2;
//! * feedback — the "smart" innovative-packet construction of Algorithm 4 for
//!   systems with a feedback channel.
//!
//! # Example
//!
//! ```
//! use ltnc_core::{LtncNode, LtncConfig};
//! use ltnc_gf2::Payload;
//! use rand::SeedableRng;
//! use rand::rngs::SmallRng;
//!
//! let k = 32;
//! let m = 8;
//! let natives: Vec<Payload> = (0..k).map(|i| Payload::from_vec(vec![i as u8; m])).collect();
//! let mut rng = SmallRng::seed_from_u64(42);
//!
//! // The source holds the full content; a downstream node decodes from the
//! // source's recoded packets only, using belief propagation.
//! let mut source = LtncNode::with_all_natives(k, m, &natives, LtncConfig::default());
//! let mut sink = LtncNode::new(k, m);
//! while !sink.is_complete() {
//!     if let Some(packet) = source.recode(&mut rng) {
//!         sink.receive(&packet);
//!     }
//! }
//! assert_eq!(sink.decode().unwrap(), natives);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod build;
mod components;
mod config;
mod degree_index;
mod feedback;
mod node;
mod occurrences;
mod pick;
mod redundancy;
mod refine;
mod stats;

pub use components::{ComponentTracker, DECODED_CLASS};
pub use config::LtncConfig;
pub use degree_index::DegreeIndex;
pub use node::{LtncNode, ReceiveOutcome};
pub use occurrences::OccurrenceTracker;
pub use stats::{OccurrenceSpread, RecodeStats};

#[cfg(test)]
mod node_tests {
    use super::*;
    use ltnc_gf2::{CodeVector, EncodedPacket, Payload};
    use ltnc_lt::{BpDecoder, DegreeDistribution, LtEncoder, RobustSoliton};
    use ltnc_metrics::Histogram;
    use proptest::prelude::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn natives(k: usize, m: usize) -> Vec<Payload> {
        (0..k)
            .map(|i| Payload::from_vec((0..m).map(|j| (i * 29 + j * 3 + 1) as u8).collect()))
            .collect()
    }

    fn packet(k: usize, indices: &[usize], nat: &[Payload]) -> EncodedPacket {
        let mut payload = Payload::zero(nat[0].len());
        for &i in indices {
            payload.xor_assign(&nat[i]);
        }
        EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
    }

    fn assert_consistent(p: &EncodedPacket, nat: &[Payload]) {
        let mut expected = Payload::zero(nat[0].len());
        for i in p.vector().iter_ones() {
            expected.xor_assign(&nat[i]);
        }
        assert_eq!(p.payload(), &expected, "payload does not match code vector");
    }

    /// The structures recoding reads incrementally against what a pass over
    /// the decoder's state gives: coverage against its O(buffer) oracle at
    /// every degree, the degree index against the Tanner graph, the
    /// occurrence groups against the component labels.
    fn assert_structures_match_the_decoder(node: &LtncNode) {
        let oracle = node.coverage_by_degree();
        for d in 0..=node.k {
            let expected = oracle[d.min(oracle.len() - 1)];
            assert_eq!(node.coverage.up_to(d), expected, "coverage up to degree {d}");
        }
        node.degree_index.assert_consistent();
        assert_eq!(node.degree_index.len(), node.decoder.graph().len());
        for (degree, id) in node.degree_index.iter() {
            assert_eq!(node.decoder.graph().degree(id), Some(degree), "{id:?}");
        }
        node.occurrences.assert_consistent();
        for x in 0..node.k {
            assert_eq!(node.occurrences.group_of(x), node.cc.label_of(x), "group of x{x}");
            assert_eq!(node.cc.is_decoded(x), node.decoder.is_decoded(x), "x{x} decoded");
        }
    }

    /// Algorithm 3 against exact elimination, in both directions: every
    /// probe `is_redundant` refuses is in the span of the node's holdings (a
    /// unit row per decoded native, every buffered packet's current vector),
    /// and every XOR of decoded natives and buffered degree-2 packets, of any
    /// degree, is refused.
    fn assert_redundancy_is_exact<R: Rng>(node: &LtncNode, rng: &mut R) {
        let k = node.k;
        let graph = node.decoder.graph();
        let decoded: Vec<CodeVector> =
            (0..k).filter(|&x| node.is_decoded(x)).map(|x| CodeVector::singleton(k, x)).collect();
        let buffered: Vec<&CodeVector> =
            graph.ids().filter_map(|id| graph.packet(id)).map(|(v, _)| v).collect();
        let holdings: Vec<&CodeVector> = decoded.iter().chain(buffered).collect();
        let mut solver = ltnc_gf2::Gf2Solver::new(k, holdings.len());
        for &v in &holdings {
            solver.insert(v.clone());
        }
        // Buffered packets have degree ≥ 2: these are the decoded natives
        // and the degree-2 packets.
        let spanned: Vec<&CodeVector> =
            holdings.iter().copied().filter(|v| v.degree() <= 2).collect();
        let xor_of = |rows: &[&CodeVector], rng: &mut R| {
            let mut v = CodeVector::zero(k);
            for row in rows {
                if rng.gen_bool(0.5) {
                    v.xor_assign(row);
                }
            }
            v
        };
        for _ in 0..8 {
            let cheap = xor_of(&spanned, rng);
            assert!(node.is_redundant(&cheap), "{:?} is spanned yet accepted", cheap.ones());
            let mut near = xor_of(&holdings, rng);
            if rng.gen_bool(0.5) {
                near.flip(rng.gen_range(0..k));
            }
            let degree = rng.gen_range(0..=k);
            let wild =
                CodeVector::from_indices(k, &rand::seq::index::sample(rng, k, degree).into_vec());
            for probe in [near, wild] {
                assert!(
                    !node.is_redundant(&probe) || !solver.is_innovative(&probe),
                    "{:?} is innovative yet refused",
                    probe.ones()
                );
            }
        }
    }

    #[test]
    fn fresh_node_is_empty() {
        let node = LtncNode::new(16, 4);
        assert_eq!(node.code_length(), 16);
        assert_eq!(node.payload_size(), 4);
        assert_eq!(node.decoded_count(), 0);
        assert!(!node.is_complete());
        assert!(!node.can_recode());
        assert_eq!(node.buffered_count(), 0);
        assert!(node.decoding_counters().is_empty());
    }

    #[test]
    fn recode_on_empty_node_returns_none() {
        let mut node = LtncNode::new(16, 4);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(node.recode(&mut rng).is_none());
    }

    #[test]
    fn with_all_natives_is_complete() {
        let k = 8;
        let nat = natives(k, 2);
        let node = LtncNode::with_all_natives(k, 2, &nat, LtncConfig::default());
        assert!(node.is_complete());
        assert_eq!(node.decode().unwrap(), nat);
        for (i, p) in nat.iter().enumerate() {
            assert_eq!(node.native(i), Some(p));
        }
    }

    #[test]
    fn source_to_sink_recoding_decodes_everything() {
        let k = 64;
        let m = 8;
        let nat = natives(k, m);
        let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut sink = LtncNode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(2024);
        let mut sent = 0;
        while !sink.is_complete() {
            let p = source.recode(&mut rng).expect("source can always recode");
            assert_consistent(&p, &nat);
            sink.receive(&p);
            sent += 1;
            assert!(sent < 30 * k, "sink did not converge after {sent} packets");
        }
        assert_eq!(sink.decode().unwrap(), nat);
    }

    #[test]
    fn multi_hop_recoding_from_partial_knowledge() {
        // source -> relay -> sink: the relay recodes from *encoded* packets
        // only (it never needs to decode first) — the defining capability of
        // LTNC compared to earlier distributed LT constructions.
        let k = 48;
        let m = 4;
        let nat = natives(k, m);
        let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut relay = LtncNode::new(k, m);
        let mut sink = LtncNode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(7);
        let mut rounds = 0;
        while !sink.is_complete() {
            rounds += 1;
            assert!(rounds < 200 * k, "did not converge");
            if let Some(p) = source.recode(&mut rng) {
                relay.receive(&p);
            }
            if relay.can_recode() {
                if let Some(p) = relay.recode(&mut rng) {
                    assert_consistent(&p, &nat);
                    sink.receive(&p);
                }
            }
        }
        assert_eq!(sink.decode().unwrap(), nat);
        // The relay does not need to be complete for the sink to finish —
        // recoding works from partial, encoded-only knowledge.
        assert!(relay.stats().recoded_packets > 0);
    }

    #[test]
    fn recoded_degrees_follow_a_soliton_like_distribution() {
        // Fresh packets from a full-knowledge node must match the Robust
        // Soliton closely: that is the property that keeps belief propagation
        // efficient downstream.
        let k = 128;
        let m = 1;
        let nat = natives(k, m);
        let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut rng = SmallRng::seed_from_u64(5);
        let mut hist = Histogram::new();
        let n = 5000;
        for _ in 0..n {
            let p = source.recode(&mut rng).unwrap();
            hist.record(p.degree());
        }
        let soliton = RobustSoliton::for_code_length(k).unwrap();
        // Compare empirical frequencies with the target pmf on low degrees
        // (the mass that matters for belief propagation).
        for d in 1..=4 {
            let expected = soliton.pmf(d);
            let observed = hist.probability(d);
            assert!(
                (observed - expected).abs() < 0.05,
                "degree {d}: expected ≈ {expected:.3}, observed {observed:.3}"
            );
        }
        // Mean degree stays logarithmic.
        assert!(hist.mean() < 3.0 * (k as f64).ln());
    }

    #[test]
    fn ltnc_packets_decode_with_plain_bp_decoder() {
        // Interoperability: packets recoded by LTNC must be decodable by the
        // plain LT belief-propagation decoder (they are ordinary LT-style
        // packets as far as the decoder is concerned).
        let k = 64;
        let m = 4;
        let nat = natives(k, m);
        let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut decoder = BpDecoder::new(k, m);
        let mut rng = SmallRng::seed_from_u64(77);
        let mut sent = 0;
        while !decoder.is_complete() {
            let p = source.recode(&mut rng).unwrap();
            decoder.insert(p).unwrap();
            sent += 1;
            assert!(sent < 40 * k, "BP decoder did not converge");
        }
        for (i, expected) in nat.iter().enumerate() {
            assert_eq!(decoder.native(i), Some(expected));
        }
    }

    #[test]
    fn decoding_cost_is_much_lower_than_rank_squared() {
        // The headline claim: belief-propagation decoding of LTNC packets does
        // payload work per native close to the mean degree (O(log k)), not O(k).
        let k = 256;
        let m = 1;
        let nat = natives(k, m);
        let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut sink = LtncNode::new(k, m);
        let mut rng = SmallRng::seed_from_u64(3);
        while !sink.is_complete() {
            let p = source.recode(&mut rng).unwrap();
            sink.receive(&p);
        }
        let payload_ops = sink.decoding_counters().data_ops() as f64;
        let per_native = payload_ops / k as f64;
        assert!(
            per_native < 4.0 * (k as f64).ln(),
            "decode data ops per native too high: {per_native}"
        );
    }

    #[test]
    fn recode_stats_match_paper_ballpark() {
        // §III-B reports: first degree draw accepted ≈ 99.9 %, build reaches
        // the target ≈ 95 % of the time. From a well-provisioned node we
        // should be in the same regime (we assert conservative bounds).
        let k = 128;
        let m = 1;
        let nat = natives(k, m);
        let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..2000 {
            source.recode(&mut rng).unwrap();
        }
        let stats = source.stats();
        assert!(stats.first_pick_accept_rate() > 0.99, "{}", stats.first_pick_accept_rate());
        assert!(stats.target_reached_rate() > 0.90, "{}", stats.target_reached_rate());
        assert!(stats.average_relative_deviation() < 0.05);
        assert!(stats.average_draws() < 1.1);
    }

    #[test]
    fn occurrence_spread_stays_small_with_refinement() {
        let k = 64;
        let m = 1;
        let nat = natives(k, m);
        let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
        let mut rng = SmallRng::seed_from_u64(13);
        for _ in 0..2000 {
            source.recode(&mut rng).unwrap();
        }
        let spread = source.occurrence_spread();
        assert!(spread.mean > 0.0);
        assert!(
            spread.relative_std_dev < 0.1,
            "relative std-dev {} too high",
            spread.relative_std_dev
        );
    }

    #[test]
    fn partial_node_recodes_consistent_packets() {
        // A node that has only received encoded packets (nothing decoded yet)
        // can still emit consistent fresh packets.
        let k = 32;
        let m = 2;
        let nat = natives(k, m);
        let dist = RobustSoliton::for_code_length(k).unwrap();
        let mut enc = LtEncoder::new(nat.clone(), dist).unwrap();
        let mut rng = SmallRng::seed_from_u64(21);
        let mut node = LtncNode::new(k, m);
        for _ in 0..k / 2 {
            node.receive(&enc.encode(&mut rng));
        }
        assert!(node.can_recode());
        let mut emitted = 0;
        for _ in 0..100 {
            if let Some(p) = node.recode(&mut rng) {
                assert_consistent(&p, &nat);
                assert!(p.degree() >= 1);
                emitted += 1;
            }
        }
        assert!(emitted > 0);
    }

    #[test]
    fn received_counters_and_stats_are_coherent() {
        let k = 16;
        let m = 2;
        let nat = natives(k, m);
        let mut node = LtncNode::new(k, m);
        node.receive(&packet(k, &[0], &nat));
        node.receive(&packet(k, &[0], &nat)); // rejected by redundancy detection
        node.receive(&packet(k, &[1, 2], &nat));
        assert_eq!(node.received_count(), 3);
        assert_eq!(node.stats().redundant_rejected, 1);
        assert_eq!(node.stats().accepted, 2);
        assert_eq!(node.decoded_count(), 1);
        assert_eq!(node.buffered_count(), 1);
    }

    #[test]
    fn redundancy_detection_reduces_buffered_duplicates() {
        // Feed the same stream to a node with and without Algorithm 3; the
        // detecting node must reject some packets and still decode as much.
        let k = 64;
        let m = 1;
        let nat = natives(k, m);
        let dist = RobustSoliton::for_code_length(k).unwrap();
        let mut enc = LtEncoder::new(nat.clone(), dist).unwrap();
        let mut rng = SmallRng::seed_from_u64(5);
        let stream: Vec<EncodedPacket> = (0..6 * k).map(|_| enc.encode(&mut rng)).collect();

        let mut with = LtncNode::new(k, m);
        let mut without =
            LtncNode::with_config(k, m, LtncConfig::default().without_redundancy_detection());
        for p in &stream {
            with.receive(p);
            without.receive(p);
        }
        assert!(with.stats().redundant_rejected > 0);
        // Both nodes end up decoding the same content.
        assert_eq!(with.is_complete(), without.is_complete());
        assert_eq!(with.decoded_count(), without.decoded_count());
    }

    #[test]
    #[should_panic(expected = "code length mismatch")]
    fn receive_rejects_wrong_code_length() {
        let mut node = LtncNode::new(8, 2);
        node.receive(&EncodedPacket::new(CodeVector::singleton(9, 0), Payload::zero(2)));
    }

    #[test]
    #[should_panic(expected = "payload size mismatch")]
    fn receive_rejects_wrong_payload_size() {
        let mut node = LtncNode::new(8, 2);
        node.receive(&EncodedPacket::new(CodeVector::singleton(8, 0), Payload::zero(3)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The equivalences that let the O(k) and O(buffer) routines go:
        /// after any interleaving of receptions — packets that are stored,
        /// that belief propagation reduces and consumes, duplicates, with and
        /// without the redundancy detection that keeps cycles out of the
        /// components — and recodings, the incremental structures agree with
        /// a pass over the decoder's state, and every emitted packet's payload
        /// is the XOR of the natives its vector names, substitutions along
        /// degree-2 paths included (about seven packets per case take one),
        /// and the redundancy detection refuses every XOR of decoded natives
        /// and degree-2 packets and nothing outside the node's span.
        #[test]
        fn prop_incremental_structures_match_their_oracles(
            seed in any::<u64>(),
            k in 4usize..=64,
            detect_redundancy in proptest::bool::ANY,
            steps in 20usize..160,
        ) {
            let m = 3;
            let nat = natives(k, m);
            let config = LtncConfig { detect_redundancy, ..LtncConfig::default() };
            let mut node = LtncNode::with_config(k, m, config);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut probes = SmallRng::seed_from_u64(!seed);
            for _ in 0..steps {
                // Mostly pairs and triples (components, the degree-3 table),
                // some natives (ripples) and some wide packets (reductions).
                let degree = match rng.gen_range(0..10) {
                    0 => 1,
                    1..=4 => 2,
                    5..=6 => 3,
                    _ => rng.gen_range(1..=k / 2),
                };
                let indices: Vec<usize> =
                    rand::seq::index::sample(&mut rng, k, degree.min(k)).into_vec();
                node.receive(&packet(k, &indices, &nat));
                assert_structures_match_the_decoder(&node);
                assert_redundancy_is_exact(&node, &mut probes);
                for _ in 0..rng.gen_range(0..3) {
                    let Some(p) = node.recode(&mut rng) else { continue };
                    assert_consistent(&p, &nat);
                    assert_structures_match_the_decoder(&node);
                    assert_redundancy_is_exact(&node, &mut probes);
                }
            }

        }

        /// End-to-end property: whatever the seed and code length, a sink fed
        /// by an LTNC source converges and recovers exactly the original
        /// content, and every packet on the wire satisfies the
        /// code-vector/payload consistency invariant.
        #[test]
        fn prop_dissemination_recovers_content(seed in any::<u64>(), k in 8usize..48) {
            let m = 2;
            let nat = natives(k, m);
            let mut source = LtncNode::with_all_natives(k, m, &nat, LtncConfig::default());
            let mut sink = LtncNode::new(k, m);
            let mut rng = SmallRng::seed_from_u64(seed);
            let mut sent = 0;
            while !sink.is_complete() && sent < 60 * k {
                let p = source.recode(&mut rng).unwrap();
                assert_consistent(&p, &nat);
                sink.receive(&p);
                sent += 1;
            }
            prop_assert!(sink.is_complete(), "sink did not converge within {} packets", 60 * k);
            prop_assert_eq!(sink.decode().unwrap(), nat);
        }

        /// Reception never corrupts decoded values, no matter the packet mix
        /// (including duplicates and already-redundant packets).
        #[test]
        fn prop_decoded_values_always_correct(
            seed in any::<u64>(),
            k in 4usize..24,
            send_duplicates in proptest::bool::ANY,
        ) {
            let m = 2;
            let nat = natives(k, m);
            let mut node = LtncNode::new(k, m);
            let mut rng = SmallRng::seed_from_u64(seed);
            for _ in 0..8 * k {
                let degree = rng.gen_range(1..=3.min(k));
                let mut indices: Vec<usize> = Vec::new();
                while indices.len() < degree {
                    let x = rng.gen_range(0..k);
                    if !indices.contains(&x) {
                        indices.push(x);
                    }
                }
                let p = packet(k, &indices, &nat);
                node.receive(&p);
                if send_duplicates {
                    node.receive(&p);
                }
                for (i, expected) in nat.iter().enumerate() {
                    if let Some(v) = node.native(i) {
                        prop_assert_eq!(v, expected);
                    }
                }
            }
        }
    }
}
