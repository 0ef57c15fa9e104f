//! Algorithm 4 through the wire form. A receiver's [`Summary`], encoded
//! and decoded as an `ABORT-SUMMARY` carries it, is all a sender needs to
//! build a packet the receiver wants: the receiver's header check passes
//! it, it is useful on delivery, and it raises the receiver's rank as
//! `Gf2Solver` measures it unless the receiver's buffered packets of
//! degree three or more already span it, which no summary shows: always
//! when the receiver holds nothing of higher degree, ≈ 87 % of the time
//! when it holds recoded packets. A sender that folds its smart packets
//! into the summary it holds ([`Summary::fold`]) never claims more than
//! the receiver holds once it has taken them, and claims exactly that
//! when the receiver holds nothing of higher degree.

use ltnc_core::{LtncConfig, LtncNode, Summary};
use ltnc_gf2::{CodeVector, EncodedPacket, Gf2Solver, Payload};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const M: usize = 4;

fn natives(k: usize, seed: u64) -> Vec<Payload> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..k).map(|_| Payload::from_vec((0..M).map(|_| rng.gen()).collect())).collect()
}

fn combination(k: usize, indices: &[usize], natives: &[Payload]) -> EncodedPacket {
    let mut payload = Payload::zero(M);
    for &i in indices {
        payload.xor_assign(&natives[i]);
    }
    EncodedPacket::new(CodeVector::from_indices(k, indices), payload)
}

/// A receiver and the solver of every vector it took in.
struct Receiver {
    node: LtncNode,
    solver: Gf2Solver,
}

impl Receiver {
    fn new(k: usize) -> Receiver {
        Receiver { node: LtncNode::new(k, M), solver: Gf2Solver::new(k, 8 * k) }
    }

    /// Delivers `packet` if the header check lets it through.
    fn offer(&mut self, packet: &EncodedPacket) {
        if !self.node.is_redundant(packet.vector()) {
            self.node.receive(packet);
            self.solver.insert_if_innovative(packet.vector());
        }
    }
}

/// Natives and pairs of natives, `count` of them: what a node holds when
/// its decoded set and components span all it received.
fn low_degree(
    k: usize,
    count: usize,
    natives: &[Payload],
    rng: &mut SmallRng,
) -> Vec<EncodedPacket> {
    (0..count)
        .map(|_| {
            let x = rng.gen_range(0..k);
            let y = rng.gen_range(0..k);
            let pair = if x == y || rng.gen_bool(0.3) { vec![x] } else { vec![x, y] };
            combination(k, &pair, natives)
        })
        .collect()
}

/// Summarises `receiver`, sends the summary through its wire form, and
/// returns the smart packet `sender` builds from what arrived.
fn smart_through_the_wire(
    sender: &mut LtncNode,
    receiver: &LtncNode,
    rng: &mut SmallRng,
) -> Option<EncodedPacket> {
    let summary = receiver.summary();
    let mut bytes = Vec::new();
    summary.encode_into(&mut bytes);
    let (arrived, len) = Summary::decode_prefix(&bytes).expect("a summary decodes");
    assert_eq!((len, &arrived), (bytes.len(), &summary), "the wire form round-trips");
    sender.smart_packet(&arrived.labels(), rng)
}

/// Checks one smart packet against the receiver; returns whether it
/// raised the receiver's rank.
fn check(packet: &EncodedPacket, receiver: &mut Receiver, natives: &[Payload]) -> bool {
    assert!(packet.degree() <= 2, "a smart packet has degree 1 or 2");
    let indices: Vec<usize> = packet.vector().iter_ones().collect();
    assert_eq!(packet, &combination(packet.code_length(), &indices, natives), "consistent");
    assert!(!receiver.node.is_redundant(packet.vector()), "the header check refused it");
    let innovative = receiver.solver.is_innovative(packet.vector());
    let rank = receiver.solver.rank();
    assert!(receiver.node.receive(packet).is_useful(), "a smart packet was useless");
    receiver.solver.insert_if_innovative(packet.vector());
    assert_eq!(receiver.solver.rank(), rank + usize::from(innovative));
    innovative
}

#[test]
fn a_summary_of_low_degree_holdings_yields_a_packet_that_raises_the_rank() {
    let mut built = 0;
    for (case, &k) in [16usize, 128].iter().cycle().take(60).enumerate() {
        let mut rng = SmallRng::seed_from_u64(case as u64);
        let natives = natives(k, case as u64);
        let (mut sender, mut receiver) = (LtncNode::new(k, M), Receiver::new(k));
        for packet in low_degree(k, rng.gen_range(k / 2..2 * k), &natives, &mut rng) {
            sender.receive(&packet);
        }
        for packet in low_degree(k, rng.gen_range(0..k), &natives, &mut rng) {
            receiver.offer(&packet);
        }
        // Holdings of degree ≤ 2 are spanned by what the summary shows, so
        // every smart packet raises the rank, until none is left.
        while let Some(packet) = smart_through_the_wire(&mut sender, &receiver.node, &mut rng) {
            assert!(check(&packet, &mut receiver, &natives), "k = {k}, case {case}");
            built += 1;
        }
    }
    assert!(built > 500, "only {built} smart packets were built");
}

#[test]
fn a_recoding_pair_builds_smart_packets_the_receiver_uses() {
    let (mut built, mut raised) = (0, 0);
    for (case, &k) in [16usize, 128].iter().cycle().take(40).enumerate() {
        let mut rng = SmallRng::seed_from_u64(100 + case as u64);
        let natives = natives(k, case as u64);
        let mut source = LtncNode::with_all_natives(k, M, &natives, LtncConfig::default());
        let (mut sender, mut receiver) = (LtncNode::new(k, M), Receiver::new(k));
        for _ in 0..rng.gen_range(k / 2..3 * k) {
            let packet = source.recode(&mut rng).expect("a source recodes");
            if !sender.is_redundant(packet.vector()) {
                sender.receive(&packet);
            }
        }
        for _ in 0..rng.gen_range(0..k) {
            receiver.offer(&source.recode(&mut rng).expect("a source recodes"));
        }
        for _ in 0..k {
            let Some(packet) = smart_through_the_wire(&mut sender, &receiver.node, &mut rng) else {
                break;
            };
            built += 1;
            raised += usize::from(check(&packet, &mut receiver, &natives));
        }
    }
    assert!(built > 300, "only {built} smart packets were built");
    assert!(raised * 5 >= built * 4, "{raised} of {built} smart packets raised the rank");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// A sender holds a receiver's summary and sends it up to `k` smart
    /// packets in a row, folding each into the copy, as the offers in
    /// flight on one link do. After each, the copy claims no more than the
    /// receiver's own summary once it took the packet: a native the copy
    /// says is decoded is decoded there, and two natives the copy puts in
    /// one component share one there, or are both decoded. A receiver
    /// that took only natives and pairs ends where the copy does.
    #[test]
    fn a_folded_summary_never_claims_more_than_the_receiver_holds(seed in any::<u64>()) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let k = [8usize, 16, 64][rng.gen_range(0..3)];
        let natives = natives(k, seed);
        let mut source = LtncNode::with_all_natives(k, M, &natives, LtncConfig::default());
        let mut sender = if rng.gen_bool(0.3) {
            LtncNode::with_all_natives(k, M, &natives, LtncConfig::default())
        } else {
            let mut sender = LtncNode::new(k, M);
            for packet in low_degree(k, rng.gen_range(k / 2..2 * k), &natives, &mut rng) {
                sender.receive(&packet);
            }
            sender
        };
        // Natives and pairs only, or recodes of every degree.
        let low = rng.gen_bool(0.5);
        let mut receiver = Receiver::new(k);
        if low {
            for packet in low_degree(k, rng.gen_range(0..k), &natives, &mut rng) {
                receiver.offer(&packet);
            }
        } else {
            for _ in 0..rng.gen_range(0..k) {
                receiver.offer(&source.recode(&mut rng).expect("a source recodes"));
            }
        }
        let mut held = receiver.node.summary();
        for _ in 0..k {
            let Some(packet) = sender.smart_packet(&held.labels(), &mut rng) else { break };
            held.fold(packet.vector());
            receiver.offer(&packet);
            let truth = receiver.node.summary();
            let (claimed, holds) = (held.labels(), truth.labels());
            for x in 0..k {
                prop_assert!(claimed[x] != 0 || holds[x] == 0, "native {} is not decoded", x);
                for y in x + 1..k {
                    prop_assert!(
                        claimed[x] != claimed[y] || holds[x] == holds[y],
                        "natives {} and {} do not share a component",
                        x,
                        y
                    );
                }
            }
            if low {
                prop_assert_eq!(&held, &truth);
            }
        }
    }
}
