//! Cross-crate interoperability: LTNC, plain LT codes and RLNC all speak the
//! same GF(2) packet format, so packets produced by one encoder are consumable
//! by the other decoders (LTNC packets are ordinary linear combinations).

use ltnc_core::{LtncConfig, LtncNode};
use ltnc_integration::{assert_packet_consistent, random_content};
use ltnc_lt::{BpDecoder, LtEncoder, RobustSoliton};
use ltnc_rlnc::RlncNode;
use rand::rngs::SmallRng;
use rand::SeedableRng;

#[test]
fn rlnc_decodes_packets_recoded_by_ltnc() {
    // RLNC's Gaussian decoder accepts any linear combination, so a stream of
    // LTNC packets must be decodable by it (the converse does not hold:
    // belief propagation needs the LT structure RLNC destroys).
    let k = 48;
    let m = 16;
    let content = random_content(k, m, 1);
    let mut source = LtncNode::with_all_natives(k, m, &content, LtncConfig::default());
    let mut sink = RlncNode::new(k, m);
    let mut rng = SmallRng::seed_from_u64(5);
    let mut sent = 0;
    while !sink.is_complete() {
        let p = source.recode(&mut rng).expect("source can recode");
        assert_packet_consistent(&p, &content);
        sink.receive(&p);
        sent += 1;
        assert!(sent < 50 * k, "RLNC sink did not converge on LTNC packets");
    }
    assert_eq!(sink.decode().unwrap(), content);
}

#[test]
fn plain_bp_decoder_handles_source_encoded_and_recoded_mix() {
    // A receiver may see a mix of packets straight from the source encoder and
    // packets recoded by LTNC relays; the plain BP decoder handles both.
    let k = 64;
    let m = 8;
    let content = random_content(k, m, 2);
    let dist = RobustSoliton::for_code_length(k).unwrap();
    let mut encoder = LtEncoder::new(content.clone(), dist).unwrap();
    let mut relay = LtncNode::new(k, m);
    let mut decoder = BpDecoder::new(k, m);
    let mut rng = SmallRng::seed_from_u64(3);
    let mut budget = 0;
    while !decoder.is_complete() {
        budget += 1;
        assert!(budget < 100 * k, "decoder did not converge on the mixed stream");
        let source_packet = encoder.encode(&mut rng);
        relay.receive(&source_packet);
        decoder.insert(source_packet).unwrap();
        if relay.can_recode() {
            if let Some(p) = relay.recode(&mut rng) {
                assert_packet_consistent(&p, &content);
                decoder.insert(p).unwrap();
            }
        }
    }
    for (i, native) in content.iter().enumerate() {
        assert_eq!(decoder.native(i), Some(native));
    }
}

#[test]
fn ltnc_node_consumes_rlnc_packets_without_corruption() {
    // Sparse RLNC packets do not follow the Robust Soliton structure, so an
    // LTNC node fed exclusively by them may decode slowly — but it must never
    // produce wrong payloads, and with the degree-1 packets of the source mixed
    // in it still completes.
    let k = 32;
    let m = 8;
    let content = random_content(k, m, 7);
    let mut rlnc_source = RlncNode::new(k, m);
    for (i, p) in content.iter().enumerate() {
        rlnc_source.receive(&ltnc_gf2::EncodedPacket::native(k, i, p.clone()));
    }
    let mut sink = LtncNode::new(k, m);
    let mut rng = SmallRng::seed_from_u64(11);
    for _ in 0..20 * k {
        let p = rlnc_source.recode(&mut rng).unwrap();
        sink.receive(&p);
        for (i, expected) in content.iter().enumerate() {
            if let Some(v) = sink.native(i) {
                assert_eq!(v, expected, "decoded native {i} is corrupted");
            }
        }
    }
    // Top up with native packets so the sink completes regardless of how the
    // random structure treated belief propagation.
    for (i, p) in content.iter().enumerate() {
        if !sink.is_decoded(i) {
            sink.receive(&ltnc_gf2::EncodedPacket::native(k, i, p.clone()));
        }
    }
    assert!(sink.is_complete());
    assert_eq!(sink.decode().unwrap(), content);
}

#[test]
fn wire_format_roundtrip_between_crates() {
    // The packet type is shared; an LT-structured recode names a few natives,
    // so its vector goes on the wire shorter than the paper's ⌈k/8⌉-byte
    // bitmap (plus the form byte), and the size function is the bytes written.
    let k = 2048;
    let m = 32;
    let content = random_content(k, m, 4);
    let mut source = LtncNode::with_all_natives(k, m, &content, LtncConfig::default());
    let mut rng = SmallRng::seed_from_u64(1);
    let p = source.recode(&mut rng).unwrap();
    let vector_size = ltnc_gf2::wire::vector_size(p.vector());
    assert!(vector_size < 257, "degree {} took {vector_size} B", p.degree());
    assert_eq!(vector_size, ltnc_gf2::wire::encode(&p).len() - 8 - m);
    assert_packet_consistent(&p, &content);
}
