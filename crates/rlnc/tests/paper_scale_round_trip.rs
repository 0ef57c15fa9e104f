//! One RLNC generation at the paper's scale (k = 2048, m = 1 KiB) from a
//! source through sparse recoding to a sink, pinning what the two-pass
//! decode (`Gf2Solver::solve` on the combinations, then
//! `Recipes::replay` onto the payloads) must keep and what it buys:
//!
//! * the natives come back bit-exact;
//! * the decoder's counters are the operations executed — the row operations
//!   of a solver fed the same vectors, and the payload XORs a replay of that
//!   solver's recipes in groups of 8 row ids performs, table construction
//!   included (counted here from the recipes, as `ltnc-gf2`'s
//!   `kernel_equivalence` does for every other group size);
//! * the per-recipe fold this replaced (one XOR per recipe bit, ≈ k²/2)
//!   would have spent more than three times as many payload XORs.

use ltnc_gf2::{EncodedPacket, Gf2Solver, Payload};
use ltnc_metrics::OpKind;
use ltnc_rlnc::RlncNode;
use rand::rngs::SmallRng;
use rand::{RngCore, SeedableRng};

#[test]
fn k2048_generation_round_trips_with_counters_equal_to_the_work_done() {
    let (k, m) = (2048, 1024);
    let mut rng = SmallRng::seed_from_u64(2048);
    let natives: Vec<Payload> = (0..k)
        .map(|_| {
            let mut bytes = vec![0u8; m];
            rng.fill_bytes(&mut bytes);
            Payload::from_vec(bytes)
        })
        .collect();
    let mut source = RlncNode::new(k, m);
    for (i, native) in natives.iter().enumerate() {
        source.receive(&EncodedPacket::native(k, i, native.clone()));
    }

    // The sink, and beside it a bare solver fed the same code vectors.
    let mut sink = RlncNode::new(k, m);
    let mut shadow = Gf2Solver::new(k, k);
    let mut offers = 0;
    while !sink.is_complete() {
        offers += 1;
        assert!(offers < 2 * k, "the sink did not converge");
        let packet = source.recode(&mut rng).unwrap();
        shadow.insert_if_innovative(packet.vector());
        sink.receive(&packet);
    }
    assert_eq!(sink.innovative_count(), k);
    assert_eq!(sink.decode().unwrap(), natives);

    let recipes = shadow.solve().unwrap();
    let counters = sink.decoding_counters();
    assert_eq!(counters.get(OpKind::RowReduction), shadow.row_ops());

    // 256 groups of 8 row ids: 254 XORs build a group's table (entry 0 is
    // zero, entry 1 a copy), and a native pays one XOR per group its recipe
    // touches — against one per recipe bit before.
    let t = recipes.group_size(m);
    assert_eq!(t, 8);
    let (mut lookups, mut recipe_bits) = (0, 0);
    for native in 0..k {
        // Row ids come in increasing order, so a group's ids are adjacent.
        let mut groups: Vec<usize> = recipes.recipe(native).map(|id| id / t).collect();
        recipe_bits += groups.len() as u64;
        groups.dedup();
        lookups += groups.len() as u64;
    }
    let replay_xors = (k / t) as u64 * 254 + lookups;
    assert_eq!(counters.get(OpKind::PayloadXor), replay_xors);
    assert!(3 * replay_xors < recipe_bits, "replay {replay_xors} vs per-recipe fold {recipe_bits}");
}
