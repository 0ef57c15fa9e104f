//! Self-healing distributed storage — the outlook sketched in the paper's
//! introduction and conclusion: "LTNC can be applied to self-healing
//! distributed storage as the recoding method can be used to build new
//! LT-encoded backups in a decentralized fashion".
//!
//! The scenario: an object is stored as LT-encoded blocks spread over storage
//! nodes. When a node fails, the surviving nodes *recode* replacement blocks
//! from the encoded blocks they hold — nobody reconstructs the whole object —
//! and the new blocks still follow the LT structure so a future reader keeps
//! the cheap belief-propagation decode.
//!
//! ```text
//! cargo run --release -p ltnc-examples --bin storage_repair
//! ```

use ltnc_core::LtncNode;
use ltnc_examples::{human_bytes, random_content};
use ltnc_gf2::wire;
use ltnc_lt::{LtEncoder, RobustSoliton};
use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

const K: usize = 128; // native blocks of the stored object
const M: usize = 512; // bytes per block
const STORAGE_NODES: usize = 12;
const BLOCKS_PER_NODE: usize = 40;

fn main() {
    let mut rng = SmallRng::seed_from_u64(2026);
    let object = random_content(K, M, 9);
    println!(
        "object: {} as {K} blocks of {} across {STORAGE_NODES} storage nodes ({BLOCKS_PER_NODE} encoded blocks each)\n",
        human_bytes(K * M),
        human_bytes(M)
    );

    // 1. Initial placement: the writer LT-encodes the object and spreads
    //    encoded blocks over the storage nodes.
    let dist = RobustSoliton::for_code_length(K).expect("valid distribution");
    let mut encoder = LtEncoder::new(object.clone(), dist).expect("consistent content");
    let mut nodes: Vec<LtncNode> = (0..STORAGE_NODES).map(|_| LtncNode::new(K, M)).collect();
    for node in &mut nodes {
        for _ in 0..BLOCKS_PER_NODE {
            node.receive(&encoder.encode(&mut rng));
        }
    }

    // 2. A storage node dies. Its blocks are gone.
    let failed = 3;
    println!("node {failed} fails and loses its {BLOCKS_PER_NODE} encoded blocks");
    nodes[failed] = LtncNode::new(K, M);

    // 3. Self-healing: surviving nodes recode fresh LT-structured blocks from
    //    what they hold (no node decodes the object) and send them to the
    //    replacement node.
    let survivors: Vec<usize> = (0..STORAGE_NODES).filter(|&i| i != failed).collect();
    let mut repair_traffic = 0usize;
    while nodes[failed].stats().accepted < BLOCKS_PER_NODE as u64 {
        let &donor = survivors.choose(&mut rng).expect("survivors exist");
        let Some(block) = ({
            let donor_node = &mut nodes[donor];
            donor_node.recode(&mut rng)
        }) else {
            continue;
        };
        // The replacement node checks the block header first and skips blocks
        // it could already generate, saving repair bandwidth.
        if nodes[failed].is_redundant(block.vector()) {
            continue;
        }
        // What the block's frame puts on the wire: `k`, `m`, its code
        // vector in the shorter form, and the payload.
        repair_traffic +=
            wire::FIXED_HEADER_BYTES + wire::vector_size(block.vector()) + block.payload_size();
        nodes[failed].receive(&block);
    }
    println!(
        "repair complete: {} of repair traffic, no survivor decoded the object",
        human_bytes(repair_traffic)
    );
    for (i, node) in nodes.iter().enumerate() {
        assert!(
            node.decoded_count() < K,
            "storage node {i} should not have reconstructed the whole object"
        );
    }

    // 4. A reader collects blocks from a few nodes and decodes the object with
    //    belief propagation, proving the repaired placement is still readable.
    let mut reader = LtncNode::new(K, M);
    let mut blocks_read = 0;
    'outer: for round in 0.. {
        for node in &mut nodes {
            if let Some(block) = node.recode(&mut rng) {
                reader.receive(&block);
                blocks_read += 1;
                if reader.is_complete() {
                    break 'outer;
                }
            }
        }
        assert!(round < 100 * K, "reader could not reconstruct the object");
    }
    let recovered = reader.decode().expect("reader is complete");
    assert_eq!(recovered, object, "the repaired object must be intact");
    println!(
        "reader reconstructed the object from {blocks_read} blocks using belief propagation \
         ({} payload XORs)",
        reader.decoding_counters().data_ops()
    );
    println!("OK: storage self-healed without any full-object reconstruction");
}
