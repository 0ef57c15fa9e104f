//! Property suite pinning the word-sliced GF(2) kernels to their scalar
//! (byte- and bit-at-a-time) reference implementations.
//!
//! The word-sliced paths in `payload.rs`, `code_vector.rs` and `wire.rs`
//! process 8 bytes (or a whole cache line) per step with `chunks_exact`
//! remainder tails; every length in `0..=129` exercises the empty case,
//! sub-word payloads, exact word multiples and every tail length, plus
//! code lengths that are not multiples of 8 (partial final bitmap byte)
//! or of 64 (partial final word).
//!
//! The RLNC solver is pinned the same way: its pivot-indexed forward-sweep
//! reduction (`is_innovative`, `insert_if_innovative`, `insert`) and its
//! streaming back-substitution (`solve`) against a row-at-a-time
//! elimination over `CodeVector`s that rescans each residual from its first
//! word and clones rows for every back-substitution step, and the
//! Four-Russians `Recipes::replay` against the one-XOR-per-recipe-bit fold
//! it replaced. The old algorithms live on here, as the oracles. The wire
//! code vector's form (index list or bitmap, whichever is shorter) is
//! pinned to a bit-at-a-time encoder of both forms.

use proptest::collection::vec as pvec;
use proptest::prelude::*;

use std::collections::{BTreeMap, BTreeSet};

use ltnc_gf2::wire;
use ltnc_gf2::{CodeVector, EncodedPacket, Gf2Solver, Payload, Recipes};

/// Scalar reference: byte-at-a-time XOR.
fn xor_bytes_scalar(a: &[u8], b: &[u8]) -> Vec<u8> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x ^ y).collect()
}

/// Scalar reference: bit-at-a-time bitmap decode (the pre-word-slicing
/// wire decoder), ignoring any padding bits in the final bitmap byte.
fn bitmap_decode_scalar(len: usize, bytes: &[u8]) -> CodeVector {
    assert_eq!(bytes.len(), len.div_ceil(8));
    let mut vector = CodeVector::zero(len);
    for i in 0..len {
        if bytes[i / 8] >> (i % 8) & 1 == 1 {
            vector.set(i);
        }
    }
    vector
}

/// SplitMix64: a seedable stream for the random systems below.
struct SplitMix(u64);

impl SplitMix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn vector(&mut self, k: usize) -> CodeVector {
        let bytes: Vec<u8> = (0..k.div_ceil(8)).map(|_| self.next() as u8).collect();
        CodeVector::from_le_bytes(k, &bytes)
    }

    fn payload(&mut self, m: usize) -> Payload {
        Payload::from_vec((0..m).map(|_| self.next() as u8).collect())
    }

    /// A length-`k` vector of exactly `degree` natives, drawn by a partial
    /// Fisher–Yates shuffle.
    fn vector_of_degree(&mut self, k: usize, degree: usize) -> CodeVector {
        let mut natives: Vec<usize> = (0..k).collect();
        for i in 0..degree {
            let j = i + self.next() as usize % (k - i);
            natives.swap(i, j);
        }
        CodeVector::from_indices(k, &natives[..degree])
    }
}

/// Scalar reference: LEB128, one 7-bit group per step.
fn leb128_scalar(mut value: usize, out: &mut Vec<u8>) {
    loop {
        let group = (value & 0x7F) as u8;
        value >>= 7;
        if value == 0 {
            out.push(group);
            return;
        }
        out.push(group | 0x80);
    }
}

/// Scalar reference of both wire forms of a vector, read bit by bit: the
/// index list (`c = n + 1`, then the gaps) and the bitmap (`c = 0`, then
/// bit `i` in byte `i / 8`).
fn vector_forms_scalar(vector: &CodeVector) -> (Vec<u8>, Vec<u8>) {
    let k = vector.len();
    let natives: Vec<usize> = (0..k).filter(|&i| vector.contains(i)).collect();
    let mut list = Vec::new();
    leb128_scalar(natives.len() + 1, &mut list);
    let mut next = 0;
    for &native in &natives {
        leb128_scalar(native - next, &mut list);
        next = native + 1;
    }
    let mut bitmap = vec![0u8; 1 + k.div_ceil(8)];
    for &native in &natives {
        bitmap[1 + native / 8] |= 1 << (native % 8);
    }
    (list, bitmap)
}

/// Oracle for `Gf2Solver`: incremental row-echelon form over `CodeVector`
/// rows kept in arrival order, each reduction step looking up the pivot of
/// the residual's lowest one afresh, with the combination of original rows
/// it used; then back-substitution that eliminates each pivot column,
/// highest first, from every other row — cloning the pivot's row and
/// combination for every operation. One row operation is charged per
/// reduction step, stored or not.
struct RowEliminationOracle {
    k: usize,
    capacity: usize,
    rows: Vec<CodeVector>,
    combos: Vec<CodeVector>,
    pivots: Vec<Option<usize>>,
    inserted: usize,
    row_ops: u64,
}

impl RowEliminationOracle {
    fn new(k: usize, capacity: usize) -> Self {
        RowEliminationOracle {
            k,
            capacity,
            rows: Vec::new(),
            combos: Vec::new(),
            pivots: vec![None; k],
            inserted: 0,
            row_ops: 0,
        }
    }

    /// The residual of `vector` against the stored rows, and the stored
    /// rows it was reduced by.
    fn reduce(&self, mut vector: CodeVector) -> (CodeVector, Vec<usize>) {
        let mut used = Vec::new();
        while let Some(row) = vector.first_one().and_then(|col| self.pivots[col]) {
            vector.xor_assign(&self.rows[row]);
            used.push(row);
        }
        (vector, used)
    }

    fn is_innovative(&self, vector: &CodeVector) -> bool {
        !self.reduce(vector.clone()).0.is_zero()
    }

    /// `Gf2Solver::insert`: every row consumes an id, innovative or not.
    fn insert(&mut self, vector: CodeVector) -> bool {
        self.inserted += 1;
        self.store(vector, self.inserted - 1)
    }

    /// `Gf2Solver::insert_if_innovative`: only a stored row consumes an id.
    fn insert_if_innovative(&mut self, vector: CodeVector) -> Option<usize> {
        let id = self.inserted;
        let stored = self.store(vector, id);
        self.inserted += usize::from(stored);
        stored.then_some(id)
    }

    /// Reduces `vector` and stores the residual under `id` unless it is zero.
    fn store(&mut self, vector: CodeVector, id: usize) -> bool {
        let (residual, used) = self.reduce(vector);
        self.row_ops += used.len() as u64;
        let Some(col) = residual.first_one() else {
            return false;
        };
        let mut combo = CodeVector::singleton(self.capacity, id);
        for &row in &used {
            combo.xor_assign(&self.combos[row]);
        }
        self.pivots[col] = Some(self.rows.len());
        self.rows.push(residual);
        self.combos.push(combo);
        true
    }

    /// The recipes and the number of row operations the back-substitution spent.
    fn solve(&self) -> (Vec<CodeVector>, u64) {
        let mut rows = self.rows.clone();
        let mut combos = self.combos.clone();
        let pivot_of_col: Vec<usize> =
            (0..self.k).map(|c| self.pivots[c].expect("oracle needs full rank")).collect();
        let mut ops = 0;
        for col in (0..self.k).rev() {
            let src = pivot_of_col[col];
            for &dst in &pivot_of_col[..col] {
                if rows[dst].contains(col) {
                    let (src_row, src_combo) = (rows[src].clone(), combos[src].clone());
                    rows[dst].xor_assign(&src_row);
                    combos[dst].xor_assign(&src_combo);
                    ops += 1;
                }
            }
        }
        (pivot_of_col.iter().map(|&r| combos[r].clone()).collect(), ops)
    }
}

/// Oracle for `Recipes::replay`: one accumulator per native, one payload
/// XOR per set recipe bit. Returns the natives and the XORs spent.
fn fold_per_recipe(recipes: &Recipes, sources: &[Payload], m: usize) -> (Vec<Payload>, u64) {
    let mut xors = 0;
    let natives = (0..recipes.len())
        .map(|native| {
            let mut acc = Payload::zero(m);
            for row_id in recipes.recipe(native) {
                acc.xor_assign(&sources[row_id]);
                xors += 1;
            }
            acc
        })
        .collect();
    (natives, xors)
}

/// The payload XORs a replay with group size `t` executes: per group of
/// `t` row ids, 2^|group| − 2 for the table (entry 0 is zero, entry 1 a
/// copy) and one per native whose recipe names any row of the group.
fn replay_xors(recipes: &Recipes, t: usize) -> u64 {
    let tables: u64 = (0..recipes.row_ids())
        .step_by(t)
        .map(|first| (1u64 << t.min(recipes.row_ids() - first)) - 2)
        .sum();
    let lookups: usize = (0..recipes.len())
        .map(|native| {
            // Row ids come in increasing order, so a group's ids are adjacent.
            let mut groups: Vec<usize> = recipes.recipe(native).map(|id| id / t).collect();
            groups.dedup();
            groups.len()
        })
        .sum();
    tables + lookups as u64
}

/// A full-rank random system over `k` unknowns fed through
/// `insert_if_innovative`, so that row ids are dense: the solver, and per row
/// id the code vector that was stored under it.
fn dense_full_rank_system(k: usize, rng: &mut SplitMix) -> (Gf2Solver, Vec<CodeVector>) {
    let mut solver = Gf2Solver::new(k, k);
    let mut stored = Vec::with_capacity(k);
    while solver.rank() < k {
        let vector = rng.vector(k);
        if solver.insert_if_innovative(&vector).is_some() {
            stored.push(vector);
        }
    }
    (solver, stored)
}

/// Payload lengths covering empty, sub-word, word-aligned, cache-line
/// aligned and every remainder tail in between.
fn payload_len() -> impl Strategy<Value = usize> {
    0usize..=129
}

/// Code lengths >= 1 (a zero-length code is rejected by the wire codec).
fn code_len() -> impl Strategy<Value = usize> {
    1usize..=129
}

proptest! {
    #[test]
    fn xor_assign_matches_scalar(
        len in payload_len(),
        seed_a in any::<u8>(),
        seed_b in any::<u8>(),
    ) {
        let a: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(31).wrapping_add(seed_a)).collect();
        let b: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(17).wrapping_add(seed_b)).collect();
        let expected = xor_bytes_scalar(&a, &b);

        let mut p = Payload::from_vec(a.clone());
        p.xor_assign(&Payload::from_vec(b.clone()));
        prop_assert_eq!(p.as_bytes(), &expected[..]);

        // The non-destructive single-pass variant agrees.
        let q = Payload::from_vec(a).xor(&Payload::from_vec(b));
        prop_assert_eq!(q.as_bytes(), &expected[..]);
    }

    #[test]
    fn xor_assign_many_matches_sequential_scalar(
        len in payload_len(),
        sources in pvec(any::<u8>(), 0..7),
    ) {
        let base: Vec<u8> = (0..len).map(|i| (i as u8).wrapping_mul(13)).collect();
        let srcs: Vec<Vec<u8>> = sources
            .iter()
            .map(|&s| (0..len).map(|i| (i as u8).wrapping_mul(7).wrapping_add(s)).collect())
            .collect();

        let mut expected = base.clone();
        for src in &srcs {
            expected = xor_bytes_scalar(&expected, src);
        }

        let payloads: Vec<Payload> = srcs.into_iter().map(Payload::from_vec).collect();
        let refs: Vec<&Payload> = payloads.iter().collect();
        let mut batched = Payload::from_vec(base);
        batched.xor_assign_many(&refs);
        prop_assert_eq!(batched.as_bytes(), &expected[..]);
    }

    #[test]
    fn is_zero_matches_scalar(len in payload_len(), plant in any::<bool>(), at in any::<usize>()) {
        let mut bytes = vec![0u8; len];
        if plant && len > 0 {
            // Plant a single one at an arbitrary position (word interior,
            // word boundary or remainder tail, depending on `at % len`).
            bytes[at % len] = 1;
        }
        let expected = bytes.iter().all(|&b| b == 0);
        prop_assert_eq!(Payload::from_vec(bytes).is_zero(), expected);
    }

    #[test]
    fn bitmap_word_decode_matches_bit_decode(
        k in code_len(),
        fill in pvec(any::<u8>(), 17),
    ) {
        let bitmap_len = k.div_ceil(8);
        let bytes: Vec<u8> = (0..bitmap_len).map(|i| fill[i % fill.len()]).collect();

        let word_decoded = CodeVector::from_le_bytes(k, &bytes);
        let bit_decoded = bitmap_decode_scalar(k, &bytes);
        prop_assert_eq!(&word_decoded, &bit_decoded);

        // Trailing-bit invariant: bits past `k` never leak into the degree
        // (padding bits in the final byte are masked off by the decoder).
        prop_assert_eq!(word_decoded.degree(), word_decoded.iter_ones().count());
        prop_assert!(word_decoded.iter_ones().all(|i| i < k));

        // Re-encoding reproduces the wire bytes up to the masked padding.
        let mut reencoded = Vec::new();
        word_decoded.write_le_bytes(&mut reencoded);
        prop_assert_eq!(reencoded.len(), bitmap_len);
        for (i, (&ours, &theirs)) in reencoded.iter().zip(&bytes).enumerate() {
            let valid_bits = (k - i * 8).min(8);
            let mask = if valid_bits == 8 { 0xFF } else { (1u8 << valid_bits) - 1 };
            prop_assert_eq!(ours, theirs & mask, "byte {} (mask {:#04x})", i, mask);
        }
    }

    #[test]
    fn wire_roundtrip_survives_all_shapes(
        k in code_len(),
        payload_size in payload_len(),
        ones in pvec(any::<usize>(), 1..9),
    ) {
        let indices: Vec<usize> = ones.iter().map(|&o| o % k).collect();
        let vector = CodeVector::from_indices(k, &indices);
        let payload = Payload::from_vec((0..payload_size).map(|i| i as u8).collect());
        let packet = EncodedPacket::new(vector, payload);

        let frame = wire::encode(&packet);

        // Borrowed decode, its owned form and header decode all agree.
        let view = wire::decode_view(&frame).expect("roundtrip");
        prop_assert_eq!(view.vector(), packet.vector());
        prop_assert_eq!(view.payload_bytes(), packet.payload().as_bytes());
        prop_assert_eq!(&view.into_packet(), &packet);

        let (code_length, decoded_size, header_vector) =
            wire::decode_header(&frame).expect("header prefix");
        prop_assert_eq!(code_length, k);
        prop_assert_eq!(decoded_size, payload_size);
        prop_assert_eq!(&header_vector, packet.vector());
    }
}

/// The streaming solve returns the recipes of the row-elimination oracle and
/// charges the same number of row operations, on random systems whose row
/// ids have gaps (`insert` spends an id on every non-innovative row, so
/// `capacity > k`), at code lengths that are not multiples of 8 or of 64.
/// The form oracle: at every degree of every k in 1..=130 and at every
/// seventh degree of k = 2048, the encoder writes the shorter of the two
/// scalar forms, the bitmap on a tie; the size function is the bytes it
/// writes; and the frame decodes back to the packet.
#[test]
fn wire_form_is_the_shorter_one_with_the_bitmap_on_ties() {
    let mut rng = SplitMix(0xF0A3);
    let (mut lists, mut bitmaps, mut ties) = (0, 0, 0);
    for (k, stride) in (1..=130).map(|k| (k, 1)).chain([(2048, 7)]) {
        for degree in (0..=k).step_by(stride) {
            let vector = rng.vector_of_degree(k, degree);
            let packet = EncodedPacket::new(vector.clone(), rng.payload(3));
            let frame = wire::encode(&packet);
            let written = &frame[wire::FIXED_HEADER_BYTES..frame.len() - 3];
            let (list, bitmap) = vector_forms_scalar(&vector);
            ties += usize::from(list.len() == bitmap.len());
            let expected = if list.len() < bitmap.len() {
                lists += 1;
                list
            } else {
                bitmaps += 1;
                bitmap
            };
            assert_eq!(written, expected, "k {k}, degree {degree}");
            assert_eq!(wire::vector_size(&vector), written.len(), "k {k}, degree {degree}");
            let decoded = wire::decode_view(&frame).expect("an encoded frame decodes");
            assert_eq!(decoded.into_packet(), packet, "k {k}, degree {degree}");
        }
    }
    assert!(lists > 1000 && bitmaps > 1000 && ties > 50, "{lists} / {bitmaps} / {ties} ties");
}

#[test]
fn solve_matches_row_elimination_oracle() {
    let mut rng = SplitMix(0x5EED);
    for k in [1, 2, 7, 8, 9, 31, 63, 64, 65, 100, 127, 129, 200] {
        let capacity = 3 * k + 64;
        let mut solver = Gf2Solver::new(k, capacity);
        let mut oracle = RowEliminationOracle::new(k, capacity);
        let mut gaps = 0;
        while !solver.is_full_rank() {
            // Half the rows are sparse, so that dependent rows (id gaps) occur
            // at every k and the echelon form is not uniformly dense.
            let mut vector = rng.vector(k);
            if rng.next() & 1 == 0 {
                vector = CodeVector::from_indices(
                    k,
                    &[rng.next() as usize % k, rng.next() as usize % k],
                );
            }
            let (_, innovative) = solver.insert(vector.clone());
            assert_eq!(oracle.insert(vector), innovative);
            gaps += usize::from(!innovative);
        }
        assert!(k == 1 || gaps > 0, "k = {k}: the system should contain dependent rows");
        assert_eq!(solver.row_ops(), oracle.row_ops, "k = {k}: reduction row operations");

        let (expected, expected_ops) = oracle.solve();
        let ops_before = solver.row_ops();
        let recipes = solver.solve().expect("full rank");
        assert_eq!(solver.row_ops() - ops_before, expected_ops, "k = {k}: row operations");
        assert_eq!((recipes.len(), recipes.row_ids()), (k, capacity));
        for (native, expected) in expected.iter().enumerate() {
            assert_eq!(recipes.recipe(native).collect::<Vec<_>>(), expected.ones(), "k = {k}");
        }
    }
}

/// The receive path — `is_innovative`, then `insert_if_innovative`, on
/// every vector — agrees with the oracle on every verdict, assigned id and
/// row operation, and `solve` on every recipe, at every k in `1..=130` and
/// at the paper's 2048, with capacities at and above k. A quarter of the
/// vectors are sums of earlier ones (redundant by construction), a quarter
/// are sparse, and the sequence runs on past full rank; from k = 8 on it
/// must meet a redundant vector before full rank too.
#[test]
fn receive_path_matches_row_elimination_oracle() {
    let mut rng = SplitMix(0xACCE);
    for k in (1..=130).chain([2048]) {
        let capacity = [k, k + 1, 2 * k + 63][k % 3];
        let mut solver = Gf2Solver::new(k, capacity);
        let mut oracle = RowEliminationOracle::new(k, capacity);
        let mut offered: Vec<CodeVector> = Vec::new();
        let (mut dependent, mut past_full_rank) = (0, 0);
        while past_full_rank < 2 + (k / 8).min(16) {
            let vector = match rng.next() % 4 {
                0 if !offered.is_empty() => {
                    let mut sum = CodeVector::zero(k);
                    for _ in 0..2 + rng.next() % 2 {
                        sum.xor_assign(&offered[rng.next() as usize % offered.len()]);
                    }
                    sum
                }
                1 => {
                    let ones: Vec<usize> =
                        (0..1 + rng.next() % 3).map(|_| rng.next() as usize % k).collect();
                    CodeVector::from_indices(k, &ones)
                }
                _ => rng.vector(k),
            };
            let full_rank = solver.is_full_rank();
            past_full_rank += usize::from(full_rank);
            let innovative = solver.is_innovative(&vector);
            assert_eq!(innovative, oracle.is_innovative(&vector), "k = {k}: verdict");
            let id = solver.insert_if_innovative(&vector);
            assert_eq!(id.is_some(), innovative, "k = {k}: is_innovative predicts insertion");
            assert_eq!(id, oracle.insert_if_innovative(vector.clone()), "k = {k}: id");
            assert_eq!(solver.row_ops(), oracle.row_ops, "k = {k}: reduction row operations");
            dependent += usize::from(!innovative && !full_rank);
            offered.push(vector);
        }
        assert!(k < 8 || dependent > 0, "k = {k}: dependent vectors before full rank");

        let (expected, expected_ops) = oracle.solve();
        let recipes = solver.solve().expect("full rank");
        assert_eq!(
            solver.row_ops() - oracle.row_ops,
            expected_ops,
            "k = {k}: solve row operations"
        );
        assert_eq!((recipes.len(), recipes.row_ids()), (k, capacity));
        for (native, expected) in expected.iter().enumerate() {
            assert_eq!(recipes.recipe(native).collect::<Vec<_>>(), expected.ones(), "k = {k}");
        }
    }
}

/// The table replay returns the natives of the per-recipe fold for every
/// payload length in `0..=129` (empty, sub-word, word and lane tails) at
/// code lengths that derive every group size from 1 (the plain fold) to 8,
/// groups that straddle a recipe word and a partial last group included, and
/// it reports exactly the XORs it executed.
#[test]
fn replay_matches_per_recipe_fold() {
    let mut rng = SplitMix(0xF0E5);
    let mut group_sizes = BTreeSet::new();
    for k in [1, 5, 12, 17, 33, 40, 65, 100, 130, 200, 400, 900] {
        let (mut solver, stored) = dense_full_rank_system(k, &mut rng);
        let recipes = solver.solve().expect("full rank");
        let mut executed = BTreeMap::new();
        // Received payloads at the longest length; a shorter length is a
        // prefix of each (XOR commutes with truncation).
        let full_originals: Vec<Payload> = (0..k).map(|_| rng.payload(129)).collect();
        let full_sources: Vec<Payload> = stored
            .iter()
            .map(|vector| {
                let mut payload = Payload::zero(129);
                for i in vector.iter_ones() {
                    payload.xor_assign(&full_originals[i]);
                }
                payload
            })
            .collect();
        let truncated = |payloads: &[Payload], m: usize| -> Vec<Payload> {
            payloads.iter().map(|p| Payload::from_slice(&p.as_bytes()[..m])).collect()
        };
        // Every payload length at the small code lengths, the tail classes
        // (empty, word + bytes, lanes + byte) above.
        let lengths: Vec<usize> = if k <= 100 { (0..=129).collect() } else { vec![0, 13, 129] };
        for m in lengths {
            let originals = truncated(&full_originals, m);
            let sources = truncated(&full_sources, m);
            let refs: Vec<&Payload> = sources.iter().collect();

            let (natives, xors) = recipes.replay(&refs, m);
            let (folded, _) = fold_per_recipe(&recipes, &sources, m);
            assert_eq!(natives, folded, "k = {k}, m = {m}");
            assert_eq!(natives, originals, "k = {k}, m = {m}");
            let t = recipes.group_size(m);
            let expected_xors = *executed.entry(t).or_insert_with(|| replay_xors(&recipes, t));
            assert_eq!(xors, expected_xors, "k = {k}, m = {m}, t = {t}");
            group_sizes.insert(t);
        }
    }
    assert_eq!(group_sizes, (1..=8).collect::<BTreeSet<_>>());
}
