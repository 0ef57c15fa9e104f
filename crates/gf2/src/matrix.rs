use core::cell::RefCell;

use crate::code_vector::OnesInWord;
use crate::payload::XorTable;
use crate::{CodeVector, Gf2Error, Payload};

/// A candidate vector under reduction, and the pivot columns whose rows it
/// has been reduced by so far, in the order they were added.
struct Scratch {
    words: Vec<u64>,
    used: Vec<usize>,
}

std::thread_local! {
    /// Reduction scratch shared by every solver on the thread: the incoming
    /// vector's words are copied here and reduced in place, so the
    /// receive-path calls allocate nothing after warm-up.
    static SCRATCH: RefCell<Scratch> =
        const { RefCell::new(Scratch { words: Vec::new(), used: Vec::new() }) };
}

/// XORs `src` into `dst` word by word.
#[inline]
fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (a, b) in dst.iter_mut().zip(src) {
        *a ^= *b;
    }
}

/// The column indices of the ones in `words`, whose first word is word
/// `first` of its row.
fn ones_from(words: &[u64], first: usize) -> impl Iterator<Item = usize> + '_ {
    words
        .iter()
        .enumerate()
        .flat_map(move |(wi, &word)| OnesInWord { word, base: (first + wi) * 64 })
}

/// A full Gaussian-elimination solver that tracks, for every reduced row, the
/// combination of *original* inserted rows it corresponds to.
///
/// This is what the RLNC decoder needs: once full rank is reached, the solver
/// reports, for each native packet `x_i`, which subset of the received encoded
/// packets must be XOR-ed to recover it ([`Gf2Solver::solve`]). The payload
/// work (the `O(m·k²)` part) is a separate pass over those [`Recipes`]
/// ([`Recipes::replay`]), so the data cost can be measured separately from the
/// control cost, exactly as in Figure 8 of the paper.
///
/// The echelon form is stored by pivot column in two flat buffers: the row
/// whose leading one is column `c` is row `c` of each, so a reduction step
/// goes from a column straight to the words of its row.
#[derive(Clone, Debug)]
pub struct Gf2Solver {
    k: usize,
    /// Maximum number of original rows the combinations can address.
    capacity: usize,
    /// `k` rows of `⌈k/64⌉` words: row `c` is the reduced code vector whose
    /// leading one is column `c`, or zero while `c` has no pivot.
    echelon: Vec<u64>,
    /// `k` rows of `⌈capacity/64⌉` words: row `c` names, by insertion id,
    /// the original rows whose sum is echelon row `c`.
    combos: Vec<u64>,
    /// Bit `c` is set once column `c` has a pivot row.
    pivots: Vec<u64>,
    rank: usize,
    /// Number of original rows inserted (innovative or not).
    inserted: usize,
    row_ops: u64,
}

impl Gf2Solver {
    /// Creates a solver for `k` unknowns able to track up to `capacity` received rows.
    #[must_use]
    pub fn new(k: usize, capacity: usize) -> Self {
        Gf2Solver {
            k,
            capacity,
            echelon: vec![0; k * k.div_ceil(64)],
            combos: vec![0; k * capacity.div_ceil(64)],
            pivots: vec![0; k.div_ceil(64)],
            rank: 0,
            inserted: 0,
            row_ops: 0,
        }
    }

    /// Number of unknowns.
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.k
    }

    /// Current rank.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Returns `true` when the system is solvable.
    #[must_use]
    pub fn is_full_rank(&self) -> bool {
        self.rank == self.k
    }

    /// Number of original rows inserted so far (used as the next row id).
    #[must_use]
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Total row XOR operations spent (control-structure cost).
    #[must_use]
    pub fn row_ops(&self) -> u64 {
        self.row_ops
    }

    /// Returns `true` when the vector would increase the rank.
    ///
    /// Reduces into a reused scratch buffer: no clone, no allocation.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `k`.
    #[must_use]
    pub fn is_innovative(&self, vector: &CodeVector) -> bool {
        SCRATCH.with_borrow_mut(|scratch| self.reduce(vector, scratch).is_some())
    }

    /// Reduce-once insertion for the receive path: reduces `vector` against
    /// the current pivots a single time and stores it only when innovative,
    /// returning the id assigned to the stored row. Redundant vectors consume
    /// no id (callers that keep payload buffers aligned with ids drop the
    /// packet in that case), and the single reduction replaces the
    /// `is_innovative` + [`Gf2Solver::insert`] double walk.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `k`, or if the row would be
    /// innovative and `capacity` rows have already been inserted.
    pub fn insert_if_innovative(&mut self, vector: &CodeVector) -> Option<usize> {
        SCRATCH.with_borrow_mut(|scratch| {
            let col = self.reduce(vector, scratch);
            self.row_ops += scratch.used.len() as u64;
            let col = col?;
            assert!(self.inserted < self.capacity, "solver capacity exceeded");
            let id = self.inserted;
            self.inserted += 1;
            self.store(col, id, scratch);
            Some(id)
        })
    }

    /// Inserts a received code vector. Returns the id assigned to the row (its
    /// insertion index) and whether it was innovative. Non-innovative rows
    /// still consume an id so that callers can keep payload buffers aligned.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `k` or more than `capacity`
    /// rows have been inserted.
    pub fn insert(&mut self, vector: CodeVector) -> (usize, bool) {
        assert!(self.inserted < self.capacity, "solver capacity exceeded");
        let id = self.inserted;
        self.inserted += 1;
        SCRATCH.with_borrow_mut(|scratch| {
            let col = self.reduce(&vector, scratch);
            self.row_ops += scratch.used.len() as u64;
            let Some(col) = col else { return (id, false) };
            self.store(col, id, scratch);
            (id, true)
        })
    }

    /// Reduces `vector` against the echelon rows in `scratch` and returns
    /// the leading column of the residual, `None` when it reduces to zero;
    /// `scratch` is left holding the residual and the pivots used.
    ///
    /// One forward sweep: a word cursor moves up the vector, and the lowest
    /// one is always in the cursor word. When its column `c` has a pivot,
    /// row `c` is added from the cursor word on — the row has no ones below
    /// `c`, so the words behind the cursor stay zero and are never scanned
    /// again. The pivots are used in increasing column order.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from `k`.
    fn reduce(&self, vector: &CodeVector, scratch: &mut Scratch) -> Option<usize> {
        assert_eq!(vector.len(), self.k, "row length must match code length");
        let Scratch { words, used } = scratch;
        words.clear();
        words.extend_from_slice(vector.as_words());
        used.clear();
        let stride = words.len();
        let mut cursor = 0;
        while cursor < stride {
            let word = words[cursor];
            if word == 0 {
                cursor += 1;
                continue;
            }
            let col = cursor * 64 + word.trailing_zeros() as usize;
            if self.pivots[col / 64] >> (col % 64) & 1 == 0 {
                return Some(col);
            }
            xor_words(
                &mut words[cursor..],
                &self.echelon[col * stride + cursor..][..stride - cursor],
            );
            used.push(col);
        }
        None
    }

    /// Stores the residual left in `scratch` as the row of pivot `col`, with
    /// its combination: original row `id` plus the combinations of the rows
    /// it was reduced by.
    fn store(&mut self, col: usize, id: usize, scratch: &Scratch) {
        let stride = scratch.words.len();
        self.echelon[col * stride..][..stride].copy_from_slice(&scratch.words);
        self.pivots[col / 64] |= 1 << (col % 64);
        self.rank += 1;
        let combo_stride = self.capacity.div_ceil(64);
        let at = col * combo_stride;
        self.combos[at + id / 64] |= 1 << (id % 64);
        // A stored combination names only ids assigned before `id`: its
        // words past `id / 64` are zero.
        let live = id / 64 + 1;
        for &used in &scratch.used {
            let from = used * combo_stride;
            let [dst, src] = self
                .combos
                .get_disjoint_mut([at..at + live, from..from + live])
                .expect("a used row is not the new row");
            xor_words(dst, src);
        }
    }

    /// Solves the full-rank system by back-substitution and returns, for each
    /// native packet index `i`, the set of original row ids whose payloads must
    /// be XOR-ed to recover `x_i`.
    ///
    /// One streaming pass over the combinations, highest pivot first: once the
    /// recipes of every column above `c` are final, the echelon row of pivot
    /// `c` says which of them to add to its own combination, so the recipe of
    /// `c` is its combination XOR the recipes of the row's set bits `j > c`.
    /// The recipes start as a copy of the combinations — already one per
    /// column, in column order — and are finished in place. One row
    /// operation is charged per recipe XOR — the count (≈ k²/4) is the
    /// number of off-pivot ones in the echelon form, exactly what
    /// eliminating them row by row would cost.
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::NotFullRank`] when fewer than `k` innovative rows
    /// have been inserted.
    pub fn solve(&mut self) -> Result<Recipes, Gf2Error> {
        if !self.is_full_rank() {
            return Err(Gf2Error::NotFullRank { rank: self.rank, needed: self.k });
        }
        let (stride, combo_stride) = (self.k.div_ceil(64), self.capacity.div_ceil(64));
        let mut words = self.combos.clone();
        for col in (0..self.k).rev() {
            let (below, solved) = words.split_at_mut((col + 1) * combo_stride);
            let recipe = &mut below[col * combo_stride..];
            // The lowest one of an echelon row is its pivot; the rest name
            // columns whose recipes are already final.
            let row = &self.echelon[col * stride..][col / 64..stride];
            for j in ones_from(row, col / 64).skip(1) {
                xor_words(recipe, &solved[(j - col - 1) * combo_stride..][..combo_stride]);
                self.row_ops += 1;
            }
        }
        Ok(Recipes { natives: self.k, row_ids: self.capacity, words })
    }
}

/// The solved system of a [`Gf2Solver`]: for each native packet, the set of
/// original row ids whose payloads XOR to it, as one flat bit matrix
/// (`k` recipes of `⌈row ids / 64⌉` words each).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Recipes {
    /// Number of recipes (the solver's `k`).
    natives: usize,
    /// Number of row ids a recipe ranges over (the solver's capacity).
    row_ids: usize,
    /// `natives` recipes of `⌈row_ids / 64⌉` words each.
    words: Vec<u64>,
}

impl Recipes {
    /// Number of recipes: one per native packet.
    #[must_use]
    pub fn len(&self) -> usize {
        self.natives
    }

    /// Returns `true` when there is no recipe (a system with no unknowns).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.natives == 0
    }

    /// Number of row ids a recipe ranges over.
    #[must_use]
    pub fn row_ids(&self) -> usize {
        self.row_ids
    }

    /// The row ids whose payloads XOR to native packet `native`, increasing.
    ///
    /// # Panics
    ///
    /// Panics if `native >= len()`.
    pub fn recipe(&self, native: usize) -> impl Iterator<Item = usize> + '_ {
        ones_from(self.words(native), 0)
    }

    fn words(&self, native: usize) -> &[u64] {
        assert!(native < self.natives, "native {native} out of range {}", self.natives);
        let stride = self.row_ids.div_ceil(64);
        &self.words[native * stride..][..stride]
    }

    /// The `len` (< 64) recipe bits of `native` starting at row id `first`,
    /// as an index into the XOR table of those row ids.
    #[inline]
    fn table_index(&self, native: usize, first: usize, len: usize) -> usize {
        let words = self.words(native);
        let (word, offset) = (first / 64, first % 64);
        let mut bits = words[word] >> offset;
        if offset + len > 64 {
            bits |= words[word + 1] << (64 - offset);
        }
        (bits & ((1 << len) - 1)) as usize
    }

    /// Group size `t` of [`Recipes::replay`] for payloads of `payload_size`
    /// bytes: the `t` that minimises the payload XORs executed,
    /// `⌈n/t⌉ · (2ᵗ − 2 + k·(1 − 2⁻ᵗ))` for `n` row ids and `k` natives
    /// (table construction, plus one lookup per native whose group bits are
    /// not all zero), among the `t` whose table stays within 256 KiB. At
    /// `t = 1` the table of a group is the payload itself and the replay is
    /// the plain fold, which wins below k ≈ 10; k = 32 gives 4 and k = 2048
    /// at m = 1 KiB gives 8.
    #[must_use]
    pub fn group_size(&self, payload_size: usize) -> usize {
        let cost = |t: usize| {
            self.row_ids.div_ceil(t) * ((1 << t) - 2 + self.natives - (self.natives >> t))
        };
        (1..=XorTable::MAX_GROUP)
            .filter(|&t| t == 1 || payload_size <= XorTable::MAX_BYTES >> t)
            .min_by_key(|&t| cost(t))
            .expect("t = 1 is always a candidate")
    }

    /// Applies the recipes to the received payloads and returns the native
    /// payloads together with the number of `payload_size`-byte XORs spent.
    ///
    /// Method of Four Russians: for each group of `t` consecutive row ids
    /// ([`Recipes::group_size`]) the 2ᵗ XOR combinations of their payloads
    /// are tabulated once, and every native then takes its combination with a
    /// single lookup-and-XOR, written straight into its output payload —
    /// `n/t` XORs per native instead of one per set recipe bit (≈ `n/2`).
    ///
    /// # Panics
    ///
    /// Panics unless `sources` holds one payload of `payload_size` bytes per
    /// row id.
    #[must_use]
    pub fn replay(&self, sources: &[&Payload], payload_size: usize) -> (Vec<Payload>, u64) {
        assert_eq!(sources.len(), self.row_ids, "replay needs one source payload per row id");
        let mut natives = vec![Payload::zero(payload_size); self.natives];
        let group_size = self.group_size(payload_size);
        let mut table = XorTable::new(group_size, payload_size);
        let mut xors = 0;
        let mut first = 0;
        for group in sources.chunks(group_size) {
            xors += table.fill(group);
            for (native, out) in natives.iter_mut().enumerate() {
                let index = self.table_index(native, first, group.len());
                if index != 0 {
                    table.xor_entry_into(index, out);
                    xors += 1;
                }
            }
            first += group.len();
        }
        (natives, xors)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn cv(k: usize, idx: &[usize]) -> CodeVector {
        CodeVector::from_indices(k, idx)
    }

    fn recipe_ids(recipes: &Recipes) -> Vec<Vec<usize>> {
        (0..recipes.len()).map(|i| recipes.recipe(i).collect()).collect()
    }

    #[test]
    fn empty_matrix_has_rank_zero() {
        let s = Gf2Solver::new(5, 8);
        assert_eq!(s.rank(), 0);
        assert!(!s.is_full_rank());
        assert_eq!(s.code_length(), 5);
    }

    #[test]
    fn inserting_independent_rows_increases_rank() {
        let mut s = Gf2Solver::new(3, 8);
        assert!(s.insert(cv(3, &[0, 1])).1);
        assert!(s.insert(cv(3, &[1, 2])).1);
        assert!(s.insert(cv(3, &[2])).1);
        assert!(s.is_full_rank());
    }

    #[test]
    fn dependent_row_is_not_innovative() {
        let mut s = Gf2Solver::new(3, 8);
        s.insert(cv(3, &[0, 1]));
        s.insert(cv(3, &[1, 2]));
        let (_, innovative) = s.insert(cv(3, &[0, 2])); // = row0 + row1
        assert!(!innovative);
        assert_eq!(s.rank(), 2);
    }

    #[test]
    fn zero_row_is_never_innovative() {
        let mut s = Gf2Solver::new(4, 8);
        assert!(!s.insert(cv(4, &[])).1);
        assert!(!s.is_innovative(&cv(4, &[])));
    }

    #[test]
    fn is_innovative_matches_insert() {
        let mut s = Gf2Solver::new(4, 8);
        s.insert(cv(4, &[0, 1]));
        s.insert(cv(4, &[1, 2]));
        assert!(!s.is_innovative(&cv(4, &[0, 2])));
        assert!(s.is_innovative(&cv(4, &[3])));
        assert!(s.is_innovative(&cv(4, &[0, 3])));
    }

    #[test]
    fn row_ops_are_counted() {
        let mut s = Gf2Solver::new(4, 8);
        s.insert(cv(4, &[0]));
        let before = s.row_ops();
        s.insert(cv(4, &[0, 1])); // requires one reduction against pivot 0
        assert_eq!(s.row_ops(), before + 1);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn insert_wrong_length_panics() {
        let mut s = Gf2Solver::new(4, 8);
        s.insert(cv(5, &[0]));
    }

    /// Each stored row sits in the slot of its own pivot column, and its
    /// combination in the same slot: rows past `⌈k/64⌉` words and
    /// combinations spanning several words included.
    #[test]
    fn echelon_rows_have_distinct_pivots() {
        let (k, capacity) = (130, 200);
        let mut s = Gf2Solver::new(k, capacity);
        let rows: Vec<CodeVector> = (0..k)
            .map(|i| cv(k, &[i, (i * 7 + 3) % k, (i * 31 + 64) % k, k - 1 - i / 2]))
            .collect();
        for _ in 0..capacity - k {
            s.insert(cv(k, &[]));
        }
        for row in &rows {
            s.insert(row.clone());
        }
        let (stride, combo_stride) = (k.div_ceil(64), capacity.div_ceil(64));
        let mut pivots = 0;
        for col in 0..k {
            let row = &s.echelon[col * stride..][..stride];
            if s.pivots[col / 64] >> (col % 64) & 1 == 0 {
                assert!(row.iter().all(|&w| w == 0), "column {col} has no pivot but a row");
                continue;
            }
            pivots += 1;
            assert_eq!(ones_from(row, 0).next(), Some(col), "row {col} leads with its pivot");
            // The combination adds up, over the original rows, to the stored row.
            let mut sum = CodeVector::zero(k);
            for id in ones_from(&s.combos[col * combo_stride..][..combo_stride], 0) {
                sum.xor_assign(&rows[id - (capacity - k)]);
            }
            assert_eq!(sum.as_words(), row, "combination of row {col}");
        }
        assert_eq!(pivots, s.rank());
    }

    #[test]
    fn solver_recovers_identity_recipes() {
        // Insert unit vectors: recipe for x_i is exactly row i.
        let mut s = Gf2Solver::new(3, 8);
        for i in 0..3 {
            let (id, innovative) = s.insert(cv(3, &[i]));
            assert_eq!(id, i);
            assert!(innovative);
        }
        let recipes = s.solve().unwrap();
        assert_eq!(recipe_ids(&recipes), vec![vec![0], vec![1], vec![2]]);
    }

    #[test]
    fn solver_recovers_combined_recipes() {
        // y0 = x0+x1, y1 = x1, y2 = x1+x2
        // => x0 = y0+y1, x1 = y1, x2 = y1+y2
        let mut s = Gf2Solver::new(3, 8);
        s.insert(cv(3, &[0, 1]));
        s.insert(cv(3, &[1]));
        s.insert(cv(3, &[1, 2]));
        let recipes = s.solve().unwrap();
        assert_eq!(recipe_ids(&recipes), vec![vec![0, 1], vec![1], vec![1, 2]]);
        assert_eq!((recipes.len(), recipes.row_ids()), (3, 8));
    }

    /// The group size follows the cost model, not a setting: the plain fold
    /// for tiny systems, 4 at the simulations' k = 32, 8 at the paper's
    /// k = 2048 with 1 KiB payloads — where the 256 KiB table cap binds (the
    /// count alone would ask for 9) — and smaller tables as payloads grow.
    #[test]
    fn replay_group_size_is_derived_from_the_system() {
        let group_size = |k: usize, m: usize| {
            Recipes { natives: k, row_ids: k, words: Vec::new() }.group_size(m)
        };
        assert_eq!(group_size(4, 1024), 1);
        assert_eq!(group_size(32, 1024), 4);
        assert_eq!(group_size(2048, 64), 9);
        assert_eq!(group_size(2048, 1024), 8);
        assert_eq!(group_size(2048, 64 * 1024), 2);
        assert_eq!(group_size(2048, 1 << 20), 1);
    }

    #[test]
    fn solver_not_full_rank_error() {
        let mut s = Gf2Solver::new(3, 8);
        s.insert(cv(3, &[0, 1]));
        let err = s.solve().unwrap_err();
        assert_eq!(err, Gf2Error::NotFullRank { rank: 1, needed: 3 });
    }

    #[test]
    fn solver_counts_non_innovative_insertions() {
        let mut s = Gf2Solver::new(2, 8);
        let (_, a) = s.insert(cv(2, &[0]));
        let (_, b) = s.insert(cv(2, &[0]));
        assert!(a);
        assert!(!b);
        assert_eq!(s.inserted(), 2);
        assert_eq!(s.rank(), 1);
    }

    #[test]
    #[should_panic(expected = "capacity exceeded")]
    fn solver_capacity_is_enforced() {
        let mut s = Gf2Solver::new(2, 1);
        s.insert(cv(2, &[0]));
        s.insert(cv(2, &[1]));
    }

    #[test]
    fn insert_if_innovative_skips_redundant_rows_without_consuming_ids() {
        let mut s = Gf2Solver::new(3, 8);
        assert_eq!(s.insert_if_innovative(&cv(3, &[0, 1])), Some(0));
        assert_eq!(s.insert_if_innovative(&cv(3, &[1, 2])), Some(1));
        // row0 + row1 is dependent: rejected, no id consumed, rank unchanged.
        assert_eq!(s.insert_if_innovative(&cv(3, &[0, 2])), None);
        assert_eq!(s.inserted(), 2);
        assert_eq!(s.rank(), 2);
        assert_eq!(s.insert_if_innovative(&cv(3, &[2])), Some(2));
        assert!(s.is_full_rank());
    }

    #[test]
    fn insert_if_innovative_matches_insert_solutions() {
        // Same rows through both entry points must yield the same recipes.
        let rows: &[&[usize]] = &[&[0, 1], &[1], &[1, 2], &[0, 2], &[2]];
        let mut a = Gf2Solver::new(3, 8);
        let mut b = Gf2Solver::new(3, 8);
        for r in rows {
            let innovative = a.is_innovative(&cv(3, r));
            if innovative {
                a.insert(cv(3, r));
            }
            assert_eq!(b.insert_if_innovative(&cv(3, r)).is_some(), innovative);
        }
        assert_eq!(a.solve().unwrap(), b.solve().unwrap());
    }

    #[test]
    fn insert_if_innovative_counts_row_ops_on_both_paths() {
        let mut s = Gf2Solver::new(3, 8);
        s.insert_if_innovative(&cv(3, &[0]));
        let before = s.row_ops();
        // Redundant row still pays its reduction.
        assert_eq!(s.insert_if_innovative(&cv(3, &[0])), None);
        assert!(s.row_ops() > before);
    }

    #[test]
    fn insert_if_innovative_rejects_zero_row() {
        let mut s = Gf2Solver::new(4, 8);
        assert_eq!(s.insert_if_innovative(&cv(4, &[])), None);
        assert_eq!(s.inserted(), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// Rank never exceeds min(#rows, k) and innovation implies rank increase.
        #[test]
        fn prop_rank_bounds(rows in proptest::collection::vec(
            proptest::collection::vec(0usize..16, 0..8), 0..32)) {
            let mut s = Gf2Solver::new(16, 32);
            let mut innovative_count = 0;
            for r in &rows {
                let before = s.rank();
                if s.insert(cv(16, r)).1 {
                    innovative_count += 1;
                    prop_assert_eq!(s.rank(), before + 1);
                } else {
                    prop_assert_eq!(s.rank(), before);
                }
            }
            prop_assert_eq!(s.rank(), innovative_count);
            prop_assert!(s.rank() <= 16);
        }

        /// When the solver reaches full rank, the recipes actually reconstruct
        /// the unit vectors from the original inserted rows.
        #[test]
        fn prop_solver_recipes_reconstruct_unit_vectors(seed_rows in proptest::collection::vec(
            proptest::collection::vec(0usize..8, 1..6), 24..40)) {
            let k = 8;
            let capacity = seed_rows.len() + k;
            let mut s = Gf2Solver::new(k, capacity);
            let mut originals: Vec<CodeVector> = Vec::new();
            for r in &seed_rows {
                let v = cv(k, r);
                originals.push(v.clone());
                s.insert(v);
            }
            // Top up with unit vectors to guarantee full rank.
            for i in 0..k {
                let v = cv(k, &[i]);
                originals.push(v.clone());
                s.insert(v);
            }
            let recipes = s.solve().unwrap();
            for i in 0..k {
                let mut acc = CodeVector::zero(k);
                for row_id in recipes.recipe(i) {
                    acc.xor_assign(&originals[row_id]);
                }
                prop_assert_eq!(acc.ones(), vec![i]);
            }
        }
    }
}
