use core::cell::RefCell;
use core::fmt;

use crate::code_vector::OnesInWord;
use crate::payload::XorTable;
use crate::{CodeVector, Gf2Error, Payload};

std::thread_local! {
    /// Reduction scratch shared by every innovation check on the thread: the
    /// incoming vector's words are copied here and reduced in place, so the
    /// receive-path `is_innovative` calls allocate nothing after warm-up.
    static REDUCE_SCRATCH: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

/// Index of the lowest set bit across `words`, or `None` when all are zero.
#[inline]
fn first_one_in_words(words: &[u64]) -> Option<usize> {
    words
        .iter()
        .enumerate()
        .find(|(_, &w)| w != 0)
        .map(|(wi, &w)| wi * 64 + w.trailing_zeros() as usize)
}

/// XORs `src` into `dst` word by word.
#[inline]
fn xor_words(dst: &mut [u64], src: &[u64]) {
    for (a, b) in dst.iter_mut().zip(src) {
        *a ^= *b;
    }
}

/// A dense GF(2) matrix whose rows are [`CodeVector`]s.
///
/// This is the *code matrix* of the paper's RLNC baseline: every received code
/// vector is appended as a row; the content is decodable once the matrix
/// reaches rank `k`, using Gaussian reduction in `O(k²)` row operations (plus
/// `O(m·k²)` work on payloads, accounted separately by the caller).
///
/// The matrix maintains an *incremental row-echelon form*: each inserted row is
/// reduced against the existing pivots, so innovation checks (`is_innovative`)
/// are a single reduction pass and rank queries are O(1).
#[derive(Clone)]
pub struct Gf2Matrix {
    k: usize,
    /// Reduced rows, at most one per pivot column. `pivots[c] = Some(row index)`.
    rows: Vec<CodeVector>,
    /// Maps a pivot column to the index in `rows` of the row whose leading 1 is that column.
    pivots: Vec<Option<usize>>,
    /// Number of GF(2) row XOR operations performed, for the cost model.
    row_ops: u64,
}

/// Outcome of inserting a row into a [`Gf2Matrix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowEchelonReport {
    /// Whether the row increased the rank of the matrix.
    pub innovative: bool,
    /// Rank of the matrix after the insertion.
    pub rank: usize,
    /// Number of row XOR operations this insertion required.
    pub row_ops: u64,
}

impl Gf2Matrix {
    /// Creates an empty matrix over `k` unknowns (rank 0).
    #[must_use]
    pub fn new(k: usize) -> Self {
        Gf2Matrix { k, rows: Vec::new(), pivots: vec![None; k], row_ops: 0 }
    }

    /// Number of unknowns (code length `k`).
    #[must_use]
    pub fn code_length(&self) -> usize {
        self.k
    }

    /// Current rank of the matrix.
    #[must_use]
    pub fn rank(&self) -> usize {
        self.rows.len()
    }

    /// Returns `true` once the rank equals `k`, i.e. the content is decodable.
    #[must_use]
    pub fn is_full_rank(&self) -> bool {
        self.rank() == self.k
    }

    /// Total number of row XOR operations performed so far (cost accounting).
    #[must_use]
    pub fn row_ops(&self) -> u64 {
        self.row_ops
    }

    /// Reduces `vector` against the current pivots without modifying the matrix
    /// and returns `true` when the residual is non-zero (the row would increase
    /// the rank). This is the partial Gaussian reduction the paper's RLNC
    /// baseline uses to detect non-innovative packets on reception; it runs in
    /// a reused scratch buffer and does not clone the vector.
    #[must_use]
    pub fn is_innovative(&self, vector: &CodeVector) -> bool {
        REDUCE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.extend_from_slice(vector.as_words());
            loop {
                match first_one_in_words(&scratch) {
                    None => return false,
                    Some(col) => match self.pivots[col] {
                        Some(row) => xor_words(&mut scratch, self.rows[row].as_words()),
                        None => return true,
                    },
                }
            }
        })
    }

    /// Inserts a row, keeping the matrix in row-echelon form.
    ///
    /// Returns a report stating whether the row was innovative, together with
    /// the new rank and the number of row operations spent. Non-innovative rows
    /// are discarded.
    ///
    /// # Panics
    ///
    /// Panics if the vector length differs from the matrix code length.
    pub fn insert(&mut self, vector: CodeVector) -> RowEchelonReport {
        assert_eq!(vector.len(), self.k, "row length must match code length");
        let (reduced, ops) = self.reduce(vector);
        self.row_ops += ops;
        if let Some(pivot) = reduced.first_one() {
            self.pivots[pivot] = Some(self.rows.len());
            self.rows.push(reduced);
            RowEchelonReport { innovative: true, rank: self.rank(), row_ops: ops }
        } else {
            RowEchelonReport { innovative: false, rank: self.rank(), row_ops: ops }
        }
    }

    /// Reduces a vector against the current pivots, returning the residual and
    /// the number of row XORs spent.
    fn reduce(&self, mut vector: CodeVector) -> (CodeVector, u64) {
        let mut ops = 0;
        loop {
            match vector.first_one() {
                None => return (vector, ops),
                Some(col) => match self.pivots[col] {
                    Some(row) => {
                        vector.xor_assign(&self.rows[row]);
                        ops += 1;
                    }
                    None => return (vector, ops),
                },
            }
        }
    }

    /// Expresses each unknown as a combination of the inserted (original) rows
    /// is not tracked here; instead, callers that need payload recovery keep
    /// payloads aligned with rows via [`Gf2Solver`].
    ///
    /// Returns the reduced rows in pivot order (row-echelon form), mainly for
    /// diagnostics and tests.
    #[must_use]
    pub fn echelon_rows(&self) -> Vec<CodeVector> {
        let mut out: Vec<CodeVector> = Vec::with_capacity(self.rows.len());
        let mut cols: Vec<usize> = (0..self.k).filter(|&c| self.pivots[c].is_some()).collect();
        cols.sort_unstable();
        for c in cols {
            out.push(self.rows[self.pivots[c].expect("pivot present")].clone());
        }
        out
    }
}

impl fmt::Debug for Gf2Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Gf2Matrix(k={}, rank={})", self.k, self.rank())
    }
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
#[derive(Clone, Debug)]
pub struct Gf2Solver {
    k: usize,
    /// Reduced code vectors (row-echelon form, one per pivot).
    rows: Vec<CodeVector>,
    /// For each reduced row, the combination of original rows (by insertion index).
    combos: Vec<CodeVector>,
    /// pivot column -> index into rows/combos
    pivots: Vec<Option<usize>>,
    /// Number of original rows inserted (innovative or not).
    inserted: usize,
    /// Maximum number of original rows the combination bitmaps can address.
    capacity: usize,
    row_ops: u64,
}

impl Gf2Solver {
    /// Creates a solver for `k` unknowns able to track up to `capacity` received rows.
    #[must_use]
    pub fn new(k: usize, capacity: usize) -> Self {
        Gf2Solver {
            k,
            rows: Vec::new(),
            combos: Vec::new(),
            pivots: vec![None; k],
            inserted: 0,
            capacity,
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
        self.rows.len()
    }

    /// Returns `true` when the system is solvable.
    #[must_use]
    pub fn is_full_rank(&self) -> bool {
        self.rank() == self.k
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
    #[must_use]
    pub fn is_innovative(&self, vector: &CodeVector) -> bool {
        REDUCE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.extend_from_slice(vector.as_words());
            loop {
                match first_one_in_words(&scratch) {
                    None => return false,
                    Some(col) => match self.pivots[col] {
                        Some(row) => xor_words(&mut scratch, self.rows[row].as_words()),
                        None => return true,
                    },
                }
            }
        })
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
        assert_eq!(vector.len(), self.k, "row length must match code length");
        let mut used_rows: Vec<usize> = Vec::new();
        let residual = REDUCE_SCRATCH.with(|cell| {
            let mut scratch = cell.borrow_mut();
            scratch.clear();
            scratch.extend_from_slice(vector.as_words());
            loop {
                match first_one_in_words(&scratch) {
                    None => return None,
                    Some(col) => match self.pivots[col] {
                        Some(row) => {
                            xor_words(&mut scratch, self.rows[row].as_words());
                            used_rows.push(row);
                        }
                        None => return Some((col, scratch.clone())),
                    },
                }
            }
        });
        self.row_ops += used_rows.len() as u64;
        let (col, words) = residual?;
        assert!(self.inserted < self.capacity, "solver capacity exceeded");
        let id = self.inserted;
        self.inserted += 1;
        let mut combo = CodeVector::singleton(self.capacity, id);
        for &row in &used_rows {
            combo.xor_assign(&self.combos[row]);
        }
        self.pivots[col] = Some(self.rows.len());
        self.rows.push(CodeVector::from_words(self.k, words));
        self.combos.push(combo);
        Some(id)
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
        assert_eq!(vector.len(), self.k, "row length must match code length");
        assert!(self.inserted < self.capacity, "solver capacity exceeded");
        let id = self.inserted;
        self.inserted += 1;

        let mut v = vector;
        let mut combo = CodeVector::singleton(self.capacity, id);
        loop {
            match v.first_one() {
                None => return (id, false),
                Some(col) => match self.pivots[col] {
                    Some(row) => {
                        v.xor_assign(&self.rows[row]);
                        combo.xor_assign(&self.combos[row]);
                        self.row_ops += 1;
                    }
                    None => {
                        self.pivots[col] = Some(self.rows.len());
                        self.rows.push(v);
                        self.combos.push(combo);
                        return (id, true);
                    }
                },
            }
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
    /// The echelon rows are only read, nothing is cloned, and the recipes land
    /// in one flat buffer. One row operation is charged per recipe XOR — the
    /// count (≈ k²/4) is the number of off-pivot ones in the echelon form,
    /// exactly what eliminating them row by row would cost.
    ///
    /// # Errors
    ///
    /// Returns [`Gf2Error::NotFullRank`] when fewer than `k` innovative rows
    /// have been inserted.
    pub fn solve(&mut self) -> Result<Recipes, Gf2Error> {
        let not_full_rank = Gf2Error::NotFullRank { rank: self.rank(), needed: self.k };
        if !self.is_full_rank() {
            return Err(not_full_rank);
        }
        let stride = self.capacity.div_ceil(64);
        let mut words = vec![0u64; self.k * stride];
        for col in (0..self.k).rev() {
            let Some(row) = self.pivots[col] else {
                return Err(not_full_rank);
            };
            let (below, solved) = words.split_at_mut((col + 1) * stride);
            let recipe = &mut below[col * stride..];
            recipe.copy_from_slice(self.combos[row].as_words());
            // The lowest one of an echelon row is its pivot; the rest name
            // columns whose recipes are already final.
            for j in self.rows[row].iter_ones().skip(1) {
                xor_words(recipe, &solved[(j - col - 1) * stride..][..stride]);
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
        self.words(native)
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| OnesInWord { word, base: wi * 64 })
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
        let m = Gf2Matrix::new(5);
        assert_eq!(m.rank(), 0);
        assert!(!m.is_full_rank());
        assert_eq!(m.code_length(), 5);
    }

    #[test]
    fn inserting_independent_rows_increases_rank() {
        let mut m = Gf2Matrix::new(3);
        assert!(m.insert(cv(3, &[0, 1])).innovative);
        assert!(m.insert(cv(3, &[1, 2])).innovative);
        assert!(m.insert(cv(3, &[2])).innovative);
        assert!(m.is_full_rank());
    }

    #[test]
    fn dependent_row_is_not_innovative() {
        let mut m = Gf2Matrix::new(3);
        m.insert(cv(3, &[0, 1]));
        m.insert(cv(3, &[1, 2]));
        let r = m.insert(cv(3, &[0, 2])); // = row0 + row1
        assert!(!r.innovative);
        assert_eq!(m.rank(), 2);
    }

    #[test]
    fn zero_row_is_never_innovative() {
        let mut m = Gf2Matrix::new(4);
        assert!(!m.insert(cv(4, &[])).innovative);
        assert!(!m.is_innovative(&cv(4, &[])));
    }

    #[test]
    fn is_innovative_matches_insert() {
        let mut m = Gf2Matrix::new(4);
        m.insert(cv(4, &[0, 1]));
        m.insert(cv(4, &[1, 2]));
        assert!(!m.is_innovative(&cv(4, &[0, 2])));
        assert!(m.is_innovative(&cv(4, &[3])));
        assert!(m.is_innovative(&cv(4, &[0, 3])));
    }

    #[test]
    fn row_ops_are_counted() {
        let mut m = Gf2Matrix::new(4);
        m.insert(cv(4, &[0]));
        let before = m.row_ops();
        m.insert(cv(4, &[0, 1])); // requires one reduction against pivot 0
        assert!(m.row_ops() > before);
    }

    #[test]
    #[should_panic(expected = "row length")]
    fn insert_wrong_length_panics() {
        let mut m = Gf2Matrix::new(4);
        m.insert(cv(5, &[0]));
    }

    #[test]
    fn echelon_rows_have_distinct_pivots() {
        let mut m = Gf2Matrix::new(6);
        m.insert(cv(6, &[0, 3, 5]));
        m.insert(cv(6, &[0, 1]));
        m.insert(cv(6, &[1, 2, 3]));
        let rows = m.echelon_rows();
        let pivots: Vec<usize> = rows.iter().map(|r| r.first_one().unwrap()).collect();
        let mut sorted = pivots.clone();
        sorted.dedup();
        assert_eq!(pivots.len(), m.rank());
        assert_eq!(sorted.len(), pivots.len());
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
            let mut m = Gf2Matrix::new(16);
            let mut innovative_count = 0;
            for r in &rows {
                let before = m.rank();
                let rep = m.insert(cv(16, r));
                if rep.innovative {
                    innovative_count += 1;
                    prop_assert_eq!(m.rank(), before + 1);
                } else {
                    prop_assert_eq!(m.rank(), before);
                }
            }
            prop_assert_eq!(m.rank(), innovative_count);
            prop_assert!(m.rank() <= 16);
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
