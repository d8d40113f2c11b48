//! Sparse binary matrices.
//!
//! Two central objects in Buzz are random binary matrices that are sparse by
//! construction:
//!
//! * the sensing matrix `A` of the identification phase (`M × N'` where `N'`
//!   is the pruned temporary-id space), whose column `i` is the transmit
//!   pattern of id `i`, and
//! * the participation matrix `D` of the data phase (`L × K`), whose entry
//!   `d_{j,i} = 1` when node `i` transmits its message in slot `j`.
//!
//! Both are stored in *flat* compressed sparse-row **and** sparse-column form
//! (CSR + CSC offset arrays), because the decoders need fast access along both
//! axes: the belief-propagation decoder walks a flipped bit's column to find
//! the slots it affects, then walks each such slot's row to find the
//! neighbouring bits whose gains must be updated.  The flat layout keeps those
//! walks on contiguous memory instead of chasing one heap allocation per
//! row/column.
//!
//! Matrices that drive the bit-flipping decoder additionally maintain a
//! per-column *neighbour index* (see [`SparseBinaryMatrix::track_neighbors`]):
//! for every column, the other columns sharing at least one row, with the
//! shared-row multiplicity, plus each column's largest multiplicity and the
//! number of colliding column pairs.  This turns the decoder's
//! neighbour-of-neighbour touch set and pair-flip search from quadratic scans
//! into direct list walks, and gives the pair search the per-node bound it
//! prunes with.

use backscatter_prng::NodeSeed;

use crate::{CodeError, CodeResult};

/// A sparse binary matrix with flat row-major (CSR) and column-major (CSC)
/// adjacency, and an optional per-column neighbour index.
#[derive(Debug, Clone)]
pub struct SparseBinaryMatrix {
    rows: usize,
    cols: usize,
    /// CSR offsets: row `r` occupies `row_cols[row_ptr[r]..row_ptr[r + 1]]`.
    row_ptr: Vec<usize>,
    /// Concatenated column indices of the ones, sorted within each row.
    row_cols: Vec<usize>,
    /// CSC offsets: column `c` occupies `col_rows[col_ptr[c]..col_ptr[c + 1]]`.
    col_ptr: Vec<usize>,
    /// Concatenated row indices of the ones, sorted within each column.
    col_rows: Vec<usize>,
    /// The per-column neighbour index, when enabled.
    neighbors: Option<NeighborIndex>,
}

/// Which columns share rows, maintained incrementally as rows arrive.
#[derive(Debug, Clone)]
struct NeighborIndex {
    /// `lists[c]` holds every other column sharing ≥ 1 row with `c` as
    /// `(column, shared_row_count)`, sorted by column.
    lists: Vec<Vec<(usize, usize)>>,
    /// `max_shared[c]`: the largest shared-row count in `lists[c]` (0 for a
    /// column that shares no row).
    max_shared: Vec<usize>,
    /// Number of distinct column pairs sharing ≥ 1 row.
    pairs: usize,
}

impl NeighborIndex {
    fn new(cols: usize) -> Self {
        Self {
            lists: vec![Vec::new(); cols],
            max_shared: vec![0; cols],
            pairs: 0,
        }
    }

    /// Records one more shared row between columns `a` and `b` in both
    /// neighbour lists (each kept sorted by column index), bumping the
    /// per-column maxima and, for a first shared row, the pair count.
    fn link(&mut self, a: usize, b: usize) {
        debug_assert_ne!(a, b);
        for (from, to) in [(a, b), (b, a)] {
            let list = &mut self.lists[from];
            let shared = match list.binary_search_by_key(&to, |&(c, _)| c) {
                Ok(i) => {
                    list[i].1 += 1;
                    list[i].1
                }
                Err(i) => {
                    list.insert(i, (to, 1));
                    1
                }
            };
            self.max_shared[from] = self.max_shared[from].max(shared);
            if shared == 1 && from == a {
                self.pairs += 1;
            }
        }
    }
}

/// Equality is defined on the logical entry set (the CSC view and neighbour
/// index are derived data, and whether neighbour tracking is enabled is a
/// performance detail, not part of the value).
impl PartialEq for SparseBinaryMatrix {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.row_ptr == other.row_ptr
            && self.row_cols == other.row_cols
    }
}

impl Eq for SparseBinaryMatrix {}

impl SparseBinaryMatrix {
    /// Creates an all-zero matrix.
    #[must_use]
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            row_ptr: vec![0; rows + 1],
            row_cols: Vec::new(),
            col_ptr: vec![0; cols + 1],
            col_rows: Vec::new(),
            neighbors: None,
        }
    }

    /// Builds both flat indices from an unsorted coordinate list in one pass
    /// (duplicates allowed; out-of-range coordinates must be pre-checked).
    fn from_coo(rows: usize, cols: usize, ones: &mut Vec<(usize, usize)>) -> Self {
        ones.sort_unstable();
        ones.dedup();
        let mut row_ptr = vec![0usize; rows + 1];
        let mut col_ptr = vec![0usize; cols + 1];
        for &(r, c) in ones.iter() {
            row_ptr[r + 1] += 1;
            col_ptr[c + 1] += 1;
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        for c in 0..cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        // The COO list is (row, col)-sorted, so pushing in order fills each
        // row segment sorted by column...
        let row_cols: Vec<usize> = ones.iter().map(|&(_, c)| c).collect();
        // ...and a counting pass fills each column segment sorted by row.
        let mut col_rows = vec![0usize; ones.len()];
        let mut next_in_col = col_ptr.clone();
        for &(r, c) in ones.iter() {
            col_rows[next_in_col[c]] = r;
            next_in_col[c] += 1;
        }
        Self {
            rows,
            cols,
            row_ptr,
            row_cols,
            col_ptr,
            col_rows,
            neighbors: None,
        }
    }

    /// Builds a matrix from an explicit list of `(row, col)` ones.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::IndexOutOfRange`] if any coordinate is out of
    /// bounds.
    pub fn from_ones(rows: usize, cols: usize, ones: &[(usize, usize)]) -> CodeResult<Self> {
        for &(r, c) in ones {
            if r >= rows {
                return Err(CodeError::IndexOutOfRange {
                    index: r,
                    bound: rows,
                });
            }
            if c >= cols {
                return Err(CodeError::IndexOutOfRange {
                    index: c,
                    bound: cols,
                });
            }
        }
        let mut coo = ones.to_vec();
        Ok(Self::from_coo(rows, cols, &mut coo))
    }

    /// Builds the matrix whose entry `(slot, node)` is 1 when the node's seed
    /// says it participates in that slot with probability `p` — i.e. the
    /// data-phase participation matrix `D`.
    ///
    /// Both the simulator's tags and the reader's decoder call this with the
    /// same seeds, so they construct the same matrix independently.
    #[must_use]
    pub fn from_seeds(slots: usize, seeds: &[NodeSeed], p: f64) -> Self {
        let mut coo = Vec::new();
        for (col, seed) in seeds.iter().enumerate() {
            for row in 0..slots {
                if seed.participates_in_slot(row as u64, p) {
                    coo.push((row, col));
                }
            }
        }
        Self::from_coo(slots, seeds.len(), &mut coo)
    }

    /// Builds the identification-phase sensing matrix `A`: entry `(slot, id)`
    /// is 1 when the id's seed transmits a "1" in that slot of the
    /// compressive-sensing stage (probability `p`, typically 0.5).
    ///
    /// Uses [`NodeSeed::sensing_in_slot`], which is domain-separated from the
    /// data-phase stream so `A` and `D` are independent.
    #[must_use]
    pub fn from_sensing_seeds(slots: usize, seeds: &[NodeSeed], p: f64) -> Self {
        let mut coo = Vec::new();
        for (col, seed) in seeds.iter().enumerate() {
            for row in 0..slots {
                if seed.sensing_in_slot(row as u64, p) {
                    coo.push((row, col));
                }
            }
        }
        Self::from_coo(slots, seeds.len(), &mut coo)
    }

    /// Number of rows.
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Sets entry `(row, col)` to 1 (idempotent).
    ///
    /// This is a build-time operation on the flat layout: inserting into the
    /// middle of the CSR/CSC streams is `O(nnz)`.  The decode hot paths never
    /// call it; bulk construction goes through the `from_*` builders, and the
    /// rateless data phase grows matrices with [`SparseBinaryMatrix::push_row`]
    /// (which only appends).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::IndexOutOfRange`] for out-of-bounds coordinates.
    pub fn set(&mut self, row: usize, col: usize) -> CodeResult<()> {
        if row >= self.rows {
            return Err(CodeError::IndexOutOfRange {
                index: row,
                bound: self.rows,
            });
        }
        if col >= self.cols {
            return Err(CodeError::IndexOutOfRange {
                index: col,
                bound: self.cols,
            });
        }
        let seg = &self.row_cols[self.row_ptr[row]..self.row_ptr[row + 1]];
        let row_pos = match seg.binary_search(&col) {
            Ok(_) => return Ok(()),
            Err(offset) => self.row_ptr[row] + offset,
        };
        if let Some(index) = &mut self.neighbors {
            let seg = &self.row_cols[self.row_ptr[row]..self.row_ptr[row + 1]];
            for &other in seg {
                index.link(col, other);
            }
        }
        self.row_cols.insert(row_pos, col);
        for p in &mut self.row_ptr[row + 1..] {
            *p += 1;
        }
        let pos = self.col_ptr[col]
            + self.col_rows[self.col_ptr[col]..self.col_ptr[col + 1]]
                .binary_search(&row)
                .unwrap_err();
        self.col_rows.insert(pos, row);
        for p in &mut self.col_ptr[col + 1..] {
            *p += 1;
        }
        Ok(())
    }

    /// Whether entry `(row, col)` is 1; out-of-bounds coordinates read as 0.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> bool {
        row < self.rows && self.row(row).binary_search(&col).is_ok()
    }

    /// The column indices holding a 1 in `row` (the nodes colliding in that
    /// slot), sorted ascending.  Out-of-range rows return an empty slice.
    #[must_use]
    pub fn row(&self, row: usize) -> &[usize] {
        if row >= self.rows {
            return &[];
        }
        &self.row_cols[self.row_ptr[row]..self.row_ptr[row + 1]]
    }

    /// The half-open range of flat CSR offsets backing [`Self::row`]: entry
    /// `e ∈ row_range(row)` is edge `e` of the matrix, and
    /// `row(row)[e - row_range(row).start]` is its column.  Rows appended
    /// with [`Self::push_row`] never move earlier rows' storage, so these
    /// edge offsets are stable identifiers in append-only (rateless) use —
    /// incremental decoders key per-edge state on them.  Mutating an
    /// *existing* entry with [`Self::set`] shifts later offsets and
    /// invalidates them.  Out-of-range rows return an empty range.
    #[must_use]
    pub fn row_range(&self, row: usize) -> core::ops::Range<usize> {
        if row >= self.rows {
            return 0..0;
        }
        self.row_ptr[row]..self.row_ptr[row + 1]
    }

    /// The row indices holding a 1 in `col` (the slots a node participates
    /// in), sorted ascending.  Out-of-range columns return an empty slice.
    #[must_use]
    pub fn col(&self, col: usize) -> &[usize] {
        if col >= self.cols {
            return &[];
        }
        &self.col_rows[self.col_ptr[col]..self.col_ptr[col + 1]]
    }

    /// Total number of ones.
    #[must_use]
    pub fn nnz(&self) -> usize {
        self.row_cols.len()
    }

    /// The density (fraction of entries that are 1).
    #[must_use]
    pub fn density(&self) -> f64 {
        if self.rows == 0 || self.cols == 0 {
            return 0.0;
        }
        self.nnz() as f64 / (self.rows * self.cols) as f64
    }

    /// Enables the per-column neighbour index and (re)builds it from the
    /// current entries.  From then on [`SparseBinaryMatrix::push_row`] and
    /// [`SparseBinaryMatrix::set`] keep it incrementally up to date.
    ///
    /// Cost: `O(Σ_rows len(row)²)` to build, so this is meant for decoder
    /// participation matrices (a handful of colliders per slot), not for dense
    /// sensing matrices.
    pub fn track_neighbors(&mut self) {
        let mut index = NeighborIndex::new(self.cols);
        for row in 0..self.rows {
            let seg = &self.row_cols[self.row_ptr[row]..self.row_ptr[row + 1]];
            for (i, &a) in seg.iter().enumerate() {
                for &b in &seg[i + 1..] {
                    index.link(a, b);
                }
            }
        }
        self.neighbors = Some(index);
    }

    /// The columns sharing at least one row with `col`, as
    /// `(column, shared_row_count)` pairs sorted by column, or `None` when
    /// neighbour tracking is not enabled (see
    /// [`SparseBinaryMatrix::track_neighbors`]).  Out-of-range columns return
    /// an empty list.
    #[must_use]
    pub fn neighbors(&self, col: usize) -> Option<&[(usize, usize)]> {
        let index = self.neighbors.as_ref()?;
        Some(index.lists.get(col).map_or(&[], Vec::as_slice))
    }

    /// The largest shared-row count between `col` and any other column
    /// (the maximum multiplicity in its neighbour list): 0 for a column
    /// sharing no row, an out-of-range column, or when neighbour tracking
    /// is disabled.
    #[must_use]
    pub fn max_shared(&self, col: usize) -> usize {
        self.neighbors
            .as_ref()
            .and_then(|index| index.max_shared.get(col).copied())
            .unwrap_or(0)
    }

    /// How many distinct column pairs share at least one row (half the
    /// total neighbour-list length); 0 when neighbour tracking is disabled.
    #[must_use]
    pub fn colliding_pairs(&self) -> usize {
        self.neighbors.as_ref().map_or(0, |index| index.pairs)
    }

    /// Like [`SparseBinaryMatrix::neighbors`] but collapsing "tracking
    /// disabled" and "out of range" to an empty list — the shape decoder
    /// dirty-propagation wants: "which other columns can a perturbation of
    /// `col` reach, with shared-row multiplicity", with no `Option` plumbing
    /// on the hot path.  Callers that must distinguish a disabled index from
    /// an isolated column should use [`SparseBinaryMatrix::neighbors`].
    #[must_use]
    pub fn neighbors_or_empty(&self, col: usize) -> &[(usize, usize)] {
        self.neighbors(col).unwrap_or(&[])
    }

    /// Appends a new row given the set of columns holding a 1, returning the
    /// new row's index.  This is how the rateless data phase grows `D` one
    /// collision slot at a time; on the flat layout it is an append to the CSR
    /// stream plus a *single* right-to-left shift pass over the CSC stream
    /// (each existing entry moves at most once, regardless of how many columns
    /// the new row touches).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::IndexOutOfRange`] if any column is out of bounds.
    pub fn push_row(&mut self, cols_with_one: &[usize]) -> CodeResult<usize> {
        for &c in cols_with_one {
            if c >= self.cols {
                return Err(CodeError::IndexOutOfRange {
                    index: c,
                    bound: self.cols,
                });
            }
        }
        let row = self.rows;
        let mut sorted = cols_with_one.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if let Some(index) = &mut self.neighbors {
            for (i, &a) in sorted.iter().enumerate() {
                for &b in &sorted[i + 1..] {
                    index.link(a, b);
                }
            }
        }
        // CSC update: the new row index is larger than every existing one, so
        // each participating column gains one entry at the *end* of its
        // segment.  Walk the columns from the right, sliding each segment over
        // by the number of still-unplaced new entries at or left of it
        // (`pending`); a column's final start is its old start plus the number
        // of insertions strictly left of it.  Columns left of the smallest
        // participating one never move, so the pass stops early.
        let mut pending = sorted.len();
        self.col_rows
            .resize(self.col_rows.len() + pending, usize::MAX);
        for c in (0..self.cols).rev() {
            if pending == 0 {
                break;
            }
            let seg_start = self.col_ptr[c];
            let seg_end = self.col_ptr[c + 1];
            let has_insert = sorted[pending - 1] == c;
            let shift = pending - usize::from(has_insert);
            if shift > 0 {
                self.col_rows
                    .copy_within(seg_start..seg_end, seg_start + shift);
            }
            if has_insert {
                self.col_rows[seg_end + pending - 1] = row;
                pending -= 1;
            }
            self.col_ptr[c + 1] = seg_end + pending + usize::from(has_insert);
        }
        self.row_cols.extend_from_slice(&sorted);
        self.row_ptr.push(self.row_cols.len());
        self.rows += 1;
        Ok(row)
    }

    /// Restricts the matrix to a subset of its columns (in the given order),
    /// producing the reduced sensing matrix `A'` of §5.1-C.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::IndexOutOfRange`] for any bad column index.
    pub fn select_columns(&self, columns: &[usize]) -> CodeResult<Self> {
        for &c in columns {
            if c >= self.cols {
                return Err(CodeError::IndexOutOfRange {
                    index: c,
                    bound: self.cols,
                });
            }
        }
        let mut coo = Vec::new();
        for (new_col, &old_col) in columns.iter().enumerate() {
            for &row in self.col(old_col) {
                coo.push((row, new_col));
            }
        }
        Ok(Self::from_coo(self.rows, columns.len(), &mut coo))
    }

    /// Multiplies the matrix by a real vector (`y = M · x`), used by tests and
    /// by the recovery diagnostics.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::LengthMismatch`] if `x` is not `cols` long.
    pub fn mul_vec(&self, x: &[f64]) -> CodeResult<Vec<f64>> {
        if x.len() != self.cols {
            return Err(CodeError::LengthMismatch {
                expected: self.cols,
                actual: x.len(),
            });
        }
        Ok((0..self.rows)
            .map(|r| self.row(r).iter().map(|&c| x[c]).sum())
            .collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_has_no_entries() {
        let m = SparseBinaryMatrix::zeros(3, 4);
        assert_eq!(m.nnz(), 0);
        assert_eq!(m.density(), 0.0);
        assert!(!m.get(0, 0));
        assert!(!m.get(99, 99));
    }

    #[test]
    fn set_get_round_trip_and_idempotence() {
        let mut m = SparseBinaryMatrix::zeros(4, 4);
        m.set(1, 2).unwrap();
        m.set(1, 2).unwrap();
        assert!(m.get(1, 2));
        assert_eq!(m.nnz(), 1);
        assert_eq!(m.row(1), &[2]);
        assert_eq!(m.col(2), &[1]);
        assert!(m.set(4, 0).is_err());
        assert!(m.set(0, 4).is_err());
    }

    #[test]
    fn from_ones_builds_both_indices() {
        let m = SparseBinaryMatrix::from_ones(3, 3, &[(0, 0), (1, 0), (1, 2), (2, 1)]).unwrap();
        assert_eq!(m.row(1), &[0, 2]);
        assert_eq!(m.col(0), &[0, 1]);
        assert_eq!(m.nnz(), 4);
        assert!(SparseBinaryMatrix::from_ones(2, 2, &[(2, 0)]).is_err());
    }

    #[test]
    fn row_range_tracks_flat_offsets_across_push_row() {
        let mut m = SparseBinaryMatrix::zeros(0, 4);
        m.push_row(&[0, 2]).unwrap();
        m.push_row(&[]).unwrap();
        m.push_row(&[1, 2, 3]).unwrap();
        assert_eq!(m.row_range(0), 0..2);
        assert_eq!(m.row_range(1), 2..2);
        assert_eq!(m.row_range(2), 2..5);
        assert_eq!(m.row_range(7), 0..0);
        // Appending never moves earlier rows' edge offsets.
        let before: Vec<_> = (0..3).map(|r| m.row_range(r)).collect();
        m.push_row(&[0, 3]).unwrap();
        for (r, range) in before.into_iter().enumerate() {
            assert_eq!(m.row_range(r), range);
            let seg = m.row(r);
            assert_eq!(seg.len(), range.len());
        }
        assert_eq!(m.row_range(3), 5..7);
        assert_eq!(m.nnz(), 7);
    }

    #[test]
    fn from_ones_tolerates_duplicates_and_any_order() {
        let m =
            SparseBinaryMatrix::from_ones(3, 3, &[(2, 1), (0, 2), (2, 1), (0, 0), (0, 1)]).unwrap();
        assert_eq!(m.nnz(), 4);
        assert_eq!(m.row(0), &[0, 1, 2]);
        assert_eq!(m.col(1), &[0, 2]);
    }

    #[test]
    fn from_seeds_matches_per_node_decisions() {
        let seeds: Vec<NodeSeed> = (0..8).map(NodeSeed).collect();
        let p = 0.3;
        let m = SparseBinaryMatrix::from_seeds(20, &seeds, p);
        assert_eq!(m.rows(), 20);
        assert_eq!(m.cols(), 8);
        for (col, seed) in seeds.iter().enumerate() {
            for row in 0..20 {
                assert_eq!(m.get(row, col), seed.participates_in_slot(row as u64, p));
            }
        }
    }

    #[test]
    fn from_sensing_seeds_matches_per_id_decisions_and_differs_from_data() {
        let seeds: Vec<NodeSeed> = (0..6).map(NodeSeed).collect();
        let a = SparseBinaryMatrix::from_sensing_seeds(40, &seeds, 0.5);
        for (col, seed) in seeds.iter().enumerate() {
            for row in 0..40 {
                assert_eq!(a.get(row, col), seed.sensing_in_slot(row as u64, 0.5));
            }
        }
        let d = SparseBinaryMatrix::from_seeds(40, &seeds, 0.5);
        assert_ne!(a, d);
    }

    #[test]
    fn density_tracks_probability() {
        let seeds: Vec<NodeSeed> = (0..50).map(NodeSeed).collect();
        let m = SparseBinaryMatrix::from_seeds(200, &seeds, 0.2);
        assert!(
            (m.density() - 0.2).abs() < 0.03,
            "density = {}",
            m.density()
        );
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut m = SparseBinaryMatrix::zeros(0, 5);
        let r0 = m.push_row(&[1, 3]).unwrap();
        let r1 = m.push_row(&[3, 3, 0]).unwrap();
        assert_eq!((r0, r1), (0, 1));
        assert_eq!(m.rows(), 2);
        assert_eq!(m.row(1), &[0, 3]);
        assert_eq!(m.col(3), &[0, 1]);
        assert!(m.push_row(&[5]).is_err());
    }

    #[test]
    fn incremental_construction_matches_bulk_builder() {
        // The same entry set built via push_row, via set, and via from_ones
        // must agree in every view (CSR, CSC, get).
        let ones = [(0usize, 1usize), (0, 4), (1, 0), (1, 1), (2, 3), (3, 1)];
        let bulk = SparseBinaryMatrix::from_ones(4, 5, &ones).unwrap();
        let mut pushed = SparseBinaryMatrix::zeros(0, 5);
        pushed.push_row(&[4, 1]).unwrap();
        pushed.push_row(&[0, 1]).unwrap();
        pushed.push_row(&[3]).unwrap();
        pushed.push_row(&[1]).unwrap();
        let mut set_built = SparseBinaryMatrix::zeros(4, 5);
        for &(r, c) in &ones {
            set_built.set(r, c).unwrap();
        }
        for m in [&pushed, &set_built] {
            assert_eq!(m, &bulk);
            for c in 0..5 {
                assert_eq!(m.col(c), bulk.col(c));
            }
        }
    }

    #[test]
    fn neighbor_index_tracks_shared_rows() {
        let mut m = SparseBinaryMatrix::zeros(0, 4);
        m.push_row(&[0, 1]).unwrap();
        assert!(m.neighbors(0).is_none(), "tracking starts disabled");
        m.track_neighbors();
        assert_eq!(m.neighbors(0).unwrap(), &[(1, 1)]);
        // Incremental updates on push_row…
        m.push_row(&[0, 1, 3]).unwrap();
        assert_eq!(m.neighbors(0).unwrap(), &[(1, 2), (3, 1)]);
        assert_eq!(m.neighbors(3).unwrap(), &[(0, 1), (1, 1)]);
        assert_eq!(m.neighbors(2).unwrap(), &[]);
        // …and on set.
        m.set(0, 2).unwrap();
        assert_eq!(m.neighbors(2).unwrap(), &[(0, 1), (1, 1)]);
        assert!(m.neighbors(99).unwrap().is_empty());
        // Per-column maxima and the pair count ride along.
        assert_eq!(
            [0, 1, 2, 3].map(|c| m.max_shared(c)),
            [2, 2, 1, 1],
            "max shared rows per column"
        );
        assert_eq!(
            m.colliding_pairs(),
            5,
            "{{0,1}} {{0,2}} {{0,3}} {{1,2}} {{1,3}}"
        );
        assert_eq!(m.max_shared(99), 0);
    }

    #[test]
    fn collision_summaries_read_zero_without_tracking() {
        let mut m = SparseBinaryMatrix::zeros(0, 3);
        m.push_row(&[0, 1, 2]).unwrap();
        assert_eq!(m.max_shared(0), 0);
        assert_eq!(m.colliding_pairs(), 0);
    }

    #[test]
    fn neighbor_index_rebuild_matches_incremental_maintenance() {
        let seeds: Vec<NodeSeed> = (0..10).map(NodeSeed).collect();
        let reference = {
            let mut m = SparseBinaryMatrix::from_seeds(40, &seeds, 0.3);
            m.track_neighbors();
            m
        };
        let mut incremental = SparseBinaryMatrix::zeros(0, 10);
        incremental.track_neighbors();
        for row in 0..40 {
            incremental.push_row(reference.row(row)).unwrap();
        }
        let mut list_entries = 0;
        for c in 0..10 {
            let list = reference.neighbors(c).unwrap();
            assert_eq!(incremental.neighbors(c), Some(list), "col {c}");
            let max = list.iter().map(|&(_, shared)| shared).max().unwrap_or(0);
            assert_eq!(incremental.max_shared(c), max, "col {c}");
            assert_eq!(reference.max_shared(c), max, "col {c}");
            list_entries += list.len();
        }
        assert_eq!(incremental.colliding_pairs(), list_entries / 2);
        assert_eq!(reference.colliding_pairs(), list_entries / 2);
    }

    #[test]
    fn select_columns_produces_reduced_matrix() {
        let m = SparseBinaryMatrix::from_ones(3, 4, &[(0, 0), (0, 3), (1, 1), (2, 3)]).unwrap();
        let reduced = m.select_columns(&[3, 1]).unwrap();
        assert_eq!(reduced.cols(), 2);
        assert!(reduced.get(0, 0)); // old column 3, row 0
        assert!(reduced.get(2, 0)); // old column 3, row 2
        assert!(reduced.get(1, 1)); // old column 1, row 1
        assert!(!reduced.get(0, 1));
        assert!(m.select_columns(&[4]).is_err());
    }

    #[test]
    fn mul_vec_matches_dense_computation() {
        let m = SparseBinaryMatrix::from_ones(2, 3, &[(0, 0), (0, 2), (1, 1)]).unwrap();
        let y = m.mul_vec(&[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(y, vec![4.0, 2.0]);
        assert!(m.mul_vec(&[1.0]).is_err());
    }

    #[test]
    fn out_of_range_row_col_views_are_empty() {
        let m = SparseBinaryMatrix::zeros(2, 2);
        assert!(m.row(10).is_empty());
        assert!(m.col(10).is_empty());
    }
}
