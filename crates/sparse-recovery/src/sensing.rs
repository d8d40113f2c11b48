//! The stage-3 sensing matrix `A′` as column bitmaps.
//!
//! Stage 3 of identification (§5.1-C) has every surviving candidate id
//! transmit a probability-`p` pattern over `M` bit-slots, so with the paper's
//! `p = 0.5` half of `A′`'s entries are ones: a bitmap stores an entry in one
//! bit, where a list of row indices spends a word on every one.  Each column
//! is `⌈M/64⌉` words of row bits in one flat column-major `Vec<u64>`, with
//! its popcount (the column's degree) cached.
//!
//! The readers are the OMP solver and its noise-aware prune
//! ([`crate::omp`]).  Their column sums, right-hand sides and residual
//! updates walk a column's set bits in ascending row order — the order a
//! sorted row list has — so every float sum they form is the sum a row list
//! would give, bit for bit; their shared-row counts are popcounts of two
//! columns' words.

use backscatter_prng::NodeSeed;

/// A binary `rows × cols` matrix stored as one row bitmap per column.
#[derive(Debug, Clone)]
pub struct SensingMatrix {
    rows: usize,
    cols: usize,
    /// Words per column: `⌈rows/64⌉`, at least one.
    words: usize,
    /// Column `c`'s row bits are `bits[c·words..(c + 1)·words]`: bit
    /// `r % 64` of word `r / 64` is entry `(r, c)`, and bits from `rows` on
    /// are zero.
    bits: Vec<u64>,
    /// The ones in each column.
    degrees: Vec<usize>,
}

impl SensingMatrix {
    /// Builds the identification-phase sensing matrix `A′` over `seeds`:
    /// entry `(slot, c)` is [`NodeSeed::sensing_in_slot`]`(slot, p)` of
    /// `seeds[c]`, for slots `0..rows`.  Each column is filled 64 slot
    /// decisions per word by [`NodeSeed::sensing_words`], so the build
    /// writes `rows/8` bytes per column and branches on no entry.
    ///
    /// The tags build their own columns the same way from their own ids,
    /// so the reader's matrix and the patterns on the air agree by
    /// construction.
    #[must_use]
    pub fn from_seeds(rows: usize, seeds: &[NodeSeed], p: f64) -> Self {
        let words = rows.div_ceil(64).max(1);
        let mut bits = vec![0u64; seeds.len() * words];
        let mut degrees = Vec::with_capacity(seeds.len());
        for (column, seed) in bits.chunks_exact_mut(words).zip(seeds) {
            seed.sensing_words(p, rows, column);
            degrees.push(column.iter().map(|w| w.count_ones() as usize).sum());
        }
        Self {
            rows,
            cols: seeds.len(),
            words,
            bits,
            degrees,
        }
    }

    /// Number of rows (measurement slots `M`).
    #[must_use]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns (candidate ids).
    #[must_use]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Whether entry `(row, col)` is 1; out-of-range coordinates read as 0.
    #[must_use]
    pub fn get(&self, row: usize, col: usize) -> bool {
        row < self.rows && col < self.cols && self.column(col)[row / 64] >> (row % 64) & 1 == 1
    }

    /// The number of ones in `col`.
    ///
    /// # Panics
    ///
    /// If `col` is out of range.
    #[must_use]
    pub(crate) fn degree(&self, col: usize) -> usize {
        self.degrees[col]
    }

    /// Column `col`'s row bitmap, `⌈rows/64⌉` words (at least one).
    ///
    /// # Panics
    ///
    /// If `col` is out of range.
    #[must_use]
    pub(crate) fn column(&self, col: usize) -> &[u64] {
        &self.bits[col * self.words..(col + 1) * self.words]
    }

    /// Every column's row bitmap, in column order.
    pub(crate) fn columns(&self) -> impl ExactSizeIterator<Item = &[u64]> {
        self.bits.chunks_exact(self.words)
    }

    /// The rows holding a 1 in `col`, ascending.
    ///
    /// # Panics
    ///
    /// If `col` is out of range.
    pub fn column_rows(&self, col: usize) -> impl Iterator<Item = usize> + '_ {
        self.column(col)
            .iter()
            .enumerate()
            .flat_map(|(w, &word)| SetBits { word, base: w * 64 })
    }
}

/// The number of rows two columns share: a popcount of their row bitmaps'
/// intersection.
#[must_use]
pub(crate) fn shared_rows(a: &[u64], b: &[u64]) -> u32 {
    a.iter().zip(b).map(|(x, y)| (x & y).count_ones()).sum()
}

/// The set bits of one bitmap word as row indices, ascending.
struct SetBits {
    word: u64,
    base: usize,
}

impl Iterator for SetBits {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

#[cfg(test)]
impl SensingMatrix {
    /// A matrix whose entry `(r, c)` is `one(r, c)`: hand-built test
    /// problems and the matrices the CSC-list references are pinned on.
    pub(crate) fn from_fn(rows: usize, cols: usize, one: impl Fn(usize, usize) -> bool) -> Self {
        let words = rows.div_ceil(64).max(1);
        let mut bits = vec![0u64; cols * words];
        let mut degrees = vec![0usize; cols];
        for (c, column) in bits.chunks_exact_mut(words).enumerate() {
            for r in (0..rows).filter(|&r| one(r, c)) {
                column[r / 64] |= 1 << (r % 64);
                degrees[c] += 1;
            }
        }
        Self {
            rows,
            cols,
            words,
            bits,
            degrees,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// Every entry of `from_seeds` equals the per-slot reference decision,
    /// each degree counts its column, and `column_rows` lists exactly the
    /// set rows in ascending order.
    fn assert_matches_per_slot_decisions(rows: usize, seeds: &[NodeSeed], p: f64) {
        let a = SensingMatrix::from_seeds(rows, seeds, p);
        assert_eq!((a.rows(), a.cols()), (rows, seeds.len()));
        for (c, seed) in seeds.iter().enumerate() {
            let expected: Vec<usize> = (0..rows)
                .filter(|&r| seed.sensing_in_slot(r as u64, p))
                .collect();
            assert_eq!(a.column_rows(c).collect::<Vec<_>>(), expected, "column {c}");
            assert_eq!(a.degree(c), expected.len(), "column {c}");
            for r in 0..rows + 70 {
                let one = r < rows && seed.sensing_in_slot(r as u64, p);
                assert_eq!(a.get(r, c), one, "entry ({r}, {c})");
            }
            assert_eq!(a.column(c).len(), rows.div_ceil(64).max(1));
        }
        assert!(!a.get(0, seeds.len()));
    }

    /// Seeds spread over the id space from `first`.
    fn seeds_from(first: u64, n: usize) -> Vec<NodeSeed> {
        (0..n as u64)
            .map(|i| NodeSeed(first.wrapping_add(i.wrapping_mul(7919))))
            .collect()
    }

    #[test]
    fn every_entry_matches_the_per_slot_decision_at_word_edges() {
        let seeds = seeds_from(11, 9);
        for rows in [0, 1, 63, 64, 65] {
            for p in [0.0, 0.5, 1.0, 0.37] {
                assert_matches_per_slot_decisions(rows, &seeds, p);
            }
        }
        assert_eq!(SensingMatrix::from_seeds(65, &seeds, 1.0).degree(0), 65);
        assert_eq!(SensingMatrix::from_seeds(65, &seeds, 0.0).degree(0), 0);
        let none = SensingMatrix::from_seeds(40, &[], 0.5);
        assert_eq!((none.rows(), none.cols(), none.columns().len()), (40, 0, 0));
        // The sensing stream is domain-separated from the data phase's.
        let a = SensingMatrix::from_seeds(40, &seeds, 0.5);
        assert!((0..40).any(|r| {
            (0..seeds.len()).any(|c| a.get(r, c) != seeds[c].participates_in_slot(r as u64, 0.5))
        }));
    }

    proptest! {
        /// `from_seeds` equals the per-slot decisions at random shapes and
        /// probabilities.
        #[test]
        fn every_entry_matches_the_per_slot_decision(
            first_id in any::<u64>(),
            n_seeds in 0usize..24,
            rows in 0usize..300,
            p_case in 0usize..4,
            p_random in 0.0f64..1.0,
        ) {
            let p = [0.0, 0.5, 1.0, p_random][p_case];
            assert_matches_per_slot_decisions(rows, &seeds_from(first_id, n_seeds), p);
        }
    }
}
