//! Who transmits when in the data phase: the participation rule and the
//! reader's participation matrix `D`.
//!
//! §6(a)-(b) of the paper: after identification, every tag that has data
//! transmits its *entire framed message* in a pseudorandom subset of the
//! slots.  Whether it transmits in a slot is decided afresh for every slot by
//! a generator keyed by the tag's temporary id and the slot index, so the
//! reader, which knows the ids, regenerates row `j` of `D` (the tags
//! colliding in slot `j`) without hearing who actually spoke.  Tags keep
//! transmitting until the reader drops its carrier, and the reader keeps
//! appending rows until its decoder holds every message, which is what makes
//! the code rateless.
//!
//! # The rule
//!
//! Tag `id` transmits in slot `s` of participation epoch `e` with
//! probability `p` when [`participates`]`(id, e, s, p)` says so.  Both sides
//! of the data phase call that one function: the tags for their own
//! decisions and the reader for its row.  Epoch 0 keys the decision by the
//! temporary id alone; every extra-slot request that `buzz+r` delivers
//! advances the epoch on both sides and re-keys it ([`epoch_seed`]).
//!
//! The reader sets `p` = [`probability`]`(K, target) = clamp(target / K,
//! 0.15, 0.85)` for `K` discovered tags, aiming at `target` colliding tags
//! per slot (`TransferConfig::target_collision_size`, 3.5 by default).  The
//! target therefore holds only while it lies between `0.15·K` and `0.85·K`:
//!
//! * small populations (K ≤ 4 at either target the figures use) run at the
//!   0.85 ceiling instead of transmitting in every slot;
//! * the target binds up to K = 23 at the default 3.5, and up to K = 26 at
//!   the 4 that `fig11_large` and the large-K benches use;
//! * above that the 0.15 floor is the rule, `0.15·K` colliders per slot: of
//!   `fig11_large`'s rows only K = 25 runs at the target's 4, and K = 50,
//!   100, 150, 200 and 300 run at 7.5, 15, 22.5, 30 and 45.  Letting the
//!   target bind there (p = 4/K) was measured to cut `fig11_large`'s K = 300
//!   rate from about 1.9 to 0.48 bits/symbol; a 0.3 floor reads about the
//!   same as 0.15.
//!
//! # The matrix
//!
//! [`ParticipationMatrix`] is `D` as the reader grows it: one row appended
//! per collision slot, never edited.  It keeps the views the decoders walk:
//! rows as flat CSR segments (whose offsets are stable edge ids, which
//! message passing keys its per-edge state on), each column's rows, a
//! per-column neighbour index (the other columns sharing at least one row,
//! with the shared-row count) and the number of colliding column pairs.  The
//! neighbour index turns the bit-flipping decoder's neighbour-of-neighbour
//! touch set and pair-flip search into list walks.
//!
//! Each neighbour list is ordered by shared-row count, largest first, so its
//! head carries the column's largest count and the pair search, whose bound
//! rises with the count, walks only a prefix of it.  Appending a row keeps
//! that order in `O(1)` per shared-row increment, with no sort: entries of
//! equal count form one block, and an entry whose count grows swaps with the
//! head of its block (found through a per-column table of block starts, the
//! entry itself through a dense `K × K` position index) before its count
//! moves up by one.  Within a block the order is whatever those swaps left.

use std::ops::Range;

use backscatter_prng::{NodeSeed, SplitMix64};

/// Default target for the expected number of tags colliding per slot.
///
/// The paper only states that the sparsity "is related to K"; three to four
/// colliding tags keep the superposed constellation decodable (few local
/// minima for the bit-flipping decoder) while still covering every tag
/// within a small number of slots.  The ablation bench sweeps this value.
pub(crate) const DEFAULT_TARGET_COLLISION_SIZE: f64 = 3.5;

/// The participation probability's floor: in a large population every tag
/// still transmits in about one slot in seven, so each is heard early.
const MIN_PROBABILITY: f64 = 0.15;

/// The participation probability's ceiling: in a very small population no
/// tag transmits in every slot.
const MAX_PROBABILITY: f64 = 0.85;

/// Salt for epoch reseeding: epoch `e ≥ 1` participation streams derive from
/// `mix(temporary_id, EPOCH_SALT + e)`.
const EPOCH_SALT: u64 = 0xe90_c001;

/// The per-slot participation probability for `k` tags aiming at `target`
/// colliders per slot: `clamp(target / k, 0.15, 0.85)` (see the module
/// docs for where each bound binds).  Callers pass `k ≥ 1` and a positive,
/// finite target, which `TransferConfig::validate` checks.
#[must_use]
pub(crate) fn probability(k: usize, target: f64) -> f64 {
    (target / k as f64).clamp(MIN_PROBABILITY, MAX_PROBABILITY)
}

/// The participation seed of a temporary id in an epoch.  Epoch 0 is the
/// temporary id itself, the only epoch the plain protocol uses; each
/// extra-slot request `buzz+r` delivers advances the epoch on both sides.
#[must_use]
pub(crate) fn epoch_seed(temporary_id: u64, epoch: u64) -> NodeSeed {
    if epoch == 0 {
        NodeSeed(temporary_id)
    } else {
        NodeSeed(SplitMix64::mix(temporary_id, EPOCH_SALT + epoch))
    }
}

/// Whether temporary id `id` transmits in `slot` of `epoch` with per-slot
/// probability `p`: the one rule the tags follow and the reader predicts
/// its rows from.
#[must_use]
pub(crate) fn participates(id: u64, epoch: u64, slot: u64, p: f64) -> bool {
    epoch_seed(id, epoch).participates_in_slot(slot, p)
}

/// The reader's participation matrix `D` (`L × K`), grown one row per
/// collision slot.
#[derive(Debug, Clone)]
pub(crate) struct ParticipationMatrix {
    /// Row `r` occupies `row_cols[row_ptr[r]..row_ptr[r + 1]]`.
    row_ptr: Vec<usize>,
    /// Every row's columns, ascending within a row, rows in order.
    row_cols: Vec<usize>,
    /// Per column, the rows holding a 1 in it, ascending.
    cols: Vec<Vec<usize>>,
    /// Per column, every other column sharing ≥ 1 row with it as
    /// `(column, shared_row_count)`, ordered by count, largest first.
    neighbors: Vec<Vec<(u32, u32)>>,
    /// Per column, entry `n` is how many of its neighbours share more than
    /// `n` rows with it: the index where its block of count-`n` entries
    /// starts.  Entry 0 is the list's length, and the table is one longer
    /// than the column's largest count.
    block_starts: Vec<Vec<u32>>,
    /// `position[a·K + b]` is one plus the index of column `b` in column
    /// `a`'s neighbour list, or 0 while the two share no row.  It takes
    /// `4·K²` bytes (360 KB at K = 300), allocated zeroed.
    position: Vec<u32>,
    /// Number of distinct column pairs sharing ≥ 1 row.
    pairs: usize,
}

impl ParticipationMatrix {
    /// An empty matrix over `k` columns.
    #[must_use]
    pub(crate) fn new(k: usize) -> Self {
        // Neighbour entries and positions store column indices as `u32`.
        assert!(u32::try_from(k).is_ok(), "too many columns: {k}");
        Self {
            row_ptr: vec![0],
            row_cols: Vec::new(),
            cols: vec![Vec::new(); k],
            neighbors: vec![Vec::new(); k],
            block_starts: vec![vec![0]; k],
            position: vec![0; k * k],
            pairs: 0,
        }
    }

    /// Appends the next row: `participants` are the columns colliding in
    /// it, ascending and distinct, each below `k`.
    pub(crate) fn push_row(&mut self, participants: &[usize]) {
        debug_assert!(
            participants.windows(2).all(|w| w[0] < w[1]),
            "participants must be ascending and distinct"
        );
        let row = self.rows();
        for (i, &a) in participants.iter().enumerate() {
            self.cols[a].push(row);
            for &b in &participants[i + 1..] {
                if self.count_shared_row(a, b) == 1 {
                    self.pairs += 1;
                }
                self.count_shared_row(b, a);
            }
        }
        self.row_cols.extend_from_slice(participants);
        self.row_ptr.push(self.row_cols.len());
    }

    /// Records one more row shared by column `from` with column `to` in
    /// `from`'s neighbour list, keeping the list in count order, and
    /// returns the new count.  A first shared row enters at the end, which
    /// is the head of the (empty) count-0 block; the entry then swaps with
    /// the head of its count block, so incrementing it leaves every larger
    /// count before it and every smaller or equal one after it.
    fn count_shared_row(&mut self, from: usize, to: usize) -> u32 {
        let base = from * self.cols.len();
        let list = &mut self.neighbors[from];
        let starts = &mut self.block_starts[from];
        if self.position[base + to] == 0 {
            list.push((to as u32, 0));
            self.position[base + to] = list.len() as u32;
        }
        let at = self.position[base + to] as usize - 1;
        let count = list[at].1 as usize;
        let head = starts[count] as usize;
        list.swap(at, head);
        self.position[base + list[at].0 as usize] = at as u32 + 1;
        self.position[base + to] = head as u32 + 1;
        list[head].1 += 1;
        starts[count] += 1;
        if starts.len() == count + 1 {
            starts.push(0);
        }
        list[head].1
    }

    /// Number of rows (collision slots) so far.
    #[must_use]
    pub(crate) fn rows(&self) -> usize {
        self.row_ptr.len() - 1
    }

    /// The columns colliding in `row`, ascending.
    #[must_use]
    pub(crate) fn row(&self, row: usize) -> &[usize] {
        &self.row_cols[self.row_range(row)]
    }

    /// The flat offsets backing [`Self::row`]: offset `e` in
    /// `row_range(row)` is edge `e` of the matrix, and its column is
    /// `row(row)[e - row_range(row).start]`.  Appending never moves an
    /// earlier row, so edge offsets are stable ids.
    #[must_use]
    pub(crate) fn row_range(&self, row: usize) -> Range<usize> {
        self.row_ptr[row]..self.row_ptr[row + 1]
    }

    /// The rows `col` holds a 1 in (the slots a tag transmitted in),
    /// ascending.
    #[must_use]
    pub(crate) fn col(&self, col: usize) -> &[usize] {
        &self.cols[col]
    }

    /// Total number of ones (edges).
    #[must_use]
    pub(crate) fn nnz(&self) -> usize {
        self.row_cols.len()
    }

    /// The columns sharing at least one row with `col`, as
    /// `(column, shared_row_count)` ordered by count, largest first (equal
    /// counts in no fixed order).
    #[must_use]
    pub(crate) fn neighbors(&self, col: usize) -> &[(u32, u32)] {
        &self.neighbors[col]
    }

    /// The largest shared-row count between `col` and any other column (0
    /// for a column that shares no row): its neighbour list's head.
    #[must_use]
    pub(crate) fn max_shared(&self, col: usize) -> u32 {
        self.neighbors[col].first().map_or(0, |&(_, shared)| shared)
    }

    /// How many distinct column pairs share at least one row.
    #[must_use]
    pub(crate) fn colliding_pairs(&self) -> usize {
        self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn probability_rules() {
        // Small populations are clamped high, large ones low.
        assert!((probability(2, DEFAULT_TARGET_COLLISION_SIZE) - 0.85).abs() < 1e-12);
        assert!((probability(100, DEFAULT_TARGET_COLLISION_SIZE) - 0.15).abs() < 1e-12);
        // Mid-size: target / k.
        assert!((probability(10, 5.0) - 0.5).abs() < 1e-12);
        // Where the module docs say each bound starts to bind.
        assert!(probability(23, 3.5) > 0.15 && probability(24, 3.5) == 0.15);
        assert!(probability(26, 4.0) > 0.15 && probability(27, 4.0) == 0.15);
        assert!(probability(4, 3.5) == 0.85 && probability(5, 3.5) < 0.85);
    }

    #[test]
    fn participation_is_deterministic_per_seed_and_slot() {
        let p = probability(8, DEFAULT_TARGET_COLLISION_SIZE);
        for epoch in [0, 3] {
            for slot in 0..50 {
                assert_eq!(
                    participates(99, epoch, slot, p),
                    participates(99, epoch, slot, p)
                );
            }
        }
        // Epoch 0 is the temporary id's own data-phase stream.
        assert!(
            (0..64).all(|s| participates(99, 0, s, p) == NodeSeed(99).participates_in_slot(s, p))
        );
    }

    #[test]
    fn average_collision_size_tracks_target() {
        let k = 12;
        let target = 5.0;
        let p = probability(k, target);
        let slots = 400;
        let total = (0..slots as u64)
            .map(|slot| {
                (0..k as u64)
                    .filter(|&i| participates(77 + i, 0, slot, p))
                    .count()
            })
            .sum::<usize>();
        let avg = total as f64 / slots as f64;
        assert!((avg - target).abs() < 0.8, "avg collision size = {avg}");
    }

    #[test]
    fn push_row_grows_matrix() {
        let mut d = ParticipationMatrix::new(5);
        assert_eq!((d.rows(), d.nnz()), (0, 0));
        d.push_row(&[1, 3]);
        d.push_row(&[0, 3]);
        d.push_row(&[]);
        assert_eq!(d.rows(), 3);
        assert_eq!(d.row(1), &[0, 3]);
        assert!(d.row(2).is_empty());
        assert_eq!(d.col(3), &[0, 1]);
        assert!(d.col(4).is_empty());
        assert_eq!(d.nnz(), 4);
    }

    #[test]
    fn row_range_tracks_flat_offsets_across_push_row() {
        let mut d = ParticipationMatrix::new(4);
        d.push_row(&[0, 2]);
        d.push_row(&[]);
        d.push_row(&[1, 2, 3]);
        assert_eq!(d.row_range(0), 0..2);
        assert_eq!(d.row_range(1), 2..2);
        assert_eq!(d.row_range(2), 2..5);
        // Edge `e` of row 2 is column `row(2)[e - start]`.
        let start = d.row_range(2).start;
        let edge_cols: Vec<usize> = d.row_range(2).map(|e| d.row(2)[e - start]).collect();
        assert_eq!(edge_cols, [1, 2, 3]);
        // Appending never moves earlier rows' edge offsets.
        let before: Vec<_> = (0..3).map(|r| d.row_range(r)).collect();
        d.push_row(&[0, 3]);
        for (r, range) in before.into_iter().enumerate() {
            assert_eq!(d.row_range(r), range);
        }
        assert_eq!(d.row_range(3), 5..7);
        assert_eq!(d.nnz(), 7);
    }

    #[test]
    fn neighbor_index_tracks_shared_rows() {
        let mut d = ParticipationMatrix::new(4);
        d.push_row(&[0, 1]);
        assert_eq!(d.neighbors(0), &[(1, 1)]);
        d.push_row(&[0, 1, 3]);
        assert_eq!(d.neighbors(0), &[(1, 2), (3, 1)]);
        assert_eq!(d.neighbors(3), &[(0, 1), (1, 1)]);
        // A slot with a single participant links nothing.
        d.push_row(&[2]);
        assert!(d.neighbors(2).is_empty());
        assert_eq!(d.max_shared(2), 0);
        // A first shared row enters at the end of the list...
        d.push_row(&[1, 2]);
        assert_eq!(d.neighbors(1), &[(0, 2), (3, 1), (2, 1)]);
        assert_eq!(d.neighbors(2), &[(1, 1)]);
        // ...and a growing count first swaps to the head of its block.
        d.push_row(&[1, 2]);
        assert_eq!(d.neighbors(1), &[(0, 2), (2, 2), (3, 1)]);
        d.push_row(&[1, 2]);
        assert_eq!(d.neighbors(1), &[(2, 3), (0, 2), (3, 1)]);
        // Each head carries its column's largest count; the pair count
        // rides along.
        assert_eq!(
            [0, 1, 2, 3].map(|c| d.max_shared(c)),
            [2, 3, 3, 1],
            "max shared rows per column"
        );
        assert_eq!(d.colliding_pairs(), 4, "{{0,1}} {{0,3}} {{1,3}} {{1,2}}");
    }

    proptest! {
        /// Every view of a matrix grown by `push_row` equals a brute-force
        /// recount of the rows pushed, before and after every push: `row`,
        /// `col` and `nnz`, earlier rows' `row_range` unchanged by later
        /// pushes, and the neighbour index: each list holds exactly the
        /// recounted `(column, count)` set in count order, largest first
        /// (so its head is the largest count, 0 for an empty list), its
        /// position index and block starts agree with it, and the pair count
        /// matches.  Empty rows and a single column are included.
        #[test]
        fn every_view_matches_a_recount_of_the_pushed_rows(
            k in 1usize..12,
            masks in proptest::collection::vec(any::<u64>(), 0..40),
        ) {
            // Each entry is set when two mask bits are, so a quarter of
            // them are ones and short rows are often empty.
            let rows: Vec<Vec<usize>> = masks
                .iter()
                .map(|mask| (0..k).filter(|&c| mask >> c & mask >> (c + 32) & 1 == 1).collect())
                .collect();
            let mut d = ParticipationMatrix::new(k);
            let mut ranges: Vec<Range<usize>> = Vec::new();
            for n in 0..=rows.len() {
                if n > 0 {
                    d.push_row(&rows[n - 1]);
                    ranges.push(d.row_range(n - 1));
                }
                let pushed = &rows[..n];
                prop_assert_eq!(d.rows(), n);
                let mut offset = 0;
                for (r, expected) in pushed.iter().enumerate() {
                    prop_assert_eq!(d.row(r), &expected[..]);
                    prop_assert_eq!(d.row_range(r), ranges[r].clone());
                    prop_assert_eq!(d.row_range(r), offset..offset + expected.len());
                    offset += expected.len();
                }
                prop_assert_eq!(d.nnz(), offset);
                let mut pairs = 0;
                for c in 0..k {
                    let col: Vec<usize> = (0..pushed.len())
                        .filter(|&r| pushed[r].contains(&c))
                        .collect();
                    prop_assert_eq!(d.col(c), &col[..]);
                    let mut neighbors: Vec<(u32, u32)> = (0..k)
                        .filter(|&l| l != c)
                        .map(|l| {
                            let shared = col.iter().filter(|&&r| pushed[r].contains(&l));
                            (l as u32, shared.count() as u32)
                        })
                        .filter(|&(_, shared)| shared > 0)
                        .collect();
                    let list = d.neighbors(c);
                    prop_assert!(
                        list.windows(2).all(|w| w[0].1 >= w[1].1),
                        "column {} is not in count order: {:?}", c, list
                    );
                    let by_count = |entries: &mut [(u32, u32)]| {
                        entries.sort_unstable_by_key(|&(l, shared)| (std::cmp::Reverse(shared), l));
                    };
                    let mut held = list.to_vec();
                    by_count(&mut held);
                    by_count(&mut neighbors);
                    prop_assert_eq!(&held, &neighbors);
                    let max = neighbors.first().map_or(0, |&(_, shared)| shared);
                    prop_assert_eq!(d.max_shared(c), max);
                    // The private indexes agree with the list they locate.
                    for (at, &(l, _)) in list.iter().enumerate() {
                        prop_assert_eq!(d.position[c * k + l as usize] as usize, at + 1);
                    }
                    let starts: Vec<u32> = (0..=max)
                        .map(|n| list.iter().filter(|&&(_, shared)| shared > n).count() as u32)
                        .collect();
                    prop_assert_eq!(&d.block_starts[c], &starts);
                    prop_assert_eq!(
                        d.position[c * k..(c + 1) * k].iter().filter(|&&at| at > 0).count(),
                        list.len()
                    );
                    pairs += neighbors.iter().filter(|&&(l, _)| l as usize > c).count();
                }
                prop_assert_eq!(d.colliding_pairs(), pairs);
            }
        }
    }
}
