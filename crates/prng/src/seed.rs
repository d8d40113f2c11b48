//! Seed derivation shared by tags and the reader.
//!
//! The protocol requires three logically separate random streams per node:
//!
//! 1. the *identification* stream, seeded by the node's (temporary) id, used
//!    for the compressive-sensing sensing-matrix columns,
//! 2. the *cardinality estimation* stream, also derived from the node id but
//!    domain-separated so it does not alias the identification stream, and
//! 3. the *data phase* stream, seeded by the node's temporary id **and** the
//!    slot index (§6(a) of the paper), which lets the reader regenerate any
//!    row of the participation matrix `D` without replaying earlier slots.
//!
//! The identification stream's sensing decisions are keyed per `(id, slot)`
//! the same way as the data phase's.  Both are one decision, the first draw
//! of the generator seeded with `mix(domain, mix(id, slot))` compared
//! against `p`, computed by one private first-draw helper.  It hashes to
//! xoshiro256**'s first output ([`Xoshiro256::first_output`]) without
//! seeding a generator, and the sensing column form
//! ([`NodeSeed::sensing_words`], which packs 64 decisions to a word) hashes
//! the id once per column ([`SplitMix64::mix_head`]) instead of once per
//! slot.

use crate::{unit_f64, SplitMix64, Xoshiro256};

/// Domain-separation constants so the three streams never alias.
const DOMAIN_IDENTIFICATION: u64 = 0x4944_454e_5449_4659; // "IDENTIFY"
const DOMAIN_ESTIMATION: u64 = 0x4553_5449_4d41_5445; // "ESTIMATE"
const DOMAIN_DATA: u64 = 0x4441_5441_5048_4153; // "DATAPHAS"

/// A node's seed material: its identifier in whichever id space is in use.
///
/// During identification this is the *temporary* id drawn from the
/// `a · c · K`-sized space; in periodic networks it can simply be the node's
/// index in the static schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeSeed(pub u64);

impl NodeSeed {
    /// Generator for the cardinality-estimation phase of this node.
    #[must_use]
    pub fn estimation_rng(self) -> Xoshiro256 {
        Xoshiro256::seed_from_u64(SplitMix64::mix(DOMAIN_ESTIMATION, self.0))
    }

    /// Generator for the data-phase participation decision of this node in a
    /// particular `slot`.
    ///
    /// Seeding per `(id, slot)` pair — rather than one stream consumed slot by
    /// slot — lets the reader rebuild any single row of `D` in O(K) work,
    /// which the belief-propagation decoder exploits when new collisions
    /// arrive.
    #[must_use]
    pub fn data_slot_rng(self, slot: u64) -> Xoshiro256 {
        let mixed = SplitMix64::mix(DOMAIN_DATA, SplitMix64::mix(self.0, slot));
        Xoshiro256::seed_from_u64(mixed)
    }

    /// Returns whether this node participates (reflects its message) in the
    /// given data-phase `slot`, given participation probability `p`.
    ///
    /// Both the tag model and the reader's decoder call this same function, so
    /// the participation matrix is identical on both sides by construction.
    /// The decision is the first `f64` of [`NodeSeed::data_slot_rng`]`(slot)`
    /// compared against `p` clamped to `[0, 1]`.
    #[must_use]
    pub fn participates_in_slot(self, slot: u64, p: f64) -> bool {
        self.slot_decision(DOMAIN_DATA, slot, p)
    }

    /// Returns whether this node transmits a "1" in the given slot of the
    /// *identification* phase's compressive-sensing stage (its column of the
    /// sensing matrix `A`), with per-slot probability `p`.
    ///
    /// This stream is domain-separated from [`NodeSeed::participates_in_slot`]
    /// so that the sensing matrix `A` and the data-phase participation matrix
    /// `D` are statistically independent even though both are keyed by the
    /// same temporary id.
    #[must_use]
    pub fn sensing_in_slot(self, slot: u64, p: f64) -> bool {
        self.slot_decision(DOMAIN_IDENTIFICATION, slot, p)
    }

    /// [`NodeSeed::sensing_in_slot`] for slots `0..slots`, packed 64 to a
    /// word: bit `s % 64` of `words[s / 64]` is slot `s`'s decision, and
    /// every bit from `slots` on is zero.  This is the id's column of the
    /// sensing matrix `A` as a row bitmap.
    ///
    /// The id is hashed once, each slot's draw is compared as an integer
    /// against a threshold computed once from `p`, which decides exactly
    /// what the float comparison decides, and the loop evaluates four
    /// independent slot hashes per iteration so their multiply chains
    /// overlap.  No slot decision branches.
    ///
    /// # Panics
    ///
    /// If `words` holds fewer than `⌈slots/64⌉` words.
    pub fn sensing_words(self, p: f64, slots: usize, words: &mut [u64]) {
        assert!(
            words.len() * 64 >= slots,
            "{} words cannot hold {slots} slots",
            words.len()
        );
        let domain_head = SplitMix64::mix_head(DOMAIN_IDENTIFICATION);
        let id_head = SplitMix64::mix_head(self.0);
        let threshold = unit_threshold(p.clamp(0.0, 1.0));
        let below = |slot: usize| {
            u64::from(first_draw(domain_head, id_head, slot as u64) >> 11 < threshold)
        };
        for (w, word) in words.iter_mut().enumerate() {
            let base = w * 64;
            let len = slots.saturating_sub(base).min(64);
            let mut bits = 0u64;
            let mut bit = 0;
            while bit + 4 <= len {
                let slot = base + bit;
                bits |= (below(slot)
                    | below(slot + 1) << 1
                    | below(slot + 2) << 2
                    | below(slot + 3) << 3)
                    << bit;
                bit += 4;
            }
            for bit in bit..len {
                bits |= below(base + bit) << bit;
            }
            *word = bits;
        }
    }

    fn slot_decision(self, domain: u64, slot: u64, p: f64) -> bool {
        let draw = first_draw(
            SplitMix64::mix_head(domain),
            SplitMix64::mix_head(self.0),
            slot,
        );
        unit_f64(draw) < p.clamp(0.0, 1.0)
    }
}

/// The one per-slot draw behind both slot-keyed streams (data-phase
/// participation and identification sensing): the first output of the
/// generator seeded with `mix(domain, mix(id, slot))`, whose `f64` is
/// compared against `p`.  Callers pass `mix_head(domain)` and `mix_head(id)`,
/// so a column pays one full hash per slot instead of a seeded generator.
fn first_draw(domain_head: u64, id_head: u64, slot: u64) -> u64 {
    Xoshiro256::first_output(SplitMix64::mix_tail(
        domain_head,
        SplitMix64::mix_tail(id_head, slot),
    ))
}

/// The integer form of `unit_f64(draw) < p` for `p` in `[0, 1]` (or NaN):
/// `draw >> 11 < unit_threshold(p)`.  `unit_f64` is `(draw >> 11)·2⁻⁵³`,
/// exact in both factors, so the comparison is `draw >> 11 < p·2⁵³`, and
/// for an integer left side that is `< ⌈p·2⁵³⌉`.  The product is exact
/// (a power-of-two scaling), at most 2⁵³, and a NaN `p` casts to 0, which
/// no draw is below, as no float is below NaN.
fn unit_threshold(p: f64) -> u64 {
    (p * (1u64 << 53) as f64).ceil() as u64
}

/// A factory producing per-slot biased bit decisions for a node.
///
/// This is a thin convenience wrapper over [`NodeSeed`] used by the simulator
/// tag model so that the participation probability is stored alongside the
/// seed.
#[derive(Debug, Clone, Copy)]
pub struct SlotSeeded {
    seed: NodeSeed,
    probability: f64,
}

impl SlotSeeded {
    /// Creates a per-slot decision source for `seed` with participation
    /// probability `probability` (clamped to `[0, 1]`).
    #[must_use]
    pub fn new(seed: NodeSeed, probability: f64) -> Self {
        Self {
            seed,
            probability: probability.clamp(0.0, 1.0),
        }
    }

    /// The node seed this source is bound to.
    #[must_use]
    pub fn seed(&self) -> NodeSeed {
        self.seed
    }

    /// The participation probability.
    #[must_use]
    pub fn probability(&self) -> f64 {
        self.probability
    }

    /// Updates the participation probability (e.g. after the reader broadcasts
    /// a refined estimate of `K`).
    pub fn set_probability(&mut self, probability: f64) {
        self.probability = probability.clamp(0.0, 1.0);
    }

    /// Whether the node transmits in `slot`.
    #[must_use]
    pub fn participates(&self, slot: u64) -> bool {
        self.seed.participates_in_slot(slot, self.probability)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;
    use proptest::prelude::*;

    #[test]
    fn streams_are_domain_separated() {
        let seed = NodeSeed(42);
        let mut id_rng = Xoshiro256::seed_from_u64(SplitMix64::mix(DOMAIN_IDENTIFICATION, seed.0));
        let mut est_rng = seed.estimation_rng();
        let mut data_rng = seed.data_slot_rng(0);
        let a: Vec<u64> = (0..8).map(|_| id_rng.next_u64()).collect();
        let b: Vec<u64> = (0..8).map(|_| est_rng.next_u64()).collect();
        let c: Vec<u64> = (0..8).map(|_| data_rng.next_u64()).collect();
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_ne!(b, c);
    }

    #[test]
    fn data_slot_rng_differs_across_slots() {
        let seed = NodeSeed(7);
        let mut s0 = seed.data_slot_rng(0);
        let mut s1 = seed.data_slot_rng(1);
        assert_ne!(s0.next_u64(), s1.next_u64());
    }

    #[test]
    fn participation_is_reproducible() {
        let seed = NodeSeed(1234);
        for slot in 0..100 {
            assert_eq!(
                seed.participates_in_slot(slot, 0.3),
                seed.participates_in_slot(slot, 0.3)
            );
        }
    }

    #[test]
    fn participation_rate_matches_probability() {
        let seed = NodeSeed(9);
        let p = 0.2;
        let n = 20_000u64;
        let hits = (0..n).filter(|&s| seed.participates_in_slot(s, p)).count();
        let rate = hits as f64 / n as f64;
        assert!((rate - p).abs() < 0.02, "rate = {rate}");
    }

    #[test]
    fn slot_seeded_probability_clamped() {
        let s = SlotSeeded::new(NodeSeed(1), 2.0);
        assert_eq!(s.probability(), 1.0);
        assert!(s.participates(0));
    }

    #[test]
    fn sensing_and_data_streams_are_independent() {
        // With p = 0.5 over 256 slots, the two streams agreeing everywhere is
        // essentially impossible unless they alias.
        let seed = NodeSeed(55);
        let same =
            (0..256u64).all(|s| seed.sensing_in_slot(s, 0.5) == seed.participates_in_slot(s, 0.5));
        assert!(!same);
        // And the sensing stream is itself reproducible.
        for s in 0..64u64 {
            assert_eq!(seed.sensing_in_slot(s, 0.3), seed.sensing_in_slot(s, 0.3));
        }
    }

    /// Reference per-slot decision: a fully seeded generator per
    /// `(id, slot)`, whose first `f64` is compared against `p`.
    fn decision_reference(domain: u64, id: u64, slot: u64, p: f64) -> bool {
        let mixed = SplitMix64::mix(domain, SplitMix64::mix(id, slot));
        Xoshiro256::seed_from_u64(mixed).next_f64() < p.clamp(0.0, 1.0)
    }

    proptest! {
        /// The packed sensing column equals its per-slot decisions, and both
        /// per-slot forms equal the fully seeded reference, at every `p` the
        /// clamp must handle; the packed form leaves every bit past the last
        /// slot zero.
        #[test]
        fn column_forms_match_per_slot_decisions(
            id in any::<u64>(),
            m in 0usize..700,
            p_case in 0usize..7,
            p_random in 0.0f64..1.0,
        ) {
            let p = [0.0, 0.5, 1.0, p_random, -0.5, 1.5, f64::NAN][p_case];
            let seed = NodeSeed(id);
            // One spare word, pre-filled, to show the tail is written zero.
            let mut sensing = vec![u64::MAX; m.div_ceil(64) + 1];
            seed.sensing_words(p, m, &mut sensing);
            for slot in 0..m {
                let s = slot as u64;
                let sensed = sensing[slot / 64] >> (slot % 64) & 1 == 1;
                prop_assert_eq!(sensed, seed.sensing_in_slot(s, p));
                prop_assert_eq!(sensed, decision_reference(DOMAIN_IDENTIFICATION, id, s, p));
                prop_assert_eq!(
                    seed.participates_in_slot(s, p),
                    decision_reference(DOMAIN_DATA, id, s, p)
                );
            }
            let set: u32 = sensing.iter().map(|w| w.count_ones()).sum();
            let decided = (0..m as u64).filter(|&s| seed.sensing_in_slot(s, p)).count();
            prop_assert_eq!(set as usize, decided, "bits past slot {}", m);
        }
    }

    #[test]
    fn unit_threshold_decides_what_the_float_comparison_decides() {
        // Draws on either side of each probability's cut, and the extremes.
        for p in [0.0, 0.5, 1.0, 0.3, 1e-300, 1.0 - f64::EPSILON, f64::NAN] {
            let threshold = unit_threshold(p);
            let cut = threshold << 11;
            for draw in [
                0,
                1 << 11,
                cut.wrapping_sub(1 << 11),
                cut,
                cut | 0x7ff,
                u64::MAX,
            ] {
                assert_eq!(
                    draw >> 11 < threshold,
                    unit_f64(draw) < p,
                    "p = {p}, draw = {draw:#x}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "cannot hold")]
    fn sensing_words_rejects_a_short_buffer() {
        NodeSeed(1).sensing_words(0.5, 65, &mut [0u64; 1]);
    }

    #[test]
    fn different_nodes_make_different_decisions() {
        // With p = 0.5 over 256 slots, two nodes agreeing on every slot is
        // essentially impossible (probability 2^-256).
        let a = SlotSeeded::new(NodeSeed(100), 0.5);
        let b = SlotSeeded::new(NodeSeed(101), 0.5);
        let same = (0..256).all(|s| a.participates(s) == b.participates(s));
        assert!(!same);
    }
}
