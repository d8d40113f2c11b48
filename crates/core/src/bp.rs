//! The belief-propagation (bit-flipping) decoder of the data phase.
//!
//! §6(c) of the paper: the reader knows the channel matrix `H` (from
//! identification), can regenerate the participation matrix `D` (shared
//! pseudorandom rule), and has received the collision symbols `Y = D·H·B`.
//! It recovers the binary message matrix `B` one bit-position at a time by a
//! greedy bit-flipping search on the collision bipartite graph:
//!
//! 1. start from a candidate bit vector `b̂`,
//! 2. for each node `i` maintain the gain `G_i` — the reduction in
//!    `‖D·H·b̂ − y‖²` obtained by flipping bit `i`,
//! 3. repeatedly flip the bit with the largest positive gain, updating only
//!    the gains of that node and of the nodes it has collided with
//!    (neighbours-of-neighbours in the graph),
//! 4. stop when every gain is non-positive.
//!
//! The decoder is *incremental* (rateless): as new collision slots arrive the
//! caller appends them and re-decodes; messages whose CRC already passed are
//! locked (their gains pinned to −∞, matching the paper's optimization for the
//! near-far effect) so later iterations cannot corrupt them.
//!
//! # Hot-path design
//!
//! The greedy descent never re-walks a node's slots to derive a gain.  Each
//! position keeps a `PositionState`: the slot residuals `r_j`, per-node residual sums
//! `S_i = Σ_{j ∈ col(i)} r_j`, and gains derived from `S_i` in `O(1)` via
//!
//! ```text
//! G_i = 2·Re(S_i · conj(c_i)) − deg_i·|h_i|²,    c_i = ±h_i
//! ```
//!
//! (algebraically identical to `Σ_j |r_j|² − |r_j − c_i|²`).  The parts of
//! that formula no bit position changes live in one per-node table on the
//! decoder, `GainTerms`: the self-energy `deg_i·|h_i|²` (`+∞` while the node
//! is locked, which makes its gain `−∞` without a branch), the channel power
//! `|h_i|²` the pair scan's bound scales, and that bound at the node's
//! largest shared-slot count.  Every write to a channel or a lock goes
//! through the setter that refreshes its node's terms, and `add_slot`
//! refreshes the new row's participants, so a gain reads one table entry
//! instead of a column length, a lock probe and a norm.  Each state keeps
//! the sign `1 − 2·b_i` beside the bits, so `c_i` is the channel times an
//! exact `±1.0`.  A flip of node `f` walks its slots once, shifting their
//! residuals by the `−c_f` delta, and its neighbour list once: each
//! neighbour's sum absorbs the delta once per shared slot and its gain is
//! re-derived in `O(1)` in the same pass.  The argmax (ties to the highest
//! index) is lazy: every update marks it stale, and the next query rescans
//! the gains.  The pair-flip escape uses the same neighbour index
//! (columns sharing ≥ 1 slot, with multiplicity), so it costs at most one
//! `O(1)` evaluation per *colliding* pair instead of a residual walk over
//! every `(i, l)` combination.  The worklist's persistent states and its
//! cold-restart battery run this one kernel.
//!
//! # The dense regime
//!
//! At large K the participation rule's 0.15 floor decides (the rule and
//! where it binds are stated once in the crate-private `participation`
//! module): it puts `0.15·K` colliders in every slot once K ≥ 27 at the
//! large-K target of 4, so a large session's collision graph
//! is nearly complete: every flip touches most gains, no tag can lock for a
//! long while, and every position keeps moving as slots arrive.  Three exact
//! measures keep that regime cheap — none changes a decoded bit:
//!
//! * **One pruned pair scan** (`PositionState::best_pair`).  A pair sharing
//!   `n` slots can only beat zero joint gain if, at one endpoint, `−G` is
//!   below `n·|h|²` (the AM-GM split of the cross term, one half per
//!   endpoint).  The participation matrix keeps each neighbour list ordered
//!   by shared-slot count, largest first, so a node walks its list only
//!   while its own half passes at the entry's count (tested once per block
//!   of equal counts) and stops at the first entry that fails.  At large K
//!   most nodes fail at their head, which the scan tests from a `GainTerms`
//!   entry without touching the list.  The walk has no other per-partner
//!   branch: it takes each partner's signed change `c_l = h_l·sign_l` from
//!   the state's sign table, locked partners drop out through their
//!   `−∞` gains, and pairs whose halves both pass are met from both ends.
//!   `+` and `×` commute exactly in IEEE arithmetic, so a pair's joint gain
//!   has the same bits from either end, and the lexicographic tie-break
//!   makes the scan return exactly the pair the exhaustive scan returns.
//! * **One neighbour walk and a lazy two-pass argmax.**  A flip re-derives
//!   only the gains its neighbour walk reaches; a dense flip reaches most
//!   of them, but never walks a row or queues a node.  The walk applies to
//!   each sum exactly the subtractions a walk over the slots' rows would,
//!   in the same order, so every sum keeps its bits, and by the state's
//!   gain invariant (every stored gain equals `PositionState::gain_of` of
//!   its node, bit for bit) a gain it does not reach is already exact.  The
//!   argmax is found when asked, in two passes over the gain table: running
//!   maxima in independent lanes, which the compiler vectorizes, then the
//!   last index reaching their maximum.  That is exactly what a forward
//!   `>=` fold returns, without the fold's chain of dependent compares.
//! * **Position-parallel sweep.**  The bit positions of a sweep are
//!   independent, so once the matrix has `PARALLEL_SWEEP_MIN_PAIRS` (512)
//!   colliding pairs (a count the participation matrix keeps) their
//!   descents and cold-restart batteries run on every available hardware
//!   thread through [`crate::executor::work_steal_map`], and the frames and
//!   the slot-power ledger are folded serially in position order, so the
//!   outcome is bit-identical at any worker count.  No option selects the
//!   worker count.  The workers allocate nothing: the cold-restart scratch
//!   is built by the calling thread and re-seeded in place, and every buffer
//!   a descent touches lives in its state.  Allocating on the workers wakes
//!   glibc's per-thread arenas: a variant that built the cold-restart
//!   states on the workers peaked at 7.45 MB in a 40 s `large_k` benchmark
//!   run, against 6.12–6.38 MB with caller-owned scratch and 5.94–6.15 MB
//!   for the serial decoder.
//!
//! # Decode scheduling
//!
//! [`DecodeSchedule`] selects how `decode` spends that machinery.  The one
//! hard-decision schedule, [`DecodeSchedule::Worklist`] (the default), keeps
//! one *persistent* `PositionState` per bit position across calls, and every
//! sweep descends every position from where the previous one left it.  Every
//! update between sweeps (`append_row`, lock pinning, audit un-pinning,
//! refit deltas) rewrites only the residuals, sums and gains it moved, so a
//! new slot costs its own participants' gains rather than `positions ×
//! nodes`, and a position the update did not move is still a descent fixed
//! point: descending it costs one argmax and one pair scan, at which most
//! nodes of a dense session fail at their head.  Skipping the positions no
//! update moved would save little: a slot with any unlocked participant
//! moves every position, and on the benchmark's workloads 1.5–19 % of the
//! descents fall on unmoved positions.  When a session stalls, one sweep
//! races every position's warm state against a battery of cold restarts
//! (see `COLD_RESTARTS`), so early-evidence local minima cannot survive
//! indefinitely.
//! [`DecodeSchedule::MessagePassing`] is the soft-decision schedule of
//! [`crate::mp`].

use std::sync::Mutex;

use backscatter_codes::message::Message;
use backscatter_phy::complex::Complex;
use backscatter_prng::{Rng64, SplitMix64, Xoshiro256};

use crate::executor::{available_threads, work_steal_map};
use crate::participation::ParticipationMatrix;
use crate::{BuzzError, BuzzResult};

/// How [`BitFlippingDecoder::decode`] schedules per-position work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecodeSchedule {
    /// Hard-decision bit flipping over persistent per-position descent
    /// states: each decode call's sweeps descend every bit position from
    /// where the previous call left it, and a cold-restart battery races
    /// them when the session stalls.  The default, and the schedule the
    /// paper figures run.
    #[default]
    Worklist,
    /// Soft-decision message passing (see [`crate::mp`]): damped
    /// check-node / bit-node updates over the same sparse participation
    /// graph, per-position LLRs derived from the complex slot residuals, and
    /// confidence-weighted channel tracking for *unlocked* nodes.  Same
    /// determinism contract as the worklist.  This is the schedule
    /// that survives correlated fading — hard bit-flipping against stale
    /// slot-0 channel estimates collapses once fades decorrelate, while the
    /// soft decoder keeps tracking the channel through its best-guess
    /// frames.
    MessagePassing,
}

/// The reader's incremental collision decoder.
#[derive(Debug, Clone)]
pub struct BitFlippingDecoder {
    /// Estimated channel coefficient per node (column order of `D`).
    /// Written only through [`BitFlippingDecoder::set_channel`], which
    /// keeps the node's [`GainTerms`] in step.
    channels: Vec<Complex>,
    /// Framed message length in bits (payload + CRC).
    pub(crate) message_bits: usize,
    /// Participation matrix accumulated so far (`L × K`).
    pub(crate) d: ParticipationMatrix,
    /// Received symbols: `y[slot][bit position]`.
    pub(crate) y: Vec<Vec<Complex>>,
    /// Locked (CRC-verified) framed messages per node.  Written only
    /// through [`BitFlippingDecoder::set_lock`].
    locked: Vec<Option<Vec<bool>>>,
    /// Per node, the terms of its flip gain that do not depend on a bit
    /// position, kept equal to [`BitFlippingDecoder::terms_of`].
    terms: Vec<GainTerms>,
    /// The reader's estimate of the per-symbol noise power (measured on
    /// silence before the phase starts).  Used to gate CRC locking with a
    /// goodness-of-fit check — a 5-bit CRC alone is too weak against the many
    /// garbage candidates an incremental decoder produces.
    pub(crate) noise_power: f64,
    /// Each unlocked node's candidate frame at the end of the previous
    /// [`BitFlippingDecoder::decode`] call, together with how many slots the
    /// node had participated in at that point and how many consecutive
    /// new-evidence checks the candidate has survived unchanged.  A candidate
    /// that stays identical while new evidence keeps arriving is accepted even
    /// when the goodness-of-fit gate cannot be met (e.g. unmodelled
    /// interference).
    previous_candidates: Vec<Option<CandidateSnapshot>>,
    /// Safety cap on flips per bit position per decode call.
    max_flips_per_position: usize,
    /// Reused buffer for the participant column list built by
    /// [`BitFlippingDecoder::add_slot`] (one slot arrives per protocol
    /// round-trip; reallocating it every time showed up in profiles).
    participant_scratch: Vec<usize>,
    /// How `decode` schedules per-position work.
    schedule: DecodeSchedule,
    /// Persistent per-position state for [`DecodeSchedule::Worklist`], built
    /// lazily on the first worklist decode.
    worklist: Option<Box<WorklistState>>,
    /// Persistent per-edge message state for
    /// [`DecodeSchedule::MessagePassing`], built lazily on the first
    /// message-passing decode.
    pub(crate) mp: Option<Box<crate::mp::MessagePassingState>>,
}

/// A remembered candidate frame used by the stability locking gate.
#[derive(Debug, Clone, PartialEq)]
struct CandidateSnapshot {
    /// The candidate framed bits at the time of the snapshot.
    frame: Vec<bool>,
    /// How many slots the node had participated in at the time.
    evidence: usize,
    /// How many consecutive new-evidence decode calls left the candidate
    /// unchanged.
    stable_streak: u32,
}

/// The outcome of one decode pass.
#[derive(Debug, Clone, PartialEq)]
pub struct DecodeState {
    /// Per-node decoded *payloads* for every node whose CRC has passed
    /// (`None` for still-undecoded nodes).
    pub decoded_payloads: Vec<Option<Vec<bool>>>,
    /// Node indices newly decoded during this pass.
    pub newly_decoded: Vec<usize>,
    /// The current best-guess framed bits for every node (locked or not).
    pub candidate_frames: Vec<Vec<bool>>,
}

impl DecodeState {
    /// Number of nodes decoded so far.
    #[must_use]
    pub fn decoded_count(&self) -> usize {
        self.decoded_payloads.iter().filter(|p| p.is_some()).count()
    }

    /// Whether every node has been decoded.
    #[must_use]
    pub fn all_decoded(&self) -> bool {
        self.decoded_payloads.iter().all(Option::is_some)
    }
}

/// A node's position-independent flip-gain terms: the inputs `gain_of` and
/// the pair scan's bound would otherwise re-derive from the matrix's
/// offsets, the lock table and the channel on every call.
#[derive(Debug, Clone, Copy)]
struct GainTerms {
    /// `deg_i·|h_i|²`, the self-energy a flip subtracts, or `+∞` while the
    /// node is locked: a finite `2·Re(S·conj(c))` less `+∞` is the locked
    /// node's `−∞` gain, with no branch on the lock.  (Only non-finite
    /// observations make the dot product non-finite, and its NaN gain is no
    /// more picked by the argmax or the pair scan than `−∞` is.)
    energy: f64,
    /// `|h_i|²`, which the pair scan's bound multiplies by a pair's
    /// shared-slot count.
    power: f64,
    /// `max_shared_i·|h_i|²`, that bound at the node's largest count (its
    /// neighbour list's head): a node that fails it walks nothing, and the
    /// scan rejects it without touching the list.
    pair_bound: f64,
}

/// Incremental state of the greedy descent for one bit position.
///
/// All views are kept consistent under [`PositionState::flip_all`]:
/// `residual[j]` absorbs the flipped node's channel delta for its slots,
/// `residual_sums[i]` absorbs the same delta once per shared slot, and the
/// gains are re-derived from `residual_sums` in `O(1)` each.  Nothing is
/// ever recomputed by walking a node's full slot list after initialization.
///
/// Gain invariant: between operations every `gains[i]` has exactly the bits
/// of [`PositionState::gain_of`]`(i)`.  Every operation that moves a node's
/// residual sum, bit, slot count, channel or lock re-derives that node's
/// gain through `gain_of`, and the flip's neighbour walk reaches every sum
/// it moves, so a gain it does not reach keeps its bits.  `best` is either
/// `None` or the argmax of `gains`; every update leaves it `None`, and the
/// next query rescans.
///
/// The state holds no reference to its decoder — every method takes the
/// decoder as a parameter — so the worklist schedule can keep one state per
/// position alive across decode calls while the decoder itself mutates
/// (locks, new slots, channel refits).
#[derive(Debug, Clone)]
struct PositionState {
    /// Candidate bit per node.
    b: Vec<bool>,
    /// `1 − 2·b_i` per node, exactly `±1.0` and negated with each flip:
    /// the signed change `c_i = h_i·sign_i` a flip causes has the bits of
    /// the negated channel without a branch.  The sign belongs on the
    /// channel, not on the gain's dot product: a zero dot product negated is
    /// `−0.0`, while the gain on the negated channel can give `+0.0`.
    sign: Vec<f64>,
    /// Slot residuals `r_j = y_j − Σ_i D_{j,i} h_i b_i`.
    residual: Vec<Complex>,
    /// `S_i = Σ_{j ∈ col(i)} r_j` per node.
    residual_sums: Vec<Complex>,
    /// Flip gain per node (−∞ for locked nodes), derived from `S_i`.
    gains: Vec<f64>,
    /// The `(node, gain)` of the largest gain, ties to the highest index;
    /// `None` once an update has made it stale.
    best: Option<(usize, f64)>,
}

/// Cold restarts per position: one deterministic all-zeros start plus three
/// pseudorandom ones.  The worklist schedule runs this battery in the first
/// sweep of an escalated call (a stalled session, see `decode_worklist_on`),
/// which races every position's warm state against the battery.
const COLD_RESTARTS: u64 = 4;

/// Consecutive new-evidence decode calls a candidate must survive unchanged
/// before the stability gate trusts it.  Warm candidates are stable *by
/// construction* — a persistent state only moves when perturbed — so the
/// streak must be long before stability is taken as evidence of correctness
/// rather than of persistence.
const STABLE_LOCK_STREAK: u32 = 8;

/// Observations an unlocked node needs before the message-passing schedule
/// may lock it on an entangled (not all-clean) fit.  A node seen in one or
/// two slots shared with other unlocked nodes is underdetermined, and a
/// 5-bit CRC passes one garbage candidate in 32.
///
/// The hard worklist does without this floor; its overfit-pressure floor
/// (`rows ≥ unlocked/2`) and the post-lock audit guard it.  There the floor
/// held every `fig9` lock back to slot 12 (slot 7 without it) and cost
/// `fig10` its speed-up over TDMA (0.98× against 1.46× without it), while
/// the periodic lock census (`protocol::tests`, 1,600 sessions) reads 2
/// wrong messages without it and read 0 with it.
///
/// The soft schedule needs it.  Without the floor it locks two wrong frames
/// on the noiseless (seed 170, K = 3) session of
/// `mp::tests::noiseless_differential_against_bit_flipping`, where
/// `h₀ ≈ −h₁`, and over 1,500 periodic `paper_uplink` sessions (K = 2, 4,
/// 8, 12 and 16 at 300 locations each) its wrong messages rise from 18 to
/// 37.
const MIN_SOFT_LOCK_EVIDENCE: usize = 3;

/// Colliding-pair count of the participation matrix from which a worklist
/// sweep descends its positions on parallel workers.  Below it a
/// sweep's descents are too cheap to pay for a parallel map (35–38 µs for
/// one spawned worker beside the calling thread on a 2-core x86-64 VM).
/// Every K ≤ 16 session (at most 120 pairs) stays serial, leaving the
/// cores to session-level parallelism such as a fleet's, while a dense
/// session at the participation floor crosses it within a few slots: all
/// of a K = 100 session and K = 150's early slots sweep on both cores.
///
/// Measured with the neighbour-walk kernel and the caller-run executor on
/// the `large_k` benchmark (2-core x86-64 VM, release, seed 1, alternating
/// 10 s runs): five rounds of 256, 512 and 1,024 pairs read medians of
/// 17.29, 16.81 and 16.31 sessions/s, and eight pairs of 256 against 512
/// read 17.20 against 16.83 (256 won 6 of 8, by less than 512's
/// interquartile range, 16.49–17.14), so 512 stays.  No K ≤ 16 session
/// reaches either value, so `paper_mix` and `fleet_k16` cannot move.
const PARALLEL_SWEEP_MIN_PAIRS: usize = 512;

/// The O(1) flip gain `2·Re(S · conj(c)) − energy` of a node with residual
/// sum `S`, signed change `c = ±h` and [`GainTerms::energy`] `energy`.
/// `|c|² = |h|²` bit for bit, since `c` is `h` times an exact `±1.0`, so
/// the stored `deg·|h|²` is the self-energy the flip subtracts; a locked
/// node's `+∞` energy makes its gain `−∞`.
fn node_gain(s: Complex, c: Complex, energy: f64) -> f64 {
    2.0 * (s.re * c.re + s.im * c.im) - energy
}

/// The `(index, gain)` a forward `>=` fold from `(0, −∞)` leaves: the
/// largest gain at the highest index that holds it (compared by value, so
/// `±0.0` tie, and the winner keeps its own bits), the last index when
/// every gain is `−∞`, and `(0, −∞)` when no gain compares (NaN or empty).
///
/// Two passes instead of the fold's chain of dependent compares: running
/// maxima in independent lanes, which the compiler vectorizes, then a
/// backward search for the last gain that reaches their maximum.
fn argmax(gains: &[f64]) -> (usize, f64) {
    let larger = |m: f64, g: f64| if g > m { g } else { m };
    let mut lanes = [f64::NEG_INFINITY; 8];
    let chunks = gains.chunks_exact(lanes.len());
    let tail = chunks.remainder();
    for chunk in chunks {
        for (m, &g) in lanes.iter_mut().zip(chunk) {
            *m = larger(*m, g);
        }
    }
    let max = tail
        .iter()
        .chain(&lanes)
        .fold(f64::NEG_INFINITY, |m, &g| larger(m, g));
    gains
        .iter()
        .rposition(|&g| g >= max)
        .map_or((0, f64::NEG_INFINITY), |node| (node, gains[node]))
}

impl PositionState {
    /// Allocates a state sized for `decoder` and seeds it for
    /// (`position`, `restart`).  Later restarts re-seed the same allocations
    /// through [`PositionState::reinit`] instead of rebuilding from scratch.
    fn new(decoder: &BitFlippingDecoder, position: usize, restart: u64) -> Self {
        let mut state = Self::unseeded(decoder);
        state.reinit(decoder, position, restart);
        state
    }

    /// Allocates every buffer a state sized for `decoder` needs, with
    /// placeholder contents: [`PositionState::reinit`] must seed it before
    /// use.  This is the scratch the sweep's cold-restart battery re-seeds,
    /// built on the calling thread so the sweep's workers never allocate.
    fn unseeded(decoder: &BitFlippingDecoder) -> Self {
        let k = decoder.channels.len();
        let l = decoder.d.rows();
        Self {
            b: vec![false; k],
            sign: vec![1.0; k],
            residual: vec![Complex::ZERO; l],
            residual_sums: vec![Complex::ZERO; k],
            gains: vec![f64::NEG_INFINITY; k],
            best: None,
        }
    }

    /// Re-seeds every buffer in place for `position` from a deterministic
    /// pseudorandom starting assignment (restart 0 is all-zeros, the fastest
    /// start when collisions are sparse; locked nodes always use their
    /// verified bit).  Performs exactly the arithmetic the from-scratch build
    /// would, so reusing a state cannot change a decode trajectory.
    fn reinit(&mut self, decoder: &BitFlippingDecoder, position: usize, restart: u64) {
        let mut rng = Xoshiro256::seed_from_u64(SplitMix64::mix(
            0xb17_f11b ^ position as u64,
            SplitMix64::mix(decoder.d.rows() as u64, restart),
        ));
        for (i, (bit, sign)) in self.b.iter_mut().zip(&mut self.sign).enumerate() {
            *bit = match &decoder.locked[i] {
                Some(frame) => frame[position],
                None => {
                    if restart == 0 {
                        false
                    } else {
                        rng.next_bit()
                    }
                }
            };
            *sign = 1.0 - 2.0 * f64::from(u8::from(*bit));
        }
        for (j, slot_residual) in self.residual.iter_mut().enumerate() {
            let fit: Complex = decoder
                .d
                .row(j)
                .iter()
                .filter(|&&i| self.b[i])
                .map(|&i| decoder.channels[i])
                .sum();
            *slot_residual = decoder.y[j][position] - fit;
        }
        for (i, sum) in self.residual_sums.iter_mut().enumerate() {
            *sum = decoder.d.col(i).iter().map(|&j| self.residual[j]).sum();
        }
        self.recompute_gains(decoder);
    }

    /// The signal change flipping `node` would cause in its slots.
    fn change_of(&self, decoder: &BitFlippingDecoder, node: usize) -> Complex {
        decoder.channels[node].scale(self.sign[node])
    }

    /// O(1) gain of flipping `node`, derived from its residual sum and the
    /// decoder's [`GainTerms`] (−∞ for a locked node).
    fn gain_of(&self, decoder: &BitFlippingDecoder, node: usize) -> f64 {
        node_gain(
            self.residual_sums[node],
            self.change_of(decoder, node),
            decoder.terms[node].energy,
        )
    }

    /// Re-derives every gain in one linear pass (the seeding step of
    /// [`PositionState::reinit`]).
    fn recompute_gains(&mut self, decoder: &BitFlippingDecoder) {
        let nodes = (self.residual_sums.iter().zip(&self.sign))
            .zip(decoder.channels.iter().zip(&decoder.terms));
        for (gain, ((&s, &sign), (&h, terms))) in self.gains.iter_mut().zip(nodes) {
            *gain = node_gain(s, h.scale(sign), terms.energy);
        }
        self.best = None;
    }

    /// Re-derives one node's gain and marks the argmax stale.
    fn refresh_gain(&mut self, decoder: &BitFlippingDecoder, node: usize) {
        self.gains[node] = self.gain_of(decoder, node);
        self.best = None;
    }

    /// Moves `node`'s signal in its slots by `delta`: each of those slots'
    /// residuals loses `delta`, and every residual sum loses it once per slot
    /// its node shares with `node` (`node`'s own once per slot).  One walk
    /// over `node`'s neighbour list applies those subtractions, each sum's in
    /// the order a walk over the slots' rows would, so every sum keeps its
    /// bits, and re-derives each moved gain from its final sum.  A flip moves
    /// the signal by its signed change; a channel refit of a node whose
    /// candidate bit here is 1 moves it by the estimate's change.
    fn shift_slots(&mut self, decoder: &BitFlippingDecoder, node: usize, delta: Complex) {
        let slots = decoder.d.col(node);
        for &j in slots {
            self.residual[j] -= delta;
        }
        // One index check per node covers every per-node table.
        let k = self.gains.len();
        let (sums, gains, sign) = (
            &mut self.residual_sums[..k],
            &mut self.gains[..k],
            &self.sign[..k],
        );
        let (channels, terms) = (&decoder.channels[..k], &decoder.terms[..k]);
        let mut shift = |node: usize, times: u32| {
            let sum = &mut sums[node];
            for _ in 0..times {
                *sum -= delta;
            }
            gains[node] = node_gain(*sum, channels[node].scale(sign[node]), terms[node].energy);
        };
        // A node in no slot is in no row, but its flip still moves the sign
        // of its own (zero) gain.
        shift(node, slots.len() as u32);
        for &(l, shared) in decoder.d.neighbors(node) {
            shift(l as usize, shared);
        }
        self.best = None;
    }

    /// Applies the flips in `nodes` in order and re-derives every gain they
    /// move: a partner of two flipped nodes is re-derived last from its
    /// final sum.
    fn flip_all(&mut self, decoder: &BitFlippingDecoder, nodes: &[usize]) {
        for &node in nodes {
            let change = self.change_of(decoder, node);
            self.b[node] = !self.b[node];
            self.sign[node] = -self.sign[node];
            self.shift_slots(decoder, node, change);
        }
    }

    /// Absorbs one freshly appended participation row (`row` must be the
    /// next unseen slot): computes its residual under the current candidate
    /// bits, folds it into the participants' residual sums, and refreshes
    /// their gains point-wise.
    fn append_row(&mut self, decoder: &BitFlippingDecoder, row: usize, position: usize) {
        debug_assert_eq!(row, self.residual.len(), "rows must be absorbed in order");
        let cols = decoder.d.row(row);
        let fit: Complex = cols
            .iter()
            .filter(|&&i| self.b[i])
            .map(|&i| decoder.channels[i])
            .sum();
        let r = decoder.y[row][position] - fit;
        self.residual.push(r);
        for &i in cols {
            self.residual_sums[i] += r;
            self.refresh_gain(decoder, i);
        }
    }

    /// The `(node, gain)` of the most profitable single flip, ties to the
    /// highest index; rescans the gains ([`argmax`]) when an update left the
    /// argmax stale.
    fn best_single(&mut self) -> (usize, f64) {
        *self.best.get_or_insert_with(|| argmax(&self.gains))
    }

    /// Looks for a pair of unlocked colliding nodes whose *joint* flip reduces
    /// the residual error, returning the pair if one exists.  Used to escape
    /// local minima of the single-bit descent.
    ///
    /// For a colliding pair the joint gain decomposes into the two individual
    /// gains plus a cross term over their shared slots:
    /// `G_{i,l} = G_i + G_l − 2·n_{il}·Re(c_i · conj(c_l))`, so each candidate
    /// pair costs O(1) via the neighbour index (non-colliding pairs have no
    /// cross term and cannot beat their individual, non-positive, gains).
    /// The result is the best joint flip over every colliding pair of
    /// unlocked nodes, lexicographically first among equal gains, or `None`
    /// when no pair gains more than `1e-9`.
    ///
    /// The scan skips pairs that provably cannot win.  With
    /// `|Re(c_i·conj(c_l))| ≤ |h_i|·|h_l|` and `2ab ≤ a² + b²`, a pair
    /// sharing `n` slots splits into one half per endpoint:
    ///
    /// ```text
    /// G_i + G_l − 2·n·Re(c_i·conj(c_l))
    ///     ≤ G_i + G_l + 2·n·|h_i|·|h_l|
    ///     ≤ (G_i + n·|h_i|²) + (G_l + n·|h_l|²),
    /// ```
    ///
    /// so a pair can only win if the half of one endpoint is positive, up to
    /// a relative slack that covers the rounding of the computed gains.  Each
    /// node `c` therefore walks its neighbour list only while its own half
    /// passes, `G_c + n·|h_c|² > −SLACK·(1 + |G_c|)` at the entry's count
    /// `n`.  The list is ordered by count, largest first, and the half rises
    /// with `n`, so the entries that pass form a prefix and the walk stops at
    /// the first one that fails, testing the bound once per block of equal
    /// counts; a node that fails at its head (its largest
    /// count, whose bound `GainTerms::pair_bound` caches) walks nothing and
    /// is rejected without touching its list.  Every pair that can gain more
    /// than `1e-9` is
    /// thus met from an endpoint whose half passes.  A locked node's `−∞`
    /// gain fails at once and sinks every joint gain it enters, and a pair
    /// whose halves both pass is simply evaluated from both ends: the joint
    /// gain is a sum of commuted IEEE products and sums, so both ends compute
    /// the same bits.  With the lexicographic tie-break the result is exactly
    /// the exhaustive scan's ([`PositionState::best_pair_exhaustive`] in the
    /// tests).  In the dense collisions of large sessions most nodes fail at
    /// their head, and most walks stop early: on the `large_k` benchmark
    /// about a fifth of the entries belong to nodes whose head passes, and
    /// the walks evaluate a third of those.  Each signed change is the
    /// channel times the state's sign, so the scan fills no table and
    /// allocates nothing.
    fn best_pair(&self, decoder: &BitFlippingDecoder) -> Option<[usize; 2]> {
        /// Relative slack of the walk's bound.  It dwarfs the `~1e-15`
        /// relative rounding of a computed joint gain, so skipped pairs stay
        /// below zero, and only ever lengthens a walk.
        const SLACK: f64 = 1e-9;
        let mut best_gain = 1e-9;
        let mut best: Option<[usize; 2]> = None;
        // One index check per node covers every per-node table.
        let k = self.gains.len();
        let (gains, sign) = (&self.gains[..k], &self.sign[..k]);
        let (channels, all_terms) = (&decoder.channels[..k], &decoder.terms[..k]);
        for c in 0..k {
            let gc = gains[c];
            let terms = all_terms[c];
            let floor = -SLACK * (1.0 + gc.abs());
            // The bound at the head's count, cached: most nodes of a dense
            // session fail it and never touch their list.
            if gc + terms.pair_bound <= floor {
                continue;
            }
            let cc = channels[c].scale(sign[c]);
            // The smallest count known to pass: the bound moves only where
            // the count does, so each count block is tested once.
            let mut passing = u32::MAX;
            for &(l, shared) in decoder.d.neighbors(c) {
                if shared < passing {
                    if gc + f64::from(shared) * terms.power <= floor {
                        break;
                    }
                    passing = shared;
                }
                let l = l as usize;
                let cl = channels[l].scale(sign[l]);
                let cross = cc.re * cl.re + cc.im * cl.im;
                let joint_gain = gc + gains[l] - 2.0 * f64::from(shared) * cross;
                if joint_gain >= best_gain {
                    let pair = if c < l { [c, l] } else { [l, c] };
                    if joint_gain > best_gain || best.is_some_and(|b| pair < b) {
                        best_gain = joint_gain;
                        best = Some(pair);
                    }
                }
            }
        }
        best
    }

    /// The exhaustive pair scan (every unlocked node's whole neighbour list
    /// per call), the reference [`PositionState::best_pair`] is pinned to:
    /// the best joint gain above `1e-9`, lexicographically first among
    /// equal gains.
    #[cfg(test)]
    fn best_pair_exhaustive(&self, decoder: &BitFlippingDecoder) -> Option<[usize; 2]> {
        let mut best: Option<(f64, [usize; 2])> = None;
        for i in 0..self.b.len() {
            if decoder.locked[i].is_some() {
                continue;
            }
            let ci = self.change_of(decoder, i);
            for &(l, shared) in decoder.d.neighbors(i) {
                let l = l as usize;
                if l <= i || decoder.locked[l].is_some() {
                    continue;
                }
                let cl = self.change_of(decoder, l);
                let cross = ci.re * cl.re + ci.im * cl.im;
                let joint_gain = self.gains[i] + self.gains[l] - 2.0 * f64::from(shared) * cross;
                let wins = best
                    .as_ref()
                    .is_none_or(|&(g, pair)| joint_gain > g || (joint_gain == g && [i, l] < pair));
                if joint_gain > 1e-9 && wins {
                    best = Some((joint_gain, [i, l]));
                }
            }
        }
        best.map(|(_, pair)| pair)
    }

    /// Total residual error of the current assignment.
    fn error(&self) -> f64 {
        self.residual.iter().map(|r| r.norm_sqr()).sum()
    }
}

impl BitFlippingDecoder {
    /// Creates a decoder for `channels.len()` nodes with framed messages of
    /// `message_bits` bits.  `noise_power` is the reader's estimate of the
    /// per-symbol noise power (readers measure this on silence; pass 0.0 to
    /// disable the goodness-of-fit gate and rely on the CRC alone).
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] for an empty channel list, a
    /// framed length too short to carry a CRC-5, or a negative noise power.
    pub fn new(channels: Vec<Complex>, message_bits: usize, noise_power: f64) -> BuzzResult<Self> {
        if channels.is_empty() {
            return Err(BuzzError::InvalidParameter(
                "decoder needs at least one node",
            ));
        }
        if message_bits < 6 {
            return Err(BuzzError::InvalidParameter(
                "framed messages must be at least 6 bits (payload + CRC-5)",
            ));
        }
        if !(noise_power >= 0.0 && noise_power.is_finite()) {
            return Err(BuzzError::InvalidParameter(
                "noise power must be finite and non-negative",
            ));
        }
        let k = channels.len();
        let mut decoder = Self {
            channels,
            message_bits,
            d: ParticipationMatrix::new(k),
            y: Vec::new(),
            locked: vec![None; k],
            terms: Vec::with_capacity(k),
            noise_power,
            previous_candidates: vec![None; k],
            max_flips_per_position: 200 * k,
            participant_scratch: Vec::with_capacity(k),
            schedule: DecodeSchedule::default(),
            worklist: None,
            mp: None,
        };
        decoder.terms = (0..k).map(|node| decoder.terms_of(node)).collect();
        Ok(decoder)
    }

    /// The estimated channel coefficient per node.
    pub(crate) fn channels(&self) -> &[Complex] {
        &self.channels
    }

    /// The locked (CRC-verified) framed message per node.
    pub(crate) fn locked(&self) -> &[Option<Vec<bool>>] {
        &self.locked
    }

    /// `node`'s gain terms derived from scratch: its slot count and largest
    /// shared-slot count from the matrix, its channel and its lock.
    fn terms_of(&self, node: usize) -> GainTerms {
        let power = self.channels[node].norm_sqr();
        GainTerms {
            energy: if self.locked[node].is_some() {
                f64::INFINITY
            } else {
                self.d.col(node).len() as f64 * power
            },
            power,
            pair_bound: f64::from(self.d.max_shared(node)) * power,
        }
    }

    /// Replaces `node`'s channel estimate and its gain terms.
    pub(crate) fn set_channel(&mut self, node: usize, channel: Complex) {
        self.channels[node] = channel;
        self.terms[node] = self.terms_of(node);
    }

    /// Locks `node` to `frame` (or unlocks it with `None`) and updates its
    /// gain terms.
    fn set_lock(&mut self, node: usize, frame: Option<Vec<bool>>) {
        self.locked[node] = frame;
        self.terms[node] = self.terms_of(node);
    }

    /// Selects the decode schedule (builder style).  Switching schedules
    /// discards any persistent worklist or message-passing state, so the next
    /// decode starts the new schedule from a clean slate.
    #[must_use]
    pub fn with_schedule(mut self, schedule: DecodeSchedule) -> Self {
        if self.schedule != schedule {
            self.worklist = None;
            self.mp = None;
        }
        self.schedule = schedule;
        self
    }

    /// The decode schedule in use.
    #[must_use]
    pub fn schedule(&self) -> DecodeSchedule {
        self.schedule
    }

    /// Mean per-(slot, position) residual power of `frames` against the
    /// accumulated observations: `mean_{j,pos} |y_{j,pos} − Σ_i D_{j,i}
    /// h_i·frames[i][pos]|²`.  This is the quantity whose plateau a recovery
    /// layer watches for decode-stall detection (`crate::recovery`): on a
    /// converging session fresh slots keep pulling it toward the noise floor,
    /// while a diverged decode leaves it flat far above it.
    ///
    /// `frames` is indexed `[node][position]` — pass
    /// [`DecodeState::candidate_frames`].  Returns 0 before any slot arrives.
    #[must_use]
    pub fn residual_power(&self, frames: &[Vec<bool>]) -> f64 {
        let l = self.d.rows();
        if l == 0 || frames.len() != self.channels.len() {
            return 0.0;
        }
        let p = self.message_bits;
        let mut total = 0.0;
        for j in 0..l {
            let cols = self.d.row(j);
            for (pos, &received) in self.y[j].iter().enumerate() {
                let mut expected = Complex::ZERO;
                for &i in cols {
                    if frames[i][pos] {
                        expected += self.channels[i];
                    }
                }
                total += (received - expected).norm_sqr();
            }
        }
        total / (l * p) as f64
    }

    /// Cumulative number of message-passing sweeps performed across all
    /// decode calls (`None` before the first message-passing decode, or under
    /// the worklist schedule).  Sweep counts derive only from decoder
    /// state, so for a fixed seed and slot stream they are the observable
    /// behind the schedule's determinism contract.
    #[must_use]
    pub fn message_passing_sweeps(&self) -> Option<u64> {
        self.mp.as_deref().map(|mp| mp.sweeps())
    }

    /// Number of collision slots absorbed so far.
    #[must_use]
    pub fn slots(&self) -> usize {
        self.d.rows()
    }

    /// Appends one collision slot: which nodes participated and the
    /// `message_bits` received symbols of that slot.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] if the lengths do not match the
    /// decoder's node count / message length.
    pub fn add_slot(&mut self, participants: &[bool], symbols: Vec<Complex>) -> BuzzResult<()> {
        if participants.len() != self.channels.len() {
            return Err(BuzzError::InvalidParameter(
                "participation vector must cover every node",
            ));
        }
        if symbols.len() != self.message_bits {
            return Err(BuzzError::InvalidParameter(
                "slot must carry one symbol per message bit",
            ));
        }
        self.participant_scratch.clear();
        self.participant_scratch.extend(
            participants
                .iter()
                .enumerate()
                .filter(|(_, &p)| p)
                .map(|(i, _)| i),
        );
        self.d.push_row(&self.participant_scratch);
        self.y.push(symbols);
        // The new row moved its participants' slot and shared-slot counts,
        // and nobody else's.
        for &node in &self.participant_scratch {
            self.terms[node] = self.terms_of(node);
        }
        Ok(())
    }

    /// Runs one decode pass over all bit positions, locks any node whose
    /// candidate frame now passes its CRC, and reports progress.
    ///
    /// # Errors
    ///
    /// Returns [`BuzzError::InvalidParameter`] if called before any slot has
    /// been added.
    pub fn decode(&mut self) -> BuzzResult<DecodeState> {
        if self.y.is_empty() {
            return Err(BuzzError::InvalidParameter(
                "decode requires at least one collision slot",
            ));
        }
        match self.schedule {
            DecodeSchedule::Worklist => self.decode_worklist(),
            DecodeSchedule::MessagePassing => self.decode_message_passing(),
        }
    }

    /// The worklist decode: persistent per-position states, every position
    /// descended in every sweep (see the module docs).  Dense sweeps run on
    /// every available hardware thread.
    pub(crate) fn decode_worklist(&mut self) -> BuzzResult<DecodeState> {
        // Whether this session's sweeps are dense enough to run in parallel
        // (the matrix only grows, so the answer is fixed within the call).
        // Below the gate the thread count is never asked for: its first
        // query reads the process's CPU limits (~0.1 ms), which a sparse
        // session never needs.
        let workers = if self.d.colliding_pairs() >= PARALLEL_SWEEP_MIN_PAIRS {
            available_threads()
        } else {
            1
        };
        self.decode_worklist_on(workers)
    }

    /// [`BitFlippingDecoder::decode_worklist`] with up to `workers` threads
    /// per sweep.  The outcome does not depend on `workers`; the tests pin
    /// that by decoding the same session at several counts.
    fn decode_worklist_on(&mut self, workers: usize) -> BuzzResult<DecodeState> {
        let p = self.message_bits;
        // The worklist is detached from `self` while decoding so the states
        // can be mutated against `&self` context (locks are applied between
        // descent phases, never during one).
        let mut wl = match self.worklist.take() {
            Some(mut wl) => {
                wl.sync_new_rows(self);
                wl
            }
            None => Box::new(WorklistState::new(self)),
        };

        // Stall escalation: greedy warm continuation inherits early-evidence
        // local minima, and those can survive indefinitely — loudly (stuck
        // positions whose residual exceeds what noise explains) or silently
        // (a weak node's wrong bits cost less error than the noise floor)
        // — while the locking gates starve.  When the session stalls (no
        // lock for a couple of calls), every position races the full cold
        // restart battery against its warm state and keeps the better
        // minimum, i.e. the decoder periodically cross-checks itself against
        // a from-scratch decode.  The trigger follows a multiplicative
        // evidence schedule (the next escalation waits for ~1.5× the rows),
        // so a session pays O(log rows) batteries, not one per call.
        // Everything derives from decoder state, so determinism is preserved.
        let mut escalate = !self.locked.iter().all(Option::is_some)
            && wl.calls_since_lock >= 2
            && self.d.rows() >= wl.next_escalation_rows;
        if escalate {
            wl.next_escalation_rows = (self.d.rows() + 2).max(self.d.rows() * 3 / 2);
        }

        let mut newly_decoded = Vec::new();
        loop {
            self.sweep(&mut wl, escalate, workers);
            // The cold battery belongs to the call's first sweep only: a
            // second race inside the call, against the locks the first pass
            // added, would change the outcome and repeat four cold descents
            // per position.
            escalate = false;

            let per_slot_residual: Vec<f64> =
                wl.slot_power_total.iter().map(|&t| t / p as f64).collect();
            let locked_now = self.lock_pass(&wl.frames, &per_slot_residual, 0, &mut newly_decoded);
            if !locked_now.is_empty() {
                self.apply_locks_to_worklist(&mut wl, &locked_now);
            }
            let all_locked = self.locked.iter().all(Option::is_some);
            if locked_now.is_empty() || all_locked {
                break;
            }
        }

        self.audit_locks(&mut wl);
        // A lock the audit just erased must not be reported as decoded by
        // this call (its payload is `None` again); if it re-locks later it
        // will be reported then.  `newly_decoded` therefore lists the nodes
        // whose lock *survived* the call — across an erase/re-lock cycle a
        // node can appear in two calls' reports, so the rateless loop's
        // per-slot series counts a node at its latest lock, not per report.
        newly_decoded.retain(|&node| self.locked[node].is_some());
        self.snapshot_candidates(&wl.frames);

        // Channel refits perturb the residuals of every slot a refitted node
        // participates in; propagate those deltas into the persistent states
        // so the next call descends from consistent residuals.
        if !self.locked.iter().all(Option::is_some) && self.d.rows() >= 3 {
            let changes = self.reestimate_channels(&wl.frames);
            self.apply_channel_changes_to_worklist(&mut wl, &changes);
        }

        if newly_decoded.is_empty() {
            wl.calls_since_lock = wl.calls_since_lock.saturating_add(1);
        } else {
            wl.calls_since_lock = 0;
        }

        let state = DecodeState {
            decoded_payloads: self.decoded_payloads(),
            newly_decoded,
            candidate_frames: wl.frames.clone(),
        };
        self.worklist = Some(wl);
        Ok(state)
    }

    /// One sweep of the worklist schedule: descends every position and,
    /// under `escalate`, races each against the cold-restart battery, then
    /// refreshes the candidate frames and sums the slot-power ledger afresh.
    ///
    /// The descents are independent — each reads only the immutable decoder
    /// and its own [`PositionState`] — so they run on up to `workers`
    /// threads through the executor, and the frames and the ledger are
    /// folded afterwards, serially and in position order.  The sweep's
    /// outcome is therefore bit-identical at any worker count.
    ///
    /// Workers allocate nothing: the cold-restart scratch (one state per
    /// concurrently running descent) is built here and re-seeded by
    /// [`PositionState::reinit`], and every buffer a descent touches is
    /// preallocated in its state.  Allocating on the workers would wake
    /// glibc's per-thread arenas and raise peak RSS (see the module docs).
    fn sweep(&self, wl: &mut WorklistState, escalate: bool, workers: usize) {
        let WorklistState {
            positions,
            frames,
            slot_power_total,
            ..
        } = wl;
        let work: Vec<(usize, &mut PositionState)> = positions.iter_mut().enumerate().collect();
        let concurrent = workers.min(work.len()).max(1);
        let scratch = Mutex::new(if escalate {
            (0..concurrent)
                .map(|_| PositionState::unseeded(self))
                .collect()
        } else {
            Vec::new()
        });
        work_steal_map(workers, work, |(position, state)| {
            self.descend(state);
            if escalate {
                let mut cold = scratch
                    .lock()
                    .expect("scratch pool lock poisoned")
                    .pop()
                    .expect("one scratch state per concurrent descent");
                self.race_cold_restarts(position, state, &mut cold);
                scratch
                    .lock()
                    .expect("scratch pool lock poisoned")
                    .push(cold);
            }
        });
        slot_power_total.clear();
        slot_power_total.resize(self.d.rows(), 0.0);
        for (position, state) in positions.iter().enumerate() {
            for (node, frame) in frames.iter_mut().enumerate() {
                frame[position] = state.b[node];
            }
            for (total, r) in slot_power_total.iter_mut().zip(&state.residual) {
                *total += r.norm_sqr();
            }
        }
    }

    /// Races `state` against the cold-restart battery for `position` and
    /// keeps the best minimum.
    /// `cold` is scratch of the state's shape, re-seeded for every restart.
    fn race_cold_restarts(
        &self,
        position: usize,
        state: &mut PositionState,
        cold: &mut PositionState,
    ) {
        for restart in 0..COLD_RESTARTS {
            cold.reinit(self, position, restart);
            self.descend(cold);
            if cold.error() < state.error() {
                // Adopt the cold state by swapping buffers.
                std::mem::swap(state, cold);
            }
        }
    }

    /// Pins the freshly locked nodes into every persistent position state:
    /// where the candidate bit disagrees with the verified frame the node is
    /// flipped (the perturbation moves its slots' residuals and its
    /// neighbours' sums and gains); where it already agrees only the gain is
    /// pinned.  `lock_pass` locked each node to its candidate frame in
    /// `wl.frames`, so that frame already is the verified one.
    fn apply_locks_to_worklist(&self, wl: &mut WorklistState, locked_now: &[usize]) {
        for &node in locked_now {
            let frame = self.locked[node]
                .as_deref()
                .expect("lock_pass recorded this node");
            for (state, &want) in wl.positions.iter_mut().zip(frame) {
                if state.b[node] != want {
                    state.flip_all(self, &[node]);
                } else {
                    state.refresh_gain(self, node);
                }
            }
            wl.lock_rows[node] = self.d.rows();
        }
    }

    /// Post-lock audit (decision feedback with erasure): a *wrong* lock
    /// reveals itself as evidence accumulates, because its pinned bits
    /// inject ≈`|h|²` of energy into every new slot the node participates
    /// in, which no descent can explain away.  Any locked node whose mean
    /// own-slot residual climbs far above the plausibility threshold after
    /// it has gathered fresh evidence is unlocked again: its gains are
    /// un-pinned in every persistent state (point updates that leave the
    /// argmax stale) and its stability snapshot is cleared, so the next
    /// sweep's descents can rewrite its bits.
    /// Correct locks pass the audit — their slots stay explained — so this
    /// is a safety net with no steady-state cost.
    fn audit_locks(&mut self, wl: &mut WorklistState) {
        const AUDIT_EVIDENCE_ROWS: usize = 4;
        let p = self.message_bits;
        let rows = self.d.rows();
        // One erasure per call, worst offender first: when several locks
        // look implausible at once, the pollution usually radiates from one
        // wrong decision — erase it, let the residuals settle, and re-judge
        // the rest on the next call instead of mass-unlocking half the
        // session.
        let mut worst: Option<(f64, usize)> = None;
        for node in 0..self.channels.len() {
            if self.locked[node].is_none() {
                continue;
            }
            let locked_at = wl.lock_rows[node];
            if rows < locked_at.saturating_add(AUDIT_EVIDENCE_ROWS) {
                continue;
            }
            let slots = self.d.col(node);
            if slots.is_empty() {
                continue;
            }
            let mean_residual: f64 = slots
                .iter()
                .map(|&j| wl.slot_power_total[j] / p as f64)
                .sum::<f64>()
                / slots.len() as f64;
            let threshold = 0.25 * self.channels[node].norm_sqr() + 8.0 * self.noise_power;
            let severity = mean_residual / threshold.max(1e-300);
            if severity > 1.0 && worst.as_ref().is_none_or(|&(s, _)| severity > s) {
                worst = Some((severity, node));
            }
        }
        let Some((_, node)) = worst else {
            return;
        };
        // Before the node re-enters descent, refresh its channel estimate
        // from its *clean* slots (all co-participants locked, so each symbol
        // is a direct measurement once the others' verified contributions
        // are subtracted).  Under time-varying channels the common reason a
        // correct lock turns implausible is a stale channel estimate — an
        // erasure that re-descends against the same stale estimate would
        // re-derive the same wrong bits it just erased.  The refit runs
        // while the node is still locked so the delta can propagate through
        // the persistent states via the locked frame.
        let frame = self.locked[node].clone().expect("worst offender is locked");
        let mut numerator = Complex::ZERO;
        let mut observations = 0.0f64;
        for &j in self.d.col(node) {
            let cols = self.d.row(j);
            if cols.iter().any(|&i| i != node && self.locked[i].is_none()) {
                continue;
            }
            for (pos, &bit) in frame.iter().enumerate() {
                if !bit {
                    continue;
                }
                let mut sample = self.y[j][pos];
                for &i in cols {
                    if i == node {
                        continue;
                    }
                    if self.locked[i].as_ref().is_some_and(|f| f[pos]) {
                        sample -= self.channels[i];
                    }
                }
                numerator += sample;
                observations += 1.0;
            }
        }
        if observations >= (p / 2) as f64 {
            let candidate = numerator / observations;
            if candidate.is_finite() {
                let delta = candidate - self.channels[node];
                if delta.re != 0.0 || delta.im != 0.0 {
                    self.set_channel(node, candidate);
                    self.apply_channel_changes_to_worklist(wl, &[(node, delta)]);
                }
            }
        }
        self.set_lock(node, None);
        self.previous_candidates[node] = None;
        wl.lock_rows[node] = usize::MAX;
        for state in &mut wl.positions {
            state.refresh_gain(self, node);
        }
        // The erased bits need fresh evidence-driven descents; treat the
        // unlock like a stall so escalation re-arms promptly.
        wl.calls_since_lock = wl.calls_since_lock.max(2);
    }

    /// Propagates channel-refit deltas into the persistent position states.
    /// Only positions where the refitted (locked) node actually transmits a
    /// `1` carry its signal, and within those only the node's slots and its
    /// neighbours' sums and gains move.
    fn apply_channel_changes_to_worklist(
        &self,
        wl: &mut WorklistState,
        changes: &[(usize, Complex)],
    ) {
        for &(node, delta) in changes {
            let frame = self.locked[node]
                .as_deref()
                .expect("channel refits only move locked nodes");
            for (state, &bit) in wl.positions.iter_mut().zip(frame) {
                if bit {
                    state.shift_slots(self, node, delta);
                }
            }
        }
    }

    /// One CRC-and-confidence locking sweep over the candidate frames (the
    /// shared tail of both schedules).  Locks every node that qualifies,
    /// appends them to `newly_decoded`, and returns the nodes locked by this
    /// pass.
    ///
    /// A candidate whose slots are not all *clean* (every co-participant
    /// locked) must first clear the overfit-pressure floor, and under
    /// [`DecodeSchedule::MessagePassing`] also `MIN_SOFT_LOCK_EVIDENCE`
    /// observations.  It is then trusted when either
    ///   (a) the fit over the slots it participated in is explained by noise
    ///       (goodness-of-fit gate), or
    ///   (b) the candidate is unchanged over `STABLE_LOCK_STREAK` decode
    ///       calls even though new collision slots involving the node kept
    ///       arriving (stability gate) — this path covers unmodelled
    ///       interference, where residuals never reach the noise floor but
    ///       correct messages still stabilize.
    /// The CRC alone (5 bits) is too weak against the many garbage candidates
    /// an incremental decoder produces, and a false lock would poison all
    /// subsequent decoding.
    ///
    /// `window_start` restricts every residual/evidence computation to slots
    /// `j ≥ window_start`.  The bit-flipping schedule passes `0` (all
    /// slots); the message-passing schedule passes its sliding-window start,
    /// because under time-varying channels old slots were received through a
    /// *different* channel than the current estimate models, and judging a
    /// candidate on their residuals would reject every correct frame once
    /// fades decorrelate.
    pub(crate) fn lock_pass(
        &mut self,
        frames: &[Vec<bool>],
        per_slot_residual: &[f64],
        window_start: usize,
        newly_decoded: &mut Vec<usize>,
    ) -> Vec<usize> {
        let k = self.channels.len();
        let mut locked_now = Vec::new();
        for node in 0..k {
            if self.locked[node].is_some() {
                continue;
            }
            if !matches!(Message::verify(&frames[node]), Ok(Some(_))) {
                continue;
            }
            // The windowed view of the node's participations (the full
            // column when `window_start == 0`; columns are sorted).
            let col = self.d.col(node);
            let windowed_slots = &col[col.partition_point(|&j| j < window_start)..];
            if windowed_slots.is_empty() {
                // The node never transmitted yet (in the window): any CRC
                // match is accidental.
                continue;
            }
            // A node whose slots are all *clean* — every co-participant
            // already locked — is measured directly, with no overfit
            // freedom: that is how a weak straggler legitimately locks from
            // one or two looks once the rest of the population is resolved.
            let clean_observations = windowed_slots.iter().all(|&j| {
                self.d
                    .row(j)
                    .iter()
                    .all(|&i| i == node || self.locked[i].is_some())
            });
            if !clean_observations {
                if self.schedule == DecodeSchedule::MessagePassing
                    && windowed_slots.len() < MIN_SOFT_LOCK_EVIDENCE
                {
                    continue;
                }
                // Overfit-pressure floor: while the unlocked population
                // dwarfs the slot count, the descent can explain the data
                // exactly no matter what, so a passing fit carries no
                // information and only the 5-bit CRC stands between a
                // garbage candidate and a poisonous lock.  Demand
                // rows ≥ unlocked/2 before trusting entangled fits; the
                // floor falls as locks accumulate, so the decode ripple
                // accelerates itself.
                let unlocked = self.locked.iter().filter(|l| l.is_none()).count();
                if self.d.rows() < unlocked / 2 {
                    continue;
                }
            }
            // Both fit bounds judge the mean residual over the node's
            // windowed slots.  A node whose candidate bits are wrong leaves
            // roughly `|h|²` of unexplained energy in its slots.
            let mean_residual = windowed_slots
                .iter()
                .map(|&j| per_slot_residual[j])
                .sum::<f64>()
                / windowed_slots.len() as f64;
            let signal_power = self.channels[node].norm_sqr();
            // Goodness of fit: the residual is explained by noise (plus a
            // small tolerance), or small relative to the node's own signal.
            let fit_ok = mean_residual <= (4.0 * self.noise_power + 0.05 * signal_power).max(1e-12);
            // The stability path tolerates a residual floor above the noise
            // (unmodelled interference, imperfect channel estimates) but
            // still insists that the node's *own* signal is mostly explained,
            // so a wrong frame is rejected regardless of how stable it looks.
            let own_fit_ok = mean_residual <= 0.5 * signal_power + 4.0 * self.noise_power;
            let stable_ok = own_fit_ok
                && match &self.previous_candidates[node] {
                    Some(snapshot) => {
                        snapshot.frame == frames[node]
                            && self.d.col(node).len() > snapshot.evidence
                            && snapshot.stable_streak >= STABLE_LOCK_STREAK
                    }
                    None => false,
                };
            if fit_ok || stable_ok {
                self.set_lock(node, Some(frames[node].clone()));
                newly_decoded.push(node);
                locked_now.push(node);
            }
        }
        locked_now
    }

    /// Remembers the still-unlocked candidates so the next decode call (after
    /// new slots arrive) can apply the stability gate.
    pub(crate) fn snapshot_candidates(&mut self, frames: &[Vec<bool>]) {
        for node in 0..self.channels.len() {
            if self.locked[node].is_some() {
                continue;
            }
            let evidence = self.d.col(node).len();
            let streak = match &self.previous_candidates[node] {
                Some(prev) if prev.frame == frames[node] => {
                    if evidence > prev.evidence {
                        prev.stable_streak + 1
                    } else {
                        prev.stable_streak
                    }
                }
                _ => 0,
            };
            self.previous_candidates[node] = Some(CandidateSnapshot {
                frame: frames[node].clone(),
                evidence,
                stable_streak: streak,
            });
        }
    }

    /// The locked payloads (CRC stripped), `None` for undecoded nodes.
    pub(crate) fn decoded_payloads(&self) -> Vec<Option<Vec<bool>>> {
        self.locked
            .iter()
            .map(|l| l.as_ref().map(|f| f[..f.len() - 5].to_vec()))
            .collect()
    }

    /// Refits the channel estimates of *locked* nodes by least squares.
    ///
    /// The model `y_{j,pos} = Σ_i D_{j,i}·b_{i,pos}·h_i` is linear in `h`, so
    /// once some messages are CRC-verified their bits are known exactly and
    /// the slots containing only locked nodes over-determine those nodes'
    /// channels.  Replacing the (noisier) identification-phase estimates with
    /// this refit sharpens the interference cancellation that still-undecoded
    /// nodes depend on.
    ///
    /// A slot contributes when locked participants strictly outnumber
    /// unlocked ones (slots with only locked participants included), with
    /// the unlocked participants' interference subtracted from the
    /// right-hand side via their best-guess `candidates` frames and current
    /// channel estimates.  The system is solved for locked nodes only, so a
    /// wrong candidate can bias a refit but never directly rewrite an
    /// unlocked node's channel.
    ///
    /// Returns the applied updates as `(node, new − old)` deltas so the
    /// worklist schedule can propagate them into its persistent states.
    fn reestimate_channels(&mut self, candidates: &[Vec<bool>]) -> Vec<(usize, Complex)> {
        let k = self.channels.len();
        let p = self.message_bits;
        // Each eligible slot's locked participants, in row order, collected
        // once: `locked_in[locked_ptr[e]..locked_ptr[e + 1]]` belongs to
        // `eligible_slots[e]`.
        let mut eligible = vec![false; self.d.rows()];
        let mut eligible_slots: Vec<usize> = Vec::new();
        let mut locked_in: Vec<usize> = Vec::new();
        let mut locked_ptr: Vec<usize> = vec![0];
        for (j, is_eligible) in eligible.iter_mut().enumerate() {
            let row = self.d.row(j);
            let unlocked = row.iter().filter(|&&i| self.locked[i].is_none()).count();
            if 2 * unlocked < row.len() {
                *is_eligible = true;
                eligible_slots.push(j);
                locked_in.extend(row.iter().copied().filter(|&i| self.locked[i].is_some()));
                locked_ptr.push(locked_in.len());
            }
        }
        if eligible_slots.is_empty() {
            return Vec::new();
        }
        let involved: Vec<usize> = (0..k)
            .filter(|&i| self.locked[i].is_some() && self.d.col(i).iter().any(|&j| eligible[j]))
            .collect();
        if involved.is_empty() {
            return Vec::new();
        }
        // Normal equations over the involved nodes only.  The node → index
        // map is precomputed once (dense, usize::MAX = absent) so the inner
        // per-symbol accumulation below never scans the involved list.
        let n = involved.len();
        let mut index_of_node = vec![usize::MAX; k];
        for (idx, &node) in involved.iter().enumerate() {
            index_of_node[node] = idx;
        }
        let mut gram = vec![vec![0.0f64; n]; n];
        let mut rhs = vec![Complex::ZERO; n];
        let mut active: Vec<usize> = Vec::new();
        for (e, &j) in eligible_slots.iter().enumerate() {
            let cols = self.d.row(j);
            let locked_here = &locked_in[locked_ptr[e]..locked_ptr[e + 1]];
            let has_unlocked = locked_here.len() < cols.len();
            for pos in 0..p {
                active.clear();
                active.extend(
                    locked_here
                        .iter()
                        .copied()
                        .filter(|&i| self.locked[i].as_ref().is_some_and(|frame| frame[pos])),
                );
                // Best-guess interference of the (minority) unlocked
                // participants; none on locked-only slots.
                let mut observation = self.y[j][pos];
                if has_unlocked {
                    for &i in cols {
                        if self.locked[i].is_none() && candidates[i][pos] {
                            observation -= self.channels[i];
                        }
                    }
                }
                // Every active node is locked and in an eligible slot, so
                // it is involved.
                for &i in &active {
                    let ii = index_of_node[i];
                    rhs[ii] += observation;
                    for &l in &active {
                        gram[ii][index_of_node[l]] += 1.0;
                    }
                }
            }
        }
        // The Gram is real (shared symbol counts), so the solve runs in real
        // arithmetic: bit for bit the complex elimination, at a quarter of
        // the multiplications.
        let symbols: Vec<f64> = (0..n).map(|i| gram[i][i]).collect();
        for (i, row) in gram.iter_mut().enumerate() {
            // Tikhonov: keeps rarely-participating nodes solvable.
            row[i] += 1e-6;
        }
        let Ok(refit) = sparse_recovery::linalg::solve_real_square(gram, &rhs) else {
            return Vec::new();
        };
        let mut changes = Vec::new();
        for (slot_in_refit, &node) in involved.iter().enumerate() {
            let candidate = refit[slot_in_refit];
            // Ignore degenerate refits (a node that appears in very few
            // locked-only symbols can be poorly determined).
            if candidate.is_finite() && symbols[slot_in_refit] >= (2 * p) as f64 {
                let delta = candidate - self.channels[node];
                if delta.re != 0.0 || delta.im != 0.0 {
                    changes.push((node, delta));
                }
                self.set_channel(node, candidate);
            }
        }
        changes
    }

    /// One greedy descent from the state's current starting point.
    fn descend(&self, state: &mut PositionState) {
        for _ in 0..self.max_flips_per_position {
            let (best, best_gain) = state.best_single();
            // Flip the single best bit when it has positive gain, otherwise
            // try to escape the local minimum by flipping a *pair* of
            // colliding nodes whose joint flip reduces the error (single-bit
            // descent cannot cross such saddle points, which become common as
            // more nodes share each slot).
            if best_gain > 1e-12 {
                state.flip_all(self, &[best]);
            } else if let Some(pair) = state.best_pair(self) {
                state.flip_all(self, &pair);
            } else {
                break;
            }
        }
    }
}

/// The persistent scheduling state of [`DecodeSchedule::Worklist`]: one
/// descent state per bit position and the ledgers the locking gates read
/// (candidate frames, per-slot residual power).
///
/// Invariant: after each sweep, `frames` holds every state's bits and
/// `slot_power_total[j]` is the sum, in position order, of every state's
/// `|residual[j]|²`.  Lock flips and refit deltas move residuals between
/// sweeps and leave the ledger stale until the next sweep; the gates read
/// it only after a sweep.
#[derive(Debug, Clone)]
struct WorklistState {
    /// One persistent descent state per bit position.
    positions: Vec<PositionState>,
    /// Rows of the participation matrix already absorbed by every state.
    synced_rows: usize,
    /// Candidate frame per node, column-refreshed by every sweep.
    frames: Vec<Vec<bool>>,
    /// Per-slot residual power summed over positions (the locking gates'
    /// input), summed afresh by every sweep.
    slot_power_total: Vec<f64>,
    /// Decode calls since the last successful lock (stall detector).
    calls_since_lock: u32,
    /// Row count at which the next stall escalation may fire (multiplicative
    /// evidence schedule: each escalation pushes it to ~1.5× the rows).
    next_escalation_rows: usize,
    /// Per node: the row count when it was (last) locked, `usize::MAX` while
    /// unlocked.  Drives the post-lock audit.
    lock_rows: Vec<usize>,
}

impl WorklistState {
    /// Builds persistent states over the decoder's current matrix, from
    /// the all-zeros start.
    fn new(decoder: &BitFlippingDecoder) -> Self {
        let k = decoder.channels.len();
        let p = decoder.message_bits;
        let l = decoder.d.rows();
        let positions: Vec<PositionState> = (0..p)
            .map(|position| PositionState::new(decoder, position, 0))
            .collect();
        let mut frames = vec![vec![false; p]; k];
        for (position, state) in positions.iter().enumerate() {
            for (node, frame) in frames.iter_mut().enumerate() {
                frame[position] = state.b[node];
            }
        }
        Self {
            positions,
            synced_rows: l,
            frames,
            slot_power_total: Vec::new(),
            calls_since_lock: 0,
            next_escalation_rows: 0,
            lock_rows: decoder
                .locked
                .iter()
                .map(|locked| if locked.is_some() { l } else { usize::MAX })
                .collect(),
        }
    }

    /// Absorbs every participation row appended since the last decode call
    /// into each persistent state.
    fn sync_new_rows(&mut self, decoder: &BitFlippingDecoder) {
        let l = decoder.d.rows();
        for (position, state) in self.positions.iter_mut().enumerate() {
            for row in self.synced_rows..l {
                state.append_row(decoder, row, position);
            }
        }
        self.synced_rows = l;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_prng::NodeSeed;
    use proptest::prelude::*;

    /// Builds a decoder problem: `k` nodes with given channels, random framed
    /// messages, a participation matrix with probability `p`, and noiseless or
    /// noisy received symbols.  Returns (decoder, framed messages).
    fn make_problem(
        channels: &[Complex],
        slots: usize,
        p: f64,
        noise: f64,
        seed: u64,
    ) -> (BitFlippingDecoder, Vec<Vec<bool>>) {
        let k = channels.len();
        let frames: Vec<Vec<bool>> = (0..k)
            .map(|i| {
                Message::standard_32bit(seed * 100 + i as u64)
                    .unwrap()
                    .framed()
            })
            .collect();
        let message_bits = frames[0].len();
        let mut decoder =
            BitFlippingDecoder::new(channels.to_vec(), message_bits, noise * noise / 6.0).unwrap();
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(seed * 77 + i)).collect();
        let mut noise_rng = Xoshiro256::seed_from_u64(seed ^ 0xabcdef);
        for slot in 0..slots {
            let participants: Vec<bool> = seeds
                .iter()
                .map(|s| s.participates_in_slot(slot as u64, p))
                .collect();
            let symbols: Vec<Complex> = (0..message_bits)
                .map(|pos| {
                    let mut y = Complex::ZERO;
                    for i in 0..k {
                        if participants[i] && frames[i][pos] {
                            y += channels[i];
                        }
                    }
                    y + Complex::new(
                        (noise_rng.next_f64() - 0.5) * noise,
                        (noise_rng.next_f64() - 0.5) * noise,
                    )
                })
                .collect();
            decoder.add_slot(&participants, symbols).unwrap();
        }
        (decoder, frames)
    }

    fn diverse_channels(k: usize, seed: u64) -> Vec<Complex> {
        let mut rng = Xoshiro256::seed_from_u64(seed);
        (0..k)
            .map(|_| {
                Complex::from_polar(
                    0.4 + 0.8 * rng.next_f64(),
                    rng.next_f64() * core::f64::consts::TAU,
                )
            })
            .collect()
    }

    #[test]
    fn constructor_validation() {
        assert!(BitFlippingDecoder::new(vec![], 37, 0.0).is_err());
        assert!(BitFlippingDecoder::new(vec![Complex::ONE], 4, 0.0).is_err());
        assert!(BitFlippingDecoder::new(vec![Complex::ONE], 37, 0.0).is_ok());
        assert!(BitFlippingDecoder::new(vec![Complex::ONE], 37, -1.0).is_err());
    }

    #[test]
    fn add_slot_validation() {
        let mut d = BitFlippingDecoder::new(vec![Complex::ONE, Complex::I], 37, 0.0).unwrap();
        assert!(d.add_slot(&[true], vec![Complex::ZERO; 37]).is_err());
        assert!(d.add_slot(&[true, false], vec![Complex::ZERO; 10]).is_err());
        assert!(d.add_slot(&[true, false], vec![Complex::ZERO; 37]).is_ok());
        assert_eq!(d.slots(), 1);
    }

    #[test]
    fn add_slot_scratch_buffer_reuse_builds_correct_rows() {
        // Successive slots with different participant sets must produce the
        // right matrix rows even though the column list buffer is reused.
        let mut d = BitFlippingDecoder::new(vec![Complex::ONE, Complex::I, -Complex::ONE], 37, 0.0)
            .unwrap();
        d.add_slot(&[true, false, true], vec![Complex::ZERO; 37])
            .unwrap();
        d.add_slot(&[false, true, false], vec![Complex::ZERO; 37])
            .unwrap();
        d.add_slot(&[false, false, false], vec![Complex::ZERO; 37])
            .unwrap();
        assert_eq!(d.d.row(0), &[0, 2]);
        assert_eq!(d.d.row(1), &[1]);
        assert_eq!(d.d.row(2), &[] as &[usize]);
    }

    #[test]
    fn decode_without_slots_errors() {
        let mut d = BitFlippingDecoder::new(vec![Complex::ONE], 37, 0.0).unwrap();
        assert!(d.decode().is_err());
    }

    #[test]
    fn single_node_decodes_from_one_slot() {
        let channels = vec![Complex::new(0.8, -0.3)];
        let (mut decoder, frames) = make_problem(&channels, 1, 1.0, 0.0, 1);
        let state = decoder.decode().unwrap();
        assert!(state.all_decoded());
        assert_eq!(
            state.decoded_payloads[0].as_ref().unwrap(),
            &frames[0][..32]
        );
        assert_eq!(state.newly_decoded, vec![0]);
    }

    #[test]
    fn two_colliding_nodes_decode_noiselessly() {
        // The Fig. 2(b)/3(b) case: two nodes share every slot; the four-
        // point constellation is decodable from a single collision.
        let channels = vec![Complex::new(1.0, 0.1), Complex::new(-0.2, 0.7)];
        let (mut decoder, frames) = make_problem(&channels, 2, 1.0, 0.0, 2);
        let state = decoder.decode().unwrap();
        assert!(state.all_decoded());
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(state.decoded_payloads[i].as_ref().unwrap(), &frame[..32]);
        }
    }

    #[test]
    fn eight_nodes_decode_with_sparse_collisions_and_noise() {
        let channels = diverse_channels(8, 3);
        let (mut decoder, frames) = make_problem(&channels, 24, 0.5, 0.05, 3);
        let state = decoder.decode().unwrap();
        assert!(
            state.all_decoded(),
            "decoded only {} of 8",
            state.decoded_count()
        );
        for (i, frame) in frames.iter().enumerate() {
            assert_eq!(state.decoded_payloads[i].as_ref().unwrap(), &frame[..32]);
        }
    }

    #[test]
    fn incremental_decoding_makes_progress_as_slots_arrive() {
        // Rateless behaviour: with few slots only some nodes decode; adding
        // more slots decodes the rest, and already-decoded nodes stay locked.
        let channels = diverse_channels(10, 7);
        let (full_decoder, frames) = make_problem(&channels, 30, 0.4, 0.03, 7);
        // Re-create an empty decoder and feed slots gradually from the same
        // problem by regenerating it (deterministic).
        drop(full_decoder);
        let k = channels.len();
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(7 * 77 + i)).collect();
        let message_bits = frames[0].len();
        let mut decoder =
            BitFlippingDecoder::new(channels.clone(), message_bits, 0.03 * 0.03 / 6.0).unwrap();
        let mut noise_rng = Xoshiro256::seed_from_u64(7 ^ 0xabcdef);
        let mut decoded_after = Vec::new();
        let mut previously_decoded: Vec<usize> = Vec::new();
        for slot in 0..30u64 {
            let participants: Vec<bool> = seeds
                .iter()
                .map(|s| s.participates_in_slot(slot, 0.4))
                .collect();
            let symbols: Vec<Complex> = (0..message_bits)
                .map(|pos| {
                    let mut y = Complex::ZERO;
                    for i in 0..k {
                        if participants[i] && frames[i][pos] {
                            y += channels[i];
                        }
                    }
                    y + Complex::new(
                        (noise_rng.next_f64() - 0.5) * 0.03,
                        (noise_rng.next_f64() - 0.5) * 0.03,
                    )
                })
                .collect();
            decoder.add_slot(&participants, symbols).unwrap();
            let state = decoder.decode().unwrap();
            // Locked nodes never disappear from the decoded set.
            for &node in &previously_decoded {
                assert!(state.decoded_payloads[node].is_some());
            }
            previously_decoded = (0..k)
                .filter(|&n| state.decoded_payloads[n].is_some())
                .collect();
            decoded_after.push(state.decoded_count());
            if state.all_decoded() {
                break;
            }
        }
        // Progress is monotone and reaches everyone well before 30 slots.
        assert!(decoded_after.windows(2).all(|w| w[1] >= w[0]));
        assert_eq!(*decoded_after.last().unwrap(), k);
        assert!(
            decoded_after.len() < 30,
            "took {} slots",
            decoded_after.len()
        );
    }

    #[test]
    fn strong_node_decodes_before_weak_node() {
        // Near-far: one strong and one weak node, moderate noise.  The strong
        // node should decode at least as early as the weak one.
        let channels = vec![Complex::new(1.2, 0.0), Complex::new(0.12, 0.05)];
        let k = 2;
        let frames: Vec<Vec<bool>> = (0..k)
            .map(|i| Message::standard_32bit(900 + i as u64).unwrap().framed())
            .collect();
        let message_bits = frames[0].len();
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(31 + i)).collect();
        let mut decoder =
            BitFlippingDecoder::new(channels.clone(), message_bits, 0.08 * 0.08 / 6.0).unwrap();
        let mut noise_rng = Xoshiro256::seed_from_u64(55);
        let mut first_decoded: Vec<Option<usize>> = vec![None; k];
        for slot in 0..40u64 {
            let participants: Vec<bool> = seeds
                .iter()
                .map(|s| s.participates_in_slot(slot, 0.8))
                .collect();
            let symbols: Vec<Complex> = (0..message_bits)
                .map(|pos| {
                    let mut y = Complex::ZERO;
                    for i in 0..k {
                        if participants[i] && frames[i][pos] {
                            y += channels[i];
                        }
                    }
                    y + Complex::new(
                        (noise_rng.next_f64() - 0.5) * 0.08,
                        (noise_rng.next_f64() - 0.5) * 0.08,
                    )
                })
                .collect();
            decoder.add_slot(&participants, symbols).unwrap();
            let state = decoder.decode().unwrap();
            for i in 0..k {
                if state.decoded_payloads[i].is_some() && first_decoded[i].is_none() {
                    first_decoded[i] = Some(slot as usize);
                }
            }
            if state.all_decoded() {
                break;
            }
        }
        let strong = first_decoded[0].expect("strong node never decoded");
        if let Some(weak) = first_decoded[1] {
            assert!(strong <= weak, "strong {strong} vs weak {weak}");
        }
    }

    #[test]
    fn decoded_messages_never_regress_under_later_noise() {
        // The worklist's lock contract under hostile evidence: garbage slots
        // after every node has locked may make the post-lock audit erase a
        // lock, at most one per decode call, but no locked payload is ever
        // replaced by a different payload.
        fn decode_and_check(
            decoder: &mut BitFlippingDecoder,
            payloads: &mut Vec<Option<Vec<bool>>>,
            what: &str,
        ) -> usize {
            let state = decoder.decode().unwrap();
            let mut erased = 0;
            for (node, (before, now)) in payloads.iter().zip(&state.decoded_payloads).enumerate() {
                match (before, now) {
                    (Some(b), Some(n)) => assert_eq!(b, n, "{what}: node {node} replaced"),
                    (Some(_), None) => erased += 1,
                    _ => {}
                }
            }
            assert!(erased <= 1, "{what}: {erased} locks erased in one call");
            *payloads = state.decoded_payloads;
            erased
        }
        let k = 4;
        let channels = diverse_channels(k, 11);
        let (clean, frames) = make_problem(&channels, 10, 0.8, 0.02, 11);
        let mut decoder =
            BitFlippingDecoder::new(channels.clone(), frames[0].len(), clean.noise_power).unwrap();
        let mut payloads = vec![None; k];
        // The clean slots, one decode call per slot: every node locks to its
        // true payload.
        for slot in 0..clean.slots() {
            let participants: Vec<bool> = (0..k).map(|i| clean.d.row(slot).contains(&i)).collect();
            decoder
                .add_slot(&participants, clean.y[slot].clone())
                .unwrap();
            decode_and_check(&mut decoder, &mut payloads, &format!("clean slot {slot}"));
        }
        for (node, frame) in frames.iter().enumerate() {
            assert_eq!(payloads[node].as_deref(), Some(&frame[..32]), "node {node}");
        }
        // Five garbage slots with every node transmitting, then one call:
        // the audit erases the worst-fitting lock and keeps the others.
        let mut rng = Xoshiro256::seed_from_u64(999);
        for _ in 0..5 {
            let symbols: Vec<Complex> = (0..frames[0].len())
                .map(|_| Complex::new(rng.next_f64() * 4.0 - 2.0, rng.next_f64() * 4.0 - 2.0))
                .collect();
            decoder.add_slot(&[true; 4], symbols).unwrap();
        }
        let erased = decode_and_check(&mut decoder, &mut payloads, "after the garbage");
        assert_eq!(erased, 1, "setup: the audit erased a lock");
    }

    // ----- differential tests: incremental hot-path state vs brute force -----

    /// Brute-force flip gain straight from the definition:
    /// `Σ_{j ∈ col(node)} |r_j|² − |r_j − c|²` (the pre-incremental decoder's
    /// inner loop).
    fn reference_gain(decoder: &BitFlippingDecoder, state: &PositionState, node: usize) -> f64 {
        if decoder.locked[node].is_some() {
            return f64::NEG_INFINITY;
        }
        let change = state.change_of(decoder, node);
        decoder
            .d
            .col(node)
            .iter()
            .map(|&j| state.residual[j].norm_sqr() - (state.residual[j] - change).norm_sqr())
            .sum()
    }

    /// Brute-force slot residuals recomputed from the candidate bits.
    fn reference_residuals(
        decoder: &BitFlippingDecoder,
        state: &PositionState,
        position: usize,
    ) -> Vec<Complex> {
        (0..decoder.d.rows())
            .map(|j| {
                let fit: Complex = decoder
                    .d
                    .row(j)
                    .iter()
                    .filter(|&&i| state.b[i])
                    .map(|&i| decoder.channels[i])
                    .sum();
                decoder.y[j][position] - fit
            })
            .collect()
    }

    /// Brute-force joint pair gain straight from the residual definition,
    /// mirroring the pre-incremental `best_pair_flip` inner loop.
    fn reference_pair_gain(
        decoder: &BitFlippingDecoder,
        state: &PositionState,
        i: usize,
        l: usize,
    ) -> f64 {
        let ci = state.change_of(decoder, i);
        let cl = state.change_of(decoder, l);
        let d = &decoder.d;
        let mut rows: Vec<usize> = d.col(i).to_vec();
        for &j in d.col(l) {
            if !rows.contains(&j) {
                rows.push(j);
            }
        }
        rows.iter()
            .map(|&j| {
                let mut delta = Complex::ZERO;
                if d.col(i).contains(&j) {
                    delta += ci;
                }
                if d.col(l).contains(&j) {
                    delta += cl;
                }
                state.residual[j].norm_sqr() - (state.residual[j] - delta).norm_sqr()
            })
            .sum()
    }

    /// "Exactly" for incrementally-maintained floats means up to the
    /// re-association error of IEEE addition: the incremental ledger applies
    /// the same exact deltas as the brute-force recompute, in a different
    /// order.  A mixed absolute/relative bound of 1e-9 is ~4 orders of
    /// magnitude above the worst drift any of these sequences can accumulate
    /// and ~6 below the smallest decision threshold the decoder acts on.
    fn assert_close(a: f64, b: f64, what: &str) -> Result<(), TestCaseError> {
        if a == b {
            return Ok(());
        }
        let tol = 1e-9 * (1.0 + a.abs().max(b.abs()));
        prop_assert!((a - b).abs() <= tol, "{}: {} vs {}", what, a, b);
        Ok(())
    }

    proptest! {
        /// The tentpole invariant: across random problems and random flip
        /// sequences, the incrementally maintained residuals, residual sums,
        /// gains, and tournament argmax all match a brute-force recompute.
        #[test]
        fn incremental_state_matches_brute_force_across_flip_sequences(
            seed in 0u64..1_000_000,
            k in 2usize..7,
            slots in 2usize..14,
            restart in 0u64..4,
            flips in proptest::collection::vec(any::<u8>(), 1..32),
        ) {
            let channels = diverse_channels(k, seed ^ 0x5eed);
            let (decoder, _frames) = make_problem(&channels, slots, 0.5, 0.04, seed % 500);
            let position = (seed % 37) as usize;
            let mut state = PositionState::new(&decoder, position, restart);
            for &f in &flips {
                state.flip_all(&decoder, &[f as usize % k]);
                let expected_residuals = reference_residuals(&decoder, &state, position);
                for j in 0..decoder.d.rows() {
                    assert_close(state.residual[j].re, expected_residuals[j].re, "residual.re")?;
                    assert_close(state.residual[j].im, expected_residuals[j].im, "residual.im")?;
                }
                for node in 0..k {
                    let s: Complex = decoder.d.col(node).iter().map(|&j| state.residual[j]).sum();
                    assert_close(state.residual_sums[node].re, s.re, "residual_sum.re")?;
                    assert_close(state.residual_sums[node].im, s.im, "residual_sum.im")?;
                    assert_close(state.gains[node], reference_gain(&decoder, &state, node), "gain")?;
                }
                // The argmax carries the true maximum gain, at the highest
                // index that holds it.
                let (best, best_gain) = state.best_single();
                let max_gain = (0..k).map(|n| state.gains[n]).fold(f64::NEG_INFINITY, f64::max);
                prop_assert!(best < k);
                assert_close(best_gain, max_gain, "argmax gain")?;
                prop_assert_eq!(state.gains[best].to_bits(), best_gain.to_bits());
                prop_assert!(state.gains[best + 1..].iter().all(|&g| g < best_gain));
            }
        }

        /// The O(1) neighbour-index pair gain must match the brute-force
        /// residual-walk joint gain of the pre-incremental decoder.
        #[test]
        fn pair_gain_formula_matches_brute_force(
            seed in 0u64..1_000_000,
            k in 2usize..7,
            slots in 2usize..14,
            flips in proptest::collection::vec(any::<u8>(), 0..12),
        ) {
            let channels = diverse_channels(k, seed ^ 0xfade);
            let (decoder, _frames) = make_problem(&channels, slots, 0.6, 0.02, seed % 500);
            let mut state = PositionState::new(&decoder, (seed % 7) as usize, 1);
            for &f in &flips {
                state.flip_all(&decoder, &[f as usize % k]);
            }
            for i in 0..k {
                for &(l, shared) in decoder.d.neighbors(i) {
                    let l = l as usize;
                    if l < i {
                        continue;
                    }
                    let ci = state.change_of(&decoder, i);
                    let cl = state.change_of(&decoder, l);
                    let cross = ci.re * cl.re + ci.im * cl.im;
                    let joint = state.gains[i] + state.gains[l] - 2.0 * f64::from(shared) * cross;
                    assert_close(joint, reference_pair_gain(&decoder, &state, i, l), "pair gain")?;
                }
            }
        }
    }

    // ----- worklist scheduler tests -------------------------------------

    /// Deterministically generates the slot `slot` of the `make_problem`
    /// stream for incremental feeding: participants plus noisy symbols.
    /// `noise_rng` must be the stream seeded with `seed ^ 0xabcdef` and
    /// consumed in slot order, exactly as `make_problem` does.
    fn make_slot(
        channels: &[Complex],
        frames: &[Vec<bool>],
        seeds: &[NodeSeed],
        slot: u64,
        p: f64,
        noise: f64,
        noise_rng: &mut Xoshiro256,
    ) -> (Vec<bool>, Vec<Complex>) {
        let participants: Vec<bool> = seeds
            .iter()
            .map(|s| s.participates_in_slot(slot, p))
            .collect();
        let symbols: Vec<Complex> = (0..frames[0].len())
            .map(|pos| {
                let mut y = Complex::ZERO;
                for (i, frame) in frames.iter().enumerate() {
                    if participants[i] && frame[pos] {
                        y += channels[i];
                    }
                }
                y + Complex::new(
                    (noise_rng.next_f64() - 0.5) * noise,
                    (noise_rng.next_f64() - 0.5) * noise,
                )
            })
            .collect();
        (participants, symbols)
    }

    /// Locks each node to its true frame with probability 1/5.
    fn lock_at_random(decoder: &mut BitFlippingDecoder, frames: &[Vec<bool>], lock_seed: u64) {
        let mut lock_rng = Xoshiro256::seed_from_u64(lock_seed);
        for (node, frame) in frames.iter().enumerate() {
            if lock_rng.next_f64() < 0.2 {
                decoder.set_lock(node, Some(frame.clone()));
            }
        }
    }

    proptest! {
        /// The pruned pair scan is exact: after any flip sequence, with any
        /// set of locked nodes, and at the descent's local minimum (where
        /// the decoder actually asks for a pair), it returns the *same pair*
        /// as the historical exhaustive scan — not merely an equal gain.
        /// Dense problems (p = 0.15–0.6, up to 64 nodes) put many nodes near
        /// their pair bound; sparse ones (p = 4/K) leave most far below it.
        #[test]
        fn pruned_pair_scan_returns_the_exhaustive_scans_pair(
            seed in 0u64..1_000_000,
            k in 2usize..65,
            slots in 2usize..40,
            density in 0usize..4,
            lock_seed in any::<u64>(),
            flips in proptest::collection::vec(any::<u8>(), 0..24),
        ) {
            let p = [0.15, 0.3, 0.6, (4.0 / k as f64).min(1.0)][density];
            let channels = diverse_channels(k, seed ^ 0x9a1e);
            let (mut decoder, frames) = make_problem(&channels, slots, p, 0.03, seed % 500);
            lock_at_random(&mut decoder, &frames, lock_seed);
            let mut state = PositionState::new(&decoder, (seed % 37) as usize, seed % 4);
            for &f in &flips {
                state.flip_all(&decoder, &[f as usize % k]);
                let reference = state.best_pair_exhaustive(&decoder);
                prop_assert_eq!(state.best_pair(&decoder), reference);
            }
            decoder.descend(&mut state);
            let reference = state.best_pair_exhaustive(&decoder);
            prop_assert_eq!(state.best_pair(&decoder), reference);
        }
    }

    /// The pair scan at the participation floor of a large session: K = 180
    /// at p = 0.15 over 80 rows (27 colliders per slot, neighbour lists of
    /// many counts), with a fifth of the nodes locked.  Every local minimum
    /// of one random-start descent per bit position (93 of them, 56 escaped
    /// by a pair) asks both scans for their pair.
    #[test]
    fn pruned_pair_scan_matches_the_exhaustive_scan_at_the_participation_floor() {
        let k = 180;
        let channels = diverse_channels(k, 0xf100);
        let (mut decoder, frames) = make_problem(&channels, 80, 0.15, 0.03, 7);
        lock_at_random(&mut decoder, &frames, 11);
        let (mut scans, mut pairs) = (0, 0);
        for (position, restart) in (0..decoder.message_bits).zip((1..4).cycle()) {
            let mut state = PositionState::new(&decoder, position, restart);
            loop {
                let (best, gain) = state.best_single();
                if gain > 1e-12 {
                    state.flip_all(&decoder, &[best]);
                    continue;
                }
                let pair = state.best_pair(&decoder);
                assert_eq!(
                    pair,
                    state.best_pair_exhaustive(&decoder),
                    "position {position}, restart {restart}, scan {scans}"
                );
                scans += 1;
                let Some(pair) = pair else { break };
                pairs += 1;
                state.flip_all(&decoder, &pair);
            }
        }
        assert!(pairs > 0, "setup: some local minimum escapes by a pair");
    }

    /// Both scans break ties among equal joint gains toward the
    /// lexicographically smallest pair, whatever order the neighbour lists
    /// hold.  Four nodes with unit channels: node 0 shares two rows with
    /// each other node, but its list holds them as 3, 1, 2, and the pairs
    /// `(0, 1)`, `(0, 2)` and `(0, 3)` tie at the best joint gain, 11.
    #[test]
    fn pair_scans_break_ties_toward_the_smallest_pair() {
        let mut decoder = BitFlippingDecoder::new(vec![Complex::ONE; 4], 6, 0.0).unwrap();
        for participants in [[0, 3].as_slice(), &[0, 1, 2, 3], &[0, 1, 2]] {
            let mask: Vec<bool> = (0..4).map(|i| participants.contains(&i)).collect();
            decoder
                .add_slot(&mask, vec![Complex::new(2.0, 0.0); 6])
                .unwrap();
        }
        let order: Vec<u32> = decoder.d.neighbors(0).iter().map(|&(l, _)| l).collect();
        assert_eq!(
            order,
            [3, 1, 2],
            "setup: node 0's list is not column-sorted"
        );
        let state = PositionState::new(&decoder, 0, 0);
        assert_eq!(state.gains, [9.0, 6.0, 6.0, 6.0], "setup: gains");
        assert_eq!(state.best_pair_exhaustive(&decoder), Some([0, 1]));
        assert_eq!(state.best_pair(&decoder), Some([0, 1]));
    }

    /// Folds `(node, gain)` into a forward argmax scan: the maximum wins, and
    /// `>=` hands ties to the highest index.  The retired kernel's argmax,
    /// which [`argmax`] is pinned to.
    fn keep_best(best: &mut (usize, f64), node: usize, gain: f64) {
        if gain >= best.1 {
            *best = (node, gain);
        }
    }

    /// The forward fold from `(0, −∞)` over `gains`.
    fn fold_best(gains: &[f64]) -> (usize, f64) {
        let mut best = (0, f64::NEG_INFINITY);
        for (node, &gain) in gains.iter().enumerate() {
            keep_best(&mut best, node, gain);
        }
        best
    }

    #[test]
    fn argmax_matches_the_forward_fold() {
        let (inf, nan) = (f64::INFINITY, f64::NAN);
        let mut cases: Vec<Vec<f64>> = vec![
            vec![],
            vec![-inf],
            vec![0.5],
            vec![-0.0],
            vec![nan],
            vec![nan; 11],
            vec![-inf; 9],
            vec![-inf; 16],
            vec![0.0, -0.0],
            vec![-0.0, 0.0],
            vec![-0.0, -inf, 0.0, -1.0, -0.0],
            vec![3.0, 1.0, 3.0, -inf, 2.0, 3.0, 0.0, 3.0, 1.0],
            vec![nan, -inf, nan],
            vec![inf, 1.0, inf, nan, -inf],
        ];
        // Lengths around the lane count, with ties and signed zeros at the
        // maximum in the lanes, in the tail and in both.
        let mut rng = Xoshiro256::seed_from_u64(0xa59a);
        for len in 1..40usize {
            for _ in 0..24 {
                let pick = [-inf, -2.0, -1.0, -0.0, 0.0, 1.0, 2.0, nan];
                cases.push(
                    (0..len)
                        .map(|_| pick[(rng.next_u64() % 8) as usize])
                        .collect(),
                );
            }
        }
        for gains in &cases {
            assert_eq!(
                argmax_bits(argmax(gains)),
                argmax_bits(fold_best(gains)),
                "{gains:?}"
            );
        }
    }

    /// The retired kernel's gain of `node`: its signed change derived from
    /// the bit, its slot count from the column, and its lock as a branch.
    fn gain_from_bit(decoder: &BitFlippingDecoder, state: &PositionState, node: usize) -> f64 {
        let h = decoder.channels[node];
        let c = h.scale(1.0 - 2.0 * f64::from(u8::from(state.b[node])));
        let s = state.residual_sums[node];
        let gain =
            2.0 * (s.re * c.re + s.im * c.im) - decoder.d.col(node).len() as f64 * h.norm_sqr();
        if decoder.locked[node].is_some() {
            f64::NEG_INFINITY
        } else {
            gain
        }
    }

    /// The retired kernel's dense route for a signal change `delta` of
    /// `node`: a walk over the rows of its slots, every participant's sum
    /// shifted once per row.
    fn row_walk_shift(
        state: &mut PositionState,
        decoder: &BitFlippingDecoder,
        node: usize,
        delta: Complex,
    ) {
        for &j in decoder.d.col(node) {
            state.residual[j] -= delta;
            for &i in decoder.d.row(j) {
                state.residual_sums[i] -= delta;
            }
        }
    }

    /// The retired kernel's flip: each node's change from its bit, the row
    /// walk, and no gain refresh (see [`recompute_with_fold`]).
    fn row_walk_flip(state: &mut PositionState, decoder: &BitFlippingDecoder, nodes: &[usize]) {
        for &node in nodes {
            let h = decoder.channels[node];
            let change = h.scale(1.0 - 2.0 * f64::from(u8::from(state.b[node])));
            state.b[node] = !state.b[node];
            row_walk_shift(state, decoder, node, change);
        }
    }

    /// The retired kernel's full recompute: every gain from its bit, with
    /// the forward fold's argmax.
    fn recompute_with_fold(state: &mut PositionState, decoder: &BitFlippingDecoder) {
        let gains: Vec<f64> = (0..state.gains.len())
            .map(|node| gain_from_bit(decoder, state, node))
            .collect();
        state.best = Some(fold_best(&gains));
        state.gains = gains;
    }

    /// One step of the kernel and of its row-walk reference: a single or
    /// pair flip, or (`kind` 0) a channel change of `first` by `delta`,
    /// absorbed the way a refit is.
    fn step_both(
        decoder: &mut BitFlippingDecoder,
        walk: &mut PositionState,
        reference: &mut PositionState,
        nodes: &[usize],
        channel_delta: Option<Complex>,
    ) {
        if let Some(delta) = channel_delta {
            let node = nodes[0];
            decoder.set_channel(node, decoder.channels[node] + delta);
            walk.shift_slots(decoder, node, delta);
            row_walk_shift(reference, decoder, node, delta);
        } else {
            walk.flip_all(decoder, nodes);
            row_walk_flip(reference, decoder, nodes);
        }
        recompute_with_fold(reference, decoder);
    }

    /// Asserts the walked state equals the row-walk reference bit for bit:
    /// bits and signs, residuals, sums, gains and the best single flip.
    fn assert_walk_matches(walk: &mut PositionState, reference: &PositionState, what: &str) {
        let complex_bits = |v: &[Complex]| -> Vec<(u64, u64)> {
            v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
        };
        let gain_bits = |v: &[f64]| -> Vec<u64> { v.iter().map(|g| g.to_bits()).collect() };
        assert_eq!(walk.b, reference.b, "{what}: bits");
        let signs: Vec<f64> = walk
            .b
            .iter()
            .map(|&b| 1.0 - 2.0 * f64::from(u8::from(b)))
            .collect();
        assert_eq!(gain_bits(&walk.sign), gain_bits(&signs), "{what}: signs");
        assert_eq!(
            complex_bits(&walk.residual),
            complex_bits(&reference.residual),
            "{what}: residuals"
        );
        assert_eq!(
            complex_bits(&walk.residual_sums),
            complex_bits(&reference.residual_sums),
            "{what}: residual sums"
        );
        assert_eq!(
            gain_bits(&walk.gains),
            gain_bits(&reference.gains),
            "{what}: gains"
        );
        let expected = reference.best.expect("the reference folds its argmax");
        assert_eq!(
            argmax_bits(walk.best_single()),
            argmax_bits(expected),
            "{what}: best single flip"
        );
    }

    proptest! {
        /// The neighbour walk is exact: after random single and pair flips
        /// and channel changes, with a fifth of the nodes locked, its
        /// residuals, sums, gains and best single flip carry the bits of
        /// the retired row walk with a full recompute and the forward fold.
        /// Random restarts give unseen nodes (no slot yet) a `1` bit, whose
        /// zero gain carries the sign the walk must reproduce.  The channel
        /// changes pin the walk's arithmetic on any node, whatever its bit.
        #[test]
        fn neighbour_walk_matches_the_row_walk_and_full_recompute(
            seed in 0u64..1_000_000,
            k in 2usize..65,
            slots in 1usize..40,
            density in 0usize..4,
            lock_seed in any::<u64>(),
            steps in proptest::collection::vec(any::<u64>(), 1..24),
        ) {
            let p = [0.15, 0.3, 0.6, (4.0 / k as f64).min(1.0)][density];
            let channels = diverse_channels(k, seed ^ 0xde45e);
            let (mut decoder, frames) = make_problem(&channels, slots, p, 0.03, seed % 500);
            lock_at_random(&mut decoder, &frames, lock_seed);
            let mut walk = PositionState::new(&decoder, (seed % 37) as usize, seed % 4);
            let mut reference = walk.clone();
            recompute_with_fold(&mut reference, &decoder);
            assert_walk_matches(&mut walk, &reference, "seeded");
            for &f in &steps {
                let first = (f & 0xffff) as usize % k;
                let second = ((f >> 16) & 0xffff) as usize % k;
                let nodes = if f & 0x8000 != 0 && second != first {
                    vec![first, second]
                } else {
                    vec![first]
                };
                let delta = ((f >> 32) % 4 == 0).then(|| {
                    let part = |bits: u64| (bits & 0xfff) as f64 / 16384.0 - 0.125;
                    Complex::new(part(f >> 40), part(f >> 52))
                });
                step_both(&mut decoder, &mut walk, &mut reference, &nodes, delta);
                assert_walk_matches(&mut walk, &reference, &format!("{nodes:?}, {delta:?}"));
            }
        }
    }

    /// The neighbour walk at the participation floor of a large session:
    /// K = 150 at p = 0.15 over 80 rows (22.5 colliders per slot, nearly
    /// every node a neighbour of every other), a fifth of the nodes
    /// locked.  One random-start descent per bit position, with a channel
    /// change of a locked node every eighth step, runs on the walk and on
    /// the row-walk reference, which agree bit for bit after every step.
    #[test]
    fn neighbour_walk_matches_the_row_walk_at_the_participation_floor() {
        let k = 150;
        let channels = diverse_channels(k, 0xf150);
        let (mut decoder, frames) = make_problem(&channels, 80, 0.15, 0.03, 9);
        lock_at_random(&mut decoder, &frames, 13);
        let locked: Vec<usize> = (0..k).filter(|&i| decoder.locked[i].is_some()).collect();
        let (mut pairs, mut shifts) = (0, 0);
        for (position, restart) in (0..decoder.message_bits).zip((1..4).cycle()) {
            let mut walk = PositionState::new(&decoder, position, restart);
            let mut reference = walk.clone();
            recompute_with_fold(&mut reference, &decoder);
            for step in 1..decoder.max_flips_per_position {
                let (best, gain) = walk.best_single();
                // A refit moves a locked node whose bit here is 1.
                let refit = (step % 8 == 0 && step < 64)
                    .then(|| {
                        let from_step = locked.iter().cycle().skip(step);
                        from_step.take(locked.len()).find(|&&i| walk.b[i])
                    })
                    .flatten();
                let (nodes, delta) = if let Some(&node) = refit {
                    shifts += 1;
                    (vec![node], Some(Complex::new(0.01, -0.005)))
                } else if gain > 1e-12 {
                    (vec![best], None)
                } else if let Some(pair) = walk.best_pair(&decoder) {
                    pairs += 1;
                    (pair.to_vec(), None)
                } else {
                    break;
                };
                step_both(&mut decoder, &mut walk, &mut reference, &nodes, delta);
                assert_walk_matches(
                    &mut walk,
                    &reference,
                    &format!("position {position}, step {step}"),
                );
            }
        }
        let reach = decoder.d.neighbors(0).len() + 1;
        assert!(reach * 2 > k, "setup: a flip reaches most of the gains");
        assert!(pairs > 0, "setup: some local minimum escapes by a pair");
        assert!(shifts > 0, "setup: channels moved");
    }

    /// The per-call gain the term table replaced: the slot count from the
    /// column, the lock from the frame table and `|c|²` from the
    /// signed change, all re-derived on every call.
    fn per_call_gain(decoder: &BitFlippingDecoder, state: &PositionState, node: usize) -> f64 {
        let c = state.change_of(decoder, node);
        let s = state.residual_sums[node];
        let deg = decoder.d.col(node).len();
        let gain = 2.0 * (s.re * c.re + s.im * c.im) - deg as f64 * c.norm_sqr();
        if decoder.locked[node].is_some() {
            f64::NEG_INFINITY
        } else {
            gain
        }
    }

    /// The argmax of the tournament tree the fused scan replaced: a
    /// complete binary tournament over the gains, padded with NaN to a power
    /// of two, in which the right entry wins unless the left key is strictly
    /// greater.
    fn tournament_best(gains: &[f64]) -> (usize, f64) {
        let mut round: Vec<(f64, usize)> = gains.iter().copied().zip(0..).collect();
        round.resize(gains.len().next_power_of_two(), (f64::NAN, usize::MAX));
        while round.len() > 1 {
            round = round
                .chunks(2)
                .map(|pair| {
                    if pair[1].0 >= pair[0].0 {
                        pair[1]
                    } else {
                        pair[0]
                    }
                })
                .collect();
        }
        (round[0].1, round[0].0)
    }

    /// `(node, gain bits)` of an argmax, so signed zeros compare unequal.
    fn argmax_bits((node, gain): (usize, f64)) -> (usize, u64) {
        (node, gain.to_bits())
    }

    /// Asserts the decoder's term table equals a from-scratch rebuild, bit
    /// for bit.
    fn assert_terms_fresh(decoder: &BitFlippingDecoder, what: &str) {
        let bits = |t: GainTerms| [t.energy, t.power, t.pair_bound].map(f64::to_bits);
        for node in 0..decoder.channels.len() {
            assert_eq!(
                bits(decoder.terms[node]),
                bits(decoder.terms_of(node)),
                "{what}: terms of node {node}"
            );
        }
    }

    /// Asserts the term table is fresh, and every persistent worklist
    /// state's gains and cached argmax equal the per-call gains and their
    /// tournament winner, bit for bit.
    fn assert_gain_kernel_fresh(decoder: &BitFlippingDecoder, what: &str) {
        assert_terms_fresh(decoder, what);
        let Some(wl) = decoder.worklist.as_deref() else {
            return;
        };
        for (position, state) in wl.positions.iter().enumerate() {
            for node in 0..decoder.channels.len() {
                assert_eq!(
                    state.gains[node].to_bits(),
                    per_call_gain(decoder, state, node).to_bits(),
                    "{what}: position {position}, node {node}"
                );
            }
            if let Some(best) = state.best {
                assert_eq!(
                    argmax_bits(best),
                    argmax_bits(tournament_best(&state.gains)),
                    "{what}: argmax of position {position}"
                );
            }
        }
    }

    #[test]
    fn gain_kernel_matches_the_per_call_gain_and_the_tournament_argmax() {
        // Dense and sparse problems with random locks and random restarts,
        // so unseen nodes (no slot yet) hold `1` bits: at every step of a
        // descent the stored gains carry the per-call gains' bits and the
        // best single flip is the tournament's, so the descent flips what
        // the retired kernel flipped.  Unseen nodes tie at a zero gain and
        // all-locked states at −∞, which is where the tie rule shows.
        let (mut unseen_ones, mut ties, mut locked, mut pairs) = (0, 0, 0, 0);
        for case in 0..128u64 {
            let k = 2 + (case * 37 % 63) as usize;
            let p = [0.15, 0.3, 0.6, (4.0 / k as f64).min(1.0)][(case % 4) as usize];
            let slots = 1 + (case * 13 % 32) as usize;
            let channels = diverse_channels(k, case ^ 0x7ab1e);
            let (mut decoder, frames) = make_problem(&channels, slots, p, 0.03, case);
            lock_at_random(&mut decoder, &frames, case);
            let mut state = PositionState::new(&decoder, (case % 37) as usize, 1 + case % 3);
            let mut descended = state.clone();
            decoder.descend(&mut descended);
            unseen_ones += (0..k)
                .filter(|&node| decoder.d.col(node).is_empty() && state.b[node])
                .count();
            locked += decoder.locked.iter().filter(|l| l.is_some()).count();
            for step in 0..decoder.max_flips_per_position {
                for node in 0..k {
                    assert_eq!(
                        state.gains[node].to_bits(),
                        per_call_gain(&decoder, &state, node).to_bits(),
                        "case {case}, step {step}, node {node}"
                    );
                }
                let expected = tournament_best(&state.gains);
                let (best, gain) = state.best_single();
                assert_eq!(
                    argmax_bits((best, gain)),
                    argmax_bits(expected),
                    "case {case}, step {step}"
                );
                ties += usize::from(state.gains.iter().filter(|&&g| g == gain).count() > 1);
                if gain > 1e-12 {
                    state.flip_all(&decoder, &[best]);
                } else if let Some(pair) = state.best_pair(&decoder) {
                    state.flip_all(&decoder, &pair);
                    pairs += 1;
                } else {
                    break;
                }
            }
            assert_eq!(state.b, descended.b, "case {case}: descent bits");
            let residual_bits = |s: &PositionState| -> Vec<(u64, u64)> {
                s.residual
                    .iter()
                    .map(|r| (r.re.to_bits(), r.im.to_bits()))
                    .collect()
            };
            assert_eq!(
                residual_bits(&state),
                residual_bits(&descended),
                "case {case}"
            );
        }
        assert!(unseen_ones > 0, "setup: unseen nodes hold a 1 bit");
        assert!(ties > 0, "setup: the best gain was tied");
        assert!(locked > 0, "setup: nodes were locked");
        assert!(pairs > 0, "setup: descents took pair flips");
    }

    #[test]
    fn stored_gains_equal_gain_of_through_locks_audits_and_refits() {
        // The state's gain invariant, which lets a flip's neighbour walk
        // leave every gain it does not reach untouched, over a whole dense,
        // noisy worklist session: after every decode call the term table
        // equals a from-scratch rebuild, and every persistent state's
        // stored gains carry exactly the per-call gains' bits.  The session
        // is dense enough that a flip's walk reaches at least a quarter of
        // the nodes.  Node 0's
        // channel turns mid-session, so its lock goes stale and the audit
        // erases it and refits its channel; node K − 1 is a phantom that
        // never transmits, so its gain stays a signed zero, which the
        // cold-restart battery's random starts flip.
        let (k, p, noise, seed) = (40usize, 0.3, 0.2, 6u64);
        let truth = diverse_channels(k, seed);
        let frames: Vec<Vec<bool>> = (0..k)
            .map(|i| {
                Message::standard_32bit(seed * 100 + i as u64)
                    .unwrap()
                    .framed()
            })
            .collect();
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(seed * 77 + i)).collect();
        let phantom = k - 1;
        let mut decoder =
            BitFlippingDecoder::new(truth.clone(), frames[0].len(), noise * noise / 6.0).unwrap();
        let mut noise_rng = Xoshiro256::seed_from_u64(seed ^ 0xabcdef);
        let (mut locks, mut erasures, mut refits) = (0, 0, 0);
        let mut decoded = vec![false; k];
        for slot in 0..6 * k as u64 {
            let mut channels = truth.clone();
            if slot >= 12 {
                channels[0] *= Complex::from_polar(1.0, 2.5);
            }
            let participants: Vec<bool> = (0..k)
                .map(|i| i != phantom && seeds[i].participates_in_slot(slot, p))
                .collect();
            let symbols: Vec<Complex> = (0..frames[0].len())
                .map(|pos| {
                    let mut y = Complex::ZERO;
                    for i in 0..k {
                        if participants[i] && frames[i][pos] {
                            y += channels[i];
                        }
                    }
                    y + Complex::new(
                        (noise_rng.next_f64() - 0.5) * noise,
                        (noise_rng.next_f64() - 0.5) * noise,
                    )
                })
                .collect();
            decoder.add_slot(&participants, symbols).unwrap();
            assert_terms_fresh(&decoder, &format!("slot {slot}, after add_slot"));
            let estimates = decoder.channels.clone();
            let outcome = decoder.decode().unwrap();
            assert!(decoder.worklist.is_some(), "worklist decode");
            assert_gain_kernel_fresh(&decoder, &format!("slot {slot}"));
            refits += usize::from(decoder.channels != estimates);
            locks += outcome.newly_decoded.len();
            for (was, now) in decoded.iter_mut().zip(&outcome.decoded_payloads) {
                erasures += usize::from(*was && now.is_none());
                *was = now.is_some();
            }
        }
        let reach = decoder.d.neighbors(phantom - 1).len() + 1;
        assert!(
            reach * 4 >= k,
            "setup: a flip's neighbour walk reaches at least a quarter of the nodes"
        );
        assert!(locks > 0, "setup: a node locked");
        assert!(erasures > 0, "setup: the audit erased a lock");
        assert!(refits > 0, "setup: a channel refit moved an estimate");
    }

    #[test]
    fn message_passing_refits_and_handoff_keep_the_gain_terms_fresh() {
        // A static message-passing session from channel estimates 10 % off:
        // the soft refit (in `mp.rs`) rewrites channels between calls, and
        // every call's gain terms must match the refitted channels.  Node
        // K − 1 never transmits, so the session runs its full length.
        let (k, p, noise, seed) = (12usize, 0.4, 0.05, 9u64);
        let phantom = k - 1;
        let truth = diverse_channels(k, seed);
        let estimates: Vec<Complex> = truth
            .iter()
            .enumerate()
            .map(|(i, &h)| h * Complex::from_polar(1.0 + 0.1 * (i % 3) as f64 - 0.1, 0.1))
            .collect();
        let frames: Vec<Vec<bool>> = (0..k)
            .map(|i| {
                Message::standard_32bit(seed * 100 + i as u64)
                    .unwrap()
                    .framed()
            })
            .collect();
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(seed * 77 + i)).collect();
        let mut decoder = BitFlippingDecoder::new(estimates, frames[0].len(), noise * noise / 6.0)
            .unwrap()
            .with_schedule(DecodeSchedule::MessagePassing);
        let mut noise_rng = Xoshiro256::seed_from_u64(seed ^ 0xabcdef);
        let (mut soft_refits, mut locks) = (0, 0);
        for slot in 0..4 * k as u64 {
            let (mut participants, symbols) =
                make_slot(&truth, &frames, &seeds, slot, p, noise, &mut noise_rng);
            participants[phantom] = false;
            decoder.add_slot(&participants, symbols).unwrap();
            let before = decoder.channels.clone();
            let outcome = decoder.decode().unwrap();
            assert_gain_kernel_fresh(&decoder, &format!("slot {slot}"));
            soft_refits += usize::from(decoder.channels != before);
            locks += outcome.newly_decoded.len();
        }
        assert!(soft_refits > 0, "setup: the soft refit moved a channel");
        assert!(locks > 0, "setup: a node locked");
    }

    /// Reference channel refit: an `active` list allocated per (slot,
    /// position), and a binary search of every locked column per eligible
    /// slot.
    fn reestimate_channels_reference(
        decoder: &mut BitFlippingDecoder,
        candidates: &[Vec<bool>],
    ) -> Vec<(usize, Complex)> {
        let k = decoder.channels.len();
        let p = decoder.message_bits;
        let eligible_slots: Vec<usize> = (0..decoder.d.rows())
            .filter(|&j| {
                let row = decoder.d.row(j);
                let unlocked = row.iter().filter(|&&i| decoder.locked[i].is_none()).count();
                2 * unlocked < row.len()
            })
            .collect();
        if eligible_slots.is_empty() {
            return Vec::new();
        }
        let involved: Vec<usize> = (0..k)
            .filter(|&i| {
                decoder.locked[i].is_some()
                    && eligible_slots
                        .iter()
                        .any(|&j| decoder.d.col(i).binary_search(&j).is_ok())
            })
            .collect();
        if involved.is_empty() {
            return Vec::new();
        }
        let n = involved.len();
        let mut index_of_node = vec![usize::MAX; k];
        for (idx, &node) in involved.iter().enumerate() {
            index_of_node[node] = idx;
        }
        let mut gram = sparse_recovery::linalg::ComplexMatrix::zeros(n, n);
        let mut gram_real = vec![vec![0.0f64; n]; n];
        let mut rhs = vec![Complex::ZERO; n];
        for &j in &eligible_slots {
            let cols = decoder.d.row(j);
            let has_unlocked = cols.iter().any(|&i| decoder.locked[i].is_none());
            for pos in 0..p {
                let active: Vec<usize> = cols
                    .iter()
                    .copied()
                    .filter(|&i| decoder.locked[i].as_ref().is_some_and(|frame| frame[pos]))
                    .collect();
                let mut observation = decoder.y[j][pos];
                if has_unlocked {
                    for &i in cols {
                        if decoder.locked[i].is_none() && candidates[i][pos] {
                            observation -= decoder.channels[i];
                        }
                    }
                }
                for &i in &active {
                    let ii = index_of_node[i];
                    if ii == usize::MAX {
                        continue;
                    }
                    rhs[ii] += observation;
                    for &l in &active {
                        let ll = index_of_node[l];
                        if ll != usize::MAX {
                            gram_real[ii][ll] += 1.0;
                        }
                    }
                }
            }
        }
        for i in 0..n {
            for l in 0..n {
                let mut v = Complex::new(gram_real[i][l], 0.0);
                if i == l {
                    v += Complex::new(1e-6, 0.0);
                }
                gram.set(i, l, v);
            }
        }
        let Ok(refit) = sparse_recovery::linalg::solve_square(&gram, &rhs) else {
            return Vec::new();
        };
        let mut changes = Vec::new();
        for (slot_in_refit, &node) in involved.iter().enumerate() {
            let candidate = refit[slot_in_refit];
            if candidate.is_finite() && gram_real[slot_in_refit][slot_in_refit] >= (2 * p) as f64 {
                let delta = candidate - decoder.channels[node];
                if delta.re != 0.0 || delta.im != 0.0 {
                    changes.push((node, delta));
                }
                decoder.channels[node] = candidate;
            }
        }
        changes
    }

    #[test]
    fn channel_refit_matches_the_allocating_reference_bit_for_bit() {
        // After every decode call of a noisy session that locks nodes, the
        // refit with the call's candidate frames returns the
        // reference's `(node, delta)` list and leaves the same channels,
        // bit for bit.  The reference solves its system in complex
        // arithmetic, so this also holds the real solve to the complex one.
        // Node K − 1 is a phantom that never transmits, so the session never
        // completes and later calls refit around locks.
        let (k, p, noise, seed) = (24usize, 0.3, 0.15, 11u64);
        let phantom = k - 1;
        let truth = diverse_channels(k, seed);
        let frames: Vec<Vec<bool>> = (0..k)
            .map(|i| {
                Message::standard_32bit(seed * 100 + i as u64)
                    .unwrap()
                    .framed()
            })
            .collect();
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(seed * 31 + i)).collect();
        let mut decoder =
            BitFlippingDecoder::new(truth.clone(), frames[0].len(), noise * noise / 6.0).unwrap();
        let mut noise_rng = Xoshiro256::seed_from_u64(seed ^ 0x5eed);
        let bits = |changes: &[(usize, Complex)]| -> Vec<(usize, u64, u64)> {
            changes
                .iter()
                .map(|&(node, d)| (node, d.re.to_bits(), d.im.to_bits()))
                .collect()
        };
        let channel_bits = |d: &BitFlippingDecoder| -> Vec<(u64, u64)> {
            d.channels
                .iter()
                .map(|c| (c.re.to_bits(), c.im.to_bits()))
                .collect()
        };
        let (mut refits_with_locks, mut nonempty) = (0, 0);
        let mut candidate_frames: Option<Vec<Vec<bool>>> = None;
        for slot in 0..4 * k as u64 {
            let participants: Vec<bool> = (0..k)
                .map(|i| i != phantom && seeds[i].participates_in_slot(slot, p))
                .collect();
            let symbols: Vec<Complex> = (0..frames[0].len())
                .map(|pos| {
                    let mut y = Complex::ZERO;
                    for i in 0..k {
                        if participants[i] && frames[i][pos] {
                            y += truth[i];
                        }
                    }
                    y + Complex::new(
                        (noise_rng.next_f64() - 0.5) * noise,
                        (noise_rng.next_f64() - 0.5) * noise,
                    )
                })
                .collect();
            decoder.add_slot(&participants, symbols).unwrap();
            // The previous call's candidate frames against the new slot's
            // evidence: the state the next call's refit starts from.
            if let Some(frames) = &candidate_frames {
                refits_with_locks += usize::from(decoder.locked.iter().any(Option::is_some));
                let mut fast = decoder.clone();
                let mut reference = decoder.clone();
                let changes = fast.reestimate_channels(frames);
                let expected = reestimate_channels_reference(&mut reference, frames);
                assert_eq!(bits(&changes), bits(&expected), "slot {slot}");
                assert_eq!(channel_bits(&fast), channel_bits(&reference), "slot {slot}");
                nonempty += usize::from(!changes.is_empty());
            }
            candidate_frames = Some(decoder.decode().unwrap().candidate_frames);
        }
        assert!(refits_with_locks > k, "setup: refits around locks");
        assert!(nonempty > k, "setup: refits moved channels");
    }

    #[test]
    fn sweep_is_bit_identical_at_any_worker_count() {
        // A dense, noisy K = 150 session at the participation floor, run to
        // completion: the colliding-pair count crosses the sweep's gate
        // early, and the stall detector fires at least one cold-restart
        // battery.  Every call's outcome and refitted channels must not
        // depend on how many workers the sweeps ran on (`decode_worklist_on`
        // takes the count as given, so the calls below the gate run on
        // several workers too).
        let k = 150;
        let seed = 8u64;
        let noise = 0.03;
        let channels = diverse_channels(k, seed);
        let frames: Vec<Vec<bool>> = (0..k)
            .map(|i| {
                Message::standard_32bit(seed * 100 + i as u64)
                    .unwrap()
                    .framed()
            })
            .collect();
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(seed * 77 + i)).collect();
        let fresh = || {
            BitFlippingDecoder::new(channels.clone(), frames[0].len(), noise * noise / 6.0).unwrap()
        };
        let mut decoders = [fresh(), fresh(), fresh()];
        let mut noise_rng = Xoshiro256::seed_from_u64(seed ^ 0xabcdef);
        let mut gated = false;
        let mut done = false;
        for slot in 0..3 * k as u64 {
            let (participants, symbols) = make_slot(
                &channels,
                &frames,
                &seeds,
                slot,
                0.15,
                noise,
                &mut noise_rng,
            );
            let mut outcomes = Vec::new();
            for (workers, decoder) in (1..).zip(decoders.iter_mut()) {
                decoder.add_slot(&participants, symbols.clone()).unwrap();
                outcomes.push(decoder.decode_worklist_on(workers).unwrap());
            }
            for (decoder, outcome) in decoders.iter().zip(&outcomes).skip(1) {
                assert_eq!(outcome, &outcomes[0], "slot {slot}");
                assert_eq!(decoder.channels, decoders[0].channels, "slot {slot}");
            }
            gated |= decoders[0].d.colliding_pairs() >= PARALLEL_SWEEP_MIN_PAIRS;
            if outcomes[0].all_decoded() {
                done = true;
                break;
            }
        }
        assert!(done, "setup: the session decodes within 3K slots");
        assert!(gated, "setup: the sweep's gate engaged");
        let escalated = decoders[0]
            .worklist
            .as_deref()
            .is_some_and(|wl| wl.next_escalation_rows > 0);
        assert!(escalated, "setup: a cold-restart battery fired");
    }

    #[test]
    fn worklist_decodes_every_message_to_the_ground_truth() {
        // Over the rateless loop the worklist delivers every message, and
        // every payload is the ground truth.
        for seed in [3u64, 7, 21] {
            let k = 8;
            let channels = diverse_channels(k, seed);
            let frames: Vec<Vec<bool>> = (0..k)
                .map(|i| {
                    Message::standard_32bit(seed * 100 + i as u64)
                        .unwrap()
                        .framed()
                })
                .collect();
            let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(seed * 77 + i)).collect();
            let noise = 0.03;
            let mut decoder =
                BitFlippingDecoder::new(channels.clone(), frames[0].len(), noise * noise / 6.0)
                    .unwrap();
            let mut noise_rng = Xoshiro256::seed_from_u64(seed ^ 0xabcdef);
            let mut last = None;
            for slot in 0..40u64 {
                let (participants, symbols) =
                    make_slot(&channels, &frames, &seeds, slot, 0.5, noise, &mut noise_rng);
                decoder.add_slot(&participants, symbols).unwrap();
                let state = decoder.decode().unwrap();
                let done = state.all_decoded();
                last = Some(state);
                if done {
                    break;
                }
            }
            let state = last.unwrap();
            assert!(state.all_decoded(), "seed {seed}: worklist incomplete");
            for (i, frame) in frames.iter().enumerate() {
                assert_eq!(state.decoded_payloads[i].as_ref().unwrap(), &frame[..32]);
            }
        }
    }

    #[test]
    fn switching_schedules_resets_the_worklist() {
        // A plain constructor runs the worklist; switching to message
        // passing discards the worklist state, and switching back starts a
        // fresh one on the next decode.
        assert_eq!(DecodeSchedule::default(), DecodeSchedule::Worklist);
        let channels = diverse_channels(3, 9);
        let (mut decoder, _frames) = make_problem(&channels, 6, 0.8, 0.0, 9);
        assert_eq!(decoder.schedule(), DecodeSchedule::Worklist);
        decoder.decode().unwrap();
        assert!(decoder.worklist.is_some());
        let mut decoder = decoder.with_schedule(DecodeSchedule::MessagePassing);
        assert_eq!(decoder.schedule(), DecodeSchedule::MessagePassing);
        assert!(decoder.worklist.is_none());
        decoder.decode().unwrap();
        assert!(decoder.message_passing_sweeps().is_some());
        let decoder = decoder.with_schedule(DecodeSchedule::Worklist);
        assert!(decoder.message_passing_sweeps().is_none());
        assert!(decoder.worklist.is_none());
    }

    #[test]
    fn reinit_reproduces_a_fresh_state_bit_for_bit() {
        // The restart loop reuses one PositionState; re-seeding a dirtied
        // state must be indistinguishable from building a fresh one.
        let channels = diverse_channels(6, 17);
        let (decoder, _frames) = make_problem(&channels, 16, 0.5, 0.04, 17);
        for position in [0usize, 5, 36] {
            let mut reused = PositionState::new(&decoder, position, 0);
            reused.flip_all(&decoder, &[0]);
            reused.flip_all(&decoder, &[3, 5]);
            for restart in 0..4u64 {
                reused.reinit(&decoder, position, restart);
                let fresh = PositionState::new(&decoder, position, restart);
                assert_eq!(reused.b, fresh.b);
                assert_eq!(reused.residual, fresh.residual);
                assert_eq!(reused.residual_sums, fresh.residual_sums);
                let reused_bits: Vec<u64> = reused.gains.iter().map(|g| g.to_bits()).collect();
                let fresh_bits: Vec<u64> = fresh.gains.iter().map(|g| g.to_bits()).collect();
                assert_eq!(reused_bits, fresh_bits);
                assert_eq!(reused.sign, fresh.sign);
                assert_eq!(reused.best, fresh.best);
            }
        }
    }

    #[test]
    fn decode_residual_power_matches_brute_force_refit() {
        // The per-slot residual power the locking gates consume is the
        // worklist's ledger, summed by every sweep from the incrementally
        // maintained position residuals, through lock flips, audits,
        // channel refits and cold-restart batteries.  After every sweep it
        // must hold exactly the position-order sum of the states' residual
        // powers, and agree with an explicit `‖y − D·H·B̂‖²` recompute from
        // the candidate frames.
        let (k, noise, seed) = (6usize, 0.05, 21u64);
        let channels = diverse_channels(k, seed);
        let frames: Vec<Vec<bool>> = (0..k)
            .map(|i| {
                Message::standard_32bit(seed * 100 + i as u64)
                    .unwrap()
                    .framed()
            })
            .collect();
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(seed * 77 + i)).collect();
        let mut decoder =
            BitFlippingDecoder::new(channels.clone(), frames[0].len(), noise * noise / 6.0)
                .unwrap();
        let mut noise_rng = Xoshiro256::seed_from_u64(seed ^ 0xabcdef);
        let p = decoder.message_bits;
        let mut locked_sweeps = 0;
        for slot in 0..18u64 {
            let (participants, symbols) =
                make_slot(&channels, &frames, &seeds, slot, 0.5, noise, &mut noise_rng);
            decoder.add_slot(&participants, symbols).unwrap();
            let mut wl = match decoder.worklist.take() {
                Some(mut wl) => {
                    wl.sync_new_rows(&decoder);
                    wl
                }
                None => Box::new(WorklistState::new(&decoder)),
            };
            decoder.sweep(&mut wl, slot % 4 == 3, 1);
            locked_sweeps += usize::from(decoder.locked.iter().any(Option::is_some));
            for j in 0..decoder.d.rows() {
                let brute: f64 = (0..p)
                    .map(|pos| {
                        let fit: Complex = decoder
                            .d
                            .row(j)
                            .iter()
                            .filter(|&&i| wl.frames[i][pos])
                            .map(|&i| decoder.channels[i])
                            .sum();
                        (decoder.y[j][pos] - fit).norm_sqr()
                    })
                    .sum();
                let ledger = wl.slot_power_total[j];
                let summed: f64 = wl.positions.iter().map(|s| s.residual[j].norm_sqr()).sum();
                assert_eq!(
                    ledger.to_bits(),
                    summed.to_bits(),
                    "slot {slot}, row {j}: ledger {ledger} vs position-order sum {summed}"
                );
                assert!(
                    (ledger - brute).abs() <= 1e-9 * (1.0 + brute.abs()),
                    "slot {slot}, row {j}: ledger {ledger} vs brute {brute}"
                );
            }
            decoder.worklist = Some(wl);
            if decoder.decode().unwrap().all_decoded() {
                break;
            }
        }
        assert!(locked_sweeps > 0, "setup: sweeps ran around locks");
    }
}
