//! Soft-decision message passing: the second decoding paradigm.
//!
//! The bit-flipping decoder in [`crate::bp`] is a *hard-decision* solver: it
//! commits every bit to 0 or 1 and walks the assignment downhill.  That works
//! when the channel estimates are right, and collapses when they are not —
//! under correlated fading the slot-0 estimates decorrelate from the true
//! channel within tens of slots, every residual looks wrong, and the locking
//! gates (correctly) refuse to trust anything.  The rateless collision code
//! is structurally an LDPC-like sparse-graph code, and the standard treatment
//! of such codes is *soft-decision* decoding: keep a probability per bit,
//! exchange extrinsic messages between slot (check) nodes and tag (bit)
//! nodes, and let confidence build where the evidence is consistent.
//!
//! [`DecodeSchedule::MessagePassing`](crate::bp::DecodeSchedule::MessagePassing)
//! implements that paradigm over the same participation matrix the
//! bit-flipping worklist uses (per-edge state is keyed on the matrix's flat
//! row offsets, which appending a slot never moves):
//!
//! * **Check-node update** (slot → tag): for slot `j` and participant `i`,
//!   cancel the *expected* interference of the other participants
//!   (`r = y_j − Σ_{l≠i} p_l·h_l`, soft interference cancellation) and emit
//!   the Gaussian-approximation LLR
//!   `(2·Re(r·h̄_i) − |h_i|²) / v`, where `v` sums the interference
//!   *uncertainty* `Σ_{l≠i} p_l(1−p_l)·|h_l|²` and the noise power.  Locked
//!   nodes contribute their CRC-verified bits exactly (zero variance).
//! * **Bit-node update** (tag → slot): the posterior LLR of bit `i` is the
//!   sum of its incoming check messages; the extrinsic probability fed back
//!   to slot `j` excludes `j`'s own message (the tanh-rule soft bit
//!   `tanh(λ/2)` in probability form).
//! * **Damping**: each check message moves a fixed fraction
//!   (`DAMPING`) toward its new value, which suppresses the oscillations the
//!   short cycles of a small dense collision graph would otherwise excite.
//!
//! Two windows make the schedule fading-proof, and both are the bugfix this
//! module exists for:
//!
//! * **Decoding window** (`SLOT_WINDOW`): messages and locking gates only
//!   consider the most recent slots.  Old slots were received through a
//!   *different* channel than the current estimates model; under fading their
//!   residuals are lies and would poison every LLR they touch.
//! * **Channel tracking** (`BitFlippingDecoder::reestimate_channels_soft`):
//!   after each decode call the channels of *all* participants — locked or
//!   not — are refit by recency- and confidence-weighted least squares over
//!   recent slots, with unlocked nodes contributing their current best-guess
//!   frames weighted by soft confidence.  This is what the hard-decision
//!   refit cannot do (it refuses to look at any slot containing an unlocked
//!   node), and it is why unlocked tags track the channel instead of decoding
//!   against stale slot-0 estimates forever.
//!
//! Determinism: the sweep schedule derives only from decoder state — fixed
//! iteration orders, a state-derived early exit, no randomness — so a given
//! seed and slot stream reproduces byte-identical output (and sweep counts)
//! regardless of thread count, the same contract the worklist honours.

use backscatter_phy::complex::Complex;

use crate::bp::{BitFlippingDecoder, DecodeState};
use crate::BuzzResult;

/// Fraction each check→bit message moves toward its newly computed value per
/// sweep.  1.0 is undamped (oscillation-prone on the short cycles of a dense
/// collision graph); small values converge slowly.
const DAMPING: f64 = 0.6;

/// Symmetric clamp on LLR magnitudes.  `tanh(30/2)` is 1.0 to double
/// precision, so the clamp loses nothing while keeping the arithmetic finite
/// on noiseless channels (where the residual variance can reach its floor).
const LLR_CLAMP: f64 = 30.0;

/// Maximum message-passing sweeps per bit position per decode call.  The
/// rateless loop calls `decode` after every slot, so convergence is amortised
/// — most calls exit on [`SWEEP_TOL`] after one or two sweeps.
const MAX_SWEEPS_PER_CALL: usize = 6;

/// Early-exit threshold: a sweep that moves no posterior LLR by more than
/// this has converged.
const SWEEP_TOL: f64 = 1e-3;

/// Variance floor for the check-node update (noiseless channels with fully
/// resolved interferers would otherwise divide by zero; the clamp caps the
/// resulting LLR anyway).
const VARIANCE_FLOOR: f64 = 1e-9;

/// How many of the most recent slots the message passing and its locking
/// gates consider.  Under correlated fading, slots older than the channel
/// coherence time were received through a different channel than the current
/// estimates model; including them poisons the LLRs.  Static sessions at
/// K ≤ 16 decode well inside this window, so it is invisible there.
const SLOT_WINDOW: usize = 48;

/// How many of the most recent slots the soft channel refit considers.
const REFIT_WINDOW: usize = 24;

/// Per-slot-of-age decay of a slot's refit weight.  The weighted least
/// squares estimates a *static* channel over its window, so the effective
/// window must be short against the coherence time; recency weighting keeps
/// the estimate centred on "now" instead of on the window's midpoint.
const REFIT_RECENCY: f64 = 0.85;

/// Minimum product of the unlocked participants' soft confidences for a slot
/// to enter the refit.  A slot whose unlocked bits are still guesses would
/// push the channels toward explaining wrong frames.
const MIN_SLOT_CONFIDENCE: f64 = 0.35;

/// Minimum weighted own-bit mass (relative to the frame length) before a
/// node's refit solution replaces its channel estimate.
const MIN_REFIT_DIAG_FACTOR: f64 = 0.75;

/// Fewest slots before the soft refit runs at all: the initial channel
/// estimates (identification phase, or exact in periodic mode) beat anything
/// a refit over near-uniform candidate bits could produce.
const MIN_REFIT_ROWS: usize = 6;

/// Persistent state of the message-passing schedule: per-edge check→bit
/// messages (keyed on the participation matrix's flat CSR offsets), per-node
/// posterior LLRs, and the hard-decision candidate frames derived from them.
#[derive(Debug, Clone)]
pub(crate) struct MessagePassingState {
    /// Check→bit messages, `c2b[position][edge]`, aligned with the CSR flat
    /// storage of the decoder's participation matrix.
    c2b: Vec<Vec<f64>>,
    /// Posterior LLR per bit position per node (positive ⇒ bit 1).  Locked
    /// nodes' entries are unused — their bits are exact.
    llr: Vec<Vec<f64>>,
    /// Hard-decision candidate frames, `frames[node][position]` (the locked
    /// frame verbatim for locked nodes).
    frames: Vec<Vec<bool>>,
    /// Cumulative sweeps across all decode calls (the determinism
    /// observable).
    sweeps: u64,
    /// Consecutive decode calls whose hard-decision frames came out identical
    /// with no new locks — the soft schedule is refining nothing and further
    /// sweeps are pure overhead (only tracked under the static handoff).
    stable_call_streak: u32,
    /// The hard-decision frames at the end of the previous decode call, for
    /// the stability comparison (only maintained under the static handoff).
    last_call_frames: Vec<Vec<bool>>,
    /// Whether the static-session handoff to the hard bit-flipping worklist
    /// has engaged (see [`BitFlippingDecoder::enable_static_handoff`]).
    handed_off: bool,
    /// Scratch: per-edge extrinsic bit-1 probabilities of one slot.
    prob_scratch: Vec<f64>,
}

impl MessagePassingState {
    fn new(decoder: &BitFlippingDecoder) -> Self {
        let k = decoder.channels().len();
        let p = decoder.message_bits;
        let edges = decoder.d.nnz();
        Self {
            c2b: vec![vec![0.0; edges]; p],
            llr: vec![vec![0.0; k]; p],
            frames: vec![vec![false; p]; k],
            sweeps: 0,
            stable_call_streak: 0,
            last_call_frames: Vec::new(),
            handed_off: false,
            prob_scratch: Vec::new(),
        }
    }

    /// Cumulative sweep count.
    pub(crate) fn sweeps(&self) -> u64 {
        self.sweeps
    }

    /// Whether the static-session handoff has engaged.
    pub(crate) fn handed_off(&self) -> bool {
        self.handed_off
    }

    /// Absorbs slots appended since the previous decode call: new rows append
    /// their edges at the end of the CSR flat storage, so existing message
    /// offsets stay valid and the new edges start neutral.
    fn sync_new_rows(&mut self, decoder: &BitFlippingDecoder) {
        let edges = decoder.d.nnz();
        for messages in &mut self.c2b {
            debug_assert!(messages.len() <= edges);
            messages.resize(edges, 0.0);
        }
    }

    /// Runs damped message-passing sweeps for one bit position over the slot
    /// window, until convergence or the per-call budget.  Returns the number
    /// of sweeps performed.
    fn relax_position(
        &mut self,
        decoder: &BitFlippingDecoder,
        position: usize,
        window_start: usize,
    ) -> u64 {
        let k = decoder.channels().len();
        let rows = decoder.d.rows();
        let mut sweeps = 0u64;
        for _ in 0..MAX_SWEEPS_PER_CALL {
            // Check-node updates, slot by slot in order.
            for j in window_start..rows {
                let cols = decoder.d.row(j);
                if cols.is_empty() {
                    continue;
                }
                let base = decoder.d.row_range(j).start;
                if self.prob_scratch.len() < cols.len() {
                    self.prob_scratch.resize(cols.len(), 0.0);
                }
                // Extrinsic soft bits of every participant, then the slot's
                // expected superposition and its uncertainty.
                let mut mean = Complex::ZERO;
                let mut variance = 0.0f64;
                for (e, &i) in cols.iter().enumerate() {
                    let prob = match &decoder.locked()[i] {
                        Some(frame) => {
                            if frame[position] {
                                1.0
                            } else {
                                0.0
                            }
                        }
                        None => {
                            let extrinsic = self.llr[position][i] - self.c2b[position][base + e];
                            sigmoid(extrinsic)
                        }
                    };
                    self.prob_scratch[e] = prob;
                    let h = decoder.channels()[i];
                    mean += h.scale(prob);
                    variance += prob * (1.0 - prob) * h.norm_sqr();
                }
                for (e, &i) in cols.iter().enumerate() {
                    if decoder.locked()[i].is_some() {
                        continue;
                    }
                    let prob = self.prob_scratch[e];
                    let h = decoder.channels()[i];
                    let power = h.norm_sqr();
                    // Soft interference cancellation: remove every *other*
                    // participant's expected contribution.
                    let residual = decoder.y[j][position] - (mean - h.scale(prob));
                    let v = (variance - prob * (1.0 - prob) * power + decoder.noise_power)
                        .max(VARIANCE_FLOOR);
                    let raw = (2.0 * (residual.re * h.re + residual.im * h.im) - power) / v;
                    let edge = base + e;
                    let old = self.c2b[position][edge];
                    self.c2b[position][edge] = clamp_llr((1.0 - DAMPING) * old + DAMPING * raw);
                }
            }
            // Bit-node updates: posterior = sum of in-window check messages.
            let mut max_delta = 0.0f64;
            for i in 0..k {
                if decoder.locked()[i].is_some() {
                    continue;
                }
                let mut sum = 0.0;
                for &j in decoder.d.col(i) {
                    if j < window_start {
                        continue;
                    }
                    let range = decoder.d.row_range(j);
                    let offset = decoder
                        .d
                        .row(j)
                        .binary_search(&i)
                        .expect("column i lists row j, so row j lists i");
                    sum += self.c2b[position][range.start + offset];
                }
                let posterior = clamp_llr(sum);
                max_delta = max_delta.max((posterior - self.llr[position][i]).abs());
                self.llr[position][i] = posterior;
            }
            sweeps += 1;
            if max_delta < SWEEP_TOL {
                break;
            }
        }
        sweeps
    }

    /// Rewrites the candidate frames from the current posteriors (locked
    /// nodes keep their verified frames verbatim).
    fn refresh_frames(&mut self, decoder: &BitFlippingDecoder) {
        for (node, frame) in self.frames.iter_mut().enumerate() {
            match &decoder.locked()[node] {
                Some(verified) => frame.clone_from(verified),
                None => {
                    for (position, bit) in frame.iter_mut().enumerate() {
                        *bit = self.llr[position][node] > 0.0;
                    }
                }
            }
        }
    }

    /// Mean per-position residual power of each in-window slot under the
    /// current hard-decision frames (what the locking gates judge).  Slots
    /// before the window read as zero; the windowed gates never look at them.
    fn per_slot_residual(&self, decoder: &BitFlippingDecoder, window_start: usize) -> Vec<f64> {
        let p = decoder.message_bits;
        let rows = decoder.d.rows();
        let mut residual = vec![0.0f64; rows];
        for (j, slot) in residual
            .iter_mut()
            .enumerate()
            .take(rows)
            .skip(window_start)
        {
            let cols = decoder.d.row(j);
            let mut power = 0.0;
            for (position, &received) in decoder.y[j].iter().enumerate() {
                let mut expected = Complex::ZERO;
                for &i in cols {
                    if self.frames[i][position] {
                        expected += decoder.channels()[i];
                    }
                }
                power += (received - expected).norm_sqr();
            }
            *slot = power / p as f64;
        }
        residual
    }

    /// Mean soft confidence of a node's bits, `mean_pos |tanh(λ/2)|` — 0 for
    /// a node the evidence says nothing about, 1 for fully resolved.
    fn confidence(&self, node: usize) -> f64 {
        let p = self.llr.len();
        let total: f64 = self
            .llr
            .iter()
            .map(|column| (column[node] / 2.0).tanh().abs())
            .sum();
        total / p as f64
    }
}

impl BitFlippingDecoder {
    /// One decode call of the message-passing schedule: damped soft sweeps
    /// over the slot window, hard-decision frames, the shared CRC/confidence
    /// locking gates (windowed), then soft channel tracking.
    pub(crate) fn decode_message_passing(&mut self) -> BuzzResult<DecodeState> {
        // Static-session early-out: once the handoff engaged, the soft state
        // is frozen (kept for the sweep-count observable) and the remaining
        // decode work runs on the hard bit-flipping worklist.
        if self.static_handoff
            && self
                .mp
                .as_deref()
                .is_some_and(MessagePassingState::handed_off)
        {
            return self.decode_worklist();
        }
        let p = self.message_bits;
        let mut mp = match self.mp.take() {
            Some(mut mp) => {
                mp.sync_new_rows(self);
                mp
            }
            None => Box::new(MessagePassingState::new(self)),
        };
        let window_start = self.d.rows().saturating_sub(SLOT_WINDOW);

        let mut newly_decoded = Vec::new();
        loop {
            for position in 0..p {
                mp.sweeps += mp.relax_position(self, position, window_start);
            }
            mp.refresh_frames(self);
            let per_slot_residual = mp.per_slot_residual(self, window_start);
            let locked_now = self.lock_pass(
                &mp.frames,
                &per_slot_residual,
                window_start,
                &mut newly_decoded,
            );
            if !locked_now.is_empty() {
                // The verified frames replace the candidates immediately so
                // the ripple (re-sweep with the locks' bits now exact) and
                // the snapshot below see them.
                mp.refresh_frames(self);
            }
            let all_locked = self.locked().iter().all(Option::is_some);
            if locked_now.is_empty() || all_locked {
                break;
            }
        }

        self.snapshot_candidates(&mp.frames);

        if self.static_handoff {
            // A call that locks nothing and leaves every hard decision
            // exactly where the previous call left it refined nothing; a few
            // such calls in a row and the soft schedule has reached its fixed
            // point — on a static channel the cheaper hard worklist finishes
            // the job from here.
            if newly_decoded.is_empty() && mp.frames == mp.last_call_frames {
                mp.stable_call_streak += 1;
                if mp.stable_call_streak >= 2 {
                    mp.handed_off = true;
                }
            } else {
                mp.stable_call_streak = 0;
                mp.last_call_frames.clone_from(&mp.frames);
            }
        }

        if !self.locked().iter().all(Option::is_some) {
            self.reestimate_channels_soft(&mp);
        }

        let state = DecodeState {
            decoded_payloads: self.decoded_payloads(),
            newly_decoded,
            candidate_frames: mp.frames.clone(),
        };
        self.mp = Some(mp);
        Ok(state)
    }

    /// Confidence-weighted channel tracking: refits the channels of *all*
    /// recent participants — locked or not — by weighted least squares over
    /// the last [`REFIT_WINDOW`] slots.
    ///
    /// Every slot contributes through the current best-guess frames (exact
    /// verified bits for locked nodes, hard decisions for unlocked ones),
    /// weighted by the product of its unlocked participants' soft
    /// confidences and a recency decay.  Slots whose unlocked bits are still
    /// guesses fall below [`MIN_SLOT_CONFIDENCE`] and are skipped, so the
    /// refit cannot chase garbage; nodes whose weighted own-bit mass is too
    /// small keep their previous estimate.  This is the unlocked-node half
    /// of the fading bugfix: the hard-decision refit only ever looks at
    /// fully-locked slots, so an unlocked tag's channel stays frozen at its
    /// slot-0 estimate no matter how far the fade has moved.
    pub(crate) fn reestimate_channels_soft(&mut self, mp: &MessagePassingState) {
        let rows = self.d.rows();
        if rows < MIN_REFIT_ROWS {
            return;
        }
        let k = self.channels().len();
        let p = self.message_bits;
        let start = rows.saturating_sub(REFIT_WINDOW);

        let confidence: Vec<f64> = (0..k)
            .map(|i| {
                if self.locked()[i].is_some() {
                    1.0
                } else {
                    mp.confidence(i)
                }
            })
            .collect();

        let mut weighted_slots: Vec<(usize, f64)> = Vec::new();
        for j in start..rows {
            let row = self.d.row(j);
            if row.is_empty() {
                continue;
            }
            let mut trust = 1.0f64;
            for &i in row {
                if self.locked()[i].is_none() {
                    trust *= confidence[i];
                }
            }
            if trust < MIN_SLOT_CONFIDENCE {
                continue;
            }
            let age = (rows - 1 - j) as i32;
            weighted_slots.push((j, trust * REFIT_RECENCY.powi(age)));
        }
        if weighted_slots.is_empty() {
            return;
        }

        let involved: Vec<usize> = (0..k)
            .filter(|&i| {
                weighted_slots
                    .iter()
                    .any(|&(j, _)| self.d.col(i).binary_search(&j).is_ok())
            })
            .collect();
        if involved.is_empty() {
            return;
        }
        let n = involved.len();
        let mut index_of_node = vec![usize::MAX; k];
        for (idx, &node) in involved.iter().enumerate() {
            index_of_node[node] = idx;
        }

        let mut gram = vec![vec![0.0f64; n]; n];
        let mut rhs = vec![Complex::ZERO; n];
        for &(j, weight) in &weighted_slots {
            let cols = self.d.row(j);
            for pos in 0..p {
                let active: Vec<usize> = cols
                    .iter()
                    .copied()
                    .filter(|&i| match &self.locked()[i] {
                        Some(frame) => frame[pos],
                        None => mp.frames[i][pos],
                    })
                    .collect();
                for &i in &active {
                    let ii = index_of_node[i];
                    rhs[ii] += self.y[j][pos].scale(weight);
                    for &l in &active {
                        gram[ii][index_of_node[l]] += weight;
                    }
                }
            }
        }
        // The weighted Gram is real: solved in real arithmetic, bit for bit
        // the complex elimination.
        let diagonal: Vec<f64> = (0..n).map(|i| gram[i][i]).collect();
        for (i, row) in gram.iter_mut().enumerate() {
            // Tikhonov: keeps rarely-participating nodes solvable.
            row[i] += 1e-6;
        }
        let Ok(refit) = sparse_recovery::linalg::solve_real_square(gram, &rhs) else {
            return;
        };
        let threshold = MIN_REFIT_DIAG_FACTOR * p as f64;
        for (idx, &node) in involved.iter().enumerate() {
            let candidate = refit[idx];
            if candidate.is_finite() && diagonal[idx] >= threshold {
                self.set_channel(node, candidate);
            }
        }
    }
}

/// Logistic function, `P(bit = 1)` of an LLR.
fn sigmoid(llr: f64) -> f64 {
    1.0 / (1.0 + (-llr).exp())
}

/// Clamps an LLR to `±LLR_CLAMP`.
fn clamp_llr(llr: f64) -> f64 {
    llr.clamp(-LLR_CLAMP, LLR_CLAMP)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bp::DecodeSchedule;
    use backscatter_codes::message::Message;
    use backscatter_prng::{NodeSeed, Rng64, Xoshiro256};
    use proptest::prelude::*;

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

    /// Feeds the deterministic `make_problem`-style slot stream one slot at a
    /// time (the rateless loop's shape), decoding after every slot.  Returns
    /// the decoder, the true framed messages, and the slots consumed.
    fn run_incremental(
        schedule: DecodeSchedule,
        channels: &[Complex],
        max_slots: usize,
        p: f64,
        noise: f64,
        seed: u64,
    ) -> (BitFlippingDecoder, Vec<Vec<bool>>, usize) {
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
            BitFlippingDecoder::new(channels.to_vec(), message_bits, noise * noise / 6.0)
                .unwrap()
                .with_schedule(schedule);
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(seed * 77 + i)).collect();
        let mut noise_rng = Xoshiro256::seed_from_u64(seed ^ 0xabcdef);
        let mut used = 0;
        for slot in 0..max_slots {
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
            used = slot + 1;
            if decoder.decode().unwrap().all_decoded() {
                break;
            }
        }
        (decoder, frames, used)
    }

    fn payloads(decoder: &mut BitFlippingDecoder) -> Vec<Option<Vec<bool>>> {
        decoder.decode().unwrap().decoded_payloads
    }

    #[test]
    fn message_passing_decodes_incremental_noiseless() {
        let channels = diverse_channels(6, 0x5eed);
        let (mut decoder, frames, used) =
            run_incremental(DecodeSchedule::MessagePassing, &channels, 120, 0.5, 0.0, 11);
        let decoded = payloads(&mut decoder);
        for (node, payload) in decoded.iter().enumerate() {
            assert_eq!(
                payload.as_deref(),
                Some(&frames[node][..32]),
                "node {node} after {used} slots"
            );
        }
        assert!(decoder.message_passing_sweeps().unwrap() > 0);
    }

    #[test]
    fn message_passing_decodes_under_noise() {
        let channels = diverse_channels(8, 0xfade);
        let (mut decoder, frames, _) = run_incremental(
            DecodeSchedule::MessagePassing,
            &channels,
            160,
            0.5,
            0.05,
            23,
        );
        let decoded = payloads(&mut decoder);
        for (node, payload) in decoded.iter().enumerate() {
            assert_eq!(payload.as_deref(), Some(&frames[node][..32]), "node {node}");
        }
    }

    #[test]
    fn sweep_counts_are_deterministic_per_seed() {
        let channels = diverse_channels(7, 0xbeef);
        let run = || {
            let (decoder, _, used) = run_incremental(
                DecodeSchedule::MessagePassing,
                &channels,
                120,
                0.5,
                0.03,
                42,
            );
            (decoder.message_passing_sweeps(), used)
        };
        let (sweeps_a, used_a) = run();
        let (sweeps_b, used_b) = run();
        assert!(sweeps_a.is_some());
        assert_eq!(sweeps_a, sweeps_b);
        assert_eq!(used_a, used_b);
    }

    #[test]
    fn schedule_switch_resets_message_passing_state() {
        let channels = diverse_channels(4, 0x77);
        let (decoder, _, _) =
            run_incremental(DecodeSchedule::MessagePassing, &channels, 60, 0.6, 0.0, 7);
        assert!(decoder.message_passing_sweeps().is_some());
        let switched = decoder.with_schedule(DecodeSchedule::Worklist);
        assert!(switched.message_passing_sweeps().is_none());
    }

    #[test]
    fn static_handoff_engages_and_hard_worklist_finishes_the_decode() {
        let channels = diverse_channels(6, 0x51a7);
        let k = channels.len();
        let frames: Vec<Vec<bool>> = (0..k)
            .map(|i| Message::standard_32bit(900 + i as u64).unwrap().framed())
            .collect();
        let message_bits = frames[0].len();
        let mut decoder = BitFlippingDecoder::new(channels.clone(), message_bits, 0.0)
            .unwrap()
            .with_schedule(DecodeSchedule::MessagePassing);
        decoder.enable_static_handoff(true);
        assert!(!decoder.static_handoff_engaged());
        let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(3100 + i)).collect();
        let observe = |slot: usize| -> (Vec<bool>, Vec<Complex>) {
            let participants: Vec<bool> = seeds
                .iter()
                .map(|s| s.participates_in_slot(slot as u64, 0.5))
                .collect();
            let symbols = (0..message_bits)
                .map(|pos| {
                    let mut y = Complex::ZERO;
                    for i in 0..k {
                        if participants[i] && frames[i][pos] {
                            y += channels[i];
                        }
                    }
                    y
                })
                .collect();
            (participants, symbols)
        };
        // A few (underdetermined) slots, then idle decode calls: the soft
        // posteriors reach their fixed point and the handoff engages.
        for slot in 0..4 {
            let (p, s) = observe(slot);
            decoder.add_slot(&p, s).unwrap();
        }
        for _ in 0..8 {
            decoder.decode().unwrap();
        }
        assert!(decoder.static_handoff_engaged());
        let frozen = decoder.message_passing_sweeps().unwrap();
        // The rest of the rateless stream decodes on the hard worklist; the
        // frozen soft state performs no further sweeps.
        let mut all = false;
        for slot in 4..120 {
            let (p, s) = observe(slot);
            decoder.add_slot(&p, s).unwrap();
            if decoder.decode().unwrap().all_decoded() {
                all = true;
                break;
            }
        }
        assert!(all, "worklist did not finish the decode after the handoff");
        assert_eq!(decoder.message_passing_sweeps(), Some(frozen));
        let decoded = payloads(&mut decoder);
        for (node, payload) in decoded.iter().enumerate() {
            assert_eq!(payload.as_deref(), Some(&frames[node][..32]), "node {node}");
        }
    }

    #[test]
    fn static_handoff_matches_pure_soft_delivery_under_noise() {
        // The early-out must not change *what* a static session delivers —
        // only how much sweep work it spends getting there.
        let channels = diverse_channels(8, 0xfade);
        let run = |handoff: bool| -> Vec<Option<Vec<bool>>> {
            let k = channels.len();
            let frames: Vec<Vec<bool>> = (0..k)
                .map(|i| Message::standard_32bit(2300 + i as u64).unwrap().framed())
                .collect();
            let message_bits = frames[0].len();
            let mut decoder =
                BitFlippingDecoder::new(channels.clone(), message_bits, 0.05 * 0.05 / 6.0)
                    .unwrap()
                    .with_schedule(DecodeSchedule::MessagePassing);
            decoder.enable_static_handoff(handoff);
            let seeds: Vec<NodeSeed> = (0..k as u64).map(|i| NodeSeed(1771 + i)).collect();
            let mut noise_rng = Xoshiro256::seed_from_u64(0xabcdef);
            for slot in 0..160usize {
                let participants: Vec<bool> = seeds
                    .iter()
                    .map(|s| s.participates_in_slot(slot as u64, 0.5))
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
                            (noise_rng.next_f64() - 0.5) * 0.05,
                            (noise_rng.next_f64() - 0.5) * 0.05,
                        )
                    })
                    .collect();
                decoder.add_slot(&participants, symbols).unwrap();
                if decoder.decode().unwrap().all_decoded() {
                    break;
                }
            }
            let state = decoder.decode().unwrap();
            for (node, payload) in state.decoded_payloads.iter().enumerate() {
                assert_eq!(
                    payload.as_deref(),
                    Some(&frames[node][..32]),
                    "node {node} (handoff = {handoff})"
                );
            }
            state.decoded_payloads
        };
        assert_eq!(run(false), run(true));
    }

    proptest! {
        /// Differential vs. bit-flipping on noiseless channels: whenever both
        /// paradigms fully decode, they must agree bit for bit (both recover
        /// the CRC-verified ground truth).
        #[test]
        fn noiseless_differential_against_bit_flipping(
            seed in 0u64..200,
            k in 2usize..7,
        ) {
            let channels = diverse_channels(k, seed ^ 0xd1ff);
            let budget = 20 * k.max(4);
            let (mut soft, frames, _) = run_incremental(
                DecodeSchedule::MessagePassing, &channels, budget, 0.5, 0.0, seed,
            );
            let (mut hard, _, _) = run_incremental(
                DecodeSchedule::Worklist, &channels, budget, 0.5, 0.0, seed,
            );
            let soft_payloads = payloads(&mut soft);
            let hard_payloads = payloads(&mut hard);
            let both_decoded = soft_payloads.iter().all(Option::is_some)
                && hard_payloads.iter().all(Option::is_some);
            if both_decoded {
                prop_assert_eq!(&soft_payloads, &hard_payloads);
                for (node, payload) in soft_payloads.iter().enumerate() {
                    prop_assert_eq!(payload.as_deref(), Some(&frames[node][..32]));
                }
            }
        }
    }
}
