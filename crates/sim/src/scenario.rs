//! Reproducible experiment scenarios.
//!
//! A [`Scenario`] captures one "experiment location" from the paper: `K` tags
//! placed on the cart at some distance from the reader, each with a drawn
//! channel, clock, and message, plus the [`Medium`] they all share.  A
//! scenario is fully determined by its [`ScenarioConfig`], so every protocol
//! (Buzz, TDMA, CDMA, FSA) can be run against *identical* channels and noise —
//! the simulator's analogue of the paper running the three schemes
//! back-to-back without moving the tags.

use std::collections::HashSet;
use std::sync::Arc;

use backscatter_codes::message::Message;
use backscatter_phy::channel::ChannelModel;
use backscatter_phy::snr::snr_db_to_linear;
use backscatter_phy::sync::{ClockModel, SyncJitter};
use backscatter_prng::{NodeSeed, Rng64, SplitMix64, Xoshiro256};

use crate::dynamics::ScenarioDynamics;
use crate::geometry::{cart_layout, TablePlacement};
use crate::medium::{Medium, MediumConfig};
use crate::tag::SimTag;
use crate::{SimError, SimResult};

/// Parameters describing one experiment location.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioConfig {
    /// Number of tags with data to transmit (the paper's `K`).
    pub k: usize,
    /// Size of the global id space the tags are drawn from (the paper's `N`,
    /// e.g. one million items in a store).
    pub global_id_space: u64,
    /// Master seed: changing it is the analogue of moving to a new location.
    pub seed: u64,
    /// Distance from the reader to the near edge of the cart, meters.
    pub cart_distance_m: f64,
    /// Message payload length in bits (32 for the §9 experiments, 96 for the
    /// §8.2 microbenchmark).
    pub message_bits: usize,
    /// Median per-tag SNR target in dB; the noise power is chosen so the
    /// median-strength tag sees this SNR.
    pub median_snr_db: f64,
    /// Starting voltage of each tag's capacitor, volts.
    pub starting_voltage_v: f64,
}

/// Maximum per-tag clock drift magnitude, ppm: each tag's drift is drawn
/// uniformly in `±MAX_CLOCK_DRIFT_PPM`.
pub const MAX_CLOCK_DRIFT_PPM: f64 = 1600.0;

impl ScenarioConfig {
    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for out-of-range fields.
    pub fn validate(&self) -> SimResult<()> {
        if self.k == 0 {
            return Err(SimError::InvalidParameter("K must be at least 1"));
        }
        if self.global_id_space < self.k as u64 {
            return Err(SimError::InvalidParameter(
                "global id space must be at least K",
            ));
        }
        if !(self.cart_distance_m > 0.0 && self.cart_distance_m.is_finite()) {
            return Err(SimError::InvalidParameter("cart distance must be positive"));
        }
        if self.message_bits == 0 {
            return Err(SimError::InvalidParameter("messages must be non-empty"));
        }
        if !(self.starting_voltage_v > 0.0 && self.starting_voltage_v.is_finite()) {
            return Err(SimError::InvalidParameter(
                "starting voltage must be positive",
            ));
        }
        Ok(())
    }
}

/// Identity and payload state a tag carries *across* sessions.
///
/// The fleet layer (`backscatter_fleet`) keeps a warehouse-wide population of
/// tags whose global ids and undelivered messages persist between reader
/// sessions.  Handing a list of these to
/// [`ScenarioBuilder::persistent_tags`] builds a scenario whose tags keep
/// exactly these identities and payloads while everything environmental —
/// placement, channels, clocks, sync jitter, the noise floor — is still drawn
/// deterministically from the scenario seed, the way a tag physically carried
/// to a new reader keeps its EPC and queued message but sees a fresh channel.
#[derive(Debug, Clone, PartialEq)]
pub struct PersistentTag {
    /// The tag's global identifier (stable across sessions).
    pub global_id: u64,
    /// The message the tag is currently carrying.
    pub message: Message,
}

/// Fluent constructor for [`Scenario`]s: start from a preset (or
/// [`Scenario::builder`]), override what the experiment varies, attach any
/// number of composable [`ScenarioDynamics`], then [`ScenarioBuilder::build`].
///
/// ```
/// use backscatter_sim::scenario::Scenario;
/// use backscatter_sim::dynamics::Mobility;
///
/// let scenario = Scenario::builder(8)
///     .seed(42)
///     .dynamics(Mobility::walking_pace())
///     .build()
///     .unwrap();
/// assert_eq!(scenario.tags().len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    config: ScenarioConfig,
    dynamics: Vec<Arc<dyn ScenarioDynamics>>,
    faults: Vec<Arc<dyn ScenarioDynamics>>,
    persistent: Vec<PersistentTag>,
}

impl ScenarioBuilder {
    /// Starts from the paper's default uplink parameters with `k` tags
    /// (equivalent to the `paper_uplink` preset at seed 0).
    #[must_use]
    pub fn new(k: usize) -> Self {
        Self::paper_uplink(k, 0)
    }

    /// The paper's default uplink experiment: `k` tags drawn from a
    /// million ids, 32-bit messages, the cart close to the reader (good
    /// channels, 22 dB median SNR).
    #[must_use]
    pub fn paper_uplink(k: usize, seed: u64) -> Self {
        Self {
            config: ScenarioConfig {
                k,
                global_id_space: 1_000_000,
                seed,
                cart_distance_m: 0.25,
                message_bits: 32,
                median_snr_db: 22.0,
                starting_voltage_v: 3.0,
            },
            dynamics: Vec::new(),
            faults: Vec::new(),
            persistent: Vec::new(),
        }
    }

    /// A challenging-channel variant of the uplink experiment (the Fig. 12
    /// regime): the cart moves out to 0.9 m and the target median SNR is
    /// lowered to `median_snr_db`.
    #[must_use]
    pub fn challenging(k: usize, seed: u64, median_snr_db: f64) -> Self {
        let mut builder = Self::paper_uplink(k, seed);
        builder.config.cart_distance_m = 0.9;
        builder.config.median_snr_db = median_snr_db;
        builder
    }

    /// Sets the master seed (the "experiment location").
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.config.seed = seed;
        self
    }

    /// Sets the message payload length in bits.
    #[must_use]
    pub fn message_bits(mut self, bits: usize) -> Self {
        self.config.message_bits = bits;
        self
    }

    /// Sets the size of the global id space the tags are drawn from.
    #[must_use]
    pub fn global_id_space(mut self, n: u64) -> Self {
        self.config.global_id_space = n;
        self
    }

    /// Sets the starting capacitor voltage of every tag.
    #[must_use]
    pub fn starting_voltage_v(mut self, volts: f64) -> Self {
        self.config.starting_voltage_v = volts;
        self
    }

    /// Appends one composable per-slot dynamics (mobility, interference
    /// bursts, …).  Dynamics are applied in attachment order at every slot
    /// boundary of every *medium-driven* protocol run over the built
    /// scenario; a scheme simulated without a PHY medium (Gen-2 FSA's
    /// analytic inventory model) never observes them.  Slot indices are
    /// protocol-local — see [`crate::dynamics`] for the time-base caveat.
    #[must_use]
    pub fn dynamics(mut self, dynamics: impl ScenarioDynamics + 'static) -> Self {
        self.dynamics.push(Arc::new(dynamics));
        self
    }

    /// Appends an already-shared dynamics instance.
    #[must_use]
    pub fn dynamics_arc(mut self, dynamics: Arc<dyn ScenarioDynamics>) -> Self {
        self.dynamics.push(dynamics);
        self
    }

    /// Appends one composable control-plane fault (slot erasure, feedback
    /// loss, tag dropout, reader restart, … from [`crate::faults`]).  Faults
    /// apply after the dynamics at every slot boundary, from their own
    /// stream family; like dynamics, the fault realization is seeded per
    /// `(scenario seed, noise seed)` and is identical for every protocol run
    /// over the same medium, so compared schemes face the same failures.
    #[must_use]
    pub fn fault(mut self, fault: impl ScenarioDynamics + 'static) -> Self {
        self.faults.push(Arc::new(fault));
        self
    }

    /// Builds the scenario's tags from a persistent population instead of
    /// drawing fresh identities and payloads: tag `i` keeps
    /// `tags[i].global_id` and `tags[i].message` verbatim, while placement,
    /// channels, clocks, sync jitter, and the noise floor are still drawn
    /// deterministically from the scenario seed (a tag carried to a new
    /// reader keeps its EPC and queued payload but sees a fresh channel).
    ///
    /// The list length must equal the builder's `k`, the global ids must be
    /// distinct, and all messages must share one non-zero bit length —
    /// enforced by [`ScenarioBuilder::build`].  An empty list draws fresh
    /// identities and payloads from the seed.
    #[must_use]
    pub fn persistent_tags(mut self, tags: Vec<PersistentTag>) -> Self {
        self.persistent = tags;
        self
    }

    /// Builds the scenario.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an invalid configuration
    /// or persistent tag list.
    pub fn build(self) -> SimResult<Scenario> {
        let mut scenario = Scenario::build_with_persistent(self.config, &self.persistent)?;
        scenario.dynamics = self.dynamics;
        scenario.faults = self.faults;
        Ok(scenario)
    }
}

/// A fully-instantiated experiment: the tags and the medium they share.
#[derive(Debug, Clone)]
pub struct Scenario {
    config: ScenarioConfig,
    placement: TablePlacement,
    tags: Vec<SimTag>,
    noise_power: f64,
    /// Per-slot dynamics every medium built from this scenario carries
    /// (empty for the paper's static scenarios).
    dynamics: Vec<Arc<dyn ScenarioDynamics>>,
    /// Control-plane faults every medium built from this scenario carries,
    /// applied after the dynamics (empty for fault-free sessions).
    faults: Vec<Arc<dyn ScenarioDynamics>>,
}

impl Scenario {
    /// Starts a fluent [`ScenarioBuilder`] for `k` tags, preloaded with the
    /// paper's default uplink parameters.
    #[must_use]
    pub fn builder(k: usize) -> ScenarioBuilder {
        ScenarioBuilder::new(k)
    }

    /// Builds the scenario `config` describes, with tag identities and
    /// messages from a persistent population (see
    /// [`ScenarioBuilder::persistent_tags`]), or freshly drawn ones when
    /// `persistent` is empty.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an invalid configuration,
    /// a persistent list whose length differs from `config.k`, duplicate
    /// global ids, or messages of mismatched/zero length.
    fn build_with_persistent(
        config: ScenarioConfig,
        persistent: &[PersistentTag],
    ) -> SimResult<Self> {
        config.validate()?;
        if !persistent.is_empty() {
            if persistent.len() != config.k {
                return Err(SimError::InvalidParameter(
                    "persistent tag list must have exactly K entries",
                ));
            }
            let mut seen = HashSet::with_capacity(persistent.len());
            for tag in persistent {
                if !seen.insert(tag.global_id) {
                    return Err(SimError::InvalidParameter(
                        "persistent global ids must be distinct",
                    ));
                }
                if tag.message.is_empty() || tag.message.len() != persistent[0].message.len() {
                    return Err(SimError::InvalidParameter(
                        "persistent messages must share one non-zero bit length",
                    ));
                }
            }
        }
        let mut rng = Xoshiro256::seed_from_u64(SplitMix64::mix(config.seed, 0x5ce9a210));

        let placement = cart_layout(config.k, config.cart_distance_m, rng.next_u64())?;
        let distances = placement.tag_distances_m();

        let channels = ChannelModel::new(rng.next_u64()).draw_many(&distances);

        // Pin the noise floor to the target median SNR.
        let mut powers: Vec<f64> = channels.iter().map(|c| c.power()).collect();
        powers.sort_by(|a, b| a.partial_cmp(b).unwrap_or(core::cmp::Ordering::Equal));
        let median_power = powers[powers.len() / 2];
        let noise_power = median_power / snr_db_to_linear(config.median_snr_db);

        let jitter = SyncJitter::moo();
        // Distinctness check via a set: the rejection loop draws the same
        // sequence as the old linear scan, but K = 100+ populations no
        // longer pay O(K²) membership tests during construction.
        let mut global_ids: HashSet<u64> = HashSet::with_capacity(config.k);
        let mut tags = Vec::with_capacity(config.k);
        for (i, channel) in channels.iter().enumerate() {
            // Identity and payload: carried over verbatim for a persistent
            // population, freshly drawn otherwise.  The persistent branch
            // consumes no rng draws here, so the environmental draws below
            // (clock, jitter) stay a pure function of the scenario seed
            // regardless of which identities ride in.
            let (gid, message) = if let Some(p) = persistent.get(i) {
                (p.global_id, p.message.clone())
            } else {
                // Draw a distinct global id for each tag.
                let mut gid = rng.next_bounded(config.global_id_space);
                while global_ids.contains(&gid) {
                    gid = rng.next_bounded(config.global_id_space);
                }
                global_ids.insert(gid);
                let message =
                    Message::random(SplitMix64::mix(config.seed, gid), config.message_bits)?;
                (gid, message)
            };
            tags.push(SimTag {
                index: i,
                global_id: gid,
                node_seed: NodeSeed(gid),
                message,
                position: placement.tags[i],
                channel: *channel,
                clock: ClockModel::draw(&mut rng, MAX_CLOCK_DRIFT_PPM),
                initial_offset_us: jitter.draw_us(&mut rng),
            });
        }

        Ok(Self {
            config,
            placement,
            tags,
            noise_power,
            dynamics: Vec::new(),
            faults: Vec::new(),
        })
    }

    /// The configuration this scenario was built from.
    #[must_use]
    pub fn config(&self) -> &ScenarioConfig {
        &self.config
    }

    /// The tag placement.
    #[must_use]
    pub fn placement(&self) -> &TablePlacement {
        &self.placement
    }

    /// The tags (immutable view).
    #[must_use]
    pub fn tags(&self) -> &[SimTag] {
        &self.tags
    }

    /// The tags (mutable view, for protocols that update seeds, batteries or
    /// messages).
    pub fn tags_mut(&mut self) -> &mut [SimTag] {
        &mut self.tags
    }

    /// The noise power of the shared medium.
    #[must_use]
    pub fn noise_power(&self) -> f64 {
        self.noise_power
    }

    /// Builds a fresh [`Medium`] over this scenario's channels.  Each protocol
    /// run should create its own medium (with a distinct `noise_seed`) so the
    /// channels stay fixed while the noise realization varies, mirroring
    /// back-to-back trace collection in the paper.
    ///
    /// # Errors
    ///
    /// Propagates medium construction errors.
    pub fn medium(&self, noise_seed: u64) -> SimResult<Medium> {
        let channels = self.tags.iter().map(|t| t.channel).collect();
        // The effects' realization follows the noise realization: one
        // location (config seed) re-observed with a new `noise_seed` sees
        // new burst phases, drift rates and fault draws, the way repeated
        // trace collection would.
        Ok(Medium::new(
            channels,
            MediumConfig {
                noise_power: self.noise_power,
                noise_seed,
            },
        )?
        .with_effects(
            self.dynamics.clone(),
            self.faults.clone(),
            SplitMix64::mix(self.config.seed, noise_seed),
        ))
    }

    /// The per-slot dynamics attached to this scenario (empty for the
    /// paper's static scenarios).
    #[must_use]
    pub fn dynamics(&self) -> &[Arc<dyn ScenarioDynamics>] {
        &self.dynamics
    }

    /// The control-plane faults attached to this scenario (empty for
    /// fault-free sessions).
    #[must_use]
    pub fn faults(&self) -> &[Arc<dyn ScenarioDynamics>] {
        &self.faults
    }

    /// Per-tag SNRs in dB, for labelling results the way Fig. 12 does.
    #[must_use]
    pub fn per_tag_snr_db(&self) -> Vec<f64> {
        self.tags
            .iter()
            .map(|t| t.channel.snr_db(self.noise_power).unwrap_or(f64::INFINITY))
            .collect()
    }

    /// The SNR range (min, max) across tags in dB.
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] if the scenario has no tags
    /// (cannot happen for a built scenario).
    pub fn snr_range_db(&self) -> SimResult<(f64, f64)> {
        let snrs = self.per_tag_snr_db();
        if snrs.is_empty() {
            return Err(SimError::InvalidParameter("scenario has no tags"));
        }
        let min = snrs.iter().copied().fold(f64::MAX, f64::min);
        let max = snrs.iter().copied().fold(f64::MIN, f64::max);
        Ok((min, max))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_validation() {
        let paper = *ScenarioBuilder::paper_uplink(8, 1)
            .build()
            .unwrap()
            .config();
        assert!(paper.validate().is_ok());
        let mut c = paper;
        c.k = 0;
        assert!(c.validate().is_err());
        let mut c = paper;
        c.global_id_space = 2;
        assert!(c.validate().is_err());
        let mut c = paper;
        c.message_bits = 0;
        assert!(c.validate().is_err());
        let mut c = paper;
        c.cart_distance_m = -1.0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn build_is_deterministic() {
        let a = ScenarioBuilder::paper_uplink(8, 42).build().unwrap();
        let b = ScenarioBuilder::paper_uplink(8, 42).build().unwrap();
        assert_eq!(a.tags().len(), 8);
        for (ta, tb) in a.tags().iter().zip(b.tags()) {
            assert_eq!(ta.global_id, tb.global_id);
            assert_eq!(ta.channel, tb.channel);
            assert_eq!(ta.message, tb.message);
        }
        assert_eq!(a.noise_power(), b.noise_power());
    }

    #[test]
    fn different_seeds_are_different_locations() {
        let a = ScenarioBuilder::paper_uplink(8, 1).build().unwrap();
        let b = ScenarioBuilder::paper_uplink(8, 2).build().unwrap();
        let same_channels = a
            .tags()
            .iter()
            .zip(b.tags())
            .all(|(x, y)| x.channel == y.channel);
        assert!(!same_channels);
    }

    #[test]
    fn global_ids_are_distinct() {
        let s = ScenarioBuilder::paper_uplink(16, 3).build().unwrap();
        let mut ids: Vec<u64> = s.tags().iter().map(|t| t.global_id).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), 16);
    }

    #[test]
    fn median_snr_is_close_to_target() {
        let s = ScenarioBuilder::paper_uplink(9, 5).build().unwrap();
        let mut snrs = s.per_tag_snr_db();
        snrs.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = snrs[snrs.len() / 2];
        assert!((median - 22.0).abs() < 0.5, "median = {median}");
    }

    #[test]
    fn challenging_scenario_has_lower_snr() {
        let good = ScenarioBuilder::paper_uplink(4, 7).build().unwrap();
        let bad = ScenarioBuilder::challenging(4, 7, 6.0).build().unwrap();
        let mean = |s: &Scenario| s.per_tag_snr_db().iter().sum::<f64>() / s.tags().len() as f64;
        assert!(mean(&bad) < mean(&good));
    }

    #[test]
    fn medium_shares_scenario_channels() {
        let s = ScenarioBuilder::paper_uplink(4, 9).build().unwrap();
        let m = s.medium(1).unwrap();
        assert_eq!(m.channels().len(), 4);
        for (mc, tc) in m.channels().iter().zip(s.tags()) {
            assert_eq!(*mc, tc.channel);
        }
        assert_eq!(m.noise_power(), s.noise_power());
    }

    #[test]
    fn builder_presets_pin_the_paper_values() {
        let paper = ScenarioConfig {
            k: 8,
            global_id_space: 1_000_000,
            seed: 42,
            cart_distance_m: 0.25,
            message_bits: 32,
            median_snr_db: 22.0,
            starting_voltage_v: 3.0,
        };
        let config = |builder: ScenarioBuilder| *builder.build().unwrap().config();
        assert_eq!(config(ScenarioBuilder::paper_uplink(8, 42)), paper);
        assert_eq!(
            config(ScenarioBuilder::challenging(4, 7, 6.0)),
            ScenarioConfig {
                k: 4,
                seed: 7,
                cart_distance_m: 0.9,
                median_snr_db: 6.0,
                ..paper
            }
        );
    }

    #[test]
    fn builder_overrides_reach_the_config() {
        let scenario = Scenario::builder(5)
            .seed(9)
            .message_bits(96)
            .global_id_space(5_000)
            .starting_voltage_v(4.5)
            .build()
            .unwrap();
        let c = scenario.config();
        assert_eq!(c.k, 5);
        assert_eq!(c.seed, 9);
        assert_eq!(c.message_bits, 96);
        assert_eq!(c.global_id_space, 5_000);
        assert_eq!(c.starting_voltage_v, 4.5);
        assert!(scenario.dynamics().is_empty());
    }

    #[test]
    fn builder_validation_still_applies() {
        assert!(Scenario::builder(0).build().is_err());
        assert!(Scenario::builder(4).global_id_space(3).build().is_err());
    }

    #[test]
    fn dynamics_ride_into_the_medium() {
        use crate::dynamics::{BurstyInterference, HeterogeneousTagPower, Mobility};

        let scenario = Scenario::builder(4)
            .seed(11)
            .dynamics(Mobility::walking_pace())
            .dynamics(BurstyInterference::wifi_like())
            .dynamics(HeterogeneousTagPower::new(12.0).unwrap())
            .build()
            .unwrap();
        assert_eq!(scenario.dynamics().len(), 3);
        let medium = scenario.medium(1).unwrap();
        assert_eq!(medium.dynamics().len(), 3);

        // Same (scenario seed, noise seed) => same dynamics trajectory;
        // different noise seed => a different realization.
        let mut a = scenario.medium(1).unwrap();
        let mut b = scenario.medium(1).unwrap();
        let mut c = scenario.medium(2).unwrap();
        let mut same = true;
        let mut differs = false;
        for slot in 0..64 {
            a.begin_slot(slot);
            b.begin_slot(slot);
            c.begin_slot(slot);
            same &= a.channels() == b.channels() && a.slot_noise_power() == b.slot_noise_power();
            differs |= a.channels() != c.channels() || a.slot_noise_power() != c.slot_noise_power();
        }
        assert!(same);
        assert!(differs);
    }

    #[test]
    fn faults_ride_into_the_medium() {
        use crate::faults::{ReaderRestart, SlotErasure};

        let scenario = Scenario::builder(4)
            .seed(13)
            .fault(SlotErasure::new(0.5).unwrap())
            .fault(ReaderRestart::new(9))
            .build()
            .unwrap();
        assert_eq!(scenario.faults().len(), 2);
        // No dynamics attached: the channel/noise path stays static even with
        // faults riding along.
        let mut medium = scenario.medium(1).unwrap();
        assert!(medium.dynamics().is_empty());
        assert!(medium.has_faults());
        assert!(medium.begin_slot(9).reader_restart);
        assert_eq!(medium.channels(), scenario.medium(1).unwrap().channels());

        // Same (scenario seed, noise seed) => same fault realization;
        // different noise seed => a different one.
        let pattern = |noise_seed: u64| -> Vec<bool> {
            let mut m = scenario.medium(noise_seed).unwrap();
            (0..64).map(|s| m.begin_slot(s).collision_erased).collect()
        };
        assert_eq!(pattern(1), pattern(1));
        assert_ne!(pattern(1), pattern(2));
    }

    #[test]
    fn persistent_tags_keep_identity_and_payload_but_redraw_the_environment() {
        let carried: Vec<PersistentTag> = (0..4)
            .map(|i| PersistentTag {
                global_id: 9_000 + i,
                message: Message::random(100 + i, 32).unwrap(),
            })
            .collect();
        let a = Scenario::builder(4)
            .seed(21)
            .persistent_tags(carried.clone())
            .build()
            .unwrap();
        for (tag, p) in a.tags().iter().zip(&carried) {
            assert_eq!(tag.global_id, p.global_id);
            assert_eq!(tag.node_seed, NodeSeed(p.global_id));
            assert_eq!(tag.message, p.message);
        }
        // Same persistent population at a different seed: identities stay,
        // channels move — the tag walked to a different reader.
        let b = Scenario::builder(4)
            .seed(22)
            .persistent_tags(carried.clone())
            .build()
            .unwrap();
        assert!(a
            .tags()
            .iter()
            .zip(b.tags())
            .any(|(x, y)| x.channel != y.channel));
        for (x, y) in a.tags().iter().zip(b.tags()) {
            assert_eq!(x.global_id, y.global_id);
            assert_eq!(x.message, y.message);
        }
        // Deterministic: the same (seed, population) rebuilds bit-identically.
        let a2 = Scenario::builder(4)
            .seed(21)
            .persistent_tags(carried)
            .build()
            .unwrap();
        for (x, y) in a.tags().iter().zip(a2.tags()) {
            assert_eq!(x.channel, y.channel);
            assert_eq!(x.initial_offset_us, y.initial_offset_us);
        }
    }

    #[test]
    fn persistent_tags_are_validated() {
        let msg = |s: u64, bits: usize| Message::random(s, bits).unwrap();
        // Wrong length.
        assert!(Scenario::builder(3)
            .persistent_tags(vec![PersistentTag {
                global_id: 1,
                message: msg(1, 32),
            }])
            .build()
            .is_err());
        // Duplicate global ids.
        assert!(Scenario::builder(2)
            .persistent_tags(vec![
                PersistentTag {
                    global_id: 7,
                    message: msg(1, 32),
                },
                PersistentTag {
                    global_id: 7,
                    message: msg(2, 32),
                },
            ])
            .build()
            .is_err());
        // Mismatched message lengths.
        assert!(Scenario::builder(2)
            .persistent_tags(vec![
                PersistentTag {
                    global_id: 1,
                    message: msg(1, 32),
                },
                PersistentTag {
                    global_id: 2,
                    message: msg(2, 96),
                },
            ])
            .build()
            .is_err());
    }

    #[test]
    fn snr_range_is_ordered() {
        let s = ScenarioBuilder::paper_uplink(12, 11).build().unwrap();
        let (lo, hi) = s.snr_range_db().unwrap();
        assert!(lo <= hi);
    }
}
