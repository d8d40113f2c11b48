//! Property-based tests over the core data structures and invariants.

use buzz_suite::codes::message::Message;
use buzz_suite::codes::{Crc16, Crc5};
use buzz_suite::fleet::{run_fleet, FleetConfig};
use buzz_suite::phy::channel::Channel;
use buzz_suite::phy::complex::Complex;
use buzz_suite::phy::linecode::Miller;
use buzz_suite::prng::{Rng64, Xoshiro256};
use buzz_suite::sim::medium::{Medium, MediumConfig};
use buzz_suite::TdmaProtocol;
use proptest::prelude::*;

proptest! {
    /// CRC-5 framing always verifies and always catches a single bit flip.
    #[test]
    fn crc5_round_trip_and_single_error_detection(
        payload in proptest::collection::vec(any::<bool>(), 1..128),
        flip in 0usize..133,
    ) {
        let crc = Crc5::new();
        let framed = crc.append(&payload);
        prop_assert!(crc.check(&framed).unwrap());
        let idx = flip % framed.len();
        let mut corrupted = framed.clone();
        corrupted[idx] = !corrupted[idx];
        prop_assert!(!crc.check(&corrupted).unwrap());
    }

    /// CRC-16 framing always verifies and always catches a single bit flip.
    #[test]
    fn crc16_round_trip_and_single_error_detection(
        payload in proptest::collection::vec(any::<bool>(), 1..160),
        flip in 0usize..176,
    ) {
        let crc = Crc16::new();
        let framed = crc.append(&payload);
        prop_assert!(crc.check(&framed).unwrap());
        let idx = flip % framed.len();
        let mut corrupted = framed.clone();
        corrupted[idx] = !corrupted[idx];
        prop_assert!(!crc.check(&corrupted).unwrap());
    }

    /// Miller line codes are lossless for arbitrary bit strings.
    #[test]
    fn line_codes_round_trip(bits in proptest::collection::vec(any::<bool>(), 1..200)) {
        for m in [2usize, 4, 8] {
            let miller = Miller::new(m).unwrap();
            prop_assert_eq!(miller.decode(&miller.encode(&bits)).unwrap(), bits.clone());
        }
    }

    /// Message framing verifies if and only if the frame is unmodified.
    #[test]
    fn message_verification(seed in any::<u64>(), bits in 8usize..128) {
        let msg = Message::random(seed, bits).unwrap();
        let recovered = Message::verify(&msg.framed()).unwrap();
        prop_assert_eq!(recovered, Some(msg));
    }

    /// Collision superposition is linear: on a noiseless medium, the received
    /// symbol of a joint transmission equals the sum of the individual
    /// transmissions.
    #[test]
    fn collision_superposition_is_linear(
        res in proptest::collection::vec(-2.0f64..2.0, 2..6),
        ims in proptest::collection::vec(-2.0f64..2.0, 2..6),
        bits in proptest::collection::vec(any::<bool>(), 2..6),
    ) {
        let n = res.len().min(ims.len()).min(bits.len());
        let channels: Vec<Channel> = (0..n)
            .map(|i| Channel::from_coefficient(Complex::new(res[i], ims[i])))
            .collect();
        let config = MediumConfig { noise_power: 0.0, ..MediumConfig::default() };
        let mut medium = Medium::new(channels, config).unwrap();
        let joint = medium.observe(&bits[..n]).unwrap();
        let mut sum = Complex::ZERO;
        for i in 0..n {
            let mut alone = vec![false; n];
            alone[i] = bits[i];
            sum += medium.observe(&alone).unwrap();
        }
        prop_assert!((joint - sum).abs() < 1e-9);
    }

    /// Deterministic generators: equal seeds yield equal streams, and the
    /// bounded sampler never exceeds its bound.
    #[test]
    fn prng_determinism_and_bounds(seed in any::<u64>(), bound in 1u64..1_000_000) {
        let mut a = Xoshiro256::seed_from_u64(seed);
        let mut b = Xoshiro256::seed_from_u64(seed);
        for _ in 0..16 {
            let x = a.next_bounded(bound);
            prop_assert_eq!(x, b.next_bounded(bound));
            prop_assert!(x < bound);
        }
    }
}

// Fleet-layer invariants run over full (small) warehouse runs, so they get
// their own block: each case is an end-to-end fleet of TDMA sessions over a
// shared persistent population.
proptest! {
    /// Fleet message conservation: every message the population offers is
    /// delivered, expired as lost, or still carried over at the end of the
    /// run — for any fleet shape, churn level, and carry budget.
    #[test]
    fn fleet_conserves_messages(
        seed in any::<u64>(),
        readers in 1usize..5,
        cells in 1usize..6,
        epochs in 1usize..4,
        away_pct in 0u32..50,
        max_carry in 0usize..3,
    ) {
        let config = FleetConfig {
            readers,
            population: cells * 4,
            cell_k: 4,
            epochs,
            seed,
            away_fraction: f64::from(away_pct) / 100.0,
            max_carry,
            ..FleetConfig::default()
        };
        let tdma = TdmaProtocol::paper_default().unwrap();
        let outcome = run_fleet(&tdma, &config, 2).unwrap();
        prop_assert!(outcome.conservation_holds());
        prop_assert_eq!(
            outcome.offered,
            outcome.delivered + outcome.lost + outcome.carried_over
        );
        // No more sessions than readers x epochs, and every session's cell
        // is exactly cell_k tags.
        prop_assert!(outcome.sessions <= readers * epochs);
        for record in &outcome.records {
            prop_assert_eq!(record.tag_ids.len(), 4);
            prop_assert_eq!(record.delivered_flags.len(), 4);
        }
    }
}
