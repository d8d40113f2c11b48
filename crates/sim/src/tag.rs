//! Per-tag state bundle.
//!
//! A [`SimTag`] collects everything the protocols and the energy accounting
//! need to know about one simulated tag: its deterministic seed material, the
//! message it wants to deliver, its channel and its clock imperfections.

use backscatter_codes::message::Message;
use backscatter_phy::channel::Channel;
use backscatter_phy::sync::ClockModel;
use backscatter_prng::NodeSeed;

use crate::geometry::Position;
use crate::{SimError, SimResult};

/// One simulated backscatter tag.
#[derive(Debug, Clone)]
pub struct SimTag {
    /// The tag's index within its scenario (stable across phases).
    pub index: usize,
    /// The tag's global identifier in the full id space of size `N`
    /// (e.g. the EPC of an item in the store).
    pub global_id: u64,
    /// The seed material driving all of the tag's pseudorandom decisions.
    /// During identification this starts as the global id; after Buzz's
    /// identification phase it is re-bound to the temporary id the tag drew.
    pub node_seed: NodeSeed,
    /// The message the tag wants to deliver in the data phase.
    pub message: Message,
    /// The tag's position on the table.
    pub position: Position,
    /// The tag's single-tap channel to the reader.
    pub channel: Channel,
    /// The tag's clock-drift model.
    pub clock: ClockModel,
    /// The tag's initial trigger-detection offset in microseconds.
    pub initial_offset_us: f64,
}

impl SimTag {
    /// Re-binds the tag's pseudorandom seed to the temporary id it drew during
    /// identification, which is what the data phase keys its participation
    /// decisions on (§6(a) of the paper).
    pub fn assign_temporary_id(&mut self, temporary_id: u64) {
        self.node_seed = NodeSeed(temporary_id);
    }

    /// Replaces the tag's message (e.g. for multi-round experiments where the
    /// tag reports a fresh sensor reading each round).
    ///
    /// # Errors
    ///
    /// Returns [`SimError::InvalidParameter`] for an empty message.
    pub fn set_message(&mut self, message: Message) -> SimResult<()> {
        if message.is_empty() {
            return Err(SimError::InvalidParameter("message must be non-empty"));
        }
        self.message = message;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use backscatter_phy::complex::Complex;

    fn sample_tag() -> SimTag {
        SimTag {
            index: 0,
            global_id: 1234,
            node_seed: NodeSeed(1234),
            message: Message::standard_32bit(1).unwrap(),
            position: Position::new(0.3, 0.0),
            channel: Channel::from_coefficient(Complex::new(0.5, 0.1)),
            clock: ClockModel::new(100.0),
            initial_offset_us: 0.2,
        }
    }

    #[test]
    fn temporary_id_rebinds_seed() {
        let mut tag = sample_tag();
        assert_eq!(tag.node_seed, NodeSeed(1234));
        tag.assign_temporary_id(77);
        assert_eq!(tag.node_seed, NodeSeed(77));
        // The global id is untouched.
        assert_eq!(tag.global_id, 1234);
    }

    #[test]
    fn set_message_replaces_payload() {
        let mut tag = sample_tag();
        let new = Message::random(9, 96).unwrap();
        tag.set_message(new.clone()).unwrap();
        assert_eq!(tag.message, new);
    }
}
