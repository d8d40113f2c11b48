//! Reader/tag geometry.
//!
//! The paper's setup (§7): tags sit on a movable plastic cart on a
//! 1.5 m × 3 m table; the reader antenna is on the same table; tag–reader
//! distances range from 0.5 to 6 feet (0.15–1.8 m), bounded by the Moo's
//! typical 2-foot operating range.  Fig. 12 worsens every tag's channel by
//! moving the cart progressively farther from the reader.

use backscatter_prng::{Rng64, Xoshiro256};

use crate::{SimError, SimResult};

/// A position on the table plane, in meters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// X coordinate (meters).
    pub x: f64,
    /// Y coordinate (meters).
    pub y: f64,
}

impl Position {
    /// Creates a position.
    #[must_use]
    pub fn new(x: f64, y: f64) -> Self {
        Self { x, y }
    }

    /// The origin (where the reader antenna sits by convention).
    #[must_use]
    pub fn origin() -> Self {
        Self { x: 0.0, y: 0.0 }
    }

    /// Euclidean distance to another position, in meters.
    #[must_use]
    pub fn distance_to(&self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// A placement of a reader and a set of tags on the table.
#[derive(Debug, Clone, PartialEq)]
pub struct TablePlacement {
    /// Reader antenna position.
    pub reader: Position,
    /// Tag positions, one per tag.
    pub tags: Vec<Position>,
}

impl TablePlacement {
    /// Distances from each tag to the reader, in meters (the inputs to the
    /// path-loss model).
    #[must_use]
    pub fn tag_distances_m(&self) -> Vec<f64> {
        self.tags
            .iter()
            .map(|t| t.distance_to(self.reader))
            .collect()
    }
}

/// Lays out `k` tags on a cart whose near edge is `cart_distance_m` from the
/// reader, scattering them over a 0.4 m × 0.6 m cart surface.
///
/// The layout is deterministic for a given `seed`, so an "experiment location"
/// in the reproduction is identified by `(seed, cart_distance_m)` just as a
/// location in the paper is a particular physical placement.
///
/// # Errors
///
/// Returns [`SimError::InvalidParameter`] for zero tags or a non-positive
/// distance.
pub fn cart_layout(k: usize, cart_distance_m: f64, seed: u64) -> SimResult<TablePlacement> {
    if k == 0 {
        return Err(SimError::InvalidParameter("need at least one tag"));
    }
    if !(cart_distance_m > 0.0 && cart_distance_m.is_finite()) {
        return Err(SimError::InvalidParameter(
            "cart distance must be positive and finite",
        ));
    }
    let mut rng = Xoshiro256::seed_from_u64(seed);
    let tags = (0..k)
        .map(|_| {
            // Cart surface: 0.4 m deep (away from reader) × 0.6 m wide.
            let depth = rng.next_f64() * 0.4;
            let width = (rng.next_f64() - 0.5) * 0.6;
            Position::new(cart_distance_m + depth, width)
        })
        .collect();
    Ok(TablePlacement {
        reader: Position::origin(),
        tags,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn distance_is_euclidean() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance_to(b) - 5.0).abs() < 1e-12);
        assert!((b.distance_to(a) - 5.0).abs() < 1e-12);
    }

    #[test]
    fn cart_layout_validates_inputs() {
        assert!(cart_layout(0, 1.0, 1).is_err());
        assert!(cart_layout(4, 0.0, 1).is_err());
        assert!(cart_layout(4, f64::NAN, 1).is_err());
    }

    #[test]
    fn cart_layout_is_deterministic_and_bounded() {
        let a = cart_layout(8, 0.3, 7).unwrap();
        let b = cart_layout(8, 0.3, 7).unwrap();
        assert_eq!(a, b);
        let d = a.tag_distances_m();
        let min = d.iter().copied().fold(f64::MAX, f64::min);
        let max = d.iter().copied().fold(f64::MIN, f64::max);
        assert!(min >= 0.3 - 0.3 - 1e-9); // width offset can reduce distance slightly
        assert!(min > 0.0);
        assert!(max < 0.3 + 0.8);
        assert_eq!(a.tags.len(), 8);
    }

    #[test]
    fn different_seeds_produce_different_layouts() {
        let a = cart_layout(8, 0.3, 1).unwrap();
        let b = cart_layout(8, 0.3, 2).unwrap();
        assert_ne!(a, b);
    }
}
