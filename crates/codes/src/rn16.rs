//! Temporary-id spaces.
//!
//! EPC Gen-2 tags identify themselves during inventory with a 16-bit random
//! number (RN16).  Buzz replaces the fixed 2^16 id space with a much smaller
//! temporary-id space of size `a · c · K` sized from the reader's estimate of
//! `K` (§5.1-B), which is what makes the reader-side compressive-sensing
//! decode tractable.

use crate::{CodeError, CodeResult};

/// A temporary-id space of configurable size.
///
/// Buzz sizes the space as `a · c · K̂` once `K̂` is known; Gen-2's FSA
/// implicitly uses the full 2^16 RN16 space.  Tags draw ids uniformly at
/// random from the space (identification derives each from the tag's
/// global id and the round), so collisions (two tags drawing the same id)
/// happen with the usual birthday probability — the identification
/// protocols must tolerate and detect them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TemporaryIdSpace {
    size: u64,
}

impl TemporaryIdSpace {
    /// Creates an id space with `size` distinct ids.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameter`] for a zero size.
    pub fn new(size: u64) -> CodeResult<Self> {
        if size == 0 {
            return Err(CodeError::InvalidParameter(
                "temporary id space must be non-empty",
            ));
        }
        Ok(Self { size })
    }

    /// The Buzz sizing rule: `a · c · K` for an estimated number of active
    /// tags `k_hat` and protocol parameters `a` and `c` (the paper uses
    /// `a = K`, `c = 10`).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameter`] if any factor is zero.
    pub fn for_buzz(k_hat: u64, a: u64, c: u64) -> CodeResult<Self> {
        if k_hat == 0 || a == 0 || c == 0 {
            return Err(CodeError::InvalidParameter(
                "Buzz id-space factors must be non-zero",
            ));
        }
        Self::new(a.saturating_mul(c).saturating_mul(k_hat))
    }

    /// Number of ids in the space.
    #[must_use]
    pub fn size(&self) -> u64 {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn id_space_rejects_zero() {
        assert!(TemporaryIdSpace::new(0).is_err());
        assert!(TemporaryIdSpace::for_buzz(0, 1, 1).is_err());
        assert!(TemporaryIdSpace::for_buzz(4, 0, 10).is_err());
    }

    #[test]
    fn buzz_sizing_rule() {
        // a = K, c = 10, K = 16  =>  16 * 10 * 16 = 2560 ids.
        let space = TemporaryIdSpace::for_buzz(16, 16, 10).unwrap();
        assert_eq!(space.size(), 2560);
        // Far smaller than Gen-2's 2^16 RN16 space.
        assert!(space.size() < 1 << 16);
    }
}
