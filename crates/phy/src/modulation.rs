//! ON-OFF keying and the static carrier leakage it rides on.
//!
//! A backscatter tag conveys a "1" by switching its antenna impedance to
//! reflect the reader's carrier and a "0" by staying silent (§2).  At the
//! reader, the received baseband sample in a slot is the *sum* of the
//! reflections of all tags that transmitted a "1" in that slot, each weighted
//! by its channel coefficient, plus the static environmental reflection
//! (carrier leakage) and noise:
//!
//! ```text
//!     y = leak + Σ_i  h_i · b_i   + n
//! ```
//!
//! The simulator's medium (`backscatter_sim::medium::Medium`) evaluates that
//! sum, one sample per symbol; this module holds the leakage term.
//! Sample-accurate waveforms (many samples per bit, for the Fig. 2/8 style
//! plots) are produced by [`crate::signal::IqTrace`].

use crate::complex::Complex;

/// The constant environmental reflection (carrier leakage plus static clutter)
/// seen by the reader even when every tag is silent.
///
/// The levels in Fig. 2 of the paper ride on top of such a baseline: a single
/// tag produces *two* received levels (baseline and baseline + |h|), not zero
/// and |h|.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CarrierLeakage {
    /// Complex baseline added to every received sample.
    pub baseline: Complex,
}

impl CarrierLeakage {
    /// Creates a leakage term.
    #[must_use]
    pub fn new(baseline: Complex) -> Self {
        Self { baseline }
    }

    /// A typical normalized baseline: strong in-phase leakage.
    #[must_use]
    pub fn typical() -> Self {
        Self::new(Complex::new(1.4, -1.2))
    }
}
