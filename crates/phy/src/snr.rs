//! Signal-to-noise-ratio conversions.
//!
//! The Fig. 12 experiment sweeps channel quality in dB; this module provides
//! the dB/linear conversions.

/// Converts an SNR in dB to a linear power ratio.
#[must_use]
pub fn snr_db_to_linear(db: f64) -> f64 {
    10f64.powf(db / 10.0)
}

/// Converts a linear power ratio to dB.
///
/// Returns negative infinity for a non-positive ratio.
#[must_use]
pub fn snr_linear_to_db(linear: f64) -> f64 {
    if linear <= 0.0 {
        f64::NEG_INFINITY
    } else {
        10.0 * linear.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn db_linear_round_trip() {
        for db in [-10.0, 0.0, 3.0, 10.0, 26.0] {
            let lin = snr_db_to_linear(db);
            assert!((snr_linear_to_db(lin) - db).abs() < 1e-9);
        }
        assert_eq!(snr_linear_to_db(0.0), f64::NEG_INFINITY);
        assert!((snr_db_to_linear(10.0) - 10.0).abs() < 1e-12);
        assert!((snr_db_to_linear(0.0) - 1.0).abs() < 1e-12);
    }
}
