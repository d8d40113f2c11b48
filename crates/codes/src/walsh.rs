//! Walsh–Hadamard orthogonal spreading codes.
//!
//! The paper's CDMA baseline (§9) uses synchronous CDMA with Walsh codes: each
//! of the K tags spreads every data bit over a length-`SF` chip sequence, all
//! tags transmit concurrently, and the reader despreads by correlating with
//! each tag's code.  Walsh codes only exist for power-of-two lengths, which is
//! why the paper's 12-tag experiment had to fall back to length-16 codes.

use crate::{CodeError, CodeResult};

/// A Walsh–Hadamard code set of a power-of-two spreading factor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalshCode {
    spreading_factor: usize,
    /// Row-major Hadamard matrix with entries mapped to `bool`
    /// (`true` = +1 chip, `false` = −1 chip).
    rows: Vec<Vec<bool>>,
}

impl WalshCode {
    /// Constructs the Walsh code set of the given spreading factor.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameter`] unless the spreading factor is
    /// a power of two (and at least 2).
    pub fn new(spreading_factor: usize) -> CodeResult<Self> {
        if spreading_factor < 2 || !spreading_factor.is_power_of_two() {
            return Err(CodeError::InvalidParameter(
                "Walsh spreading factor must be a power of two ≥ 2",
            ));
        }
        // Sylvester construction: H_{2n} = [[H_n, H_n], [H_n, -H_n]].
        let mut rows = vec![vec![true]];
        let mut size = 1;
        while size < spreading_factor {
            let mut next = Vec::with_capacity(size * 2);
            for row in &rows {
                let mut r = row.clone();
                r.extend(row.iter().copied());
                next.push(r);
            }
            for row in &rows {
                let mut r = row.clone();
                r.extend(row.iter().map(|&b| !b));
                next.push(r);
            }
            rows = next;
            size *= 2;
        }
        Ok(Self {
            spreading_factor,
            rows,
        })
    }

    /// The smallest valid spreading factor that can give `k` tags distinct
    /// codes (the paper's rule: for 12 tags, use length-16 codes).
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::InvalidParameter`] for `k == 0`.
    pub fn for_tags(k: usize) -> CodeResult<Self> {
        if k == 0 {
            return Err(CodeError::InvalidParameter(
                "need at least one tag for a code assignment",
            ));
        }
        Self::new(k.next_power_of_two().max(2))
    }

    /// The spreading factor (chips per data bit).
    #[must_use]
    pub fn spreading_factor(&self) -> usize {
        self.spreading_factor
    }

    /// The chip sequence of code `index` as ±1 values.
    ///
    /// # Errors
    ///
    /// Returns [`CodeError::IndexOutOfRange`] for an index ≥ spreading factor.
    pub fn chips(&self, index: usize) -> CodeResult<Vec<i8>> {
        let row = self.rows.get(index).ok_or(CodeError::IndexOutOfRange {
            index,
            bound: self.spreading_factor,
        })?;
        Ok(row.iter().map(|&b| if b { 1 } else { -1 }).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_non_power_of_two() {
        assert!(WalshCode::new(0).is_err());
        assert!(WalshCode::new(1).is_err());
        assert!(WalshCode::new(12).is_err());
        assert!(WalshCode::new(16).is_ok());
    }

    #[test]
    fn for_tags_rounds_up() {
        assert_eq!(WalshCode::for_tags(12).unwrap().spreading_factor(), 16);
        assert_eq!(WalshCode::for_tags(4).unwrap().spreading_factor(), 4);
        assert_eq!(WalshCode::for_tags(1).unwrap().spreading_factor(), 2);
        assert!(WalshCode::for_tags(0).is_err());
    }

    #[test]
    fn codes_are_mutually_orthogonal() {
        let w = WalshCode::new(16).unwrap();
        for i in 0..16 {
            for j in 0..16 {
                let a = w.chips(i).unwrap();
                let b = w.chips(j).unwrap();
                let dot: i32 = a
                    .iter()
                    .zip(&b)
                    .map(|(&x, &y)| i32::from(x) * i32::from(y))
                    .sum();
                if i == j {
                    assert_eq!(dot, 16);
                } else {
                    assert_eq!(dot, 0, "codes {i} and {j} not orthogonal");
                }
            }
        }
    }

    proptest::proptest! {
        /// For any order 2^1..=2^7, *all* pairs of Walsh codewords are
        /// mutually orthogonal and each codeword has full self-correlation.
        #[test]
        fn all_orders_yield_mutually_orthogonal_codewords(sf_exp in 1u32..8) {
            let sf = 1usize << sf_exp;
            let w = WalshCode::new(sf).unwrap();
            let chips: Vec<Vec<i8>> = (0..sf).map(|i| w.chips(i).unwrap()).collect();
            for i in 0..sf {
                for j in 0..sf {
                    let dot: i32 = chips[i]
                        .iter()
                        .zip(&chips[j])
                        .map(|(&x, &y)| i32::from(x) * i32::from(y))
                        .sum();
                    let expected = if i == j { sf as i32 } else { 0 };
                    proptest::prop_assert_eq!(dot, expected, "order {}, pair ({}, {})", sf, i, j);
                }
            }
        }
    }

    #[test]
    fn chips_index_bound() {
        let w = WalshCode::new(8).unwrap();
        assert!(w.chips(8).is_err());
        assert!(w.chips(7).is_ok());
    }
}
