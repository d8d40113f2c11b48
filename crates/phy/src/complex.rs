//! Minimal complex-number arithmetic.
//!
//! The reader's baseband samples, the per-tag channel coefficients `h_i`, and
//! every intermediate quantity in the compressive-sensing and
//! belief-propagation decoders are complex numbers.  Rather than pulling in a
//! numerical crate, this module provides the small amount of complex
//! arithmetic the workspace needs, with `f64` components throughout.

use core::iter::Sum;
use core::ops::{Add, AddAssign, Div, Mul, MulAssign, Neg, Sub, SubAssign};

/// A complex number with `f64` real and imaginary parts.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Complex {
    /// Real (in-phase) component.
    pub re: f64,
    /// Imaginary (quadrature) component.
    pub im: f64,
}

impl Complex {
    /// The additive identity.
    pub const ZERO: Complex = Complex { re: 0.0, im: 0.0 };
    /// The multiplicative identity.
    pub const ONE: Complex = Complex { re: 1.0, im: 0.0 };
    /// The imaginary unit.
    pub const I: Complex = Complex { re: 0.0, im: 1.0 };

    /// Creates a complex number from rectangular coordinates.
    #[must_use]
    pub const fn new(re: f64, im: f64) -> Self {
        Self { re, im }
    }

    /// Creates a complex number from polar coordinates (magnitude, phase in
    /// radians).
    #[must_use]
    pub fn from_polar(magnitude: f64, phase: f64) -> Self {
        Self {
            re: magnitude * phase.cos(),
            im: magnitude * phase.sin(),
        }
    }

    /// The complex conjugate.
    #[must_use]
    pub fn conj(self) -> Self {
        Self {
            re: self.re,
            im: -self.im,
        }
    }

    /// The squared magnitude `|z|^2` (avoids the square root of
    /// [`Complex::abs`]).
    #[must_use]
    pub fn norm_sqr(self) -> f64 {
        self.re * self.re + self.im * self.im
    }

    /// The magnitude `|z|`.
    #[must_use]
    pub fn abs(self) -> f64 {
        self.norm_sqr().sqrt()
    }

    /// The phase (argument) in radians, in `(-π, π]`.
    #[must_use]
    pub fn arg(self) -> f64 {
        self.im.atan2(self.re)
    }

    /// The multiplicative inverse.  Returns [`Complex::ZERO`] for a zero
    /// input rather than producing NaNs, so callers can treat "no channel" as
    /// an erased measurement.
    #[must_use]
    pub fn inv(self) -> Self {
        let d = self.norm_sqr();
        if d == 0.0 {
            return Complex::ZERO;
        }
        Self {
            re: self.re / d,
            im: -self.im / d,
        }
    }

    /// Scales by a real factor.
    #[must_use]
    pub fn scale(self, k: f64) -> Self {
        Self {
            re: self.re * k,
            im: self.im * k,
        }
    }

    /// Returns true when both components are finite.
    #[must_use]
    pub fn is_finite(self) -> bool {
        self.re.is_finite() && self.im.is_finite()
    }
}

impl Add for Complex {
    type Output = Complex;
    fn add(self, rhs: Complex) -> Complex {
        Complex::new(self.re + rhs.re, self.im + rhs.im)
    }
}

impl AddAssign for Complex {
    fn add_assign(&mut self, rhs: Complex) {
        self.re += rhs.re;
        self.im += rhs.im;
    }
}

impl Sub for Complex {
    type Output = Complex;
    fn sub(self, rhs: Complex) -> Complex {
        Complex::new(self.re - rhs.re, self.im - rhs.im)
    }
}

impl SubAssign for Complex {
    fn sub_assign(&mut self, rhs: Complex) {
        self.re -= rhs.re;
        self.im -= rhs.im;
    }
}

impl Mul for Complex {
    type Output = Complex;
    fn mul(self, rhs: Complex) -> Complex {
        Complex::new(
            self.re * rhs.re - self.im * rhs.im,
            self.re * rhs.im + self.im * rhs.re,
        )
    }
}

impl MulAssign for Complex {
    fn mul_assign(&mut self, rhs: Complex) {
        *self = *self * rhs;
    }
}

impl Mul<f64> for Complex {
    type Output = Complex;
    fn mul(self, rhs: f64) -> Complex {
        self.scale(rhs)
    }
}

impl Div for Complex {
    type Output = Complex;
    // Division by multiplication with the inverse is the definition here.
    #[allow(clippy::suspicious_arithmetic_impl)]
    fn div(self, rhs: Complex) -> Complex {
        self * rhs.inv()
    }
}

impl Div<f64> for Complex {
    type Output = Complex;
    fn div(self, rhs: f64) -> Complex {
        if rhs == 0.0 {
            Complex::ZERO
        } else {
            self.scale(1.0 / rhs)
        }
    }
}

impl Neg for Complex {
    type Output = Complex;
    fn neg(self) -> Complex {
        Complex::new(-self.re, -self.im)
    }
}

impl Sum for Complex {
    fn sum<I: Iterator<Item = Complex>>(iter: I) -> Complex {
        iter.fold(Complex::ZERO, |acc, z| acc + z)
    }
}

impl From<f64> for Complex {
    fn from(re: f64) -> Self {
        Complex::new(re, 0.0)
    }
}

impl core::fmt::Display for Complex {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        if self.im >= 0.0 {
            write!(f, "{:.6}+{:.6}i", self.re, self.im)
        } else {
            write!(f, "{:.6}-{:.6}i", self.re, -self.im)
        }
    }
}

/// Computes the squared Euclidean norm `‖v‖²` of a complex vector.
#[must_use]
pub fn norm_sqr(v: &[Complex]) -> f64 {
    v.iter().map(|z| z.norm_sqr()).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn close(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn add_sub_mul() {
        let a = Complex::new(1.0, 2.0);
        let b = Complex::new(3.0, -1.0);
        assert_eq!(a + b, Complex::new(4.0, 1.0));
        assert_eq!(a - b, Complex::new(-2.0, 3.0));
        // (1+2i)(3-i) = 3 - i + 6i - 2i^2 = 5 + 5i
        assert_eq!(a * b, Complex::new(5.0, 5.0));
    }

    #[test]
    fn division_round_trips() {
        let a = Complex::new(2.5, -1.5);
        let b = Complex::new(-0.5, 4.0);
        let q = a / b;
        let back = q * b;
        assert!(close(back.re, a.re) && close(back.im, a.im));
    }

    #[test]
    fn division_by_zero_is_zero() {
        let a = Complex::new(1.0, 1.0);
        assert_eq!(a / Complex::ZERO, Complex::ZERO);
        assert_eq!(a / 0.0, Complex::ZERO);
    }

    #[test]
    fn polar_round_trip() {
        let z = Complex::from_polar(2.0, 0.7);
        assert!(close(z.abs(), 2.0));
        assert!(close(z.arg(), 0.7));
    }

    #[test]
    fn conjugate_and_norm() {
        let z = Complex::new(3.0, 4.0);
        assert!(close(z.norm_sqr(), 25.0));
        assert!(close(z.abs(), 5.0));
        assert_eq!(z.conj(), Complex::new(3.0, -4.0));
        assert!(close((z * z.conj()).re, 25.0));
    }

    #[test]
    fn vector_norm() {
        let v = [Complex::new(3.0, 0.0), Complex::new(0.0, 4.0)];
        assert!(close(norm_sqr(&v), 25.0));
    }

    #[test]
    fn sum_folds_to_total() {
        let total: Complex = (1..=4).map(|i| Complex::new(i as f64, -(i as f64))).sum();
        assert_eq!(total, Complex::new(10.0, -10.0));
    }

    #[test]
    fn display_formats_sign() {
        assert_eq!(format!("{}", Complex::new(1.0, -2.0)), "1.000000-2.000000i");
        assert_eq!(format!("{}", Complex::new(1.0, 2.0)), "1.000000+2.000000i");
    }
}
