//! Fixed-point time arithmetic.
//!
//! The paper measures every disk parameter in milliseconds with one decimal
//! digit (e.g. the Cheetah's 6.1 ms average access time). Representing
//! times as integer **microseconds** keeps all of them exact, so the binary
//! capacity-scaling loop of Algorithm 6 — which halves a time interval until
//! it is narrower than the fastest disk's per-bucket cost — terminates on
//! integer comparisons with no floating-point tolerance tuning.

use std::fmt;
use std::iter::Sum;
use std::ops::{Add, AddAssign, Div, Mul, Sub, SubAssign};

/// A non-negative duration in integer microseconds.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Micros(pub u64);

impl Micros {
    /// Zero duration.
    pub const ZERO: Micros = Micros(0);
    /// The maximum representable duration (used like the paper's
    /// `MAXDOUBLE` sentinel).
    pub const MAX: Micros = Micros(u64::MAX);

    /// Constructs from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Micros {
        Micros(ms * 1_000)
    }

    /// Constructs from tenths of a millisecond (the paper's disk specs are
    /// given with one decimal digit, e.g. `from_tenths_ms(83)` = 8.3 ms).
    pub const fn from_tenths_ms(tenths: u64) -> Micros {
        Micros(tenths * 100)
    }

    /// Constructs from microseconds.
    pub const fn from_micros(us: u64) -> Micros {
        Micros(us)
    }

    /// Raw microsecond count.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Value in milliseconds as a float (for reporting only).
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1_000.0
    }

    /// Saturating subtraction: `max(self - rhs, 0)`.
    pub fn saturating_sub(self, rhs: Micros) -> Micros {
        Micros(self.0.saturating_sub(rhs.0))
    }

    /// Checked subtraction.
    pub fn checked_sub(self, rhs: Micros) -> Option<Micros> {
        self.0.checked_sub(rhs.0).map(Micros)
    }

    /// Checked addition: `None` when the sum does not fit in `u64`.
    pub fn checked_add(self, rhs: Micros) -> Option<Micros> {
        self.0.checked_add(rhs.0).map(Micros)
    }

    /// Integer division by another duration (how many times `rhs` fits).
    pub fn div_duration(self, rhs: Micros) -> u64 {
        assert!(rhs.0 > 0, "division by zero duration");
        self.0 / rhs.0
    }

    /// Midpoint of `[self, hi]`, rounding down — the `t_mid` computation of
    /// Algorithm 6 line 13 (`t_min + (t_max - t_min) * 0.5`).
    pub fn midpoint(self, hi: Micros) -> Micros {
        debug_assert!(self <= hi);
        Micros(self.0 + (hi.0 - self.0) / 2)
    }
}

impl Add for Micros {
    type Output = Micros;
    fn add(self, rhs: Micros) -> Micros {
        Micros(self.0 + rhs.0)
    }
}

impl AddAssign for Micros {
    fn add_assign(&mut self, rhs: Micros) {
        self.0 += rhs.0;
    }
}

impl Sub for Micros {
    type Output = Micros;
    /// # Panics
    /// Panics on underflow in debug builds; use
    /// [`Micros::saturating_sub`] when the result may be negative.
    fn sub(self, rhs: Micros) -> Micros {
        Micros(self.0 - rhs.0)
    }
}

impl SubAssign for Micros {
    fn sub_assign(&mut self, rhs: Micros) {
        self.0 -= rhs.0;
    }
}

impl Mul<u64> for Micros {
    type Output = Micros;
    fn mul(self, rhs: u64) -> Micros {
        Micros(self.0 * rhs)
    }
}

impl Mul<Micros> for u64 {
    type Output = Micros;
    fn mul(self, rhs: Micros) -> Micros {
        Micros(self * rhs.0)
    }
}

impl Div<u64> for Micros {
    type Output = Micros;
    fn div(self, rhs: u64) -> Micros {
        Micros(self.0 / rhs)
    }
}

impl Sum for Micros {
    fn sum<I: Iterator<Item = Micros>>(iter: I) -> Micros {
        Micros(iter.map(|m| m.0).sum())
    }
}

impl fmt::Display for Micros {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 == u64::MAX {
            return write!(f, "∞");
        }
        let whole = self.0 / 1_000;
        let frac = self.0 % 1_000;
        if frac == 0 {
            write!(f, "{whole}ms")
        } else {
            write!(f, "{whole}.{frac:03}ms")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_agree() {
        assert_eq!(Micros::from_millis(8), Micros(8_000));
        assert_eq!(Micros::from_tenths_ms(83), Micros(8_300));
        assert_eq!(Micros::from_micros(42), Micros(42));
    }

    #[test]
    fn arithmetic() {
        let a = Micros::from_millis(10);
        let b = Micros::from_millis(3);
        assert_eq!(a + b, Micros::from_millis(13));
        assert_eq!(a - b, Micros::from_millis(7));
        assert_eq!(a * 3, Micros::from_millis(30));
        assert_eq!(a / 2, Micros::from_millis(5));
        assert_eq!(b.saturating_sub(a), Micros::ZERO);
        assert_eq!(a.checked_sub(b), Some(Micros::from_millis(7)));
        assert_eq!(b.checked_sub(a), None);
    }

    #[test]
    fn div_duration_floors() {
        assert_eq!(Micros(10_000).div_duration(Micros(3_000)), 3);
        assert_eq!(Micros(9_000).div_duration(Micros(3_000)), 3);
        assert_eq!(Micros(100).div_duration(Micros(3_000)), 0);
    }

    #[test]
    #[should_panic(expected = "division by zero")]
    fn div_by_zero_duration_panics() {
        Micros(1).div_duration(Micros::ZERO);
    }

    #[test]
    fn midpoint_halves_interval() {
        let lo = Micros(10);
        let hi = Micros(20);
        assert_eq!(lo.midpoint(hi), Micros(15));
        assert_eq!(lo.midpoint(Micros(11)), Micros(10));
        assert_eq!(lo.midpoint(lo), lo);
    }

    #[test]
    fn display_formats() {
        assert_eq!(Micros::from_tenths_ms(83).to_string(), "8.300ms");
        assert_eq!(Micros::from_millis(2).to_string(), "2ms");
        assert_eq!(Micros::MAX.to_string(), "∞");
    }

    #[test]
    fn sum_iterates() {
        let total: Micros = [Micros(1), Micros(2), Micros(3)].into_iter().sum();
        assert_eq!(total, Micros(6));
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(Micros(1) < Micros(2));
        assert!(Micros::MAX > Micros::from_millis(1_000_000));
    }
}
