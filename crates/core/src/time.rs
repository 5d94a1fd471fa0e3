//! Logical time.
//!
//! THEMIS reasons about time through tuple timestamps (§3) and two windows:
//! operator windows (time or count based) and the *source time window* (STW,
//! §4). All of these are expressed in microseconds of logical time, which the
//! simulator advances deterministically and the real engine maps onto wall
//! clock time.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in logical time, in microseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(pub u64);

/// A span of logical time, in microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct TimeDelta(pub u64);

impl Timestamp {
    /// The zero timestamp (start of the run).
    pub const ZERO: Timestamp = Timestamp(0);

    /// Builds a timestamp from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        Timestamp(s * 1_000_000)
    }

    /// Builds a timestamp from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        Timestamp(ms * 1_000)
    }

    /// Microseconds since the start of the run.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Fractional seconds since the start of the run.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating difference `self - earlier`.
    pub fn since(self, earlier: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(earlier.0))
    }
}

impl TimeDelta {
    /// The zero-length delta.
    pub const ZERO: TimeDelta = TimeDelta(0);

    /// Builds a delta from whole seconds.
    pub const fn from_secs(s: u64) -> Self {
        TimeDelta(s * 1_000_000)
    }

    /// Builds a delta from whole milliseconds.
    pub const fn from_millis(ms: u64) -> Self {
        TimeDelta(ms * 1_000)
    }

    /// Builds a delta from whole microseconds.
    pub const fn from_micros(us: u64) -> Self {
        TimeDelta(us)
    }

    /// Length in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Length in fractional seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Length in fractional milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e3
    }

    /// True if the delta has zero length.
    pub fn is_zero(self) -> bool {
        self.0 == 0
    }

    /// Integer division of two deltas (how many `other` fit into `self`),
    /// rounding down; returns 0 when `other` is zero.
    /// (Deliberately not `std::ops::Div`: the result is a scalar count.)
    #[allow(clippy::should_implement_trait)]
    pub fn div(self, other: TimeDelta) -> u64 {
        self.0.checked_div(other.0).unwrap_or(0)
    }
}

impl Add<TimeDelta> for Timestamp {
    type Output = Timestamp;
    fn add(self, rhs: TimeDelta) -> Timestamp {
        Timestamp(self.0 + rhs.0)
    }
}

impl AddAssign<TimeDelta> for Timestamp {
    fn add_assign(&mut self, rhs: TimeDelta) {
        self.0 += rhs.0;
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = TimeDelta;
    fn sub(self, rhs: Timestamp) -> TimeDelta {
        TimeDelta(self.0.saturating_sub(rhs.0))
    }
}

impl Add<TimeDelta> for TimeDelta {
    type Output = TimeDelta;
    fn add(self, rhs: TimeDelta) -> TimeDelta {
        TimeDelta(self.0 + rhs.0)
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.3}s", self.as_secs_f64())
    }
}

impl fmt::Display for TimeDelta {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.0 >= 1_000_000 {
            write!(f, "{:.3}s", self.as_secs_f64())
        } else {
            write!(f, "{:.3}ms", self.as_millis_f64())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_round_trip() {
        assert_eq!(Timestamp::from_secs(2).as_micros(), 2_000_000);
        assert_eq!(Timestamp::from_millis(250).as_micros(), 250_000);
        assert_eq!(TimeDelta::from_secs(10).as_secs_f64(), 10.0);
        assert_eq!(TimeDelta::from_millis(250).as_millis_f64(), 250.0);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(1) + TimeDelta::from_millis(500);
        assert_eq!(t.as_micros(), 1_500_000);
        assert_eq!((t - Timestamp::from_secs(1)).as_millis_f64(), 500.0);
        // saturating subtraction never panics
        assert_eq!((Timestamp::ZERO - Timestamp::from_secs(5)), TimeDelta::ZERO);
    }

    #[test]
    fn delta_division() {
        let stw = TimeDelta::from_secs(10);
        let slide = TimeDelta::from_millis(250);
        assert_eq!(stw.div(slide), 40);
        assert_eq!(stw.div(TimeDelta::ZERO), 0);
    }

    #[test]
    fn display_formats() {
        assert_eq!(TimeDelta::from_millis(250).to_string(), "250.000ms");
        assert_eq!(TimeDelta::from_secs(10).to_string(), "10.000s");
        assert_eq!(Timestamp::from_secs(3).to_string(), "3.000s");
    }
}
