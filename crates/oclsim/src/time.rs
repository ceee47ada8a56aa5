//! Virtual time used by the device simulator.
//!
//! Every command (transfer, kernel launch) advances per-queue virtual clocks
//! according to the device cost model. Virtual time is counted in
//! nanoseconds and exposed through [`SimTime`] (a point in time) and
//! [`SimDuration`] (a span).

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in virtual time (nanoseconds since context creation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimTime(pub u64);

/// A span of virtual time in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default, Hash)]
pub struct SimDuration(pub u64);

impl SimTime {
    /// The zero point.
    pub const ZERO: SimTime = SimTime(0);

    /// Nanoseconds since the context epoch.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the context epoch (lossy).
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The later of two points in time.
    pub fn max(self, other: SimTime) -> SimTime {
        SimTime(self.0.max(other.0))
    }

    /// The span from `earlier` to `self`; zero if `earlier` is later.
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl SimDuration {
    /// A zero-length span.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from seconds.
    pub fn from_secs_f64(secs: f64) -> SimDuration {
        SimDuration((secs.max(0.0) * 1e9).round() as u64)
    }

    /// Construct from microseconds.
    pub fn from_micros(us: u64) -> SimDuration {
        SimDuration(us * 1_000)
    }

    /// The span in nanoseconds.
    pub fn as_nanos(self) -> u64 {
        self.0
    }

    /// The span in seconds.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// The span in milliseconds.
    pub fn as_millis_f64(self) -> f64 {
        self.0 as f64 / 1e6
    }

    /// Saturating addition of two spans.
    pub fn saturating_add(self, other: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(other.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign<SimDuration> for SimTime {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0.saturating_add(rhs.0))
    }
}

impl AddAssign for SimDuration {
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 = self.0.saturating_add(rhs.0);
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let ns = self.0;
        if ns >= 1_000_000_000 {
            write!(f, "{:.3} s", self.as_secs_f64())
        } else if ns >= 1_000_000 {
            write!(f, "{:.3} ms", ns as f64 / 1e6)
        } else if ns >= 1_000 {
            write!(f, "{:.3} µs", ns as f64 / 1e3)
        } else {
            write!(f, "{ns} ns")
        }
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t+{}", SimDuration(self.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arithmetic() {
        let t = SimTime(100) + SimDuration(50);
        assert_eq!(t, SimTime(150));
        assert_eq!(t - SimTime(100), SimDuration(50));
        assert_eq!(SimTime(10) - SimTime(100), SimDuration(0));
        assert_eq!(SimTime(10).max(SimTime(100)), SimTime(100));
    }

    #[test]
    fn conversions() {
        assert_eq!(SimDuration::from_secs_f64(1.5).as_nanos(), 1_500_000_000);
        assert_eq!(SimDuration::from_micros(3).as_nanos(), 3_000);
        assert!((SimDuration(2_000_000).as_millis_f64() - 2.0).abs() < 1e-12);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn display_picks_sensible_units() {
        assert_eq!(format!("{}", SimDuration(500)), "500 ns");
        assert_eq!(format!("{}", SimDuration(2_500)), "2.500 µs");
        assert_eq!(format!("{}", SimDuration(3_000_000)), "3.000 ms");
        assert_eq!(format!("{}", SimDuration(1_200_000_000)), "1.200 s");
    }
}
