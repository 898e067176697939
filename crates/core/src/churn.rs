//! Quantitative churn specifications.
//!
//! The arrival models of [`crate::arrival`] are qualitative; experiments need
//! a knob. A [`ChurnSpec`] fixes *how fast* entities enter and leave, and a
//! [`ChurnSummary`] measures what actually happened in a run so conformance
//! can be checked after the fact.
//!
//! The central quantity is the **churn rate** `c ∈ [0, 1]`: the fraction of
//! the current membership replaced per unit window. The paper's solvable
//! dynamic classes correspond to *bounded* churn with a diameter bound; its
//! unsolvable ones let churn outpace information propagation.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::time::TimeDelta;

/// A quantitative churn regime for a run.
///
/// # Examples
///
/// ```
/// use dds_core::churn::ChurnSpec;
/// use dds_core::time::TimeDelta;
///
/// let spec = ChurnSpec::rate(0.10, TimeDelta::ticks(10)).expect("valid rate");
/// assert_eq!(spec.expected_replacements(100), 10);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ChurnSpec {
    /// Fraction of the membership replaced per window, in `[0, 1]`.
    rate: f64,
    /// Length of the replacement window.
    window: TimeDelta,
    /// Pair joins with leaves so the membership size stays constant.
    balanced: bool,
}

impl ChurnSpec {
    /// A churn-free regime (static membership after the initial join wave).
    pub const fn none() -> Self {
        ChurnSpec {
            rate: 0.0,
            window: TimeDelta::TICK,
            balanced: true,
        }
    }

    /// Balanced churn: every window, a `rate` fraction of the membership
    /// leaves and the same number of fresh entities joins.
    ///
    /// # Errors
    ///
    /// Returns [`ChurnSpecError::RateOutOfRange`] unless `0 <= rate <= 1`
    /// and rate is finite, and [`ChurnSpecError::EmptyWindow`] if the window
    /// is zero ticks.
    pub fn rate(rate: f64, window: TimeDelta) -> Result<Self, ChurnSpecError> {
        if !rate.is_finite() || !(0.0..=1.0).contains(&rate) {
            return Err(ChurnSpecError::RateOutOfRange(rate));
        }
        if window.is_zero() {
            return Err(ChurnSpecError::EmptyWindow);
        }
        Ok(ChurnSpec {
            rate,
            window,
            balanced: true,
        })
    }

    /// Like [`ChurnSpec::rate`] but joins and leaves are drawn
    /// independently, so the membership size may drift.
    ///
    /// # Errors
    ///
    /// Same conditions as [`ChurnSpec::rate`].
    pub fn unbalanced(rate: f64, window: TimeDelta) -> Result<Self, ChurnSpecError> {
        let mut spec = ChurnSpec::rate(rate, window)?;
        spec.balanced = false;
        Ok(spec)
    }

    /// The churn rate `c`.
    pub const fn churn_rate(&self) -> f64 {
        self.rate
    }

    /// The replacement window.
    pub const fn window(&self) -> TimeDelta {
        self.window
    }

    /// Whether joins and leaves are paired.
    pub const fn is_balanced(&self) -> bool {
        self.balanced
    }

    /// `true` when the regime never replaces anybody.
    pub fn is_none(&self) -> bool {
        self.rate == 0.0
    }

    /// Expected number of replacements per window for a membership of the
    /// given size (rounded down).
    pub fn expected_replacements(&self, membership: usize) -> usize {
        (self.rate * membership as f64).floor() as usize
    }

    /// Expected number of members of a set of size `n` replaced over
    /// `period` (fractional — callers decide how to round).
    pub fn expected_replacements_over(&self, n: usize, period: TimeDelta) -> f64 {
        if self.is_none() {
            return 0.0;
        }
        let windows = period.as_ticks() as f64 / self.window.as_ticks() as f64;
        self.rate * n as f64 * windows
    }
}

impl Default for ChurnSpec {
    fn default() -> Self {
        ChurnSpec::none()
    }
}

impl fmt::Display for ChurnSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_none() {
            write!(f, "no churn")
        } else {
            write!(
                f,
                "{}churn {:.1}% per {} ",
                if self.balanced { "balanced " } else { "" },
                self.rate * 100.0,
                self.window
            )
        }
    }
}

/// Error constructing a [`ChurnSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ChurnSpecError {
    /// The rate was not a finite number in `[0, 1]`.
    RateOutOfRange(f64),
    /// The window was zero ticks long.
    EmptyWindow,
}

impl fmt::Display for ChurnSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChurnSpecError::RateOutOfRange(r) => {
                write!(f, "churn rate {r} outside [0, 1]")
            }
            ChurnSpecError::EmptyWindow => write!(f, "churn window must be at least one tick"),
        }
    }
}

impl std::error::Error for ChurnSpecError {}

/// Churn measured over a finished run (or prefix).
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ChurnSummary {
    /// Joins after the initial configuration.
    pub joins: usize,
    /// Voluntary leaves.
    pub leaves: usize,
    /// Crashes.
    pub crashes: usize,
    /// Minimum membership observed.
    pub min_membership: usize,
    /// Maximum membership observed.
    pub max_membership: usize,
    /// Number of ticks observed.
    pub observed_ticks: u64,
}

impl ChurnSummary {
    /// Total departures (leaves and crashes).
    pub const fn departures(&self) -> usize {
        self.leaves + self.crashes
    }

    /// Measured churn events per tick, averaged over the observation.
    ///
    /// Returns `0.0` for an empty observation.
    pub fn events_per_tick(&self) -> f64 {
        if self.observed_ticks == 0 {
            0.0
        } else {
            (self.joins + self.departures()) as f64 / self.observed_ticks as f64
        }
    }
}

impl fmt::Display for ChurnSummary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} joins, {} leaves, {} crashes, membership in [{}, {}] over {} ticks",
            self.joins,
            self.leaves,
            self.crashes,
            self.min_membership,
            self.max_membership,
            self.observed_ticks
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_rates_accepted() {
        for r in [0.0, 0.25, 0.5, 1.0] {
            assert!(ChurnSpec::rate(r, TimeDelta::ticks(5)).is_ok());
        }
    }

    #[test]
    fn invalid_rates_rejected() {
        for r in [-0.1, 1.1, f64::NAN, f64::INFINITY] {
            assert!(matches!(
                ChurnSpec::rate(r, TimeDelta::ticks(5)),
                Err(ChurnSpecError::RateOutOfRange(_))
            ));
        }
    }

    #[test]
    fn zero_window_rejected() {
        assert_eq!(
            ChurnSpec::rate(0.5, TimeDelta::ZERO),
            Err(ChurnSpecError::EmptyWindow)
        );
    }

    #[test]
    fn none_is_default_and_churn_free() {
        let spec = ChurnSpec::default();
        assert!(spec.is_none());
        assert_eq!(spec.expected_replacements(1000), 0);
        assert_eq!(spec.to_string(), "no churn");
    }

    #[test]
    fn expected_replacements_scale_with_membership() {
        let spec = ChurnSpec::rate(0.1, TimeDelta::ticks(10)).unwrap();
        assert_eq!(spec.expected_replacements(50), 5);
        assert_eq!(spec.expected_replacements(7), 0); // floor(0.7)
        assert_eq!(
            spec.expected_replacements_over(50, TimeDelta::ticks(40)),
            20.0
        );
        assert_eq!(
            ChurnSpec::none().expected_replacements_over(50, TimeDelta::ticks(40)),
            0.0
        );
    }

    #[test]
    fn unbalanced_flag_propagates() {
        let spec = ChurnSpec::unbalanced(0.2, TimeDelta::ticks(4)).unwrap();
        assert!(!spec.is_balanced());
        assert!(ChurnSpec::rate(0.2, TimeDelta::ticks(4))
            .unwrap()
            .is_balanced());
    }

    #[test]
    fn summary_arithmetic() {
        let s = ChurnSummary {
            joins: 10,
            leaves: 6,
            crashes: 4,
            min_membership: 10,
            max_membership: 20,
            observed_ticks: 40,
        };
        assert_eq!(s.departures(), 10);
        assert!((s.events_per_tick() - 0.5).abs() < 1e-12);
        let empty = ChurnSummary::default();
        assert_eq!(empty.events_per_tick(), 0.0);
    }

    #[test]
    fn error_display() {
        let e = ChurnSpec::rate(2.0, TimeDelta::TICK).unwrap_err();
        assert!(e.to_string().contains("outside"));
        let e = ChurnSpec::rate(0.5, TimeDelta::ZERO).unwrap_err();
        assert!(e.to_string().contains("window"));
    }
}
