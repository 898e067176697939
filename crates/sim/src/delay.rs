//! Message delay and loss models: the timing dimension made operational.
//!
//! A [`DelayModel`] samples the latency of each message; the choice
//! realizes the [`dds_core::timing::Timing`] assumption of the scenario's
//! system class. A [`LossModel`] decides whether the network drops the
//! message outright (beyond the implicit drop when the destination departs
//! before delivery).

use std::fmt;

use dds_core::rng::Rng;
use dds_core::time::TimeDelta;

/// How long a message spends in the network.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelayModel {
    /// Every message takes exactly `delta` ticks — the synchronous model
    /// with a tight bound.
    Fixed(TimeDelta),
    /// Uniform in `[min, max]` ticks — synchronous with bound `max`.
    Uniform {
        /// Minimum delay (at least 1 tick: delivery is never instantaneous).
        min: TimeDelta,
        /// Maximum delay.
        max: TimeDelta,
    },
    /// Exponential with the given mean (rounded up, at least 1 tick),
    /// unbounded above — the asynchronous model: any finite bound is
    /// eventually exceeded.
    Exponential {
        /// Mean delay in ticks.
        mean_ticks: f64,
    },
}

impl DelayModel {
    /// Samples one message delay.
    ///
    /// Always at least one tick: a message is never delivered at its send
    /// instant.
    #[inline]
    pub fn sample(&self, rng: &mut Rng) -> TimeDelta {
        match self {
            DelayModel::Fixed(d) => TimeDelta::ticks(d.as_ticks().max(1)),
            DelayModel::Uniform { min, max } => {
                let lo = min.as_ticks().max(1);
                let hi = max.as_ticks().max(lo);
                TimeDelta::ticks(lo + rng.below(hi - lo + 1))
            }
            DelayModel::Exponential { mean_ticks } => {
                let d = rng.exponential(*mean_ticks).ceil() as u64;
                TimeDelta::ticks(d.max(1))
            }
        }
    }

    /// The worst-case delay when one exists (i.e. in the synchronous
    /// models), used by protocols to compute timeouts.
    pub fn bound(&self) -> Option<TimeDelta> {
        match self {
            DelayModel::Fixed(d) => Some(TimeDelta::ticks(d.as_ticks().max(1))),
            DelayModel::Uniform { max, .. } => Some(*max),
            DelayModel::Exponential { .. } => None,
        }
    }
}

impl fmt::Display for DelayModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DelayModel::Fixed(d) => write!(f, "fixed delay {d}"),
            DelayModel::Uniform { min, max } => {
                write!(f, "uniform delay [{}, {}]", min.as_ticks(), max.as_ticks())
            }
            DelayModel::Exponential { mean_ticks } => {
                write!(f, "exponential delay (mean {mean_ticks} ticks, unbounded)")
            }
        }
    }
}

/// Whether the network loses messages.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LossModel {
    /// Reliable links.
    None,
    /// Each message is lost independently with probability `p`.
    Bernoulli(f64),
}

impl LossModel {
    /// `true` when this particular message should be dropped.
    #[inline]
    pub fn drops(&self, rng: &mut Rng) -> bool {
        match self {
            LossModel::None => false,
            LossModel::Bernoulli(p) => rng.chance(*p),
        }
    }
}

impl fmt::Display for LossModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LossModel::None => write!(f, "reliable links"),
            LossModel::Bernoulli(p) => write!(f, "loss probability {p}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_is_constant_and_at_least_one() {
        let mut rng = Rng::seeded(0);
        let m = DelayModel::Fixed(TimeDelta::ticks(3));
        for _ in 0..20 {
            assert_eq!(m.sample(&mut rng), TimeDelta::ticks(3));
        }
        let zero = DelayModel::Fixed(TimeDelta::ZERO);
        assert_eq!(zero.sample(&mut rng), TimeDelta::TICK);
        assert_eq!(zero.bound(), Some(TimeDelta::TICK));
    }

    #[test]
    fn uniform_stays_in_range() {
        let mut rng = Rng::seeded(1);
        let m = DelayModel::Uniform {
            min: TimeDelta::ticks(2),
            max: TimeDelta::ticks(5),
        };
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..500 {
            let d = m.sample(&mut rng).as_ticks();
            assert!((2..=5).contains(&d));
            seen.insert(d);
        }
        assert_eq!(seen.len(), 4, "all values in range should occur");
        assert_eq!(m.bound(), Some(TimeDelta::ticks(5)));
    }

    #[test]
    fn exponential_has_no_bound_and_roughly_right_mean() {
        let mut rng = Rng::seeded(2);
        let m = DelayModel::Exponential { mean_ticks: 8.0 };
        assert_eq!(m.bound(), None);
        let n = 5000;
        let sum: u64 = (0..n).map(|_| m.sample(&mut rng).as_ticks()).sum();
        let mean = sum as f64 / n as f64;
        // ceil() biases upward by ~0.5.
        assert!((mean - 8.5).abs() < 0.6, "mean {mean}");
    }

    #[test]
    fn loss_models() {
        let mut rng = Rng::seeded(3);
        assert!(!(0..100).any(|_| LossModel::None.drops(&mut rng)));
        assert!((0..100).all(|_| LossModel::Bernoulli(1.0).drops(&mut rng)));
        let hits = (0..10_000)
            .filter(|_| LossModel::Bernoulli(0.2).drops(&mut rng))
            .count();
        let freq = hits as f64 / 10_000.0;
        assert!((freq - 0.2).abs() < 0.03, "freq {freq}");
    }
}
