//! The **arrival dimension** of dynamicity.
//!
//! The paper's first axis classifies systems by *how many entities* take part
//! and how that number evolves, following the infinite-arrival taxonomy of
//! Merritt & Taubenfeld. From most to least constrained:
//!
//! 1. [`ArrivalModel::FiniteKnown`] — the static model `M^n`: a fixed set of
//!    `n` processes, `n` known to everyone.
//! 2. [`ArrivalModel::FiniteUnknown`] — finitely many processes ever arrive,
//!    but no bound on their number is known a priori.
//! 3. [`ArrivalModel::InfiniteBounded`] — infinitely many processes may
//!    arrive over an infinite run, but at most `b` are up simultaneously
//!    (`M^∞_b`, *bounded concurrency*).
//! 4. [`ArrivalModel::InfiniteFinite`] — infinite arrival; in every run the
//!    number of simultaneously-up processes is finite, but no bound holds
//!    across runs (`M^∞_n`).
//! 5. [`ArrivalModel::InfiniteUnbounded`] — the number of simultaneously-up
//!    processes may grow without bound within a single run (`M^∞`).
//!
//! The models form a total order by permissiveness ([`ArrivalModel::rank`]):
//! every run allowed by a model is allowed by all more permissive models, so
//! an algorithm correct in a permissive model is correct in all stricter
//! ones. [`ArrivalModel::admits`] checks a run summary against a model.

use std::fmt;

use serde::{Deserialize, Serialize};

/// Classification of a system along the arrival (membership) dimension.
///
/// # Examples
///
/// ```
/// use dds_core::arrival::ArrivalModel;
///
/// let stat = ArrivalModel::FiniteKnown { n: 32 };
/// let churny = ArrivalModel::InfiniteBounded { b: 32 };
/// assert!(stat.is_static());
/// assert!(!churny.is_static());
/// assert!(stat.rank() < churny.rank());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArrivalModel {
    /// Static system `M^n`: exactly `n` processes, present from the start,
    /// never joined by others (crashes permitted by the failure model).
    FiniteKnown {
        /// The known system size.
        n: usize,
    },
    /// Finite arrival: only finitely many processes ever enter, but their
    /// number is not known to the participants.
    FiniteUnknown,
    /// Infinite arrival with concurrency bounded by `b` in every run
    /// (`M^∞_b`).
    InfiniteBounded {
        /// The bound on the number of simultaneously-up processes.
        b: usize,
    },
    /// Infinite arrival; concurrency finite in each run but unbounded across
    /// runs (`M^∞_n`).
    InfiniteFinite,
    /// Infinite arrival with unbounded concurrency within a run (`M^∞`).
    InfiniteUnbounded,
}

impl ArrivalModel {
    /// `true` for the static model (no joins, no leaves).
    pub const fn is_static(&self) -> bool {
        matches!(self, ArrivalModel::FiniteKnown { .. })
    }

    /// The bound on simultaneous participation known *a priori*, when one
    /// exists.
    ///
    /// `FiniteKnown { n }` yields `n`; `InfiniteBounded { b }` yields `b`;
    /// the remaining models provide no bound.
    pub const fn concurrency_bound(&self) -> Option<usize> {
        match self {
            ArrivalModel::FiniteKnown { n } => Some(*n),
            ArrivalModel::InfiniteBounded { b } => Some(*b),
            ArrivalModel::FiniteUnknown
            | ArrivalModel::InfiniteFinite
            | ArrivalModel::InfiniteUnbounded => None,
        }
    }

    /// Permissiveness rank: higher admits strictly more runs.
    ///
    /// The taxonomy is a chain, so a single integer captures the partial
    /// order. Parameters (`n`, `b`) do not affect the rank — they refine a
    /// model, they do not change its class.
    pub const fn rank(&self) -> u8 {
        match self {
            ArrivalModel::FiniteKnown { .. } => 0,
            ArrivalModel::FiniteUnknown => 1,
            ArrivalModel::InfiniteBounded { .. } => 2,
            ArrivalModel::InfiniteFinite => 3,
            ArrivalModel::InfiniteUnbounded => 4,
        }
    }

    /// `true` when every run allowed by `self` is allowed by `other`.
    ///
    /// For two [`ArrivalModel::InfiniteBounded`] models this additionally
    /// requires the bound not to grow; for a static model it requires the
    /// sizes to match.
    pub fn refines(&self, other: &ArrivalModel) -> bool {
        match (self, other) {
            (ArrivalModel::FiniteKnown { n: a }, ArrivalModel::FiniteKnown { n: b }) => a == b,
            (ArrivalModel::InfiniteBounded { b: a }, ArrivalModel::InfiniteBounded { b }) => a <= b,
            _ => self.rank() <= other.rank(),
        }
    }

    /// Checks whether a run with the given membership statistics is legal in
    /// this model.
    pub fn admits(&self, stats: &RunArrivalStats) -> bool {
        match self {
            ArrivalModel::FiniteKnown { n } => {
                stats.total_arrivals == *n && stats.joins_after_start == 0
            }
            ArrivalModel::FiniteUnknown => stats.total_arrivals_finite,
            ArrivalModel::InfiniteBounded { b } => stats.max_concurrency <= *b,
            ArrivalModel::InfiniteFinite => stats.max_concurrency_finite,
            ArrivalModel::InfiniteUnbounded => true,
        }
    }
}

impl fmt::Display for ArrivalModel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArrivalModel::FiniteKnown { n } => write!(f, "M^n (static, n={n})"),
            ArrivalModel::FiniteUnknown => write!(f, "finite arrival, size unknown"),
            ArrivalModel::InfiniteBounded { b } => write!(f, "M^inf_b (b={b})"),
            ArrivalModel::InfiniteFinite => write!(f, "M^inf_n (finite concurrency per run)"),
            ArrivalModel::InfiniteUnbounded => write!(f, "M^inf (unbounded concurrency)"),
        }
    }
}

/// Membership statistics summarizing one (finite prefix of a) run, used to
/// check model conformance with [`ArrivalModel::admits`].
///
/// Finite simulations can only witness finite prefixes, so the two
/// `*_finite` flags record the *intent* of the generating driver: a driver
/// for `M^∞` sets `total_arrivals_finite = false` even though any prefix is
/// finite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct RunArrivalStats {
    /// Processes that ever entered the system in the observed prefix.
    pub total_arrivals: usize,
    /// Joins occurring strictly after the initial configuration.
    pub joins_after_start: usize,
    /// Maximum number of simultaneously-up processes observed.
    pub max_concurrency: usize,
    /// Whether the generating process guarantees finitely many arrivals.
    pub total_arrivals_finite: bool,
    /// Whether the generating process guarantees finite concurrency.
    pub max_concurrency_finite: bool,
}

impl RunArrivalStats {
    /// Statistics of a static run of `n` processes.
    pub const fn static_run(n: usize) -> Self {
        RunArrivalStats {
            total_arrivals: n,
            joins_after_start: 0,
            max_concurrency: n,
            total_arrivals_finite: true,
            max_concurrency_finite: true,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_models() -> Vec<ArrivalModel> {
        vec![
            ArrivalModel::FiniteKnown { n: 8 },
            ArrivalModel::FiniteUnknown,
            ArrivalModel::InfiniteBounded { b: 8 },
            ArrivalModel::InfiniteFinite,
            ArrivalModel::InfiniteUnbounded,
        ]
    }

    #[test]
    fn ranks_form_a_chain() {
        let models = all_models();
        for w in models.windows(2) {
            assert!(w[0].rank() < w[1].rank());
            assert!(w[0].refines(&w[1]), "{} should refine {}", w[0], w[1]);
            assert!(!w[1].refines(&w[0]));
        }
    }

    #[test]
    fn refines_is_reflexive() {
        for m in all_models() {
            assert!(m.refines(&m), "{m} must refine itself");
        }
    }

    #[test]
    fn bounded_refinement_respects_bound() {
        let tight = ArrivalModel::InfiniteBounded { b: 4 };
        let loose = ArrivalModel::InfiniteBounded { b: 16 };
        assert!(tight.refines(&loose));
        assert!(!loose.refines(&tight));
    }

    #[test]
    fn static_models_with_different_sizes_are_incomparable() {
        let a = ArrivalModel::FiniteKnown { n: 4 };
        let b = ArrivalModel::FiniteKnown { n: 8 };
        assert!(!a.refines(&b));
        assert!(!b.refines(&a));
    }

    #[test]
    fn static_admits_only_join_free_runs() {
        let m = ArrivalModel::FiniteKnown { n: 3 };
        assert!(m.admits(&RunArrivalStats::static_run(3)));
        let mut churny = RunArrivalStats::static_run(3);
        churny.joins_after_start = 1;
        churny.total_arrivals = 4;
        assert!(!m.admits(&churny));
    }

    #[test]
    fn bounded_concurrency_enforced() {
        let m = ArrivalModel::InfiniteBounded { b: 10 };
        let ok = RunArrivalStats {
            total_arrivals: 1000,
            joins_after_start: 990,
            max_concurrency: 10,
            total_arrivals_finite: false,
            max_concurrency_finite: true,
        };
        let too_many = RunArrivalStats {
            max_concurrency: 11,
            ..ok
        };
        assert!(m.admits(&ok));
        assert!(!m.admits(&too_many));
        // The unbounded model admits everything.
        assert!(ArrivalModel::InfiniteUnbounded.admits(&too_many));
    }

    #[test]
    fn concurrency_bounds() {
        assert_eq!(
            ArrivalModel::FiniteKnown { n: 5 }.concurrency_bound(),
            Some(5)
        );
        assert_eq!(
            ArrivalModel::InfiniteBounded { b: 7 }.concurrency_bound(),
            Some(7)
        );
        assert_eq!(ArrivalModel::FiniteUnknown.concurrency_bound(), None);
        assert_eq!(ArrivalModel::InfiniteUnbounded.concurrency_bound(), None);
    }

    #[test]
    fn display_names_mention_taxonomy() {
        assert!(ArrivalModel::FiniteKnown { n: 2 }
            .to_string()
            .contains("M^n"));
        assert!(ArrivalModel::InfiniteBounded { b: 2 }
            .to_string()
            .contains("M^inf_b"));
    }
}
