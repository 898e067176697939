//! Timed quorums: quorum views that expire under churn.
//!
//! In a static system a quorum, once probed, stays a quorum. Under churn
//! its members leak away: a view probed at time `t` with churn rate `c`
//! per window `w` loses on expectation `c·|view|·(Δ/w)` members over the
//! next Δ ticks. A *timed* quorum system therefore attaches a validity
//! window to every probed view and re-probes when it expires, and sizes
//! quorums so that two views probed within Δ of each other still
//! intersect despite the leak — which works out to `O(√(n·churn))` extra
//! members on top of the static intersection requirement.

use dds_core::churn::ChurnSpec;
use dds_core::process::ProcessId;
use dds_core::time::{Time, TimeDelta};

/// Majority threshold for a configuration of `n` replicas.
///
/// Any two majorities of the same configuration intersect; this is the
/// intersection floor every timed recommendation is clamped to.
pub fn majority(n: usize) -> usize {
    n / 2 + 1
}

/// Sizing and validity parameters of a timed quorum system.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TimedQuorumSpec {
    /// How long a probed view stays trustworthy.
    pub delta: TimeDelta,
    /// Quorum size (acknowledgements required per phase).
    pub size: usize,
}

impl TimedQuorumSpec {
    /// Recommends a quorum size for `n` replicas under `churn`, valid for
    /// `delta` ticks: the static majority plus a surcharge of
    /// `⌈√(n·c·(Δ/w))⌉` — the square root of the expected number of
    /// members churn replaces during one validity window, which is the
    /// `O(√(n·churn))` shape of the timed-quorum analysis. Clamped to
    /// `[majority(n), n]`.
    pub fn recommend(n: usize, churn: &ChurnSpec, delta: TimeDelta) -> Self {
        let extra = churn.expected_replacements_over(n, delta).sqrt().ceil() as usize;
        TimedQuorumSpec {
            delta,
            size: (majority(n) + extra).min(n.max(1)),
        }
    }
}

/// The liveness bound: can a configuration of `config_size` replicas keep
/// a majority reachable while the reconfiguration engine reacts?
///
/// `reaction` is the detection-plus-migration lag (probe interval plus
/// suspicion timeout plus a migration round-trip). The configuration
/// loses liveness when churn is expected to remove a whole minority
/// (`config_size - majority + 1` members) before a reconfiguration can
/// replace anyone — then quorums stop forming, operations time out and,
/// after bounded retries, abort. This is the frontier Spiegelman & Keidar
/// pin down: below it dynamic storage is live, above it no amount of
/// retrying helps.
pub fn sustainable(churn: &ChurnSpec, config_size: usize, reaction: TimeDelta) -> bool {
    let losable = config_size.saturating_sub(majority(config_size)) as f64 + 1.0;
    churn.expected_replacements_over(config_size, reaction) < losable
}

/// A probed quorum view: configuration epoch, member list, and when it
/// was last confirmed. Clients route both operation phases through their
/// current view and re-probe (`ViewReq`) once it expires.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumView {
    /// Configuration epoch the view belongs to.
    pub epoch: u64,
    /// The replica set, sorted by identity.
    pub members: Vec<ProcessId>,
    /// When the view was last probed or adopted.
    pub refreshed_at: Time,
}

impl QuorumView {
    /// Creates a view probed at `now`.
    pub fn new(epoch: u64, mut members: Vec<ProcessId>, now: Time) -> Self {
        members.sort_unstable();
        members.dedup();
        QuorumView {
            epoch,
            members,
            refreshed_at: now,
        }
    }

    /// Whether the view is still within its validity window.
    pub fn is_valid(&self, now: Time, delta: TimeDelta) -> bool {
        now <= self.refreshed_at + delta
    }

    /// Acknowledgements required for a phase against this view.
    pub fn quorum(&self) -> usize {
        majority(self.members.len())
    }

    /// Adopts a newer configuration (no-op when `epoch` is not newer).
    pub fn adopt(&mut self, epoch: u64, members: &[ProcessId], now: Time) {
        if epoch > self.epoch {
            self.epoch = epoch;
            self.members = members.to_vec();
            self.members.sort_unstable();
            self.members.dedup();
            self.refreshed_at = now;
        } else if epoch == self.epoch {
            self.refreshed_at = now;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    #[test]
    fn majority_thresholds() {
        assert_eq!(majority(1), 1);
        assert_eq!(majority(3), 2);
        assert_eq!(majority(4), 3);
        assert_eq!(majority(5), 3);
    }

    #[test]
    fn recommendation_is_majority_without_churn() {
        let spec = TimedQuorumSpec::recommend(9, &ChurnSpec::none(), TimeDelta::ticks(50));
        assert_eq!(spec.size, majority(9));
    }

    #[test]
    fn recommendation_grows_with_churn_but_caps_at_n() {
        let mild = ChurnSpec::rate(0.05, TimeDelta::ticks(10)).unwrap();
        let wild = ChurnSpec::rate(0.5, TimeDelta::ticks(10)).unwrap();
        let delta = TimeDelta::ticks(40);
        let q_mild = TimedQuorumSpec::recommend(9, &mild, delta).size;
        let q_wild = TimedQuorumSpec::recommend(9, &wild, delta).size;
        assert!(q_mild > majority(9), "churn must add members: {q_mild}");
        assert!(q_wild >= q_mild);
        assert!(q_wild <= 9);
    }

    #[test]
    fn recommendation_has_sqrt_shape() {
        // Quadrupling n (same per-member churn) should roughly double the
        // churn surcharge, not quadruple it.
        let churn = ChurnSpec::rate(0.1, TimeDelta::ticks(10)).unwrap();
        let delta = TimeDelta::ticks(10);
        let extra = |n: usize| TimedQuorumSpec::recommend(n, &churn, delta).size - majority(n);
        let (e16, e64) = (extra(16), extra(64));
        assert!(e64 <= 3 * e16, "surcharge grew too fast: {e16} -> {e64}");
        assert!(e64 > e16, "surcharge must grow with n: {e16} -> {e64}");
    }

    #[test]
    fn sustainability_frontier() {
        let reaction = TimeDelta::ticks(60);
        let slow = ChurnSpec::rate(0.01, TimeDelta::ticks(10)).unwrap();
        let fast = ChurnSpec::rate(0.5, TimeDelta::ticks(10)).unwrap();
        assert!(sustainable(&slow, 5, reaction));
        assert!(!sustainable(&fast, 5, reaction));
        assert!(sustainable(
            &ChurnSpec::none(),
            5,
            TimeDelta::ticks(1_000_000)
        ));
    }

    #[test]
    fn view_validity_and_adoption() {
        let mut v = QuorumView::new(
            1,
            vec![pid(2), pid(0), pid(1), pid(2)],
            Time::from_ticks(10),
        );
        assert_eq!(v.members, vec![pid(0), pid(1), pid(2)]);
        assert_eq!(v.quorum(), 2);
        let delta = TimeDelta::ticks(20);
        assert!(v.is_valid(Time::from_ticks(30), delta));
        assert!(!v.is_valid(Time::from_ticks(31), delta));

        // Older epochs are ignored; same epoch refreshes; newer replaces.
        v.adopt(0, &[pid(9)], Time::from_ticks(40));
        assert_eq!(v.epoch, 1);
        v.adopt(1, &[pid(9)], Time::from_ticks(40));
        assert_eq!(v.refreshed_at, Time::from_ticks(40));
        assert_eq!(v.members, vec![pid(0), pid(1), pid(2)]);
        v.adopt(2, &[pid(9), pid(3)], Time::from_ticks(41));
        assert_eq!(v.epoch, 2);
        assert_eq!(v.members, vec![pid(3), pid(9)]);
    }
}
