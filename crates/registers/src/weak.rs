//! Weak base cells: safe and regular registers with explicit write
//! intervals.
//!
//! The classic register ladder (Lamport) starts below atomicity:
//!
//! - a **safe** register guarantees only that a read *not* concurrent with
//!   any write returns the last written value; a read overlapping a write
//!   may return *anything* from the domain;
//! - a **regular** register strengthens the overlapping case: such a read
//!   returns the old or the new value, but never something else;
//! - an **atomic** register additionally forbids new/old inversions.
//!
//! To exercise the overlap semantics, a write here is a two-step operation
//! — [`WeakCell::begin_write`] … [`WeakCell::end_write`] — and reads that
//! land between the two steps see the weak behaviour, with the
//! nondeterminism resolved by the scheduler's seeded [`Rng`] (the
//! adversary). The transformations in [`crate::transformations`] climb the
//! ladder from these cells.

use dds_core::rng::Rng;

/// The consistency level of a weak cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CellKind {
    /// Reads overlapping a write return an arbitrary domain value.
    Safe,
    /// Reads overlapping a write return the old or the new value.
    Regular,
    /// Reads are instantaneous relative to writes (used as the base of the
    /// higher constructions; a single-step cell is trivially atomic).
    Atomic,
}

/// A single-writer weak register cell over `u64` values.
///
/// # Examples
///
/// ```
/// use dds_core::rng::Rng;
/// use dds_registers::weak::{CellKind, WeakCell};
///
/// let mut rng = Rng::seeded(1);
/// let mut cell = WeakCell::new(CellKind::Regular, 2, 0);
/// cell.begin_write(1);
/// let mid = cell.read(&mut rng); // overlapping read: old or new
/// assert!(mid == 0 || mid == 1);
/// cell.end_write();
/// assert_eq!(cell.read(&mut rng), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WeakCell {
    kind: CellKind,
    /// Domain size: values are `0..domain`.
    domain: u64,
    value: u64,
    in_flight: Option<u64>,
    reads: u64,
    writes: u64,
}

impl WeakCell {
    /// Creates a cell of the given kind over the domain `0..domain`,
    /// holding `initial`.
    ///
    /// # Panics
    ///
    /// Panics if `domain == 0` or `initial >= domain`.
    pub fn new(kind: CellKind, domain: u64, initial: u64) -> Self {
        assert!(domain > 0, "domain must be non-empty");
        assert!(initial < domain, "initial value outside domain");
        WeakCell {
            kind,
            domain,
            value: initial,
            in_flight: None,
            reads: 0,
            writes: 0,
        }
    }

    /// Opens a write of `v`. Reads until [`WeakCell::end_write`] overlap
    /// it.
    ///
    /// # Panics
    ///
    /// Panics if a write is already open (single writer) or `v` is outside
    /// the domain.
    pub fn begin_write(&mut self, v: u64) {
        assert!(
            self.in_flight.is_none(),
            "single-writer cell: write already open"
        );
        assert!(v < self.domain, "value outside domain");
        self.in_flight = Some(v);
    }

    /// Completes the open write.
    ///
    /// # Panics
    ///
    /// Panics if no write is open.
    pub fn end_write(&mut self) {
        let v = self.in_flight.take().expect("no write open");
        self.value = v;
        self.writes += 1;
    }

    /// `true` while a write is open.
    pub fn write_in_flight(&self) -> bool {
        self.in_flight.is_some()
    }

    /// Reads the cell; overlap behaviour per the cell kind, nondeterminism
    /// resolved by `rng` (the adversary).
    pub fn read(&mut self, rng: &mut Rng) -> u64 {
        self.reads += 1;
        match (self.in_flight, self.kind) {
            (None, _) => self.value,
            // An "atomic" weak cell linearizes the overlapping read before
            // the write completes.
            (Some(_), CellKind::Atomic) => self.value,
            (Some(new), CellKind::Regular) => {
                if rng.chance(0.5) {
                    self.value
                } else {
                    new
                }
            }
            (Some(_), CellKind::Safe) => rng.below(self.domain),
        }
    }

    /// Number of reads served.
    pub fn reads(&self) -> u64 {
        self.reads
    }

    /// Number of completed writes.
    pub fn writes(&self) -> u64 {
        self.writes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiescent_reads_return_last_write() {
        let mut rng = Rng::seeded(0);
        for kind in [CellKind::Safe, CellKind::Regular, CellKind::Atomic] {
            let mut cell = WeakCell::new(kind, 10, 3);
            assert_eq!(cell.read(&mut rng), 3);
            cell.begin_write(7);
            cell.end_write();
            assert_eq!(cell.read(&mut rng), 7);
        }
    }

    #[test]
    fn regular_overlap_returns_old_or_new_only() {
        let mut rng = Rng::seeded(1);
        let mut cell = WeakCell::new(CellKind::Regular, 100, 10);
        cell.begin_write(20);
        for _ in 0..200 {
            let v = cell.read(&mut rng);
            assert!(v == 10 || v == 20, "regular read returned {v}");
        }
    }

    #[test]
    fn safe_overlap_can_return_phantom_values() {
        let mut rng = Rng::seeded(2);
        let mut cell = WeakCell::new(CellKind::Safe, 100, 10);
        cell.begin_write(20);
        let mut phantom = false;
        for _ in 0..500 {
            let v = cell.read(&mut rng);
            assert!(v < 100);
            if v != 10 && v != 20 {
                phantom = true;
            }
        }
        assert!(
            phantom,
            "safe cell should eventually return a phantom value"
        );
    }

    #[test]
    fn atomic_overlap_reads_old_value() {
        let mut rng = Rng::seeded(3);
        let mut cell = WeakCell::new(CellKind::Atomic, 10, 1);
        cell.begin_write(2);
        assert_eq!(cell.read(&mut rng), 1);
        cell.end_write();
        assert_eq!(cell.read(&mut rng), 2);
    }

    #[test]
    fn counters_track_usage() {
        let mut rng = Rng::seeded(4);
        let mut cell = WeakCell::new(CellKind::Regular, 4, 0);
        cell.read(&mut rng);
        cell.begin_write(1);
        assert!(cell.write_in_flight());
        cell.end_write();
        assert!(!cell.write_in_flight());
        assert_eq!(cell.reads(), 1);
        assert_eq!(cell.writes(), 1);
    }

    #[test]
    #[should_panic(expected = "write already open")]
    fn double_begin_rejected() {
        let mut cell = WeakCell::new(CellKind::Safe, 4, 0);
        cell.begin_write(1);
        cell.begin_write(2);
    }

    #[test]
    #[should_panic(expected = "outside domain")]
    fn out_of_domain_write_rejected() {
        let mut cell = WeakCell::new(CellKind::Safe, 4, 0);
        cell.begin_write(4);
    }

    #[test]
    #[should_panic(expected = "no write open")]
    fn end_without_begin_rejected() {
        let mut cell = WeakCell::new(CellKind::Safe, 4, 0);
        cell.end_write();
    }
}
