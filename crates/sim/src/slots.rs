//! Dense, identity-indexed kernel tables.
//!
//! [`ProcessId`]s are allocated by a monotone counter starting at the
//! initial membership, so within one run the raw identity space is dense:
//! a `Vec` indexed by `ProcessId::as_raw()` replaces the former
//! `BTreeMap<ProcessId, _>` tables, turning every dispatch lookup into one
//! bounds-checked index instead of a tree walk. Slots are never reused
//! (identities are never reused — the paper's infinite-arrival model), so
//! no generation counter is needed beyond the three-state lifecycle
//! `Vacant → Present → Departed` that [`SlotTable`] tracks for actors.
//!
//! Both tables keep their backing storage on [`SlotTable::clear`] /
//! [`DenseMap::clear`], which is what lets [`crate::world::World::reset`]
//! reuse one world's allocations across every seed of a sweep cell.

use dds_core::process::ProcessId;

/// Lifecycle state of one identity's slot.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
enum Slot<T> {
    /// Never joined (or mid-dispatch: the actor is temporarily checked
    /// out by the kernel).
    #[default]
    Vacant,
    /// In the system.
    Present(T),
    /// Left or crashed; the payload is retained for post-run inspection.
    Departed(T),
}

/// A dense `ProcessId → T` table with a present/departed lifecycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotTable<T> {
    slots: Vec<Slot<T>>,
    present: usize,
}

impl<T> Default for SlotTable<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T> SlotTable<T> {
    /// Creates an empty table.
    pub fn new() -> Self {
        SlotTable {
            slots: Vec::new(),
            present: 0,
        }
    }

    #[inline]
    fn idx(pid: ProcessId) -> usize {
        pid.as_raw() as usize
    }

    fn slot_mut(&mut self, pid: ProcessId) -> &mut Slot<T> {
        let i = Self::idx(pid);
        if i >= self.slots.len() {
            self.slots.resize_with(i + 1, Slot::default);
        }
        &mut self.slots[i]
    }

    /// Seats `value` as present under `pid` (replacing any prior state).
    pub fn insert(&mut self, pid: ProcessId, value: T) {
        let slot = self.slot_mut(pid);
        let was_present = matches!(slot, Slot::Present(_));
        *slot = Slot::Present(value);
        if !was_present {
            self.present += 1;
        }
    }

    /// `true` when `pid` is present (departed identities are not).
    #[inline]
    pub fn contains(&self, pid: ProcessId) -> bool {
        matches!(self.slots.get(Self::idx(pid)), Some(Slot::Present(_)))
    }

    /// The present value under `pid`.
    #[inline]
    pub fn get(&self, pid: ProcessId) -> Option<&T> {
        match self.slots.get(Self::idx(pid)) {
            Some(Slot::Present(v)) => Some(v),
            _ => None,
        }
    }

    /// The value under `pid`, present **or** departed.
    #[inline]
    pub fn get_any(&self, pid: ProcessId) -> Option<&T> {
        match self.slots.get(Self::idx(pid)) {
            Some(Slot::Present(v)) | Some(Slot::Departed(v)) => Some(v),
            _ => None,
        }
    }

    /// Checks out the present value, leaving the slot vacant — the kernel
    /// does this for the duration of an actor callback so the actor can be
    /// borrowed mutably while the world is too; pair with [`Self::insert`].
    pub fn take(&mut self, pid: ProcessId) -> Option<T> {
        match self.slots.get_mut(Self::idx(pid)) {
            Some(slot @ Slot::Present(_)) => {
                self.present -= 1;
                match std::mem::take(slot) {
                    Slot::Present(v) => Some(v),
                    _ => unreachable!("matched Present above"),
                }
            }
            _ => None,
        }
    }

    /// Moves `pid` from present to departed, retaining the value. Returns
    /// `true` when the identity was present.
    pub fn depart(&mut self, pid: ProcessId) -> bool {
        match self.slots.get_mut(Self::idx(pid)) {
            Some(slot @ Slot::Present(_)) => {
                self.present -= 1;
                let v = match std::mem::take(slot) {
                    Slot::Present(v) => v,
                    _ => unreachable!("matched Present above"),
                };
                *slot = Slot::Departed(v);
                true
            }
            _ => false,
        }
    }

    /// Number of present identities.
    pub fn len(&self) -> usize {
        self.present
    }

    /// `true` when no identity is present.
    pub fn is_empty(&self) -> bool {
        self.present == 0
    }

    /// Empties the table, keeping the slot storage for the next run.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.present = 0;
    }

    /// Iterates every occupied slot as `(pid, value, present)` in identity
    /// order — departed entries included (`present == false`), since their
    /// retained state is observable through [`Self::get_any`] and so
    /// belongs to a world's fingerprint.
    pub fn iter_entries(&self) -> impl Iterator<Item = (ProcessId, &T, bool)> + '_ {
        self.slots.iter().enumerate().filter_map(|(i, slot)| {
            let pid = ProcessId::from_raw(i as u64);
            match slot {
                Slot::Present(v) => Some((pid, v, true)),
                Slot::Departed(v) => Some((pid, v, false)),
                Slot::Vacant => None,
            }
        })
    }

    /// Capacity of the backing slot storage, in slots. Kept across
    /// [`Self::clear`] — the reuse that [`crate::world::World::reset`]
    /// relies on.
    pub fn capacity(&self) -> usize {
        self.slots.capacity()
    }
}

/// A dense `ProcessId → V` map for plain values (no lifecycle): entries
/// persist until [`DenseMap::clear`], mirroring the old "values of every
/// process that ever joined" table.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DenseMap<V> {
    vals: Vec<Option<V>>,
}

impl<V> DenseMap<V> {
    /// Creates an empty map.
    pub fn new() -> Self {
        DenseMap { vals: Vec::new() }
    }

    /// Inserts (or replaces) the value under `pid`.
    pub fn insert(&mut self, pid: ProcessId, value: V) {
        let i = pid.as_raw() as usize;
        if i >= self.vals.len() {
            self.vals.resize_with(i + 1, || None);
        }
        self.vals[i] = Some(value);
    }

    /// The value under `pid`, if ever inserted.
    #[inline]
    pub fn get(&self, pid: ProcessId) -> Option<&V> {
        self.vals.get(pid.as_raw() as usize)?.as_ref()
    }

    /// Iterates `(pid, value)` in identity order — a linear scan of the
    /// dense storage.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, &V)> + '_ {
        self.vals
            .iter()
            .enumerate()
            .filter_map(|(i, v)| v.as_ref().map(|v| (ProcessId::from_raw(i as u64), v)))
    }

    /// Empties the map, keeping the storage for the next run.
    pub fn clear(&mut self) {
        self.vals.clear();
    }

    /// Capacity of the backing storage, in entries. Kept across
    /// [`Self::clear`].
    pub fn capacity(&self) -> usize {
        self.vals.capacity()
    }
}

/// A dense set of [`ProcessId`]s backed by bit words.
///
/// Identity sets that protocols diffuse (gossip origins, wave
/// contributors) are subsets of the same dense identity space the tables
/// above index, so one bit per raw id replaces a `BTreeSet`: membership,
/// subset tests and unions become word-wide AND/OR instead of tree walks,
/// and a set of hundreds of processes fits in a few `u64`s.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct DenseSet {
    words: Vec<u64>,
}

impl DenseSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        DenseSet { words: Vec::new() }
    }

    #[inline]
    fn split(pid: ProcessId) -> (usize, u64) {
        let raw = pid.as_raw();
        ((raw / 64) as usize, 1u64 << (raw % 64))
    }

    /// Inserts `pid`; returns `true` when it was not yet a member.
    pub fn insert(&mut self, pid: ProcessId) -> bool {
        let (word, bit) = Self::split(pid);
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let fresh = self.words[word] & bit == 0;
        self.words[word] |= bit;
        fresh
    }

    /// `true` when `pid` is a member.
    #[inline]
    pub fn contains(&self, pid: ProcessId) -> bool {
        let (word, bit) = Self::split(pid);
        self.words.get(word).is_some_and(|w| w & bit != 0)
    }

    /// Number of members (a popcount over the words).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// `true` when no id is a member.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// `true` when every member of `self` is a member of `other`.
    pub fn is_subset(&self, other: &DenseSet) -> bool {
        self.words
            .iter()
            .enumerate()
            .all(|(i, &w)| w & !other.words.get(i).copied().unwrap_or(0) == 0)
    }

    /// Adds every member of `other` to `self`.
    pub fn union_with(&mut self, other: &DenseSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a |= b;
        }
    }

    /// Empties the set, keeping the word storage.
    pub fn clear(&mut self) {
        self.words.clear();
    }

    /// Capacity of the backing storage, in 64-bit words. Kept across
    /// [`Self::clear`].
    pub fn capacity(&self) -> usize {
        self.words.capacity()
    }

    /// Iterates the members in ascending id order.
    pub fn iter(&self) -> impl Iterator<Item = ProcessId> + '_ {
        self.words.iter().enumerate().flat_map(|(i, &w)| {
            let base = i as u64 * 64;
            (0..64u64)
                .filter(move |b| w & (1 << b) != 0)
                .map(move |b| ProcessId::from_raw(base + b))
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u64) -> ProcessId {
        ProcessId::from_raw(n)
    }

    #[test]
    fn slot_lifecycle_present_departed() {
        let mut t: SlotTable<&str> = SlotTable::new();
        assert!(t.is_empty());
        t.insert(pid(3), "a");
        assert!(t.contains(pid(3)));
        assert!(!t.contains(pid(0)));
        assert_eq!(t.get(pid(3)), Some(&"a"));
        assert_eq!(t.len(), 1);
        assert!(t.depart(pid(3)));
        assert!(!t.contains(pid(3)));
        assert_eq!(t.get(pid(3)), None);
        assert_eq!(t.get_any(pid(3)), Some(&"a"));
        assert_eq!(t.len(), 0);
        // Departing twice (or a never-seen id) is a no-op.
        assert!(!t.depart(pid(3)));
        assert!(!t.depart(pid(99)));
    }

    #[test]
    fn take_and_reinsert_round_trips() {
        let mut t: SlotTable<u32> = SlotTable::new();
        t.insert(pid(5), 7);
        let v = t.take(pid(5)).unwrap();
        assert_eq!(v, 7);
        assert!(!t.contains(pid(5)));
        assert_eq!(t.take(pid(5)), None);
        t.insert(pid(5), v + 1);
        assert_eq!(t.get(pid(5)), Some(&8));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn clear_empties_but_stays_usable() {
        let mut t: SlotTable<u32> = SlotTable::new();
        for i in 0..10 {
            t.insert(pid(i), i as u32);
        }
        t.depart(pid(2));
        t.clear();
        assert!(t.is_empty());
        assert_eq!(t.get_any(pid(2)), None);
        t.insert(pid(0), 1);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn iter_entries_spans_lifecycle_in_id_order() {
        let mut t: SlotTable<u32> = SlotTable::new();
        t.insert(pid(4), 40);
        t.insert(pid(1), 10);
        t.insert(pid(2), 20);
        t.depart(pid(2));
        let entries: Vec<(ProcessId, u32, bool)> = t
            .iter_entries()
            .map(|(p, &v, alive)| (p, v, alive))
            .collect();
        assert_eq!(
            entries,
            vec![(pid(1), 10, true), (pid(2), 20, false), (pid(4), 40, true)]
        );
    }

    #[test]
    fn dense_set_operations() {
        let mut a = DenseSet::new();
        assert!(a.is_empty());
        assert!(a.insert(pid(3)));
        assert!(!a.insert(pid(3)));
        assert!(a.insert(pid(130))); // crosses a word boundary
        assert!(a.contains(pid(3)));
        assert!(!a.contains(pid(4)));
        assert_eq!(a.len(), 2);
        assert_eq!(a.iter().collect::<Vec<_>>(), vec![pid(3), pid(130)]);

        let mut b = DenseSet::new();
        b.insert(pid(3));
        assert!(b.is_subset(&a), "shorter word vector vs longer");
        assert!(!a.is_subset(&b));
        b.union_with(&a);
        assert!(a.is_subset(&b) && b.is_subset(&a));
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn dense_map_basics() {
        let mut m: DenseMap<f64> = DenseMap::new();
        assert_eq!(m.get(pid(0)), None);
        m.insert(pid(4), 4.5);
        m.insert(pid(1), 1.5);
        assert_eq!(m.get(pid(4)), Some(&4.5));
        assert_eq!(m.get(pid(2)), None);
        let pairs: Vec<(ProcessId, f64)> = m.iter().map(|(p, &v)| (p, v)).collect();
        assert_eq!(pairs, vec![(pid(1), 1.5), (pid(4), 4.5)]);
        m.clear();
        assert_eq!(m.iter().count(), 0);
    }
}
