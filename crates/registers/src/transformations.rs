//! The register ladder: classic transformations from weaker to stronger
//! registers.
//!
//! The reliable-object tutorial's second thread (after failure masking) is
//! *consistency* strengthening — Lamport's ladder from safe to atomic:
//!
//! 1. [`RegularFromSafeBinary`] — a **regular binary** register from a
//!    *safe* binary one: the writer simply skips writes that would not
//!    change the value, so every read either does not overlap a write or
//!    overlaps a genuine change, making the safe register's arbitrary
//!    answer coincide with "old or new". The `skip_redundant = false`
//!    ablation exhibits the violation the trick prevents.
//! 2. [`MultivaluedFromBinaryRegular`] — a **regular `b`-valued** register
//!    from `b` regular binary ones (unary encoding): the writer sets bit
//!    `v` and then clears the lower bits downward; the reader scans upward
//!    and returns the first set bit.
//! 3. [`AtomicFromRegular`] — an **atomic 1W1R** register from a regular
//!    one: the writer attaches a sequence number, the reader remembers the
//!    highest pair it has returned and never goes back. The
//!    `remember = false` ablation exhibits the new/old inversion.
//! 4. [`SwmrFromSw1r`] — an **atomic multi-reader** register from atomic
//!    single-reader cells: one `WRITE` cell per reader plus an n×n matrix
//!    of `REPORT` cells through which readers help readers. The
//!    `report = false` ablation exhibits the multi-reader inversion.
//! 5. [`MwmrFromAtomic`] — a **multi-writer** atomic register from one
//!    atomic 1WMR register per writer: a writer reads every cell, picks a
//!    timestamp above everything it saw (tie-broken by writer id), and
//!    writes its own cell; a reader returns the value of the largest
//!    `(timestamp, writer)` pair.
//!
//! Every construction is a [`SteppedRegister`], executed step-by-step by
//! the crate's one scheduler ([`crate::harness::run_scripts`]) and judged
//! by the history checkers of `dds-core`. Its operations never end
//! [`Poll::Stuck`].

use dds_core::rng::Rng;
use dds_core::spec::register::{RegOp, RegResp};

use crate::machine::{Poll, SteppedRegister};
use crate::weak::{CellKind, WeakCell};

// ---------------------------------------------------------------------------
// 1. Regular binary from safe binary.
// ---------------------------------------------------------------------------

/// A regular binary register built from one *safe* binary cell.
///
/// Discipline: client 0 is the writer, every other client reads.
#[derive(Debug)]
pub struct RegularFromSafeBinary {
    cell: WeakCell,
    last_written: u64,
    /// The transformation's whole trick; `false` reproduces the violation.
    skip_redundant: bool,
    writer_op: Option<WriterPhase>,
    reading: Vec<bool>,
}

#[derive(Debug, Clone, Copy)]
enum WriterPhase {
    Skip,
    Begin(u64),
    End,
}

impl RegularFromSafeBinary {
    /// Creates the construction (initial value 0) for `readers` reading
    /// clients.
    pub fn new(readers: usize, skip_redundant: bool) -> Self {
        RegularFromSafeBinary {
            cell: WeakCell::new(CellKind::Safe, 2, 0),
            last_written: 0,
            skip_redundant,
            writer_op: None,
            reading: vec![false; readers + 1],
        }
    }
}

impl SteppedRegister for RegularFromSafeBinary {
    fn begin_op(&mut self, client: usize, op: RegOp) {
        match op {
            RegOp::Write(v) => {
                assert_eq!(client, 0, "client 0 is the only writer");
                assert!(v < 2, "binary register");
                self.writer_op = Some(if self.skip_redundant && v == self.last_written {
                    WriterPhase::Skip
                } else {
                    WriterPhase::Begin(v)
                });
            }
            RegOp::Read => {
                assert_ne!(client, 0, "the writer does not read");
                self.reading[client] = true;
            }
        }
    }

    fn initial(&self) -> Option<u64> {
        Some(0)
    }

    fn step(&mut self, client: usize, rng: &mut Rng) -> Poll<RegResp> {
        if client == 0 {
            match self.writer_op.expect("no write open") {
                WriterPhase::Skip => {
                    self.writer_op = None;
                    Poll::Done(RegResp::Ack)
                }
                WriterPhase::Begin(v) => {
                    self.cell.begin_write(v);
                    self.last_written = v;
                    self.writer_op = Some(WriterPhase::End);
                    Poll::Pending
                }
                WriterPhase::End => {
                    self.cell.end_write();
                    self.writer_op = None;
                    Poll::Done(RegResp::Ack)
                }
            }
        } else {
            assert!(self.reading[client], "no read open");
            self.reading[client] = false;
            Poll::Done(RegResp::Value(Some(self.cell.read(rng))))
        }
    }
}

// ---------------------------------------------------------------------------
// 2. Multivalued regular from binary regular.
// ---------------------------------------------------------------------------

/// A regular `b`-valued register from `b` regular binary cells (unary
/// encoding; the writer sets bit `v` then clears downward, readers scan
/// upward).
///
/// Discipline: client 0 writes, everyone else reads.
#[derive(Debug)]
pub struct MultivaluedFromBinaryRegular {
    cells: Vec<WeakCell>,
    writer: Option<UnaryWrite>,
    readers: Vec<Option<usize>>, // scan position per client
}

#[derive(Debug, Clone, Copy)]
struct UnaryWrite {
    target: u64,
    phase: UnaryPhase,
}

#[derive(Debug, Clone, Copy)]
enum UnaryPhase {
    SetBegin,
    SetEnd,
    ClearBegin(usize),
    ClearEnd(usize),
}

impl MultivaluedFromBinaryRegular {
    /// Creates the construction over domain `0..b` (initial value 0) for
    /// `readers` reading clients.
    ///
    /// # Panics
    ///
    /// Panics when `b < 2`.
    pub fn new(b: u64, readers: usize) -> Self {
        assert!(b >= 2, "need at least two values");
        let mut cells: Vec<WeakCell> = (0..b)
            .map(|_| WeakCell::new(CellKind::Regular, 2, 0))
            .collect();
        // Initial value 0: bit zero set.
        cells[0].begin_write(1);
        cells[0].end_write();
        MultivaluedFromBinaryRegular {
            cells,
            writer: None,
            readers: vec![None; readers + 1],
        }
    }
}

impl SteppedRegister for MultivaluedFromBinaryRegular {
    fn begin_op(&mut self, client: usize, op: RegOp) {
        match op {
            RegOp::Write(v) => {
                assert_eq!(client, 0, "client 0 is the only writer");
                assert!((v as usize) < self.cells.len(), "value outside domain");
                self.writer = Some(UnaryWrite {
                    target: v,
                    phase: UnaryPhase::SetBegin,
                });
            }
            RegOp::Read => {
                assert_ne!(client, 0, "the writer does not read");
                self.readers[client] = Some(0);
            }
        }
    }

    fn initial(&self) -> Option<u64> {
        Some(0)
    }

    fn step(&mut self, client: usize, rng: &mut Rng) -> Poll<RegResp> {
        if client == 0 {
            let w = self.writer.expect("no write open");
            let t = w.target as usize;
            match w.phase {
                UnaryPhase::SetBegin => {
                    self.cells[t].begin_write(1);
                    self.writer = Some(UnaryWrite {
                        phase: UnaryPhase::SetEnd,
                        ..w
                    });
                    Poll::Pending
                }
                UnaryPhase::SetEnd => {
                    self.cells[t].end_write();
                    if t == 0 {
                        self.writer = None;
                        return Poll::Done(RegResp::Ack);
                    }
                    self.writer = Some(UnaryWrite {
                        phase: UnaryPhase::ClearBegin(t - 1),
                        ..w
                    });
                    Poll::Pending
                }
                UnaryPhase::ClearBegin(j) => {
                    self.cells[j].begin_write(0);
                    self.writer = Some(UnaryWrite {
                        phase: UnaryPhase::ClearEnd(j),
                        ..w
                    });
                    Poll::Pending
                }
                UnaryPhase::ClearEnd(j) => {
                    self.cells[j].end_write();
                    if j == 0 {
                        self.writer = None;
                        Poll::Done(RegResp::Ack)
                    } else {
                        self.writer = Some(UnaryWrite {
                            phase: UnaryPhase::ClearBegin(j - 1),
                            ..w
                        });
                        Poll::Pending
                    }
                }
            }
        } else {
            let pos = self.readers[client].expect("no read open");
            if pos >= self.cells.len() {
                // Exhausted without a set bit (only possible through
                // transient overlaps); restart the scan — the classic
                // argument bounds the retries.
                self.readers[client] = Some(0);
                return Poll::Pending;
            }
            let bit = self.cells[pos].read(rng);
            if bit == 1 {
                self.readers[client] = None;
                Poll::Done(RegResp::Value(Some(pos as u64)))
            } else {
                self.readers[client] = Some(pos + 1);
                Poll::Pending
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3. Atomic 1W1R from regular.
// ---------------------------------------------------------------------------

/// An atomic single-writer single-reader register from one regular cell:
/// the writer attaches a sequence number, the reader never returns a pair
/// older than one it already returned.
///
/// Discipline: client 0 writes, client 1 reads.
#[derive(Debug)]
pub struct AtomicFromRegular {
    cell: WeakCell,
    domain: u64,
    sn: u64,
    /// The transformation's trick; `false` reproduces the inversion.
    remember: bool,
    reader_best: Option<(u64, u64)>,
    writer: Option<(u64, bool)>, // (packed, begun)
    reading: bool,
}

impl AtomicFromRegular {
    /// Creates the construction over value domain `0..domain`.
    ///
    /// Sequence numbers are packed next to values, so `domain` must be
    /// small enough that `(writes + 1) * domain` fits in `u64` — ample for
    /// tests.
    pub fn new(domain: u64, remember: bool) -> Self {
        AtomicFromRegular {
            cell: WeakCell::new(CellKind::Regular, u64::MAX, 0),
            domain,
            sn: 0,
            remember,
            reader_best: None,
            writer: None,
            reading: false,
        }
    }

    fn unpack(&self, packed: u64) -> (u64, u64) {
        (packed / self.domain, packed % self.domain)
    }
}

impl SteppedRegister for AtomicFromRegular {
    fn begin_op(&mut self, client: usize, op: RegOp) {
        match op {
            RegOp::Write(v) => {
                assert_eq!(client, 0, "client 0 is the only writer");
                assert!(v < self.domain, "value outside domain");
                self.sn += 1;
                self.writer = Some((self.sn * self.domain + v, false));
            }
            RegOp::Read => {
                assert_eq!(client, 1, "client 1 is the only reader");
                self.reading = true;
            }
        }
    }

    fn step(&mut self, client: usize, rng: &mut Rng) -> Poll<RegResp> {
        if client == 0 {
            let (packed, begun) = self.writer.expect("no write open");
            if !begun {
                self.cell.begin_write(packed);
                self.writer = Some((packed, true));
                Poll::Pending
            } else {
                self.cell.end_write();
                self.writer = None;
                Poll::Done(RegResp::Ack)
            }
        } else {
            assert!(self.reading, "no read open");
            self.reading = false;
            let raw = self.cell.read(rng);
            let (sn, v) = self.unpack(raw);
            let current = if self.remember {
                match self.reader_best {
                    Some((best_sn, best_v)) if best_sn > sn => (best_sn, best_v),
                    _ => (sn, v),
                }
            } else {
                (sn, v)
            };
            self.reader_best = Some(current);
            let value = if current.0 == 0 {
                None
            } else {
                Some(current.1)
            };
            Poll::Done(RegResp::Value(value))
        }
    }
}

// ---------------------------------------------------------------------------
// 4. MWMR atomic from per-writer atomic 1WMR registers.
// ---------------------------------------------------------------------------

/// A multi-writer multi-reader atomic register from one atomic cell per
/// writer: writers timestamp their value above everything they have read
/// (ties broken by writer index), readers return the maximum pair.
///
/// Discipline: clients `0..writers` write (and may read); the rest only
/// read.
#[derive(Debug)]
pub struct MwmrFromAtomic {
    cells: Vec<WeakCell>,
    domain: u64,
    writers: usize,
    ops: Vec<Option<MwmrOp>>,
}

#[derive(Debug, Clone, Copy)]
enum MwmrOp {
    Write {
        value: u64,
        scan: usize,
        max_ts: u64,
        begun: bool,
    },
    Read {
        scan: usize,
        best: u64, // packed (ts, wid, v); 0 = initial
    },
}

impl MwmrFromAtomic {
    /// Creates the construction for `writers` writers, `clients` total
    /// clients, values in `0..domain`.
    ///
    /// # Panics
    ///
    /// Panics when `writers == 0` or `writers > clients`.
    pub fn new(writers: usize, clients: usize, domain: u64) -> Self {
        assert!(writers > 0 && writers <= clients);
        MwmrFromAtomic {
            cells: (0..writers)
                .map(|_| WeakCell::new(CellKind::Atomic, u64::MAX, 0))
                .collect(),
            domain,
            writers,
            ops: vec![None; clients],
        }
    }

    fn pack(&self, ts: u64, wid: usize, v: u64) -> u64 {
        (ts * self.writers as u64 + wid as u64) * self.domain + v
    }

    fn unpack(&self, packed: u64) -> (u64, usize, u64) {
        let v = packed % self.domain;
        let rest = packed / self.domain;
        let wid = (rest % self.writers as u64) as usize;
        (rest / self.writers as u64, wid, v)
    }
}

impl SteppedRegister for MwmrFromAtomic {
    fn begin_op(&mut self, client: usize, op: RegOp) {
        let op = match op {
            RegOp::Write(v) => {
                assert!(client < self.writers, "client {client} is not a writer");
                assert!(v < self.domain, "value outside domain");
                MwmrOp::Write {
                    value: v,
                    scan: 0,
                    max_ts: 0,
                    begun: false,
                }
            }
            RegOp::Read => MwmrOp::Read { scan: 0, best: 0 },
        };
        assert!(self.ops[client].is_none(), "operation already open");
        self.ops[client] = Some(op);
    }

    fn step(&mut self, client: usize, rng: &mut Rng) -> Poll<RegResp> {
        let op = self.ops[client].expect("no operation open");
        match op {
            MwmrOp::Write {
                value,
                scan,
                max_ts,
                begun,
            } => {
                if scan < self.cells.len() {
                    let raw = self.cells[scan].read(rng);
                    let (ts, _, _) = self.unpack(raw);
                    self.ops[client] = Some(MwmrOp::Write {
                        value,
                        scan: scan + 1,
                        max_ts: max_ts.max(ts),
                        begun,
                    });
                    Poll::Pending
                } else if !begun {
                    let packed = self.pack(max_ts + 1, client, value);
                    self.cells[client].begin_write(packed);
                    self.ops[client] = Some(MwmrOp::Write {
                        value,
                        scan,
                        max_ts,
                        begun: true,
                    });
                    Poll::Pending
                } else {
                    self.cells[client].end_write();
                    self.ops[client] = None;
                    Poll::Done(RegResp::Ack)
                }
            }
            MwmrOp::Read { scan, best } => {
                if scan < self.cells.len() {
                    let raw = self.cells[scan].read(rng);
                    self.ops[client] = Some(MwmrOp::Read {
                        scan: scan + 1,
                        best: best.max(raw),
                    });
                    Poll::Pending
                } else {
                    self.ops[client] = None;
                    let value = if best == 0 {
                        None
                    } else {
                        Some(self.unpack(best).2)
                    };
                    Poll::Done(RegResp::Value(value))
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// 3b. Atomic 1WMR from atomic 1W1R (readers help readers).
// ---------------------------------------------------------------------------

/// An atomic **multi-reader** register from atomic single-writer
/// single-reader cells: the writer keeps one `WRITE` cell per reader, and
/// every reader, before returning, *reports* its choice into one `REPORT`
/// cell per other reader. A read takes the freshest pair among its `WRITE`
/// cell and everything reported to it — so no reader can return older
/// information than what another reader already returned (the multi-reader
/// new/old inversion).
///
/// Discipline: client 0 writes, clients `1..=readers` read. The
/// `report = false` ablation skips the helping phase and exhibits the
/// inversion between two readers.
#[derive(Debug)]
pub struct SwmrFromSw1r {
    /// `write_cells[i]`: writer → reader `i+1`.
    write_cells: Vec<WeakCell>,
    /// `report_cells[i][j]`: reader `i+1` → reader `j+1`.
    report_cells: Vec<Vec<WeakCell>>,
    readers: usize,
    domain: u64,
    sn: u64,
    report: bool,
    writer_op: Option<Sw1rWrite>,
    reader_ops: Vec<Option<Sw1rRead>>,
}

#[derive(Debug, Clone, Copy)]
struct Sw1rWrite {
    packed: u64,
    index: usize,
    begun: bool,
}

#[derive(Debug, Clone, Copy)]
struct Sw1rRead {
    phase: Sw1rPhase,
    scan: usize,
    best: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sw1rPhase {
    Collect,
    ReportBegin,
    ReportEnd,
}

impl SwmrFromSw1r {
    /// Creates the construction for `readers` readers over values in
    /// `0..domain`.
    ///
    /// # Panics
    ///
    /// Panics when `readers == 0`.
    pub fn new(readers: usize, domain: u64, report: bool) -> Self {
        assert!(readers > 0, "need at least one reader");
        SwmrFromSw1r {
            write_cells: (0..readers)
                .map(|_| WeakCell::new(CellKind::Atomic, u64::MAX, 0))
                .collect(),
            report_cells: (0..readers)
                .map(|_| {
                    (0..readers)
                        .map(|_| WeakCell::new(CellKind::Atomic, u64::MAX, 0))
                        .collect()
                })
                .collect(),
            readers,
            domain,
            sn: 0,
            report,
            writer_op: None,
            reader_ops: vec![None; readers + 1],
        }
    }

    fn unpack(&self, packed: u64) -> (u64, u64) {
        (packed / self.domain, packed % self.domain)
    }
}

impl SteppedRegister for SwmrFromSw1r {
    fn begin_op(&mut self, client: usize, op: RegOp) {
        match op {
            RegOp::Write(v) => {
                assert_eq!(client, 0, "client 0 is the only writer");
                assert!(v < self.domain, "value outside domain");
                self.sn += 1;
                self.writer_op = Some(Sw1rWrite {
                    packed: self.sn * self.domain + v,
                    index: 0,
                    begun: false,
                });
            }
            RegOp::Read => {
                assert!(
                    (1..=self.readers).contains(&client),
                    "client {client} is not a reader"
                );
                self.reader_ops[client] = Some(Sw1rRead {
                    phase: Sw1rPhase::Collect,
                    scan: 0,
                    best: 0,
                });
            }
        }
    }

    fn step(&mut self, client: usize, rng: &mut Rng) -> Poll<RegResp> {
        if client == 0 {
            let mut w = self.writer_op.expect("no write open");
            if w.index >= self.write_cells.len() {
                self.writer_op = None;
                return Poll::Done(RegResp::Ack);
            }
            if !w.begun {
                self.write_cells[w.index].begin_write(w.packed);
                w.begun = true;
            } else {
                self.write_cells[w.index].end_write();
                w.index += 1;
                w.begun = false;
                if w.index >= self.write_cells.len() {
                    self.writer_op = None;
                    return Poll::Done(RegResp::Ack);
                }
            }
            self.writer_op = Some(w);
            Poll::Pending
        } else {
            let me = client - 1;
            let mut r = self.reader_ops[client].expect("no read open");
            match r.phase {
                Sw1rPhase::Collect => {
                    // Slot 0: my WRITE cell; slots 1..=readers: reports
                    // from every reader (including my own last report).
                    let raw = if r.scan == 0 {
                        self.write_cells[me].read(rng)
                    } else {
                        self.report_cells[r.scan - 1][me].read(rng)
                    };
                    r.best = r.best.max(raw);
                    r.scan += 1;
                    if r.scan > self.readers {
                        if self.report {
                            r.phase = Sw1rPhase::ReportBegin;
                            r.scan = 0;
                        } else {
                            self.reader_ops[client] = None;
                            let (sn, v) = self.unpack(r.best);
                            return Poll::Done(RegResp::Value(if sn == 0 {
                                None
                            } else {
                                Some(v)
                            }));
                        }
                    }
                    self.reader_ops[client] = Some(r);
                    Poll::Pending
                }
                Sw1rPhase::ReportBegin => {
                    self.report_cells[me][r.scan].begin_write(r.best);
                    r.phase = Sw1rPhase::ReportEnd;
                    self.reader_ops[client] = Some(r);
                    Poll::Pending
                }
                Sw1rPhase::ReportEnd => {
                    self.report_cells[me][r.scan].end_write();
                    r.scan += 1;
                    if r.scan >= self.readers {
                        self.reader_ops[client] = None;
                        let (sn, v) = self.unpack(r.best);
                        return Poll::Done(RegResp::Value(if sn == 0 { None } else { Some(v) }));
                    }
                    r.phase = Sw1rPhase::ReportBegin;
                    self.reader_ops[client] = Some(r);
                    Poll::Pending
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::run_scripts;
    use dds_core::spec::register::{check_atomic, check_regular_single_writer};

    fn writer_script() -> Vec<RegOp> {
        vec![RegOp::Write(1), RegOp::Write(0), RegOp::Write(1)]
    }

    #[test]
    fn regular_from_safe_is_regular_across_seeds() {
        for seed in 0..200 {
            let mut reg = RegularFromSafeBinary::new(1, true);
            let history = run_scripts(&mut reg, &[writer_script(), vec![RegOp::Read; 5]], seed);
            assert!(
                check_regular_single_writer(&history).unwrap(),
                "seed {seed}:\n{history}"
            );
        }
    }

    #[test]
    fn without_skip_the_safe_cell_leaks_phantoms() {
        // Writing the same value twice opens a window where a safe read
        // may return the flipped bit — a regularity violation.
        let mut violated = false;
        for seed in 0..300 {
            let mut reg = RegularFromSafeBinary::new(1, false);
            let history = run_scripts(
                &mut reg,
                &[
                    vec![RegOp::Write(1), RegOp::Write(1), RegOp::Write(1)],
                    vec![RegOp::Read; 6],
                ],
                seed,
            );
            if !check_regular_single_writer(&history).unwrap() {
                violated = true;
                break;
            }
        }
        assert!(violated, "the ablation lost its witness");
    }

    #[test]
    fn multivalued_from_binary_is_regular() {
        for seed in 0..200 {
            let mut reg = MultivaluedFromBinaryRegular::new(5, 1);
            let history = run_scripts(
                &mut reg,
                &[
                    vec![RegOp::Write(3), RegOp::Write(1), RegOp::Write(4)],
                    vec![RegOp::Read; 5],
                ],
                seed,
            );
            assert!(
                check_regular_single_writer(&history).unwrap(),
                "seed {seed}:\n{history}"
            );
        }
    }

    #[test]
    fn multivalued_reads_return_domain_values() {
        for seed in 0..50 {
            let mut reg = MultivaluedFromBinaryRegular::new(4, 2);
            let history = run_scripts(
                &mut reg,
                &[
                    vec![RegOp::Write(2), RegOp::Write(3)],
                    vec![RegOp::Read; 3],
                    vec![RegOp::Read; 3],
                ],
                seed,
            );
            for r in history.records() {
                if let Some(RegResp::Value(Some(v))) = r.response {
                    assert!(v < 4, "seed {seed}: out-of-domain read {v}");
                }
            }
        }
    }

    #[test]
    fn atomic_from_regular_is_linearizable() {
        for seed in 0..200 {
            let mut reg = AtomicFromRegular::new(8, true);
            let history = run_scripts(
                &mut reg,
                &[
                    vec![RegOp::Write(1), RegOp::Write(2), RegOp::Write(3)],
                    vec![RegOp::Read; 5],
                ],
                seed,
            );
            assert!(
                check_atomic(&history).unwrap().is_linearizable(),
                "seed {seed}:\n{history}"
            );
        }
    }

    #[test]
    fn forgetful_reader_shows_new_old_inversion() {
        let mut violated = false;
        for seed in 0..400 {
            let mut reg = AtomicFromRegular::new(8, false);
            let history = run_scripts(
                &mut reg,
                &[
                    vec![RegOp::Write(1), RegOp::Write(2), RegOp::Write(3)],
                    vec![RegOp::Read; 6],
                ],
                seed,
            );
            // The forgetful construction is still regular …
            assert!(check_regular_single_writer(&history).unwrap());
            // … but not always atomic.
            if !check_atomic(&history).unwrap().is_linearizable() {
                violated = true;
                break;
            }
        }
        assert!(violated, "the ablation lost its witness");
    }

    #[test]
    fn swmr_from_sw1r_is_linearizable() {
        for seed in 0..200 {
            let mut reg = SwmrFromSw1r::new(2, 8, true);
            let history = run_scripts(
                &mut reg,
                &[
                    vec![RegOp::Write(1), RegOp::Write(2), RegOp::Write(3)],
                    vec![RegOp::Read; 4],
                    vec![RegOp::Read; 4],
                ],
                seed,
            );
            assert!(
                check_atomic(&history).unwrap().is_linearizable(),
                "seed {seed}:\n{history}"
            );
        }
    }

    #[test]
    fn without_reports_two_readers_can_invert() {
        // The writer updates the readers' WRITE cells one at a time, so
        // without the helping phase reader 1 can see the new value while
        // reader 2, strictly later, still sees the old one.
        let mut violated = false;
        for seed in 0..400 {
            let mut reg = SwmrFromSw1r::new(2, 8, false);
            let history = run_scripts(
                &mut reg,
                &[
                    vec![RegOp::Write(1), RegOp::Write(2), RegOp::Write(3)],
                    vec![RegOp::Read; 4],
                    vec![RegOp::Read; 4],
                ],
                seed,
            );
            // Still regular …
            assert!(check_regular_single_writer(&history).unwrap());
            // … but not always atomic.
            if !check_atomic(&history).unwrap().is_linearizable() {
                violated = true;
                break;
            }
        }
        assert!(violated, "the ablation lost its witness");
    }

    #[test]
    #[should_panic(expected = "not a reader")]
    fn swmr_rejects_unknown_reader() {
        let mut reg = SwmrFromSw1r::new(2, 8, true);
        reg.begin_op(3, RegOp::Read);
    }

    #[test]
    fn mwmr_is_linearizable_across_seeds() {
        for seed in 0..200 {
            let mut reg = MwmrFromAtomic::new(2, 4, 8);
            let history = run_scripts(
                &mut reg,
                &[
                    vec![RegOp::Write(1), RegOp::Write(3)],
                    vec![RegOp::Write(2), RegOp::Read],
                    vec![RegOp::Read; 3],
                    vec![RegOp::Read; 3],
                ],
                seed,
            );
            assert!(
                check_atomic(&history).unwrap().is_linearizable(),
                "seed {seed}:\n{history}"
            );
        }
    }

    #[test]
    fn mwmr_read_of_fresh_register_is_bottom() {
        let mut reg = MwmrFromAtomic::new(2, 3, 8);
        let history = run_scripts(&mut reg, &[vec![], vec![], vec![RegOp::Read]], 0);
        assert_eq!(history.records()[0].response, Some(RegResp::Value(None)));
    }

    #[test]
    fn ladder_runner_is_deterministic() {
        let run = |seed| {
            let mut reg = MwmrFromAtomic::new(2, 3, 8);
            run_scripts(
                &mut reg,
                &[
                    vec![RegOp::Write(1)],
                    vec![RegOp::Write(2)],
                    vec![RegOp::Read; 2],
                ],
                seed,
            )
        };
        assert_eq!(run(5), run(5));
    }

    #[test]
    #[should_panic(expected = "only writer")]
    fn second_writer_rejected_on_1w_constructions() {
        let mut reg = AtomicFromRegular::new(8, true);
        reg.begin_op(1, RegOp::Write(1));
    }
}
