//! Trace capture for experiment drivers.
//!
//! `run_experiments --trace-dir` needs the JSONL traces of the runs an
//! experiment performs, but experiments return only aggregated tables. This
//! module provides a thread-local capture scope: the driver calls
//! [`begin_capture`], runs the experiment, and collects the traces with
//! [`end_capture`]. [`crate::harness::run_sweep`] reads the flag on the
//! calling thread, threads it through each sweep cell, and deposits the
//! results here **in seed order** after the parallel map returns — so the
//! captured bytes are identical at any `DDS_THREADS` setting.

use std::cell::RefCell;

/// Everything a capture scope collected.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Captured {
    /// One JSONL trace per run, in sweep/seed order.
    pub traces: Vec<String>,
    /// One JSONL flight dump per spec-violating run, in
    /// sweep/seed order.
    pub flight_dumps: Vec<String>,
}

thread_local! {
    static CAPTURE: RefCell<Option<Captured>> = const { RefCell::new(None) };
}

/// Opens a capture scope on the current thread; subsequent sweeps record
/// their traces and flight dumps until [`end_capture`] is called. A second
/// call discards anything captured since the first.
pub fn begin_capture() {
    CAPTURE.with(|c| *c.borrow_mut() = Some(Captured::default()));
}

/// Closes the capture scope and returns everything collected since
/// [`begin_capture`]. Returns an empty [`Captured`] when no scope was open.
pub fn end_capture() -> Captured {
    CAPTURE.with(|c| c.borrow_mut().take()).unwrap_or_default()
}

/// `true` when a capture scope is open on the current thread.
pub fn is_capturing() -> bool {
    CAPTURE.with(|c| c.borrow().is_some())
}

pub(crate) fn deposit_traces(traces: impl IntoIterator<Item = String>) {
    CAPTURE.with(|c| {
        if let Some(cap) = c.borrow_mut().as_mut() {
            cap.traces.extend(traces);
        }
    });
}

pub(crate) fn deposit_flight_dumps(dumps: impl IntoIterator<Item = String>) {
    CAPTURE.with(|c| {
        if let Some(cap) = c.borrow_mut().as_mut() {
            cap.flight_dumps.extend(dumps);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_scope_drops_deposits() {
        assert!(!is_capturing());
        deposit_traces(["lost".to_string()]);
        assert_eq!(end_capture(), Captured::default());
    }

    #[test]
    fn scope_collects_deposits_in_order() {
        begin_capture();
        assert!(is_capturing());
        deposit_traces(["a".to_string()]);
        deposit_traces(["b".to_string()]);
        deposit_flight_dumps(["dump".to_string()]);
        let captured = end_capture();
        assert_eq!(captured.traces, vec!["a".to_string(), "b".to_string()]);
        assert_eq!(captured.flight_dumps, vec!["dump".to_string()]);
        assert!(!is_capturing());
    }
}
