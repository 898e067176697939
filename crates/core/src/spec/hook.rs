//! Thread-local spec-failure notification hook.
//!
//! Checkers ([`crate::spec::one_time_query::check_outcome`] and friends)
//! call [`notify_with`] when a run violates its specification. By default
//! nobody is listening and the call is a cheap thread-local probe; a
//! harness that wants to react — e.g. to trigger a flight dump of
//! the events leading up to the violation — wraps the run in
//! [`capture_failures`].
//!
//! The hook is thread-local on purpose: sweep cells run each on one worker
//! thread, so a scope opened around a cell sees exactly that cell's
//! failures with no cross-run interleaving and no locks on the hot path.

use std::cell::RefCell;

thread_local! {
    static FAILURES: RefCell<Option<Vec<String>>> = const { RefCell::new(None) };
}

/// Restores the previous capture state when a scope ends, even across an
/// unwind, so a panicking run cannot leave a stale collector behind on a
/// pooled worker thread.
struct ScopeGuard {
    prev: Option<Vec<String>>,
    disarmed: bool,
}

impl Drop for ScopeGuard {
    fn drop(&mut self) {
        if !self.disarmed {
            let prev = self.prev.take();
            FAILURES.with(|c| *c.borrow_mut() = prev);
        }
    }
}

/// Runs `f` with spec-failure capture enabled on the current thread and
/// returns its result together with every failure notified during the
/// call. Scopes nest: an inner capture shadows the outer one and the outer
/// scope resumes collecting when the inner one closes.
///
/// # Examples
///
/// ```
/// use dds_core::spec::hook;
///
/// let (value, failures) = hook::capture_failures(|| {
///     hook::notify_with(|| "agreement violated at t=3".to_string());
///     42
/// });
/// assert_eq!(value, 42);
/// assert_eq!(failures, vec!["agreement violated at t=3".to_string()]);
/// ```
pub fn capture_failures<R>(f: impl FnOnce() -> R) -> (R, Vec<String>) {
    let prev = FAILURES.with(|c| c.borrow_mut().replace(Vec::new()));
    let mut guard = ScopeGuard {
        prev,
        disarmed: false,
    };
    let result = f();
    let captured = FAILURES
        .with(|c| std::mem::replace(&mut *c.borrow_mut(), guard.prev.take()))
        .unwrap_or_default();
    guard.disarmed = true;
    (result, captured)
}

/// `true` when a [`capture_failures`] scope is active on this thread.
pub fn is_active() -> bool {
    FAILURES.with(|c| c.borrow().is_some())
}

/// Reports a spec failure to the active capture scope, if any. The message
/// is built lazily so checkers pay nothing when nobody is listening.
pub fn notify_with(make: impl FnOnce() -> String) {
    FAILURES.with(|c| {
        let mut slot = c.borrow_mut();
        if let Some(v) = slot.as_mut() {
            v.push(make());
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_scope_means_notify_is_dropped() {
        assert!(!is_active());
        notify_with(|| panic!("must not be built without a listener"));
    }

    #[test]
    fn scope_collects_in_order() {
        let ((), failures) = capture_failures(|| {
            notify_with(|| "first".to_string());
            notify_with(|| "second".to_string());
        });
        assert_eq!(failures, vec!["first".to_string(), "second".to_string()]);
        assert!(!is_active());
    }

    #[test]
    fn scopes_nest_and_restore() {
        let ((), outer) = capture_failures(|| {
            notify_with(|| "outer-before".to_string());
            let ((), inner) = capture_failures(|| {
                notify_with(|| "inner".to_string());
            });
            assert_eq!(inner, vec!["inner".to_string()]);
            notify_with(|| "outer-after".to_string());
        });
        assert_eq!(
            outer,
            vec!["outer-before".to_string(), "outer-after".to_string()]
        );
    }

    #[test]
    fn unwind_restores_previous_state() {
        let ((), outer) = capture_failures(|| {
            let unwound = std::panic::catch_unwind(|| {
                capture_failures(|| {
                    notify_with(|| "lost with the inner scope".to_string());
                    panic!("boom");
                })
            });
            assert!(unwound.is_err());
            assert!(is_active(), "outer scope survives the unwind");
            notify_with(|| "outer still listening".to_string());
        });
        assert_eq!(outer, vec!["outer still listening".to_string()]);
    }
}
