//! Cooperative cancellation and deterministic fault injection for the
//! solver layer.
//!
//! The resource governor (see `strsum_core::budget`) needs two things from
//! the SAT core: a way to stop a runaway solve *mid-query* (a wall-clock
//! deadline is useless if one query can overshoot it by minutes), and an
//! answer to *why* a query came back [`crate::CheckResult::Unknown`]. This
//! module provides both:
//!
//! * [`CancelToken`] — a cheap, clonable, thread-safe cancellation flag.
//!   Clones share one flag, so a token handed to a session is inherited by
//!   every fork: one `cancel()` stops them all. The solver polls it on a
//!   conflict-count stride, so the
//!   steady-state cost is one relaxed atomic load every few conflicts.
//! * [`Interrupt`] — the reason the last `solve` gave up, retained by the
//!   solver so budget-exhaustion sites can report which limit tripped
//!   instead of a bare `Unknown`.
//! * [`FaultInjector`] — a deterministic test harness hook: forces the
//!   `nth` SAT query observed by the sharing sessions to return `Unknown`.
//!   The counter is shared across clones, so a synthesis attempt whose
//!   search and verify sessions share one injector trips on the `nth`
//!   query of the whole attempt — and because query order is a pure
//!   function of the constraint sets (canonical models, serial search),
//!   the faulted query is the same one on every run.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// A shared cancellation flag; clones observe the same flag.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    cancelled: Arc<AtomicBool>,
}

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Raises the flag; every holder of a clone observes it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Relaxed);
    }

    /// Whether the flag has been raised.
    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Relaxed)
    }
}

/// Why the last [`crate::sat::Solver::solve`] returned
/// [`crate::SatResult::Unknown`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Interrupt {
    /// The per-query conflict budget ran out.
    ConflictLimit,
    /// The wall-clock deadline passed mid-solve.
    Deadline,
    /// A [`CancelToken`] was cancelled.
    Cancelled,
    /// A [`FaultInjector`] forced this query to give up.
    Injected,
}

impl std::fmt::Display for Interrupt {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            Interrupt::ConflictLimit => "conflict limit",
            Interrupt::Deadline => "deadline",
            Interrupt::Cancelled => "cancelled",
            Interrupt::Injected => "injected fault",
        })
    }
}

/// Forces the `nth` (1-based) SAT query counted across every sharing
/// solver to return `Unknown`. Clones share the counter.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    seen: Arc<AtomicU64>,
    nth: u64,
}

impl FaultInjector {
    /// An injector that trips on the `nth` query (1-based); `0` never
    /// trips.
    pub fn new(nth: u64) -> FaultInjector {
        FaultInjector {
            seen: Arc::new(AtomicU64::new(0)),
            nth,
        }
    }

    /// Counts one query; `true` exactly when it is the `nth`.
    pub fn fires(&self) -> bool {
        self.seen.fetch_add(1, Ordering::SeqCst) + 1 == self.nth
    }

    /// Queries observed so far across all sharing solvers.
    pub fn seen(&self) -> u64 {
        self.seen.load(Ordering::SeqCst)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_clones_share_the_flag() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn injector_fires_exactly_once_across_clones() {
        let a = FaultInjector::new(3);
        let b = a.clone();
        // Queries 1 and 2 pass, query 3 (counted across clones) trips,
        // later queries pass again.
        assert!(!a.fires());
        assert!(!b.fires());
        assert!(a.fires());
        assert!(!b.fires());
        assert_eq!(a.seen(), 4);
    }

    #[test]
    fn zero_never_fires() {
        let f = FaultInjector::new(0);
        for _ in 0..8 {
            assert!(!f.fires());
        }
    }
}
