//! Canonical probe names for the governor and degradation layer.
//!
//! Counters shared between crates live here so emitters and report
//! builders agree on spelling — a typo'd counter silently aggregates into
//! a separate row, which is exactly the failure mode a names module
//! prevents.

/// One loop resolved to `LoopOutcome::Summarized`.
pub const OUTCOME_SUMMARIZED: &str = "outcome.summarized";
/// One loop resolved to `LoopOutcome::CacheHit`.
pub const OUTCOME_CACHE_HIT: &str = "outcome.cache_hit";
/// One loop resolved to `LoopOutcome::NotMemoryless`.
pub const OUTCOME_NOT_MEMORYLESS: &str = "outcome.not_memoryless";
/// One loop resolved to `LoopOutcome::BudgetExhausted(_)`.
pub const OUTCOME_BUDGET_EXHAUSTED: &str = "outcome.budget_exhausted";
/// One loop resolved to `LoopOutcome::Crashed(_)`.
pub const OUTCOME_CRASHED: &str = "outcome.crashed";
/// One loop resolved to `LoopOutcome::Degraded`.
pub const OUTCOME_DEGRADED: &str = "outcome.degraded";

/// A planned fault was injected into a corpus worker.
pub const FAULT_INJECTED: &str = "fault.injected";
/// The retry lane re-ran one budget-exhausted loop.
pub const RETRY_ATTEMPT: &str = "retry.attempt";
/// A retry produced a summary where the first attempt exhausted its
/// budget.
pub const RETRY_RECOVERED: &str = "retry.recovered";

/// Malformed lines dropped by one `CostBook` load.
pub const COSTBOOK_DROPPED: &str = "costbook.dropped";

/// One loop of a batch run ran serial.
pub const PLAN_SERIAL: &str = "plan.serial";

/// Corrupt/truncated append-log lines dropped by one summary-store open.
pub const STORE_DROPPED: &str = "store.dropped";
/// One request was served a summary from the persistent store (after
/// mandatory re-verification).
pub const STORE_HIT: &str = "store.hit";
/// One request missed the persistent store and synthesised fresh.
pub const STORE_MISS: &str = "store.miss";
/// One store hit was re-verified by the bounded checker before serving.
pub const STORE_REVERIFIED: &str = "store.reverified";
/// One store hit failed re-verification and was tombstoned.
pub const STORE_REJECTED: &str = "store.rejected";
/// One request was answered from the verdict memo (a deterministic
/// negative recorded under its exact IR and config).
pub const STORE_VERDICT_HIT: &str = "store.verdict_hit";
/// One deterministic negative was recorded into the verdict memo.
pub const STORE_VERDICT_STORED: &str = "store.verdict_stored";

/// One request admitted to the daemon scheduler's run queue.
pub const SCHED_ADMITTED: &str = "sched.admitted";
/// One request dispatched through the scheduler's fast lane (store hit
/// or interactive priority).
pub const SCHED_FAST_LANE: &str = "sched.fast_lane";
/// One request dispatched from the scheduler's synthesis queue.
pub const SCHED_HEAP: &str = "sched.heap";
/// One idle connection was closed by the per-connection read timeout.
pub const SCHED_IDLE_CLOSED: &str = "sched.idle_closed";
/// One connection was closed for sending a frame over the daemon's
/// frame-size cap.
pub const SCHED_FRAME_OVERSIZED: &str = "sched.frame_oversized";
/// One connection was refused because the daemon was already serving
/// its connection cap.
pub const SCHED_CONN_REFUSED: &str = "sched.conn_refused";

/// Feasibility queries the constructive string theory answered Sat.
pub const SYMEX_THEORY_SAT: &str = "symex.feasible.theory_sat";
/// Feasibility queries the constructive string theory answered Unsat.
pub const SYMEX_THEORY_UNSAT: &str = "symex.feasible.theory_unsat";
/// Feasibility queries answered by the canonical-constraint-set cache.
pub const SYMEX_CACHE_HIT: &str = "symex.feasible.cache_hit";
/// Feasibility queries that fell through to the bit-blasting SAT layer.
pub const SYMEX_SAT_FALLBACK: &str = "symex.feasible.sat_fallback";
