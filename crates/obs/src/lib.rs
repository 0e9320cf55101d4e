#![warn(missing_docs)]
//! Structured tracing and metrics for the synthesis stack.
//!
//! The paper's evaluation is about *where time goes* — solver queries vs.
//! verification vs. screening — so every hot-path crate (`smt`, `symex`,
//! `core`, `corpus`, `bench`) emits **span-scoped timers** and **counters**
//! through this crate. The design constraints, in order:
//!
//! 1. **Zero overhead when disabled.** No sink is installed by default;
//!    [`span`] and [`counter`] then cost one relaxed atomic load and touch
//!    no clock. Instrumentation can therefore live inside per-query solver
//!    code without distorting the benchmarks it exists to explain.
//! 2. **Thread-safe.** The sink is global (installed once per process) and
//!    [`Sink::record`] takes `&self`; the bench harness records from all
//!    `par_map` workers and the daemon's scheduler workers concurrently.
//!    Each thread gets a small stable `tid` (allocation order), so a
//!    multi-threaded run reconstructs into a per-worker timeline in
//!    `chrome://tracing`.
//! 3. **Deterministic aggregation.** Raw span timestamps necessarily vary
//!    between runs, but [`Aggregate`] merges events by *span key*
//!    (`(name, tag)`) into sorted rows whose counts and argument sums are
//!    independent of thread scheduling and arrival order — the
//!    incremental-vs-scratch determinism audit extends to metrics.
//!
//! The default collector is a bounded ring buffer ([`Collector`]) that
//! exports Chrome `trace_event`-format JSON ([`Collector::chrome_trace`],
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev>) plus the
//! aggregated per-phase metrics table ([`Aggregate::table`]).
//!
//! # Example
//!
//! ```
//! let collector = strsum_obs::Collector::new(1024);
//! strsum_obs::install(collector.clone());
//! {
//!     let mut span = strsum_obs::span("solve", "search");
//!     span.arg_u64("queries", 3);
//! } // span records on drop
//! strsum_obs::counter("cache.hit", "corpus", 1);
//! strsum_obs::uninstall();
//! let agg = collector.aggregate();
//! assert_eq!(agg.get("solve", "search").unwrap().count, 1);
//! assert_eq!(agg.get("cache.hit", "corpus").unwrap().arg("value"), 1);
//! ```

pub mod collect;
pub mod json;
pub mod names;
pub mod trace;

pub use collect::{Aggregate, Collector, PhaseRow};
pub use json::{escape, fmt_f64, ToJson};
pub use trace::{
    counter, enabled, install, span, uninstall, ArgValue, Event, EventKind, Sink, Span,
};
