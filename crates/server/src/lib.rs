#![warn(missing_docs)]
//! `strsum-server`: the sharded summary daemon.
//!
//! Four layers, composed bottom-up:
//!
//! - [`store`] — a fingerprint-sharded, crash-safe on-disk summary
//!   index (checksummed append logs, tombstones, compaction), plus the
//!   verdict records of the engine's memo.
//! - [`engine`] — the request lifecycle: parse → fingerprint → store
//!   lookup with **mandatory re-verification** of every hit → (on a
//!   miss) an exact-keyed verdict-memo answer for a loop that failed
//!   deterministically before, or fresh synthesis → classify exactly
//!   like the batch runner, so the daemon's answers are byte-identical
//!   to `CorpusRunner`'s. Split at
//!   the pipeline boundary into [`Engine::prepare`] / [`Engine::finish`]
//!   for the scheduler.
//! - [`sched`] — the cross-request scheduler: a fast lane for store
//!   hits and interactive requests, and a queue that runs syntheses
//!   normal priority before bulk, each in admission order.
//! - [`daemon`] — the service shell: line-framed stdin/stdout and
//!   Unix-socket front ends (with per-connection idle timeouts)
//!   speaking the `strsum-api` wire protocol, graceful drain on
//!   shutdown.

pub mod daemon;
pub mod engine;
pub mod sched;
pub mod store;

pub use daemon::{serve_unix_socket, Daemon, DEFAULT_IDLE_TIMEOUT};
pub use engine::{memoizable, Engine, EngineStats, Prepared, PreparedTask, Resolution};
pub use sched::{Policy, SchedOptions, SchedStats, Scheduler, DEFAULT_QUEUE_DEPTH};
pub use store::{ShardedStore, VerdictKey, DEFAULT_SHARDS};
