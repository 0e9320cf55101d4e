#![warn(missing_docs)]
//! `strsum-server`: the sharded summary daemon.
//!
//! Four layers, composed bottom-up:
//!
//! - [`store`] — a fingerprint-sharded, crash-safe on-disk summary
//!   index (checksummed append logs, tombstones, compaction, cold
//!   eviction informed by a `CostBook`).
//! - [`engine`] — the request lifecycle: parse → fingerprint → store
//!   lookup with **mandatory re-verification** of every hit → fresh
//!   synthesis on miss → classify exactly like the batch runner, so the
//!   daemon's answers are byte-identical to `CorpusRunner`'s. Split at
//!   the pipeline boundary into [`Engine::prepare`] / [`Engine::finish`]
//!   for the scheduler, with every fresh synthesis recorded into the
//!   store's `CostBook`.
//! - [`sched`] — the cross-request scheduler: a shared run queue
//!   ordering admitted work by its cost-book estimate (fast lane for
//!   cheap finishes, longest-job-first heap for syntheses).
//! - [`daemon`] — the service shell: line-framed stdin/stdout and
//!   Unix-socket front ends (with per-connection idle timeouts)
//!   speaking the `strsum-api` wire protocol, graceful drain on
//!   shutdown.

pub mod daemon;
pub mod engine;
pub mod sched;
pub mod store;

pub use daemon::{serve_unix_socket, Daemon, DEFAULT_IDLE_TIMEOUT};
pub use engine::{CostEstimate, Engine, EngineStats, Prepared, PreparedTask, Resolution};
pub use sched::{Policy, SchedOptions, SchedStats, Scheduler, DEFAULT_QUEUE_DEPTH};
pub use store::{ShardedStore, DEFAULT_SHARDS};
