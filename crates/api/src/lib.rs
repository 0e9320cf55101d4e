//! The strsum front door: versioned request/response vocabulary shared
//! by the batch runner and the summary daemon.
//!
//! Three layers, lowest first:
//!
//! - [`json`] — a minimal serde-free JSON parser (plus hex helpers)
//!   whose numbers keep their raw text, so `u64` counters cross the wire
//!   exactly.
//! - [`wire`] — the line-delimited protocol: [`SummaryRequest`] /
//!   [`SummaryResponse`] / [`BatchRequest`] framed as one `"v":1` JSON
//!   object per line, with [`encode_frame`] / [`decode_frame`].
//! - [`spec`] + [`plan`] — the in-process vocabulary: a [`RequestSpec`]
//!   is the single argument to `CorpusRunner::serve`, and a
//!   [`PlanSpec`] names the batch runner's dispatch order.
//!
//! The crate is pure vocabulary: no solver, no I/O beyond string
//! encode/decode. `strsum-bench` consumes [`spec`] and [`plan`];
//! `strsum-server` consumes [`wire`].

#![warn(missing_docs)]

pub mod json;
pub mod plan;
pub mod spec;
pub mod wire;

pub use json::{hex, unhex, Json, ParseError};
pub use plan::PlanSpec;
pub use spec::{LoopSpec, RequestSpec, Scope};
pub use wire::{
    decode_frame, encode_frame, parse_outcome, BatchRequest, BatchResponse, Cost, DecodeError,
    Frame, Origin, Priority, RequestFlags, SourceSpec, SummaryRequest, SummaryResponse, WireError,
    WIRE_VERSION,
};
