//! The versioned line-delimited wire protocol the summary daemon speaks.
//!
//! One frame per line, each a single flat JSON object carrying
//! `"v":1` plus a `"type"` tag. Requests flow client → server
//! ([`Frame::Summary`], [`Frame::Batch`], [`Frame::Shutdown`]) and
//! results flow back ([`Frame::Response`], [`Frame::BatchResponse`],
//! [`Frame::Error`]). Encoding is hand-rolled (the workspace is
//! registry-free); decoding goes through [`crate::json`], whose numbers
//! keep their raw text so `u64` counters round-trip exactly.
//!
//! Binary payloads — summaries, and loop source that is not valid UTF-8
//! — travel as lowercase hex (`summary`, `source_hex`, `ir_hex`).
//! UTF-8 source travels as a plain JSON string (`source`), which keeps
//! frames human-readable for the common case.

use std::time::Duration;

use strsum_core::{Budget, BudgetKind, LoopOutcome, SolverTelemetry, SummaryKind};
use strsum_obs::escape;
use strsum_smt::SessionStats;

use crate::json::{self, hex, unhex, Json};
use crate::PlanSpec;

/// The protocol version every frame carries. Decoders reject frames
/// from a different major version rather than guessing.
pub const WIRE_VERSION: u64 = 1;

/// What a summary request carries as its program text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SourceSpec {
    /// Raw C loop source (the paper's front door). Bytes, not `String`:
    /// non-UTF8 source is legal on the wire and classified by the
    /// engine, not the codec.
    C(Vec<u8>),
    /// Pre-lowered IR, opaque bytes. Reserved: the engine currently
    /// answers `not_memoryless` with an `unsupported` failure, the same
    /// shape a compile error takes.
    Ir(Vec<u8>),
}

impl SourceSpec {
    /// The payload bytes, whichever variant.
    pub fn bytes(&self) -> &[u8] {
        match self {
            SourceSpec::C(b) | SourceSpec::Ir(b) => b,
        }
    }
}

/// Per-request engine toggles. All default to on; a flag exists on the
/// wire so a client can ablate one engine layer per request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestFlags {
    /// Consult and update the persistent summary store.
    pub store: bool,
    /// Concrete-first screening before solver work.
    pub screen: bool,
    /// Constructive string-theory fast path in symex feasibility.
    pub theory_fast_path: bool,
}

impl Default for RequestFlags {
    fn default() -> RequestFlags {
        RequestFlags {
            store: true,
            screen: true,
            theory_fast_path: true,
        }
    }
}

/// Scheduling priority of one request, consulted by the daemon's
/// cross-request scheduler. Priority changes *when* a request runs,
/// never *what* it answers — the determinism contract makes scheduling
/// byte-invisible.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Priority {
    /// Always dispatched through the scheduler's fast lane, ahead of
    /// queued synthesis — for latency-sensitive callers (an IDE
    /// keystroke) that would rather wait on their own synthesis than on
    /// someone else's.
    Interactive,
    /// Fast lane on a store hit, otherwise queued in admission order
    /// (the default).
    #[default]
    Normal,
    /// Never takes the fast lane, and queues behind every normal
    /// request — for best-effort backfill (a corpus pre-warmer) that
    /// must not push interactive traffic's p50 around.
    Bulk,
}

impl Priority {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            Priority::Interactive => "interactive",
            Priority::Normal => "normal",
            Priority::Bulk => "bulk",
        }
    }

    /// The [`Priority`] behind a wire label.
    pub fn parse(label: &str) -> Option<Priority> {
        Some(match label {
            "interactive" => Priority::Interactive,
            "normal" => Priority::Normal,
            "bulk" => Priority::Bulk,
            _ => return None,
        })
    }
}

/// One loop-summary request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SummaryRequest {
    /// Client-chosen identifier echoed on the response.
    pub id: String,
    /// The loop to summarise.
    pub source: SourceSpec,
    /// Resource budget; `None` means the server default.
    pub budget: Option<Budget>,
    /// Engine toggles.
    pub flags: RequestFlags,
    /// Scheduling priority. Omitted on the wire when `Normal`, so
    /// pre-priority frames decode (and re-encode) unchanged.
    pub priority: Priority,
}

impl SummaryRequest {
    /// A default-budget request for C source.
    pub fn c(id: impl Into<String>, source: impl Into<Vec<u8>>) -> SummaryRequest {
        SummaryRequest {
            id: id.into(),
            source: SourceSpec::C(source.into()),
            budget: None,
            flags: RequestFlags::default(),
            priority: Priority::Normal,
        }
    }

    /// Same request at a different scheduling priority.
    pub fn priority(mut self, priority: Priority) -> SummaryRequest {
        self.priority = priority;
        self
    }
}

/// Where a served summary came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// Synthesised in this request.
    Fresh,
    /// Served from the persistent store (and therefore re-verified —
    /// see [`SummaryResponse::reverified`]).
    Store,
    /// A deterministic negative (`not_memoryless`, or a conflict, path
    /// or step budget exhausted) served from the verdict memo: recorded
    /// by an earlier synthesis of the exact same IR under the exact same
    /// effective config. Carries no summary and is not re-verified.
    Memo,
}

impl Origin {
    /// Stable wire label.
    pub fn label(self) -> &'static str {
        match self {
            Origin::Fresh => "fresh",
            Origin::Store => "store",
            Origin::Memo => "memo",
        }
    }
}

/// What one request cost, in the two units the cost book tracks.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Cost {
    /// Wall-clock microseconds spent on this request.
    pub wall_micros: u64,
    /// SAT conflicts spent on this request.
    pub conflicts: u64,
}

/// One loop-summary response.
#[derive(Debug, Clone, PartialEq)]
pub struct SummaryResponse {
    /// The request's `id`, echoed.
    pub id: String,
    /// How the request resolved.
    pub outcome: LoopOutcome,
    /// The verified summary bytes, when one was produced — a gadget
    /// program or a tagged closed form, decodable by
    /// [`strsum_core::Summary::decode`] either way.
    pub summary: Option<Vec<u8>>,
    /// Which synthesis lane produced `summary`. `None` for gadget
    /// summaries and unsummarised responses, and omitted on the wire, so
    /// pre-recurrence-lane frames decode (and re-encode) unchanged —
    /// see [`SummaryResponse::summary_kind`] for the effective kind.
    pub kind: Option<SummaryKind>,
    /// The closed-form payload for accumulator/builder summaries, so
    /// kind-aware clients need not re-parse the tagged `summary` blob.
    /// Omitted for gadget summaries.
    pub closed_form: Option<Vec<u8>>,
    /// Human-readable failure detail, when synthesis concluded without
    /// a summary.
    pub failure: Option<String>,
    /// Whether the answer was synthesised now, served from the store,
    /// or served from the verdict memo.
    pub origin: Origin,
    /// True iff a store-served summary was re-verified by the bounded
    /// checker in this process lifetime. The soundness gate requires
    /// this on every `origin == Store` response.
    pub reverified: bool,
    /// What the request cost.
    pub cost: Cost,
    /// Solver-effort counters, when the engine ran the solver.
    pub telemetry: Option<SolverTelemetry>,
}

impl SummaryResponse {
    /// A minimal response shell for `outcome`; callers fill in payload
    /// fields.
    pub fn new(id: impl Into<String>, outcome: LoopOutcome) -> SummaryResponse {
        SummaryResponse {
            id: id.into(),
            outcome,
            summary: None,
            kind: None,
            closed_form: None,
            failure: None,
            origin: Origin::Fresh,
            reverified: false,
            cost: Cost::default(),
            telemetry: None,
        }
    }

    /// The effective kind of the attached summary: the explicit wire
    /// field when present, else [`SummaryKind::Gadget`] when a summary
    /// travelled without one (every pre-recurrence-lane frame), else
    /// `None`.
    pub fn summary_kind(&self) -> Option<SummaryKind> {
        self.kind
            .or_else(|| self.summary.as_ref().map(|_| SummaryKind::Gadget))
    }
}

/// Several requests submitted as one frame; the server answers with one
/// [`BatchResponse`] carrying responses in request order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// Client-chosen batch identifier echoed on the response.
    pub id: String,
    /// The member requests.
    pub requests: Vec<SummaryRequest>,
}

/// The answer to a [`BatchRequest`]: member responses in request order.
#[derive(Debug, Clone, PartialEq)]
pub struct BatchResponse {
    /// The batch's `id`, echoed.
    pub id: String,
    /// One response per member request, in order.
    pub responses: Vec<SummaryResponse>,
}

/// A server-side protocol error (malformed frame, unknown type, …).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WireError {
    /// The offending frame's `id`, when one could be read.
    pub id: Option<String>,
    /// What went wrong.
    pub message: String,
}

/// One protocol frame — exactly one JSON object, one line.
#[derive(Debug, Clone, PartialEq)]
pub enum Frame {
    /// Client → server: summarise one loop.
    Summary(SummaryRequest),
    /// Client → server: summarise a batch.
    Batch(BatchRequest),
    /// Client → server: drain and exit.
    Shutdown,
    /// Server → client: answer to [`Frame::Summary`].
    Response(SummaryResponse),
    /// Server → client: answer to [`Frame::Batch`].
    BatchResponse(BatchResponse),
    /// Server → client: the frame could not be served.
    Error(WireError),
}

/// A frame that failed to decode: what went wrong, as text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// Human-readable description.
    pub message: String,
}

impl DecodeError {
    fn new(message: impl Into<String>) -> DecodeError {
        DecodeError {
            message: message.into(),
        }
    }
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for DecodeError {}

impl From<json::ParseError> for DecodeError {
    fn from(e: json::ParseError) -> DecodeError {
        DecodeError::new(e.to_string())
    }
}

// ---------------------------------------------------------------------
// Encoding
// ---------------------------------------------------------------------

fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

fn budget_obj(b: &Budget) -> String {
    format!(
        "{{\"wall_micros\":{},\"solver_conflicts\":{},\"symex_paths\":{},\"symex_steps\":{},\"retries\":{},\"escalation\":{},\"governed\":{}}}",
        micros(b.wall),
        b.solver_conflicts,
        b.symex_paths,
        b.symex_steps,
        b.retries,
        b.escalation,
        b.governed
    )
}

fn flags_obj(f: &RequestFlags) -> String {
    format!(
        "{{\"store\":{},\"screen\":{},\"theory_fast_path\":{}}}",
        f.store, f.screen, f.theory_fast_path
    )
}

fn stats_obj(s: &SessionStats) -> String {
    format!(
        "{{\"queries\":{},\"conflicts\":{},\"propagations\":{},\"learnts\":{},\"clauses\":{},\"vars\":{},\"blast_hits\":{},\"blast_misses\":{}}}",
        s.queries, s.conflicts, s.propagations, s.learnts, s.clauses, s.vars, s.blast_hits, s.blast_misses
    )
}

fn telemetry_obj(t: &SolverTelemetry) -> String {
    // `total` is derived, so the wire carries only the two source
    // counters.
    format!(
        "{{\"search\":{},\"verify\":{}}}",
        stats_obj(&t.search),
        stats_obj(&t.verify)
    )
}

fn request_fields(r: &SummaryRequest, out: &mut String) {
    out.push_str(&format!("\"id\":\"{}\"", escape(&r.id)));
    match &r.source {
        SourceSpec::C(bytes) => match std::str::from_utf8(bytes) {
            Ok(text) => out.push_str(&format!(",\"source\":\"{}\"", escape(text))),
            Err(_) => out.push_str(&format!(",\"source_hex\":\"{}\"", hex(bytes))),
        },
        SourceSpec::Ir(bytes) => out.push_str(&format!(",\"ir_hex\":\"{}\"", hex(bytes))),
    }
    if let Some(b) = &r.budget {
        out.push_str(&format!(",\"budget\":{}", budget_obj(b)));
    }
    out.push_str(&format!(",\"flags\":{}", flags_obj(&r.flags)));
    if r.priority != Priority::Normal {
        out.push_str(&format!(",\"priority\":\"{}\"", r.priority.label()));
    }
}

fn response_fields(r: &SummaryResponse, out: &mut String) {
    out.push_str(&format!(
        "\"id\":\"{}\",\"outcome\":\"{}\"",
        escape(&r.id),
        r.outcome.label()
    ));
    if let LoopOutcome::Crashed(msg) = &r.outcome {
        out.push_str(&format!(",\"crash_msg\":\"{}\"", escape(msg)));
    }
    if let Some(summary) = &r.summary {
        out.push_str(&format!(",\"summary\":\"{}\"", hex(summary)));
    }
    if let Some(kind) = r.kind {
        out.push_str(&format!(",\"kind\":\"{}\"", kind.label()));
    }
    if let Some(cf) = &r.closed_form {
        out.push_str(&format!(",\"closed_form\":\"{}\"", hex(cf)));
    }
    if let Some(failure) = &r.failure {
        out.push_str(&format!(",\"failure\":\"{}\"", escape(failure)));
    }
    out.push_str(&format!(
        ",\"origin\":\"{}\",\"reverified\":{},\"cost\":{{\"wall_micros\":{},\"conflicts\":{}}}",
        r.origin.label(),
        r.reverified,
        r.cost.wall_micros,
        r.cost.conflicts
    ));
    if let Some(t) = &r.telemetry {
        out.push_str(&format!(",\"telemetry\":{}", telemetry_obj(t)));
    }
}

/// Encodes one frame as its wire line (no trailing newline).
pub fn encode_frame(frame: &Frame) -> String {
    let mut out = format!("{{\"v\":{WIRE_VERSION},\"type\":");
    match frame {
        Frame::Summary(r) => {
            out.push_str("\"summary\",");
            request_fields(r, &mut out);
        }
        Frame::Batch(b) => {
            out.push_str(&format!(
                "\"batch\",\"id\":\"{}\",\"requests\":[",
                escape(&b.id)
            ));
            for (i, r) in b.requests.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                request_fields(r, &mut out);
                out.push('}');
            }
            out.push(']');
        }
        Frame::Shutdown => out.push_str("\"shutdown\""),
        Frame::Response(r) => {
            out.push_str("\"response\",");
            response_fields(r, &mut out);
        }
        Frame::BatchResponse(b) => {
            out.push_str(&format!(
                "\"batch_response\",\"id\":\"{}\",\"responses\":[",
                escape(&b.id)
            ));
            for (i, r) in b.responses.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push('{');
                response_fields(r, &mut out);
                out.push('}');
            }
            out.push(']');
        }
        Frame::Error(e) => {
            out.push_str("\"error\",");
            match &e.id {
                Some(id) => out.push_str(&format!("\"id\":\"{}\",", escape(id))),
                None => out.push_str("\"id\":null,"),
            }
            out.push_str(&format!("\"message\":\"{}\"", escape(&e.message)));
        }
    }
    out.push('}');
    out
}

// ---------------------------------------------------------------------
// Decoding
// ---------------------------------------------------------------------

fn need<'a>(obj: &'a Json, key: &str) -> Result<&'a Json, DecodeError> {
    obj.get(key)
        .ok_or_else(|| DecodeError::new(format!("missing field {key:?}")))
}

fn need_str(obj: &Json, key: &str) -> Result<String, DecodeError> {
    need(obj, key)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| DecodeError::new(format!("field {key:?} is not a string")))
}

fn opt_u64(obj: &Json, key: &str, default: u64) -> Result<u64, DecodeError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_u64()
            .ok_or_else(|| DecodeError::new(format!("field {key:?} is not a u64"))),
    }
}

fn opt_bool(obj: &Json, key: &str, default: bool) -> Result<bool, DecodeError> {
    match obj.get(key) {
        None => Ok(default),
        Some(v) => v
            .as_bool()
            .ok_or_else(|| DecodeError::new(format!("field {key:?} is not a bool"))),
    }
}

fn opt_hex(obj: &Json, key: &str) -> Result<Option<Vec<u8>>, DecodeError> {
    match obj.get(key) {
        None => Ok(None),
        Some(v) => {
            let s = v
                .as_str()
                .ok_or_else(|| DecodeError::new(format!("field {key:?} is not a string")))?;
            unhex(s)
                .map(Some)
                .ok_or_else(|| DecodeError::new(format!("field {key:?} is not hex")))
        }
    }
}

fn decode_budget(obj: &Json) -> Result<Budget, DecodeError> {
    let d = Budget::default();
    Ok(Budget {
        wall: Duration::from_micros(opt_u64(obj, "wall_micros", micros(d.wall))?),
        solver_conflicts: opt_u64(obj, "solver_conflicts", d.solver_conflicts)?,
        symex_paths: opt_u64(obj, "symex_paths", d.symex_paths as u64)? as usize,
        symex_steps: opt_u64(obj, "symex_steps", d.symex_steps)?,
        retries: opt_u64(obj, "retries", u64::from(d.retries))? as u32,
        escalation: opt_u64(obj, "escalation", u64::from(d.escalation))? as u32,
        governed: opt_bool(obj, "governed", d.governed)?,
    })
}

/// Validates the `plan` object v1 clients may still send, then lets it
/// go: the daemon has never read a request's plan, and every synthesis
/// runs the one serial candidate search. A malformed plan is still a
/// decode error, as it always was.
fn check_plan(obj: &Json) -> Result<(), DecodeError> {
    let mode = need_str(obj, "mode")?;
    PlanSpec::parse(&mode)
        .ok_or_else(|| DecodeError::new(format!("unknown plan mode {mode:?}")))?;
    opt_u64(obj, "cubes", 0)?;
    opt_bool(obj, "cost_order", true)?;
    Ok(())
}

fn decode_flags(obj: &Json) -> Result<RequestFlags, DecodeError> {
    let d = RequestFlags::default();
    Ok(RequestFlags {
        store: opt_bool(obj, "store", d.store)?,
        screen: opt_bool(obj, "screen", d.screen)?,
        theory_fast_path: opt_bool(obj, "theory_fast_path", d.theory_fast_path)?,
    })
}

fn decode_stats(obj: &Json) -> Result<SessionStats, DecodeError> {
    Ok(SessionStats {
        queries: opt_u64(obj, "queries", 0)?,
        conflicts: opt_u64(obj, "conflicts", 0)?,
        propagations: opt_u64(obj, "propagations", 0)?,
        learnts: opt_u64(obj, "learnts", 0)?,
        clauses: opt_u64(obj, "clauses", 0)? as usize,
        vars: opt_u64(obj, "vars", 0)? as usize,
        blast_hits: opt_u64(obj, "blast_hits", 0)?,
        blast_misses: opt_u64(obj, "blast_misses", 0)?,
    })
}

fn decode_request(obj: &Json) -> Result<SummaryRequest, DecodeError> {
    let id = need_str(obj, "id")?;
    let source = if let Some(text) = obj.get("source") {
        let text = text
            .as_str()
            .ok_or_else(|| DecodeError::new("field \"source\" is not a string"))?;
        SourceSpec::C(text.as_bytes().to_vec())
    } else if let Some(bytes) = opt_hex(obj, "source_hex")? {
        SourceSpec::C(bytes)
    } else if let Some(bytes) = opt_hex(obj, "ir_hex")? {
        SourceSpec::Ir(bytes)
    } else {
        return Err(DecodeError::new(
            "request has none of source/source_hex/ir_hex",
        ));
    };
    let budget = match obj.get("budget") {
        None | Some(Json::Null) => None,
        Some(b) => Some(decode_budget(b)?),
    };
    match obj.get("plan") {
        None | Some(Json::Null) => {}
        Some(p) => check_plan(p)?,
    }
    let flags = match obj.get("flags") {
        None => RequestFlags::default(),
        Some(f) => decode_flags(f)?,
    };
    let priority = match obj.get("priority") {
        None | Some(Json::Null) => Priority::Normal,
        Some(v) => {
            let label = v
                .as_str()
                .ok_or_else(|| DecodeError::new("field \"priority\" is not a string"))?;
            Priority::parse(label)
                .ok_or_else(|| DecodeError::new(format!("unknown priority {label:?}")))?
        }
    };
    Ok(SummaryRequest {
        id,
        source,
        budget,
        flags,
        priority,
    })
}

/// The [`LoopOutcome`] behind a stable wire label; `crash_msg` supplies
/// the `Crashed` payload.
pub fn parse_outcome(label: &str, crash_msg: Option<&str>) -> Option<LoopOutcome> {
    Some(match label {
        "summarized" => LoopOutcome::Summarized,
        "cache_hit" => LoopOutcome::CacheHit,
        "not_memoryless" => LoopOutcome::NotMemoryless,
        "budget_exhausted.wall" => LoopOutcome::BudgetExhausted(BudgetKind::Wall),
        "budget_exhausted.solver_conflicts" => {
            LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts)
        }
        "budget_exhausted.symex_paths" => LoopOutcome::BudgetExhausted(BudgetKind::SymexPaths),
        "budget_exhausted.symex_steps" => LoopOutcome::BudgetExhausted(BudgetKind::SymexSteps),
        "crashed" => LoopOutcome::Crashed(crash_msg.unwrap_or("").to_string()),
        "degraded" => LoopOutcome::Degraded,
        _ => return None,
    })
}

fn decode_response(obj: &Json) -> Result<SummaryResponse, DecodeError> {
    let id = need_str(obj, "id")?;
    let label = need_str(obj, "outcome")?;
    let crash_msg = match obj.get("crash_msg") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| DecodeError::new("field \"crash_msg\" is not a string"))?,
        ),
    };
    let outcome = parse_outcome(&label, crash_msg)
        .ok_or_else(|| DecodeError::new(format!("unknown outcome {label:?}")))?;
    let origin = match obj.get("origin").and_then(Json::as_str) {
        None | Some("fresh") => Origin::Fresh,
        Some("store") => Origin::Store,
        Some("memo") => Origin::Memo,
        Some(other) => return Err(DecodeError::new(format!("unknown origin {other:?}"))),
    };
    let cost = match obj.get("cost") {
        None => Cost::default(),
        Some(c) => Cost {
            wall_micros: opt_u64(c, "wall_micros", 0)?,
            conflicts: opt_u64(c, "conflicts", 0)?,
        },
    };
    let telemetry = match obj.get("telemetry") {
        None | Some(Json::Null) => None,
        Some(t) => Some(SolverTelemetry {
            search: decode_stats(need(t, "search")?)?,
            verify: decode_stats(need(t, "verify")?)?,
        }),
    };
    let failure = match obj.get("failure") {
        None => None,
        Some(v) => Some(
            v.as_str()
                .ok_or_else(|| DecodeError::new("field \"failure\" is not a string"))?
                .to_string(),
        ),
    };
    let kind = match obj.get("kind") {
        None | Some(Json::Null) => None,
        Some(v) => {
            let label = v
                .as_str()
                .ok_or_else(|| DecodeError::new("field \"kind\" is not a string"))?;
            Some(
                SummaryKind::parse(label)
                    .ok_or_else(|| DecodeError::new(format!("unknown summary kind {label:?}")))?,
            )
        }
    };
    Ok(SummaryResponse {
        id,
        outcome,
        summary: opt_hex(obj, "summary")?,
        kind,
        closed_form: opt_hex(obj, "closed_form")?,
        failure,
        origin,
        reverified: opt_bool(obj, "reverified", false)?,
        cost,
        telemetry,
    })
}

/// Decodes one wire line back into a [`Frame`].
pub fn decode_frame(line: &str) -> Result<Frame, DecodeError> {
    let obj = json::parse(line)?;
    let v = need(&obj, "v")?
        .as_u64()
        .ok_or_else(|| DecodeError::new("field \"v\" is not a u64"))?;
    if v != WIRE_VERSION {
        return Err(DecodeError::new(format!(
            "unsupported wire version {v} (this build speaks {WIRE_VERSION})"
        )));
    }
    let kind = need_str(&obj, "type")?;
    match kind.as_str() {
        "summary" => Ok(Frame::Summary(decode_request(&obj)?)),
        "batch" => {
            let id = need_str(&obj, "id")?;
            let items = need(&obj, "requests")?
                .as_arr()
                .ok_or_else(|| DecodeError::new("field \"requests\" is not an array"))?;
            let requests = items
                .iter()
                .map(decode_request)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Frame::Batch(BatchRequest { id, requests }))
        }
        "shutdown" => Ok(Frame::Shutdown),
        "response" => Ok(Frame::Response(decode_response(&obj)?)),
        "batch_response" => {
            let id = need_str(&obj, "id")?;
            let items = need(&obj, "responses")?
                .as_arr()
                .ok_or_else(|| DecodeError::new("field \"responses\" is not an array"))?;
            let responses = items
                .iter()
                .map(decode_response)
                .collect::<Result<Vec<_>, _>>()?;
            Ok(Frame::BatchResponse(BatchResponse { id, responses }))
        }
        "error" => {
            let id = match obj.get("id") {
                None | Some(Json::Null) => None,
                Some(v) => Some(
                    v.as_str()
                        .ok_or_else(|| DecodeError::new("field \"id\" is not a string"))?
                        .to_string(),
                ),
            };
            Ok(Frame::Error(WireError {
                id,
                message: need_str(&obj, "message")?,
            }))
        }
        other => Err(DecodeError::new(format!("unknown frame type {other:?}"))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_request_round_trips() {
        let mut req = SummaryRequest::c("bash_01", "while (*s) s++;");
        req.budget = Some(Budget::default().with_retries(2, 3));
        req.flags.screen = false;
        let frame = Frame::Summary(req);
        let line = encode_frame(&frame);
        assert!(!line.contains('\n'), "one frame per line: {line}");
        assert_eq!(decode_frame(&line).unwrap(), frame);
    }

    #[test]
    fn priority_round_trips_and_defaults_off_the_wire() {
        for p in [Priority::Interactive, Priority::Bulk] {
            let frame = Frame::Summary(SummaryRequest::c("p", "while (*s) s++;").priority(p));
            let line = encode_frame(&frame);
            assert!(line.contains("priority"), "{line}");
            assert_eq!(decode_frame(&line).unwrap(), frame);
        }
        // Normal is the wire default and stays off the frame, so
        // pre-priority clients and servers interoperate unchanged.
        let frame = Frame::Summary(SummaryRequest::c("n", "while (*s) s++;"));
        let line = encode_frame(&frame);
        assert!(!line.contains("priority"), "{line}");
        match decode_frame(&line).unwrap() {
            Frame::Summary(r) => assert_eq!(r.priority, Priority::Normal),
            other => panic!("wrong frame: {other:?}"),
        }
        assert!(decode_frame(
            "{\"v\":1,\"type\":\"summary\",\"id\":\"x\",\"source\":\"\",\"priority\":\"urgent\"}"
        )
        .is_err());
    }

    /// `portfolio` left the plan vocabulary: a frame naming it gets the
    /// typed unknown-mode decode error, like any other unknown mode.
    #[test]
    fn portfolio_plan_mode_is_an_unknown_mode() {
        let err = decode_frame(
            "{\"v\":1,\"type\":\"summary\",\"id\":\"x\",\"source\":\"\",\
             \"plan\":{\"mode\":\"portfolio\",\"cubes\":4}}",
        )
        .unwrap_err();
        assert!(
            err.to_string().contains("unknown plan mode \"portfolio\""),
            "{err}"
        );
    }

    /// The frame of `id` "x" with an empty source and `plan` spliced in.
    fn with_plan(plan: &str) -> String {
        format!("{{\"v\":1,\"type\":\"summary\",\"id\":\"x\",\"source\":\"\",\"plan\":{plan}}}")
    }

    /// `adaptive` left the plan vocabulary as a spelling of serial: a v1
    /// frame naming it still decodes, its plan checked and dropped.
    #[test]
    fn adaptive_plan_mode_decodes_as_serial() {
        let line = with_plan("{\"mode\":\"adaptive\",\"cubes\":0,\"cost_order\":true}");
        assert_eq!(
            decode_frame(&line).unwrap(),
            Frame::Summary(SummaryRequest::c("x", ""))
        );
    }

    /// `cubed` left the plan vocabulary as a spelling of serial: a v1
    /// frame naming it still decodes, its cube count ignored but still
    /// type-checked.
    #[test]
    fn cubed_plan_mode_decodes_as_serial() {
        let line = with_plan("{\"mode\":\"cubed\",\"cubes\":4,\"cost_order\":false}");
        assert_eq!(
            decode_frame(&line).unwrap(),
            Frame::Summary(SummaryRequest::c("x", ""))
        );
        assert!(decode_frame(&with_plan("{\"mode\":\"cubed\",\"cubes\":\"x\"}")).is_err());
    }

    /// The dropped plan is still outside input: a plan without a mode or
    /// with a mistyped `cost_order` is a decode error, as it always was.
    #[test]
    fn malformed_plans_are_still_rejected() {
        for plan in ["{\"cubes\":0}", "{\"mode\":\"serial\",\"cost_order\":1}"] {
            assert!(decode_frame(&with_plan(plan)).is_err(), "{plan}");
        }
    }

    /// A plan-less request encodes to the exact bytes it always has, and
    /// a request decoded with a serial plan re-encodes to those bytes.
    #[test]
    fn plan_bytes_are_pinned() {
        let plain = "{\"v\":1,\"type\":\"summary\",\"id\":\"s\",\"source\":\"while (*s) s++;\",\
                     \"flags\":{\"store\":true,\"screen\":true,\"theory_fast_path\":true}}";
        let req = SummaryRequest::c("s", "while (*s) s++;");
        assert_eq!(encode_frame(&Frame::Summary(req)), plain);
        let planned = plain.replace(
            ",\"flags\"",
            ",\"plan\":{\"mode\":\"serial\",\"cubes\":0,\"cost_order\":true},\"flags\"",
        );
        assert_eq!(encode_frame(&decode_frame(&planned).unwrap()), plain);
    }

    #[test]
    fn non_utf8_source_goes_hex() {
        let frame = Frame::Summary(SummaryRequest::c("bin", vec![0xff, 0x00, b'x']));
        let line = encode_frame(&frame);
        assert!(line.contains("source_hex"), "{line}");
        assert_eq!(decode_frame(&line).unwrap(), frame);
    }

    #[test]
    fn response_round_trips_every_outcome() {
        let outcomes = [
            LoopOutcome::Summarized,
            LoopOutcome::CacheHit,
            LoopOutcome::NotMemoryless,
            LoopOutcome::BudgetExhausted(BudgetKind::Wall),
            LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts),
            LoopOutcome::BudgetExhausted(BudgetKind::SymexPaths),
            LoopOutcome::BudgetExhausted(BudgetKind::SymexSteps),
            LoopOutcome::Crashed("worker panicked: \"boom\"\n".into()),
            LoopOutcome::Degraded,
        ];
        for outcome in outcomes {
            let mut resp = SummaryResponse::new("loop_7", outcome);
            resp.summary = Some(vec![0, 1, 2, 0xfe]);
            resp.origin = Origin::Store;
            resp.reverified = true;
            resp.cost = Cost {
                wall_micros: u64::MAX,
                conflicts: 1 << 60,
            };
            let frame = Frame::Response(resp);
            let line = encode_frame(&frame);
            assert_eq!(decode_frame(&line).unwrap(), frame, "{line}");
        }
    }

    #[test]
    fn memo_origin_round_trips_and_unknown_origins_are_rejected() {
        let mut resp = SummaryResponse::new(
            "git_05",
            LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts),
        );
        resp.failure = Some("solver gave up on candidate search".into());
        resp.origin = Origin::Memo;
        let frame = Frame::Response(resp);
        let line = encode_frame(&frame);
        assert!(line.contains("\"origin\":\"memo\""), "{line}");
        assert!(line.contains("\"reverified\":false"), "{line}");
        assert_eq!(decode_frame(&line).unwrap(), frame);
        let bogus = line.replace("\"memo\"", "\"cache\"");
        let err = decode_frame(&bogus).unwrap_err();
        assert!(err.message.contains("unknown origin"), "{}", err.message);
    }

    #[test]
    fn kind_and_closed_form_round_trip_and_default_off_the_wire() {
        // A closed-form response carries both new fields explicitly.
        let mut resp = SummaryResponse::new("acc_01", LoopOutcome::Summarized);
        resp.summary = Some(vec![b'#', b's', 1, 0, b' ']);
        resp.kind = Some(SummaryKind::Accumulator);
        resp.closed_form = resp.summary.clone();
        let frame = Frame::Response(resp);
        let line = encode_frame(&frame);
        assert!(line.contains("\"kind\":\"accumulator\""), "{line}");
        assert!(line.contains("closed_form"), "{line}");
        assert_eq!(decode_frame(&line).unwrap(), frame);
        match decode_frame(&line).unwrap() {
            Frame::Response(r) => {
                assert_eq!(r.summary_kind(), Some(SummaryKind::Accumulator))
            }
            other => panic!("wrong frame: {other:?}"),
        }

        // Gadget responses stay byte-identical to pre-kind frames: both
        // fields absent, and the effective kind is derived.
        let mut resp = SummaryResponse::new("bash_01", LoopOutcome::Summarized);
        resp.summary = Some(vec![b'P', b' ', 0]);
        let line = encode_frame(&Frame::Response(resp));
        assert!(!line.contains("\"kind\""), "{line}");
        assert!(!line.contains("closed_form"), "{line}");
        match decode_frame(&line).unwrap() {
            Frame::Response(r) => {
                assert_eq!(r.kind, None);
                assert_eq!(r.summary_kind(), Some(SummaryKind::Gadget));
            }
            other => panic!("wrong frame: {other:?}"),
        }

        // Unknown kinds are rejected, not guessed.
        assert!(decode_frame(
            "{\"v\":1,\"type\":\"response\",\"id\":\"x\",\"outcome\":\"summarized\",\"kind\":\"magic\"}"
        )
        .is_err());
    }

    #[test]
    fn batch_and_control_frames_round_trip() {
        let batch = Frame::Batch(BatchRequest {
            id: "b1".into(),
            requests: vec![
                SummaryRequest::c("a", "for(;*p;p++);"),
                SummaryRequest::c("b", vec![0x80]),
            ],
        });
        for frame in [
            batch,
            Frame::Shutdown,
            Frame::BatchResponse(BatchResponse {
                id: "b1".into(),
                responses: vec![SummaryResponse::new("a", LoopOutcome::Summarized)],
            }),
            Frame::Error(WireError {
                id: None,
                message: "unknown frame type \"sumary\"".into(),
            }),
        ] {
            assert_eq!(decode_frame(&encode_frame(&frame)).unwrap(), frame);
        }
    }

    #[test]
    fn version_and_type_are_enforced() {
        assert!(decode_frame("{\"v\":2,\"type\":\"shutdown\"}").is_err());
        assert!(decode_frame("{\"type\":\"shutdown\"}").is_err());
        assert!(decode_frame("{\"v\":1,\"type\":\"sumary\"}").is_err());
        assert!(decode_frame("not json").is_err());
    }

    #[test]
    fn telemetry_counters_survive_the_wire() {
        let mut resp = SummaryResponse::new("t", LoopOutcome::Summarized);
        let mut t = SolverTelemetry::default();
        t.search.conflicts = (1 << 53) + 1; // would round through f64
        t.verify.queries = u64::MAX;
        resp.telemetry = Some(t);
        let line = encode_frame(&Frame::Response(resp));
        match decode_frame(&line).unwrap() {
            Frame::Response(r) => {
                let got = r.telemetry.unwrap();
                assert_eq!(got.search, t.search);
                assert_eq!(got.verify, t.verify);
            }
            other => panic!("wrong frame: {other:?}"),
        }
    }
}
