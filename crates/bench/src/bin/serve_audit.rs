//! The daemon front door must be invisible in the results: `serve_audit`
//! replays a corpus slice through `strsum-server`'s engine — concurrent
//! clients speaking the wire protocol over a Unix socket — and diffs
//! every answer against the batch runner under the same config.
//!
//! Three kinds of gate, each fatal (exit 1):
//!
//! - **Byte identity (cold)** (`cold_byte_identity`; `cold_compared`:
//!   at least half the loops compared). A freshly started daemon with an
//!   empty store must synthesise byte-identical summaries, failure verdicts
//!   and outcomes to `CorpusRunner::serve` for every loop that did not
//!   race the wall clock. An in-run store hit on a semantic clone
//!   (`CacheHit` where the runner says `Summarized`) is legitimate —
//!   the bytes must still match.
//! - **Byte identity (restart)** (`restart_byte_identity`,
//!   `restart_memo`, `tail_memo`, `tail_memo_exercised`). The daemon is
//!   then shut down — draining, compacting — and a new daemon is opened
//!   over the same
//!   store directory. The replay must serve every previously
//!   summarised loop from the reloaded store, byte-identical, and every
//!   deterministic negative of the cold pass (`not_memoryless`, or a
//!   conflict/path/step cap) from the verdict memo (`origin == memo`)
//!   with the cold pass's outcome and failure. Because the loops the
//!   audit's budget leaves unsummarised run out of wall clock, which
//!   the memo never keeps, they are also re-asked under a
//!   100-conflict cap by a fresh daemon and a restarted one; the
//!   restart must answer them from the memo (the `memo_*` phases).
//! - **Soundness** (`cold_soundness`, `restart_soundness`). Every store
//!   hit must have been re-verified by the bounded checker: the warm
//!   pass requires `origin == store` and
//!   `reverified` on each hit, and the engine counters must satisfy
//!   `reverified == store_hits + rejected` with `rejected == 0` (memo
//!   answers are not store hits).
//!
//! Serving metrics land in `results/audit/serve_audit.json`, per phase:
//! throughput, p50/p99 *service* time (each response's
//! `cost.wall_micros` — preparation plus resolution, never queue wait,
//! and so never a twin's wait for its twin's flight), each wire client's
//! batch round trip (send to reply: the latency the client observes,
//! queue and flight waits included), and the warm store hit rate.
//!
//! A fourth phase benchmarks the scheduler's fast lane: a mixed
//! cold/warm workload (half the loops pre-warmed into the store, the
//! full slice then replayed by concurrent clients with warm and cold
//! requests interleaved) is served twice over identical stores — once
//! in the `fixed` mode, fast lane off (`SchedOptions::fixed`: every
//! request, store hits included, waits in the one run queue in
//! admission order), and once `scheduled`, fast lane on (store hits
//! finish on the spot). The ratio of the two is what the fast lane
//! adds. Both runs must stay
//! byte-identical to the batch reference (`mixed_byte_identity`) and
//! pass the soundness gate (`mixed_soundness`); the fast lane must not
//! lose throughput against the fixed mode
//! (`scheduler_throughput_vs_fixed` ≥ 0.9×: a hard gate on multi-core
//! hosts, a metric on one core or an unknown core count, with a 10%
//! measurement-jitter allowance).
//!
//! Usage: `cargo run --release -p strsum-bench --bin serve_audit
//!         [--loops N] [--clients N] [--threads N] [--timeout-secs S]`

use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write as _};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strsum_api::{
    decode_frame, encode_frame, BatchRequest, Frame, Origin, SummaryRequest, SummaryResponse,
};
use strsum_bench::report::object;
use strsum_bench::{Cli, CorpusRunner, Gate, LoopSynth, PlanSpec, Report, RequestSpec};
use strsum_core::{LoopOutcome, SynthesisConfig};
use strsum_obs::ToJson;
use strsum_server::{
    memoizable, serve_unix_socket, Daemon, Engine, EngineStats, SchedOptions, SchedStats,
    DEFAULT_IDLE_TIMEOUT,
};

/// Wall-clock-raced verdicts, the only legitimate divergence between
/// the daemon and the batch runner (same exclusion the
/// serial-vs-parallel determinism audit applies).
fn runner_timing_dependent(r: &LoopSynth) -> bool {
    r.stats.degraded
        || r.stats.exhausted.is_some()
        || matches!(
            r.failure.as_deref(),
            Some("timeout" | "solver gave up on candidate search")
        )
}

fn response_timing_dependent(r: &SummaryResponse) -> bool {
    matches!(
        r.outcome,
        LoopOutcome::Degraded | LoopOutcome::BudgetExhausted(_)
    ) || matches!(
        r.failure.as_deref(),
        Some("timeout" | "solver gave up on candidate search")
    )
}

/// The conflict cap the budget-tail loops are re-asked under: low
/// enough that a loop which runs out of wall clock at the audit's
/// budget runs out of conflicts first, in about 0.1 s (at 1500, some
/// corpus loops still spend 10 s on many small queries).
const MEMO_CONFLICTS: u64 = 100;

/// The restart gate of the verdict memo: every negative `cold` reached
/// by synthesis (it has telemetry) or served from the memo itself, and
/// whose outcome the memo keeps, must come back in `warm` from the memo
/// — and every memo answer must carry the cold outcome and failure.
fn memo_violations(
    phase: &str,
    cold: &HashMap<&str, &SummaryResponse>,
    warm: &[SummaryResponse],
    stats: &EngineStats,
) -> Vec<String> {
    let mut violations = Vec::new();
    let mut served = 0u64;
    for resp in warm {
        let before = cold[resp.id.as_str()];
        let memoized = memoizable(&before.outcome)
            && (before.telemetry.is_some() || before.origin == Origin::Memo);
        if memoized && resp.origin != Origin::Memo {
            violations.push(format!(
                "{phase}/{}: deterministic negative {:?} answered {} ({:?}), not from the verdict memo",
                resp.id,
                before.outcome,
                resp.origin.label(),
                resp.outcome
            ));
        }
        if resp.origin == Origin::Memo {
            served += 1;
            if resp.outcome != before.outcome || resp.failure != before.failure {
                violations.push(format!(
                    "{phase}/{}: memo answer differs from the fresh one — {:?} {:?} then {:?} {:?}",
                    resp.id, before.outcome, before.failure, resp.outcome, resp.failure
                ));
            }
        }
    }
    if stats.verdict_hits != served {
        violations.push(format!(
            "{phase}: verdict hits {} != {served} memo answers",
            stats.verdict_hits
        ));
    }
    violations
}

/// The soundness equation: every store hit re-verified, whatever the
/// verdict (`reverified == store_hits + rejected`).
fn reverify_violations(stats: &EngineStats) -> Vec<String> {
    if stats.reverified == stats.store_hits + stats.rejected {
        return Vec::new();
    }
    vec![format!(
        "reverified {} != hits {} + rejected {}",
        stats.reverified, stats.store_hits, stats.rejected
    )]
}

/// What one daemon lifetime served.
struct Served {
    responses: Vec<SummaryResponse>,
    stats: EngineStats,
    sched: SchedStats,
    /// Serving wall clock: first send to last reply.
    secs: f64,
    /// Each client's batch round trip, send to reply, in client order.
    round_trips: Vec<u64>,
}

impl Served {
    /// Median and p99 of the responses' service times.
    fn service_percentiles(&self) -> (u64, u64) {
        let mut service: Vec<u64> = self.responses.iter().map(|r| r.cost.wall_micros).collect();
        service.sort_unstable();
        (percentile(&service, 50.0), percentile(&service, 99.0))
    }

    fn throughput(&self) -> f64 {
        self.responses.len() as f64 / self.secs.max(1e-9)
    }

    /// Records the phase's serving metrics as `<phase>.*` and its
    /// counters as the `<phase>` detail.
    fn record(&self, report: &mut Report, phase: &str) {
        let name = |metric: &str| format!("{phase}.{metric}");
        let (p50, p99) = self.service_percentiles();
        report.metric(&name("elapsed"), "s", self.secs);
        report.metric(&name("throughput"), "req/s", self.throughput());
        report.metric(&name("p50_service"), "us", p50 as f64);
        report.metric(&name("p99_service"), "us", p99 as f64);
        for (c, &us) in self.round_trips.iter().enumerate() {
            report.metric(&name(&format!("client{c}_round_trip")), "us", us as f64);
        }
        report.detail(
            phase,
            object([
                ("stats", self.stats.to_json()),
                ("sched", self.sched.to_json()),
            ]),
        );
    }

    /// The longest client round trip, in seconds.
    fn slowest_client_secs(&self) -> f64 {
        self.round_trips.iter().copied().max().unwrap_or(0) as f64 / 1e6
    }
}

/// One daemon lifetime: open the store, serve `batches` from concurrent
/// wire clients over a Unix socket, drain, compact, return what it
/// served.
fn daemon_phase(
    store: &Path,
    socket: &Path,
    cfg: &SynthesisConfig,
    opts: SchedOptions,
    batches: &[BatchRequest],
) -> Served {
    let engine = Engine::open(store, 0, cfg.clone()).expect("open engine");
    let daemon = Arc::new(Daemon::with_options(Arc::new(engine), opts));
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let daemon = Arc::clone(&daemon);
        let stop = Arc::clone(&stop);
        let socket = socket.to_path_buf();
        std::thread::spawn(move || serve_unix_socket(&daemon, &socket, &stop, DEFAULT_IDLE_TIMEOUT))
    };

    let start = Instant::now();
    let clients: Vec<_> = batches
        .iter()
        .cloned()
        .map(|batch| {
            let socket = socket.to_path_buf();
            std::thread::spawn(move || -> (Vec<SummaryResponse>, u64) {
                let mut stream = connect_with_retry(&socket);
                let mut line = encode_frame(&Frame::Batch(batch));
                line.push('\n');
                let sent = Instant::now();
                stream.write_all(line.as_bytes()).expect("send batch");
                let mut reader = BufReader::new(stream);
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("read batch response");
                let round_trip = u64::try_from(sent.elapsed().as_micros()).unwrap_or(u64::MAX);
                match decode_frame(reply.trim_end()).expect("decode batch response") {
                    Frame::BatchResponse(b) => (b.responses, round_trip),
                    other => panic!("unexpected reply frame: {other:?}"),
                }
            })
        })
        .collect();
    let mut responses = Vec::new();
    let mut round_trips = Vec::new();
    for c in clients {
        let (answers, round_trip) = c.join().expect("client thread");
        responses.extend(answers);
        round_trips.push(round_trip);
    }
    let secs = start.elapsed().as_secs_f64();

    let stats = daemon.engine().stats();
    let sched = daemon.sched_stats();
    stop.store(true, Ordering::SeqCst);
    server
        .join()
        .expect("socket thread")
        .expect("socket serving");
    Arc::try_unwrap(daemon)
        .ok()
        .expect("all daemon handles released")
        .shutdown()
        .expect("daemon drain");
    Served {
        responses,
        stats,
        sched,
        secs,
        round_trips,
    }
}

/// The server thread races the clients to the bind; retry briefly.
fn connect_with_retry(socket: &Path) -> UnixStream {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(socket) {
            Ok(s) => return s,
            Err(e) if Instant::now() < deadline => {
                let _ = e;
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => panic!("connect {}: {e}", socket.display()),
        }
    }
}

fn percentile(sorted_micros: &[u64], p: f64) -> u64 {
    if sorted_micros.is_empty() {
        return 0;
    }
    let idx = (p / 100.0 * (sorted_micros.len() - 1) as f64).round() as usize;
    sorted_micros[idx.min(sorted_micros.len() - 1)]
}

fn main() -> ExitCode {
    let cli = Cli::from_env();
    cli.validate(&["--loops", "--clients"]);
    let loops: usize = cli.parsed("--loops", 40);
    let clients: usize = cli.parsed("--clients", 4).max(1);
    let threads = cli.threads();
    let timeout = cli.timeout_secs(20.0);
    let cfg = SynthesisConfig::with_timeout(Duration::from_secs_f64(timeout));

    let mut entries = strsum_corpus::corpus();
    entries.truncate(loops);
    let loops = entries.len();
    println!(
        "serve_audit: {loops} loops, {clients} wire clients, {threads} workers, {timeout}s timeout"
    );

    // The reference: the batch runner under the identical config. The
    // determinism contract makes the plan irrelevant to the bytes; serial
    // corpus order is the canonical baseline.
    let reference = CorpusRunner::new(PlanSpec::serial().corpus_order())
        .serve(
            RequestSpec::corpus_slice(loops)
                .config(cfg.clone())
                .threads(threads),
        )
        .results;
    let reference_by_id: HashMap<&str, &LoopSynth> =
        reference.iter().map(|r| (r.entry.id.as_str(), r)).collect();

    // The same slice as wire batches, one per client, contiguous split.
    let per_client = loops.div_ceil(clients);
    let batches: Vec<BatchRequest> = entries
        .chunks(per_client.max(1))
        .enumerate()
        .map(|(c, chunk)| BatchRequest {
            id: format!("client{c}"),
            requests: chunk
                .iter()
                .map(|e| SummaryRequest::c(e.id.clone(), e.source.clone()))
                .collect(),
        })
        .collect();

    let scratch = std::env::temp_dir().join(format!("strsum-serve-audit-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("create scratch dir");
    let store: PathBuf = scratch.join("store");
    let socket: PathBuf = scratch.join("sock");

    let mut report = Report::new("serve_audit");
    report.config("loops", loops as f64);
    report.config("clients", clients as f64);
    report.config("workers", threads as f64);
    report.config("timeout_secs", timeout);
    report.config("memo_solver_conflicts", MEMO_CONFLICTS as f64);

    // ---- Phase 1: cold daemon, empty store ---------------------------
    let cold_phase = daemon_phase(
        &store,
        &socket,
        &cfg,
        SchedOptions::scheduled(threads),
        &batches,
    );
    cold_phase.record(&mut report, "cold");
    let (cold, cold_stats) = (&cold_phase.responses, cold_phase.stats);
    println!(
        "cold:  {loops} answers in {:.2}s  ({} hits, {} misses)",
        cold_phase.secs, cold_stats.store_hits, cold_stats.store_misses
    );
    let mut cold_violations = Vec::new();
    let mut compared = 0usize;
    for resp in cold {
        let Some(reference) = reference_by_id.get(resp.id.as_str()) else {
            cold_violations.push(format!("{}: daemon answered an unknown id", resp.id));
            continue;
        };
        if runner_timing_dependent(reference) || response_timing_dependent(resp) {
            continue;
        }
        let expected = reference.summary.as_ref().map(|s| s.encode());
        if expected != resp.summary {
            cold_violations.push(format!(
                "{}: cold daemon summary differs from the batch runner",
                resp.id
            ));
        }
        // An in-run store hit on a semantic clone is the one legitimate
        // outcome skew: the runner (cache off) synthesised, the daemon
        // served the clone's verified bytes.
        let outcome_ok = resp.outcome == reference.outcome
            || (reference.outcome == LoopOutcome::Summarized
                && resp.outcome == LoopOutcome::CacheHit);
        if !outcome_ok {
            cold_violations.push(format!(
                "{}: outcome skew — runner {:?}, daemon {:?}",
                resp.id, reference.outcome, resp.outcome
            ));
        }
        if resp.summary.is_none() && reference.failure != resp.failure {
            cold_violations.push(format!(
                "{}: failure skew — runner {:?}, daemon {:?}",
                resp.id, reference.failure, resp.failure
            ));
        }
        compared += 1;
    }
    report.gate(Gate::none("cold_byte_identity", cold_violations));
    report.gate(Gate::at_least(
        "cold_compared",
        loops.div_ceil(2) as f64,
        compared as f64,
    ));
    report.gate(Gate::none(
        "cold_soundness",
        reverify_violations(&cold_stats),
    ));

    // ---- Phase 2: daemon restart over the same store -----------------
    let warm_phase = daemon_phase(
        &store,
        &socket,
        &cfg,
        SchedOptions::scheduled(threads),
        &batches,
    );
    warm_phase.record(&mut report, "warm");
    let (warm, warm_stats) = (&warm_phase.responses, warm_phase.stats);
    println!(
        "warm:  {loops} answers in {:.2}s  ({} hits, {} misses, {} reverified, {} memo)",
        warm_phase.secs,
        warm_stats.store_hits,
        warm_stats.store_misses,
        warm_stats.reverified,
        warm_stats.verdict_hits
    );
    let cold_by_id: HashMap<&str, &SummaryResponse> =
        cold.iter().map(|r| (r.id.as_str(), r)).collect();
    report.gate(Gate::none(
        "restart_memo",
        memo_violations("warm", &cold_by_id, warm, &warm_stats),
    ));
    let mut restart_violations = Vec::new();
    let mut unsound = reverify_violations(&warm_stats);
    let mut expected_hits = 0u64;
    for resp in warm {
        let before = cold_by_id[resp.id.as_str()];
        if let Some(bytes) = &before.summary {
            expected_hits += 1;
            if resp.summary.as_deref() != Some(bytes.as_slice()) {
                restart_violations.push(format!(
                    "{}: summary changed across daemon restart / store reload",
                    resp.id
                ));
            }
            if resp.origin != Origin::Store {
                restart_violations.push(format!(
                    "{}: warm answer not served from the store",
                    resp.id
                ));
            }
            if !resp.reverified {
                unsound.push(format!(
                    "{}: store hit served without re-verification",
                    resp.id
                ));
            }
            if resp.outcome != LoopOutcome::CacheHit {
                restart_violations.push(format!(
                    "{}: warm outcome {:?}, expected CacheHit",
                    resp.id, resp.outcome
                ));
            }
        } else if !response_timing_dependent(before)
            && !response_timing_dependent(resp)
            && resp.outcome != before.outcome
        {
            restart_violations.push(format!(
                "{}: unsummarised outcome changed across restart — {:?} then {:?}",
                resp.id, before.outcome, resp.outcome
            ));
        }
    }
    if warm_stats.store_hits != expected_hits {
        restart_violations.push(format!(
            "warm store hits {} != {} summarised loops",
            warm_stats.store_hits, expected_hits
        ));
    }
    if warm_stats.rejected != 0 {
        unsound.push(format!(
            "warm pass tombstoned {} store entries — the store served corrupt summaries",
            warm_stats.rejected
        ));
    }
    report.gate(Gate::none("restart_byte_identity", restart_violations));
    report.gate(Gate::none("restart_soundness", unsound));

    // ---- Phase 2b: the budget tail, conflict-capped, across a restart --
    // At the audit's budget the unsummarised loops run out of wall
    // clock, which the verdict memo never keeps. Asked again under a
    // conflict cap they fail deterministically: a fresh daemon records
    // those verdicts, and a restarted one must answer each from the memo.
    let tail_requests: Vec<SummaryRequest> = entries
        .iter()
        .filter(|e| cold_by_id[e.id.as_str()].summary.is_none())
        .map(|e| {
            let mut req = SummaryRequest::c(e.id.clone(), e.source.clone());
            req.budget = Some(cfg.budget.with_solver_conflicts(MEMO_CONFLICTS));
            req
        })
        .collect();
    let tail_loops = tail_requests.len();
    let tail_batches = vec![BatchRequest {
        id: "tail".into(),
        requests: tail_requests,
    }];
    let memo_store = scratch.join("store-memo");
    let opts = SchedOptions::scheduled(threads);
    let tail_cold = daemon_phase(&memo_store, &socket, &cfg, opts, &tail_batches);
    let tail_warm = daemon_phase(&memo_store, &socket, &cfg, opts, &tail_batches);
    report.metric("memo_loops", "loops", tail_loops as f64);
    tail_cold.record(&mut report, "memo_cold");
    tail_warm.record(&mut report, "memo_warm");
    let tail_stats = tail_warm.stats;
    println!(
        "tail:  {tail_loops} capped loops in {:.2}s, restarted {:.2}s ({} memo)",
        tail_cold.secs, tail_warm.secs, tail_stats.verdict_hits
    );
    let tail_cold_by_id: HashMap<&str, &SummaryResponse> = tail_cold
        .responses
        .iter()
        .map(|r| (r.id.as_str(), r))
        .collect();
    report.gate(Gate::none(
        "tail_memo",
        memo_violations("tail", &tail_cold_by_id, &tail_warm.responses, &tail_stats),
    ));
    // With no budget-tail loop there is nothing for the memo to answer.
    if tail_loops > 0 {
        report.gate(Gate::at_least(
            "tail_memo_exercised",
            1.0,
            tail_stats.verdict_hits as f64,
        ));
    }

    let (p50, p99) = warm_phase.service_percentiles();
    let hit_rate = warm_stats.store_hits as f64
        / (warm_stats.store_hits + warm_stats.store_misses).max(1) as f64;
    report.metric("warm.store_hit_rate", "ratio", hit_rate);
    println!(
        "warm serving: {:.1} req/s, service p50 {p50}µs, p99 {p99}µs, slowest client round trip {:.2}s, hit rate {:.0}%",
        warm_phase.throughput(),
        warm_phase.slowest_client_secs(),
        hit_rate * 100.0
    );

    // ---- Phase 3: mixed workload, fast lane off vs on -----------------
    // Half the slice is pre-warmed into each mode's store; the full
    // slice is then replayed with warm and cold requests interleaved,
    // so cheap hits compete with cold syntheses for the queue — the
    // exact contention the scheduler exists to resolve.
    let half = (loops / 2).max(1);
    let prewarm = vec![BatchRequest {
        id: "prewarm".into(),
        requests: entries[..half]
            .iter()
            .map(|e| SummaryRequest::c(e.id.clone(), e.source.clone()))
            .collect(),
    }];
    let (warm_half, cold_half) = entries.split_at(half);
    let mut mixed = Vec::new();
    for i in 0..warm_half.len().max(cold_half.len()) {
        if let Some(e) = warm_half.get(i) {
            mixed.push(e.clone());
        }
        if let Some(e) = cold_half.get(i) {
            mixed.push(e.clone());
        }
    }
    let mixed_batches: Vec<BatchRequest> = mixed
        .chunks(mixed.len().div_ceil(clients).max(1))
        .enumerate()
        .map(|(c, chunk)| BatchRequest {
            id: format!("mixed{c}"),
            requests: chunk
                .iter()
                .map(|e| SummaryRequest::c(e.id.clone(), e.source.clone()))
                .collect(),
        })
        .collect();

    report.config("mixed_warm_half", half as f64);
    let mut mixed_violations = Vec::new();
    let mut mixed_unsound = Vec::new();
    let mut throughputs: Vec<f64> = Vec::new();
    for (name, lane, opts) in [
        ("fixed", "off", SchedOptions::fixed(threads)),
        ("scheduled", "on", SchedOptions::scheduled(threads)),
    ] {
        let store = scratch.join(format!("store-{name}"));
        // Pre-warm: populate the store with the warm half, then
        // measure a fresh daemon over it.
        daemon_phase(&store, &socket, &cfg, opts, &prewarm);
        let served = daemon_phase(&store, &socket, &cfg, opts, &mixed_batches);
        served.record(&mut report, name);
        throughputs.push(served.throughput());
        let (p50, p99) = served.service_percentiles();
        println!(
            "mixed/{name} (fast lane {lane}): {} answers in {:.2}s ({:.1} req/s), service p50 {p50}µs, p99 {p99}µs, slowest client round trip {:.2}s, {} hits, fast-lane {}, heap {}",
            served.responses.len(),
            served.secs,
            served.throughput(),
            served.slowest_client_secs(),
            served.stats.store_hits,
            served.sched.fast_lane,
            served.sched.heap
        );
        // Byte identity against the phase-1 cold answers (the batch
        // reference transitively): scheduling must be invisible in the
        // bytes, whatever the mode.
        for resp in &served.responses {
            let Some(before) = cold_by_id.get(resp.id.as_str()) else {
                mixed_violations.push(format!("{name}/{}: unknown id", resp.id));
                continue;
            };
            if response_timing_dependent(before) || response_timing_dependent(resp) {
                continue;
            }
            if resp.summary != before.summary {
                mixed_violations.push(format!(
                    "{name}/{}: mixed-workload summary differs from the cold reference",
                    resp.id
                ));
            }
        }
        mixed_unsound.extend(
            reverify_violations(&served.stats)
                .into_iter()
                .map(|v| format!("{name}: {v}")),
        );
    }
    report.gate(Gate::none("mixed_byte_identity", mixed_violations));
    report.gate(Gate::none("mixed_soundness", mixed_unsound));
    let (fixed_rps, sched_rps) = (throughputs[0], throughputs[1]);
    let speedup = sched_rps / fixed_rps.max(1e-9);
    // The throughput gate: the fast lane must not lose to the fixed
    // mode. Hard on multi-core hosts (where ordering has room to work),
    // a metric on one core or an unknown count; 10% jitter allowance.
    let gate_hard = report.cores().unwrap_or(1) > 1;
    println!(
        "mixed: scheduled {sched_rps:.1} req/s vs fixed (fast lane off) {fixed_rps:.1} req/s ({speedup:.2}x, {} gate)",
        if gate_hard { "hard" } else { "no" }
    );
    if gate_hard {
        report.gate(Gate::at_least(
            "scheduler_throughput_vs_fixed",
            0.9,
            speedup,
        ));
    } else {
        report.metric("scheduler_throughput_vs_fixed", "x", speedup);
    }

    let _ = std::fs::remove_dir_all(&scratch);
    report.finish()
}
