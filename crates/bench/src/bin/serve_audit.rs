//! The daemon front door must be invisible in the results: `serve_audit`
//! replays a corpus slice through `strsum-server`'s engine — concurrent
//! clients speaking the wire protocol over a Unix socket — and diffs
//! every answer against the batch runner under the same config.
//!
//! Three gates, each fatal (exit 1):
//!
//! - **Byte identity (cold).** A freshly started daemon with an empty
//!   store must synthesise byte-identical summaries, failure verdicts
//!   and outcomes to `CorpusRunner::serve` for every loop that did not
//!   race the wall clock. An in-run store hit on a semantic clone
//!   (`CacheHit` where the runner says `Summarized`) is legitimate —
//!   the bytes must still match.
//! - **Byte identity (restart).** The daemon is then shut down —
//!   draining, compacting — and a new daemon is opened over the same
//!   store directory. The replay must serve every previously
//!   summarised loop from the reloaded store, byte-identical, and every
//!   deterministic negative of the cold pass (`not_memoryless`, or a
//!   conflict/path/step cap) from the verdict memo (`origin == memo`)
//!   with the cold pass's outcome and failure. Because the loops the
//!   audit's budget leaves unsummarised run out of wall clock, which
//!   the memo never keeps, they are also re-asked under a
//!   100-conflict cap by a fresh daemon and a restarted one; the
//!   restart must answer them from the memo (`memo` in the artifact).
//! - **Soundness.** Every store hit must have been re-verified by the
//!   bounded checker: the warm pass requires `origin == store` and
//!   `reverified` on each hit, and the engine counters must satisfy
//!   `reverified == store_hits + rejected` with `rejected == 0` (memo
//!   answers are not store hits).
//!
//! Serving metrics (throughput, p50/p99 latency, store hit rate) land
//! in `results/BENCH_pr8.json` for the CI artifact.
//!
//! A fourth phase benchmarks the cross-request scheduler: a mixed
//! cold/warm workload (half the loops pre-warmed into the store, the
//! full slice then replayed by concurrent clients with warm and cold
//! requests interleaved) is served twice over identical stores — once
//! under the FIFO fixed pool (PR 8 behaviour, `SchedOptions::fixed`)
//! and once under the scheduler (fast lane for store hits, syntheses
//! queued in admission order). Both runs must stay
//! byte-identical to the batch reference and pass the soundness gate;
//! the scheduler must not lose throughput against the fixed pool (a
//! hard gate on multi-core hosts, informational on one core, with a
//! 10% measurement-jitter allowance). Results land in
//! `results/BENCH_pr9.json`.
//!
//! Usage: `cargo run --release -p strsum-bench --bin serve_audit
//!         [--loops N] [--clients N] [--threads N] [--timeout-secs S]`

use std::collections::HashMap;
use std::fmt::Write as _;
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
use strsum_bench::{write_result, Cli, CorpusRunner, LoopSynth, PlanSpec, RequestSpec};
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

/// One daemon lifetime: open the store, serve `batches` from concurrent
/// wire clients over a Unix socket, drain, compact, return the answers
/// with the engine + scheduler counters and the serving wall clock.
fn daemon_phase(
    store: &Path,
    socket: &Path,
    cfg: &SynthesisConfig,
    opts: SchedOptions,
    batches: &[BatchRequest],
) -> (Vec<SummaryResponse>, EngineStats, SchedStats, f64) {
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
            std::thread::spawn(move || -> Vec<SummaryResponse> {
                let mut stream = connect_with_retry(&socket);
                let mut line = encode_frame(&Frame::Batch(batch));
                line.push('\n');
                stream.write_all(line.as_bytes()).expect("send batch");
                let mut reader = BufReader::new(stream);
                let mut reply = String::new();
                reader.read_line(&mut reply).expect("read batch response");
                match decode_frame(reply.trim_end()).expect("decode batch response") {
                    Frame::BatchResponse(b) => b.responses,
                    other => panic!("unexpected reply frame: {other:?}"),
                }
            })
        })
        .collect();
    let mut responses = Vec::new();
    for c in clients {
        responses.extend(c.join().expect("client thread"));
    }
    let elapsed = start.elapsed().as_secs_f64();

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
    (responses, stats, sched, elapsed)
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

    let mut violations: Vec<String> = Vec::new();

    // ---- Phase 1: cold daemon, empty store ---------------------------
    let (cold, cold_stats, _, cold_secs) = daemon_phase(
        &store,
        &socket,
        &cfg,
        SchedOptions::scheduled(threads),
        &batches,
    );
    println!(
        "cold:  {loops} answers in {cold_secs:.2}s  ({} hits, {} misses)",
        cold_stats.store_hits, cold_stats.store_misses
    );
    let mut compared = 0usize;
    for resp in &cold {
        let Some(reference) = reference_by_id.get(resp.id.as_str()) else {
            violations.push(format!("{}: daemon answered an unknown id", resp.id));
            continue;
        };
        if runner_timing_dependent(reference) || response_timing_dependent(resp) {
            continue;
        }
        let expected = reference.summary.as_ref().map(|s| s.encode());
        if expected != resp.summary {
            violations.push(format!(
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
            violations.push(format!(
                "{}: outcome skew — runner {:?}, daemon {:?}",
                resp.id, reference.outcome, resp.outcome
            ));
        }
        if resp.summary.is_none() && reference.failure != resp.failure {
            violations.push(format!(
                "{}: failure skew — runner {:?}, daemon {:?}",
                resp.id, reference.failure, resp.failure
            ));
        }
        compared += 1;
    }
    if compared < loops.div_ceil(2) {
        violations.push(format!(
            "only {compared}/{loops} loops compared deterministically — raise --timeout-secs"
        ));
    }
    if cold_stats.reverified != cold_stats.store_hits + cold_stats.rejected {
        violations.push(format!(
            "cold soundness: reverified {} != hits {} + rejected {}",
            cold_stats.reverified, cold_stats.store_hits, cold_stats.rejected
        ));
    }

    // ---- Phase 2: daemon restart over the same store -----------------
    let (warm, warm_stats, _, warm_secs) = daemon_phase(
        &store,
        &socket,
        &cfg,
        SchedOptions::scheduled(threads),
        &batches,
    );
    println!(
        "warm:  {loops} answers in {warm_secs:.2}s  ({} hits, {} misses, {} reverified, {} memo)",
        warm_stats.store_hits,
        warm_stats.store_misses,
        warm_stats.reverified,
        warm_stats.verdict_hits
    );
    let cold_by_id: HashMap<&str, &SummaryResponse> =
        cold.iter().map(|r| (r.id.as_str(), r)).collect();
    violations.extend(memo_violations("warm", &cold_by_id, &warm, &warm_stats));
    let mut expected_hits = 0u64;
    for resp in &warm {
        let before = cold_by_id[resp.id.as_str()];
        if let Some(bytes) = &before.summary {
            expected_hits += 1;
            if resp.summary.as_deref() != Some(bytes.as_slice()) {
                violations.push(format!(
                    "{}: summary changed across daemon restart / store reload",
                    resp.id
                ));
            }
            if resp.origin != Origin::Store {
                violations.push(format!(
                    "{}: warm answer not served from the store",
                    resp.id
                ));
            }
            if !resp.reverified {
                violations.push(format!(
                    "{}: store hit served without re-verification",
                    resp.id
                ));
            }
            if resp.outcome != LoopOutcome::CacheHit {
                violations.push(format!(
                    "{}: warm outcome {:?}, expected CacheHit",
                    resp.id, resp.outcome
                ));
            }
        } else if !response_timing_dependent(before)
            && !response_timing_dependent(resp)
            && resp.outcome != before.outcome
        {
            violations.push(format!(
                "{}: unsummarised outcome changed across restart — {:?} then {:?}",
                resp.id, before.outcome, resp.outcome
            ));
        }
    }
    if warm_stats.store_hits != expected_hits {
        violations.push(format!(
            "warm store hits {} != {} summarised loops",
            warm_stats.store_hits, expected_hits
        ));
    }
    if warm_stats.rejected != 0 {
        violations.push(format!(
            "warm pass tombstoned {} store entries — the store served corrupt summaries",
            warm_stats.rejected
        ));
    }
    if warm_stats.reverified != warm_stats.store_hits + warm_stats.rejected {
        violations.push(format!(
            "warm soundness: reverified {} != hits {} + rejected {}",
            warm_stats.reverified, warm_stats.store_hits, warm_stats.rejected
        ));
    }

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
    let (tail_cold, _, _, tail_cold_secs) =
        daemon_phase(&memo_store, &socket, &cfg, opts, &tail_batches);
    let (tail_warm, tail_stats, _, tail_warm_secs) =
        daemon_phase(&memo_store, &socket, &cfg, opts, &tail_batches);
    println!(
        "tail:  {tail_loops} capped loops in {tail_cold_secs:.2}s, restarted {tail_warm_secs:.2}s ({} memo)",
        tail_stats.verdict_hits
    );
    let tail_cold_by_id: HashMap<&str, &SummaryResponse> =
        tail_cold.iter().map(|r| (r.id.as_str(), r)).collect();
    violations.extend(memo_violations(
        "tail",
        &tail_cold_by_id,
        &tail_warm,
        &tail_stats,
    ));
    if tail_loops > 0 && tail_stats.verdict_hits == 0 {
        violations.push(format!(
            "no budget-tail loop failed deterministically at {MEMO_CONFLICTS} conflicts — the memo gate checked nothing"
        ));
    }

    // ---- Metrics + artifact ------------------------------------------
    let mut lat: Vec<u64> = warm.iter().map(|r| r.cost.wall_micros).collect();
    lat.sort_unstable();
    let p50 = percentile(&lat, 50.0);
    let p99 = percentile(&lat, 99.0);
    let throughput = loops as f64 / warm_secs.max(1e-9);
    let hit_rate = warm_stats.store_hits as f64
        / (warm_stats.store_hits + warm_stats.store_misses).max(1) as f64;
    println!(
        "warm serving: {throughput:.1} req/s, p50 {p50}µs, p99 {p99}µs, hit rate {:.0}%",
        hit_rate * 100.0
    );

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"loops\": {loops},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"workers\": {threads},");
    let _ = writeln!(
        json,
        "  \"cores\": {},",
        strsum_corpus::plan::detected_cores()
    );
    let _ = writeln!(json, "  \"timeout_secs\": {timeout},");
    let _ = writeln!(json, "  \"compared\": {compared},");
    let _ = writeln!(
        json,
        "  \"cold\": {{\"elapsed_secs\": {cold_secs:.3}, \"stats\": {}}},",
        cold_stats.to_json()
    );
    let _ = writeln!(
        json,
        "  \"warm\": {{\"elapsed_secs\": {warm_secs:.3}, \"throughput_rps\": {throughput:.2}, \"p50_latency_micros\": {p50}, \"p99_latency_micros\": {p99}, \"store_hit_rate\": {hit_rate:.4}, \"stats\": {}}},",
        warm_stats.to_json()
    );
    let _ = writeln!(
        json,
        "  \"memo\": {{\"loops\": {tail_loops}, \"solver_conflicts\": {MEMO_CONFLICTS}, \"cold_elapsed_secs\": {tail_cold_secs:.3}, \"warm_elapsed_secs\": {tail_warm_secs:.3}, \"stats\": {}}},",
        tail_stats.to_json()
    );
    let _ = writeln!(
        json,
        "  \"violations\": [{}],",
        violations
            .iter()
            .map(|v| format!("\"{}\"", strsum_obs::escape(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"ok\": {}", violations.is_empty());
    json.push('}');
    write_result("BENCH_pr8.json", &json);

    // ---- Phase 3: mixed workload, fixed pool vs scheduler ------------
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

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut sched_violations: Vec<String> = Vec::new();
    let mut mode_json: Vec<String> = Vec::new();
    let mut throughputs: Vec<f64> = Vec::new();
    for (name, opts) in [
        ("fixed", SchedOptions::fixed(threads)),
        ("scheduled", SchedOptions::scheduled(threads)),
    ] {
        let store = scratch.join(format!("store-{name}"));
        // Pre-warm: populate the store with the warm half, then
        // measure a fresh daemon over it.
        daemon_phase(&store, &socket, &cfg, opts, &prewarm);
        let (responses, stats, sched, secs) =
            daemon_phase(&store, &socket, &cfg, opts, &mixed_batches);
        let throughput = mixed.len() as f64 / secs.max(1e-9);
        throughputs.push(throughput);
        let mut lat: Vec<u64> = responses.iter().map(|r| r.cost.wall_micros).collect();
        lat.sort_unstable();
        let (p50, p99) = (percentile(&lat, 50.0), percentile(&lat, 99.0));
        println!(
            "mixed/{name}: {} answers in {secs:.2}s ({throughput:.1} req/s), p50 {p50}µs, p99 {p99}µs, {} hits, fast-lane {}, heap {}",
            responses.len(),
            stats.store_hits,
            sched.fast_lane,
            sched.heap
        );
        // Byte identity against the phase-1 cold answers (the batch
        // reference transitively): scheduling must be invisible in the
        // bytes, whatever the mode.
        for resp in &responses {
            let Some(before) = cold_by_id.get(resp.id.as_str()) else {
                sched_violations.push(format!("{name}/{}: unknown id", resp.id));
                continue;
            };
            if response_timing_dependent(before) || response_timing_dependent(resp) {
                continue;
            }
            if resp.summary != before.summary {
                sched_violations.push(format!(
                    "{name}/{}: mixed-workload summary differs from the cold reference",
                    resp.id
                ));
            }
        }
        if stats.reverified != stats.store_hits + stats.rejected {
            sched_violations.push(format!(
                "{name} soundness: reverified {} != hits {} + rejected {}",
                stats.reverified, stats.store_hits, stats.rejected
            ));
        }
        mode_json.push(format!(
            "  \"{name}\": {{\"elapsed_secs\": {secs:.3}, \"throughput_rps\": {throughput:.2}, \"p50_latency_micros\": {p50}, \"p99_latency_micros\": {p99}, \"stats\": {}, \"sched\": {}}},",
            stats.to_json(),
            sched.to_json()
        ));
    }
    let (fixed_rps, sched_rps) = (throughputs[0], throughputs[1]);
    let speedup = sched_rps / fixed_rps.max(1e-9);
    // The throughput gate: the scheduler must not lose to the fixed
    // pool. Hard on multi-core hosts (where ordering has room to work),
    // informational on one core; 10% jitter allowance.
    let gate_hard = cores > 1;
    println!(
        "mixed: scheduler {sched_rps:.1} req/s vs fixed {fixed_rps:.1} req/s ({speedup:.2}x, {} gate on {cores} cores)",
        if gate_hard { "hard" } else { "informational" }
    );
    if speedup < 0.9 {
        let msg = format!(
            "scheduler throughput regressed vs the fixed pool: {sched_rps:.1} < 0.9 * {fixed_rps:.1} req/s"
        );
        if gate_hard {
            sched_violations.push(msg);
        } else {
            println!("note ({cores} core): {msg}");
        }
    }

    let mut json = String::from("{\n");
    let _ = writeln!(json, "  \"loops\": {},", mixed.len());
    let _ = writeln!(json, "  \"warm_half\": {half},");
    let _ = writeln!(json, "  \"clients\": {clients},");
    let _ = writeln!(json, "  \"workers\": {threads},");
    let _ = writeln!(json, "  \"cores\": {cores},");
    let _ = writeln!(json, "  \"timeout_secs\": {timeout},");
    for line in &mode_json {
        let _ = writeln!(json, "{line}");
    }
    let _ = writeln!(json, "  \"speedup\": {speedup:.3},");
    let _ = writeln!(json, "  \"gate_hard\": {gate_hard},");
    let _ = writeln!(
        json,
        "  \"violations\": [{}],",
        sched_violations
            .iter()
            .map(|v| format!("\"{}\"", strsum_obs::escape(v)))
            .collect::<Vec<_>>()
            .join(", ")
    );
    let _ = writeln!(json, "  \"ok\": {}", sched_violations.is_empty());
    json.push('}');
    write_result("BENCH_pr9.json", &json);

    violations.extend(sched_violations);
    let _ = std::fs::remove_dir_all(&scratch);
    if violations.is_empty() {
        println!("serve_audit: OK — daemon answers byte-identical to the batch runner, every store hit re-verified, scheduler holds throughput");
        ExitCode::SUCCESS
    } else {
        eprintln!("serve_audit: {} violation(s):", violations.len());
        for v in &violations {
            eprintln!("  - {v}");
        }
        ExitCode::FAILURE
    }
}
