//! The traced run: the per-layer breakdown.
//!
//! The untraced run measures what a client sees; tracing would distort
//! it, so the per-layer numbers come from a separate replay of the same
//! request streams (same seed, order and grouping) inside this process,
//! on one driver thread per client. Each request runs through four calls
//! — `decode_frame` → `Engine::prepare` → `Engine::finish(task, 1)` →
//! `encode_frame` — each wrapped in a bench span, and the one
//! `strsum_obs::Collector` also captures the spans and counters the
//! program already emits (`cegis.*`, `smt.*`, `symex.run`,
//! `corpus.reverify`, `screen.*`, `store.*`, `symex.feasible.*`).
//! `batch_corpus` is traced through `CorpusRunner::trace`.
//!
//! Self time is a span's duration minus what its child spans on the same
//! thread cover. The replay skips the socket and the scheduler, so queue
//! wait and cube grants come from the untraced run, and
//! `trace.overhead_ratio` measures tracing plus the in-process driver.
//! After each replay, compile, fingerprint and store probe are timed in
//! isolation over the workload's distinct sources and weighted by the
//! request mix: the engine emits no spans for them.

use std::collections::{BTreeMap, HashMap};
use std::path::Path;
use std::process::Command;
use std::time::Instant;

use strsum_api::{decode_frame, encode_frame, BatchResponse, Frame, SummaryResponse};
use strsum_core::{loop_fingerprint, SynthesisConfig};
use strsum_obs::{names, Collector, EventKind};
use strsum_server::{Engine, Prepared};

use crate::run::{Answer, Ctx, Measured};
use crate::stats::{median, percentile};
use crate::workload::{corpus_order, Workload};

/// Ring capacity: far above what one replay records, so nothing drops.
const CAPACITY: usize = 1 << 22;

/// The bench's own spans, one per layer call.
const DECODE: &str = "api.decode";
const PREPARE: &str = "engine.prepare";
const FINISH: &str = "engine.finish";
const ENCODE: &str = "api.encode";
const DRIVER: &str = "bench.driver";
const SERVE: &str = "bench.serve";
const BENCH: &str = "bench";

/// Minimum share of each driver thread's wall time the layer spans must
/// cover.
pub const MIN_COVERAGE: f64 = 0.95;

/// Repetitions of each isolated call; the median is kept.
const ISOLATED_REPS: usize = 15;

/// One completed span.
#[derive(Debug, Clone, PartialEq)]
pub struct SpanEv {
    pub tid: u64,
    pub name: &'static str,
    pub tag: &'static str,
    pub start: u64,
    pub end: u64,
}

/// Self time of every span: its duration minus the part of it that the
/// spans directly inside it (same thread, nested by interval
/// containment) cover.
pub fn self_times(spans: &[SpanEv]) -> Vec<u64> {
    let mut order: Vec<usize> = (0..spans.len()).collect();
    order.sort_by_key(|&i| {
        (
            spans[i].tid,
            spans[i].start,
            std::cmp::Reverse(spans[i].end),
        )
    });
    let mut covered = vec![0u64; spans.len()];
    let mut stack: Vec<usize> = Vec::new();
    for &i in &order {
        let s = &spans[i];
        while let Some(&top) = stack.last() {
            let t = &spans[top];
            if t.tid != s.tid || t.end <= s.start {
                stack.pop();
            } else {
                break;
            }
        }
        if let Some(&parent) = stack.last() {
            covered[parent] += s.end.min(spans[parent].end) - s.start;
        }
        stack.push(i);
    }
    spans
        .iter()
        .zip(covered)
        .map(|(s, c)| (s.end - s.start).saturating_sub(c))
        .collect()
}

/// Share of `window` covered by the `calls` spans (which must not
/// overlap each other — one thread's sequential calls).
fn coverage(window: &SpanEv, calls: &[&SpanEv]) -> f64 {
    let covered: u64 = calls
        .iter()
        .map(|c| {
            c.end
                .min(window.end)
                .saturating_sub(c.start.max(window.start))
        })
        .sum();
    covered as f64 / (window.end - window.start).max(1) as f64
}

/// What the trace says, by span key.
#[derive(Default)]
struct Layers {
    self_us: BTreeMap<(&'static str, &'static str), u64>,
    calls: BTreeMap<(&'static str, &'static str), u64>,
    args: BTreeMap<(&'static str, &'static str, &'static str), u64>,
    counters: BTreeMap<&'static str, u64>,
}

impl Layers {
    fn self_of(&self, name: &str, tag: &str) -> u64 {
        self.self_us
            .iter()
            .filter(|((n, t), _)| *n == name && *t == tag)
            .map(|(_, v)| v)
            .sum()
    }
    fn calls_of(&self, name: &str, tag: &str) -> u64 {
        self.calls
            .iter()
            .filter(|((n, t), _)| *n == name && *t == tag)
            .map(|(_, v)| v)
            .sum()
    }
    fn arg_of(&self, name: &str, tag: &str, arg: &str) -> u64 {
        self.args
            .iter()
            .filter(|((n, t, a), _)| *n == name && *t == tag && *a == arg)
            .map(|(_, v)| v)
            .sum()
    }
    fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }
}

/// The result of the traced run.
pub struct Traced {
    /// Per-layer metric values by name (see `report::PER_LAYER`).
    pub values: BTreeMap<&'static str, f64>,
    /// Gate failures.
    pub findings: Vec<String>,
    /// Answers the replay produced, for the correctness checks.
    pub answers: Vec<Answer>,
}

/// Replays `workload` traced and computes every per-layer metric, using
/// `m` (the untraced run) for the ones only the real daemon shows.
pub fn traced(
    ctx: &Ctx,
    workload: Workload,
    m: &Measured,
    trace_dir: &Path,
    trace_check: &Path,
) -> Result<Traced, String> {
    let collector = Collector::new(CAPACITY);
    let mut findings = Vec::new();
    let (answers, replay_wall, store_dir, mix) = match workload {
        Workload::BatchCorpus => {
            let order = corpus_order(ctx.seed, 0);
            strsum_obs::install(collector.clone());
            let t0 = Instant::now();
            let report = {
                let _serve = strsum_obs::span(SERVE, BENCH);
                crate::batch::serve(&order, Some(collector.clone()))
            };
            let wall = t0.elapsed().as_secs_f64();
            strsum_obs::uninstall();
            let answers = report.results.iter().map(Answer::from_loop).collect();
            let mix: Vec<String> = order.iter().map(|s| s.to_string()).collect();
            (answers, wall, None, mix)
        }
        _ => {
            let store = match workload {
                Workload::ColdBatch => ctx.work.join("traced"),
                _ => ctx.work.join("store"),
            };
            let engine = Engine::open(&store, 0, SynthesisConfig::default())
                .map_err(|e| format!("open {}: {e}", store.display()))?;
            let lines: Vec<Vec<String>> = m
                .replay
                .iter()
                .map(|frames| frames.iter().map(encode_frame).collect())
                .collect();
            strsum_obs::install(collector.clone());
            let t0 = Instant::now();
            let per_thread: Vec<Result<Vec<SummaryResponse>, String>> = std::thread::scope(|s| {
                let handles: Vec<_> = lines
                    .iter()
                    .map(|list| s.spawn(|| drive(&engine, list)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("driver panicked".into())))
                    .collect()
            });
            let wall = t0.elapsed().as_secs_f64();
            strsum_obs::uninstall();
            let mut answers = Vec::new();
            for r in per_thread {
                answers.extend(r?.into_iter().map(|r| {
                    let service = r.cost.wall_micros;
                    Answer::from_response(r, service)
                }));
            }
            let mix = answers.iter().map(|a| a.loop_id.clone()).collect();
            (answers, wall, Some(engine), mix)
        }
    };

    if collector.dropped() > 0 {
        findings.push(format!("collector dropped {} events", collector.dropped()));
    }
    std::fs::create_dir_all(trace_dir).map_err(|e| format!("{}: {e}", trace_dir.display()))?;
    let trace_file = trace_dir.join(format!("{}.trace.json", workload.name()));
    std::fs::write(&trace_file, collector.chrome_trace())
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    match Command::new(trace_check).arg(&trace_file).output() {
        Ok(out) if out.status.success() => {}
        Ok(out) => findings.push(format!(
            "trace_check rejected the trace: {}",
            String::from_utf8_lossy(&out.stderr).trim()
        )),
        Err(e) => findings.push(format!("cannot run {}: {e}", trace_check.display())),
    }

    let (layers, reconciled) = analyse(&collector, workload);
    if reconciled < MIN_COVERAGE {
        findings.push(format!(
            "layer spans cover {:.1}% of a driver thread's wall time (< {:.0}%)",
            reconciled * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    let requests = answers.len().max(1) as f64;
    let isolated = isolated_calls(ctx, &mix, store_dir.as_ref());

    let per_req = |us: u64| us as f64 / requests;
    let daemon = workload != Workload::BatchCorpus;
    let batch = !daemon;
    // Daemon counters are per daemon lifetime, batch tallies per pass.
    let lifetimes = if daemon { m.lifetimes } else { m.passes.len() }.max(1) as f64;
    let on = |flag: bool, v: f64| if flag { v } else { 0.0 };
    let mut wait: Vec<f64> = m
        .answers()
        .map(|a| a.latency_us.saturating_sub(a.service_us) as f64 / 1000.0)
        .collect();
    wait.sort_by(f64::total_cmp);
    let mut service: Vec<f64> = m.answers().map(|a| a.service_us as f64 / 1000.0).collect();
    service.sort_by(f64::total_cmp);
    let tail = crate::stats::tail_percentile(workload.min_samples()).unwrap_or(50);
    let attempted = m.attempted().max(1) as f64;
    let d = &m.drain;
    let theory =
        layers.counter(names::SYMEX_THEORY_SAT) + layers.counter(names::SYMEX_THEORY_UNSAT);
    let feasibility =
        theory + layers.counter(names::SYMEX_CACHE_HIT) + layers.counter(names::SYMEX_SAT_FALLBACK);
    let smt = |tag: &str, what: &str| -> f64 {
        let v = match what {
            "self" => layers.self_of("smt.check", tag) + layers.self_of("smt.canonical", tag),
            arg => layers.arg_of("smt.check", tag, arg) + layers.arg_of("smt.canonical", tag, arg),
        };
        v as f64 / requests
    };

    let values: BTreeMap<&'static str, f64> = [
        ("api.decode.self_us", per_req(layers.self_of(DECODE, BENCH))),
        ("api.encode.self_us", per_req(layers.self_of(ENCODE, BENCH))),
        (
            "api.request_bytes",
            on(daemon, m.request_bytes as f64 / attempted),
        ),
        (
            "api.response_bytes",
            on(daemon, m.response_bytes as f64 / attempted),
        ),
        ("sched.queue_wait_ms.p50", on(daemon, percentile(&wait, 50))),
        (
            "sched.queue_wait_ms.tail",
            on(daemon, percentile(&wait, tail)),
        ),
        ("sched.fast_lane", d.fast_lane as f64 / lifetimes),
        ("sched.heap", d.heap as f64 / lifetimes),
        ("sched.cubed", d.cubed as f64 / lifetimes),
        (
            "engine.prepare.self_us",
            per_req(layers.self_of(PREPARE, BENCH)),
        ),
        (
            "engine.finish.self_us",
            per_req(layers.self_of(FINISH, BENCH)),
        ),
        (
            "engine.service_ms.p50",
            on(daemon, percentile(&service, 50)),
        ),
        ("cfront.compile_us", isolated.compile_us),
        ("core.fingerprint_us", isolated.fingerprint_us),
        ("store.lookup_us", isolated.lookup_us),
        ("store.hits", d.hits as f64 / lifetimes),
        ("store.misses", d.misses as f64 / lifetimes),
        ("store.reverified", d.reverified as f64 / lifetimes),
        ("store.rejected", d.rejected as f64 / lifetimes),
        (
            "store.hit_ratio",
            d.hits as f64 / (d.hits + d.misses).max(1) as f64,
        ),
        (
            "verify.reverify.self_us",
            per_req(layers.self_of("corpus.reverify", "verify")),
        ),
        (
            "verify.reverify.calls",
            layers.calls_of("corpus.reverify", "verify") as f64 / requests,
        ),
        (
            "cegis.search.self_us",
            per_req(layers.self_of("cegis.search", "cegis")),
        ),
        (
            "cegis.verify.self_us",
            per_req(layers.self_of("cegis.verify", "cegis")),
        ),
        (
            "cegis.screen.self_us",
            per_req(layers.self_of("cegis.screen", "cegis")),
        ),
        (
            "cegis.encode.self_us",
            per_req(layers.self_of("cegis.encode", "cegis")),
        ),
        (
            "cegis.minimize.self_us",
            per_req(layers.self_of("cegis.minimize", "cegis")),
        ),
        (
            "cegis.iterations",
            layers.calls_of("cegis.iteration", "cegis") as f64 / requests,
        ),
        ("smt.search.queries", smt("search", "queries")),
        ("smt.search.conflicts", smt("search", "conflicts")),
        ("smt.search.self_us", smt("search", "self")),
        ("smt.verify.queries", smt("verify", "queries")),
        ("smt.verify.self_us", smt("verify", "self")),
        (
            "smt.conflicts_per_request",
            m.answers().map(|a| a.conflicts as f64).sum::<f64>() / attempted,
        ),
        (
            "symex.run.self_us",
            per_req(layers.self_of("symex.run", "symex")),
        ),
        (
            "symex.run.calls",
            layers.calls_of("symex.run", "symex") as f64 / requests,
        ),
        (
            "symex.theory_hit_ratio",
            theory as f64 / feasibility.max(1) as f64,
        ),
        (
            "symex.sat_fallback",
            layers.counter(names::SYMEX_SAT_FALLBACK) as f64 / requests,
        ),
        (
            "corpus.loop.self_us",
            per_req(layers.self_of("loop", "corpus")),
        ),
        (
            "corpus.reverify.self_us",
            per_req(layers.self_of("loop.reverify", "corpus")),
        ),
        (
            "corpus.cache_hits",
            on(batch, m.cache_hits as f64 / lifetimes),
        ),
        (
            "corpus.plan.serial",
            on(batch, m.plan[0] as f64 / lifetimes),
        ),
        ("corpus.plan.cubed", on(batch, m.plan[1] as f64 / lifetimes)),
        (
            "corpus.plan.portfolio",
            on(batch, m.plan[2] as f64 / lifetimes),
        ),
        ("trace.reconciled_ratio", reconciled),
        (
            "trace.overhead_ratio",
            replay_wall / m.replay_wall.max(1e-9),
        ),
    ]
    .into_iter()
    .collect();
    Ok(Traced {
        values,
        findings,
        answers,
    })
}

/// One driver thread: every frame through decode → prepare → finish →
/// encode, each call in its own span, all inside one driver span.
fn drive(engine: &Engine, lines: &[String]) -> Result<Vec<SummaryResponse>, String> {
    let _driver = strsum_obs::span(DRIVER, BENCH);
    let mut out = Vec::new();
    for line in lines {
        let frame = {
            let _s = strsum_obs::span(DECODE, BENCH);
            decode_frame(line).map_err(|e| e.to_string())?
        };
        let (batch_id, requests) = match frame {
            Frame::Summary(r) => (None, vec![r]),
            Frame::Batch(b) => (Some(b.id), b.requests),
            other => return Err(format!("replay cannot send {other:?}")),
        };
        let mut responses = Vec::with_capacity(requests.len());
        for req in requests {
            let prepared = {
                let _s = strsum_obs::span(PREPARE, BENCH);
                engine.prepare(req)
            };
            responses.push(match prepared {
                Prepared::Done(resp) => resp,
                Prepared::Task(task) => {
                    let _s = strsum_obs::span(FINISH, BENCH);
                    engine.finish(task, 1)
                }
            });
        }
        let reply = match batch_id {
            Some(id) => Frame::BatchResponse(BatchResponse {
                id,
                responses: responses.clone(),
            }),
            None => Frame::Response(responses[0].clone()),
        };
        {
            let _s = strsum_obs::span(ENCODE, BENCH);
            std::hint::black_box(encode_frame(&reply));
        }
        out.extend(responses);
    }
    Ok(out)
}

/// Self times, call counts, argument sums and counters by key, plus the
/// lowest share of a driver thread's wall time the layer spans cover.
fn analyse(collector: &Collector, workload: Workload) -> (Layers, f64) {
    let events = collector.events();
    let mut spans: Vec<SpanEv> = Vec::new();
    let mut layers = Layers::default();
    for ev in &events {
        match &ev.kind {
            EventKind::Span { start_us, dur_us } => {
                spans.push(SpanEv {
                    tid: ev.tid,
                    name: ev.name,
                    tag: ev.tag,
                    start: *start_us,
                    end: start_us + dur_us,
                });
                *layers.calls.entry((ev.name, ev.tag)).or_default() += 1;
                for (k, v) in &ev.args {
                    if let strsum_obs::ArgValue::U64(n) = v {
                        *layers.args.entry((ev.name, ev.tag, k)).or_default() += n;
                    }
                }
            }
            EventKind::Counter { value, .. } => {
                *layers.counters.entry(ev.name).or_default() += value;
            }
        }
    }
    for (s, t) in spans.iter().zip(self_times(&spans)) {
        *layers.self_us.entry((s.name, s.tag)).or_default() += t;
    }
    (layers, reconciled(&spans, workload))
}

/// The lowest coverage over driver threads. A daemon replay's driver
/// threads each carry a driver span and the four call spans; the batch
/// runner's workers carry its own per-loop spans, and their window runs
/// from their first span to their last (the thread holding the whole
/// `serve` call is the coordinator, not a worker).
fn reconciled(spans: &[SpanEv], workload: Workload) -> f64 {
    let mut by_tid: HashMap<u64, Vec<&SpanEv>> = HashMap::new();
    for s in spans {
        by_tid.entry(s.tid).or_default().push(s);
    }
    let mut worst = 1.0f64;
    for list in by_tid.values() {
        let share = if workload == Workload::BatchCorpus {
            if list.iter().any(|s| s.name == SERVE) {
                continue;
            }
            let top = top_level(list);
            let window = SpanEv {
                tid: 0,
                name: DRIVER,
                tag: BENCH,
                start: top.iter().map(|s| s.start).min().unwrap_or(0),
                end: top.iter().map(|s| s.end).max().unwrap_or(0),
            };
            coverage(&window, &top)
        } else {
            let Some(window) = list.iter().find(|s| s.name == DRIVER) else {
                continue;
            };
            let calls: Vec<&SpanEv> = list
                .iter()
                .copied()
                .filter(|s| s.tag == BENCH && s.name != DRIVER)
                .collect();
            coverage(window, &calls)
        };
        worst = worst.min(share);
    }
    worst
}

/// Spans not contained in another span of the same list.
fn top_level<'a>(list: &[&'a SpanEv]) -> Vec<&'a SpanEv> {
    let mut sorted: Vec<&SpanEv> = list.to_vec();
    sorted.sort_by_key(|s| (s.start, std::cmp::Reverse(s.end)));
    let mut top: Vec<&SpanEv> = Vec::new();
    for s in sorted {
        if top.last().is_none_or(|t| t.end <= s.start) {
            top.push(s);
        }
    }
    top
}

/// Isolated per-request costs of the three layers that emit no spans.
struct Isolated {
    compile_us: f64,
    fingerprint_us: f64,
    lookup_us: f64,
}

/// Times `compile_one`, `loop_fingerprint` and `ShardedStore::lookup`
/// for each distinct loop of the request mix, weighted by how often the
/// mix holds it.
fn isolated_calls(ctx: &Ctx, mix: &[String], engine: Option<&Engine>) -> Isolated {
    let mut counts: BTreeMap<&str, usize> = BTreeMap::new();
    for id in mix {
        *counts.entry(id.as_str()).or_default() += 1;
    }
    let max_ex = SynthesisConfig::default().max_ex_size;
    let time = |f: &mut dyn FnMut()| -> f64 {
        let samples: Vec<f64> = (0..ISOLATED_REPS)
            .map(|_| {
                let t = Instant::now();
                f();
                t.elapsed().as_secs_f64() * 1e6
            })
            .collect();
        median(&samples)
    };
    let (mut compile, mut fingerprint, mut lookup) = (0.0, 0.0, 0.0);
    for (id, &n) in &counts {
        let src = &ctx.sources[*id];
        let Ok(func) = strsum_cfront::compile_one(src) else {
            continue;
        };
        let fp = loop_fingerprint(&func, max_ex);
        compile += n as f64
            * time(&mut || {
                std::hint::black_box(strsum_cfront::compile_one(std::hint::black_box(src)).ok());
            });
        fingerprint += n as f64
            * time(&mut || {
                std::hint::black_box(loop_fingerprint(std::hint::black_box(&func), max_ex));
            });
        if let Some(engine) = engine {
            lookup += n as f64
                * time(&mut || {
                    std::hint::black_box(engine.store().lookup(std::hint::black_box(&fp)));
                });
        }
    }
    let total = mix.len().max(1) as f64;
    Isolated {
        compile_us: compile / total,
        fingerprint_us: fingerprint / total,
        lookup_us: lookup / total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(tid: u64, name: &'static str, start: u64, end: u64) -> SpanEv {
        SpanEv {
            tid,
            name,
            tag: "t",
            start,
            end,
        }
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // finish [0,100) ⊃ search [10,60) ⊃ smt [20,50); verify [60,90);
        // another thread's span overlapping in time is not a child.
        let spans = vec![
            ev(1, "smt", 20, 50),
            ev(1, "finish", 0, 100),
            ev(1, "verify", 60, 90),
            ev(1, "search", 10, 60),
            ev(2, "other", 5, 95),
        ];
        let got = self_times(&spans);
        assert_eq!(got, vec![30, 20, 30, 20, 90]);
        // Self times on a thread add up to its covered wall time.
        assert_eq!(got[..4].iter().sum::<u64>(), 100);
    }

    #[test]
    fn child_overrunning_its_parent_by_rounding_is_clipped() {
        let spans = vec![ev(1, "p", 0, 10), ev(1, "c", 4, 11)];
        assert_eq!(self_times(&spans), vec![4, 7]);
    }

    #[test]
    fn coverage_counts_call_spans_inside_the_window() {
        let window = ev(1, DRIVER, 0, 100);
        let a = ev(1, "a", 0, 40);
        let b = ev(1, "b", 45, 100);
        assert!((coverage(&window, &[&a, &b]) - 0.95).abs() < 1e-12);
        let spans = [ev(1, "x", 0, 10), ev(1, "y", 2, 5), ev(1, "z", 12, 20)];
        let refs: Vec<&SpanEv> = spans.iter().collect();
        let top: Vec<&str> = top_level(&refs).iter().map(|s| s.name).collect();
        assert_eq!(top, vec!["x", "z"]);
    }
}
