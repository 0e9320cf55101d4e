//! The batch front end over the one summary lifecycle: [`CorpusRunner`].
//!
//! A runner fixes *how* to dispatch ([`PlanSpec`]: cost-ordered or
//! corpus-ordered);
//! [`CorpusRunner::serve`] takes a [`RequestSpec`] saying *what* to run
//! (config / threads / cache / scope) and returns one [`CorpusReport`]
//! holding the per-loop results plus every aggregate the binaries report.
//!
//! Every loop runs through the summary engine's two halves —
//! [`Engine::prepare`] and [`Engine::resolve`], the code the
//! `strsum-server` daemon answers requests with — over a store in a
//! per-run scratch directory, so a batch answer and a daemon answer are
//! one code path by construction. A run has four phases:
//!
//! 1. **prepare** — compile and fingerprint every loop, in parallel;
//! 2. **order** — [`ljf_order`] over the persisted cost book fixes the
//!    dispatch order (corpus order when the plan says so);
//! 3. **resolve** — with the cache on, loops sharing a fingerprint form
//!    a group (with it off, every loop is its own group, and requests
//!    bypass the store). Each group runs on one worker, members in
//!    corpus order: the first synthesises and publishes, each later one
//!    re-verifies the published summary against its own loop, is
//!    answered from the verdict memo when there is none but an earlier
//!    member of the same source and config left a deterministic
//!    negative, and otherwise synthesises and publishes its own;
//! 4. **retry** — the quarantine lane re-runs budget-exhausted loops
//!    with an escalated budget, bypassing the store.
//!
//! The runner keeps the cost book: phase 3 turns each fresh synthesis
//! into a [`CostStat`] row, and a run with [`CorpusRunner::persist_costs`]
//! merges those rows into `results/costs.tsv`.
//!
//! Determinism contract: every parallel phase is an order-preserving
//! [`crate::par_map`] (or a [`crate::par_map_ordered`] whose output is
//! still slotted by original index), and the store traffic of a
//! fingerprint group happens on one worker in corpus order — so results,
//! cache-hit patterns, memo answers, and the aggregated metrics table are
//! all independent of thread scheduling *and* of the dispatch schedule
//! (budget-exhaustion verdicts remain wall-clock-dependent — the audits
//! classify those as timing races). The groups also do for the batch
//! what the daemon scheduler's single flight does for its queue: no two
//! resolves of one fingerprint ever overlap.

use std::fs;
use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use strsum_api::{
    hex, unhex, LoopSpec, Origin, RequestFlags, RequestSpec, Scope, SummaryRequest, SummaryResponse,
};
use strsum_core::{
    Budget, BudgetKind, LoopOutcome, SolverTelemetry, Summary, SummaryKind, SynthStats,
    SynthesisConfig,
};
use strsum_corpus::plan::{ljf_order, PlanCounts};
use strsum_corpus::{App, CostBook, CostStat, LoopEntry, RecordedOutcome};
use strsum_gadgets::Program;
use strsum_obs::{names, Aggregate, Collector, ToJson};
use strsum_server::{isolate, Engine, Prepared, PreparedTask, Resolution};

use crate::{
    aggregate_screen, aggregate_telemetry, default_threads, par_map, par_map_ordered, results_dir,
    Fault, FaultPlan, LoopSynth, PlanSpec,
};

/// Aggregate counts of every [`LoopOutcome`] in a run. The six variants
/// (budget exhaustion split by axis) always sum to the number of loops.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OutcomeCounts {
    /// Loops summarised by fresh synthesis.
    pub summarized: usize,
    /// Loops served by the cross-loop summary store.
    pub cache_hits: usize,
    /// Loops with no summary in the vocabulary (or not compiling).
    pub not_memoryless: usize,
    /// Loops that exhausted the wall-clock budget.
    pub budget_wall: usize,
    /// Loops that exhausted the SAT conflict budget.
    pub budget_solver: usize,
    /// Loops that exhausted the symex path budget.
    pub budget_symex_paths: usize,
    /// Loops that exhausted the symex step budget.
    pub budget_symex_steps: usize,
    /// Loops whose worker panicked (isolated by `par_map`).
    pub crashed: usize,
    /// Loops summarised soundly but with minimisation cut short.
    pub degraded: usize,
}

impl OutcomeCounts {
    /// Tallies one loop's outcome.
    pub fn record(&mut self, outcome: &LoopOutcome) {
        match outcome {
            LoopOutcome::Summarized => self.summarized += 1,
            LoopOutcome::CacheHit => self.cache_hits += 1,
            LoopOutcome::NotMemoryless => self.not_memoryless += 1,
            LoopOutcome::BudgetExhausted(BudgetKind::Wall) => self.budget_wall += 1,
            LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts) => self.budget_solver += 1,
            LoopOutcome::BudgetExhausted(BudgetKind::SymexPaths) => self.budget_symex_paths += 1,
            LoopOutcome::BudgetExhausted(BudgetKind::SymexSteps) => self.budget_symex_steps += 1,
            LoopOutcome::Crashed(_) => self.crashed += 1,
            LoopOutcome::Degraded => self.degraded += 1,
        }
    }

    /// Total loops tallied.
    pub fn total(&self) -> usize {
        self.summarized
            + self.cache_hits
            + self.not_memoryless
            + self.budget_wall
            + self.budget_solver
            + self.budget_symex_paths
            + self.budget_symex_steps
            + self.crashed
            + self.degraded
    }
}

impl ToJson for OutcomeCounts {
    fn to_json(&self) -> String {
        format!(
            "{{\"summarized\":{},\"cache_hits\":{},\"not_memoryless\":{},\
             \"budget_wall\":{},\"budget_solver\":{},\"budget_symex_paths\":{},\
             \"budget_symex_steps\":{},\"crashed\":{},\"degraded\":{}}}",
            self.summarized,
            self.cache_hits,
            self.not_memoryless,
            self.budget_wall,
            self.budget_solver,
            self.budget_symex_paths,
            self.budget_symex_steps,
            self.crashed,
            self.degraded
        )
    }
}

/// Tally of summary kinds over a run's summarised loops (fresh, cached
/// and degraded alike). `total()` equals the number of loops carrying a
/// summary, so `gadget` alone reproduces the pre-recurrence-lane count.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct KindCounts {
    /// Memoryless loops summarised by a gadget program.
    pub gadget: usize,
    /// Integer-accumulator loops summarised by a verified closed form.
    pub accumulator: usize,
    /// String-builder loops summarised by a verified closed form.
    pub builder: usize,
}

impl KindCounts {
    /// Tallies one summary's kind.
    pub fn record(&mut self, kind: SummaryKind) {
        match kind {
            SummaryKind::Gadget => self.gadget += 1,
            SummaryKind::Accumulator => self.accumulator += 1,
            SummaryKind::Builder => self.builder += 1,
        }
    }

    /// Total summaries tallied.
    pub fn total(&self) -> usize {
        self.gadget + self.accumulator + self.builder
    }
}

impl ToJson for KindCounts {
    fn to_json(&self) -> String {
        format!(
            "{{\"gadget\":{},\"accumulator\":{},\"builder\":{}}}",
            self.gadget, self.accumulator, self.builder
        )
    }
}

/// What the quarantine/retry lane did in a run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RetryStats {
    /// Retry attempts issued (loops × rounds).
    pub retried: usize,
    /// Loops whose retry produced a summary after a budget exhaustion.
    pub recovered: usize,
    /// Retry rounds actually run.
    pub rounds: u32,
}

impl ToJson for RetryStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"retried\":{},\"recovered\":{},\"rounds\":{}}}",
            self.retried, self.recovered, self.rounds
        )
    }
}

/// Summary-store traffic of a cached run (all zero when the cache was
/// off).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a candidate summary (before re-verification).
    pub hits: usize,
    /// Lookups that found nothing.
    pub misses: usize,
    /// Hits whose summary failed re-verification against the requesting
    /// loop (fingerprint collision or poisoned entry) and were discarded.
    pub rejected: usize,
}

impl ToJson for CacheStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"hits\":{},\"misses\":{},\"rejected\":{}}}",
            self.hits, self.misses, self.rejected
        )
    }
}

/// Everything a corpus run produces: per-loop results plus the aggregates
/// every experiment binary reports.
#[derive(Debug, Default)]
pub struct CorpusReport {
    /// Per-loop outcomes, in corpus order.
    pub results: Vec<LoopSynth>,
    /// Summary-store counters (all zero when the cache was off).
    pub cache: CacheStats,
    /// Concrete-screening counters summed over the run.
    pub screen: strsum_core::ScreenStats,
    /// Solver effort summed over the run.
    pub telemetry: SolverTelemetry,
    /// Scheduling-independent aggregate of the trace spans recorded during
    /// the run (empty unless a [`CorpusRunner::trace`] sink was attached).
    pub spans: Aggregate,
    /// Aggregate outcome taxonomy counts (sum = number of loops).
    pub outcomes: OutcomeCounts,
    /// Summary-kind tallies (sum = number of summarised loops).
    pub kinds: KindCounts,
    /// Quarantine/retry-lane accounting (all zero with `retries` = 0).
    pub retries: RetryStats,
    /// Per-strategy tallies of the run (all zero for runs that never
    /// executed, e.g. summaries loaded from disk). `cubed` and
    /// `portfolio` are always 0.
    pub plan: PlanCounts,
}

impl CorpusReport {
    /// The `(entry, program)` view used by the coverage/testing figures.
    /// Closed-form summaries yield `None` here — those figures exercise
    /// gadget programs specifically.
    pub fn summaries(self) -> Vec<(LoopEntry, Option<Program>)> {
        self.results
            .into_iter()
            .map(|r| {
                let program = r.program().cloned();
                (r.entry, program)
            })
            .collect()
    }
}

/// The front door over the synthesis stack: a runner is *how* to execute
/// (execution plan, tracing, faults), a [`RequestSpec`] is *what* to run
/// (config, threads, cache, scope) — [`CorpusRunner::serve`] joins them.
///
/// ```no_run
/// use strsum_api::{PlanSpec, RequestSpec};
/// use strsum_bench::CorpusRunner;
///
/// let report = CorpusRunner::new(PlanSpec::serial())
///     .serve(RequestSpec::corpus().threads(4).cache(true));
/// println!("{} loops", report.results.len());
/// ```
///
/// `trace`, `fault_plan` and `persist_costs` are harness-side
/// instrumentation and policy, not request vocabulary, so they stay on
/// the runner — a wire request can never carry them.
#[derive(Debug, Clone)]
pub struct CorpusRunner {
    cfg: SynthesisConfig,
    threads: usize,
    cache: bool,
    plan: PlanSpec,
    reuse_summaries: bool,
    trace: Option<Arc<Collector>>,
    fault_plan: FaultPlan,
    persist_costs: bool,
}

/// What one run's main and retry lanes produced, before reporting.
struct Executed {
    results: Vec<LoopSynth>,
    cache: CacheStats,
    retries: RetryStats,
    plan: PlanCounts,
    /// The main lane's cost rows, one per fresh synthesis. The retry
    /// lane runs under an escalated budget the next run's plan knows
    /// nothing about, so it adds none.
    costs: CostBook,
}

impl CorpusRunner {
    /// A runner dispatching in `plan`'s order (see [`PlanSpec`]); no
    /// tracing, no faults. Either order yields byte-identical summaries —
    /// only wall clock changes.
    ///
    /// Everything else a run varies (config, threads, cache, scope)
    /// arrives with the [`RequestSpec`] at [`CorpusRunner::serve`] time.
    pub fn new(plan: PlanSpec) -> CorpusRunner {
        CorpusRunner {
            cfg: SynthesisConfig::default(),
            threads: default_threads(),
            cache: false,
            plan,
            reuse_summaries: false,
            trace: None,
            fault_plan: FaultPlan::new(),
            persist_costs: false,
        }
    }

    /// Serves one request: resolves the scope to loop entries, applies
    /// the request's config/threads/cache knobs, and runs under this
    /// runner's plan.
    ///
    /// Caller-supplied loops ([`Scope::Loops`]) whose id matches a
    /// corpus entry keep that entry's app attribution (per-app grouping
    /// in the tables keeps working on corpus subsets); unknown ids are
    /// attributed to [`strsum_corpus::App::External`].
    pub fn serve(&self, spec: RequestSpec) -> CorpusReport {
        let mut runner = self.clone();
        runner.cfg = spec.cfg;
        if let Some(n) = spec.threads {
            runner.threads = n;
        }
        runner.cache = spec.cache;
        runner.reuse_summaries = spec.reuse_summaries;
        if let Some(sink) = &runner.trace {
            strsum_obs::install(sink.clone());
        }
        match spec.scope {
            Scope::Corpus { limit: None } => runner.run_full_corpus(),
            Scope::Corpus { limit: Some(n) } => {
                let mut entries = strsum_corpus::corpus();
                entries.truncate(n);
                runner.report(runner.execute(&entries))
            }
            Scope::Loops(specs) => runner.report(runner.execute(&resolve_loop_specs(&specs))),
        }
    }

    /// Installs a deterministic fault plan (see [`FaultPlan`]): planned
    /// worker panics, forced solver `Unknown`s and expired deadlines,
    /// keyed by loop id. Faults fire only in the main lane — the retry
    /// lane always runs clean, so a faulted loop can recover.
    pub fn fault_plan(mut self, plan: FaultPlan) -> CorpusRunner {
        self.fault_plan = plan;
        self
    }

    /// Attaches a trace collector: it is installed as the process sink for
    /// the run, and the report's `spans` field carries its aggregate.
    ///
    /// The aggregate snapshots the collector at the end of the run, so a
    /// collector shared across several runs accumulates across them.
    pub fn trace(mut self, sink: Arc<Collector>) -> CorpusRunner {
        self.trace = Some(sink);
        self
    }

    /// Merge this run's freshly observed costs into the persisted book
    /// (`results/costs.tsv`) after a keyed run. Off by default: the book
    /// is a shared, machine-generated artifact whose committed rows must
    /// stay consistent with the committed benchmark results, so only the
    /// benchmark binaries opt in — embedded and test runs read the book
    /// for scheduling but never write it. Like `trace` and `fault_plan`
    /// this is harness-side policy a wire request can never carry.
    pub fn persist_costs(mut self, on: bool) -> CorpusRunner {
        self.persist_costs = on;
        self
    }

    /// Runs over the full built-in corpus, honouring `reuse_summaries`
    /// (the summaries file is keyed by the full corpus, so reuse only
    /// applies to full-corpus runs).
    fn run_full_corpus(&self) -> CorpusReport {
        let entries = strsum_corpus::corpus();
        if !self.reuse_summaries {
            return self.report(self.execute(&entries));
        }
        let path = results_dir().join("summaries.tsv");
        if let Some(results) = load_summaries(&path, &entries) {
            return self.report(Executed {
                results,
                cache: CacheStats::default(),
                retries: RetryStats::default(),
                plan: PlanCounts::default(),
                costs: CostBook::new(),
            });
        }
        println!("(no summary cache; synthesising the corpus first — this takes a while)");
        // The retry lane runs inside `execute`, so a recovered summary
        // lands in the file.
        let run = self.execute(&entries);
        let mut file = fs::File::create(&path).expect("can create summary cache");
        for r in &run.results {
            let enc = match &r.summary {
                Some(s) => hex(&s.encode()),
                None => "-".to_string(),
            };
            writeln!(file, "{}\t{}", r.entry.id, enc).expect("cache write");
        }
        self.report(run)
    }

    /// The engine request for one loop: the run's flags, the store used
    /// only when the cache is on, and `budget` overriding the run's.
    fn request(&self, entry: &LoopEntry, budget: Option<Budget>, store: bool) -> SummaryRequest {
        let mut req = SummaryRequest::c(entry.id.clone(), entry.source.clone());
        req.budget = budget;
        req.flags = RequestFlags {
            store,
            screen: self.cfg.screen,
            theory_fast_path: self.cfg.theory_fast_path,
        };
        req
    }

    /// Runs every phase over `entries` against an engine whose store
    /// lives in a scratch directory for the length of the run.
    fn execute(&self, entries: &[LoopEntry]) -> Executed {
        let scratch = ScratchDir::new();
        let engine = Engine::open(&scratch.0, 0, self.cfg.clone())
            .unwrap_or_else(|e| panic!("cannot open a run store in {}: {e}", scratch.0.display()));

        // Phase 1: prepare every loop (compile, fingerprint).
        let prepared = par_map(entries, self.threads, |e| {
            let mut span = strsum_obs::span("loop.fingerprint", "corpus");
            if span.active() {
                span.arg_str("id", e.id.clone());
            }
            engine.prepare(self.request(e, None, self.cache))
        });
        let mut results: Vec<Option<LoopSynth>> = entries.iter().map(|_| None).collect();
        let mut tasks: Vec<Option<PreparedTask>> = entries.iter().map(|_| None).collect();
        for (i, p) in prepared.into_iter().enumerate() {
            match p {
                Ok(Prepared::Task(task)) => tasks[i] = Some(task),
                Ok(Prepared::Done(resp)) => results[i] = Some(refused(&entries[i], resp)),
                Err(msg) => results[i] = Some(crashed(entries[i].clone(), msg)),
            }
        }

        // Phase 2: order dispatch from the book and this run's keys.
        let keys: Vec<Option<u64>> = tasks.iter().map(|t| t.as_ref().map(|t| t.key())).collect();
        let dispatch = if self.plan.cost_order {
            ljf_order(&keys, &CostBook::load(&results_dir().join("costs.tsv")))
        } else {
            (0..keys.len()).collect()
        };
        let plan = plan_counts(entries.len());

        // Phase 3: resolve the fingerprint groups, each on one worker in
        // corpus order, dispatched in the order of their first
        // members. Without the cache every loop is a group of its own.
        // (Grouping by the fingerprint hash is safe: a hash collision
        // only serialises two groups, the store keys on the full
        // fingerprint.)
        let mut groups: Vec<Vec<usize>> = Vec::new();
        let mut group_of: std::collections::HashMap<u64, usize> = Default::default();
        for (i, key) in keys.iter().enumerate() {
            let Some(key) = *key else { continue };
            match group_of.get(&key) {
                Some(&g) if self.cache => groups[g].push(i),
                _ => {
                    group_of.insert(key, groups.len());
                    groups.push(vec![i]);
                }
            }
        }
        let mut rank = vec![0usize; entries.len()];
        for (pos, &i) in dispatch.iter().enumerate() {
            rank[i] = pos;
        }
        let mut order: Vec<usize> = (0..groups.len()).collect();
        order.sort_by_key(|&g| rank[groups[g][0]]);
        let slots: Vec<Mutex<Option<PreparedTask>>> = tasks.into_iter().map(Mutex::new).collect();
        let costs = Mutex::new(CostBook::new());
        let resolved = par_map_ordered(&groups, self.threads, &order, |group| {
            // A member's panic is isolated to its own slot, so the rest
            // of its group still resolves.
            let resolve_member = |i: usize| {
                let task = slots[i].lock().expect("task slot").take();
                let task = task.expect("each task resolves once");
                self.resolve(&engine, &entries[i], task, &costs)
            };
            group
                .iter()
                .map(|&i| isolate(|| resolve_member(i)))
                .collect::<Vec<_>>()
        });
        for (group, done) in groups.iter().zip(resolved) {
            let done = done.expect("member panics are isolated per member");
            for (&i, r) in group.iter().zip(done) {
                results[i] = Some(r.unwrap_or_else(|msg| crashed(entries[i].clone(), msg)));
            }
        }
        let mut results: Vec<LoopSynth> = results
            .into_iter()
            .map(|r| r.expect("every loop is resolved by one phase"))
            .collect();
        let stats = engine.stats();
        let cache = if self.cache {
            CacheStats {
                hits: stats.reverified as usize,
                misses: (stats.store_misses - stats.rejected) as usize,
                rejected: stats.rejected as usize,
            }
        } else {
            CacheStats::default()
        };

        // Phase 4: the quarantine lane.
        let retries = self.retry_lane(&engine, entries, &mut results);
        Executed {
            results,
            cache,
            retries,
            plan,
            costs: costs.into_inner().expect("cost rows"),
        }
    }

    /// Resolves one prepared loop, with any planned fault applied first:
    /// a planned panic unwinds right here, inside the dispatching
    /// `par_map` worker; a forced `Unknown` or an expired deadline doctors
    /// the task's config so the ordinary budget machinery classifies it.
    /// A fresh synthesis leaves its cost row in `costs`; a served store
    /// hit and a memo answer leave none.
    fn resolve(
        &self,
        engine: &Engine,
        entry: &LoopEntry,
        mut task: PreparedTask,
        costs: &Mutex<CostBook>,
    ) -> LoopSynth {
        if let Some(fault) = self.fault_plan.fault_for(&entry.id) {
            strsum_obs::counter(names::FAULT_INJECTED, "corpus", 1);
            let cfg = task.config_mut();
            match fault {
                Fault::Panic => panic!("injected fault: worker panic for {}", entry.id),
                Fault::UnknownAtQuery(n) => cfg.forced_unknown_at = Some(*n),
                Fault::DeadlineExpiry => cfg.budget.wall = Duration::ZERO,
            }
        }
        let key = task.key();
        let r = engine.resolve(task);
        if r.origin == Origin::Fresh {
            costs.lock().expect("cost rows").record(key, cost_row(&r));
        }
        resolved(entry, r)
    }

    /// The quarantine lane: loops whose main-lane outcome was a budget
    /// exhaustion are re-run with an escalated budget
    /// ([`Budget::escalate`]), longest-prior-elapsed first, for up to
    /// `budget.retries` rounds. The lane runs serial, bypasses the store
    /// and leaves faults behind; with `retries` = 0 (the default) it is
    /// never entered.
    fn retry_lane(
        &self,
        engine: &Engine,
        entries: &[LoopEntry],
        results: &mut [LoopSynth],
    ) -> RetryStats {
        let base = self.cfg.budget;
        let mut stats = RetryStats::default();
        for round in 1..=base.retries {
            let mut idxs: Vec<usize> = results
                .iter()
                .enumerate()
                .filter(|(_, r)| r.outcome.retryable())
                .map(|(i, _)| i)
                .collect();
            if idxs.is_empty() {
                break;
            }
            // Longest-job-first by what the loop burnt in the main lane
            // (index order on ties keeps the lane deterministic).
            idxs.sort_by(|&a, &b| results[b].elapsed.cmp(&results[a].elapsed).then(a.cmp(&b)));
            stats.rounds = round;
            let budget = base.escalate(round);
            let raw = par_map(&idxs, self.threads, |&i| {
                strsum_obs::counter(names::RETRY_ATTEMPT, "corpus", 1);
                match engine.prepare(self.request(&entries[i], Some(budget), false)) {
                    Prepared::Task(task) => resolved(&entries[i], engine.resolve(task)),
                    Prepared::Done(resp) => refused(&entries[i], resp),
                }
            });
            for (&i, r) in idxs.iter().zip(raw) {
                let r = r.unwrap_or_else(|msg| crashed(entries[i].clone(), msg));
                stats.retried += 1;
                if r.summary.is_some() {
                    stats.recovered += 1;
                    strsum_obs::counter(names::RETRY_RECOVERED, "corpus", 1);
                }
                results[i] = r;
            }
        }
        stats
    }

    fn report(&self, run: Executed) -> CorpusReport {
        let Executed {
            results,
            cache,
            retries,
            plan,
            costs,
        } = run;
        if self.persist_costs && self.plan.cost_order {
            let _ = merge_costs_into(&costs, &results_dir().join("costs.tsv"));
        }
        let mut outcomes = OutcomeCounts::default();
        let mut kinds = KindCounts::default();
        for r in &results {
            outcomes.record(&r.outcome);
            strsum_obs::counter(outcome_counter(&r.outcome), "corpus", 1);
            if let Some(s) = &r.summary {
                kinds.record(s.kind());
            }
        }
        let screen = aggregate_screen(&results);
        let telemetry = aggregate_telemetry(&results);
        let spans = self
            .trace
            .as_ref()
            .map(|c| c.aggregate())
            .unwrap_or_default();
        CorpusReport {
            results,
            cache,
            screen,
            telemetry,
            spans,
            outcomes,
            kinds,
            retries,
            plan,
        }
    }
}

/// A per-run scratch directory for the run's store, removed when the run
/// ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn new() -> ScratchDir {
        static NEXT: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "strsum-run-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, Ordering::Relaxed)
        ));
        let _ = fs::remove_dir_all(&dir);
        ScratchDir(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
    }
}

/// Resolves caller-supplied [`LoopSpec`]s to [`LoopEntry`]s. An id
/// matching a corpus entry inherits that entry's app and description
/// (the request's *source* stays authoritative), so per-app grouping in
/// the tables survives running a corpus subset through the request API;
/// unknown ids run as [`App::External`]. Non-UTF-8 source is passed
/// through lossily and resolves downstream as a frontend rejection
/// (`NotMemoryless`), matching the daemon engine's refusal.
fn resolve_loop_specs(specs: &[LoopSpec]) -> Vec<LoopEntry> {
    let corpus = strsum_corpus::corpus();
    let by_id: std::collections::HashMap<&str, &LoopEntry> =
        corpus.iter().map(|e| (e.id.as_str(), e)).collect();
    specs
        .iter()
        .map(|s| {
            let source = String::from_utf8_lossy(&s.source).into_owned();
            match by_id.get(s.id.as_str()) {
                Some(e) => LoopEntry {
                    id: s.id.clone(),
                    app: e.app,
                    description: e.description.clone(),
                    source,
                },
                None => LoopEntry {
                    id: s.id.clone(),
                    app: App::External,
                    description: String::new(),
                    source,
                },
            }
        })
        .collect()
}

/// The cost row of a fresh synthesis: the synthesis's own conflicts and
/// wall clock (a rejected store hit's re-verification is not part of
/// it) and how it ended.
fn cost_row(r: &Resolution) -> CostStat {
    CostStat {
        conflicts: r.stats.solver.total().conflicts,
        wall_micros: u64::try_from(r.elapsed.as_micros()).unwrap_or(u64::MAX),
        outcome: recorded_outcome(&r.outcome),
    }
}

/// The cost book's outcome tag for a fresh synthesis's outcome. Hits and
/// crashes are never recorded, so they have no tag of their own.
fn recorded_outcome(outcome: &LoopOutcome) -> RecordedOutcome {
    match outcome {
        LoopOutcome::Summarized => RecordedOutcome::Summarized,
        LoopOutcome::NotMemoryless => RecordedOutcome::NotMemoryless,
        LoopOutcome::BudgetExhausted(_) => RecordedOutcome::BudgetExhausted,
        LoopOutcome::Degraded => RecordedOutcome::Degraded,
        LoopOutcome::CacheHit | LoopOutcome::Crashed(_) => RecordedOutcome::Unknown,
    }
}

/// Merges a run's cost rows into the book at `path` — load at save
/// time, merge, atomic rename — so concurrent writers never lose each
/// other's rows. No-op when the run recorded nothing.
fn merge_costs_into(fresh: &CostBook, path: &std::path::Path) -> std::io::Result<()> {
    if fresh.is_empty() {
        return Ok(());
    }
    let mut disk = CostBook::load(path);
    disk.merge(fresh);
    disk.save(path)
}

/// The [`LoopSynth`] for a resolved loop. A rejected store hit's wasted
/// re-verification effort joins the loop's verify telemetry, so reported
/// effort equals effort spent.
fn resolved(entry: &LoopEntry, r: Resolution) -> LoopSynth {
    let mut stats = r.stats;
    if let Some(wasted) = r.rejected {
        stats.solver.verify = stats.solver.verify.plus(&wasted);
    }
    LoopSynth {
        entry: entry.clone(),
        summary: r.summary.map(|(summary, _)| summary),
        elapsed: r.elapsed,
        failure: stats.failure.clone(),
        stats,
        cache_hit: r.outcome == LoopOutcome::CacheHit,
        outcome: r.outcome,
    }
}

/// The [`LoopSynth`] for a loop the engine refused while preparing it
/// (a source the C frontend rejects): no summary, no stats.
fn refused(entry: &LoopEntry, resp: SummaryResponse) -> LoopSynth {
    LoopSynth {
        entry: entry.clone(),
        summary: None,
        elapsed: Duration::ZERO,
        failure: resp.failure,
        stats: SynthStats::default(),
        cache_hit: false,
        outcome: resp.outcome,
    }
}

/// The [`LoopSynth`] recorded for a loop whose worker panicked: no
/// summary, no stats, the panic payload as both failure and outcome.
fn crashed(entry: LoopEntry, msg: String) -> LoopSynth {
    LoopSynth {
        entry,
        summary: None,
        elapsed: Duration::ZERO,
        failure: Some(msg.clone()),
        stats: SynthStats::default(),
        cache_hit: false,
        outcome: LoopOutcome::Crashed(msg),
    }
}

/// The obs counter name for an outcome (see [`strsum_obs::names`]).
fn outcome_counter(outcome: &LoopOutcome) -> &'static str {
    match outcome {
        LoopOutcome::Summarized => names::OUTCOME_SUMMARIZED,
        LoopOutcome::CacheHit => names::OUTCOME_CACHE_HIT,
        LoopOutcome::NotMemoryless => names::OUTCOME_NOT_MEMORYLESS,
        LoopOutcome::BudgetExhausted(_) => names::OUTCOME_BUDGET_EXHAUSTED,
        LoopOutcome::Crashed(_) => names::OUTCOME_CRASHED,
        LoopOutcome::Degraded => names::OUTCOME_DEGRADED,
    }
}

/// Parses `results/summaries.tsv` when it covers every entry; `None`
/// also when a row is not hex or does not decode as a summary, so a
/// corrupt file is re-synthesised.
fn load_summaries(path: &std::path::Path, entries: &[LoopEntry]) -> Option<Vec<LoopSynth>> {
    let text = fs::read_to_string(path).ok()?;
    let mut map = std::collections::HashMap::new();
    for line in text.lines() {
        if let Some((id, hexstr)) = line.split_once('\t') {
            map.insert(id.to_string(), hexstr.to_string());
        }
    }
    if !entries.iter().all(|e| map.contains_key(&e.id)) {
        return None;
    }
    entries
        .iter()
        .map(|e| {
            let summary = match map[&e.id].as_str() {
                "-" => None,
                hexstr => Some(Summary::decode(&unhex(hexstr)?).ok()?),
            };
            let outcome = if summary.is_some() {
                LoopOutcome::Summarized
            } else {
                LoopOutcome::NotMemoryless
            };
            Some(LoopSynth {
                entry: e.clone(),
                summary,
                elapsed: Duration::ZERO,
                failure: None,
                stats: SynthStats::default(),
                cache_hit: false,
                outcome,
            })
        })
        .collect()
}

/// The strategy tallies of a run of `loops` loops, every one serial,
/// also recorded as the `plan.serial` counter.
fn plan_counts(loops: usize) -> PlanCounts {
    if loops > 0 {
        strsum_obs::counter(names::PLAN_SERIAL, "bench", loops as u64);
    }
    PlanCounts {
        serial: loops,
        ..PlanCounts::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_corrupt_summaries_row_loads_as_no_cache() {
        let entries: Vec<LoopEntry> = strsum_corpus::corpus().into_iter().take(2).collect();
        let path =
            std::env::temp_dir().join(format!("strsum-summaries-{}.tsv", std::process::id()));
        let write = |second: &str| {
            let rows = format!("{}\t-\n{}\t{second}\n", entries[0].id, entries[1].id);
            fs::write(&path, rows).expect("write scratch summaries");
        };
        write("-");
        assert!(load_summaries(&path, &entries).is_some());
        write("zz");
        assert!(load_summaries(&path, &entries).is_none());
        write("abc");
        assert!(load_summaries(&path, &entries).is_none());
        write("ff");
        assert!(load_summaries(&path, &entries).is_none());
        let _ = fs::remove_file(&path);
    }

    /// Everything the removed nine-method builder used to configure now
    /// arrives in exactly two places: the [`PlanSpec`] at construction
    /// (how to execute) and the [`RequestSpec`] at serve time (what to
    /// run — config with budget and retries, threads, cache, scope).
    #[test]
    fn plan_and_request_cover_the_old_builder_vocabulary() {
        let runner = CorpusRunner::new(PlanSpec::serial().corpus_order());
        assert_eq!(runner.plan, PlanSpec::serial().corpus_order());

        let cfg = SynthesisConfig {
            budget: strsum_core::Budget {
                wall: Duration::from_secs(9),
                retries: 2,
                ..strsum_core::Budget::default()
            },
            ..SynthesisConfig::default()
        };
        let report = runner.serve(
            RequestSpec::loops(vec![])
                .config(cfg)
                .threads(1)
                .cache(true),
        );
        assert!(report.results.is_empty());
        // The runner itself stays immutable: all request knobs die with
        // the per-call clone.
        assert!(!runner.cache);
        assert_eq!(runner.cfg.budget.retries, 0);
    }

    /// The new front door: `new` takes the plan, and `serve` applies the
    /// per-request knobs without mutating the shared runner.
    #[test]
    fn serve_applies_request_knobs_without_mutating_the_runner() {
        let runner = CorpusRunner::new(PlanSpec::serial().corpus_order());
        assert_eq!(runner.plan, PlanSpec::serial().corpus_order());
        assert!(!runner.cache);
        assert!(!runner.reuse_summaries);

        let report = runner.serve(
            RequestSpec::loops(vec![])
                .config(SynthesisConfig::default())
                .threads(1)
                .cache(true),
        );
        assert!(report.results.is_empty());
        // The runner itself is untouched: `serve` clones per request.
        assert!(!runner.cache);
    }

    /// Phase 3 leaves one cost row per main-lane fresh synthesis, tagged
    /// with that synthesis's outcome; a served store hit, a refusal and
    /// a retry round leave none. (A memo answer leaves none either,
    /// whether it resolves while its loop is prepared or in phase 3.)
    /// Persisting merges the rows into the book at a scratch path.
    #[test]
    fn main_lane_fresh_syntheses_leave_one_cost_row_each() {
        const SKIP: &str = "char* loopFunction(char* s) { while (*s == ' ') s++; return s; }";
        const UNTIL_NUL: &str = "char* loopFunction(char* s) { while (*s) s++; return s; }";
        let entry = |id: &str, source: &str| LoopEntry {
            id: id.to_string(),
            app: App::External,
            description: String::new(),
            source: source.to_string(),
        };
        let entries = [
            entry("fresh", SKIP),
            entry("hit", SKIP),
            entry("refused", "not c at all"),
            entry("retried", UNTIL_NUL),
        ];
        let mut faults = FaultPlan::new();
        faults.inject("retried", Fault::UnknownAtQuery(1));
        let mut runner = CorpusRunner::new(PlanSpec::serial()).fault_plan(faults);
        runner.cache = true;
        runner.threads = 1;
        runner.cfg.budget.retries = 1;
        let run = runner.execute(&entries);
        let outcomes: Vec<&LoopOutcome> = run.results.iter().map(|r| &r.outcome).collect();
        assert_eq!(
            outcomes,
            [
                &LoopOutcome::Summarized,
                &LoopOutcome::CacheHit,
                &LoopOutcome::NotMemoryless,
                &LoopOutcome::Summarized,
            ]
        );
        assert_eq!(run.retries.recovered, 1, "the retry round summarised");

        let key = |source: &str| {
            let func = strsum_cfront::compile_one(source).unwrap();
            strsum_corpus::fingerprint_hash(&strsum_core::loop_fingerprint(
                &func,
                runner.cfg.max_ex_size,
            ))
        };
        assert_eq!(run.costs.len(), 2, "{}", run.costs.dump());
        let fresh = &run.results[0];
        assert_eq!(
            run.costs.get(key(SKIP)),
            Some(CostStat {
                conflicts: fresh.stats.solver.total().conflicts,
                wall_micros: u64::try_from(fresh.elapsed.as_micros()).unwrap(),
                outcome: RecordedOutcome::Summarized,
            }),
            "the store hit left the fresh row as it was"
        );
        let retried = run.costs.get(key(UNTIL_NUL)).expect("main-lane row");
        assert_eq!(
            retried.outcome,
            RecordedOutcome::BudgetExhausted,
            "the main lane's capped run, not the retry round's summary"
        );

        let scratch = ScratchDir::new();
        fs::create_dir_all(&scratch.0).unwrap();
        let path = scratch.0.join("costs.tsv");
        let mut older = CostBook::new();
        older.record(7, CostStat::default());
        older.save(&path).unwrap();
        merge_costs_into(&run.costs, &path).unwrap();
        let merged = CostBook::load(&path);
        assert_eq!(merged.len(), 3, "{}", merged.dump());
        assert_eq!(merged.get(7), Some(CostStat::default()), "older rows kept");
        assert_eq!(merged.get(key(UNTIL_NUL)), Some(retried));
        let untouched = scratch.0.join("empty.tsv");
        merge_costs_into(&CostBook::new(), &untouched).unwrap();
        assert!(!untouched.exists(), "nothing recorded, nothing written");
    }

    /// `git_05` and `awk_02` are one source that exhausts the profile's
    /// 1500-conflict cap. Admitted together, the second is answered from
    /// the verdict memo the first left: no effort, the same failure, no
    /// cost row — at any thread count.
    #[test]
    fn a_duplicate_capped_loop_is_answered_from_the_memo() {
        let corpus = strsum_corpus::corpus();
        let entries: Vec<LoopEntry> = ["git_05", "awk_02"]
            .iter()
            .map(|id| corpus.iter().find(|e| e.id == *id).unwrap().clone())
            .collect();
        assert_eq!(entries[0].source, entries[1].source);
        let run = |threads: usize| {
            let mut runner = CorpusRunner::new(PlanSpec::serial().corpus_order());
            runner.cache = true;
            runner.threads = threads;
            runner.cfg.budget = runner.cfg.budget.with_solver_conflicts(1500);
            runner.execute(&entries)
        };
        let serial = run(1);
        let [first, second] = [&serial.results[0], &serial.results[1]];
        let capped = LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts);
        assert_eq!(first.outcome, capped, "{:?}", first.failure);
        assert!(first.stats.solver.total().conflicts > 0);
        assert_eq!(second.outcome, capped);
        assert_eq!(second.failure, first.failure);
        assert_eq!(second.stats.exhausted, Some(BudgetKind::SolverConflicts));
        assert_eq!(second.stats.solver.total().conflicts, 0, "no effort");
        assert_eq!(second.stats.iterations, 0);
        assert_eq!(second.elapsed, Duration::ZERO);
        // Both copies share one key, so a row from the memo answer would
        // overwrite the first copy's.
        let func = strsum_cfront::compile_one(&entries[0].source).unwrap();
        let key = strsum_corpus::fingerprint_hash(&strsum_core::loop_fingerprint(
            &func,
            SynthesisConfig::default().max_ex_size,
        ));
        let first_row = serial.costs.get(key).expect("the first copy's row");
        assert_eq!(first_row.conflicts, first.stats.solver.total().conflicts);
        assert_eq!(serial.costs.len(), 1, "{}", serial.costs.dump());
        let parallel = run(2);
        let effort = |r: &LoopSynth| (r.stats.solver.total().conflicts, r.stats.iterations);
        for (a, b) in serial.results.iter().zip(&parallel.results) {
            assert_eq!(
                (&a.outcome, &a.failure, effort(a)),
                (&b.outcome, &b.failure, effort(b)),
                "{}",
                a.entry.id
            );
        }
        assert_eq!(parallel.costs.len(), 1);
    }

    /// Unknown loop ids resolve to `App::External`; corpus ids inherit
    /// their app and description so per-app tables survive subsetting.
    #[test]
    fn loop_specs_resolve_against_the_corpus() {
        let known = strsum_corpus::corpus().into_iter().next().unwrap();
        let specs = vec![
            LoopSpec {
                id: known.id.clone(),
                source: known.source.clone().into_bytes(),
            },
            LoopSpec {
                id: "no_such_loop".to_string(),
                source: b"char* loopFunction(char* s) { return s; }".to_vec(),
            },
        ];
        let entries = resolve_loop_specs(&specs);
        assert_eq!(entries.len(), 2);
        assert_eq!(entries[0].app, known.app);
        assert_eq!(entries[0].description, known.description);
        assert_eq!(entries[1].app, App::External);
        assert!(entries[1].description.is_empty());
    }
}
