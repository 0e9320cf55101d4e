//! The cross-request scheduler: a shared run queue that orders admitted
//! work by its cost-book estimate instead of arrival.
//!
//! The fixed pool this replaces pulled requests FIFO from one mpsc
//! channel: a cheap store hit queued behind a 30-second synthesis, and
//! an expensive loop admitted last serialised the tail of every mixed
//! workload. This scheduler reuses the batch runner's cost vocabulary —
//! `CostBook` rows and the fast-lane cutoff — across requests:
//!
//! - **Two lanes.** Admitted requests enter a raw intake queue; any
//!   worker pops raw work, runs [`Engine::prepare`] (decode → compile →
//!   fingerprint → store probe → cost estimate), and classifies it.
//!   Cheap finishes — store hits, interactive-priority requests,
//!   predicted-sub-cutoff syntheses — run immediately (the *fast
//!   lane*); everything else enters a cost-ordered heap. Workers always
//!   drain fast-lane and raw work before popping the heap, so a cache
//!   hit never waits behind a synthesis: p50 for warm traffic stays
//!   flat under cold load.
//! - **Longest-job-first.** The heap pops in the batch `ljf_order`
//!   policy: budget-capped fingerprints (known at-least-this-expensive)
//!   first by recorded wall descending, then unknown loops in admission
//!   order, then trusted rows by wall descending. Bulk-priority requests
//!   sort after everything. LJF minimises makespan when costs are
//!   roughly known; admission order breaks ties so no request starves.
//!
//! Every synthesis runs the one serial candidate search on the worker
//! that pops it; the scheduler grants no extra cores.
//!
//! Determinism: scheduling changes *when* work runs, never what it
//! computes, and responses are slotted by admission index. The
//! [`Policy::Fifo`] variant disables ordering (every request runs
//! `Engine::handle` in arrival order) and is the baseline the
//! `serve_audit` benchmark compares against.

use std::collections::{BinaryHeap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use strsum_api::{Priority, SummaryRequest, SummaryResponse};
use strsum_corpus::plan::SERIAL_CUTOFF_MICROS;
use strsum_obs::names;

use crate::engine::{CostEstimate, Engine, Prepared, PreparedTask};

/// Default bound on admitted-but-unanswered requests before intake
/// blocks (backpressure, not rejection).
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// How the run queue orders admitted work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Arrival order, no fast lane — the fixed pool, kept as the
    /// benchmark baseline.
    Fifo,
    /// Cost-ordered from the book: fast lane + LJF heap.
    CostOrdered,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedOptions {
    /// Worker threads (min 1).
    pub workers: usize,
    /// Admission-queue bound (min 1); intake blocks at the bound.
    pub queue_depth: usize,
    /// Queue ordering policy.
    pub policy: Policy,
}

impl SchedOptions {
    /// The default: cost-ordered queue over `workers` threads.
    pub fn scheduled(workers: usize) -> SchedOptions {
        SchedOptions {
            workers: workers.max(1),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            policy: Policy::CostOrdered,
        }
    }

    /// The fixed pool: FIFO. Benchmark baseline.
    pub fn fixed(workers: usize) -> SchedOptions {
        SchedOptions {
            workers: workers.max(1),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            policy: Policy::Fifo,
        }
    }

    /// Same options with an explicit queue depth (min 1).
    pub fn queue_depth(mut self, depth: usize) -> SchedOptions {
        self.queue_depth = depth.max(1);
        self
    }
}

/// Scheduler counters, drained for `BENCH_pr9.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Requests admitted to the run queue.
    pub admitted: u64,
    /// Requests finished through the fast lane.
    pub fast_lane: u64,
    /// Requests finished from the cost-ordered heap.
    pub heap: u64,
    /// Admission estimates served by a cost-book row.
    pub predicted_book: u64,
}

impl strsum_obs::ToJson for SchedStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"admitted\":{},\"fast_lane\":{},\"heap\":{},\"predicted_book\":{}}}",
            self.admitted, self.fast_lane, self.heap, self.predicted_book
        )
    }
}

/// One admitted unit of work: a request plus where its response goes
/// (slot `index` of the submitting frame).
struct Job {
    req: SummaryRequest,
    index: usize,
    reply: Sender<(usize, SummaryResponse)>,
    seq: u64,
}

/// A prepared task waiting in the cost-ordered heap. Orders by the LJF
/// policy; `BinaryHeap` is a max-heap, so `Ord::Greater` pops first.
struct HeapItem {
    /// Boxed: the task owns the compiled IR, and heap sifts (and the
    /// `Work` enum) should move a pointer, not half a kilobyte.
    task: Box<PreparedTask>,
    index: usize,
    reply: Sender<(usize, SummaryResponse)>,
    /// LJF band: 3 capped, 2 unknown, 1 trusted, 0 bulk.
    band: u8,
    /// Predicted wall microseconds (0 when unknown).
    wall: u64,
    seq: u64,
}

impl HeapItem {
    /// (band desc, wall desc, admission order asc) — the heap mirror of
    /// the batch `ljf_order` sort.
    fn rank(&self) -> (u8, u64, std::cmp::Reverse<u64>) {
        (self.band, self.wall, std::cmp::Reverse(self.seq))
    }
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        self.rank() == other.rank()
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.rank().cmp(&other.rank())
    }
}

/// Queue state under the scheduler mutex.
struct QueueState {
    raw: VecDeque<Job>,
    heap: BinaryHeap<HeapItem>,
    /// Admitted but unanswered (backpressure counter).
    pending: usize,
    seq: u64,
    closed: bool,
}

struct Shared {
    engine: Arc<Engine>,
    opts: SchedOptions,
    state: Mutex<QueueState>,
    /// Workers wait here for work.
    work_cv: Condvar,
    /// Submitters wait here for queue space.
    space_cv: Condvar,
    admitted: AtomicU64,
    fast_lane: AtomicU64,
    heap_pops: AtomicU64,
    predicted_book: AtomicU64,
}

/// The shared run queue and its worker pool.
pub struct Scheduler {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl Scheduler {
    /// Starts the worker pool over `engine` under `opts`.
    pub fn start(engine: Arc<Engine>, opts: SchedOptions) -> Scheduler {
        let shared = Arc::new(Shared {
            engine,
            opts,
            state: Mutex::new(QueueState {
                raw: VecDeque::new(),
                heap: BinaryHeap::new(),
                pending: 0,
                seq: 0,
                closed: false,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            fast_lane: AtomicU64::new(0),
            heap_pops: AtomicU64::new(0),
            predicted_book: AtomicU64::new(0),
        });
        let workers = (0..opts.workers.max(1))
            .map(|_| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(&shared))
            })
            .collect();
        Scheduler { shared, workers }
    }

    /// Worker threads in the pool.
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Admits one request. Blocks while the queue is at depth
    /// (backpressure); panics if called after [`Scheduler::close`] —
    /// the daemon stops intake before closing, same contract as the old
    /// mpsc send.
    pub fn submit(
        &self,
        req: SummaryRequest,
        index: usize,
        reply: Sender<(usize, SummaryResponse)>,
    ) {
        let shared = &*self.shared;
        let mut st = shared.state.lock().expect("scheduler lock");
        while st.pending >= shared.opts.queue_depth && !st.closed {
            st = shared.space_cv.wait(st).expect("scheduler lock");
        }
        assert!(!st.closed, "submit after scheduler close");
        st.pending += 1;
        let seq = st.seq;
        st.seq += 1;
        st.raw.push_back(Job {
            req,
            index,
            reply,
            seq,
        });
        shared.admitted.fetch_add(1, Ordering::Relaxed);
        strsum_obs::counter(names::SCHED_ADMITTED, "server", 1);
        drop(st);
        shared.work_cv.notify_one();
    }

    /// Scheduler counters accumulated so far.
    pub fn stats(&self) -> SchedStats {
        let s = &*self.shared;
        SchedStats {
            admitted: s.admitted.load(Ordering::Relaxed),
            fast_lane: s.fast_lane.load(Ordering::Relaxed),
            heap: s.heap_pops.load(Ordering::Relaxed),
            predicted_book: s.predicted_book.load(Ordering::Relaxed),
        }
    }

    /// Closes intake, drains every admitted request (all still answer),
    /// and joins the workers.
    pub fn shutdown(self) {
        {
            let mut st = self.shared.state.lock().expect("scheduler lock");
            st.closed = true;
        }
        self.shared.work_cv.notify_all();
        self.shared.space_cv.notify_all();
        for w in self.workers {
            let _ = w.join();
        }
    }
}

/// What a worker pulled from the queues.
enum Work {
    Raw(Job),
    Heavy(HeapItem),
}

fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut st = shared.state.lock().expect("scheduler lock");
            loop {
                // Raw before heap: preparing is cheap, classifies the
                // request, and keeps the fast lane fed; heap work is the
                // expensive remainder.
                if let Some(job) = st.raw.pop_front() {
                    break Work::Raw(job);
                }
                if let Some(item) = st.heap.pop() {
                    break Work::Heavy(item);
                }
                if st.closed {
                    return;
                }
                st = shared.work_cv.wait(st).expect("scheduler lock");
            }
        };
        match work {
            Work::Raw(job) => run_raw(shared, job),
            Work::Heavy(item) => run_heavy(shared, item),
        }
    }
}

/// Prepares one admitted request and either finishes it on the spot
/// (refusals and the fast lane) or parks it in the cost-ordered heap.
fn run_raw(shared: &Shared, job: Job) {
    let Job {
        req,
        index,
        reply,
        seq,
    } = job;
    if shared.opts.policy == Policy::Fifo {
        // Baseline: the whole lifecycle in arrival order, serial.
        let resp = shared.engine.handle(&req);
        complete(shared, &reply, index, resp);
        return;
    }
    match shared.engine.prepare(req) {
        Prepared::Done(resp) => complete(shared, &reply, index, resp),
        Prepared::Task(task) => {
            if task.estimate().micros().is_some() {
                shared.predicted_book.fetch_add(1, Ordering::Relaxed);
                strsum_obs::counter(names::SCHED_PREDICTED_BOOK, "server", 1);
            }
            if fast_lane(&task) {
                shared.fast_lane.fetch_add(1, Ordering::Relaxed);
                strsum_obs::counter(names::SCHED_FAST_LANE, "server", 1);
                let resp = shared.engine.finish(task, 1);
                complete(shared, &reply, index, resp);
                return;
            }
            let (band, wall) = ljf_band(&task);
            let mut st = shared.state.lock().expect("scheduler lock");
            st.heap.push(HeapItem {
                task: Box::new(task),
                index,
                reply,
                band,
                wall,
                seq,
            });
            drop(st);
            shared.work_cv.notify_one();
        }
    }
}

/// Finishes one heap task.
fn run_heavy(shared: &Shared, item: HeapItem) {
    shared.heap_pops.fetch_add(1, Ordering::Relaxed);
    strsum_obs::counter(names::SCHED_HEAP, "server", 1);
    let resp = shared.engine.finish(*item.task, 1);
    complete(shared, &item.reply, item.index, resp);
}

/// Sends the response and releases one unit of queue depth.
fn complete(
    shared: &Shared,
    reply: &Sender<(usize, SummaryResponse)>,
    index: usize,
    resp: SummaryResponse,
) {
    // A dropped receiver means the connection died; the work is done,
    // the answer just has nowhere to go.
    let _ = reply.send((index, resp));
    let mut st = shared.state.lock().expect("scheduler lock");
    st.pending = st.pending.saturating_sub(1);
    drop(st);
    shared.space_cv.notify_one();
}

/// Whether a prepared task finishes on the fast lane: store hits (one
/// bounded re-verification), interactive requests, and predicted-cheap
/// syntheses. Bulk never rides the fast lane; unknown cost goes to the
/// heap so a surprise 30-second loop can't block the lane.
fn fast_lane(task: &PreparedTask) -> bool {
    if task.priority() == Priority::Bulk {
        return false;
    }
    if task.store_present() || task.priority() == Priority::Interactive {
        return true;
    }
    match task.estimate() {
        CostEstimate::Row(m) => m < SERIAL_CUTOFF_MICROS,
        // A capped row is a *lower bound*: even a small recorded wall
        // means "at least this much", so never fast-lane it.
        CostEstimate::CappedRow(_) | CostEstimate::Unknown => false,
    }
}

/// The heap band and predicted wall for one task — the `ljf_order`
/// policy translated to heap rank (higher band pops first).
fn ljf_band(task: &PreparedTask) -> (u8, u64) {
    let wall = task.estimate().micros().unwrap_or(0);
    if task.priority() == Priority::Bulk {
        return (0, wall);
    }
    match task.estimate() {
        CostEstimate::CappedRow(_) => (3, wall),
        CostEstimate::Unknown => (2, 0),
        CostEstimate::Row(_) => (1, wall),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;
    use strsum_core::{LoopOutcome, SynthesisConfig};

    const SKIP: &str = "char* loopFunction(char* s) {\n  while (*s == ' ') s++;\n  return s;\n}\n";

    fn tmp_engine(tag: &str) -> (Arc<Engine>, std::path::PathBuf) {
        let dir = std::env::temp_dir().join(format!("strsum-sched-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
        (Arc::new(engine), dir)
    }

    fn drain(
        n: usize,
        done: std::sync::mpsc::Receiver<(usize, SummaryResponse)>,
    ) -> Vec<SummaryResponse> {
        let mut slots: Vec<Option<SummaryResponse>> = (0..n).map(|_| None).collect();
        for (index, resp) in done {
            slots[index] = Some(resp);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every admitted request answers"))
            .collect()
    }

    #[test]
    fn every_admitted_request_answers_in_slot_order() {
        let (engine, dir) = tmp_engine("slots");
        let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(3));
        let (reply, done) = channel();
        for i in 0..10 {
            sched.submit(SummaryRequest::c(format!("s{i}"), SKIP), i, reply.clone());
        }
        drop(reply);
        let responses = drain(10, done);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, format!("s{i}"), "slotted by admission index");
            assert!(
                matches!(
                    resp.outcome,
                    LoopOutcome::Summarized | LoopOutcome::CacheHit
                ),
                "s{i}: {:?}",
                resp.outcome
            );
        }
        assert_eq!(sched.stats().admitted, 10);
        sched.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn shutdown_drains_the_queue() {
        let (engine, dir) = tmp_engine("drain");
        let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(1));
        let (reply, done) = channel();
        for i in 0..6 {
            sched.submit(SummaryRequest::c(format!("d{i}"), SKIP), i, reply.clone());
        }
        drop(reply);
        sched.shutdown(); // close intake with work still queued
        let responses = drain(6, done);
        assert_eq!(responses.len(), 6, "no admitted request dropped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn backpressure_blocks_at_queue_depth_then_releases() {
        let (engine, dir) = tmp_engine("depth");
        let sched = Arc::new(Scheduler::start(
            Arc::clone(&engine),
            SchedOptions::scheduled(2).queue_depth(2),
        ));
        let (reply, done) = channel();
        let submitter = {
            let sched = Arc::clone(&sched);
            let reply = reply.clone();
            std::thread::spawn(move || {
                for i in 0..8 {
                    sched.submit(SummaryRequest::c(format!("b{i}"), SKIP), i, reply.clone());
                }
            })
        };
        drop(reply);
        submitter.join().unwrap(); // workers drain, so the bound releases
        let responses = drain(8, done);
        assert_eq!(responses.len(), 8);
        let sched = Arc::try_unwrap(sched).ok().expect("sole handle");
        sched.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn heap_rank_follows_the_ljf_policy() {
        // Band beats wall beats admission order; within a band, larger
        // predicted wall first; within a tie, earlier admission first.
        let mk = |band: u8, wall: u64, seq: u64| (band, wall, std::cmp::Reverse(seq));
        let capped = mk(3, 10, 5);
        let unknown = mk(2, 0, 9);
        let trusted_big = mk(1, 1_000_000, 7);
        let trusted_small = mk(1, 10, 2);
        let bulk = mk(0, u64::MAX, 0);
        let mut ranks = [bulk, trusted_small, trusted_big, unknown, capped];
        ranks.sort();
        ranks.reverse(); // max-heap pop order
        assert_eq!(ranks, [capped, unknown, trusted_big, trusted_small, bulk]);
        let earlier = mk(1, 10, 1);
        assert!(earlier > trusted_small, "ties pop in admission order");
    }

    #[test]
    fn fifo_policy_matches_the_serial_engine() {
        let (engine, dir) = tmp_engine("fifo");
        let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::fixed(2));
        let (reply, done) = channel();
        for i in 0..4 {
            sched.submit(SummaryRequest::c(format!("f{i}"), SKIP), i, reply.clone());
        }
        drop(reply);
        let responses = drain(4, done);
        let first = responses[0].summary.clone().expect("summarized");
        for r in &responses {
            assert_eq!(r.summary.as_ref(), Some(&first), "byte-identical");
        }
        let stats = sched.stats();
        assert_eq!(stats.fast_lane, 0, "fifo has no fast lane");
        assert_eq!(stats.heap, 0, "fifo has no heap");
        sched.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
