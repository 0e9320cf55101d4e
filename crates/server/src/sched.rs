//! The cross-request scheduler: a shared run queue with a fast lane for
//! cheap finishes and a priority queue for syntheses.
//!
//! The fixed pool this replaces pulled requests FIFO from one mpsc
//! channel, so a cheap store hit queued behind a 30-second synthesis.
//! This scheduler separates the two:
//!
//! - **Two lanes.** Admitted requests enter a raw intake queue; any
//!   worker pops raw work, runs [`Engine::prepare`] (decode → compile →
//!   fingerprint → store probe), and classifies it. Store hits and
//!   interactive-priority requests finish on the spot (the *fast
//!   lane*); every other task waits in the queue. Workers always drain
//!   raw work before popping the queue, so a cache hit never waits
//!   behind a synthesis: p50 for warm traffic stays flat under cold
//!   load.
//! - **Priority, then admission order.** The queue pops normal-priority
//!   tasks before bulk ones, each in admission order, so no request
//!   starves behind later arrivals of its own priority.
//!
//! The daemon keeps no cost estimates. A summary depends only on the
//! loop and its budget, never on when it runs, and cost ordering of a
//! known workload is the batch runner's business (`ljf_order` over its
//! persisted cost book). Every synthesis runs the one serial candidate
//! search on the worker that pops it; the scheduler grants no extra
//! cores.
//!
//! Determinism: scheduling changes *when* work runs, never what it
//! computes, and responses are slotted by admission index. The
//! [`Policy::Fifo`] variant disables both lanes (every request runs
//! `Engine::handle` in arrival order) and is the baseline the
//! `serve_audit` benchmark compares against.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

use strsum_api::{Priority, SummaryRequest, SummaryResponse};
use strsum_obs::names;

use crate::engine::{Engine, Prepared, PreparedTask};

/// Default bound on admitted-but-unanswered requests before intake
/// blocks (backpressure, not rejection).
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// How the run queue orders admitted work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Arrival order, no fast lane — the fixed pool, kept as the
    /// benchmark baseline.
    Fifo,
    /// Fast lane for store hits and interactive requests, then a queue
    /// popping normal priority before bulk, each in admission order.
    Lanes,
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
    /// The default: fast lane plus priority queue over `workers` threads.
    pub fn scheduled(workers: usize) -> SchedOptions {
        SchedOptions {
            workers: workers.max(1),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            policy: Policy::Lanes,
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

/// Scheduler counters, drained for `results/audit/serve_audit.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedStats {
    /// Requests admitted to the run queue.
    pub admitted: u64,
    /// Requests finished through the fast lane.
    pub fast_lane: u64,
    /// Requests finished from the queue.
    pub heap: u64,
}

impl strsum_obs::ToJson for SchedStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"admitted\":{},\"fast_lane\":{},\"heap\":{}}}",
            self.admitted, self.fast_lane, self.heap
        )
    }
}

/// One admitted unit of work: a request plus where its response goes
/// (slot `index` of the submitting frame).
struct Job {
    req: SummaryRequest,
    index: usize,
    reply: Sender<(usize, SummaryResponse)>,
}

/// A prepared task waiting in the queue.
struct Queued {
    /// Boxed: the task owns the compiled IR, and the queue (and the
    /// `Work` enum) should move a pointer, not half a kilobyte.
    task: Box<PreparedTask>,
    index: usize,
    reply: Sender<(usize, SummaryResponse)>,
}

/// Whether a prepared task finishes on the fast lane: store hits (one
/// bounded re-verification) and interactive requests. Bulk never rides
/// the fast lane, so a bulk replay of a warm store cannot crowd out
/// normal traffic.
fn fast_lane(priority: Priority, store_present: bool) -> bool {
    match priority {
        Priority::Interactive => true,
        Priority::Normal => store_present,
        Priority::Bulk => false,
    }
}

/// The waiting tasks: normal priority pops before bulk, each in
/// admission order.
struct RunQueue<T> {
    normal: VecDeque<T>,
    bulk: VecDeque<T>,
}

impl<T> RunQueue<T> {
    fn new() -> Self {
        RunQueue {
            normal: VecDeque::new(),
            bulk: VecDeque::new(),
        }
    }

    fn push(&mut self, priority: Priority, item: T) {
        match priority {
            Priority::Bulk => self.bulk.push_back(item),
            Priority::Interactive | Priority::Normal => self.normal.push_back(item),
        }
    }

    fn pop(&mut self) -> Option<T> {
        self.normal.pop_front().or_else(|| self.bulk.pop_front())
    }
}

/// Queue state under the scheduler mutex.
struct QueueState {
    raw: VecDeque<Job>,
    queue: RunQueue<Queued>,
    /// Admitted but unanswered (backpressure counter).
    pending: usize,
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
    queue_pops: AtomicU64,
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
                queue: RunQueue::new(),
                pending: 0,
                closed: false,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            fast_lane: AtomicU64::new(0),
            queue_pops: AtomicU64::new(0),
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
    /// (backpressure); panics if intake is already closed — the daemon
    /// stops intake before [`Scheduler::shutdown`], same contract as the
    /// old mpsc send.
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
        st.raw.push_back(Job { req, index, reply });
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
            heap: s.queue_pops.load(Ordering::Relaxed),
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
    Heavy(Queued),
}

fn worker_loop(shared: &Shared) {
    loop {
        let work = {
            let mut st = shared.state.lock().expect("scheduler lock");
            loop {
                // Raw before queued: preparing is cheap, classifies the
                // request, and keeps the fast lane fed; queued work is
                // the expensive remainder.
                if let Some(job) = st.raw.pop_front() {
                    break Work::Raw(job);
                }
                if let Some(item) = st.queue.pop() {
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
/// (refusals and the fast lane) or queues it.
fn run_raw(shared: &Shared, job: Job) {
    let Job { req, index, reply } = job;
    if shared.opts.policy == Policy::Fifo {
        // Baseline: the whole lifecycle in arrival order, serial.
        let resp = shared.engine.handle(&req);
        complete(shared, &reply, index, resp);
        return;
    }
    match shared.engine.prepare(req) {
        Prepared::Done(resp) => complete(shared, &reply, index, resp),
        Prepared::Task(task) if fast_lane(task.priority(), task.store_present()) => {
            shared.fast_lane.fetch_add(1, Ordering::Relaxed);
            strsum_obs::counter(names::SCHED_FAST_LANE, "server", 1);
            let resp = shared.engine.finish(task, 1);
            complete(shared, &reply, index, resp);
        }
        Prepared::Task(task) => {
            let mut st = shared.state.lock().expect("scheduler lock");
            st.queue.push(
                task.priority(),
                Queued {
                    task: Box::new(task),
                    index,
                    reply,
                },
            );
            drop(st);
            shared.work_cv.notify_one();
        }
    }
}

/// Finishes one queued task.
fn run_heavy(shared: &Shared, item: Queued) {
    shared.queue_pops.fetch_add(1, Ordering::Relaxed);
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
    fn queue_pops_normal_before_bulk_in_admission_order() {
        use Priority::{Bulk, Interactive, Normal};
        let mut queue = RunQueue::new();
        for (seq, priority) in [Bulk, Normal, Bulk, Normal, Normal].into_iter().enumerate() {
            queue.push(priority, seq);
        }
        assert_eq!(queue.pop(), Some(1));
        // A normal task admitted behind waiting bulk ones still pops
        // ahead of them.
        queue.push(Normal, 5);
        let order: Vec<usize> = std::iter::from_fn(|| queue.pop()).collect();
        assert_eq!(order, [3, 4, 5, 0, 2]);
        // Interactive and store-present tasks never wait in the queue;
        // bulk always does.
        for (priority, store_present, fast) in [
            (Interactive, false, true),
            (Interactive, true, true),
            (Normal, true, true),
            (Normal, false, false),
            (Bulk, true, false),
            (Bulk, false, false),
        ] {
            assert_eq!(
                fast_lane(priority, store_present),
                fast,
                "{priority:?}, store present {store_present}"
            );
        }
    }

    #[test]
    fn store_hits_and_interactive_requests_take_the_fast_lane() {
        let (engine, dir) = tmp_engine("lanes");
        let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(1));
        let until_nul = "char* loopFunction(char* s) {\n  while (*s) s++;\n  return s;\n}\n";
        for (i, req) in [
            SummaryRequest::c("cold", SKIP),
            SummaryRequest::c("hit", SKIP),
            SummaryRequest::c("i", until_nul).priority(Priority::Interactive),
        ]
        .into_iter()
        .enumerate()
        {
            let (reply, done) = channel();
            sched.submit(req, i, reply);
            let (_, resp) = done.recv().expect("answered");
            assert!(resp.summary.is_some(), "{}: {:?}", resp.id, resp.failure);
        }
        let stats = sched.stats();
        assert_eq!((stats.heap, stats.fast_lane), (1, 2), "{stats:?}");
        sched.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
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
        assert_eq!(stats.heap, 0, "fifo has no queue");
        sched.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
