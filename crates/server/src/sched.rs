//! The cross-request scheduler: one run queue, and a fast lane for
//! store hits.
//!
//! The fixed pool this replaces pulled requests FIFO from one mpsc
//! channel, so a cheap store hit queued behind a 30-second synthesis.
//! This scheduler separates the two:
//!
//! - **Fast lane.** Admitted requests enter a raw intake queue; any
//!   worker pops raw work, runs [`Engine::prepare`] (decode → compile →
//!   fingerprint → store probe), and classifies it. A store hit finishes
//!   on the spot (the *fast lane*: one bounded re-verification); every
//!   other task waits in the run queue. Workers always drain raw work
//!   before popping the queue, so a cache hit never waits behind a
//!   synthesis: p50 for warm traffic stays flat under cold load.
//! - **Admission order.** The queue pops in admission order, so no
//!   request starves behind later arrivals.
//! - **Single flight.** A task that uses the store and whose fingerprint
//!   the store did not hold at admission takes its fingerprint's flight
//!   when the queue hands it out, and holds it while it runs. A twin
//!   (same fingerprint hash) keeps its place in the queue while workers
//!   pop other work. The flight lands on every exit and wakes the
//!   workers; the twin then resolves the ordinary way (store hit, memo,
//!   or its own synthesis). A fast-lane task never holds a flight. No
//!   worker sleeps on a flight, and none exits while one is out, so
//!   every twin is popped.
//! - **Panic boundary.** Each job's `prepare` and `finish` run under
//!   [`isolate`]: a job that panics answers `crashed` with the panic's
//!   message, its flight lands, and its worker keeps serving.
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
//! [`Policy::Fifo`] variant is the same queue with the fast lane off
//! (every prepared task queues, store hits included) and is the baseline
//! the `serve_audit` benchmark compares against.

use std::collections::{HashSet, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::Sender;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;

use strsum_api::{SummaryRequest, SummaryResponse};
use strsum_core::LoopOutcome;
use strsum_obs::names;

use crate::engine::{Engine, Prepared, PreparedTask};

/// Default bound on admitted-but-unanswered requests before intake
/// blocks (backpressure, not rejection).
pub const DEFAULT_QUEUE_DEPTH: usize = 1024;

/// Whether store hits skip the run queue.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// The fast lane off: every prepared task queues, store hits
    /// included. The benchmark baseline.
    Fifo,
    /// Store hits finish on the spot (the fast lane); every other task
    /// queues.
    Lanes,
}

/// Scheduler configuration.
#[derive(Debug, Clone, Copy)]
pub struct SchedOptions {
    /// Worker threads (min 1).
    pub workers: usize,
    /// Admission-queue bound (min 1); intake blocks at the bound.
    pub queue_depth: usize,
    /// Fast lane on or off.
    pub policy: Policy,
}

impl SchedOptions {
    /// The default: fast lane plus run queue over `workers` threads.
    pub fn scheduled(workers: usize) -> SchedOptions {
        SchedOptions {
            workers: workers.max(1),
            queue_depth: DEFAULT_QUEUE_DEPTH,
            policy: Policy::Lanes,
        }
    }

    /// The run queue with the fast lane off. Benchmark baseline.
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
    /// Tasks that had to let a twin land its flight first: each counted
    /// the first time a twin in flight held it back.
    pub flight_waits: u64,
}

impl strsum_obs::ToJson for SchedStats {
    fn to_json(&self) -> String {
        format!(
            "{{\"admitted\":{},\"fast_lane\":{},\"heap\":{},\"flight_waits\":{}}}",
            self.admitted, self.fast_lane, self.heap, self.flight_waits
        )
    }
}

/// Runs `f`, turning a panic into `Err(the message it carried)`: the
/// panic boundary of the daemon's jobs and of the batch runner's loops.
/// `AssertUnwindSafe` is justified because a panicking call's partial
/// state dies here — only the `Err` crosses the boundary.
pub fn isolate<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "panic of unknown type".to_string()
        }
    })
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
    /// Already counted in `flight_waits`.
    waited: bool,
}

/// The flight `task` holds while it runs: its fingerprint hash, when it
/// uses the store and the store did not hold the fingerprint at admission.
fn flight(task: &PreparedTask) -> Option<u64> {
    (task.req.flags.store && !task.store_present).then_some(task.key)
}

/// Removes the first task, in admission order, that `held` does not
/// hold back; the tasks passed over keep their places.
fn pop<T>(queue: &mut VecDeque<T>, mut held: impl FnMut(&mut T) -> bool) -> Option<T> {
    let i = queue.iter_mut().position(|t| !held(t))?;
    queue.remove(i)
}

/// Queue state under the scheduler mutex.
struct QueueState {
    raw: VecDeque<Job>,
    queue: VecDeque<Queued>,
    /// Fingerprint hashes in flight.
    flights: HashSet<u64>,
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
    flight_waits: AtomicU64,
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
                queue: VecDeque::new(),
                flights: HashSet::new(),
                pending: 0,
                closed: false,
            }),
            work_cv: Condvar::new(),
            space_cv: Condvar::new(),
            admitted: AtomicU64::new(0),
            fast_lane: AtomicU64::new(0),
            queue_pops: AtomicU64::new(0),
            flight_waits: AtomicU64::new(0),
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
            flight_waits: s.flight_waits.load(Ordering::Relaxed),
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
                // The first task whose twin is not in flight takes its
                // own flight as it leaves the queue.
                let QueueState { queue, flights, .. } = &mut *st;
                if let Some(item) = pop(queue, |q| held_back(shared, flights, q)) {
                    flights.extend(flight(&item.task));
                    shared.queue_pops.fetch_add(1, Ordering::Relaxed);
                    strsum_obs::counter(names::SCHED_HEAP, "server", 1);
                    break Work::Heavy(item);
                }
                // A flight still out may release a twin: stay to pop it.
                if st.closed && st.flights.is_empty() {
                    return;
                }
                st = shared.work_cv.wait(st).expect("scheduler lock");
            }
        };
        match work {
            Work::Raw(job) => run_raw(shared, job),
            Work::Heavy(item) => run(shared, item),
        }
    }
}

/// Prepares one admitted request, then sends the answer preparing gave
/// (a refusal or a memo answer), finishes it on the fast lane, or queues
/// it.
fn run_raw(shared: &Shared, job: Job) {
    let Job { req, index, reply } = job;
    let id = req.id.clone();
    let prepared = isolate(|| shared.engine.prepare(req))
        .unwrap_or_else(|msg| Prepared::Done(crashed(id, msg)));
    let task = match prepared {
        Prepared::Done(resp) => return complete(shared, &reply, index, resp),
        Prepared::Task(task) => Box::new(task),
    };
    let item = Queued {
        task,
        index,
        reply,
        waited: false,
    };
    if shared.opts.policy == Policy::Lanes && item.task.store_present {
        shared.fast_lane.fetch_add(1, Ordering::Relaxed);
        strsum_obs::counter(names::SCHED_FAST_LANE, "server", 1);
        return run(shared, item);
    }
    let mut st = shared.state.lock().expect("scheduler lock");
    st.queue.push_back(item);
    drop(st);
    shared.work_cv.notify_one();
}

/// Finishes one task, holding its flight (taken when the queue handed it
/// out; a fast-lane task has none) until the answer is sent.
fn run(shared: &Shared, item: Queued) {
    let _flight = flight(&item.task).map(|key| Flight { shared, key });
    let id = item.task.req.id.clone();
    let resp =
        isolate(|| shared.engine.finish(*item.task, 1)).unwrap_or_else(|msg| crashed(id, msg));
    complete(shared, &item.reply, item.index, resp);
}

/// The answer to a job that panicked: outcome `crashed` with the panic's
/// message as `crash_msg` and `failure`, as the batch runner records it.
fn crashed(id: String, msg: String) -> SummaryResponse {
    let mut resp = SummaryResponse::new(id, LoopOutcome::Crashed(msg.clone()));
    resp.failure = Some(msg);
    resp
}

/// A held flight. Dropping it, on return or while unwinding, lands it
/// and wakes the workers.
struct Flight<'a> {
    shared: &'a Shared,
    key: u64,
}

impl Drop for Flight<'_> {
    fn drop(&mut self) {
        // Runs while unwinding too, so must not panic. No update under the
        // lock leaves the state invalid midway: poison is harmless.
        let shared = self.shared;
        let mut st = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
        st.flights.remove(&self.key);
        drop(st);
        shared.work_cv.notify_all();
    }
}

/// Whether a twin in flight holds `q` back; the first time one does, `q`
/// counts in `flight_waits`.
fn held_back(shared: &Shared, flights: &HashSet<u64>, q: &mut Queued) -> bool {
    let held = flight(&q.task).is_some_and(|k| flights.contains(&k));
    if held && !std::mem::replace(&mut q.waited, true) {
        shared.flight_waits.fetch_add(1, Ordering::Relaxed);
        strsum_obs::counter(names::FLIGHT_WAIT, "server", 1);
    }
    held
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
    use std::time::{Duration, Instant};
    use strsum_api::Origin;
    use strsum_core::{BudgetKind, LoopOutcome, SynthesisConfig};

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
    fn queue_pops_in_admission_order() {
        let mut queue: VecDeque<usize> = (0..4).collect();
        assert_eq!(pop(&mut queue, |_| false), Some(0));
        // A task `pop` may not take (its twin is in flight) keeps its
        // place.
        assert_eq!(pop(&mut queue, |seq| *seq == 1), Some(2));
        queue.push_back(4);
        let order: Vec<usize> = std::iter::from_fn(|| pop(&mut queue, |_| false)).collect();
        assert_eq!(order, [1, 3, 4]);
    }

    #[test]
    fn store_hits_take_the_fast_lane() {
        let (engine, dir) = tmp_engine("lanes");
        let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(1));
        for (i, req) in [
            SummaryRequest::c("cold", SKIP),
            SummaryRequest::c("hit", SKIP),
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
        assert_eq!((stats.heap, stats.fast_lane), (1, 1), "{stats:?}");
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
        assert_eq!(stats.heap, 4, "every prepared task is a queue pop");
        sched.shutdown();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The single flight. Run on their own, ten times in a row, in CI:
    /// they are concurrency tests.
    mod flight {
        use super::*;

        const UNTIL_NUL: &str =
            "char* loopFunction(char* s) {\n  while (*s) s++;\n  return s;\n}\n";

        /// A request for `SKIP` whose conflict cap (20) is far below what its
        /// search needs: it exhausts deterministically in milliseconds.
        fn capped(id: &str) -> SummaryRequest {
            let mut req = SummaryRequest::c(id, SKIP);
            req.budget = Some(SynthesisConfig::default().budget.with_solver_conflicts(20));
            req
        }

        /// The fingerprint hash `engine` prepares `req` under.
        fn key_of(engine: &Engine, req: SummaryRequest) -> u64 {
            match engine.prepare(req) {
                Prepared::Task(task) => task.key(),
                Prepared::Done(r) => panic!("resolved at admission: {:?}", r.failure),
            }
        }

        /// Marks `key` in flight, as a running task would; dropping the
        /// returned flight lands it.
        fn hold(shared: &Shared, key: u64) -> Flight<'_> {
            assert!(shared.state.lock().unwrap().flights.insert(key));
            Flight { shared, key }
        }

        /// Tasks waiting in the queue.
        fn queued(sched: &Scheduler) -> usize {
            sched.shared.state.lock().unwrap().queue.len()
        }

        /// Spins until `ready` holds; fails the test after a minute instead
        /// of hanging it.
        fn wait_for(what: &str, ready: impl Fn() -> bool) {
            let deadline = Instant::now() + Duration::from_secs(60);
            while !ready() {
                assert!(Instant::now() < deadline, "never: {what}");
                std::thread::yield_now();
            }
        }

        /// Submits `reqs` while the test holds their fingerprint's flight,
        /// waits until the queue has held back every one of them, lands
        /// the flight and returns the answers in submission order.
        fn finish_together(
            sched: &Scheduler,
            key: u64,
            reqs: Vec<SummaryRequest>,
        ) -> Vec<SummaryResponse> {
            let n = reqs.len();
            let held = hold(&sched.shared, key);
            let (reply, done) = channel();
            for (i, req) in reqs.into_iter().enumerate() {
                sched.submit(req, i, reply.clone());
            }
            drop(reply);
            // The worker that queues the last copy passes over every one of
            // them before it sleeps, so none can miss the landing below.
            wait_for("every copy is held back", || {
                sched.stats().flight_waits == n as u64
            });
            drop(held);
            drain(n, done)
        }

        /// A response's wire bytes with its id and wall clock cleared.
        fn wire(mut resp: SummaryResponse) -> String {
            resp.id.clear();
            resp.cost.wall_micros = 0;
            strsum_api::encode_frame(&strsum_api::Frame::Response(resp))
        }

        const CAPPED: LoopOutcome = LoopOutcome::BudgetExhausted(BudgetKind::SolverConflicts);

        /// Two copies of a capped loop, admitted together, run the budget
        /// once: the second finds the first one's verdict in the memo, and
        /// answers it in exactly the bytes an admission-time memo answer has.
        #[test]
        fn concurrent_capped_duplicates_synthesise_once() {
            let (engine, dir) = tmp_engine("flightmemo");
            let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(2));
            let key = key_of(&engine, capped("dup"));
            let mut answers = finish_together(&sched, key, vec![capped("dup"), capped("dup")]);
            answers.sort_by_key(|r| r.origin != Origin::Fresh);
            let [fresh, memo] = <[SummaryResponse; 2]>::try_from(answers).unwrap();
            assert_eq!((fresh.origin, memo.origin), (Origin::Fresh, Origin::Memo));
            assert_eq!(fresh.outcome, CAPPED, "{:?}", fresh.failure);
            assert!(fresh.cost.conflicts > 0);
            assert_eq!(
                (memo.outcome.clone(), &memo.failure),
                (CAPPED, &fresh.failure)
            );
            assert_eq!((memo.cost.conflicts, &memo.telemetry), (0, &None));
            let stats = engine.stats();
            assert_eq!((stats.verdicts_stored, stats.verdict_hits), (1, 1));
            assert_eq!(stats.store_misses, 1);
            assert_eq!(
                sched.stats().flight_waits,
                2,
                "both waited for the test's flight"
            );
            let admitted = match engine.prepare(capped("dup")) {
                Prepared::Done(resp) => resp,
                Prepared::Task(_) => panic!("the memo answers at admission"),
            };
            assert_eq!(admitted.origin, Origin::Memo);
            assert_eq!(wire(memo), wire(admitted), "one memo answer");
            sched.shutdown();
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// A semantic clone (same fingerprint, renamed function) admitted
        /// together with its twin is served the twin's summary as a
        /// re-verified hit instead of synthesising its own.
        #[test]
        fn concurrent_clones_share_one_synthesis() {
            let (engine, dir) = tmp_engine("flightclone");
            let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(2));
            let clone = SummaryRequest::c("b", SKIP.replace("loopFunction", "f"));
            let key = key_of(&engine, clone.clone());
            let mut answers =
                finish_together(&sched, key, vec![SummaryRequest::c("a", SKIP), clone]);
            answers.sort_by_key(|r| r.origin != Origin::Fresh);
            let [fresh, hit] = <[SummaryResponse; 2]>::try_from(answers).unwrap();
            assert_eq!(
                fresh.outcome,
                LoopOutcome::Summarized,
                "{:?}",
                fresh.failure
            );
            assert_eq!(
                (hit.outcome, hit.origin),
                (LoopOutcome::CacheHit, Origin::Store)
            );
            assert!(hit.reverified);
            assert_eq!(hit.summary, fresh.summary);
            let stats = engine.stats();
            assert_eq!((stats.store_misses, stats.store_hits), (1, 1));
            assert_eq!(stats.reverified, stats.store_hits + stats.rejected);
            sched.shutdown();
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// A flight lands while its holder unwinds: the twin parked behind
        /// it is popped and synthesises.
        #[test]
        fn a_panicking_leader_releases_its_followers() {
            let (engine, dir) = tmp_engine("flightpanic");
            let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(1));
            let key = key_of(&engine, SummaryRequest::c("f", SKIP));
            let (reply, done) = channel();
            let leader = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _flight = hold(&sched.shared, key);
                sched.submit(SummaryRequest::c("f", SKIP), 0, reply);
                wait_for("the follower is held back", || {
                    sched.stats().flight_waits == 1
                });
                panic!("leader dies holding the flight");
            }));
            assert!(leader.is_err(), "the leader panicked");
            let (_, resp) = done
                .recv_timeout(Duration::from_secs(60))
                .expect("the unwinding leader's flight landed");
            assert_eq!(resp.outcome, LoopOutcome::Summarized, "{:?}", resp.failure);
            assert_eq!(resp.origin, Origin::Fresh);
            assert_eq!(sched.stats().flight_waits, 1);
            sched.shutdown();
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// A job whose resolution panics answers `crashed`, with the
        /// panic's message as `crash_msg` and `failure`. Its flight lands
        /// and the one worker serves on: the twin parked behind it and a
        /// later unrelated request both answer.
        #[test]
        fn a_panicking_leader_answers_crashed_and_its_worker_serves_on() {
            let (engine, dir) = tmp_engine("flightcrash");
            let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(1));
            let mut leader = match engine.prepare(SummaryRequest::c("leader", SKIP)) {
                Prepared::Task(task) => Box::new(task),
                Prepared::Done(r) => panic!("resolved at admission: {:?}", r.failure),
            };
            // No instant lies `Duration::MAX` ahead: arming the synthesis
            // deadline panics.
            leader.cfg.budget.wall = Duration::MAX;
            let held = hold(&sched.shared, leader.key);
            let (reply, done) = channel();
            {
                let mut st = sched.shared.state.lock().unwrap();
                st.pending += 1;
                st.queue.push_back(Queued {
                    task: leader,
                    index: 0,
                    reply: reply.clone(),
                    waited: false,
                });
            }
            sched.submit(SummaryRequest::c("twin", SKIP), 1, reply.clone());
            wait_for("the leader and its twin are held back", || {
                sched.stats().flight_waits == 2
            });
            drop(held);
            let answer = |what: &str| {
                done.recv_timeout(Duration::from_secs(60))
                    .unwrap_or_else(|e| panic!("{what} unanswered: {e}"))
            };
            let (_, leader) = answer("the panicking leader");
            let LoopOutcome::Crashed(msg) = &leader.outcome else {
                panic!("the leader answered {:?}", leader.outcome);
            };
            assert_eq!(leader.failure.as_ref(), Some(msg));
            let (_, twin) = answer("the parked twin");
            assert_eq!(twin.outcome, LoopOutcome::Summarized, "{:?}", twin.failure);
            sched.submit(SummaryRequest::c("other", UNTIL_NUL), 2, reply);
            let (_, other) = answer("a later request");
            assert_eq!(
                other.outcome,
                LoopOutcome::Summarized,
                "{:?}",
                other.failure
            );
            sched.shutdown();
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// Store-present tasks (the fast lane) and store-bypassing requests
        /// resolve while their fingerprint's flight is held elsewhere.
        #[test]
        fn hits_and_store_bypassing_requests_never_wait() {
            let (engine, dir) = tmp_engine("flightfree");
            let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(1));
            engine.handle(&SummaryRequest::c("warm", SKIP));
            let _held = hold(&sched.shared, key_of(&engine, SummaryRequest::c("k", SKIP)));
            let mut off = SummaryRequest::c("off", SKIP);
            off.flags.store = false;
            let (reply, done) = channel();
            for (i, req) in [SummaryRequest::c("hit", SKIP), off]
                .into_iter()
                .enumerate()
            {
                sched.submit(req, i, reply.clone());
            }
            let mut answers = [(); 2].map(|()| {
                done.recv_timeout(Duration::from_secs(60))
                    .expect("resolved without waiting for the held flight")
            });
            answers.sort_by_key(|(i, _)| *i);
            let [(_, hit), (_, off)] = answers;
            assert_eq!(hit.outcome, LoopOutcome::CacheHit);
            assert_eq!(off.origin, Origin::Fresh);
            assert_eq!(off.summary, hit.summary);
            assert_eq!(sched.stats().flight_waits, 0);
            drop(_held);
            sched.shutdown();
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// With two workers and a fingerprint in flight, its twin waits in
        /// the queue while a worker runs an unrelated request; once the
        /// flight lands, the twin is popped.
        #[test]
        fn parked_twins_leave_the_workers_free() {
            let (engine, dir) = tmp_engine("flightpark");
            let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(2));
            let held = hold(&sched.shared, key_of(&engine, SummaryRequest::c("k", SKIP)));
            let (twins, twins_done) = channel();
            sched.submit(SummaryRequest::c("twin", SKIP), 0, twins);
            wait_for("the twin is held back", || sched.stats().flight_waits == 1);
            let (reply, done) = channel();
            sched.submit(SummaryRequest::c("other", UNTIL_NUL), 0, reply);
            let (_, other) = done
                .recv_timeout(Duration::from_secs(60))
                .expect("an unrelated request runs while the twin waits");
            assert_eq!(
                other.outcome,
                LoopOutcome::Summarized,
                "{:?}",
                other.failure
            );
            assert_eq!(queued(&sched), 1, "the twin is still queued");
            assert!(
                twins_done.try_recv().is_err(),
                "the twin is not answered yet"
            );
            drop(held);
            let [twin] = <[SummaryResponse; 1]>::try_from(drain(1, twins_done)).unwrap();
            assert_eq!(
                (twin.outcome, twin.origin),
                (LoopOutcome::Summarized, Origin::Fresh),
                "{:?}",
                twin.failure
            );
            let stats = sched.stats();
            assert_eq!((stats.flight_waits, stats.heap, stats.fast_lane), (1, 2, 0));
            sched.shutdown();
            std::fs::remove_dir_all(&dir).unwrap();
        }

        /// A twin still parked when intake closes answers once its flight
        /// lands: the workers stay while a flight is out.
        #[test]
        fn a_closed_scheduler_waits_for_flights_to_land() {
            let (engine, dir) = tmp_engine("flightclose");
            let sched = Scheduler::start(Arc::clone(&engine), SchedOptions::scheduled(2));
            let shared = Arc::clone(&sched.shared);
            let held = hold(&shared, key_of(&engine, SummaryRequest::c("k", SKIP)));
            let (reply, done) = channel();
            sched.submit(SummaryRequest::c("twin", SKIP), 0, reply);
            wait_for("the twin is held back", || sched.stats().flight_waits == 1);
            let closing = std::thread::spawn(move || sched.shutdown());
            wait_for("intake is closed", || shared.state.lock().unwrap().closed);
            // Give a worker that would leave on close the time to leave.
            std::thread::sleep(Duration::from_millis(200));
            drop(held);
            let (_, twin) = done
                .recv_timeout(Duration::from_secs(60))
                .expect("the parked twin answered after intake closed");
            assert_eq!(twin.outcome, LoopOutcome::Summarized, "{:?}", twin.failure);
            closing.join().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
