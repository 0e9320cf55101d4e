//! The daemon shell around the [`Engine`]: the cross-request
//! [`Scheduler`] plus the line-framed front ends (stdin/stdout and a
//! Unix socket) that speak the `strsum-api` wire protocol.
//!
//! Responses preserve request order within a frame (batch responses are
//! index-slotted), while different frames and different connections make
//! progress concurrently — the run queue is shared, so four clients
//! replaying a corpus each keep every worker busy, and the scheduler
//! (not arrival order) decides what runs next. See [`crate::sched`] for
//! the queueing policy; [`Daemon::start`] uses the fast lane and the
//! priority queue, [`Daemon::with_options`] pins any other
//! configuration.
//!
//! Shutdown is a drain, not an abort: a `shutdown` frame (or EOF) stops
//! intake on that connection; the daemon then finishes every request
//! already admitted, answers it, compacts the store, and only then
//! exits. No accepted request is ever dropped.

use std::io::{BufRead, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use strsum_api::{
    decode_frame, encode_frame, BatchResponse, Frame, SummaryRequest, SummaryResponse, WireError,
};
use strsum_obs::names;

use crate::engine::Engine;
use crate::sched::{SchedOptions, SchedStats, Scheduler};

/// Default per-connection idle timeout for [`serve_unix_socket`]: a
/// connection that sends nothing for this long is closed (its admitted
/// requests still answer into the void; the daemon keeps serving).
pub const DEFAULT_IDLE_TIMEOUT: Duration = Duration::from_secs(300);

/// The most connections [`serve_unix_socket`] serves at once, far above
/// the two to four clients the benchmarks and audits run. Not a knob: it
/// bounds the daemon's threads whatever clients do. A connection over the
/// cap gets an `error` frame and is closed, counted on
/// [`names::SCHED_CONN_REFUSED`].
pub const MAX_CONNECTIONS: usize = 64;

/// How often a connection thread wakes to check idleness and the stop
/// flag while blocked on a quiet socket.
const READ_TICK: Duration = Duration::from_millis(100);

/// The largest frame (one line, newline excluded) the daemon reads:
/// 4 MiB, over 160 times the whole 127-loop corpus sent as one batch
/// frame (25.6 kB). A longer line gets an `error` frame and the connection is
/// closed, so a client cannot make the daemon buffer without bound.
pub const MAX_FRAME_BYTES: usize = 4 << 20;

/// Reads from `reader` into `buf` up to and including the next newline,
/// never letting `buf` grow past [`MAX_FRAME_BYTES`] + 1 bytes. Bytes
/// read before an error stay in `buf`, so a read interrupted by a
/// timeout resumes where it stopped.
fn read_frame(reader: &mut impl BufRead, buf: &mut Vec<u8>) -> std::io::Result<usize> {
    let room = (MAX_FRAME_BYTES + 1).saturating_sub(buf.len()) as u64;
    std::io::Read::take(reader, room).read_until(b'\n', buf)
}

/// Whether `buf` holds more than a frame's worth of bytes with no
/// newline among them.
fn oversized(buf: &[u8]) -> bool {
    buf.len() > MAX_FRAME_BYTES && buf.last() != Some(&b'\n')
}

/// The error frame answering an oversized line, counted on
/// [`names::SCHED_FRAME_OVERSIZED`].
fn oversized_error() -> Frame {
    strsum_obs::counter(names::SCHED_FRAME_OVERSIZED, "server", 1);
    protocol_error(
        None,
        &format!("frame exceeds {MAX_FRAME_BYTES} bytes; closing the connection"),
    )
}

/// What one input line asks of the daemon.
enum LineReply {
    /// A blank line: nothing to answer.
    Blank,
    /// Write this frame back (boxed: a frame is large, the other
    /// variants empty).
    Frame(Box<Frame>),
    /// A `shutdown` frame: stop intake.
    Shutdown,
}

/// The scheduler and its intake. Cloneable handle semantics come from
/// `Arc`-wrapping by callers; the daemon itself is consumed by
/// [`Daemon::shutdown`].
pub struct Daemon {
    engine: Arc<Engine>,
    sched: Scheduler,
}

impl Daemon {
    /// Spawns `workers` threads (min 1) serving requests on `engine`
    /// under the fast lane and the priority queue.
    pub fn start(engine: Arc<Engine>, workers: usize) -> Daemon {
        Daemon::with_options(engine, SchedOptions::scheduled(workers))
    }

    /// Spawns a daemon under an explicit scheduler configuration (the
    /// FIFO baseline, a custom queue depth).
    pub fn with_options(engine: Arc<Engine>, opts: SchedOptions) -> Daemon {
        let sched = Scheduler::start(Arc::clone(&engine), opts);
        Daemon { engine, sched }
    }

    /// The engine this daemon serves.
    pub fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Scheduler counters accumulated so far.
    pub fn sched_stats(&self) -> SchedStats {
        self.sched.stats()
    }

    /// Admits `requests` and blocks until all are answered, returning
    /// responses in request order (whatever order the scheduler ran
    /// them in).
    pub fn submit(&self, requests: Vec<SummaryRequest>) -> Vec<SummaryResponse> {
        let n = requests.len();
        let (reply, done) = channel();
        for (index, req) in requests.into_iter().enumerate() {
            self.sched.submit(req, index, reply.clone());
        }
        drop(reply);
        let mut slots: Vec<Option<SummaryResponse>> = (0..n).map(|_| None).collect();
        for (index, resp) in done {
            slots[index] = Some(resp);
        }
        slots
            .into_iter()
            .map(|s| s.expect("every job answers exactly once"))
            .collect()
    }

    /// Serves one request frame, producing the frame to write back, or
    /// `None` for a `shutdown` frame (the caller stops intake).
    pub fn handle_frame(&self, frame: Frame) -> Option<Frame> {
        match frame {
            Frame::Summary(req) => {
                let mut responses = self.submit(vec![req]);
                Some(Frame::Response(responses.pop().expect("one in, one out")))
            }
            Frame::Batch(batch) => Some(Frame::BatchResponse(BatchResponse {
                id: batch.id,
                responses: self.submit(batch.requests),
            })),
            Frame::Shutdown => None,
            // A response frame arriving at the server is a client bug.
            Frame::Response(r) => Some(protocol_error(
                Some(r.id),
                "response frames flow server to client",
            )),
            Frame::BatchResponse(b) => Some(protocol_error(
                Some(b.id),
                "batch_response frames flow server to client",
            )),
            Frame::Error(e) => Some(Frame::Error(e)),
        }
    }

    /// Answers one complete input line (newline optional).
    fn answer_line(&self, line: &[u8]) -> LineReply {
        let Ok(text) = std::str::from_utf8(line) else {
            return LineReply::Frame(Box::new(protocol_error(None, "frame is not valid UTF-8")));
        };
        let text = text.trim();
        if text.is_empty() {
            return LineReply::Blank;
        }
        match decode_frame(text) {
            Ok(frame) => match self.handle_frame(frame) {
                Some(reply) => LineReply::Frame(Box::new(reply)),
                None => LineReply::Shutdown,
            },
            Err(e) => LineReply::Frame(Box::new(protocol_error(None, &e.message))),
        }
    }

    /// Reads line frames from `input` and writes answer frames to
    /// `output` until EOF or a `shutdown` frame. Malformed lines get an
    /// `error` frame; the connection keeps serving (a typo'd frame must
    /// not kill a session). A line over [`MAX_FRAME_BYTES`] gets an
    /// `error` frame and ends the session. Returns whether a `shutdown`
    /// frame was seen.
    pub fn serve_lines(
        &self,
        mut input: impl BufRead,
        mut output: impl Write,
    ) -> std::io::Result<bool> {
        let mut buf = Vec::new();
        loop {
            buf.clear();
            if read_frame(&mut input, &mut buf)? == 0 {
                return Ok(false); // EOF
            }
            if oversized(&buf) {
                writeln!(output, "{}", encode_frame(&oversized_error()))?;
                output.flush()?;
                return Ok(false);
            }
            let reply = match self.answer_line(&buf) {
                LineReply::Blank => continue,
                LineReply::Frame(reply) => reply,
                LineReply::Shutdown => return Ok(true), // stop intake
            };
            writeln!(output, "{}", encode_frame(&reply))?;
            output.flush()?;
        }
    }

    /// Stops intake, drains the run queue (every admitted request still
    /// answers), joins the workers, and compacts the store.
    pub fn shutdown(self) -> std::io::Result<()> {
        let Daemon { engine, sched } = self;
        sched.shutdown();
        engine.store().compact()
    }
}

fn protocol_error(id: Option<String>, message: &str) -> Frame {
    Frame::Error(WireError {
        id,
        message: message.to_string(),
    })
}

/// Serves a Unix socket at `path` until `stop` goes true (e.g. by a
/// connection seeing a `shutdown` frame), spawning one serving thread
/// per connection, at most [`MAX_CONNECTIONS`] at a time; finished
/// connection threads are reaped on every accept iteration. A connection
/// that stays silent for `idle` is closed — a stalled client cannot pin a
/// thread (or hold the daemon's drain hostage) forever. Joins all
/// connection threads before returning, so a caller that then calls
/// [`Daemon::shutdown`] gets the full drain.
pub fn serve_unix_socket(
    daemon: &Arc<Daemon>,
    path: &std::path::Path,
    stop: &Arc<AtomicBool>,
    idle: Duration,
) -> std::io::Result<()> {
    let _ = std::fs::remove_file(path);
    let listener = std::os::unix::net::UnixListener::bind(path)?;
    listener.set_nonblocking(true)?;
    let mut conns: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        for done in conns.extract_if(.., |c| c.is_finished()) {
            let _ = done.join();
        }
        match listener.accept() {
            Ok((stream, _)) if conns.len() >= MAX_CONNECTIONS => refuse_connection(stream),
            Ok((stream, _)) => {
                let daemon = Arc::clone(daemon);
                let stop = Arc::clone(stop);
                conns.push(std::thread::spawn(move || {
                    if let Ok(true) = serve_connection(&daemon, stream, &stop, idle) {
                        stop.store(true, Ordering::SeqCst);
                    }
                }));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(std::time::Duration::from_millis(25));
            }
            Err(e) => return Err(e),
        }
    }
    for c in conns {
        let _ = c.join();
    }
    let _ = std::fs::remove_file(path);
    Ok(())
}

/// Answers a connection over [`MAX_CONNECTIONS`] with an `error` frame
/// and closes it. Input the client already sent is drained for at most
/// [`READ_TICK`] first: closing a Unix socket with unread input resets
/// the peer, which could then lose the frame.
fn refuse_connection(stream: std::os::unix::net::UnixStream) {
    strsum_obs::counter(names::SCHED_CONN_REFUSED, "server", 1);
    let refusal = protocol_error(
        None,
        &format!("daemon is serving {MAX_CONNECTIONS} connections; closing this one"),
    );
    let mut io = &stream;
    let _ = writeln!(io, "{}", encode_frame(&refusal));
    let _ = stream.shutdown(std::net::Shutdown::Write);
    let deadline = std::time::Instant::now() + READ_TICK;
    let mut sink = [0u8; 4096];
    loop {
        let left = deadline.saturating_duration_since(std::time::Instant::now());
        if left.is_zero() || stream.set_read_timeout(Some(left)).is_err() {
            return;
        }
        match std::io::Read::read(&mut io, &mut sink) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

/// Serves one socket connection with an idle timeout: reads tick every
/// [`READ_TICK`] so the thread notices both a quiet client (close after
/// `idle` of silence) and a daemon-wide stop. A line over
/// [`MAX_FRAME_BYTES`] gets an `error` frame and closes the connection.
/// Returns whether a `shutdown` frame was seen, like
/// [`Daemon::serve_lines`].
fn serve_connection(
    daemon: &Daemon,
    stream: std::os::unix::net::UnixStream,
    stop: &AtomicBool,
    idle: Duration,
) -> std::io::Result<bool> {
    stream.set_nonblocking(false)?;
    stream.set_read_timeout(Some(READ_TICK.min(idle.max(Duration::from_millis(1)))))?;
    let mut reader = std::io::BufReader::new(stream.try_clone()?);
    let mut out = &stream;
    let mut idled = Duration::ZERO;
    // `line` persists across timeouts: a tick can interrupt mid-line,
    // leaving a partial read that the next tick completes.
    let mut line = Vec::new();
    loop {
        match read_frame(&mut reader, &mut line) {
            Ok(0) => return Ok(false), // EOF: client closed
            Ok(_) => {
                idled = Duration::ZERO;
                if oversized(&line) {
                    writeln!(out, "{}", encode_frame(&oversized_error()))?;
                    out.flush()?;
                    return Ok(false);
                }
                match daemon.answer_line(&line) {
                    LineReply::Blank => {}
                    LineReply::Frame(reply) => {
                        writeln!(out, "{}", encode_frame(&reply))?;
                        out.flush()?;
                    }
                    LineReply::Shutdown => return Ok(true),
                }
                line.clear();
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if stop.load(Ordering::SeqCst) {
                    return Ok(false); // daemon stopping: drop the wait
                }
                idled += READ_TICK;
                if idled >= idle {
                    strsum_obs::counter(names::SCHED_IDLE_CLOSED, "server", 1);
                    return Ok(false);
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use strsum_api::BatchRequest;
    use strsum_core::{LoopOutcome, SynthesisConfig};

    fn test_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("strsum-daemon-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn test_daemon(tag: &str, workers: usize) -> (Daemon, std::path::PathBuf) {
        let dir = test_dir(tag);
        let engine = Engine::open(&dir, 4, SynthesisConfig::default()).unwrap();
        (Daemon::start(Arc::new(engine), workers), dir)
    }

    const SKIP: &str = "char* loopFunction(char* s) {\n  while (*s == ' ') s++;\n  return s;\n}\n";
    const UNTIL_NUL: &str = "char* loopFunction(char* s) {\n  while (*s) s++;\n  return s;\n}\n";

    #[test]
    fn batch_preserves_request_order_across_workers() {
        let (daemon, dir) = test_daemon("order", 4);
        let requests: Vec<_> = (0..12)
            .map(|i| {
                SummaryRequest::c(format!("req{i}"), if i % 2 == 0 { SKIP } else { UNTIL_NUL })
            })
            .collect();
        let responses = daemon.submit(requests);
        assert_eq!(responses.len(), 12);
        for (i, resp) in responses.iter().enumerate() {
            assert_eq!(resp.id, format!("req{i}"), "order preserved");
            assert!(
                matches!(
                    resp.outcome,
                    LoopOutcome::Summarized | LoopOutcome::CacheHit
                ),
                "req{i}: {:?}",
                resp.outcome
            );
        }
        assert_eq!(daemon.sched_stats().admitted, 12);
        daemon.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn line_protocol_end_to_end_with_drain() {
        let (daemon, dir) = test_daemon("lines", 2);
        let batch = Frame::Batch(BatchRequest {
            id: "b0".into(),
            requests: vec![
                SummaryRequest::c("x", SKIP),
                SummaryRequest::c("y", "not c at all"),
            ],
        });
        let input = format!(
            "{}\nnot a frame\n{}\n",
            encode_frame(&batch),
            encode_frame(&Frame::Shutdown)
        );
        let mut output = Vec::new();
        let saw_shutdown = daemon
            .serve_lines(std::io::Cursor::new(input), &mut output)
            .unwrap();
        assert!(saw_shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(lines.len(), 2, "batch answer + error frame");
        match decode_frame(lines[0]).unwrap() {
            Frame::BatchResponse(b) => {
                assert_eq!(b.id, "b0");
                assert_eq!(b.responses[0].id, "x");
                assert_eq!(b.responses[0].outcome, LoopOutcome::Summarized);
                assert_eq!(b.responses[1].outcome, LoopOutcome::NotMemoryless);
            }
            other => panic!("expected batch_response, got {other:?}"),
        }
        assert!(matches!(decode_frame(lines[1]).unwrap(), Frame::Error(_)));
        daemon.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn unix_socket_serves_concurrent_clients() {
        use std::os::unix::net::UnixStream;
        let (daemon, dir) = test_daemon("sock", 2);
        let daemon = Arc::new(daemon);
        let stop = Arc::new(AtomicBool::new(false));
        let sock = dir.join("strsum.sock");
        let acceptor = {
            let daemon = Arc::clone(&daemon);
            let sock = sock.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                serve_unix_socket(&daemon, &sock, &stop, DEFAULT_IDLE_TIMEOUT)
            })
        };
        while !sock.exists() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let clients: Vec<_> = (0..3)
            .map(|c| {
                let sock = sock.clone();
                std::thread::spawn(move || {
                    let stream = UnixStream::connect(&sock).unwrap();
                    let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
                    let mut w = &stream;
                    let req = Frame::Summary(SummaryRequest::c(format!("c{c}"), SKIP));
                    writeln!(w, "{}", encode_frame(&req)).unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    match decode_frame(line.trim()).unwrap() {
                        Frame::Response(r) => {
                            assert_eq!(r.id, format!("c{c}"));
                            assert!(r.summary.is_some(), "{:?}", r.failure);
                            r.summary
                        }
                        other => panic!("expected response, got {other:?}"),
                    }
                })
            })
            .collect();
        let summaries: Vec<_> = clients.into_iter().map(|c| c.join().unwrap()).collect();
        assert!(
            summaries.windows(2).all(|w| w[0] == w[1]),
            "all clients see byte-identical summaries"
        );
        stop.store(true, Ordering::SeqCst);
        acceptor.join().unwrap().unwrap();
        assert!(!sock.exists(), "socket cleaned up");
        match Arc::try_unwrap(daemon) {
            Ok(d) => d.shutdown().unwrap(),
            Err(_) => panic!("no outstanding daemon handles"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Satellite: a client that goes quiet is disconnected by the
    /// per-connection idle timeout; the daemon itself keeps serving.
    #[test]
    fn stalled_connection_is_closed_by_the_idle_timeout() {
        use std::os::unix::net::UnixStream;
        let (daemon, dir) = test_daemon("idle", 1);
        let daemon = Arc::new(daemon);
        let stop = Arc::new(AtomicBool::new(false));
        let sock = dir.join("idle.sock");
        let acceptor = {
            let daemon = Arc::clone(&daemon);
            let sock = sock.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                serve_unix_socket(&daemon, &sock, &stop, Duration::from_millis(200))
            })
        };
        while !sock.exists() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        let stream = UnixStream::connect(&sock).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut w = &stream;
        // One served request proves the connection is live...
        writeln!(
            w,
            "{}",
            encode_frame(&Frame::Summary(SummaryRequest::c("live", SKIP)))
        )
        .unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(
            decode_frame(line.trim()).unwrap(),
            Frame::Response(_)
        ));
        // ...then silence: the server closes the connection (EOF on our
        // side) once the idle budget runs out.
        line.clear();
        let n = reader.read_line(&mut line).unwrap();
        assert_eq!(n, 0, "server hung up on the stalled connection");
        stop.store(true, Ordering::SeqCst);
        acceptor.join().unwrap().unwrap();
        match Arc::try_unwrap(daemon) {
            Ok(d) => d.shutdown().unwrap(),
            Err(_) => panic!("no outstanding daemon handles"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Normalizes the one timing-variant response field so byte
    /// comparison checks everything else the wire carries.
    fn normalized(mut resp: SummaryResponse) -> String {
        resp.cost.wall_micros = 0;
        encode_frame(&Frame::Response(resp))
    }

    /// Satellite (determinism): identical response bytes at workers ∈
    /// {1, 2, 4}. Every synthesis runs serial, so even solver telemetry
    /// is invariant, and the comparison is whole-frame bytes (wall clock
    /// zeroed).
    #[test]
    fn responses_are_byte_identical_across_worker_counts() {
        let sources = [SKIP, UNTIL_NUL, "not c at all", SKIP, UNTIL_NUL, SKIP];
        let requests = |tag: &str| -> Vec<SummaryRequest> {
            sources
                .iter()
                .enumerate()
                .map(|(i, src)| {
                    let mut r = SummaryRequest::c(format!("{tag}{i}"), *src);
                    r.id = format!("r{i}"); // same ids across runs
                    r.flags.store = false; // no cross-request store effects
                    r
                })
                .collect()
        };
        let mut runs: Vec<Vec<String>> = Vec::new();
        for workers in [1usize, 2, 4] {
            let dir = test_dir(&format!("det{workers}"));
            let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
            let daemon = Daemon::with_options(Arc::new(engine), SchedOptions::scheduled(workers));
            let responses = daemon.submit(requests("w"));
            runs.push(responses.into_iter().map(normalized).collect());
            daemon.shutdown().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
        }
        assert_eq!(runs[0], runs[1], "1 worker vs 2 workers");
        assert_eq!(runs[0], runs[2], "1 worker vs 4 workers");
    }

    /// Satellite (determinism): admission order doesn't change any
    /// response — submitting a permutation returns the permuted slots
    /// with byte-identical per-id frames.
    #[test]
    fn admission_order_permutations_do_not_change_responses() {
        use std::collections::HashMap;
        let sources = [SKIP, UNTIL_NUL, "int main() { return 0; }", SKIP];
        let build = |order: &[usize]| -> Vec<SummaryRequest> {
            order
                .iter()
                .map(|&i| {
                    let mut r = SummaryRequest::c(format!("p{i}"), sources[i]);
                    r.flags.store = false;
                    r
                })
                .collect()
        };
        let serve = |tag: &str, order: &[usize]| -> HashMap<String, String> {
            let dir = test_dir(tag);
            let engine = Engine::open(&dir, 2, SynthesisConfig::default()).unwrap();
            let daemon = Daemon::with_options(Arc::new(engine), SchedOptions::scheduled(2));
            let responses = daemon.submit(build(order));
            // Slot order must match admission order before keying by id.
            for (slot, &i) in order.iter().enumerate() {
                assert_eq!(responses[slot].id, format!("p{i}"), "slotted");
            }
            let map = responses
                .into_iter()
                .map(|r| (r.id.clone(), normalized(r)))
                .collect();
            daemon.shutdown().unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            map
        };
        let forward = serve("perm-fwd", &[0, 1, 2, 3]);
        let shuffled = serve("perm-shuf", &[2, 0, 3, 1]);
        let reversed = serve("perm-rev", &[3, 2, 1, 0]);
        assert_eq!(forward, shuffled);
        assert_eq!(forward, reversed);
    }

    /// Starts `daemon` on a socket in `dir`; returns the stop flag, the
    /// acceptor thread and the socket path.
    fn listen(
        daemon: &Arc<Daemon>,
        dir: &std::path::Path,
    ) -> (
        Arc<AtomicBool>,
        JoinHandle<std::io::Result<()>>,
        std::path::PathBuf,
    ) {
        let stop = Arc::new(AtomicBool::new(false));
        let sock = dir.join("d.sock");
        let acceptor = {
            let daemon = Arc::clone(daemon);
            let sock = sock.clone();
            let stop = Arc::clone(&stop);
            std::thread::spawn(move || {
                serve_unix_socket(&daemon, &sock, &stop, DEFAULT_IDLE_TIMEOUT)
            })
        };
        while !sock.exists() {
            std::thread::sleep(std::time::Duration::from_millis(5));
        }
        (stop, acceptor, sock)
    }

    fn close(daemon: Arc<Daemon>, stop: &AtomicBool, acceptor: JoinHandle<std::io::Result<()>>) {
        stop.store(true, Ordering::SeqCst);
        acceptor.join().unwrap().unwrap();
        match Arc::try_unwrap(daemon) {
            Ok(d) => d.shutdown().unwrap(),
            Err(_) => panic!("no outstanding daemon handles"),
        }
    }

    /// A refusal answered by the scheduler straight from `prepare`
    /// reports its service time like any other answer.
    #[test]
    fn refusals_over_the_socket_report_service_time() {
        use std::os::unix::net::UnixStream;
        let (daemon, dir) = test_daemon("refusal", 1);
        let daemon = Arc::new(daemon);
        let (stop, acceptor, sock) = listen(&daemon, &dir);
        // A long valid prefix keeps the compile measurably above 1 µs.
        let source = "int g(int x) { return x + 1; }\n".repeat(200) + "while (*s ++; garbage";
        let stream = UnixStream::connect(&sock).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut w = &stream;
        let req = Frame::Summary(SummaryRequest::c("bad", source));
        writeln!(w, "{}", encode_frame(&req)).unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match decode_frame(line.trim()).unwrap() {
            Frame::Response(r) => {
                assert_eq!(r.outcome, LoopOutcome::NotMemoryless);
                assert!(r.failure.unwrap().contains("does not compile"));
                assert!(r.cost.wall_micros > 0, "refusal reports 0 µs");
            }
            other => panic!("expected response, got {other:?}"),
        }
        drop((reader, stream));
        close(daemon, &stop, acceptor);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A line over the frame cap gets a protocol error and a closed
    /// connection; the daemon keeps serving other connections.
    #[test]
    fn oversized_frames_are_refused_and_the_connection_closed() {
        use std::os::unix::net::UnixStream;
        let (daemon, dir) = test_daemon("oversized", 1);
        let daemon = Arc::new(daemon);
        let (stop, acceptor, sock) = listen(&daemon, &dir);
        let stream = UnixStream::connect(&sock).unwrap();
        let writer = {
            let stream = stream.try_clone().unwrap();
            std::thread::spawn(move || {
                let mut w = &stream;
                let _ = w.write_all(&vec![b'x'; MAX_FRAME_BYTES + 1]);
            })
        };
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match decode_frame(line.trim()).unwrap() {
            Frame::Error(e) => assert!(e.message.contains("exceeds"), "{}", e.message),
            other => panic!("expected an error frame, got {other:?}"),
        }
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");
        writer.join().unwrap();
        // A new connection is served as usual.
        let stream = UnixStream::connect(&sock).unwrap();
        let mut reader = std::io::BufReader::new(stream.try_clone().unwrap());
        let mut w = &stream;
        let req = Frame::Summary(SummaryRequest::c("after", SKIP));
        writeln!(w, "{}", encode_frame(&req)).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(matches!(
            decode_frame(line.trim()).unwrap(),
            Frame::Response(_)
        ));
        drop((reader, stream));
        close(daemon, &stop, acceptor);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Connections past [`MAX_CONNECTIONS`] are refused with an error
    /// frame and closed; once a live connection ends, its thread is
    /// reaped and a new connection is served again.
    #[test]
    fn connections_over_the_cap_are_refused_and_slots_are_reaped() {
        use std::os::unix::net::UnixStream;
        let (daemon, dir) = test_daemon("conncap", 1);
        let daemon = Arc::new(daemon);
        let (stop, acceptor, sock) = listen(&daemon, &dir);
        let ask = |stream: &UnixStream, id: &str| -> Frame {
            let mut w = stream;
            let req = Frame::Summary(SummaryRequest::c(id, SKIP));
            // A refused connection may already be closed for writing.
            let _ = writeln!(w, "{}", encode_frame(&req));
            let mut line = String::new();
            std::io::BufReader::new(stream)
                .read_line(&mut line)
                .unwrap();
            decode_frame(line.trim()).unwrap()
        };
        // Every held connection is answered, so each has been accepted
        // (and holds a slot) before the next one connects.
        let mut held: Vec<UnixStream> = Vec::new();
        for i in 0..MAX_CONNECTIONS {
            let stream = UnixStream::connect(&sock).unwrap();
            assert!(matches!(ask(&stream, &format!("c{i}")), Frame::Response(_)));
            held.push(stream);
        }
        let over = UnixStream::connect(&sock).unwrap();
        match ask(&over, "over") {
            Frame::Error(e) => assert!(e.message.contains("connections"), "{}", e.message),
            other => panic!("expected an error frame, got {other:?}"),
        }
        let mut line = String::new();
        let closed = std::io::BufReader::new(&over).read_line(&mut line).unwrap();
        assert_eq!(closed, 0, "refused and closed");
        // Free one slot: once its thread has exited and been reaped, a
        // new connection is served.
        held.pop();
        let mut served = false;
        for attempt in 0..200 {
            let stream = UnixStream::connect(&sock).unwrap();
            if let Frame::Response(_) = ask(&stream, &format!("again{attempt}")) {
                served = true;
                break;
            }
            std::thread::sleep(std::time::Duration::from_millis(25));
        }
        assert!(served, "a freed slot is reused");
        drop(held);
        close(daemon, &stop, acceptor);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// On stdio too: a bad-UTF-8 line is answered and the session goes
    /// on; an oversized line is answered and ends the session.
    #[test]
    fn serve_lines_bounds_frames_and_survives_bad_utf8() {
        let (daemon, dir) = test_daemon("linecap", 1);
        let frame = encode_frame(&Frame::Summary(SummaryRequest::c("y", "not c at all")));
        let mut input = b"\xff\xfe\n".to_vec();
        input.extend_from_slice(frame.as_bytes());
        input.push(b'\n');
        input.extend(std::iter::repeat_n(b'x', MAX_FRAME_BYTES + 1));
        input.push(b'\n');
        input.extend_from_slice(frame.as_bytes());
        input.push(b'\n');
        let mut output = Vec::new();
        let saw_shutdown = daemon
            .serve_lines(std::io::Cursor::new(input), &mut output)
            .unwrap();
        assert!(!saw_shutdown);
        let lines: Vec<&str> = std::str::from_utf8(&output).unwrap().lines().collect();
        assert_eq!(
            lines.len(),
            3,
            "utf-8 error, response, size error: {lines:?}"
        );
        assert!(matches!(decode_frame(lines[0]).unwrap(), Frame::Error(_)));
        assert!(matches!(
            decode_frame(lines[1]).unwrap(),
            Frame::Response(_)
        ));
        match decode_frame(lines[2]).unwrap() {
            Frame::Error(e) => assert!(e.message.contains("exceeds"), "{}", e.message),
            other => panic!("expected an error frame, got {other:?}"),
        }
        daemon.shutdown().unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
