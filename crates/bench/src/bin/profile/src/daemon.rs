//! The real `strsum-server` process, driven over its Unix socket, plus
//! what `/proc` says about a child process.

use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use strsum_api::{decode_frame, encode_frame, Frame, SummaryResponse};

use crate::workload::CLIENTS;

/// How long a spawned process may take to become ready, and a drain to
/// finish, before the run gives up on it.
const STARTUP_LIMIT: Duration = Duration::from_secs(30);
const DRAIN_LIMIT: Duration = Duration::from_secs(60);

/// Longest wait for one reply: the 30 s request budget plus slack.
const REPLY_LIMIT: Duration = Duration::from_secs(90);

/// Linux reports `utime`/`stime` in clock ticks of `USER_HZ`, which is
/// 100 on every supported architecture.
const TICKS_PER_SEC: f64 = 100.0;

/// CPU seconds (`utime + stime`) a live process has used so far.
pub fn cpu_seconds(pid: u32) -> Result<f64, String> {
    let stat = std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .map_err(|e| format!("/proc/{pid}/stat: {e}"))?;
    // Fields after the parenthesised command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<u64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| format!("/proc/{pid}/stat: no field {}", i + 3))
    };
    // utime is field 14, stime field 15.
    Ok((tick(11)? + tick(12)?) as f64 / TICKS_PER_SEC)
}

/// Peak resident set (`VmHWM`) of a live process, in MiB.
pub fn peak_rss_mb(pid: u32) -> Result<f64, String> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map_err(|e| format!("/proc/{pid}/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| format!("/proc/{pid}/status: no VmHWM"))
}

/// Counters from the daemon's `drained;` line on stderr.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Drain {
    pub hits: u64,
    pub misses: u64,
    pub reverified: u64,
    pub rejected: u64,
    pub fast_lane: u64,
    pub heap: u64,
    pub cubed: u64,
}

impl Drain {
    /// Parses `strsum-server: drained; hits H misses M reverified R
    /// rejected X; fast-lane F heap P cubed C`.
    pub fn parse(stderr: &str) -> Option<Drain> {
        let line = stderr.lines().find(|l| l.contains("drained;"))?;
        let words: Vec<&str> = line.split_whitespace().collect();
        let value = |key: &str| -> Option<u64> {
            let i = words.iter().position(|w| *w == key)?;
            words.get(i + 1)?.trim_end_matches(';').parse().ok()
        };
        Some(Drain {
            hits: value("hits")?,
            misses: value("misses")?,
            reverified: value("reverified")?,
            rejected: value("rejected")?,
            fast_lane: value("fast-lane")?,
            heap: value("heap")?,
            cubed: value("cubed")?,
        })
    }

    /// Field-wise sum.
    pub fn add(&mut self, o: &Drain) {
        self.hits += o.hits;
        self.misses += o.misses;
        self.reverified += o.reverified;
        self.rejected += o.rejected;
        self.fast_lane += o.fast_lane;
        self.heap += o.heap;
        self.cubed += o.cubed;
    }
}

/// A running `strsum-server --socket` process. Dropping it without
/// [`Server::shutdown`] kills the process and waits for it.
pub struct Server {
    child: Child,
    stderr: Option<JoinHandle<String>>,
    /// The socket the daemon listens on.
    pub socket: PathBuf,
    /// Spawn until the socket accepted a connection.
    pub setup: Duration,
}

impl Server {
    /// Spawns the daemon over `store` with [`CLIENTS`] workers and waits
    /// until its socket accepts.
    pub fn spawn(bin: &Path, store: &Path, socket: &Path) -> Result<Server, String> {
        let _ = std::fs::remove_file(socket);
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--store")
            .arg(store)
            .args(["--workers", &CLIENTS.to_string(), "--socket"])
            .arg(socket)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().map(|mut pipe| {
            std::thread::spawn(move || {
                let mut text = String::new();
                let _ = pipe.read_to_string(&mut text);
                text
            })
        });
        let mut server = Server {
            child,
            stderr,
            socket: socket.to_path_buf(),
            setup: Duration::ZERO,
        };
        while UnixStream::connect(socket).is_err() {
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("strsum-server exited during startup: {status}"));
            }
            if start.elapsed() > STARTUP_LIMIT {
                return Err("strsum-server did not open its socket".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        server.setup = start.elapsed();
        Ok(server)
    }

    /// The daemon's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Sends a `shutdown` frame, waits for the drain, and returns the
    /// counters the daemon printed.
    pub fn shutdown(mut self) -> Result<Drain, String> {
        let mut conn = UnixStream::connect(&self.socket).map_err(|e| format!("connect: {e}"))?;
        conn.write_all(format!("{}\n", encode_frame(&Frame::Shutdown)).as_bytes())
            .map_err(|e| format!("send shutdown: {e}"))?;
        drop(conn);
        let start = Instant::now();
        let status = loop {
            match self.child.try_wait() {
                Ok(Some(status)) => break status,
                Ok(None) if start.elapsed() < DRAIN_LIMIT => {
                    std::thread::sleep(Duration::from_millis(2))
                }
                Ok(None) => return Err("strsum-server did not drain".into()),
                Err(e) => return Err(format!("wait: {e}")),
            }
        };
        let stderr = self
            .stderr
            .take()
            .and_then(|h| h.join().ok())
            .unwrap_or_default();
        if !status.success() {
            return Err(format!("strsum-server exited {status}: {stderr}"));
        }
        Drain::parse(&stderr).ok_or_else(|| format!("no drain line in: {stderr}"))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stderr.take() {
            let _ = h.join();
        }
    }
}

/// One request frame and its reply, as the client saw them.
pub struct Exchange {
    /// The request ids the frame carried, in order.
    pub ids: Vec<String>,
    /// Send to reply.
    pub latency: Duration,
    /// Request line length, newline included.
    pub sent_bytes: usize,
    /// Reply line length, newline included.
    pub recv_bytes: usize,
    /// One response per request id, or why there is none.
    pub reply: Result<Vec<SummaryResponse>, String>,
}

/// One client connection.
pub struct Client {
    reader: BufReader<UnixStream>,
    writer: UnixStream,
}

impl Client {
    /// Connects to `socket` and waits until the daemon serves the
    /// connection. The daemon accepts on a 25 ms polling loop, so a
    /// request sent right after `connect` would wait for the next poll
    /// and time connection set-up along with itself: one round trip of
    /// an undecodable line, which the daemon answers with an error frame
    /// without touching the engine, settles that first.
    pub fn connect(socket: &Path) -> Result<Client, String> {
        let mut writer = UnixStream::connect(socket).map_err(|e| format!("connect: {e}"))?;
        writer
            .set_read_timeout(Some(REPLY_LIMIT))
            .map_err(|e| format!("set timeout: {e}"))?;
        let mut reader = BufReader::new(writer.try_clone().map_err(|e| format!("clone: {e}"))?);
        let mut line = String::new();
        writer
            .write_all(b"ping\n")
            .and_then(|()| reader.read_line(&mut line))
            .map_err(|e| format!("first round trip: {e}"))?;
        match decode_frame(line.trim_end()) {
            Ok(Frame::Error(_)) => Ok(Client { reader, writer }),
            other => Err(format!("unexpected answer to a malformed line: {other:?}")),
        }
    }

    /// Sends `frame` and waits for its reply (closed loop).
    pub fn exchange(&mut self, frame: &Frame) -> Exchange {
        let ids: Vec<String> = match frame {
            Frame::Summary(r) => vec![r.id.clone()],
            Frame::Batch(b) => b.requests.iter().map(|r| r.id.clone()).collect(),
            _ => Vec::new(),
        };
        let line = format!("{}\n", encode_frame(frame));
        let start = Instant::now();
        let mut reply = String::new();
        let io = self
            .writer
            .write_all(line.as_bytes())
            .and_then(|()| self.reader.read_line(&mut reply));
        let latency = start.elapsed();
        let parsed = match io {
            Ok(0) => Err("connection closed".to_string()),
            Ok(_) => match_reply(frame, &ids, reply.trim_end()),
            Err(e) => Err(format!("transport: {e}")),
        };
        Exchange {
            ids,
            latency,
            sent_bytes: line.len(),
            recv_bytes: reply.len(),
            reply: parsed,
        }
    }
}

/// Checks that `line` answers `frame`: the right frame type, the same
/// ids in the same order, one response per request.
fn match_reply(frame: &Frame, ids: &[String], line: &str) -> Result<Vec<SummaryResponse>, String> {
    let responses = match (frame, decode_frame(line)) {
        (_, Err(e)) => return Err(format!("undecodable reply: {e}")),
        (_, Ok(Frame::Error(e))) => return Err(format!("error frame: {}", e.message)),
        (Frame::Summary(_), Ok(Frame::Response(r))) => vec![r],
        (Frame::Batch(b), Ok(Frame::BatchResponse(r))) if r.id == b.id => r.responses,
        (_, Ok(other)) => return Err(format!("unexpected reply frame: {other:?}")),
    };
    let got: Vec<&str> = responses.iter().map(|r| r.id.as_str()).collect();
    if got != ids {
        return Err(format!(
            "reply ids {got:?} do not match request ids {ids:?}"
        ));
    }
    Ok(responses)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn drain_line_parses() {
        let text = "strsum-server: store s (8 shards, 0 entries, 0 cost rows), 2 workers\n\
                    strsum-server: drained; hits 3 misses 14 reverified 4 rejected 1; \
                    fast-lane 5 heap 12 cubed 2\n";
        assert_eq!(
            Drain::parse(text),
            Some(Drain {
                hits: 3,
                misses: 14,
                reverified: 4,
                rejected: 1,
                fast_lane: 5,
                heap: 12,
                cubed: 2
            })
        );
        assert_eq!(Drain::parse("no such line"), None);
    }
}
