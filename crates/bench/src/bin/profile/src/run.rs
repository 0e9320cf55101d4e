//! One untraced run of one workload: set-up, the measured passes, and
//! everything the report and the checks need from them.
//!
//! Every workload is a sequence of passes of equal work (a daemon
//! lifetime, a batch-runner process, or a slice of the hit storm). Runs
//! go on until `--seconds` have passed and there are at least
//! [`Workload::min_passes`] passes; the metrics use every pass.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use strsum_api::{Frame, SummaryResponse};
use strsum_bench::LoopSynth;
use strsum_core::LoopOutcome;

use crate::batch::BatchChild;
use crate::daemon::{cpu_seconds, peak_rss_mb, Client, Drain, Exchange, Server};
use crate::workload::{loop_of, pass_frames, storm_frame, Workload, CLIENTS, STORM_FRAMES};

/// Where runs put scratch stores and sockets unless told otherwise:
/// inside the checkout, under the build directory `.gitignore` names.
pub const DEFAULT_WORK_DIR: &str = ".bench_build/profile-work";

/// Extra spawns made only to time set-up, so every run reports set-up
/// as the median over many processes (a hit storm has one measured
/// daemon).
const SETUP_PROBES: u64 = 20;

/// Pass number of the unmeasured cold pass that fills a store for the
/// warm workloads (measured passes count up from 0).
const POPULATE_PASS: u64 = 1_000_000;

/// Hit-storm passes replayed by the traced run.
const STORM_REPLAY_PASSES: usize = 20;

/// One answer to one loop request, from the daemon or the batch runner.
#[derive(Debug, Clone)]
pub struct Answer {
    pub loop_id: String,
    /// As the client saw it: the frame's round trip (a batch member's is
    /// its frame's), or the batch runner's per-loop `elapsed`.
    pub latency_us: u64,
    /// The server's own account (`cost.wall_micros`): preparation plus
    /// finishing, never queue wait.
    pub service_us: u64,
    pub conflicts: u64,
    pub outcome: LoopOutcome,
    pub summary: Option<Vec<u8>>,
}

impl Answer {
    /// A daemon response that took `latency_us` to arrive.
    pub fn from_response(r: SummaryResponse, latency_us: u64) -> Answer {
        Answer {
            loop_id: loop_of(&r.id).to_string(),
            latency_us,
            service_us: r.cost.wall_micros,
            conflicts: r.cost.conflicts,
            outcome: r.outcome,
            summary: r.summary,
        }
    }

    /// A batch-runner result; its latency and service time are both the
    /// loop's `elapsed`.
    pub fn from_loop(r: &LoopSynth) -> Answer {
        let elapsed = r.elapsed.as_micros() as u64;
        Answer {
            loop_id: r.entry.id.clone(),
            latency_us: elapsed,
            service_us: elapsed,
            conflicts: r.stats.solver.total().conflicts,
            outcome: r.outcome.clone(),
            summary: r.summary.as_ref().map(|s| s.encode()),
        }
    }
}

/// One measured pass.
#[derive(Default)]
pub struct Pass {
    /// First send to last reply.
    pub wall: f64,
    /// CPU seconds the serving process used meanwhile.
    pub cpu_s: f64,
    /// Requests sent.
    pub attempted: usize,
    /// Requests without a valid answer.
    pub lost: usize,
    pub answers: Vec<Answer>,
}

/// Everything one run measured.
#[derive(Default)]
pub struct Measured {
    pub passes: Vec<Pass>,
    /// Answers of the unmeasured populate pass: checked, not timed.
    pub setup_answers: Vec<Answer>,
    /// The first few reasons a request got no valid answer.
    pub errors: Vec<String>,
    /// Spawn-to-ready seconds of every process started in the measured
    /// configuration.
    pub setups: Vec<f64>,
    /// `VmHWM` of each measured process, MiB.
    pub rss_mb: Vec<f64>,
    /// Measured daemon lifetimes and their drain counters, summed.
    pub lifetimes: usize,
    pub drain: Drain,
    pub request_bytes: u64,
    pub response_bytes: u64,
    /// Batch runner plan tallies (serial, cubed, portfolio) and cache
    /// hits, summed over passes.
    pub plan: [u64; 3],
    pub cache_hits: u64,
    /// The frames each client sent in the first pass(es), for the traced
    /// replay, and the untraced wall time of exactly those passes.
    pub replay: Vec<Vec<Frame>>,
    pub replay_wall: f64,
}

impl Measured {
    /// Every measured answer.
    pub fn answers(&self) -> impl Iterator<Item = &Answer> {
        self.passes.iter().flat_map(|p| p.answers.iter())
    }

    pub fn attempted(&self) -> usize {
        self.passes.iter().map(|p| p.attempted).sum()
    }

    pub fn lost(&self) -> usize {
        self.passes.iter().map(|p| p.lost).sum()
    }

    /// A run ends once `--seconds` have passed and it holds at least
    /// [`Workload::min_passes`] passes.
    fn done(&self, ctx: &Ctx, start: Instant, workload: Workload) -> bool {
        start.elapsed().as_secs_f64() >= ctx.seconds && self.passes.len() >= workload.min_passes()
    }

    fn pass(&mut self, exchanges: Vec<Exchange>, wall: f64, cpu_s: f64) {
        let mut pass = Pass {
            wall,
            cpu_s,
            ..Pass::default()
        };
        for ex in exchanges {
            pass.attempted += ex.ids.len();
            self.request_bytes += ex.sent_bytes as u64;
            self.response_bytes += ex.recv_bytes as u64;
            match ex.reply {
                Ok(responses) => {
                    let latency = ex.latency.as_micros() as u64;
                    pass.answers.extend(
                        responses
                            .into_iter()
                            .map(|r| Answer::from_response(r, latency)),
                    );
                }
                Err(e) => {
                    pass.lost += ex.ids.len();
                    if self.errors.len() < 5 {
                        self.errors.push(e);
                    }
                }
            }
        }
        self.passes.push(pass);
    }
}

/// Where a run finds its tools and puts its scratch files.
pub struct Ctx {
    /// This binary (re-run as the batch child).
    pub exe: PathBuf,
    /// `strsum-server`, built next to this binary.
    pub server: PathBuf,
    /// Scratch directory for stores and the socket, removed afterwards.
    pub work: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    pub sources: HashMap<String, String>,
}

impl Ctx {
    fn socket(&self) -> PathBuf {
        self.work.join("sock")
    }
}

/// Runs `workload` untraced and returns what it measured.
pub fn measure(ctx: &Ctx, workload: Workload) -> Result<Measured, String> {
    let mut m = Measured::default();
    match workload {
        Workload::ColdBatch => {
            for i in 0..SETUP_PROBES {
                let store = ctx.work.join(format!("probe{i}"));
                probe(ctx, &store, &mut m)?;
                remove(&store);
            }
            let start = Instant::now();
            for pass in 0.. {
                let store = ctx.work.join(format!("cold{pass}"));
                daemon_pass(ctx, &store, workload, pass, &mut m)?;
                remove(&store);
                if m.done(ctx, start, workload) {
                    break;
                }
            }
        }
        Workload::WarmReplay => {
            let store = ctx.work.join("store");
            m.setup_answers = populate(ctx, &store)?;
            for _ in 0..SETUP_PROBES {
                probe(ctx, &store, &mut m)?;
            }
            let start = Instant::now();
            for pass in 0.. {
                daemon_pass(ctx, &store, workload, pass, &mut m)?;
                if m.done(ctx, start, workload) {
                    break;
                }
            }
        }
        Workload::HitStorm => {
            let store = ctx.work.join("store");
            m.setup_answers = populate(ctx, &store)?;
            for _ in 0..SETUP_PROBES {
                probe(ctx, &store, &mut m)?;
            }
            storm(ctx, &store, &mut m)?;
        }
        Workload::BatchCorpus => {
            for i in 0..SETUP_PROBES {
                let child = BatchChild::spawn(&ctx.exe, ctx.seed, POPULATE_PASS + i)?;
                m.setups.push(child.setup.as_secs_f64());
                child.finish()?;
            }
            let start = Instant::now();
            for pass in 0.. {
                batch_pass(ctx, pass, &mut m)?;
                if m.done(ctx, start, workload) {
                    break;
                }
            }
        }
    }
    Ok(m)
}

fn remove(dir: &Path) {
    let _ = std::fs::remove_dir_all(dir);
}

/// Starts and stops a daemon over `store` only to time its set-up.
fn probe(ctx: &Ctx, store: &Path, m: &mut Measured) -> Result<(), String> {
    let server = Server::spawn(&ctx.server, store, &ctx.socket())?;
    m.setups.push(server.setup.as_secs_f64());
    server.shutdown().map(|_| ())
}

/// Sends `frames[c]` on client `c`'s connection, closed loop, one thread
/// per client; returns every exchange.
fn exchange_all(clients: &mut [Client], frames: &[Vec<Frame>]) -> Result<Vec<Exchange>, String> {
    std::thread::scope(|s| {
        let handles: Vec<_> = clients
            .iter_mut()
            .zip(frames)
            .map(|(client, list)| {
                s.spawn(move || list.iter().map(|f| client.exchange(f)).collect::<Vec<_>>())
            })
            .collect();
        let mut all = Vec::new();
        for h in handles {
            all.extend(h.join().map_err(|_| "client thread panicked")?);
        }
        Ok(all)
    })
}

fn connect_all(socket: &Path) -> Result<Vec<Client>, String> {
    (0..CLIENTS).map(|_| Client::connect(socket)).collect()
}

/// One daemon lifetime over `store` serving one pass of `workload`.
fn daemon_pass(
    ctx: &Ctx,
    store: &Path,
    workload: Workload,
    pass: u64,
    m: &mut Measured,
) -> Result<(), String> {
    let frames = pass_frames(&ctx.sources, ctx.seed, workload, pass);
    let server = Server::spawn(&ctx.server, store, &ctx.socket())?;
    m.setups.push(server.setup.as_secs_f64());
    let mut clients = connect_all(&server.socket)?;
    let cpu0 = cpu_seconds(server.pid())?;
    let t0 = Instant::now();
    let exchanges = exchange_all(&mut clients, &frames)?;
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds(server.pid())? - cpu0;
    m.rss_mb.push(peak_rss_mb(server.pid())?);
    drop(clients);
    m.drain.add(&server.shutdown()?);
    m.lifetimes += 1;
    m.pass(exchanges, wall, cpu);
    if pass == 0 {
        m.replay = frames.to_vec();
        m.replay_wall = wall;
    }
    Ok(())
}

/// Fills `store` with one unmeasured cold pass; returns its answers.
fn populate(ctx: &Ctx, store: &Path) -> Result<Vec<Answer>, String> {
    let frames = pass_frames(&ctx.sources, ctx.seed, Workload::ColdBatch, POPULATE_PASS);
    let server = Server::spawn(&ctx.server, store, &ctx.socket())?;
    let mut clients = connect_all(&server.socket)?;
    let exchanges = exchange_all(&mut clients, &frames)?;
    drop(clients);
    server.shutdown()?;
    let mut filled = Measured::default();
    filled.pass(exchanges, 0.0, 0.0);
    if filled.lost() > 0 {
        return Err(format!("populate pass lost answers: {:?}", filled.errors));
    }
    Ok(filled.passes.remove(0).answers)
}

/// The hit storm: one daemon; each pass, every client sends the next
/// [`STORM_FRAMES`] frames of its seeded stream.
fn storm(ctx: &Ctx, store: &Path, m: &mut Measured) -> Result<(), String> {
    let server = Server::spawn(&ctx.server, store, &ctx.socket())?;
    m.setups.push(server.setup.as_secs_f64());
    let mut clients = connect_all(&server.socket)?;
    let start = Instant::now();
    for pass in 0.. {
        let frames: Vec<Vec<Frame>> = (0..CLIENTS)
            .map(|c| {
                (pass * STORM_FRAMES..(pass + 1) * STORM_FRAMES)
                    .map(|k| storm_frame(&ctx.sources, ctx.seed, c, k))
                    .collect()
            })
            .collect();
        let cpu0 = cpu_seconds(server.pid())?;
        let t0 = Instant::now();
        let exchanges = exchange_all(&mut clients, &frames)?;
        let wall = t0.elapsed().as_secs_f64();
        let cpu = cpu_seconds(server.pid())? - cpu0;
        m.pass(exchanges, wall, cpu);
        if pass < STORM_REPLAY_PASSES {
            m.replay.resize(CLIENTS, Vec::new());
            for (all, new) in m.replay.iter_mut().zip(frames) {
                all.extend(new);
            }
            m.replay_wall += wall;
        }
        if m.done(ctx, start, Workload::HitStorm) {
            break;
        }
    }
    m.rss_mb.push(peak_rss_mb(server.pid())?);
    drop(clients);
    m.drain.add(&server.shutdown()?);
    m.lifetimes += 1;
    Ok(())
}

/// One `batch_corpus` pass in a fresh child process.
fn batch_pass(ctx: &Ctx, pass: u64, m: &mut Measured) -> Result<(), String> {
    let mut child = BatchChild::spawn(&ctx.exe, ctx.seed, pass)?;
    m.setups.push(child.setup.as_secs_f64());
    let cpu0 = cpu_seconds(child.pid())?;
    let t0 = Instant::now();
    let result = child.run()?;
    let wall = t0.elapsed().as_secs_f64();
    let cpu = cpu_seconds(child.pid())? - cpu0;
    m.rss_mb.push(peak_rss_mb(child.pid())?);
    child.finish()?;
    let attempted = crate::workload::COLD_SET.len();
    m.passes.push(Pass {
        wall,
        cpu_s: cpu,
        attempted,
        lost: attempted.saturating_sub(result.answers.len()),
        answers: result.answers,
    });
    if pass == 0 {
        m.replay_wall = wall;
    }
    for (acc, n) in m.plan.iter_mut().zip(result.plan) {
        *acc += n;
    }
    m.cache_hits += result.cache_hits;
    Ok(())
}
