//! `batch_corpus`: the batch harness (`CorpusRunner`) in a child
//! process, so its set-up, CPU and memory are measured the way the
//! daemon's are.
//!
//! The child is this binary's `batch-child` subcommand. It prints
//! `ready` once it can serve, waits for `go`, runs one pass, prints one
//! `loop` line per loop plus `plan`/`cache` lines and `done`, then waits
//! for any line before exiting, so the parent can read its `/proc`
//! entry while it is still alive.

use std::io::{BufRead, BufReader, Write};
use std::path::Path;
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};

use strsum_api::{hex, parse_outcome, unhex, PlanSpec, RequestSpec};
use strsum_bench::{CorpusReport, CorpusRunner, LoopSpec};
use strsum_core::SynthesisConfig;
use strsum_obs::Collector;

use crate::run::Answer;
use crate::workload::{budget, corpus_order, sources, CLIENTS};

/// One batch pass as the parent sees it.
pub struct BatchPass {
    pub answers: Vec<Answer>,
    /// Loops planned serial / cubed / portfolio.
    pub plan: [u64; 3],
    /// Summary-cache hits.
    pub cache_hits: u64,
}

/// Runs `CorpusRunner` over `order` exactly as the workload does:
/// adaptive plan, two threads, summary cache on, the benchmark budget.
pub fn serve(order: &[&str], trace: Option<Arc<Collector>>) -> CorpusReport {
    let sources = sources();
    let specs: Vec<LoopSpec> = order
        .iter()
        .map(|id| LoopSpec {
            id: id.to_string(),
            source: sources[*id].clone().into_bytes(),
        })
        .collect();
    let cfg = SynthesisConfig {
        budget: budget(),
        ..SynthesisConfig::default()
    };
    let mut runner = CorpusRunner::new(PlanSpec::adaptive());
    if let Some(c) = trace {
        runner = runner.trace(c);
    }
    runner.serve(
        RequestSpec::loops(specs)
            .config(cfg)
            .threads(CLIENTS)
            .cache(true),
    )
}

/// The `batch-child` subcommand: `--seed S --pass P`.
pub fn child_main(seed: u64, pass: u64) -> Result<(), String> {
    let order = corpus_order(seed, pass);
    let mut out = std::io::stdout().lock();
    let mut input = std::io::stdin().lock();
    let io = |e: std::io::Error| e.to_string();
    writeln!(out, "ready").map_err(io)?;
    out.flush().map_err(io)?;
    let mut line = String::new();
    input.read_line(&mut line).map_err(io)?;
    if line.trim() != "go" {
        return Ok(());
    }
    let report = serve(&order, None);
    for a in report.results.iter().map(Answer::from_loop) {
        writeln!(
            out,
            "loop\t{}\t{}\t{}\t{}\t{}",
            a.loop_id,
            a.outcome.label(),
            a.latency_us,
            a.conflicts,
            a.summary.as_deref().map_or("-".to_string(), hex)
        )
        .map_err(io)?;
    }
    let p = report.plan;
    writeln!(out, "plan\t{}\t{}\t{}", p.serial, p.cubed, p.portfolio).map_err(io)?;
    writeln!(out, "cache\t{}", report.cache.hits).map_err(io)?;
    writeln!(out, "done").map_err(io)?;
    out.flush().map_err(io)?;
    line.clear();
    let _ = input.read_line(&mut line);
    Ok(())
}

/// A running `batch-child`. Dropping it kills the process.
pub struct BatchChild {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// Spawn until the child printed `ready`.
    pub setup: Duration,
}

impl BatchChild {
    /// Spawns the child for `pass` and waits until it is ready.
    pub fn spawn(exe: &Path, seed: u64, pass: u64) -> Result<BatchChild, String> {
        let start = Instant::now();
        let mut child = Command::new(exe)
            .args([
                "batch-child",
                "--seed",
                &seed.to_string(),
                "--pass",
                &pass.to_string(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("spawn batch child: {e}"))?;
        let stdin = child.stdin.take().ok_or("batch child stdin")?;
        let stdout = BufReader::new(child.stdout.take().ok_or("batch child stdout")?);
        let mut c = BatchChild {
            child,
            stdin,
            stdout,
            setup: Duration::ZERO,
        };
        if c.line()? != "ready" {
            return Err("batch child did not report ready".into());
        }
        c.setup = start.elapsed();
        Ok(c)
    }

    /// The child's process id.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    fn line(&mut self) -> Result<String, String> {
        let mut line = String::new();
        match self.stdout.read_line(&mut line) {
            Ok(0) => Err("batch child closed its output".into()),
            Ok(_) => Ok(line.trim_end().to_string()),
            Err(e) => Err(format!("batch child output: {e}")),
        }
    }

    fn send(&mut self, word: &str) -> Result<(), String> {
        writeln!(self.stdin, "{word}")
            .and_then(|()| self.stdin.flush())
            .map_err(|e| format!("batch child input: {e}"))
    }

    /// Runs the pass and parses what the child reports.
    pub fn run(&mut self) -> Result<BatchPass, String> {
        self.send("go")?;
        let mut pass = BatchPass {
            answers: Vec::new(),
            plan: [0; 3],
            cache_hits: 0,
        };
        loop {
            let line = self.line()?;
            let f: Vec<&str> = line.split('\t').collect();
            let num = |i: usize| -> Result<u64, String> {
                f.get(i)
                    .and_then(|v| v.parse().ok())
                    .ok_or_else(|| format!("malformed batch line {line:?}"))
            };
            match f[0] {
                "done" => return Ok(pass),
                "plan" => pass.plan = [num(1)?, num(2)?, num(3)?],
                "cache" => pass.cache_hits = num(1)?,
                "loop" if f.len() == 6 => {
                    let outcome = parse_outcome(f[2], Some("batch child"))
                        .ok_or_else(|| format!("unknown outcome in {line:?}"))?;
                    let summary = match f[5] {
                        "-" => None,
                        h => Some(unhex(h).ok_or_else(|| format!("bad hex in {line:?}"))?),
                    };
                    let elapsed = num(3)?;
                    pass.answers.push(Answer {
                        loop_id: f[1].to_string(),
                        latency_us: elapsed,
                        service_us: elapsed,
                        conflicts: num(4)?,
                        outcome,
                        summary,
                    });
                }
                _ => return Err(format!("malformed batch line {line:?}")),
            }
        }
    }

    /// Lets the child exit and waits for it.
    pub fn finish(mut self) -> Result<(), String> {
        self.send("exit")?;
        let status = self.child.wait().map_err(|e| format!("wait: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("batch child exited {status}"))
        }
    }
}

impl Drop for BatchChild {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}
