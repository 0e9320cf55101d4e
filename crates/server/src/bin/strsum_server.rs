//! `strsum-server` — the summary daemon binary.
//!
//! Speaks the line-delimited `strsum-api` wire protocol over
//! stdin/stdout by default, or over a Unix socket with `--socket PATH`
//! (multiple concurrent clients). Exits after a graceful drain when a
//! `shutdown` frame arrives or stdin hits EOF.
//!
//! ```text
//! strsum-server [--store DIR] [--shards N] [--workers N]
//!               [--queue-depth N] [--socket PATH]
//! ```

use std::process::ExitCode;
use std::sync::atomic::AtomicBool;
use std::sync::Arc;

use strsum_core::SynthesisConfig;
use strsum_server::{serve_unix_socket, Daemon, Engine, SchedOptions, DEFAULT_IDLE_TIMEOUT};

#[derive(Debug)]
struct Args {
    store: std::path::PathBuf,
    shards: usize,
    workers: usize,
    queue_depth: Option<usize>,
    socket: Option<std::path::PathBuf>,
}

const USAGE: &str = "usage: strsum-server [--store DIR] [--shards N] [--workers N]
                     [--queue-depth N] [--socket PATH]

Serves the strsum wire protocol (one JSON frame per line) on
stdin/stdout, or on a Unix socket when --socket is given. Store hits
and interactive requests answer at once; syntheses queue normal
priority before bulk, each in admission order, and each runs the
serial candidate search on one worker. A v1 request's `plan` object
is checked and then ignored.

  --store DIR      summary store directory (default: results/store)
  --shards N       shard count for a fresh store (default: 8)
  --workers N      worker threads (default: available parallelism)
  --queue-depth N  admitted-request bound before intake blocks
                   (default: 1024)
  --socket PATH    listen on a Unix socket instead of stdio
";

/// Parses one `--flag N` count that must be a positive integer —
/// `0`, non-numeric, and missing values all reject with a usage error
/// (exit 2 in `main`), never a silent fallback.
fn positive(name: &str, value: Option<String>) -> Result<usize, String> {
    let raw = value.ok_or_else(|| format!("{name} needs a value"))?;
    match raw.parse::<usize>() {
        Ok(0) | Err(_) => Err(format!("{name} needs a positive integer, got {raw:?}")),
        Ok(n) => Ok(n),
    }
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        store: "results/store".into(),
        shards: 0, // 0 → store default
        workers: std::thread::available_parallelism().map_or(2, |n| n.get()),
        queue_depth: None,
        socket: None,
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match arg.as_str() {
            "--store" => args.store = value("--store")?.into(),
            "--shards" => args.shards = positive("--shards", value("--shards").ok())?,
            "--workers" => args.workers = positive("--workers", value("--workers").ok())?,
            "--queue-depth" => {
                args.queue_depth = Some(positive("--queue-depth", value("--queue-depth").ok())?)
            }
            "--socket" => args.socket = Some(value("--socket")?.into()),
            "--help" | "-h" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(message) => {
            eprintln!("strsum-server: {message}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let engine = match Engine::open(&args.store, args.shards, SynthesisConfig::default()) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!(
                "strsum-server: cannot open store {}: {e}",
                args.store.display()
            );
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "strsum-server: store {} ({} shards, {} entries, {} verdicts), {} workers",
        args.store.display(),
        engine.store().shard_count(),
        engine.store().len(),
        engine.store().verdict_count(),
        args.workers.max(1),
    );
    let mut opts = SchedOptions::scheduled(args.workers);
    if let Some(depth) = args.queue_depth {
        opts = opts.queue_depth(depth);
    }
    let daemon = Arc::new(Daemon::with_options(Arc::new(engine), opts));

    let served = match &args.socket {
        Some(path) => {
            eprintln!("strsum-server: listening on {}", path.display());
            let stop = Arc::new(AtomicBool::new(false));
            serve_unix_socket(&daemon, path, &stop, DEFAULT_IDLE_TIMEOUT)
        }
        None => daemon
            .serve_lines(std::io::stdin().lock(), std::io::stdout().lock())
            .map(|_| ()),
    };
    if let Err(e) = served {
        eprintln!("strsum-server: {e}");
        return ExitCode::FAILURE;
    }

    let daemon = Arc::try_unwrap(daemon)
        .unwrap_or_else(|_| unreachable!("all connection threads joined before shutdown"));
    let stats = daemon.engine().stats();
    let sched = daemon.sched_stats();
    if let Err(e) = daemon.shutdown() {
        eprintln!("strsum-server: drain failed: {e}");
        return ExitCode::FAILURE;
    }
    // `cubed` is always 0: no synthesis runs cube-and-conquer any more,
    // but the `profile` benchmark still parses the field.
    eprintln!(
        "strsum-server: drained; hits {} misses {} reverified {} rejected {}; \
         fast-lane {} heap {} cubed 0; verdicts {}",
        stats.store_hits,
        stats.store_misses,
        stats.reverified,
        stats.rejected,
        sched.fast_lane,
        sched.heap,
        stats.verdict_hits,
    );
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn defaults_parse_from_empty_argv() {
        let args = parse_args(&[]).unwrap();
        assert_eq!(args.store, std::path::PathBuf::from("results/store"));
        assert_eq!(args.shards, 0, "0 → store default");
        assert!(args.workers >= 1);
        assert_eq!(args.queue_depth, None);
        assert!(args.socket.is_none());
    }

    #[test]
    fn explicit_counts_parse() {
        let args = parse_args(&argv(&[
            "--store",
            "/tmp/s",
            "--shards",
            "4",
            "--workers",
            "3",
            "--queue-depth",
            "16",
            "--socket",
            "/tmp/x.sock",
        ]))
        .unwrap();
        assert_eq!(args.shards, 4);
        assert_eq!(args.workers, 3);
        assert_eq!(args.queue_depth, Some(16));
        assert_eq!(args.socket, Some(std::path::PathBuf::from("/tmp/x.sock")));
    }

    #[test]
    fn zero_counts_are_rejected_not_clamped() {
        for flag in ["--workers", "--shards", "--queue-depth"] {
            let err = parse_args(&argv(&[flag, "0"])).unwrap_err();
            assert!(err.contains("positive integer"), "{flag}: {err}");
        }
    }

    #[test]
    fn non_numeric_counts_are_rejected() {
        for (flag, bad) in [
            ("--workers", "many"),
            ("--shards", "-1"),
            ("--queue-depth", "1e3"),
        ] {
            let err = parse_args(&argv(&[flag, bad])).unwrap_err();
            assert!(err.contains("positive integer"), "{flag} {bad}: {err}");
            assert!(err.contains(bad), "error names the bad value: {err}");
        }
    }

    #[test]
    fn missing_values_and_unknown_flags_are_rejected() {
        assert!(parse_args(&argv(&["--workers"]))
            .unwrap_err()
            .contains("needs a value"));
        for gone in ["--bogus", "--fifo"] {
            assert!(parse_args(&argv(&[gone]))
                .unwrap_err()
                .contains("unknown flag"));
        }
    }
}
