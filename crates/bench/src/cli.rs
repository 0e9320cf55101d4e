//! One command-line parser for every experiment binary.
//!
//! The ten binaries each grew a hand-rolled `arg_value`/`arg_flag` block
//! with drifting defaults; this module replaces them with a single [`Cli`]
//! that snapshots `std::env::args` once and exposes typed accessors. All
//! binaries therefore accept the same governor flags uniformly:
//!
//! - `--threads <n>` — worker threads (default: all cores)
//! - `--timeout-secs <s>` — per-loop wall budget, in (possibly fractional)
//!   seconds
//! - `--budget-ms <ms>` — per-loop wall budget in milliseconds (overrides
//!   `--timeout-secs` when both are given)
//! - `--retries <n>` — quarantine-lane rounds for budget-exhausted loops
//! - `--fault-plan <path>` — a deterministic [`FaultPlan`] file to inject
//! - `--trace <path>` — Chrome-trace span capture (see [`TraceArgs`])

use std::time::{Duration, Instant};
use strsum_core::Budget;

use crate::{FaultPlan, TraceArgs};

/// Parsed command line: a snapshot of `std::env::args` plus typed
/// accessors over the uniform experiment flags.
#[derive(Debug, Clone)]
pub struct Cli {
    args: Vec<String>,
}

/// The uniform flag set every experiment binary accepts (the accessors
/// on [`Cli`]). Per-binary flags are passed to [`Cli::validate`].
pub const UNIFORM_FLAGS: &[&str] = &[
    "--threads",
    "--timeout-secs",
    "--budget-ms",
    "--retries",
    "--fault-plan",
    "--trace",
];

/// A wall budget of `secs` seconds. `Err` names why `secs` is none: a
/// negative or non-finite value, or one so large that a deadline that
/// far ahead (`Instant::now() + wall`) would overflow the clock.
pub fn wall_budget(secs: f64) -> Result<Duration, String> {
    let wall = Duration::try_from_secs_f64(secs).map_err(|e| e.to_string())?;
    match Instant::now().checked_add(wall) {
        Some(_) => Ok(wall),
        None => Err("too far ahead for the clock".to_string()),
    }
}

/// Raw `--flag value` lookup over the process arguments (shared by
/// [`Cli`] and [`crate::TraceArgs`]).
pub(crate) fn raw_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

impl Cli {
    /// Snapshots the process arguments.
    pub fn from_env() -> Cli {
        Cli {
            args: std::env::args().collect(),
        }
    }

    /// A [`Cli`] over explicit arguments (for tests).
    pub fn from_args(args: &[&str]) -> Cli {
        Cli {
            args: args.iter().map(|s| s.to_string()).collect(),
        }
    }

    /// The value following `--name`, if present.
    pub fn value(&self, name: &str) -> Option<&str> {
        self.args
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.args.get(i + 1))
            .map(String::as_str)
    }

    /// Whether a bare `--name` flag is present.
    pub fn flag(&self, name: &str) -> bool {
        self.args.iter().any(|a| a == name)
    }

    /// The value following `--name`, parsed; `default` when absent.
    /// Exits with a usage error on an unparsable value — a typo'd budget
    /// silently falling back to the default would invalidate the run.
    pub fn parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.value(name) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("error: cannot parse {name} value {raw:?}");
                std::process::exit(2);
            }),
        }
    }

    /// `--threads <n>`, defaulting to all cores.
    pub fn threads(&self) -> usize {
        self.parsed("--threads", crate::default_threads())
    }

    /// `--timeout-secs <s>` (fractional allowed), with `default` seconds.
    /// Exits with a usage error on a value that is no wall budget (see
    /// [`wall_budget`]): negative, not a number, or too large for the
    /// clock.
    pub fn timeout_secs(&self, default: f64) -> f64 {
        let secs = self.parsed("--timeout-secs", default);
        if let Err(e) = wall_budget(secs) {
            let raw = self.value("--timeout-secs").unwrap_or_default();
            eprintln!("error: --timeout-secs {raw}: {e}");
            std::process::exit(2);
        }
        secs
    }

    /// The per-loop [`Budget`]: starts from `base`, then applies
    /// `--timeout-secs`, `--budget-ms` (which wins when both are given)
    /// and `--retries`.
    pub fn budget(&self, base: Budget) -> Budget {
        let mut budget = base;
        if self.value("--timeout-secs").is_some() {
            let secs = self.timeout_secs(0.0);
            budget.wall = wall_budget(secs).expect("checked by timeout_secs");
        }
        if self.value("--budget-ms").is_some() {
            budget.wall = Duration::from_millis(self.parsed("--budget-ms", 0));
        }
        budget.retries = self.parsed("--retries", budget.retries);
        budget
    }

    /// `--fault-plan <path>`: loads the plan, exiting with the parse
    /// error on a malformed file; the empty plan when absent.
    pub fn fault_plan(&self) -> FaultPlan {
        match self.value("--fault-plan") {
            None => FaultPlan::new(),
            Some(path) => FaultPlan::load(std::path::Path::new(path)).unwrap_or_else(|e| {
                eprintln!("error: {e}");
                std::process::exit(2);
            }),
        }
    }

    /// `--trace <path>`: installs and returns the trace capture handle
    /// (disabled when the flag is absent).
    pub fn trace(&self) -> TraceArgs {
        TraceArgs::from_path(self.value("--trace"))
    }

    /// Checks every `--flag` token against [`UNIFORM_FLAGS`] plus the
    /// binary's own `extra` flags; `Err` carries the first unknown flag.
    /// Tokens not starting with `--` are flag values and never checked.
    pub fn check(&self, extra: &[&str]) -> Result<(), String> {
        for arg in self.args.iter().skip(1) {
            if arg.starts_with("--")
                && !UNIFORM_FLAGS.contains(&arg.as_str())
                && !extra.contains(&arg.as_str())
            {
                return Err(arg.clone());
            }
        }
        Ok(())
    }

    /// Exits 2 with a usage message on an unknown flag. Every binary
    /// calls this before reading any flag: a typo'd flag silently
    /// falling back to its default (`--paln adaptive` running serial)
    /// would invalidate the run while *looking* like a clean benchmark.
    pub fn validate(&self, extra: &[&str]) {
        if let Err(flag) = self.check(extra) {
            eprintln!("error: unknown flag {flag}");
            let mut known: Vec<&str> = UNIFORM_FLAGS.iter().chain(extra).copied().collect();
            known.sort_unstable();
            eprintln!("usage: accepted flags are {}", known.join(", "));
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn values_and_flags() {
        let cli = Cli::from_args(&["prog", "--threads", "3", "--full"]);
        assert_eq!(cli.value("--threads"), Some("3"));
        assert_eq!(cli.threads(), 3);
        assert!(cli.flag("--full"));
        assert!(!cli.flag("--other"));
        assert_eq!(cli.value("--other"), None);
    }

    #[test]
    fn budget_flags_layer_over_base() {
        let base = Budget::default();
        let cli = Cli::from_args(&["prog"]);
        assert_eq!(cli.budget(base), base, "no flags leaves the base budget");

        let cli = Cli::from_args(&["prog", "--timeout-secs", "2.5", "--retries", "2"]);
        let b = cli.budget(base);
        assert_eq!(b.wall, Duration::from_secs_f64(2.5));
        assert_eq!(b.retries, 2);

        // --budget-ms wins over --timeout-secs.
        let cli = Cli::from_args(&["prog", "--timeout-secs", "9", "--budget-ms", "250"]);
        assert_eq!(cli.budget(base).wall, Duration::from_millis(250));
    }

    #[test]
    fn only_usable_wall_budgets_pass() {
        assert_eq!(wall_budget(2.5), Ok(Duration::from_millis(2500)));
        assert_eq!(wall_budget(0.0), Ok(Duration::ZERO));
        for bad in [-1.0, f64::NAN, f64::INFINITY, 1e300, 1e19] {
            assert!(wall_budget(bad).is_err(), "{bad} is no wall budget");
        }
    }

    #[test]
    fn unknown_flags_are_rejected_not_ignored() {
        // The motivating bug: `--paln adaptive` parsed cleanly and ran
        // serial, silently invalidating the benchmark comparison.
        let cli = Cli::from_args(&["prog", "--paln", "adaptive"]);
        assert_eq!(cli.check(&[]), Err("--paln".to_string()));

        // Uniform flags pass; values (even bare words) are not checked.
        let cli = Cli::from_args(&["prog", "--threads", "4", "--retries", "2"]);
        assert_eq!(cli.check(&[]), Ok(()));

        // `--plan` and `--cubes` left with cube-and-conquer: a plan is
        // now only a dispatch order, which each binary fixes itself.
        let cli = Cli::from_args(&["prog", "--plan", "cubed"]);
        assert_eq!(cli.check(&[]), Err("--plan".to_string()));
        let cli = Cli::from_args(&["prog", "--cubes", "8"]);
        assert_eq!(cli.check(&[]), Err("--cubes".to_string()));

        // Per-binary extras are accepted only when declared.
        let cli = Cli::from_args(&["prog", "--full"]);
        assert_eq!(cli.check(&[]), Err("--full".to_string()));
        assert_eq!(cli.check(&["--full"]), Ok(()));

        // Flag values never start with `--`, so a path value passes.
        let cli = Cli::from_args(&["prog", "--trace", "out/trace.json"]);
        assert_eq!(cli.check(&[]), Ok(()));
    }
}
