//! A `--timeout-secs` value that is no wall budget ends the binary with
//! a usage error (exit 2) before any work, never with a panic.

use std::process::Command;

fn exit_code(timeout: &str) -> Option<i32> {
    Command::new(env!("CARGO_BIN_EXE_bench_incremental"))
        .args(["--limit", "1", "--timeout-secs", timeout])
        .output()
        .expect("bench_incremental runs")
        .status
        .code()
}

#[test]
fn unusable_timeouts_are_usage_errors() {
    for timeout in ["1e300", "-1", "NaN", "inf", "soon"] {
        assert_eq!(exit_code(timeout), Some(2), "--timeout-secs {timeout}");
    }
}
