#!/usr/bin/env bash
# Builds strsum-server, trace_check and the profile bench from source, then
# runs the profile with the given arguments. Run from the repository root:
#
#   bash crates/bench/src/bin/profile/run.sh --workload cold_batch --seed 11 --seconds 20 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); the profile
# finds strsum-server and trace_check next to its own binary there.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p strsum-server -p strsum-bench \
    --bin strsum-server --bin trace_check >&2
cargo build --release --offline --quiet --manifest-path crates/bench/src/bin/profile/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/profile" "$@"
