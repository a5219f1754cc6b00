#!/usr/bin/env bash
# Builds the shipped `fis-one` binary and the benchmark from source, then
# runs one benchmark workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve-warm --seed 1 --seconds 30 --trace 0
#
# Build output goes to $CARGO_TARGET_DIR (default .bench_build); only the
# benchmark's result line reaches stdout.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --quiet --bin fis-one >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" --fis-one "$CARGO_TARGET_DIR/release/fis-one" "$@"
