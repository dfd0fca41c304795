#!/usr/bin/env bash
# Builds `sweepd` and the benchmark from source, then runs one workload:
#
#   bash perfbench/run.sh --workload pointer-grid --seed 1 --seconds 10 --trace 0
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `.bench_build`); cargo's progress goes to stderr, so the last
# line of stdout is the benchmark's JSON result.
set -euo pipefail
target="${CARGO_TARGET_DIR:-.bench_build}"
export CARGO_TARGET_DIR="$target"
cargo build --release --quiet --manifest-path Cargo.toml -p bench --bin sweepd >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$target/release/perfbench" --sweepd "$target/release/sweepd" "$@"
