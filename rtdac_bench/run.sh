#!/usr/bin/env bash
# Builds the daemon under test (`rtdacd`, from the repository's own
# workspace) and the benchmark into one target directory, then runs the
# benchmark, which finds `rtdacd` beside its own executable.
#
#   bash rtdac_bench/run.sh [--workload NAME] [--seed N] [--seconds S]
#                           [--trace 0|1] [--out DIR]
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p rtdac --bin rtdacd >&2
cargo build --release --offline --quiet --manifest-path rtdac_bench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/rtdac_bench" "$@"
