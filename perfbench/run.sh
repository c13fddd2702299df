#!/usr/bin/env bash
# Builds the benchmark and the lgr-serve server from source, then runs
# one workload. Run from the repository root:
#
#   bash perfbench/run.sh --workload <sim-cold|host-pipeline|serve-warm> \
#       --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --locked --quiet -p lgr-serve --bin lgr-serve >&2
cargo build --release --offline --locked --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/perfbench" \
    --server "$CARGO_TARGET_DIR/release/lgr-serve" \
    --work-dir "$CARGO_TARGET_DIR/perfbench-work" "$@"
