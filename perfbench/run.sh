#!/usr/bin/env bash
# Builds the benchmark (and the `sealpaa` daemon it drives) from source,
# then runs one measurement. Run from the repository root:
#
#   bash perfbench/run.sh --workload serve_miss --seed 1 --seconds 30 --trace 0
#
# Build output goes to stderr; the last stdout line is the JSON result.
set -euo pipefail
here="$(cd "$(dirname "$0")" && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" 1>&2
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
