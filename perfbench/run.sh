#!/usr/bin/env bash
# Builds `pi` and the benchmark from this checkout (offline, release), then
# runs the benchmark with the given arguments:
#
#   bash perfbench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#
# Build output goes to stderr; the benchmark's report and its final JSON
# line go to stdout.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-$root/target}"
cargo build --release --offline --quiet --manifest-path "$root/Cargo.toml" --bin pi >&2
cargo build --release --offline --quiet --manifest-path "$root/perfbench/Cargo.toml" >&2
PERFBENCH_PI="$CARGO_TARGET_DIR/release/pi" exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
