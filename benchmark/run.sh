#!/usr/bin/env bash
# Build the benchmark offline and run it. Run from the repo root or anywhere:
#
#   benchmark/run.sh [--seed S] [--seconds N] [--trace] [--smoke] [--repeat R]
#       every workload, each run in its own process; prints every metric,
#       checks outputs, writes benchmark/out/result.json
#   benchmark/run.sh --selfcheck [...]       the full set twice, then compare
#   benchmark/run.sh compare A.json B.json   apply directions and bounds
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       one run; the last stdout line is the result object (driver form)
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"

# A relative CARGO_TARGET_DIR means "relative to where I was called from".
target="${CARGO_TARGET_DIR:-$here/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"
export GT_BENCHMARK_DIR="$here"

# No registry needed: path deps on ../crates, vendor/ stand-ins, pinned lock.
cargo build --quiet --offline --release --locked --manifest-path "$here/Cargo.toml" >&2

exec "$target/release/gt-benchmark" "$@"
