#!/usr/bin/env bash
# Identity manifest: run the release `repro` at test scale and hash every
# artifact a refactor must leave byte-identical — experiment stdout,
# checkpoints, journals, flight dumps — into OUT/IDENTITY.sha256, a
# standard `sha256sum -c` file.
#
#   cargo build --release --locked --offline -p gt-bench --bins
#   crates/bench/identity.sh OUT
#   diff -u crates/bench/baselines/IDENTITY.sha256 OUT/IDENTITY.sha256
#
# The run also writes OUT/BENCH_{smoke,serving}.json for
# `benchdiff BASE CAND` against crates/bench/baselines/. Not hashed,
# because they vary with the run: `smoke` stdout (thread count, dense ISA,
# wall_* rows), the `threads` sweep (widths and wall times), every stderr.
# After an intended change, rerun and copy OUT/IDENTITY.sha256 over the
# committed manifest. See docs/profiling.md §Identity manifest.
set -euo pipefail

if [ $# -ne 1 ]; then
  echo "usage: $0 OUT" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/../.." && pwd)
repro=$root/target/release/repro
seeds=$root/crates/bench/chaos-seeds
if [ ! -x "$repro" ]; then
  echo "$repro missing: cargo build --release -p gt-bench --bins" >&2
  exit 2
fi

# Every path below is relative to OUT, so no artifact names the directory.
mkdir -p "$1"
cd "$1"
# Durable state left by an earlier run would be recovered, not served.
rm -rf durability crash-*

hashed=()
# run NAME EXPERIMENT [ARGS...]: stdout to NAME.out, which is hashed.
run() {
  local name=$1
  shift
  "$repro" "$@" --scale test >"$name.out"
  hashed+=("$name.out")
}

# `repro all` minus `threads`: the paper's figures and tables ...
for e in table2 table3 fig6 fig8 fig11b table1 fig15 fig16 fig17 fig18 \
  fig12 fig14 fig19 fig20 scalability ablation; do
  run "$e" "$e"
done

# ... and durability: a reference run, then a kill at each crash site
# (exit 3) and its recovery (exit 0), which must land on the same bytes.
run durability durability --checkpoint-dir durability
hashed+=(durability/params.gt durability/outcomes.gtj)
for site in mid-journal mid-checkpoint after-commit; do
  crash=(durability --checkpoint-dir "crash-$site" --crash-at 7 --crash-site "$site")
  rc=0
  "$repro" "${crash[@]}" --scale test >"crash-$site.kill.out" || rc=$?
  if [ "$rc" -ne 3 ]; then
    echo "crash-$site: expected the injected crash (exit 3), got $rc" >&2
    exit 1
  fi
  run "crash-$site" "${crash[@]}"
  cmp durability/params.gt "crash-$site/params.gt"
  hashed+=("crash-$site.kill.out" "crash-$site/params.gt" "crash-$site/outcomes.gtj")
done

# Chaos: the committed corpus (one digest line per plan), and the flight
# dump the last injected crash freezes.
run chaos chaos --seeds-file "$seeds/smoke.seeds"
"$repro" chaos --seeds 2 --flight-out flight-crash.json --scale test >/dev/null
hashed+=(flight-crash.json)

# The SLO breach and its flight dump.
run slo slo --flight-out flight.json
hashed+=(flight.json)

run serving serving --bench-out BENCH_serving.json
"$repro" smoke --bench-out BENCH_smoke.json --scale test >smoke.out

sha256sum "${hashed[@]}" >IDENTITY.sha256
echo "identity: ${#hashed[@]} artifacts hashed into $1/IDENTITY.sha256" >&2
