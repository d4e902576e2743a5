#!/bin/sh
# Bench regression gate: compare each freshly produced BENCH_*.json
# against the baseline committed at HEAD and fail on a >25% regression
# in any gated metric: the "*_p50_ns" fields the suite gates emit and
# every crash recovery time ("rto_ns", "promote_rto_ns",
# "replay_rto_ns"; runs without a crash report 0, so only the nonzero
# ones can regress).  The simulation clock is deterministic, so any
# drift is a code change, not measurement noise.
#
# Usage: scripts/bench_diff.sh [DIR]   (fresh snapshots; default: repo root)
#
# Metrics are paired by name in document order (BENCH_attrib.json emits
# several runs under the same e2e_p50_ns name; the nth fresh occurrence
# is compared against the nth baseline occurrence).  A snapshot with no
# committed baseline, or whose gated-name sequence differs from its
# baseline's -- a renamed or dropped gate -- fails: commit the
# refreshed baseline alongside an intended schema change.
set -eu
dir=$(cd "${1:-.}" && pwd)
cd "$(dirname "$0")/.."

# Emit "name value" lines for every gated p50 and RTO in document order.
extract() {
  grep -oE '"[a-z_0-9]*(_p50_ns|rto_ns)"[ ]*:[ ]*[0-9]+' "$1" |
    tr -d '"' | tr ':' ' ' || true
}

tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT

fail=0
for f in "$dir"/BENCH_*.json; do
  [ -f "$f" ] || continue
  name=$(basename "$f")
  if ! git cat-file -e "HEAD:$name" 2>/dev/null; then
    echo "bench_diff: $name has no committed baseline"
    fail=1
    continue
  fi
  git show "HEAD:$name" >"$tmpdir/base.json"
  extract "$tmpdir/base.json" >"$tmpdir/base.m"
  extract "$f" >"$tmpdir/fresh.m"
  if [ "$(cut -d' ' -f1 "$tmpdir/base.m")" != "$(cut -d' ' -f1 "$tmpdir/fresh.m")" ]; then
    echo "bench_diff: $name gated-metric names differ from the baseline's:"
    diff "$tmpdir/base.m" "$tmpdir/fresh.m" || true
    fail=1
    continue
  fi
  if ! [ -s "$tmpdir/base.m" ]; then
    echo "bench_diff: $name has no gated metrics"
    continue
  fi
  # base.m / fresh.m now agree line-for-line on metric names; compare values.
  if ! paste -d' ' "$tmpdir/base.m" "$tmpdir/fresh.m" |
    awk -v file="$name" '
      4 * $4 > 5 * $2 {
        printf "bench_diff: %s: %s regressed %d -> %d ns (>25%%)\n",
          file, $1, $2, $4
        bad = 1
      }
      { n++ }
      END {
        if (!bad)
          printf "bench_diff: %s: %d gated metric(s) within 25%% of baseline\n",
            file, n
        exit bad
      }'; then
    fail=1
  fi
done

if [ "$fail" -ne 0 ]; then
  echo "bench_diff: FAILED -- a gated p50 or RTO regressed by more than 25%," \
    "changed name, or has no committed baseline"
  exit 1
fi
echo "bench_diff: OK"
