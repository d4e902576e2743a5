#!/bin/sh
# Writes the crashcheck golden into file $1: the summary line of every
# registered scenario at a fixed strided budget (--max-points 6
# --subsets 1 --seed 1), one line per scenario.  Each line pins the
# scenario's fence count (so a fence added on any protocol path shows
# up as a diff) and its verdict (0 counterexamples for a correct
# scenario, some for a seeded bug).  The scenario names are the first
# column of the committed test/golden/crashcheck.txt, which
# test_crashcheck checks against the registry.  check.sh writes into a
# scratch file and diffs; regenerate after an intended change with:
#   sh scripts/crashcheck_golden.sh test/golden/crashcheck.txt
set -eu
cd "$(dirname "$0")/.."
out="$1"
dune build bin/main.exe
tmp="$(mktemp)"
for name in $(cut -d' ' -f1 test/golden/crashcheck.txt); do
  # a seeded bug exits 1 (counterexamples found); the pipeline's status
  # is head's, so only the summary line counts
  _build/default/bin/main.exe crashcheck --scenario "$name" --max-points 6 \
    --subsets 1 --seed 1 | head -n 1 >> "$tmp"
done
mv "$tmp" "$out"
