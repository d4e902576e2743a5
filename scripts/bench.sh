#!/bin/sh
# Runs bench suites: every suite registered in bench/main.ml by
# default, or the SUITEs named.  Each suite writes BENCH_<suite>.json
# at the repo root and fails when one of its gates fails or a run
# loses an acked write; every named suite still runs, and the script
# exits 1 if any failed.  Arguments starting with "-" (e.g. --full)
# are passed to every suite.
#
# Usage: scripts/bench.sh [--full] [SUITE...]
set -eu
cd "$(dirname "$0")/.."
dune build bench/main.exe
bench=_build/default/bench/main.exe

suites=""
flags=""
for a in "$@"; do
  case "$a" in
    -*) flags="$flags $a" ;;
    *) suites="$suites $a" ;;
  esac
done
if [ -z "$suites" ]; then
  # The registry's names, from the unknown-suite message:
  # bench: unknown suite "?" (known: a, b, c)
  suites=$("$bench" --suite '?' 2>&1 >/dev/null |
    sed -n 's/.*(known: \(.*\))$/\1/p' | tr -d ',')
  [ -n "$suites" ] || { echo "bench.sh: cannot list the suites" >&2; exit 1; }
fi

fail=0
for s in $suites; do
  echo "== $s"
  # shellcheck disable=SC2086 # $flags is a word list
  "$bench" --suite "$s" $flags || { echo "bench.sh: suite $s FAILED" >&2; fail=1; }
done
exit "$fail"
