#!/bin/sh
# Writes the serve golden matrix into directory $1: one
# `serve --json-out` result per case at seed 42, with the git rev field
# stripped and one JSON field per line so a diff names the field that
# moved.  check.sh runs it into a scratch directory and diffs against
# test/golden/; regenerate the goldens with:
#   sh scripts/serve_golden.sh test/golden
set -eu
cd "$(dirname "$0")/.."
out="$1"
mkdir -p "$out"
dune build bin/main.exe
serve() {
  name="$1"
  shift
  _build/default/bin/main.exe serve --seed 42 "$@" \
    --json-out "$out/serve-$name.json.raw" > /dev/null
  sed 's/"rev":[^,}]*,//' "$out/serve-$name.json.raw" | tr ',' '\n' \
    > "$out/serve-$name.json"
  rm -f "$out/serve-$name.json.raw"
}
serve local-crash-txn --crash-at 0.5 --txn-pct 20
serve local-caches --mvcc-window 4 --rcache-entries 64 --tcache-mag 4 \
  --read-pct 60 --scan-pct 10
serve repl-sync-batch-crash --replicate --batch-window 4 --txn-pct 20 \
  --crash-at 0.5
serve repl-async-lossy --replicate --repl-mode async --drop-pct 5 \
  --txn-pct 20
