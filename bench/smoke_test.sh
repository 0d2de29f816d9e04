#!/usr/bin/env bash
# Smoke test for the bench/ binaries: runs each one at VIST_BENCH_SCALE=0.01
# in a temporary working directory and checks that it exits 0 and that every
# JSON file it writes there parses and records hardware_threads. So an edit
# to a bench cannot break its binary, or the JSON a recorded number comes
# from, without a test failing.
# Usage: smoke_test.sh <bench-binary>...
# bench/CMakeLists.txt passes the file of every bench target it defines; a
# listed file that is missing or not executable fails the test.
set -euo pipefail

if [ "$#" -eq 0 ]; then
  echo "usage: smoke_test.sh <bench-binary>..." >&2
  exit 1
fi

if ! command -v python3 >/dev/null 2>&1; then
  echo "bench_smoke: python3 not found; skipping (exit 77)" >&2
  exit 77
fi

TMP="$(mktemp -d "${TMPDIR:-/tmp}/vist_bench_smoke.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT
export VIST_BENCH_SCALE=0.01

ran=0
for bin in "$@"; do
  if ! [ -f "$bin" ] || ! [ -x "$bin" ]; then
    echo "bench_smoke: FAIL: $bin is missing or not executable" >&2
    exit 1
  fi
  name="$(basename "$bin")"
  bin="$(cd "$(dirname "$bin")" && pwd)/$name"  # it runs from a temp dir
  mkdir "$TMP/$name"
  if ! (cd "$TMP/$name" && "$bin" >output.txt 2>&1); then
    echo "bench_smoke: FAIL: $name exited nonzero; last output:" >&2
    tail -n 20 "$TMP/$name/output.txt" >&2
    exit 1
  fi
  for json in "$TMP/$name"/*.json; do
    [ -e "$json" ] || continue
    python3 - "$json" <<'PY' || exit 1
import json
import sys

path = sys.argv[1]
try:
    with open(path) as f:
        doc = json.load(f)
except ValueError as error:
    sys.exit(f"bench_smoke: FAIL: {path} does not parse: {error}")
if not isinstance(doc, dict) or "hardware_threads" not in doc:
    sys.exit(f"bench_smoke: FAIL: {path} records no hardware_threads")
PY
    echo "bench_smoke: $name wrote $(basename "$json")"
  done
  ran=$((ran + 1))
done

echo "bench_smoke: $ran binaries ok"
