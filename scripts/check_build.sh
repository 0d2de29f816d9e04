#!/usr/bin/env bash
# Tier-1 verification: configure, build, and run the full test suite, then
# the static-analysis gate (clang -Wthread-safety build + clang-tidy; skips
# itself when clang is absent), the invariant linter, the benchmark's
# self-check, and the sanitizer passes (ASan/UBSan over the
# fault-tolerance surface, TSan over the concurrent read path).
# VIST_SKIP_STATIC=1 skips the static gate; VIST_SKIP_SANITIZERS=1 skips the
# sanitizer passes.
# Usage: scripts/check_build.sh [build-dir]   (default: build)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build}"

cmake -B "$BUILD_DIR" -S .
cmake --build "$BUILD_DIR" -j "$(nproc)"
ctest --test-dir "$BUILD_DIR" --output-on-failure -j "$(nproc)"

# End-to-end serving smoke: boots a real vist_server on an ephemeral port
# and runs a scripted QUERY/INSERT/STATS exchange over TCP (also part of
# the ctest run above; called out here so a serving regression fails the
# build gate by name).
"$BUILD_DIR"/tests/server_smoke_test

# Robustness suites (deadline/cancellation, protocol fuzz, fault-injection
# proxy, chaos storm). Also part of the full run above; rerun by label so a
# fault-tolerance regression fails the gate by name.
ctest --test-dir "$BUILD_DIR" --output-on-failure -L faults

# Differential-oracle suite: ViST, the path index and the node index
# against each other and against naive Algorithm 1 over thousands of
# seeded queries (tests/integration/engine_oracle_test.cc). ctest
# treats a label matching zero tests as success, so guard against the
# label silently vanishing before rerunning it by name. (grep reads the
# whole listing: `grep -q` would exit at the first match and, under
# pipefail, fail the pipeline on ctest's SIGPIPE.)
if ! ctest --test-dir "$BUILD_DIR" -N -L differential | grep "Test #" >/dev/null; then
  echo "check_build.sh: no tests carry the 'differential' label" >&2
  exit 1
fi
ctest --test-dir "$BUILD_DIR" --output-on-failure -L differential

if [[ "${VIST_SKIP_STATIC:-0}" != "1" ]]; then
  # exit 77 = clang unavailable on this host; not a failure of the tree.
  scripts/check_static.sh || { rc=$?; [[ $rc -eq 77 ]] || exit $rc; }
fi

# ViST invariant linter + lock-order doc diff (exit 77 = python3
# unavailable; not a failure of the tree). Also part of the ctest run
# above as invariants_gate/lint_mutant_test (label: lint).
scripts/check_invariants.sh || { rc=$?; [[ $rc -eq 77 ]] || exit $rc; }

# The repository benchmark (perfbench/) compiles its own copy of src/, so
# an API change that breaks it fails here rather than only in a benchmark
# run. --self-check runs every workload at 5% scale and checks the answers
# and the metric names against BENCHMARK.json (exit 77 = python3
# unavailable; not a failure of the tree).
(command -v python3 >/dev/null 2>&1 || exit 77
 python3 perfbench/run.py --self-check) || { rc=$?; [[ $rc -eq 77 ]] || exit $rc; }

if [[ "${VIST_SKIP_SANITIZERS:-0}" != "1" ]]; then
  scripts/check_sanitizers.sh
  scripts/check_tsan.sh
fi
