#!/usr/bin/env bash
# ThreadSanitizer + lockdep pass over the concurrent read path: builds the
# tree with TSan (VIST_SANITIZE=thread) AND the runtime lock-order checker
# (VIST_DEADLOCK_DEBUG=ON, see docs/CONCURRENCY.md), then runs the
# concurrency stress suites (label: stress), the fault-injection/chaos
# suites (label: faults), and the storage and vist suites. TSan catches
# races that fire; lockdep aborts on any acquisition that merely *could*
# deadlock, and its observed edge graphs are dumped and diffed against the
# lock-rank table by scripts/vist_lint.py --check-edges.
# Usage: scripts/check_tsan.sh [build-dir]   (default: build-tsan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-tsan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVIST_SANITIZE="thread" \
  -DVIST_DEADLOCK_DEBUG=ON
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target storage_concurrency_test vist_concurrent_query_test \
           vist_snapshot_stress_test \
           exec_caching_stress_test \
           server_stress_test server_test \
           server_fault_transport_test server_chaos_test \
           storage_test vist_test lockdep_test

export TSAN_OPTIONS="halt_on_error=1:second_deadlock_stack=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(lockdep_test|storage_concurrency_test|vist_concurrent_query_test|vist_snapshot_stress_test|exec_caching_stress_test|server_stress_test|server_test|server_fault_transport_test|server_chaos_test|storage_test|vist_test)$'

# Re-run one storage-heavy and one serving-heavy suite with the lockdep
# edge graph dumped at exit, and diff the observed acquisition order
# against src/common/lock_ranks.h (skipped without python3 — the run
# above already enforced the order at runtime).
if command -v python3 >/dev/null 2>&1; then
  for probe in storage_concurrency_test server_chaos_test; do
    dump="$BUILD_DIR/lockdep_edges_$probe.json"
    VIST_LOCKDEP_DUMP="$dump" "$BUILD_DIR/tests/$probe" >/dev/null
    python3 scripts/vist_lint.py --check-edges "$dump"
  done
fi
