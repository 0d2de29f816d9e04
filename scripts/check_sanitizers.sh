#!/usr/bin/env bash
# Sanitizer pass over the fault-tolerance surface and the query path:
# builds the tree with ASan + UBSan and runs the storage and vist suites
# (pager, buffer pool, journal recovery, fault injection, crash matrix,
# fsck, matcher), the exec suite (serving cache, snapshots) and the query
# compiler suite under them.
# Usage: scripts/check_sanitizers.sh [build-dir]   (default: build-asan)
set -euo pipefail

cd "$(dirname "$0")/.."
BUILD_DIR="${1:-build-asan}"

cmake -B "$BUILD_DIR" -S . \
  -DCMAKE_BUILD_TYPE=RelWithDebInfo \
  -DVIST_SANITIZE="address;undefined"
cmake --build "$BUILD_DIR" -j "$(nproc)" \
  --target storage_test vist_test common_test exec_test query_test

export ASAN_OPTIONS="detect_leaks=1:abort_on_error=1"
export UBSAN_OPTIONS="halt_on_error=1:print_stacktrace=1"

ctest --test-dir "$BUILD_DIR" --output-on-failure \
  -R '^(storage_test|vist_test|common_test|exec_test|query_test)$'
