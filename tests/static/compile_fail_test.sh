#!/usr/bin/env bash
# Compile-fail driver: proves the static gates actually reject the bug
# classes they claim to. Each cases/*.cc marked MUST NOT COMPILE is fed to
# the compiler with the same flags the build enforces; the test fails if
# any of them compiles, or if a rejection comes from the wrong diagnostic
# (e.g. a broken include rather than the lint we are testing).
#
# Six cases are compiler-agnostic ([[nodiscard]] on Status/Result,
# -Wshadow, -Wswitch-enum, IgnoreError's required reason, the owning
# QueryOptions::snapshot); the thread-safety cases need clang and are
# skipped, loudly, under other compilers. control_ok.cc must compile with every flag — it guards
# against the gates rejecting *correct* code.
#
# Usage: compile_fail_test.sh <c++-compiler> <src-include-dir> <cases-dir>
set -u

CXX="$1"
INC="$2"
CASES="$3"

BASE_FLAGS=(-std=c++20 -fsyntax-only -I "$INC")
failures=0
ran=0
skipped=0

# Does this compiler implement -Wthread-safety (i.e. is it clang)?
HAVE_TSA=0
if "$CXX" -Werror=thread-safety -fsyntax-only -x c++ /dev/null \
    >/dev/null 2>&1; then
  HAVE_TSA=1
fi

# expect_fail <case.cc> <diagnostic-substring> <flag...>
expect_fail() {
  local src="$CASES/$1" needle="$2"
  shift 2
  local out
  if out=$("$CXX" "${BASE_FLAGS[@]}" "$@" "$src" 2>&1); then
    echo "FAIL: $src compiled but must be rejected (flags: $*)"
    failures=$((failures + 1))
    return
  fi
  if ! grep -qi -- "$needle" <<<"$out"; then
    echo "FAIL: $src was rejected, but not by the expected diagnostic"
    echo "      (wanted substring '$needle'; got:)"
    sed 's/^/      /' <<<"$out"
    failures=$((failures + 1))
    return
  fi
  echo "ok: $src rejected ($needle)"
  ran=$((ran + 1))
}

# expect_ok <case.cc> <flag...>
expect_ok() {
  local src="$CASES/$1"
  shift
  local out
  if ! out=$("$CXX" "${BASE_FLAGS[@]}" "$@" "$src" 2>&1); then
    echo "FAIL: $src must compile cleanly but was rejected:"
    sed 's/^/      /' <<<"$out"
    failures=$((failures + 1))
    return
  fi
  echo "ok: $src accepted"
}

# Compiler-agnostic rejections.
expect_fail discarded_status.cc nodiscard -Werror=unused-result
expect_fail discarded_result.cc nodiscard -Werror=unused-result
expect_fail shadowed_local.cc shadow -Werror=shadow
expect_fail defaulted_status_switch.cc switch-enum -Werror=switch-enum
expect_fail ignore_error_without_reason.cc IgnoreError
# GCC says "no match for 'operator='", clang "no viable overloaded '='".
expect_fail raw_snapshot_option.cc "operator=\|overloaded '='"

# Thread-safety rejections (clang only).
if [[ "$HAVE_TSA" == "1" ]]; then
  expect_fail unguarded_access.cc thread-safety -Werror=thread-safety
  expect_fail missing_requires.cc thread-safety -Werror=thread-safety
  expect_fail unlocked_mutation.cc thread-safety -Werror=thread-safety
  expect_ok control_ok.cc -Werror=unused-result -Werror=shadow \
    -Werror=switch-enum -Werror=thread-safety
else
  echo "skip: thread-safety cases ($CXX lacks -Wthread-safety; need clang)"
  skipped=3
  expect_ok control_ok.cc -Werror=unused-result -Werror=shadow \
    -Werror=switch-enum
fi

echo "compile-fail: $ran rejected, $skipped skipped, $failures failures"
if (( ran < 6 )); then
  echo "FAIL: fewer than 6 violation classes demonstrated"
  exit 1
fi
exit $(( failures > 0 ? 1 : 0 ))
