#!/usr/bin/env bash
# Mutant suite for scripts/vist_lint.py: copies the real tree, seeds a
# violation of its rule, and requires the linter to (a) pass on the
# unmutated copy and (b) flag exactly the seeded rule. A linter that goes
# blind to the rule — or starts flagging the clean tree — fails here, so
# the gate in scripts/check_invariants.sh stays signal, not noise.
# Usage: lint_mutant_test.sh <repo-root>
set -euo pipefail

ROOT="${1:?usage: lint_mutant_test.sh <repo-root>}"
LINT="$ROOT/scripts/vist_lint.py"

if ! command -v python3 >/dev/null 2>&1; then
  echo "lint_mutant_test: python3 not found; skipping (exit 77)" >&2
  exit 77
fi

TMP="$(mktemp -d "${TMPDIR:-/tmp}/vist_lint_mutant.XXXXXX")"
trap 'rm -rf "$TMP"' EXIT

# The linter only reads src/tests/bench/examples (and docs for the
# lock-table checks, which this suite does not mutate).
cp -r "$ROOT/src" "$ROOT/tests" "$ROOT/bench" "$ROOT/examples" "$TMP/"

run_lint() { python3 "$LINT" --root "$TMP"; }

fail() { echo "lint_mutant_test: FAIL: $*" >&2; exit 1; }

# expect_finding <mutant-name> <rule-tag> <output-substring>
expect_finding() {
  local name="$1" tag="$2" needle="$3" out rc=0
  out="$(run_lint 2>&1)" && rc=0 || rc=$?
  [[ $rc -eq 1 ]] || fail "$name: expected exit 1, got $rc"$'\n'"$out"
  grep -qF "[$tag]" <<<"$out" || \
    fail "$name: expected a [$tag] finding"$'\n'"$out"
  grep -qF "$needle" <<<"$out" || \
    fail "$name: expected output mentioning '$needle'"$'\n'"$out"
  echo "lint_mutant_test: $name caught by [$tag]"
}

# Baseline: the unmutated copy must be clean, or the expectation below is
# meaningless.
run_lint >/dev/null || fail "baseline tree is not lint-clean"

# Mutant [raw-mutex]: a raw std::mutex outside common/mutex.h —
# invisible to both the thread-safety annotations and lockdep.
cat > "$TMP/tests/sneaky_raw_mutex.cc" <<'EOF'
#include <mutex>
std::mutex g_sneaky_mu;
void Sneak() { std::lock_guard<std::mutex> lock(g_sneaky_mu); }
EOF
expect_finding "raw-std-mutex" raw-mutex "std::mutex"
rm "$TMP/tests/sneaky_raw_mutex.cc"

# And the tree must be clean again once the mutant is reverted.
run_lint >/dev/null || fail "tree not clean after restoring the mutant"

echo "lint_mutant_test: PASS"
