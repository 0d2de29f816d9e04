#!/usr/bin/env bash
# ViST invariant gate: runs the project-specific linter (scripts/vist_lint.py,
# whose one remaining rule is the [raw-mutex] ban) and verifies the
# lock-order table in docs/CONCURRENCY.md matches src/common/lock_ranks.h,
# both directions. When a lockdep edge-graph dump
# is supplied (--edges FILE, or $VIST_LOCKDEP_EDGES), the observed runtime
# acquisition order is also diffed against the table — scripts/check_tsan.sh
# produces such dumps from the stress/faults suites under
# VIST_DEADLOCK_DEBUG=ON.
#
# Exit 77 ("skip, don't fail" — same convention as check_static.sh) when
# python3 is unavailable on this host. The linter itself is
# dependency-free.
# Usage: scripts/check_invariants.sh [--edges FILE]
set -euo pipefail

cd "$(dirname "$0")/.."

EDGES="${VIST_LOCKDEP_EDGES:-}"
if [[ "${1:-}" == "--edges" ]]; then
  EDGES="${2:?--edges needs a file}"
fi

if ! command -v python3 >/dev/null 2>&1; then
  echo "check_invariants.sh: python3 not found; skipping (exit 77)" >&2
  exit 77
fi

python3 scripts/vist_lint.py --root .
python3 scripts/vist_lint.py --check-lock-doc

if [[ -n "$EDGES" ]]; then
  python3 scripts/vist_lint.py --check-edges "$EDGES"
fi
