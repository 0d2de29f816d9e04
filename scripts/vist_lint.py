#!/usr/bin/env python3
"""vist_lint.py — the ViST invariant linter.

Enforces the project-specific rule that generic clang-tidy cannot (see
docs/STATIC_ANALYSIS.md), on the whole tree including tests/ and bench/:

  [raw-mutex]      No raw std::mutex / std::shared_mutex / std::lock_guard
                   (or the other standard lock types) outside
                   src/common/mutex.h and src/common/lockdep.cc. All
                   locking goes through the vist::Mutex wrappers so the
                   thread-safety annotations and the runtime lockdep layer
                   see every acquisition. Per-line escape hatch:
                   `vist-lint: allow-raw-mutex — <reason>`.

The engine is a dependency-free lexical analyzer (comment/string
stripping and regular expressions over the real sources), so the gate
runs on any box with python3. When the libclang python bindings are
available, `--engine=libclang` re-resolves [raw-mutex] hits through the
AST to rule out false positives from exotic token sequences; without the
bindings that mode exits 77 (the repo-wide "skip, don't fail" convention — see
scripts/check_static.sh).

Beyond linting, this script owns the lock-rank table in
src/common/lock_ranks.h as machine-readable data:

  --lock-table         print the generated markdown table for
                       docs/CONCURRENCY.md
  --check-lock-doc     verify the table embedded in docs/CONCURRENCY.md
                       between the GENERATED LOCK TABLE markers matches
                       the header exactly (both directions: a rank added
                       to either side without the other fails)
  --check-edges FILE   validate a lockdep edge-graph JSON dump
                       (VIST_LOCKDEP_DUMP) against the table: every
                       observed edge must name known lock classes and run
                       from a strictly lower order to a higher one
                       (classes flagged unordered are exempt from the
                       order check; the runtime cycle detector owns them)

Exit codes: 0 clean, 1 findings, 2 usage/internal error, 77 skipped.
"""

import argparse
import json
import re
import sys
from pathlib import Path

# [raw-mutex]: the two files allowed to touch the std types — the wrapper
# itself, and the lockdep core (which cannot be built on the wrappers it
# instruments).
RAW_MUTEX_ALLOWED_FILES = [
    "src/common/mutex.h",
    "src/common/lockdep.cc",
]

RAW_MUTEX_TYPES = [
    "mutex",
    "timed_mutex",
    "recursive_mutex",
    "recursive_timed_mutex",
    "shared_mutex",
    "shared_timed_mutex",
    "lock_guard",
    "unique_lock",
    "shared_lock",
    "scoped_lock",
]
RAW_MUTEX_RE = re.compile(r"\bstd\s*::\s*(" + "|".join(RAW_MUTEX_TYPES) + r")\b")

SCAN_DIRS = ["src", "tests", "bench", "examples"]

LOCK_TABLE_BEGIN = "<!-- BEGIN GENERATED LOCK TABLE" \
    " (scripts/vist_lint.py --lock-table) -->"
LOCK_TABLE_END = "<!-- END GENERATED LOCK TABLE -->"


class Finding:
    def __init__(self, rule, path, line, message):
        self.rule = rule
        self.path = path
        self.line = line
        self.message = message

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text):
    """Returns `text` with comments and string/char literals replaced by
    spaces (newlines preserved), so lexical rules never fire on prose."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                out.append(" ")
                i += 1
        elif c == "/" and nxt == "*":
            out.append("  ")
            i += 2
            while i < n and not (text[i] == "*" and i + 1 < n and
                                 text[i + 1] == "/"):
                out.append("\n" if text[i] == "\n" else " ")
                i += 1
            if i < n:
                out.append("  ")
                i += 2
        elif c == '"' or c == "'":
            quote = c
            out.append(" ")
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\" and i + 1 < n:
                    out.append("  ")
                    i += 2
                else:
                    out.append("\n" if text[i] == "\n" else " ")
                    i += 1
            if i < n:
                out.append(" ")
                i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def line_of(text, pos):
    return text.count("\n", 0, pos) + 1


def iter_source_files(root):
    for top in SCAN_DIRS:
        base = root / top
        if not base.is_dir():
            continue
        for path in sorted(base.rglob("*")):
            if path.suffix in (".h", ".cc") and path.is_file():
                yield path


def rel(root, path):
    return str(path.relative_to(root))


# ---------------------------------------------------------------------------
# [raw-mutex]


def check_raw_mutex(root, path, original_lines, stripped):
    findings = []
    if rel(root, path) in RAW_MUTEX_ALLOWED_FILES:
        return findings
    for match in RAW_MUTEX_RE.finditer(stripped):
        line = line_of(stripped, match.start())
        orig = original_lines[line - 1]
        if "vist-lint: allow-raw-mutex" in orig:
            continue
        findings.append(Finding(
            "raw-mutex", rel(root, path), line,
            f"raw std::{match.group(1)} — use the vist::Mutex wrappers from "
            "common/mutex.h (rank-checked under VIST_DEADLOCK_DEBUG); "
            "annotate `vist-lint: allow-raw-mutex` with a reason if this "
            "site truly cannot"))
    return findings


# ---------------------------------------------------------------------------
# Lock-rank table (src/common/lock_ranks.h as data)

LOCK_RANKS_HEADER = "src/common/lock_ranks.h"
RANK_ENTRY_RE = re.compile(
    r"X\(\s*(\w+)\s*,\s*(\d+)\s*,\s*([\w|\s]+?)\s*,\s*"
    r"((?:\"(?:[^\"\\]|\\.)*\"\s*)+)\)")


def parse_lock_ranks(root):
    """Parses the X-macro entries out of lock_ranks.h. Returns a list of
    dicts: name, order, flags, description."""
    path = root / LOCK_RANKS_HEADER
    text = path.read_text()
    begin = text.index("#define VIST_LOCK_RANK_LIST(X)")
    # The macro body is the run of backslash-continued lines.
    lines = text[begin:].splitlines()
    body_lines = [lines[0]]
    for ln in lines[1:]:
        body_lines.append(ln)
        if not ln.rstrip().endswith("\\"):
            break
    body = "\n".join(ln.rstrip().rstrip("\\") for ln in body_lines)
    ranks = []
    for match in RANK_ENTRY_RE.finditer(body):
        name, order, flags, desc_tokens = match.groups()
        desc = "".join(re.findall(r"\"((?:[^\"\\]|\\.)*)\"", desc_tokens))
        ranks.append({
            "name": name,
            "order": int(order),
            "flags": flags.strip(),
            "unordered": "kLockRankFlagUnordered" in flags,
            "description": desc,
        })
    if not ranks:
        raise RuntimeError(f"no X(...) entries parsed from {path}")
    return ranks


def lock_table_markdown(ranks):
    lines = [
        LOCK_TABLE_BEGIN,
        "| Order | Lock class | Constraints | Protects |",
        "|---|---|---|---|",
    ]
    for r in ranks:
        constraint = "learned (unordered)" if r["unordered"] else "strict"
        lines.append(
            f"| {r['order']} | `{r['name']}` | {constraint} | "
            f"{r['description']} |")
    lines.append(LOCK_TABLE_END)
    return "\n".join(lines) + "\n"


def check_lock_doc(root):
    doc_path = root / "docs" / "CONCURRENCY.md"
    doc = doc_path.read_text()
    if LOCK_TABLE_BEGIN not in doc or LOCK_TABLE_END not in doc:
        print(f"{doc_path}: GENERATED LOCK TABLE markers not found; "
              "regenerate with scripts/vist_lint.py --lock-table",
              file=sys.stderr)
        return 1
    begin = doc.index(LOCK_TABLE_BEGIN)
    end = doc.index(LOCK_TABLE_END) + len(LOCK_TABLE_END)
    embedded = doc[begin:end] + "\n"
    expected = lock_table_markdown(parse_lock_ranks(root))
    if embedded != expected:
        print(f"{doc_path}: lock-order table drifted from "
              f"{LOCK_RANKS_HEADER}; regenerate the section between the "
              "markers with scripts/vist_lint.py --lock-table",
              file=sys.stderr)
        import difflib
        sys.stderr.writelines(difflib.unified_diff(
            embedded.splitlines(keepends=True),
            expected.splitlines(keepends=True),
            fromfile="docs/CONCURRENCY.md (embedded)",
            tofile="generated from lock_ranks.h"))
        return 1
    print("lock-order table in docs/CONCURRENCY.md matches "
          f"{LOCK_RANKS_HEADER}")
    return 0


def check_edges(root, dump_path):
    """Validates a lockdep JSON dump (VIST_LOCKDEP_DUMP) against the rank
    table: the observed graph must agree with the documented order."""
    ranks = {r["name"]: r for r in parse_lock_ranks(root)}
    try:
        dump = json.loads(Path(dump_path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        print(f"{dump_path}: unreadable edge dump: {e}", file=sys.stderr)
        return 2
    bad = 0
    edges = dump.get("edges", [])
    for edge in edges:
        src, dst = edge.get("from"), edge.get("to")
        for name in (src, dst):
            if name not in ranks:
                print(f"{dump_path}: edge {src} -> {dst} names unknown lock "
                      f"class {name} — observed graph and "
                      f"{LOCK_RANKS_HEADER} have drifted", file=sys.stderr)
                bad += 1
        if src not in ranks or dst not in ranks:
            continue
        if ranks[src]["unordered"] or ranks[dst]["unordered"]:
            continue  # the runtime cycle detector owns these
        if ranks[src]["order"] >= ranks[dst]["order"]:
            print(f"{dump_path}: observed edge {src} (order "
                  f"{ranks[src]['order']}) -> {dst} (order "
                  f"{ranks[dst]['order']}) inverts the documented order "
                  f"(held at {edge.get('held_site')}, acquired at "
                  f"{edge.get('acquire_site')})", file=sys.stderr)
            bad += 1
    if bad:
        return 1
    print(f"{dump_path}: {len(edges)} observed edge(s) consistent with "
          f"{LOCK_RANKS_HEADER}")
    return 0


# ---------------------------------------------------------------------------
# Optional libclang refinement


def libclang_available():
    try:
        import clang.cindex  # noqa: F401
        return True
    except ImportError:
        return False


def refine_raw_mutex_with_libclang(root, findings):
    """Re-checks [raw-mutex] findings through the AST: a hit survives only
    if the file's translation unit really references the std lock type.
    Precision upgrade only — the lexical engine already stripped comments
    and strings, so in practice this is a no-op confirmation pass."""
    import clang.cindex as ci
    confirmed = []
    by_file = {}
    for f in findings:
        if f.rule == "raw-mutex":
            by_file.setdefault(f.path, []).append(f)
        else:
            confirmed.append(f)
    index = ci.Index.create()
    for path, file_findings in by_file.items():
        try:
            tu = index.parse(str(root / path),
                             args=["-std=c++20", f"-I{root / 'src'}"])
        except ci.TranslationUnitLoadError:
            confirmed.extend(file_findings)  # cannot parse: keep the hits
            continue
        referenced = set()
        for cursor in tu.cursor.walk_preorder():
            if cursor.kind.is_reference() or cursor.kind.is_declaration():
                name = cursor.spelling or ""
                if name in RAW_MUTEX_TYPES:
                    referenced.add(cursor.location.line)
        for f in file_findings:
            if f.line in referenced or not referenced:
                confirmed.append(f)
    return confirmed


# ---------------------------------------------------------------------------


def run_lint(root, engine):
    findings = []
    for path in iter_source_files(root):
        text = path.read_text(errors="replace")
        original_lines = text.splitlines()
        stripped = strip_comments_and_strings(text)
        findings += check_raw_mutex(root, path, original_lines, stripped)

    if engine == "libclang":
        findings = refine_raw_mutex_with_libclang(root, findings)

    for f in sorted(findings, key=lambda f: (f.path, f.line)):
        print(f)
    if findings:
        print(f"vist_lint: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    print("vist_lint: clean")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", type=Path,
                        default=Path(__file__).resolve().parent.parent,
                        help="repository root to lint (default: this repo)")
    parser.add_argument("--engine", choices=["lexical", "libclang"],
                        default="lexical",
                        help="lexical (dependency-free, default) or "
                             "libclang (AST-refined; exits 77 when the "
                             "bindings are absent)")
    parser.add_argument("--lock-table", action="store_true",
                        help="print the markdown lock table generated from "
                             "src/common/lock_ranks.h and exit")
    parser.add_argument("--check-lock-doc", action="store_true",
                        help="verify docs/CONCURRENCY.md embeds the exact "
                             "generated lock table")
    parser.add_argument("--check-edges", metavar="JSON",
                        help="validate a VIST_LOCKDEP_DUMP edge graph "
                             "against the rank table")
    args = parser.parse_args()

    root = args.root.resolve()
    if not (root / "src").is_dir():
        print(f"{root}: not a vist source tree (no src/)", file=sys.stderr)
        return 2

    if args.lock_table:
        sys.stdout.write(lock_table_markdown(parse_lock_ranks(root)))
        return 0
    if args.check_lock_doc:
        return check_lock_doc(root)
    if args.check_edges:
        return check_edges(root, args.check_edges)

    if args.engine == "libclang" and not libclang_available():
        print("vist_lint: libclang python bindings not available; "
              "skipping (exit 77). The lexical engine needs no "
              "dependencies: rerun with --engine=lexical.", file=sys.stderr)
        return 77

    return run_lint(root, args.engine)


if __name__ == "__main__":
    sys.exit(main())
