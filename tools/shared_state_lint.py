#!/usr/bin/env python3
"""Compile-time shared-state lint: certify the repo's own discipline.

The runtime checkers (kex_audit, kex_mc) verify behaviour; this pass
verifies the SOURCE obeys the conventions those checkers rely on.  It
needs no build tree — plain text over src/ — and enforces:

  raw-atomic       No ``std::atomic`` / ``volatile`` / ``__sync_*`` /
                   ``__atomic_*`` outside src/platform/.  All shared
                   memory goes through the platform ``var<T>`` wrapper so
                   the sim backend can observe, gate, and count every
                   access; a raw atomic is invisible to the auditor and
                   the model checker.  (``asm volatile`` is exempt — a
                   compiler barrier, not shared data.)

  unpadded-shared  In src/kex/ and src/service/, every ``var<...>``
                   member (state reachable from two pids) must be
                   ``padded<...>``-wrapped, ``alignas``-annotated, or
                   belong to a struct placed in a cache-line arena
                   (``arena_vector``/``packed_arena``/``padded<Struct>``
                   in the same file) — the false-sharing discipline of
                   src/kex/arena_layout.h: an object's words are padded
                   to lines of their own, or packed together onto
                   line-aligned whole lines that the object owns.

  raw-spin         No hand-rolled wait loop: a ``while``/``do`` loop
                   re-reading a platform variable in its condition must
                   instead go through ``await``/``await_while``/
                   ``await_bounded``/``await_cancellable``, which carry
                   the local-spin accounting and the model checker's
                   blocking hooks.

  atomic-scope     ``begin_atomic``/``end_atomic`` never appear outside
                   src/platform/ — multi-variable sections are declared
                   with the RAII ``atomic_section_scope`` so an early
                   return cannot leave a section open.

Documented exceptions carry an annotation on the offending line or the
line above it:

    // kex-lint: allow(<rule>): <reason>

or, covering every following line up to the next blank line (for a block
of declarations sharing one justification):

    // kex-lint: allow-block(<rule>): <reason>

Every annotation must suppress at least one finding — a stale allowlist
entry fails the lint just like a violation, so the allowlist stays an
exercised, reviewed list rather than a graveyard.

Usage:  shared_state_lint.py [--root <repo-root>] [-v]
Exit 0 iff no findings and no stale annotations.
"""

import argparse
import os
import re
import sys

RULES = ("raw-atomic", "unpadded-shared", "raw-spin", "atomic-scope")

ALLOW_RE = re.compile(
    r"//\s*kex-lint:\s*(allow|allow-block)\(([a-z-]+)\)\s*:\s*(.+)")
RAW_ATOMIC_RE = re.compile(r"std::atomic\b|\bvolatile\b|__sync_\w+|__atomic_\w+")
ASM_VOLATILE_RE = re.compile(r"\basm\s+volatile\b")
VAR_MEMBER_RE = re.compile(r"^\s*(?:mutable\s+)?(?:typename\s+)?"
                           r"(?:[A-Za-z_][\w:]*::)?var\s*<")
STRUCT_RE = re.compile(r"^\s*(?:template\s*<[^;{]*>\s*)?"
                       r"(?:struct|class)\s+(?:alignas\s*\([^)]*\)\s*)?"
                       r"([A-Za-z_]\w*)")
SPIN_KEYWORD_RE = re.compile(r"\b(?:while|do)\b")
READ_CALL_RE = re.compile(r"\.\s*read\s*\(|\.\s*peek\s*\(")
ATOMIC_SCOPE_RE = re.compile(r"\b(?:begin_atomic|end_atomic)\b")


def strip_comments(text):
    """Blank out comments and string literals, preserving line structure."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "str"
                out.append(c)
                i += 1
                continue
            if c == "'":
                state = "chr"
                out.append(c)
                i += 1
                continue
            out.append(c)
        elif state == "line":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("str", "chr"):
            quote = '"' if state == "str" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
            continue
        i += 1
    return "".join(out)


class Finding:
    def __init__(self, path, line, rule, detail):
        self.path = path
        self.line = line
        self.rule = rule
        self.detail = detail

    def __str__(self):
        return f"{self.path}:{self.line}: [{self.rule}] {self.detail}"


def enclosing_struct_stack(lines, upto):
    """Names of struct/class scopes open at line index `upto` (0-based)."""
    stack = []       # (name-or-None, brace-depth-at-open)
    depth = 0
    pending = None   # struct name seen, waiting for its '{'
    for idx in range(upto + 1):
        line = lines[idx]
        m = STRUCT_RE.match(line)
        if m and ";" not in line.split("{")[0]:
            pending = m.group(1)
        for ch in line:
            if ch == "{":
                depth += 1
                if pending is not None:
                    stack.append((pending, depth))
                    pending = None
            elif ch == "}":
                if stack and stack[-1][1] == depth:
                    stack.pop()
                depth -= 1
    return [name for name, _ in stack]


def join_condition(lines, start):
    """Text from `lines[start]` until the loop condition's parens close."""
    text = ""
    depth = 0
    opened = False
    for idx in range(start, min(start + 8, len(lines))):
        for ch in lines[idx]:
            text += ch
            if ch == "(":
                depth += 1
                opened = True
            elif ch == ")":
                depth -= 1
                if opened and depth == 0:
                    return text
        text += "\n"
    return text


def lint_file(relpath, text, findings):
    raw_lines = text.split("\n")
    code = strip_comments(text)
    lines = code.split("\n")

    in_platform = relpath.startswith("src/platform/")
    in_shared_layer = relpath.startswith(("src/kex/", "src/service/"))

    # Annotations live in the raw (commented) text.  Entry value:
    # [rule, reason, used, block_end].  A plain allow covers its own line
    # and the next CODE line (comment continuation lines in between are
    # skipped); allow-block covers every line up to the next blank line.
    allows = {}
    for i, raw in enumerate(raw_lines, 1):
        m = ALLOW_RE.search(raw)
        if not m:
            continue
        end = i
        if m.group(1) == "allow-block":
            while end < len(raw_lines) and raw_lines[end].strip() != "":
                end += 1
        else:
            while end < len(raw_lines) and lines[end].strip() == "":
                end += 1
            end += 1  # the first code line after the comment run
        allows[i] = [m.group(2), m.group(3).strip(), False, end]

    def emit(lineno, rule, detail):
        for cand in (lineno, lineno - 1):
            a = allows.get(cand)
            if a and a[0] == rule:
                a[2] = True
                return
        for start, a in allows.items():
            if a[0] == rule and start < lineno <= a[3]:
                a[2] = True
                return
        findings.append(Finding(relpath, lineno, rule, detail))

    for i, line in enumerate(lines):
        lineno = i + 1

        if not in_platform and RAW_ATOMIC_RE.search(line):
            if not ASM_VOLATILE_RE.search(line):
                emit(lineno, "raw-atomic",
                     "raw atomic/volatile outside src/platform/ — shared "
                     "state must go through var<T> "
                     f"({raw_lines[i].strip()[:80]})")

        if not in_platform and ATOMIC_SCOPE_RE.search(line):
            emit(lineno, "atomic-scope",
                 "begin_atomic/end_atomic outside src/platform/ — declare "
                 "sections with atomic_section_scope")

        if in_shared_layer and VAR_MEMBER_RE.match(line):
            if "padded<" in line or "alignas" in line:
                continue
            stack = enclosing_struct_stack(lines, i)
            holder = stack[-1] if stack else None
            placed = False
            if holder:
                placed = re.search(
                    rf"(?:arena_vector|packed_arena|padded)\s*<\s*"
                    rf"{re.escape(holder)}\b", code) is not None
            if not placed:
                emit(lineno, "unpadded-shared",
                     f"var<> member of '{holder or '?'}' neither padded/"
                     "alignas nor arena-placed in this file "
                     f"({raw_lines[i].strip()[:80]})")

        if relpath.startswith("src/") and not in_platform \
                and SPIN_KEYWORD_RE.search(line):
            kw = SPIN_KEYWORD_RE.search(line)
            cond = join_condition(lines, i)[kw.start():]
            if "while" in cond.split("(")[0] and READ_CALL_RE.search(cond):
                emit(lineno, "raw-spin",
                     "loop re-reads a platform variable in its condition — "
                     "use await/await_while/await_bounded/await_cancellable "
                     f"({raw_lines[i].strip()[:80]})")

    return allows


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=None,
                    help="repository root (default: this script's ../)")
    ap.add_argument("-v", "--verbose", action="store_true",
                    help="list exercised allowlist entries")
    args = ap.parse_args()

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    src = os.path.join(root, "src")
    if not os.path.isdir(src):
        print(f"shared_state_lint: no src/ under {root}", file=sys.stderr)
        return 2

    findings = []
    allow_entries = []  # (path, lineno, rule, reason, used)
    nfiles = 0
    for dirpath, _, names in sorted(os.walk(src)):
        for name in sorted(names):
            if not name.endswith((".h", ".hpp", ".cpp", ".cc")):
                continue
            path = os.path.join(dirpath, name)
            rel = os.path.relpath(path, root)
            with open(path, encoding="utf-8") as f:
                text = f.read()
            nfiles += 1
            allows = lint_file(rel, text, findings)
            for lineno, (rule, reason, used, _) in sorted(allows.items()):
                allow_entries.append((rel, lineno, rule, reason, used))

    stale = [e for e in allow_entries if not e[4]]
    used = [e for e in allow_entries if e[4]]

    for f in findings:
        print(f)
    for rel, lineno, rule, reason, _ in stale:
        print(f"{rel}:{lineno}: [stale-allow] annotation for '{rule}' "
              f"suppresses nothing — remove it ({reason})")
    if args.verbose or True:
        for rel, lineno, rule, reason, _ in used:
            print(f"  allow {rel}:{lineno} [{rule}] {reason}")

    print(f"shared_state_lint: {nfiles} files, {len(findings)} finding(s), "
          f"{len(used)} exercised allowlist entr"
          f"{'y' if len(used) == 1 else 'ies'}, {len(stale)} stale")
    return 1 if findings or stale else 0


if __name__ == "__main__":
    sys.exit(main())
