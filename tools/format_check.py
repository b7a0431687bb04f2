#!/usr/bin/env python3
"""Mechanical formatting gate for C++, CMake, Python, and YAML sources.

The repo ships a .clang-format for editors, but CI containers are not
guaranteed a clang-format binary (and pinning one is its own hazard:
different majors disagree about the same style file, so a version bump
reformats the world).  This script enforces the subset of formatting that
is unambiguous across tools and catches the errors that actually creep
into review diffs:

  * trailing whitespace
  * hard tabs in C++/Python sources (Makefiles and .gitmodules excepted
    by simply not being checked)
  * CRLF line endings
  * missing newline at end of file
  * more than one blank line at end of file
  * a C++ line holding two `co_await`s, or a `co_await` inside an
    `if (` / `while (` condition (src/sim/task.hpp: every co_await sits
    in its own statement, because GCC 12 miscompiles some nested forms)

Deliberately NOT enforced: line length, brace placement, indent width --
those are .clang-format's job and a human reviewer's eye; half-enforcing
them mechanically with a weaker tool would fight the real formatter.

Usage:
  python3 tools/format_check.py [paths...]      # check (default: repo dirs)
  python3 tools/format_check.py --fix [paths]   # rewrite files in place
Exit status: 0 clean, 1 violations found (or fixed with --fix).
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CHECKED_SUFFIXES = {
    ".cpp", ".hpp", ".cc", ".h", ".py", ".cmake", ".yml", ".yaml",
    ".md", ".txt",
}
CHECKED_NAMES = {"CMakeLists.txt"}
# Tabs are conventional in some ecosystems; only flag them where the
# repo style is unambiguous (C++ and Python).
TAB_SUFFIXES = {".cpp", ".hpp", ".cc", ".h", ".py"}
DEFAULT_ROOTS = ["src", "tests", "bench", "examples", "tools", "docs"]
CPP_SUFFIXES = {".cpp", ".hpp", ".cc", ".h"}
# String/char literals and // comments are blanked before the co_await scan
# so prose about the rule (task.hpp's header) does not trip it.
LITERAL_OR_COMMENT = re.compile(r'"(?:\\.|[^"\\])*"|\'(?:\\.|[^\'\\])\'|//.*')
CONDITION_OPEN = re.compile(r"\b(?:if|while)\s*\(")


def discover(paths: list[str]) -> list[Path]:
    files: list[Path] = []
    for raw in paths:
        p = Path(raw)
        if p.is_file():
            files.append(p)
            continue
        for f in sorted(p.rglob("*")):
            if not f.is_file():
                continue
            if f.suffix in CHECKED_SUFFIXES or f.name in CHECKED_NAMES:
                files.append(f)
    return files


def condition_spans(code: str) -> list[str]:
    """The parenthesised conditions of the if/while statements on `code`
    (to the end of the line when the condition continues past it)."""
    spans = []
    for match in CONDITION_OPEN.finditer(code):
        depth, start = 1, match.end()
        end = start
        while end < len(code) and depth:
            depth += {"(": 1, ")": -1}.get(code[end], 0)
            end += 1
        spans.append(code[start:end])
    return spans


def co_await_problem(line: str) -> str | None:
    """Why `line` breaks the one-co_await-per-statement rule, or None."""
    code = LITERAL_OR_COMMENT.sub("", line)
    if len(re.findall(r"\bco_await\b", code)) > 1:
        return "two co_awaits on one line (hoist one into a named local)"
    if any(re.search(r"\bco_await\b", c) for c in condition_spans(code)):
        return "co_await inside an if/while condition (hoist it)"
    return None


def check_file(path: Path, fix: bool) -> list[str]:
    """Returns human-readable violations; rewrites the file when fix=True."""
    try:
        raw = path.read_bytes()
    except OSError as err:
        return [f"{path}: unreadable ({err})"]
    if not raw:
        return []
    problems: list[str] = []
    text = raw.decode("utf-8", errors="replace")

    if "\r" in text:
        problems.append(f"{path}: CRLF line ending")
        text = text.replace("\r\n", "\n").replace("\r", "\n")

    lines = text.split("\n")
    flag_tabs = path.suffix in TAB_SUFFIXES
    is_cpp = path.suffix in CPP_SUFFIXES
    for i, line in enumerate(lines, start=1):
        if line != line.rstrip():
            problems.append(f"{path}:{i}: trailing whitespace")
        if flag_tabs and "\t" in line:
            problems.append(f"{path}:{i}: hard tab")
        why = co_await_problem(line) if is_cpp else None
        if why:
            problems.append(f"{path}:{i}: {why}")
    lines = [ln.rstrip() for ln in lines]

    body = "\n".join(lines)
    fixed = body.rstrip("\n") + "\n"
    if not text.endswith("\n"):
        problems.append(f"{path}: no newline at end of file")
    elif body != fixed:
        problems.append(f"{path}: extra blank line(s) at end of file")

    if fix and problems:
        path.write_bytes(fixed.encode("utf-8"))
    return problems


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("paths", nargs="*", default=DEFAULT_ROOTS)
    parser.add_argument("--fix", action="store_true",
                        help="rewrite files in place instead of reporting")
    args = parser.parse_args(argv)

    files = discover(args.paths or DEFAULT_ROOTS)
    if not files:
        print("format_check: no files found", file=sys.stderr)
        return 1

    all_problems: list[str] = []
    for f in files:
        all_problems.extend(check_file(f, args.fix))

    if all_problems:
        verb = "fixed" if args.fix else "found"
        for p in all_problems:
            print(p)
        print(f"format_check: {len(all_problems)} violation(s) {verb} "
              f"in {len(files)} file(s)")
        return 1
    print(f"ok: {len(files)} file(s) pass the format check")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
