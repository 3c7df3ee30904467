#!/usr/bin/env python3
"""Shared C++ source front end of cable_lint.py and cable_verify.py.

The two tools are two rule sets over one reading of the source:

  - ``load_source`` keeps the raw lines (directives live in comments)
    and a copy with comments and string/char literals blanked, which
    preserves every line and column so findings anchor exactly.
  - ``bitstream_calls`` is the one definition of a serialization
    site: a ``.put(value, WIDTH)``, ``.get(WIDTH[, ...])`` or
    walk ``.rw(value, WIDTH)`` call (the link frame's and the
    checkpoint's). The linter's R003 checks the width of each site
    in its scope.
  - ``Finding`` is the one diagnostic shape: a code (R or F plus three
    digits), a repo-relative path, a 1-based line and a detail. Both
    report schemas (cable-lint-v1, cable-verify-v1) serialize it
    as-is.
  - ``run_self_test`` runs a fixture directory whose files name the
    finding each line must produce with ``// expect: CODE``.
  - ``finish`` writes the JSON report, prints the findings and the
    summary line, and returns the exit status: 0 clean, 1 findings.
    Usage errors exit 2 before it is reached.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass

EXPECT_RE = re.compile(r"//\s*expect:\s*([A-Z]\d{3})")
CALL_RE = re.compile(r"\.(put|get|rw)\s*\(")
# Characters scanned past an opening parenthesis for its argument
# list; a call whose parentheses do not close within it is skipped.
ARGS_WINDOW = 600


@dataclass
class Finding:
    code: str
    path: str
    line: int  # 1-based
    detail: str

    def render(self, titles: dict[str, str]) -> str:
        return (f"{self.path}:{self.line}: {self.code} "
                f"[{titles[self.code]}] {self.detail}")


@dataclass
class Source:
    path: str  # repo-relative, forward slashes
    raw_lines: list[str]
    code: str  # comments and string/char literals blanked
    code_lines: list[str]

    def directives(self, pattern: re.Pattern):
        """(0-based line, match) for each raw line @p pattern finds."""
        for idx, line in enumerate(self.raw_lines):
            m = pattern.search(line)
            if m:
                yield idx, m

    def line_of(self, pos: int) -> int:
        """0-based line of a character offset into ``code``."""
        return self.code.count("\n", 0, pos)

    def args_at(self, pos: int):
        """Argument list of the call whose '(' ends just before
        @p pos, or None when it does not close in reach."""
        return split_top_level_args(self.code[pos:pos + ARGS_WINDOW])


def strip_comments_and_strings(text: str) -> str:
    """Blanks comments and string/char literals, preserving newlines
    and column positions so findings keep exact line numbers."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
            elif c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
            elif c == '"':
                state = "string"
                out.append(" ")
                i += 1
            elif c == "'":
                state = "char"
                out.append(" ")
                i += 1
            else:
                out.append(c)
                i += 1
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
            i += 1
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
            else:
                out.append(c if c == "\n" else " ")
                i += 1
        else:  # string or char literal
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
            elif c == quote:
                state = "code"
                out.append(" ")
                i += 1
            else:
                out.append(c if c == "\n" else " ")
                i += 1
    return "".join(out)


def load_source(root: str, rel: str) -> Source:
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        text = f.read()
    code = strip_comments_and_strings(text)
    return Source(rel, text.splitlines(), code, code.splitlines())


def split_top_level_args(text: str):
    """Splits a balanced argument list on top-level commas; returns
    None when the parentheses do not balance within the text."""
    args, depth, cur = [], 0, []
    for ch in text:
        if ch in "([{":
            depth += 1
        elif ch in ")]}":
            if depth == 0:
                args.append("".join(cur).strip())
                return args
            depth -= 1
        elif ch == "," and depth == 0:
            args.append("".join(cur).strip())
            cur = []
            continue
        cur.append(ch)
    return None


@dataclass
class Call:
    name: str  # put | get | rw
    line: int  # 1-based
    width: str  # the width argument as written


def bitstream_calls(src: Source) -> list[Call]:
    """Every serialization site in @p src. put(value, WIDTH) and a
    walk's rw(value, WIDTH), which writes or reads the field by the
    side that runs the walk, take their last argument as the width;
    get(WIDTH[, ...]) takes its first. A zero-argument smart-pointer
    .get() and a name-keyed accessor .get("counter"), whose only
    argument is a blanked string literal, are not sites."""
    calls = []
    for m in CALL_RE.finditer(src.code):
        args = src.args_at(m.end())
        if args is None:
            continue
        if m.group(1) != "get":
            if len(args) < 2:
                continue
            width = args[-1]
        else:
            if not args[0]:
                continue
            width = args[0]
        calls.append(Call(m.group(1), src.line_of(m.start()) + 1, width))
    return calls


def arg_parser(prog: str, description: str,
               schema: str) -> argparse.ArgumentParser:
    """The options both tools share: --root, --report, --self-test."""
    ap = argparse.ArgumentParser(prog=prog, description=description)
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--report", default=None,
                    help=f"write a {schema} JSON report here")
    ap.add_argument("--self-test", default=None, metavar="FIXTURES",
                    help="run the fixture suite instead")
    return ap


def run_self_test(tool: str, fixtures_dir: str, suffixes: tuple,
                  check) -> int:
    """Fixture mode: each file in @p fixtures_dir ending in one of
    @p suffixes is checked on its own by ``check(source)``.
    ``// expect: CODE`` markers name the finding each line must
    produce; a file without markers must come back clean."""
    names = sorted(fn for fn in os.listdir(fixtures_dir)
                   if fn.endswith(suffixes))
    if not names:
        print(f"{tool}: no fixtures in {fixtures_dir}", file=sys.stderr)
        return 2
    failures = 0
    for fn in names:
        src = load_source(fixtures_dir, fn)
        expected = {(m.group(1), idx + 1)
                    for idx, line in enumerate(src.raw_lines)
                    for m in EXPECT_RE.finditer(line)}
        got = {(f.code, f.line) for f in check(src)}
        for miss in sorted(expected - got):
            print(f"SELF-TEST FAIL {fn}:{miss[1]}: expected {miss[0]} "
                  f"did not fire")
        for extra in sorted(got - expected):
            print(f"SELF-TEST FAIL {fn}:{extra[1]}: unexpected "
                  f"{extra[0]}")
        failures += len(expected ^ got)
        status = "ok" if expected == got else "FAIL"
        print(f"self-test {fn}: {len(expected)} expected finding(s) "
              f"[{status}]")
    if failures:
        print(f"{tool} self-test: {failures} failure(s)")
        return 1
    print(f"{tool} self-test: all fixtures behave")
    return 0


def finish(findings: list[Finding], titles: dict[str, str],
           summary: str, report: str | None, doc: dict) -> int:
    """Writes @p doc to @p report when one was asked for, prints every
    finding and the summary line, and returns the exit status."""
    if report:
        with open(report, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")
    for f in findings:
        print(f.render(titles))
    print(summary)
    return 1 if findings else 0
