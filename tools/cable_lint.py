#!/usr/bin/env python3
"""CABLE-specific static analysis (DESIGN.md section 11).

Enforces five invariants that generic linters cannot express:

  R001  no-alloc: functions annotated ``// cable-lint: no-alloc``
        must not contain heap-allocating constructs. Capacity-reusing
        operations on caller-owned scratch containers (push_back,
        emplace_back, assign, clear) are allowed by contract — the
        containers retain their high-water capacity (see
        CableChannel::SearchScratch); direct allocation constructs
        (new, malloc family, make_unique/make_shared, std::to_string,
        local standard-container declarations, resize/reserve) are
        findings.
  R002  determinism: sources under src/core/, src/compress/ and
        src/sim/ must not reach for nondeterminism — rand/srand,
        std::random_device, wall-clock time, or unordered-container
        state whose iteration order could feed simulator output.
        Unordered containers are allowed only with a justified
        ``allow(R002)`` directive.
  R003  wire-format widths: in src/core/, the width argument of
        every serialization site — put(value, WIDTH), get(WIDTH[, ...])
        and the rw(value, WIDTH) of the link-frame and checkpoint
        walks, as cable_scan.bitstream_calls finds them — must be a
        named constant or expression, not a bare integer literal (the
        wire contract lives in core/wire_format.h and
        core/checkpoint.h, not in call sites). Since each walk is
        both writer and reader, a named width there covers both
        sides.
  R004  result discipline: public non-const member functions in
        src/core/*.h that return a value must be [[nodiscard]] (or
        carry a justified ``allow(R004)``).
  R005  serialization discipline: the link frame and the
        checkpoint/resync persistence layer (src/core/frame.*,
        src/core/checkpoint.*, src/core/resync.*) must encode every
        field through the bit-stream API; raw memory images
        (memcpy/memmove/reinterpret_cast of structures) are findings.
        They bake host layout into the wire and on-disk formats and
        silently break the format-stability guarantee that the
        committed golden checkpoint enforces.

Directives (in comments):

  // cable-lint: no-alloc
      Marks the next function definition as a no-alloc region.
  // cable-lint: allow(RXXX) <justification>
      Suppresses rule RXXX from the directive line through the next
      code line (comment-only lines in between are skipped, so the
      justification may span several comment lines).

Source reading, the call scanner, the fixture runner and the report
driver are shared with cable_verify.py (cable_scan.py).

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import json
import os
import re
import sys
from dataclasses import dataclass

from cable_scan import (Finding, Source, arg_parser, bitstream_calls,
                        finish, load_source, run_self_test,
                        split_top_level_args)

RULES = {
    "R001": "heap allocation in a no-alloc function",
    "R002": "nondeterminism in a deterministic subsystem",
    "R003": "wire-format width written as a bare literal",
    "R004": "public mutating API without [[nodiscard]]",
    "R005": "raw-memory serialization in frame/checkpoint/resync",
}

# Paths each rule covers in a tree run; R001 follows its markers
# wherever they are. The fixture suite opens R002 and R003 to every
# fixture, R004 to every header, and R005 to its own fixture only
# (its raw-memory bans would trip on ordinary fixture code).
TREE_SCOPE = {
    "R002": re.compile(r"^src/(?:core|compress|sim)/"),
    "R003": re.compile(r"^src/core/"),
    "R004": re.compile(r"src/core/[^/]+\.h$"),
    "R005": re.compile(
        r"src/core/(?:frame|checkpoint|resync)\.(?:h|cc)$"),
}
FIXTURE_SCOPE = {
    "R002": re.compile(""),
    "R003": re.compile(""),
    "R004": re.compile(r"\.h$"),
    "R005": re.compile("r005"),
}

NO_ALLOC_RE = re.compile(r"//\s*cable-lint:\s*no-alloc")
ALLOW_RE = re.compile(r"//\s*cable-lint:\s*allow\((R\d{3})\)")
SOURCE_SUFFIXES = (".h", ".cc", ".cpp")


def allowances(src: Source) -> dict[int, set[str]]:
    """0-based line -> rules an ``allow`` directive suppresses there.
    An allowance covers the directive's own line and every line
    through the next code line (skipping comment-only lines lets the
    justification span a comment block)."""
    allow: dict[int, set[str]] = {}
    for idx, m in src.directives(ALLOW_RE):
        for j in range(idx, len(src.raw_lines)):
            allow.setdefault(j, set()).add(m.group(1))
            if j > idx and src.code_lines[j].strip():
                break
    return allow


def function_extent(src: Source, mark_idx: int):
    """Returns (start_idx, end_idx) of the body of the first function
    definition after a ``no-alloc`` marker, by brace matching on the
    comment-stripped text. Returns None when no body follows."""
    depth = 0
    start = None
    for idx in range(mark_idx + 1, len(src.code_lines)):
        line = src.code_lines[idx]
        for ch in line:
            if ch == "{":
                if start is None:
                    start = idx
                depth += 1
            elif ch == "}":
                depth -= 1
                if start is not None and depth == 0:
                    return (start, idx)
        # A top-level semicolon before any '{' means the marker sat on
        # a declaration; the definition elsewhere is not covered.
        if start is None and ";" in line:
            return None
    return None


def banned_constructs(src: Source, allow, rule: str, banned, lines,
                      suffix: str = "") -> list[Finding]:
    """Findings of @p rule for every @p banned pattern on @p lines
    (0-based) that no allowance covers; #include lines never count."""
    found = []
    for idx in lines:
        if rule in allow.get(idx, ()) \
                or src.raw_lines[idx].lstrip().startswith("#include"):
            continue
        for pat, what in banned:
            if pat.search(src.code_lines[idx]):
                found.append(Finding(rule, src.path, idx + 1,
                                     what + suffix))
    return found


# ---------------------------------------------------------------------
# R001: no heap allocation in marked functions
# ---------------------------------------------------------------------

R001_BANNED = [
    (re.compile(r"(?<![\w.:])new\b(?!\s*\()"), "operator new"),
    (re.compile(r"(?<![\w.:])new\s*\("), "placement/operator new"),
    (re.compile(r"(?<![\w:])(?:std::)?(?:m|c|re)alloc\s*\("),
     "C allocation"),
    (re.compile(r"\bstrdup\s*\("), "strdup"),
    (re.compile(r"\bmake_(?:unique|shared)\b"), "make_unique/make_shared"),
    (re.compile(r"\bto_string\s*\("), "std::to_string"),
    (re.compile(r"\.(?:resize|reserve|shrink_to_fit)\s*\("),
     "capacity-changing container call"),
    (re.compile(r"^\s*(?:const\s+)?std::"
                r"(?:vector|string|unordered_map|unordered_set|map|set|"
                r"deque|list|ostringstream|stringstream)\b(?![^;=]*[*&])"),
    "local standard-container construction"),
    # A literal first argument reaches the by-name StatSet API, which
    # builds a std::string key (heap past the small-string limit) and
    # searches a map; hot paths use registered handles instead. Code
    # lines blank literals, so the argument shows as whitespace.
    (re.compile(r"\.(?:add|counter|hist|dist|sketch)\s*\(\s{2,}[,)]"),
     "string-keyed stat lookup"),
]


def check_r001(src: Source, allow, findings: list[Finding]):
    for mark, _m in src.directives(NO_ALLOC_RE):
        extent = function_extent(src, mark)
        if extent is not None:
            findings += banned_constructs(
                src, allow, "R001", R001_BANNED,
                range(extent[0], extent[1] + 1),
                " inside a no-alloc function")


# ---------------------------------------------------------------------
# R002: determinism
# ---------------------------------------------------------------------

R002_BANNED = [
    (re.compile(r"(?<![\w.>])s?rand\s*\("), "rand/srand"),
    (re.compile(r"\brandom_device\b"), "std::random_device"),
    (re.compile(r"(?<![\w.>])time\s*\("), "wall-clock time()"),
    (re.compile(r"\b(?:gettimeofday|clock_gettime)\s*\("),
     "wall-clock query"),
    (re.compile(r"\bsystem_clock\b"), "std::chrono::system_clock"),
    (re.compile(r"\bunordered_(?:map|set|multimap|multiset)\b"),
     "unordered container (iteration order may leak into output)"),
]


def check_r002(src: Source, allow, findings: list[Finding]):
    findings += banned_constructs(src, allow, "R002", R002_BANNED,
                                  range(len(src.code_lines)))


# ---------------------------------------------------------------------
# R003: wire-format widths must be named
# ---------------------------------------------------------------------

INT_LITERAL_RE = re.compile(r"^(?:0[xXbB][0-9a-fA-F']+|[0-9']+)[uUlL]*$")


def check_r003(src: Source, allow, findings: list[Finding]):
    for c in bitstream_calls(src):
        if INT_LITERAL_RE.match(c.width) \
                and "R003" not in allow.get(c.line - 1, ()):
            findings.append(Finding(
                "R003", src.path, c.line,
                f"{c.name}() width '{c.width}' is a bare literal; "
                f"name it in core/wire_format.h or core/checkpoint.h"))


# ---------------------------------------------------------------------
# R005: no raw memory images in serialization code
# ---------------------------------------------------------------------

R005_RAW_MEMORY = [
    (re.compile(r"\b(?:std::)?memcpy\s*\("), "memcpy"),
    (re.compile(r"\b(?:std::)?memmove\s*\("), "memmove"),
    (re.compile(r"\breinterpret_cast\s*<"), "reinterpret_cast"),
]


def check_r005(src: Source, allow, findings: list[Finding]):
    """Structures cross the persistence boundary field by field; a raw
    memory image would bake host endianness and padding into the
    on-disk format."""
    findings += banned_constructs(
        src, allow, "R005", R005_RAW_MEMORY, range(len(src.code_lines)),
        " in serialization code; encode through the bit-stream API "
        "field by field")


# ---------------------------------------------------------------------
# R004: public mutating API must be [[nodiscard]] or void
# ---------------------------------------------------------------------

R004_SKIP_START = re.compile(
    r"^(?:using|typedef|friend|static|template|enum|public|private|"
    r"protected|struct|class|union)\b")
R004_SPECIFIERS = ("virtual", "inline", "constexpr", "explicit",
                   "[[nodiscard]]")
CLASS_HEAD_RE = re.compile(
    r"^(?:template\s*<.*>\s*)?(class|struct|union)\s+([A-Za-z_]\w*)"
    r"(?:\s+final)?(?:\s*:[^;{]*)?$")


@dataclass
class _Scope:
    kind: str  # "namespace" | "class" | "opaque"
    name: str = ""
    access: str = "public"


def _declaration_is_finding(decl: str, cls: str) -> str | None:
    """Returns a finding detail for a public member declaration that
    needs [[nodiscard]], else None."""
    flat = " ".join(decl.split())
    if not flat or "(" not in flat:
        return None
    if R004_SKIP_START.match(flat):
        return None
    if "[[nodiscard]]" in flat:
        return None
    if "operator" in flat.split("(", 1)[0]:
        return None
    name_m = re.search(r"([~\w]+)\s*\(", flat)
    if not name_m:
        return None
    name = name_m.group(1)
    if name == cls or name.startswith("~"):
        return None  # constructor / destructor
    # Const member functions are non-mutating; only the qualifier
    # after the parameter list counts.
    args = split_top_level_args(flat[name_m.end():])
    if args is None:
        return None
    tail_pos = flat.index("(", name_m.start())
    # Walk to the matching close paren of the parameter list.
    depth = 0
    for i in range(tail_pos, len(flat)):
        if flat[i] == "(":
            depth += 1
        elif flat[i] == ")":
            depth -= 1
            if depth == 0:
                tail = flat[i + 1:]
                break
    else:
        return None
    if re.match(r"\s*const\b", tail):
        return None
    ret = flat[:name_m.start()].strip()
    for spec in R004_SPECIFIERS:
        ret = ret.replace(spec, " ")
    ret = " ".join(ret.split())
    if not ret:
        return None  # conversion operator or unparsable
    if ret == "void":
        return None
    return (f"public mutating {cls}::{name}() returns {ret} without "
            f"[[nodiscard]]")


def check_r004(src: Source, allow, findings: list[Finding]):
    stack: list[_Scope] = []
    # The statement fragment accumulated since the last boundary, as
    # (line_idx, text) segments so findings anchor to real lines.
    segs: list[tuple[int, str]] = []

    def frag() -> str:
        return " ".join(" ".join(t.split()) for _i, t in segs).strip()

    def innermost_collecting() -> bool:
        return not stack or stack[-1].kind in ("namespace", "class")

    def evaluate_member():
        """Runs the R004 check on the accumulated fragment when it is
        a member declaration of the innermost class scope."""
        if not (stack and stack[-1].kind == "class"):
            segs.clear()
            return
        ctx = stack[-1]
        text = frag()
        if ctx.access == "public" and text:
            detail = _declaration_is_finding(text, ctx.name)
            if detail and not any(
                    "R004" in allow.get(i, ()) for i, _t in segs):
                # Anchor to the line carrying the function name.
                name = re.search(r"([~\w]+)\s*\(", text).group(1)
                anchor = segs[0][0]
                for i, t in segs:
                    if re.search(re.escape(name) + r"\s*\(", t):
                        anchor = i
                        break
                findings.append(Finding("R004", src.path, anchor + 1,
                                        detail))
        segs.clear()

    in_pp = False  # inside a (possibly continued) preprocessor line
    for idx, line in enumerate(src.code_lines):
        raw = src.raw_lines[idx]
        if in_pp or raw.lstrip().startswith("#"):
            in_pp = raw.rstrip().endswith("\\")
            continue
        buf = ""
        for ch in line:
            if ch == "{":
                head = " ".join((frag() + " " + buf).split())
                if innermost_collecting():
                    m = CLASS_HEAD_RE.match(head)
                    if head.startswith(("namespace", "extern")):
                        stack.append(_Scope("namespace"))
                    elif m:
                        stack.append(_Scope(
                            "class", m.group(2),
                            "private" if m.group(1) == "class"
                            else "public"))
                    else:
                        # Inline member body or brace initializer:
                        # evaluate the declaration first, then treat
                        # the braced region as opaque.
                        if buf.strip():
                            segs.append((idx, buf))
                        evaluate_member()
                        stack.append(_Scope("opaque"))
                else:
                    stack.append(_Scope("opaque"))
                segs.clear()
                buf = ""
            elif ch == "}":
                if buf.strip() and innermost_collecting():
                    segs.append((idx, buf))
                if stack:
                    stack.pop()
                segs.clear()
                buf = ""
            elif ch == ";":
                if innermost_collecting():
                    if buf.strip():
                        segs.append((idx, buf))
                    evaluate_member()
                buf = ""
            elif ch == ":":
                # Access labels reset the fragment; "::" and base
                # lists pass through untouched.
                probe = (frag() + " " + buf).strip()
                if probe in ("public", "private", "protected") and \
                        stack and stack[-1].kind == "class":
                    stack[-1].access = probe
                    segs.clear()
                    buf = ""
                else:
                    buf += ch
            else:
                buf += ch
        if buf.strip() and innermost_collecting():
            segs.append((idx, buf))


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------

SCOPED_CHECKS = (("R002", check_r002), ("R003", check_r003),
                 ("R004", check_r004), ("R005", check_r005))


def lint_file(src: Source, scope=TREE_SCOPE) -> list[Finding]:
    allow = allowances(src)
    findings: list[Finding] = []
    check_r001(src, allow, findings)
    for rule, check in SCOPED_CHECKS:
        if scope[rule].search(src.path):
            check(src, allow, findings)
    return findings


def tree_sources(root: str, compile_commands: str | None):
    """Project sources: every .h/.cc under src/, unioned with the
    translation units listed in compile_commands.json (which also
    validates that the database and tree agree)."""
    rels = set()
    src_root = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for fn in filenames:
            if fn.endswith(SOURCE_SUFFIXES):
                rel = os.path.relpath(os.path.join(dirpath, fn), root)
                rels.add(rel.replace(os.sep, "/"))
    if compile_commands and os.path.exists(compile_commands):
        with open(compile_commands, encoding="utf-8") as f:
            for entry in json.load(f):
                path = os.path.normpath(os.path.join(
                    entry.get("directory", root), entry["file"]))
                rel = os.path.relpath(path, root).replace(os.sep, "/")
                if rel.startswith("src/"):
                    if not os.path.exists(os.path.join(root, rel)):
                        print(f"cable-lint: stale compile_commands "
                              f"entry: {rel}", file=sys.stderr)
                        continue
                    rels.add(rel)
    return sorted(rels)


def main(argv=None) -> int:
    ap = arg_parser("cable_lint.py",
                    "CABLE invariant linter (rules R001-R005)",
                    "cable-lint-v1")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json to union sources from")
    ap.add_argument("files", nargs="*",
                    help="lint only these files (repo-relative)")
    args = ap.parse_args(argv)

    if args.self_test:
        return run_self_test(
            "cable-lint", args.self_test, SOURCE_SUFFIXES,
            lambda src: lint_file(src, FIXTURE_SCOPE))

    root = os.path.abspath(args.root)
    rels = args.files or tree_sources(root, args.compile_commands)
    if not rels:
        print("cable-lint: no sources found", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for rel in rels:
        try:
            src = load_source(root, rel)
        except OSError as e:
            print(f"cable-lint: {e}", file=sys.stderr)
            return 2
        findings.extend(lint_file(src))

    doc = {
        "schema": "cable-lint-v1",
        "files": len(rels),
        "findings": [vars(f) for f in findings],
    }
    return finish(findings, RULES,
                  f"cable-lint: {len(rels)} file(s), "
                  f"{len(findings)} finding(s)", args.report, doc)


if __name__ == "__main__":
    sys.exit(main())
