#!/usr/bin/env python3
"""CABLE-specific static analysis (DESIGN.md section 11).

Enforces four invariants that generic linters cannot express:

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
        BitWriter::put() and BitReader::get() must be a named
        constant or expression, not a bare integer literal (the wire
        contract lives in core/wire_format.h, not in call sites). The
        read side is checked with the same rigor as the write side: a
        reader that hard-codes a width decodes garbage the moment the
        named constant changes.
  R004  result discipline: public non-const member functions in
        src/core/*.h that return a value must be [[nodiscard]] (or
        carry a justified ``allow(R004)``).
  R005  serialization discipline: the checkpoint/resync persistence
        layer (src/core/checkpoint.*, src/sim/resync.*) must encode
        every field through the bit-stream API with a named width —
        bare literal widths in put()/get() calls and raw memory
        images (memcpy/memmove/reinterpret_cast of structures) are
        findings. Raw images bake host layout into the on-disk
        format and silently break the format-stability guarantee
        that the committed golden checkpoint enforces.

Directives (in comments):

  // cable-lint: no-alloc
      Marks the next function definition as a no-alloc region.
  // cable-lint: allow(RXXX) <justification>
      Suppresses rule RXXX from the directive line through the next
      code line (comment-only lines in between are skipped, so the
      justification may span several comment lines).

The linter prefers a libclang-backed parser for function-extent
resolution when the python bindings are importable and falls back to
a comment-aware tokenizer otherwise; the container images used in CI
exercise the fallback, which is the reference implementation.

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from dataclasses import dataclass, field

# ---------------------------------------------------------------------
# Optional libclang backend (never required; see module docstring).
# ---------------------------------------------------------------------
try:  # pragma: no cover - absent in the CI container
    import clang.cindex as _cindex

    HAVE_LIBCLANG = True
except ImportError:
    _cindex = None
    HAVE_LIBCLANG = False

RULES = {
    "R001": "heap allocation in a no-alloc function",
    "R002": "nondeterminism in a deterministic subsystem",
    "R003": "wire-format width written as a bare literal",
    "R004": "public mutating API without [[nodiscard]]",
    "R005": "raw-memory or bare-width serialization in checkpoint/resync",
}

R002_DIRS = ("src/core/", "src/compress/", "src/sim/")
R003_DIRS = ("src/core/",)
R004_GLOB = re.compile(r"src/core/[^/]+\.h$")
R005_FILE_RE = re.compile(r"src/(?:core/checkpoint|sim/resync)\.(?:h|cc)$")

DIRECTIVE_RE = re.compile(r"//\s*cable-lint:\s*(no-alloc|allow\((R\d{3})\))")
EXPECT_RE = re.compile(r"//\s*expect:\s*(R\d{3})")


@dataclass
class Finding:
    rule: str
    path: str
    line: int  # 1-based
    detail: str

    def fingerprint(self) -> str:
        return f"{self.rule}|{self.path}|{self.detail}"

    def render(self) -> str:
        return (f"{self.path}:{self.line}: {self.rule} "
                f"[{RULES[self.rule]}] {self.detail}")


@dataclass
class SourceFile:
    path: str  # repo-relative, forward slashes
    raw_lines: list[str]
    code_lines: list[str]  # comments and string/char literals blanked
    no_alloc_marks: list[int] = field(default_factory=list)
    allow: dict[int, set[str]] = field(default_factory=dict)  # line -> rules


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


def load_source(root: str, rel: str) -> SourceFile:
    with open(os.path.join(root, rel), encoding="utf-8") as f:
        text = f.read()
    raw_lines = text.splitlines()
    code_lines = strip_comments_and_strings(text).splitlines()
    src = SourceFile(rel, raw_lines, code_lines)

    # Directive scan (from the raw text: directives live in comments).
    for idx, line in enumerate(raw_lines):
        m = DIRECTIVE_RE.search(line)
        if not m:
            continue
        if m.group(1) == "no-alloc":
            src.no_alloc_marks.append(idx)
        else:
            rule = m.group(2)
            # The allowance covers the directive's own line and every
            # line through the next code line (skipping comment-only
            # lines lets the justification span a comment block).
            src.allow.setdefault(idx, set()).add(rule)
            j = idx + 1
            while j < len(raw_lines):
                src.allow.setdefault(j, set()).add(rule)
                if code_lines[j].strip():
                    break
                j += 1
    return src


def allowed(src: SourceFile, rule: str, idx: int) -> bool:
    return rule in src.allow.get(idx, set())


# ---------------------------------------------------------------------
# Function-extent resolution (libclang when available, else tokenizer)
# ---------------------------------------------------------------------


def function_extent_tokenizer(src: SourceFile, mark_idx: int):
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


def function_extent_libclang(src: SourceFile, root: str, mark_idx: int):
    """libclang-backed variant of function_extent_tokenizer; falls
    back to the tokenizer when parsing fails."""  # pragma: no cover
    try:
        index = _cindex.Index.create()
        tu = index.parse(os.path.join(root, src.path),
                         args=["-std=c++20", "-Isrc"])
        best = None
        for node in tu.cursor.walk_preorder():
            if node.kind in (
                    _cindex.CursorKind.FUNCTION_DECL,
                    _cindex.CursorKind.CXX_METHOD,
            ) and node.is_definition():
                if (node.location.file
                        and os.path.samefile(node.location.file.name,
                                             os.path.join(root, src.path))
                        and node.extent.start.line - 1 > mark_idx):
                    if best is None or node.extent.start.line < best[0]:
                        best = (node.extent.start.line - 1,
                                node.extent.end.line - 1)
        if best:
            return best
    except Exception:
        pass
    return function_extent_tokenizer(src, mark_idx)


def function_extent(src: SourceFile, root: str, mark_idx: int):
    if HAVE_LIBCLANG:
        return function_extent_libclang(src, root, mark_idx)
    return function_extent_tokenizer(src, mark_idx)


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


def check_r001(src: SourceFile, root: str, findings: list[Finding]):
    for mark in src.no_alloc_marks:
        extent = function_extent(src, root, mark)
        if extent is None:
            continue
        start, end = extent
        for idx in range(start, end + 1):
            line = src.code_lines[idx]
            for pat, what in R001_BANNED:
                if pat.search(line) and not allowed(src, "R001", idx):
                    findings.append(Finding(
                        "R001", src.path, idx + 1,
                        f"{what} inside a no-alloc function"))


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


def check_r002(src: SourceFile, findings: list[Finding]):
    if not src.path.startswith(R002_DIRS):
        return
    for idx, line in enumerate(src.code_lines):
        if src.raw_lines[idx].lstrip().startswith("#include"):
            continue
        for pat, what in R002_BANNED:
            if pat.search(line) and not allowed(src, "R002", idx):
                findings.append(Finding("R002", src.path, idx + 1, what))


# ---------------------------------------------------------------------
# R003: wire-format widths must be named
# ---------------------------------------------------------------------


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


INT_LITERAL_RE = re.compile(r"^(?:0[xXbB][0-9a-fA-F']+|[0-9']+)[uUlL]*$")


def bitstream_width(call: str, args: list[str]) -> str | None:
    """Width argument of a bit-stream call, or None when the call is
    not a serialization site. put(value, WIDTH) takes the last
    argument. get(WIDTH[, tag]) takes the first, provided every later
    argument is a blanked string literal (the checkpoint Cursor's
    get(nbits, what) diagnostic tag); a zero-argument smart-pointer
    .get() or a name-keyed accessor .get("counter") never matches."""
    if call == "put":
        return args[-1] if len(args) >= 2 else None
    if not args or not args[0]:
        return None
    if any(a for a in args[1:]):
        return None
    return args[0]


def check_r003(src: SourceFile, findings: list[Finding]):
    if not src.path.startswith(R003_DIRS):
        return
    text = "\n".join(src.code_lines)
    for m in re.finditer(r"\.(put|get)\s*\(", text):
        args = split_top_level_args(text[m.end():m.end() + 400])
        if args is None:
            continue
        call = m.group(1)
        width = bitstream_width(call, args)
        if width is not None and INT_LITERAL_RE.match(width):
            idx = text.count("\n", 0, m.start())
            if not allowed(src, "R003", idx):
                findings.append(Finding(
                    "R003", src.path, idx + 1,
                    f"{call}() width '{width}' is a bare literal; "
                    f"name it in core/wire_format.h"))


# ---------------------------------------------------------------------
# R005: serialization must be field-by-field with named widths
# ---------------------------------------------------------------------

R005_RAW_MEMORY = [
    (re.compile(r"\b(?:std::)?memcpy\s*\("), "memcpy"),
    (re.compile(r"\b(?:std::)?memmove\s*\("), "memmove"),
    (re.compile(r"\breinterpret_cast\s*<"), "reinterpret_cast"),
]


def check_r005(src: SourceFile, findings: list[Finding]):
    if not R005_FILE_RE.search(src.path):
        return
    text = "\n".join(src.code_lines)
    # Width arguments of the bit-stream API must be named constants:
    # the writer's put(value, WIDTH) and the reader's get(WIDTH) are
    # the two call sites where a wire width can be spelled.
    for m in re.finditer(r"\.(put|get)\s*\(", text):
        args = split_top_level_args(text[m.end():m.end() + 400])
        if args is None:
            continue
        call = m.group(1)
        width = bitstream_width(call, args)
        if width is None:
            continue
        if INT_LITERAL_RE.match(width):
            idx = text.count("\n", 0, m.start())
            if not allowed(src, "R005", idx):
                findings.append(Finding(
                    "R005", src.path, idx + 1,
                    f"{call}() width '{width}' is a bare literal; "
                    f"name it in core/wire_format.h"))
    # Structures cross the persistence boundary field by field; a raw
    # memory image would bake host endianness and padding into the
    # on-disk format.
    for idx, line in enumerate(src.code_lines):
        if src.raw_lines[idx].lstrip().startswith("#include"):
            continue
        for pat, what in R005_RAW_MEMORY:
            if pat.search(line) and not allowed(src, "R005", idx):
                findings.append(Finding(
                    "R005", src.path, idx + 1,
                    f"{what} in serialization code; encode through the "
                    f"bit-stream API field by field"))


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


def check_r004(src: SourceFile, findings: list[Finding]):
    if not R004_GLOB.search(src.path):
        return

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
                    allowed(src, "R004", i) for i, _t in segs):
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


def lint_file(src: SourceFile, root: str) -> list[Finding]:
    findings: list[Finding] = []
    check_r001(src, root, findings)
    check_r002(src, findings)
    check_r003(src, findings)
    check_r004(src, findings)
    check_r005(src, findings)
    return findings


def tree_sources(root: str, compile_commands: str | None):
    """Project sources: every .h/.cc under src/, unioned with the
    translation units listed in compile_commands.json (which also
    validates that the database and tree agree)."""
    rels = set()
    src_root = os.path.join(root, "src")
    for dirpath, _dirnames, filenames in os.walk(src_root):
        for fn in filenames:
            if fn.endswith((".h", ".cc", ".cpp")):
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


def run_self_test(fixtures_dir: str) -> int:
    """Fixture mode: every file under @p fixtures_dir carries
    ``// expect: RXXX`` markers on the lines that must trip; a file
    with no markers must produce zero findings. Directory scoping is
    disabled so fixtures exercise every rule."""
    global R002_DIRS, R003_DIRS, R004_GLOB, R005_FILE_RE
    R002_DIRS = ("",)
    R003_DIRS = ("",)
    R004_GLOB = re.compile(r"\.h$")
    R005_FILE_RE = re.compile(r"r005")

    failures = 0
    files = sorted(
        fn for fn in os.listdir(fixtures_dir)
        if fn.endswith((".h", ".cc", ".cpp")))
    if not files:
        print(f"cable-lint: no fixtures in {fixtures_dir}",
              file=sys.stderr)
        return 2
    for fn in files:
        src = load_source(fixtures_dir, fn)
        expected = set()
        for idx, line in enumerate(src.raw_lines):
            for m in EXPECT_RE.finditer(line):
                expected.add((m.group(1), idx + 1))
        got = {(f.rule, f.line) for f in lint_file(src, fixtures_dir)}
        for miss in sorted(expected - got):
            print(f"SELF-TEST FAIL {fn}:{miss[1]}: expected {miss[0]} "
                  f"did not fire")
            failures += 1
        for extra in sorted(got - expected):
            print(f"SELF-TEST FAIL {fn}:{extra[1]}: unexpected "
                  f"{extra[0]}")
            failures += 1
        status = "ok" if not (expected - got or got - expected) else "FAIL"
        print(f"self-test {fn}: {len(expected)} expected finding(s) "
              f"[{status}]")
    if failures:
        print(f"cable-lint self-test: {failures} failure(s)")
        return 1
    print("cable-lint self-test: all fixtures behave")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="cable_lint.py",
        description="CABLE invariant linter (rules R001-R005)")
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--compile-commands", default=None,
                    help="compile_commands.json to union sources from")
    ap.add_argument("--report", default=None,
                    help="write a JSON report to this path")
    ap.add_argument("--baseline", default=None,
                    help="JSON list of accepted finding fingerprints")
    ap.add_argument("--self-test", default=None, metavar="FIXTURES",
                    help="run the fixture suite instead of linting")
    ap.add_argument("files", nargs="*",
                    help="lint only these files (repo-relative)")
    args = ap.parse_args(argv)

    if args.self_test:
        return run_self_test(args.self_test)

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
        findings.extend(lint_file(src, root))

    baseline = set()
    if args.baseline:
        with open(args.baseline, encoding="utf-8") as f:
            baseline = set(json.load(f))
    fresh = [f for f in findings if f.fingerprint() not in baseline]

    if args.report:
        doc = {
            "schema": "cable-lint-v1",
            "backend": "libclang" if HAVE_LIBCLANG else "tokenizer",
            "files": len(rels),
            "findings": [vars(f) for f in findings],
            "suppressed_by_baseline": len(findings) - len(fresh),
        }
        with open(args.report, "w", encoding="utf-8") as f:
            json.dump(doc, f, indent=2)
            f.write("\n")

    for f in fresh:
        print(f.render())
    summary = (f"cable-lint: {len(rels)} file(s), "
               f"{len(fresh)} finding(s)"
               + (f", {len(findings) - len(fresh)} baselined"
                  if baseline else ""))
    print(summary)
    return 1 if fresh else 0


if __name__ == "__main__":
    sys.exit(main())
