#!/usr/bin/env python3
"""CABLE protocol verifier (DESIGN.md section 15).

Two static proofs over the serialization and recovery layers:

1. Wire-format symmetry. Serialization sites in the registered files
   carry ``// cable-wire: <record> <field> <width>[*<count>]``
   markers (plus the decl/write/read variants below).
   The verifier reconstructs every record's field sequence from the
   annotated writer and reader call sites and fails on any order,
   width or count asymmetry, on marker/code width drift, and on any
   unannotated put()/get() in a registered file — the reader/writer
   drift class of bug that is otherwise found only by hand.

2. Recovery-FSM model check. The channel recovery machine is
   committed as src/core/recovery_fsm.def; the C++ includes it via
   X-macros (core/recovery_fsm.h), so code and spec cannot drift.
   The verifier parses the same file and exhaustively enumerates the
   reachable state space (states x events), proving: deterministic
   transitions, no dead ends, every reachable live state can recover
   to a steady state and to the initial state through protocol
   (internal) events alone, fault totality over steady states, typed
   and outgoing-free terminals, bit accounting restricted to the
   recovery classes on every transition and cycle (payload is never
   charged), and a monotone epoch. It also greps the implementation
   for health assignments that bypass the generated transition table.

Directives (in comments):

  // cable-wire: <record> <field> <width>[*<count>]
      Annotates the put()/get() call on the same line or the next
      code line. put-family calls are writer sites, get-family calls
      reader sites; the marker width must match the call's width
      argument (whitespace-insensitive).
  // cable-wire-decl: <record> <field> <width>[*<count>]
      Contract declaration with no call attached (core/wire_format.h)
      — the receiving side of records whose reader lives on the
      simulated peer, and the reference both C++ sides check against.
  // cable-wire-write: ... / // cable-wire-read: ...
      Manual writer/reader site where no parseable call exists
      (accounting `+=` lines, bit loops).

Sequence rules: a record needs at least two roles. Writer and reader
sequences must match exactly (field, width, count, in order); a role
checked against a contract declaration must be a whole number of
exact repetitions of it (several emit sites of the same record, e.g.
the re-arm bits of desync recovery and of the resync session).

Diagnostic codes:

  W001 unannotated serialization call      W002 marker/code width drift
  W003 field order asymmetry               W004 field width asymmetry
  W005 field count asymmetry               W006 record with a single role
  W007 malformed cable-wire marker
  F001 nondeterministic transition         F002 unknown state/event
  F003 dead-end live state                 F004 unreachable state
  F005 no internal path to a steady state  F006 no internal path to initial
  F007 fault event unhandled in steady     F008 terminal with outgoing edge
  F009 terminal without a typed error      F010 epoch regression
  F011 illegal bit-accounting class        F012 unreachable terminal
  F013 health assignment bypassing the generated table

Source reading, the put()/get() call scanner (the same sites
cable_lint.py's R003 checks), the fixture runner and the report driver
are shared with cable_lint.py (cable_scan.py).

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field

from cable_scan import (Finding, Source, arg_parser, bitstream_calls,
                        finish, load_source, run_self_test)

CODES = {
    "W001": "unannotated serialization call",
    "W002": "marker width disagrees with the call",
    "W003": "field order asymmetry between roles",
    "W004": "field width asymmetry between roles",
    "W005": "field count asymmetry between roles",
    "W006": "record with a single role",
    "W007": "malformed cable-wire marker",
    "F001": "nondeterministic transition",
    "F002": "transition references an unknown state or event",
    "F003": "dead-end live state",
    "F004": "state unreachable from the initial state",
    "F005": "no internal path to a steady state",
    "F006": "no internal path back to the initial state",
    "F007": "fault event unhandled in a steady state",
    "F008": "terminal state with an outgoing transition",
    "F009": "terminal without a typed Cable error",
    "F010": "epoch regression",
    "F011": "illegal bit-accounting class",
    "F012": "unreachable terminal",
    "F013": "health assignment bypassing the generated table",
}

# Files participating in the wire contract. wire_format.h carries the
# contract declarations; the .cc files carry annotated call sites.
WIRE_FILES = [
    "src/core/wire_format.h",
    "src/core/channel.cc",
    "src/sim/protocol.cc",
    "src/core/resync.cc",
]

FSM_SPEC = "src/core/recovery_fsm.def"

# Implementation files whose health mutations must route through the
# generated table (F013).
FSM_IMPL_FILES = ["src/core/channel.cc", "src/core/checkpoint.cc",
                  "src/core/resync.cc"]

RECOVERY_BITS_CLASSES = ("None", "Handshake", "Rearm", "Retrans")

# cable-wire: (a call-site marker), cable-wire-decl:, -write: and
# -read:, with the kind as group 1 (None for a call-site marker).
WIRE_MARK_RE = re.compile(
    r"//\s*cable-wire(?:-(decl|write|read))?:\s*(.+?)\s*$")


@dataclass
class WireSite:
    record: str
    field: str
    width: str
    count: str  # "" when the field is not repeated
    role: str  # write | read | decl
    path: str
    line: int  # 1-based


def parse_field_spec(spec: str):
    """Splits "<record> <field> <width>[*<count>]" into its parts, or
    None when malformed. The count is everything after the first '*'
    of the width token (so widths may be expressions like
    rlid_bits_-way_bits and counts may be products)."""
    parts = spec.split()
    if len(parts) != 3:
        return None
    record, fname, widthspec = parts
    width, _, count = widthspec.partition("*")
    if not width:
        return None
    return record, fname, width, count


# ---------------------------------------------------------------------
# Wire symmetry
# ---------------------------------------------------------------------


def scan_wire_file(src: Source, sites: list[WireSite],
                   findings: list[Finding]):
    rel = src.path
    marks: dict[int, tuple] = {}  # call-site markers by 0-based line
    for idx, line in enumerate(src.raw_lines):
        m = WIRE_MARK_RE.search(line)
        if not m:
            continue
        kind, payload = m.groups()
        spec = parse_field_spec(payload)
        if spec is None:
            findings.append(Finding(
                "W007", rel, idx + 1, f"cannot parse '{payload}'"))
        elif kind is None:
            marks[idx] = spec
        else:  # decl, or a manual write/read site
            sites.append(WireSite(*spec, kind, rel, idx + 1))

    # Events as (line_idx, pos, payload): markers (pos -1, so they
    # sort ahead of a call on their own line) and the shared
    # serialization calls, whose payload is (role, width, name).
    events = [(idx, -1, spec) for idx, spec in marks.items()]
    events += [(c.line - 1, c.pos,
                (c.role, re.sub(r"\s+", "", c.width), c.name))
               for c in bitstream_calls(src)]

    # A marker binds to the next serialization call at or below it,
    # as long as the statement starts within a few lines —
    # multi-line statements put the call 1-3 lines under the marker.
    pending = None  # (marker line_idx, spec)
    for idx, pos, payload in sorted(events, key=lambda e: e[:2]):
        if pos < 0:
            pending = (idx, payload)
            continue
        role, call_width, what = payload
        if pending is None or idx - pending[0] > 4:
            findings.append(Finding(
                "W001", rel, idx + 1,
                f"{what}() call without a cable-wire marker"))
            pending = None
            continue
        record, fname, width, count = pending[1]
        pending = None
        if width != call_width:
            findings.append(Finding(
                "W002", rel, idx + 1,
                f"marker width '{width}' but the call encodes "
                f"'{call_width}'"))
        sites.append(WireSite(record, fname, width, count, role,
                              rel, idx + 1))


def compare_exact(a: list[WireSite], b: list[WireSite],
                  findings: list[Finding], what: str):
    if len(a) != len(b):
        anchor = b[0] if b else a[0]
        findings.append(Finding(
            "W005", anchor.path, anchor.line,
            f"{what}: {len(a)} field(s) vs {len(b)}"))
        return
    for sa, sb in zip(a, b):
        if sa.field != sb.field:
            findings.append(Finding(
                "W003", sb.path, sb.line,
                f"{what}: expected field '{sa.field}' "
                f"(from {sa.path}:{sa.line}), found '{sb.field}'"))
            return  # order drift cascades; first mismatch only
        if sa.width != sb.width or sa.count != sb.count:
            findings.append(Finding(
                "W004", sb.path, sb.line,
                f"{what}: field '{sa.field}' is "
                f"{sa.width or '?'}{'*' + sa.count if sa.count else ''}"
                f" vs {sb.width}{'*' + sb.count if sb.count else ''}"))


def compare_against_decl(seq: list[WireSite], decl: list[WireSite],
                         findings: list[Finding], what: str):
    if len(decl) == 0:
        return
    if len(seq) % len(decl) != 0:
        findings.append(Finding(
            "W005", seq[0].path, seq[0].line,
            f"{what}: {len(seq)} field(s) is not a whole number of "
            f"contract repetitions ({len(decl)})"))
        return
    for rep in range(len(seq) // len(decl)):
        chunk = seq[rep * len(decl):(rep + 1) * len(decl)]
        compare_exact(decl, chunk, findings, what)


def check_wire(sources: list[Source]):
    findings: list[Finding] = []
    sites: list[WireSite] = []
    for src in sources:
        scan_wire_file(src, sites, findings)

    records: dict[str, dict[str, list[WireSite]]] = {}
    for s in sites:
        records.setdefault(s.record, {}).setdefault(s.role,
                                                    []).append(s)

    for record in sorted(records):
        roles = records[record]
        if len(roles) < 2:
            only = next(iter(roles.values()))[0]
            findings.append(Finding(
                "W006", only.path, only.line,
                f"record '{record}' has only a {only.role} side; "
                f"nothing to check it against"))
            continue
        if "write" in roles and "read" in roles:
            compare_exact(roles["write"], roles["read"], findings,
                          f"record '{record}' writer vs reader")
        for role in ("write", "read"):
            if role in roles and "decl" in roles:
                compare_against_decl(
                    roles[role], roles["decl"], findings,
                    f"record '{record}' {role}r vs contract")

    summary = {
        record: {role: len(sites_)
                 for role, sites_ in sorted(roles.items())}
        for record, roles in sorted(records.items())
    }
    return findings, summary


# ---------------------------------------------------------------------
# Recovery-FSM model check
# ---------------------------------------------------------------------

FSM_STATE_RE = re.compile(
    r"CABLE_FSM_STATE\s*\(\s*(\w+)\s*,\s*(\w+)\s*,")
FSM_TERMINAL_RE = re.compile(
    r"CABLE_FSM_TERMINAL\s*\(\s*(\w+)\s*,\s*(\w+)\s*,")
FSM_EVENT_RE = re.compile(
    r"CABLE_FSM_EVENT\s*\(\s*(\w+)\s*,\s*(\w+)\s*,")
FSM_TRANSITION_RE = re.compile(
    r"CABLE_FSM_TRANSITION\s*\(\s*(\w+)\s*,\s*(\w+)\s*,\s*(\w+)\s*,"
    r"\s*(-?\d+)\s*,\s*(\w+)\s*,")


@dataclass
class FsmSpec:
    path: str
    states: dict[str, tuple[str, int]] = field(default_factory=dict)
    terminals: dict[str, tuple[str, int]] = field(default_factory=dict)
    events: dict[str, tuple[str, int]] = field(default_factory=dict)
    # (from, event, to, epoch_delta, bits, line)
    transitions: list[tuple] = field(default_factory=list)

    @property
    def initial(self) -> str | None:
        return next(iter(self.states), None)


def parse_fsm(src: Source) -> FsmSpec:
    # Drop preprocessor lines (the default-define/undef scaffolding
    # mentions every macro name) but keep newlines for line numbers.
    code = "\n".join("" if line.lstrip().startswith("#") else line
                     for line in src.code_lines)
    spec = FsmSpec(src.path)
    for m in FSM_STATE_RE.finditer(code):
        spec.states[m.group(1)] = (
            m.group(2), code.count("\n", 0, m.start()) + 1)
    for m in FSM_TERMINAL_RE.finditer(code):
        spec.terminals[m.group(1)] = (
            m.group(2), code.count("\n", 0, m.start()) + 1)
    for m in FSM_EVENT_RE.finditer(code):
        spec.events[m.group(1)] = (
            m.group(2), code.count("\n", 0, m.start()) + 1)
    for m in FSM_TRANSITION_RE.finditer(code):
        spec.transitions.append((
            m.group(1), m.group(2), m.group(3), int(m.group(4)),
            m.group(5), code.count("\n", 0, m.start()) + 1))
    return spec


def simple_cycles(adj: dict[str, list[tuple[str, int]]]):
    """All simple cycles as lists of transition indices, by rooted
    DFS (the recovery graph is a handful of nodes)."""
    nodes = sorted(adj)
    order = {n: i for i, n in enumerate(nodes)}
    cycles = []

    def dfs(root_node, node, path_nodes, path_edges):
        for succ, edge in adj.get(node, []):
            if order.get(succ, -1) < order[root_node]:
                continue  # canonical root = smallest node in cycle
            if succ == root_node:
                cycles.append(path_edges + [edge])
            elif succ not in path_nodes:
                dfs(root_node, succ, path_nodes | {succ},
                    path_edges + [edge])

    for n in nodes:
        dfs(n, n, {n}, [])
    return cycles


def check_fsm(src: Source):
    rel = src.path
    findings: list[Finding] = []
    spec = parse_fsm(src)
    live = spec.states
    terminals = spec.terminals
    all_states = set(live) | set(terminals)

    # Structural checks.
    seen_pairs: dict[tuple[str, str], int] = {}
    for frm, ev, to, delta, bits, line in spec.transitions:
        if frm not in all_states or to not in all_states:
            findings.append(Finding(
                "F002", rel, line,
                f"unknown state in {frm} --{ev}--> {to}"))
            continue
        if ev not in spec.events:
            findings.append(Finding(
                "F002", rel, line, f"unknown event '{ev}'"))
            continue
        if frm in terminals:
            findings.append(Finding(
                "F008", rel, line,
                f"terminal {frm} has an outgoing transition on {ev}"))
        key = (frm, ev)
        if key in seen_pairs:
            findings.append(Finding(
                "F001", rel, line,
                f"duplicate transition for ({frm}, {ev}); first at "
                f"line {seen_pairs[key]}"))
        else:
            seen_pairs[key] = line
        if delta < 0:
            findings.append(Finding(
                "F010", rel, line,
                f"epoch delta {delta} on {frm} --{ev}--> {to}"))
        if bits not in RECOVERY_BITS_CLASSES:
            findings.append(Finding(
                "F011", rel, line,
                f"bits class '{bits}' is not a recovery class "
                f"{RECOVERY_BITS_CLASSES} (payload is never legal)"))
    for term, (exc, line) in terminals.items():
        if not re.fullmatch(r"Cable\w*Error", exc):
            findings.append(Finding(
                "F009", rel, line,
                f"terminal {term} raises '{exc}', not a typed Cable "
                f"error"))

    valid = [t for t in spec.transitions
             if t[0] in all_states and t[2] in all_states
             and t[1] in spec.events]
    adj_all: dict[str, list[tuple[str, int]]] = {}
    adj_internal: dict[str, list[tuple[str, int]]] = {}
    for i, (frm, ev, to, _d, _b, _l) in enumerate(valid):
        adj_all.setdefault(frm, []).append((to, i))
        if spec.events[ev][0] == "Internal":
            adj_internal.setdefault(frm, []).append((to, i))

    def closure(adj, starts):
        seen, stack = set(starts), list(starts)
        while stack:
            n = stack.pop()
            for succ, _e in adj.get(n, []):
                if succ not in seen:
                    seen.add(succ)
                    stack.append(succ)
        return seen

    initial = spec.initial
    reachable = closure(adj_all, [initial]) if initial else set()
    fired = [i for i, t in enumerate(valid) if t[0] in reachable]

    # Reachability: every declared state and terminal participates.
    for name, (_k, line) in live.items():
        if name not in reachable:
            findings.append(Finding(
                "F004", rel, line,
                f"state {name} is unreachable from {initial}"))
    for name, (_e, line) in terminals.items():
        if name not in reachable:
            findings.append(Finding(
                "F012", rel, line,
                f"terminal {name} is unreachable from {initial}"))

    # Liveness over the reachable live states.
    steady = {n for n, (k, _l) in live.items() if k == "Steady"}
    for name, (_k, line) in live.items():
        if name not in reachable:
            continue
        if not adj_all.get(name):
            findings.append(Finding(
                "F003", rel, line,
                f"live state {name} has no outgoing transitions"))
        internal_reach = closure(adj_internal, [name])
        if not internal_reach & steady:
            findings.append(Finding(
                "F005", rel, line,
                f"state {name} cannot reach a steady state through "
                f"internal events"))
        if initial not in internal_reach:
            findings.append(Finding(
                "F006", rel, line,
                f"state {name} cannot recover to {initial} through "
                f"internal events"))

    # Fault totality: a steady state must answer every fault event.
    fault_events = sorted(
        ev for ev, (k, _l) in spec.events.items() if k == "Fault")
    for name in sorted(steady):
        if name not in reachable:
            continue
        missing = [ev for ev in fault_events
                   if (name, ev) not in seen_pairs]
        if missing:
            findings.append(Finding(
                "F007", rel, live[name][1],
                f"steady state {name} does not handle fault "
                f"event(s): {', '.join(missing)}"))

    # Cycle accounting: on every simple cycle the epoch never regresses
    # and only recovery bit classes are charged (payload conservation).
    cycles = simple_cycles(adj_all)
    for cyc in cycles:
        deltas = sum(valid[i][3] for i in cyc)
        if deltas < 0:  # unreachable while F010 holds; belt and braces
            findings.append(Finding(
                "F010", rel, valid[cyc[0]][5],
                f"cycle with net epoch delta {deltas}"))

    invariants = {
        "deterministic": not any(f.code == "F001" for f in findings),
        "no_dead_end": not any(f.code in ("F003", "F005")
                               for f in findings),
        "recovers_to_initial": not any(f.code == "F006"
                                       for f in findings),
        "fault_total": not any(f.code == "F007" for f in findings),
        "typed_terminals": not any(f.code in ("F008", "F009", "F012")
                                   for f in findings),
        "epoch_monotone": not any(f.code == "F010" for f in findings),
        "bit_conserving": not any(f.code == "F011" for f in findings),
        "fully_reachable": not any(f.code in ("F002", "F004")
                                   for f in findings),
    }
    stats = {
        "spec": rel,
        "initial": initial,
        "states": len(live),
        "steady": len(steady),
        "transient": len(live) - len(steady),
        "terminals": len(terminals),
        "events": len(spec.events),
        "fault_events": len(fault_events),
        "transitions": len(spec.transitions),
        "reachable_states": len(reachable & set(live)),
        "reachable_terminals": len(reachable & set(terminals)),
        "reachable_transitions": len(fired),
        "simple_cycles": len(cycles),
        "invariants": invariants,
    }
    return findings, stats, spec


HEALTH_ASSIGN_RE = re.compile(r"\bhealth_\s*=(?!=)([^;]*)")
STEP_TO_RE = re.compile(r"\.\s*to\s*$")


def check_fsm_impl(src: Source) -> list[Finding]:
    """F013: health mutations in the implementation must route through
    the generated table: the assigned expression, read up to its `;`,
    must be the `.to` state of a step (recoveryAdvance(...).to or a
    RecoveryStep's .to)."""
    findings: list[Finding] = []
    for m in HEALTH_ASSIGN_RE.finditer(src.code):
        if STEP_TO_RE.search(m.group(1)):
            continue
        findings.append(Finding(
            "F013", src.path, src.line_of(m.start()) + 1,
            "health_ assigned without recoveryAdvance(); the "
            "spec in recovery_fsm.def is the single source of "
            "truth"))
    return findings


# ---------------------------------------------------------------------
# Graphviz export
# ---------------------------------------------------------------------


def write_dot(spec: FsmSpec, path: str):
    lines = [
        "digraph recovery_fsm {",
        "  rankdir=LR;",
        "  node [fontname=\"Helvetica\"];",
    ]
    for name, (kind, _l) in spec.states.items():
        style = ("shape=ellipse, style=bold" if kind == "Steady"
                 else "shape=ellipse, style=dashed")
        lines.append(f"  {name} [{style}];")
    for name, (exc, _l) in spec.terminals.items():
        lines.append(
            f"  {name} [shape=doublecircle, color=red, "
            f"label=\"{name}\\n({exc})\"];")
    for frm, ev, to, delta, bits, _line in spec.transitions:
        label = ev
        if delta:
            label += f"\\n+{delta} epoch"
        if bits != "None":
            label += f"\\n[{bits.lower()} bits]"
        lines.append(f"  {frm} -> {to} [label=\"{label}\"];")
    lines.append("}")
    with open(path, "w", encoding="utf-8") as f:
        f.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------


def fixture_findings(src: Source) -> list[Finding]:
    """Fixture mode: a .def is model-checked; a .cc/.h file is
    wire-checked on its own (declarations and call sites in one
    file) and its health_ assignments are F013-checked."""
    if src.path.endswith(".def"):
        return check_fsm(src)[0]
    return check_wire([src])[0] + check_fsm_impl(src)


def main(argv=None) -> int:
    ap = arg_parser("cable_verify.py",
                    "CABLE protocol verifier: wire-format symmetry + "
                    "recovery-FSM model check", "cable-verify-v1")
    ap.add_argument("--dot", default=None,
                    help="write a Graphviz diagram of the FSM here")
    args = ap.parse_args(argv)

    if args.self_test:
        return run_self_test("cable-verify", args.self_test,
                             (".cc", ".h", ".cpp", ".def"),
                             fixture_findings)

    root = os.path.abspath(args.root)
    for rel in WIRE_FILES + [FSM_SPEC]:
        if not os.path.exists(os.path.join(root, rel)):
            print(f"cable-verify: missing {rel} (wrong --root?)",
                  file=sys.stderr)
            return 2

    wire_findings, wire_summary = check_wire(
        [load_source(root, rel) for rel in WIRE_FILES])
    fsm_findings, fsm_stats, spec = check_fsm(load_source(root, FSM_SPEC))
    for rel in FSM_IMPL_FILES:
        fsm_findings += check_fsm_impl(load_source(root, rel))
    findings = wire_findings + fsm_findings

    if args.dot:
        write_dot(spec, args.dot)

    doc = {
        "schema": "cable-verify-v1",
        "tool": "cable_verify",
        "ok": not findings,
        "wire": {
            "files": WIRE_FILES,
            "records": wire_summary,
            "findings": [vars(f) for f in wire_findings],
        },
        "fsm": dict(fsm_stats, findings=[vars(f) for f in fsm_findings]),
    }
    inv = fsm_stats["invariants"]
    return finish(
        findings, CODES,
        f"cable-verify: {len(wire_summary)} wire record(s), "
        f"{fsm_stats['reachable_states']}/{fsm_stats['states']} "
        f"reachable state(s), "
        f"{fsm_stats['reachable_transitions']}/"
        f"{fsm_stats['transitions']} reachable transition(s), "
        f"{fsm_stats['simple_cycles']} cycle(s), "
        f"{sum(1 for v in inv.values() if v)}/{len(inv)} "
        f"invariant(s) hold, {len(findings)} finding(s)",
        args.report, doc)


if __name__ == "__main__":
    sys.exit(main())
