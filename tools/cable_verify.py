#!/usr/bin/env python3
"""CABLE recovery-FSM verifier (DESIGN.md section 15).

The channel recovery machine is committed as src/core/recovery_fsm.def;
the C++ includes it via X-macros (core/recovery_fsm.h), so code and
spec cannot drift. The verifier parses the same file and exhaustively
enumerates the reachable state space (states x events), proving:
deterministic transitions, no dead ends, every reachable live state
can recover to a steady state and to the initial state through
protocol (internal) events alone, fault totality over steady states,
typed and outgoing-free terminals, bit accounting restricted to the
recovery classes on every transition and cycle (payload is never
charged), and a monotone epoch. It also greps the implementation for
health assignments that bypass the generated transition table.

(Wire-format symmetry needs no proof here: the link frame and the
checkpoint body are each written and read by one walk,
core/frame.cc and core/checkpoint.cc, and lint rule R003 keeps their
widths named.)

Diagnostic codes:

  F001 nondeterministic transition         F002 unknown state/event
  F003 dead-end live state                 F004 unreachable state
  F005 no internal path to a steady state  F006 no internal path to initial
  F007 fault event unhandled in steady     F008 terminal with outgoing edge
  F009 terminal without a typed error      F010 epoch regression
  F011 illegal bit-accounting class        F012 unreachable terminal
  F013 health assignment bypassing the generated table

Source reading, the fixture runner and the report driver are shared
with cable_lint.py (cable_scan.py).

Exit status: 0 clean, 1 findings, 2 usage error.
"""

from __future__ import annotations

import os
import re
import sys
from dataclasses import dataclass, field

from cable_scan import (Finding, Source, arg_parser, finish, load_source,
                        run_self_test)

CODES = {
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

FSM_SPEC = "src/core/recovery_fsm.def"

# Implementation files whose health mutations must route through the
# generated table (F013).
FSM_IMPL_FILES = ["src/core/channel.cc", "src/core/checkpoint.cc",
                  "src/core/resync.cc"]

RECOVERY_BITS_CLASSES = ("None", "Handshake", "Rearm", "Retrans")


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
    """Fixture mode: a .def is model-checked; a .cc/.h file has its
    health_ assignments F013-checked."""
    if src.path.endswith(".def"):
        return check_fsm(src)[0]
    return check_fsm_impl(src)


def main(argv=None) -> int:
    ap = arg_parser("cable_verify.py",
                    "CABLE recovery-FSM model check",
                    "cable-verify-v1")
    ap.add_argument("--dot", default=None,
                    help="write a Graphviz diagram of the FSM here")
    args = ap.parse_args(argv)

    if args.self_test:
        return run_self_test("cable-verify", args.self_test,
                             (".cc", ".h", ".cpp", ".def"),
                             fixture_findings)

    root = os.path.abspath(args.root)
    for rel in [FSM_SPEC] + FSM_IMPL_FILES:
        if not os.path.exists(os.path.join(root, rel)):
            print(f"cable-verify: missing {rel} (wrong --root?)",
                  file=sys.stderr)
            return 2

    findings, fsm_stats, spec = check_fsm(load_source(root, FSM_SPEC))
    for rel in FSM_IMPL_FILES:
        findings += check_fsm_impl(load_source(root, rel))

    if args.dot:
        write_dot(spec, args.dot)

    doc = {
        "schema": "cable-verify-v1",
        "tool": "cable_verify",
        "ok": not findings,
        "fsm": dict(fsm_stats, findings=[vars(f) for f in findings]),
    }
    inv = fsm_stats["invariants"]
    return finish(
        findings, CODES,
        f"cable-verify: "
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
