#!/usr/bin/env python3
"""Schema and sanity checker for CABLE telemetry documents.

Usage:
    check_metrics.py [--lax] metrics.json [trace.jsonl]

Dispatches on the document's "schema" field:

  cable-metrics-v1      cable_sim --metrics-out documents
  cable-bench-v1        bench-binary CABLE_METRICS_OUT documents
  cable-trajectory-v1   bench_runner.py BENCH_cable.json files
  cable-chaos-v1        cable_sim chaos --chaos-out documents
  cable-critpath-v1     cable_sim --critpath-out / critpath.py
                        bottleneck-attribution reports
  cable-phases-v1       cable_sim --phase-out / phases.py
                        workload-phase reports
  cable-verify-v1       cable_verify.py --report recovery-FSM verifier
                        reports
  cable-lint-v1         cable_lint.py --report invariant-linter
                        reports

Strict mode is the default: a top-level key (or stats-block key) the
schema does not declare is an error, so a writer that grows a new
section without teaching this checker — or a typo'd key that would
otherwise be silently ignored — fails CI instead of rotting. --lax
restores the old ignore-unknown behavior for forward-compat reads of
documents produced by a newer writer.

For cable-metrics-v1 it validates the invariants the telemetry
pipeline promises:

  - every counter is a non-negative integer below 2^63 (a value in
    the top bit range means something wrapped negative);
  - every histogram is internally consistent: bucket counts sum to
    the sample count, mean lies within [min, max], percentiles are
    monotone (p50 <= p90 <= p99);
  - derived ratios are null or within sane bounds;
  - epoch deltas re-add to the cumulative counters;
  - the "structures" section (cable scheme) satisfies the occupancy
    invariants: each hash table's bucket-occupancy histogram sums to
    its live-slot count, which equals inserts - evictions;
  - the "recovery" section (cable scheme) reconciles: recovery_bits
    is exactly the handshake bits plus the re-arm bits, so desync
    and resync traffic can never silently fold into payload ratios;
  - when a full-resolution JSONL trace rides along (sample == 1),
    the per-event in/out bit totals reconcile exactly with the
    aggregate raw_bits/wire_bits counters;
  - the "critpath" section (when span sampling was on) is internally
    consistent (per-stage critical <= total, stage totals re-add to
    the report totals, binding stage is the critical-ns argmax) and
    its per-stage totals reconcile with the t_stage_*_ns histograms
    within 1% — both sides derive from the same measurements.

Exits 0 when everything holds, 1 with one line per violation.
"""

import argparse
import json
import re
import sys

MAX_COUNTER = 2**63  # above this, assume a negative wrapped around
MAX_RATIO = 10000.0

# Top-level keys each writer emits, kept in lockstep with the
# producers (cable_sim.cc, bench reporters, bench_runner.py,
# critpath.py, phases.py). Strict mode rejects anything else.
SCHEMA_KEYS = {
    "cable-metrics-v1": {
        "schema", "tool", "command", "benchmark", "scheme", "config",
        "results", "stats", "structures", "fault", "recovery",
        "epochs", "trace", "critpath",
    },
    "cable-bench-v1": {"schema", "sections", "unoptimized"},
    "cable-trajectory-v1": {"schema", "entries"},
    "cable-chaos-v1": {
        "schema", "tool", "benchmark", "ok", "failure", "config",
        "report", "crash_steps", "stats",
    },
    "cable-critpath-v1": {
        "schema", "tool", "command", "benchmark", "scheme", "ops",
        "seed", "sample", "trace", "critpath",
    },
    "cable-phases-v1": {
        "schema", "tool", "command", "benchmark", "scheme", "ops",
        "seed", "interval", "metrics", "phases",
    },
    "cable-verify-v1": {"schema", "tool", "ok", "fsm"},
    "cable-lint-v1": {"schema", "files", "findings"},
}

STATS_BLOCK_KEYS = {"counters", "histograms", "sketches"}

strict = True
errors = []


def err(msg):
    errors.append(msg)
    print(f"check_metrics: {msg}", file=sys.stderr)


def check_counters(counters, where):
    for name, value in counters.items():
        if not isinstance(value, int):
            err(f"{where}: counter '{name}' is not an integer: {value!r}")
        elif value < 0 or value >= MAX_COUNTER:
            err(f"{where}: counter '{name}' out of range "
                f"(negative wrap?): {value}")


def check_histogram(name, h, where):
    for key in ("scale", "count", "sum", "min", "max", "mean",
                "p50", "p90", "p99", "buckets"):
        if key not in h:
            err(f"{where}: histogram '{name}' missing key '{key}'")
            return
    bucket_total = sum(b["count"] for b in h["buckets"])
    if bucket_total != h["count"]:
        err(f"{where}: histogram '{name}' bucket counts sum to "
            f"{bucket_total}, expected count={h['count']}")
    if h["count"] > 0:
        if not (h["min"] <= h["mean"] <= h["max"]):
            err(f"{where}: histogram '{name}' mean {h['mean']} outside "
                f"[{h['min']}, {h['max']}]")
        if not (h["p50"] <= h["p90"] <= h["p99"]):
            err(f"{where}: histogram '{name}' percentiles not monotone: "
                f"p50={h['p50']} p90={h['p90']} p99={h['p99']}")
        for b in h["buckets"]:
            if b["lo"] > b["hi"]:
                err(f"{where}: histogram '{name}' bucket lo>{b['hi']}")
            if b["count"] <= 0:
                err(f"{where}: histogram '{name}' emitted empty bucket")


def check_unknown_keys(obj, allowed, where):
    if not strict:
        return
    for key in sorted(set(obj) - set(allowed)):
        err(f"{where}: unknown key '{key}' (strict mode; pass --lax "
            f"to ignore, or teach check_metrics.py the new key)")


def check_sketch(name, s, where):
    """QuantileSketch dump: log-linear buckets with a named relative
    error bound (DESIGN.md §14)."""
    for key in ("rel_error", "count", "sum", "min", "max", "mean",
                "p50", "p90", "p99", "p999", "buckets"):
        if key not in s:
            err(f"{where}: sketch '{name}' missing key '{key}'")
            return
    check_unknown_keys(s, ("rel_error", "count", "sum", "min", "max",
                           "mean", "p50", "p90", "p99", "p999",
                           "buckets"), f"{where}: sketch '{name}'")
    rel = s["rel_error"]
    if not isinstance(rel, (int, float)) or not 0.0 < rel < 0.5:
        err(f"{where}: sketch '{name}' rel_error out of (0, 0.5): "
            f"{rel!r}")
    bucket_total = sum(b["count"] for b in s["buckets"])
    if bucket_total != s["count"]:
        err(f"{where}: sketch '{name}' bucket counts sum to "
            f"{bucket_total}, expected count={s['count']}")
    if s["count"] > 0:
        if not (s["min"] <= s["mean"] <= s["max"]):
            err(f"{where}: sketch '{name}' mean {s['mean']} outside "
                f"[{s['min']}, {s['max']}]")
        if not (s["p50"] <= s["p90"] <= s["p99"] <= s["p999"]):
            err(f"{where}: sketch '{name}' percentiles not monotone: "
                f"p50={s['p50']} p90={s['p90']} p99={s['p99']} "
                f"p999={s['p999']}")
        for b in s["buckets"]:
            if b["lo"] > b["hi"]:
                err(f"{where}: sketch '{name}' bucket lo {b['lo']} > "
                    f"hi {b['hi']}")
            if b["count"] <= 0:
                err(f"{where}: sketch '{name}' emitted empty bucket")


def check_ratio(results, key):
    v = results.get(key)
    if v is None:
        return  # null is the documented "n/a"
    if not isinstance(v, (int, float)) or not (0.0 < v <= MAX_RATIO):
        err(f"results.{key} out of bounds: {v!r}")


def check_stats_block(stats, where):
    for key in ("counters", "histograms"):
        if key not in stats:
            err(f"{where}: missing '{key}' block")
            return
    check_unknown_keys(stats, STATS_BLOCK_KEYS, where)
    check_counters(stats["counters"], where)
    for name, h in stats["histograms"].items():
        check_histogram(name, h, where)
    for name, s in stats.get("sketches", {}).items():
        check_sketch(name, s, where)


def hist_sum(stats, name):
    h = stats.get("histograms", {}).get(name)
    return None if h is None else h.get("sum")


def check_structures(stats, where):
    """Occupancy invariants of a structure-snapshot stats block."""
    before = len(errors)
    check_stats_block(stats, where)
    if len(errors) > before:
        return
    counters = stats["counters"]
    for p in ("home_ht_", "remote_ht_"):
        occ = counters.get(p + "occupancy")
        ins = counters.get(p + "inserts")
        evi = counters.get(p + "evictions")
        if occ is None or ins is None or evi is None:
            err(f"{where}: missing {p}occupancy/inserts/evictions")
            continue
        if occ != ins - evi:
            err(f"{where}: {p}occupancy {occ} != inserts {ins} - "
                f"evictions {evi}")
        hsum = hist_sum(stats, p + "bucket_occupancy")
        if hsum is None:
            err(f"{where}: missing histogram {p}bucket_occupancy")
        elif hsum != occ:
            err(f"{where}: {p}bucket_occupancy sums to {hsum}, "
                f"expected occupancy {occ}")
        cap = counters.get(p + "capacity")
        if cap is not None and occ > cap:
            err(f"{where}: {p}occupancy {occ} exceeds capacity {cap}")
    occ = counters.get("wmt_occupancy")
    hsum = hist_sum(stats, "wmt_set_occupancy")
    if occ is None or hsum is None:
        err(f"{where}: missing wmt_occupancy / wmt_set_occupancy")
    elif hsum != occ:
        err(f"{where}: wmt_set_occupancy sums to {hsum}, expected "
            f"occupancy {occ}")
    for gauge, cap in (("evbuf_size", "evbuf_capacity"),):
        if counters.get(gauge, 0) > counters.get(cap, 0):
            err(f"{where}: {gauge} exceeds {cap}")


RECOVERY_FIELDS = (
    "epoch", "desyncs_detected", "desync_recoveries", "rearms",
    "degraded_entries", "endpoint_crashes", "checkpoint_restores",
    "arq_timeouts", "resync_sessions", "resync_completions",
    "resync_lines", "resync_ranges_repaired", "resync_faults",
    "resync_handshake_bits", "resync_rearm_bits", "recovery_bits",
)


def check_recovery(r, where):
    """DESIGN.md §12 recovery-section reconciliation."""
    for name in RECOVERY_FIELDS:
        v = r.get(name)
        if not isinstance(v, int) or isinstance(v, bool):
            err(f"{where}: '{name}' missing or non-integer: {v!r}")
        elif v < 0 or v >= MAX_COUNTER:
            err(f"{where}: '{name}' out of range: {v}")
    if errors:
        return
    # The honest-accounting invariant: every recovery bit is either
    # handshake or re-arm traffic, and is charged to neither the
    # payload counters nor anything else.
    expect = r["resync_handshake_bits"] + r["resync_rearm_bits"]
    if r["recovery_bits"] != expect:
        err(f"{where}: recovery_bits {r['recovery_bits']} != "
            f"handshake {r['resync_handshake_bits']} + rearm "
            f"{r['resync_rearm_bits']}")
    if r["resync_completions"] > r["resync_sessions"]:
        err(f"{where}: more resync completions "
            f"({r['resync_completions']}) than sessions "
            f"({r['resync_sessions']})")
    if r["degraded_entries"] > r["endpoint_crashes"] \
            + r["desync_recoveries"]:
        err(f"{where}: degraded_entries {r['degraded_entries']} "
            f"exceeds crash + desync-recovery count")


STAGES = (
    "line", "signature", "probe", "score", "serialize",
    "frame", "link", "ack", "retransmit", "resync",
)

CRITPATH_TOLERANCE = 0.01


def check_critpath_report(r, where, stats=None):
    """Internal consistency of a critpath report object; when the
    metrics stats block rides along, per-stage totals must reconcile
    with the t_stage_*_ns histograms within 1%."""
    for key in ("events", "spanned_events", "spans", "critical_ns",
                "total_ns"):
        v = r.get(key)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            err(f"{where}: '{key}' missing or invalid: {v!r}")
            return
    rows = r.get("stages")
    if not isinstance(rows, list) or len(rows) != len(STAGES):
        err(f"{where}: 'stages' must list all {len(STAGES)} stages")
        return
    total = critical = 0
    best = None
    for i, row in enumerate(rows):
        stage = row.get("stage")
        if stage != STAGES[i]:
            err(f"{where}: stages[{i}] is '{stage}', expected "
                f"'{STAGES[i]}'")
            continue
        for key in ("count", "total_ns", "critical_ns", "slack_ns"):
            v = row.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                err(f"{where}: stage '{stage}' {key} invalid: {v!r}")
                return
        if row["critical_ns"] > row["total_ns"]:
            err(f"{where}: stage '{stage}' critical_ns "
                f"{row['critical_ns']} exceeds total_ns "
                f"{row['total_ns']}")
        if row["count"] == 0 and row["total_ns"] != 0:
            err(f"{where}: stage '{stage}' has zero spans but "
                f"total_ns {row['total_ns']}")
        total += row["total_ns"]
        critical += row["critical_ns"]
        if best is None or row["critical_ns"] > best[1]:
            best = (stage, row["critical_ns"])
    if total != r["total_ns"]:
        err(f"{where}: stage total_ns sum {total} != total_ns "
            f"{r['total_ns']}")
    if critical < r["critical_ns"]:
        err(f"{where}: stage critical_ns sum {critical} below "
            f"critical_ns {r['critical_ns']}")
    binding = r.get("binding_stage")
    if r["spanned_events"] == 0:
        if binding is not None:
            err(f"{where}: binding_stage must be null with no "
                f"spanned events")
    elif best is not None and binding != best[0]:
        err(f"{where}: binding_stage '{binding}' but "
            f"'{best[0]}' has the largest critical_ns")
    share = r.get("binding_share")
    if not isinstance(share, (int, float)) or isinstance(share, bool) \
            or share < 0.0 or share > 1.0:
        err(f"{where}: binding_share out of [0, 1]: {share!r}")
    overhead = r.get("overhead")
    if overhead is not None:
        for key in ("sampled_transfers", "clock_reads",
                    "clock_cost_ns", "estimated_ns"):
            v = overhead.get(key)
            if not isinstance(v, int) or isinstance(v, bool) or v < 0:
                err(f"{where}: overhead '{key}' invalid: {v!r}")

    if stats is None:
        return
    # Reconciliation: the recorder writes every span duration into
    # its stage histogram as it drains, so the analyzer's per-stage
    # totals and the aggregate timers must agree (1% bound per the
    # acceptance criterion; in practice they are identical).
    for row in rows:
        if not isinstance(row, dict) or "stage" not in row:
            continue
        hsum = hist_sum(stats, f"t_stage_{row['stage']}_ns")
        want = row.get("total_ns", 0)
        if hsum is None:
            if want:
                err(f"{where}: stage '{row['stage']}' reports "
                    f"{want} ns but histogram "
                    f"t_stage_{row['stage']}_ns is missing")
            continue
        bound = CRITPATH_TOLERANCE * max(hsum, want)
        if abs(hsum - want) > bound:
            err(f"{where}: stage '{row['stage']}' total_ns {want} "
                f"differs from histogram sum {hsum} by more than 1%")


def check_metrics_v1(m, trace_path):
    for key in ("tool", "command", "benchmark", "scheme", "config",
                "results", "stats", "epochs", "structures"):
        if key not in m:
            err(f"missing top-level key '{key}'")
    if errors:
        return

    check_stats_block(m["stats"], "stats")
    if m.get("fault") is not None:
        check_stats_block(m["fault"], "fault")

    if m["scheme"] == "cable":
        if m.get("structures") is None:
            err("cable scheme but 'structures' is null")
        else:
            check_structures(m["structures"], "structures")
    elif m.get("structures") is not None:
        err(f"scheme '{m['scheme']}' must not export 'structures'")

    if m["scheme"] == "cable":
        if m.get("recovery") is None:
            err("cable scheme but 'recovery' section is null")
        else:
            check_recovery(m["recovery"], "recovery")
    elif m.get("recovery") is not None:
        err(f"scheme '{m['scheme']}' must not export 'recovery'")

    for key in ("bit_ratio", "effective_ratio", "goodput_ratio"):
        check_ratio(m["results"], key)

    hists = m["stats"]["histograms"]
    required = {"line_wire_bits"}
    if m["scheme"] == "cable":
        required |= {"refs_per_line", "cbv_covered_words"}
    for name in sorted(required):
        if name not in hists:
            err(f"required histogram '{name}' missing")
    if m["scheme"] == "cable":
        # The full CABLE decision record: refs, coverage, compressed
        # size, per-stage latency. Baselines only have line size +
        # engine timing.
        if len(hists) < 4:
            err(f"expected at least 4 histograms, found {len(hists)}: "
                f"{sorted(hists)}")
        if not any(n.startswith("t_") for n in hists):
            err("no per-stage timing histogram (t_*) in metrics "
                "export")

    # Epoch deltas must re-add to the cumulative counters.
    epochs = m["epochs"]
    if epochs:
        totals = m["stats"]["counters"]
        for name in ("transfers", "raw_bits", "wire_bits"):
            epoch_sum = sum(e["stats"]["counters"].get(name, 0)
                            for e in epochs)
            if name in totals and epoch_sum != totals[name]:
                err(f"epoch deltas for '{name}' sum to {epoch_sum}, "
                    f"cumulative is {totals[name]}")

    # Trace reconciliation: exact when nothing was sampled away.
    trace = m.get("trace")
    if trace_path and trace and trace.get("format") == "jsonl" \
            and trace.get("sample") == 1:
        in_bits = out_bits = encodes = 0
        with open(trace_path) as f:
            for line in f:
                ev = json.loads(line)
                if ev.get("ev") == "encode":
                    encodes += 1
                    in_bits += ev["in_bits"]
                    out_bits += ev["out_bits"]
        counters = m["stats"]["counters"]
        if in_bits != counters.get("raw_bits", 0):
            err(f"trace in_bits sum {in_bits} != raw_bits "
                f"{counters.get('raw_bits', 0)}")
        if out_bits != counters.get("wire_bits", 0):
            err(f"trace out_bits sum {out_bits} != wire_bits "
                f"{counters.get('wire_bits', 0)}")
        if encodes != counters.get("transfers", 0):
            err(f"trace encode events {encodes} != transfers "
                f"{counters.get('transfers', 0)}")
        if trace.get("events") is not None \
                and encodes > trace["events"]:
            err(f"trace file has {encodes} encode events but metrics "
                f"claim only {trace['events']} were emitted")

    if m.get("critpath") is not None:
        check_critpath_report(m["critpath"], "critpath", m["stats"])

    if not errors:
        print(f"check_metrics: OK ({len(hists)} histograms, "
              f"{len(epochs)} epochs)")


def check_bench_v1(m, announce=True):
    if "sections" not in m:
        err("missing top-level key 'sections'")
        return
    if "unoptimized" in m and not isinstance(m["unoptimized"], bool):
        err(f"'unoptimized' must be a boolean, got "
            f"{m['unoptimized']!r}")
    if not isinstance(m["sections"], list) or not m["sections"]:
        err("'sections' must be a non-empty array")
        return
    rows = 0
    for i, s in enumerate(m["sections"]):
        where = f"sections[{i}]"
        for key in ("label", "columns", "rows"):
            if key not in s:
                err(f"{where}: missing '{key}'")
                return
        ncols = len(s["columns"])
        if any(not isinstance(c, str) for c in s["columns"]):
            err(f"{where}: non-string column name")
        for j, r in enumerate(s["rows"]):
            rows += 1
            if "name" not in r or "values" not in r:
                err(f"{where}.rows[{j}]: missing name/values")
                continue
            if len(r["values"]) != ncols:
                err(f"{where}.rows[{j}] ('{r['name']}'): "
                    f"{len(r['values'])} values for {ncols} columns")
            for v in r["values"]:
                if not isinstance(v, (int, float)) \
                        or isinstance(v, bool):
                    err(f"{where}.rows[{j}]: non-numeric value {v!r}")
    if announce and not errors:
        print(f"check_metrics: OK (bench document, "
              f"{len(m['sections'])} sections, {rows} rows)")


def check_trajectory_v1(m):
    if "entries" not in m:
        err("missing top-level key 'entries'")
        return
    if not isinstance(m["entries"], list) or not m["entries"]:
        err("'entries' must be a non-empty array")
        return
    for i, e in enumerate(m["entries"]):
        where = f"entries[{i}]"
        entry_ok = True
        for key in ("timestamp", "git", "host", "benches", "metrics"):
            if key not in e:
                err(f"{where}: missing '{key}'")
                entry_ok = False
        if not entry_ok:
            continue
        if not e["git"].get("commit"):
            err(f"{where}: git.commit missing or empty")
        if "dirty" in e["git"] \
                and not isinstance(e["git"]["dirty"], bool):
            err(f"{where}: git.dirty must be a boolean")
        if not e["host"].get("hostname"):
            err(f"{where}: host.hostname missing or empty")
        for name, v in e["metrics"].items():
            if not isinstance(v, (int, float)) or isinstance(v, bool):
                err(f"{where}: metric '{name}' is non-numeric: {v!r}")
        for name, doc in e["benches"].items():
            if not isinstance(doc, dict) or "schema" not in doc:
                err(f"{where}: bench '{name}' has no schema field")
                continue
            if doc["schema"] == "cable-bench-v1":
                before = len(errors)
                check_bench_v1(doc, announce=False)
                if len(errors) > before:
                    err(f"{where}: bench '{name}' failed "
                        f"cable-bench-v1 validation")
        # Structure snapshots riding along (the retired
        # cable-structures-v1 document, in entries before it was
        # folded into the metrics "structures" section) get the full
        # invariant check too. Those snapshots predate the removal of
        # the always-empty "distributions" stats block.
        snap = e["benches"].get("ratio_mcf_structures")
        if isinstance(snap, dict) \
                and snap.get("schema") == "cable-structures-v1":
            structures = dict(snap.get("structures", {}))
            if structures.get("distributions") == {}:
                del structures["distributions"]
            check_structures(structures,
                             f"{where}.ratio_mcf_structures")
        cp = e["benches"].get("ratio_mcf_critpath")
        if isinstance(cp, dict) \
                and cp.get("schema") == "cable-critpath-v1" \
                and isinstance(cp.get("critpath"), dict):
            check_critpath_report(cp["critpath"],
                                  f"{where}.ratio_mcf_critpath")
        ph = e["benches"].get("ratio_mcf_phases")
        if isinstance(ph, dict) \
                and ph.get("schema") == "cable-phases-v1" \
                and isinstance(ph.get("phases"), dict):
            check_phases_report(ph["phases"],
                                f"{where}.ratio_mcf_phases")
    if not errors:
        n = len(m["entries"])
        nm = len(m["entries"][-1]["metrics"])
        print(f"check_metrics: OK (trajectory, {n} entries, "
              f"{nm} metrics in latest)")


def check_chaos_v1(m):
    for key in ("tool", "benchmark", "ok", "failure", "config",
                "report", "crash_steps", "stats"):
        if key not in m:
            err(f"missing top-level key '{key}'")
    if errors:
        return
    if not isinstance(m["ok"], bool):
        err(f"'ok' must be a boolean, got {m['ok']!r}")
    r = m["report"]
    for name in ("crashes", "checkpoints_saved", "restores_ok",
                 "corrupt_images", "corrupt_rejected",
                 "resyncs_completed", "watchdog_timeouts",
                 "recovery_bits", "transfers"):
        v = r.get(name)
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            err(f"report.{name} missing or invalid: {v!r}")
    if errors:
        return
    if r["restores_ok"] + r["corrupt_images"] != r["crashes"]:
        err(f"report: restores_ok {r['restores_ok']} + corrupt "
            f"{r['corrupt_images']} != crashes {r['crashes']}")
    if m["ok"]:
        if r["corrupt_rejected"] != r["corrupt_images"]:
            err(f"ok run but only {r['corrupt_rejected']} of "
                f"{r['corrupt_images']} corrupt images rejected")
        if m["failure"]:
            err(f"ok run carries a failure message: {m['failure']!r}")
    steps = m["crash_steps"]
    if sorted(steps) != steps or len(set(steps)) != len(steps):
        err("crash_steps must be sorted and distinct")
    if len(steps) != r["crashes"]:
        err(f"{len(steps)} crash_steps but report.crashes is "
            f"{r['crashes']}")
    check_stats_block(m["stats"], "stats")
    if not errors:
        verdict = "PASS" if m["ok"] else "FAIL"
        print(f"check_metrics: OK (chaos report, {r['crashes']} "
              f"crashes, oracle {verdict})")


def check_critpath_v1(m):
    for key in ("tool", "critpath"):
        if key not in m:
            err(f"missing top-level key '{key}'")
    if errors:
        return
    # cable_sim reports carry run identity + the sampling period;
    # critpath.py reports (recomputed from a trace) carry the trace
    # path instead. Both share the "critpath" report object.
    if m["tool"] == "cable_sim":
        for key in ("command", "benchmark", "scheme", "ops", "seed",
                    "sample"):
            if key not in m:
                err(f"missing top-level key '{key}'")
        if not isinstance(m.get("sample"), int) or m.get("sample", 0) < 1:
            err(f"'sample' must be a positive integer: "
                f"{m.get('sample')!r}")
    check_critpath_report(m["critpath"], "critpath")
    if not errors:
        r = m["critpath"]
        print(f"check_metrics: OK (critpath report, "
              f"{r['spanned_events']} spanned events, binding "
              f"stage {r['binding_stage']})")


PHASE_FEATURES = ("hit_rate", "coverage", "ratio", "bandwidth")


def check_phases_report(r, where):
    """Internal consistency of a phase-detector report object: the
    phases must contiguously partition the epoch stream, boundaries
    must match the phase starts, and every aggregate must be ordered
    (DESIGN.md §14)."""
    check_unknown_keys(r, ("detector", "epochs", "boundaries",
                           "phases"), where)
    det = r.get("detector")
    if not isinstance(det, dict):
        err(f"{where}: missing 'detector' object")
        return
    for key in ("warmup", "kappa", "threshold", "sigma_frac",
                "sigma_abs"):
        v = det.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) \
                or v <= 0:
            err(f"{where}: detector.{key} missing or non-positive: "
                f"{v!r}")
    epochs = r.get("epochs")
    if not isinstance(epochs, int) or isinstance(epochs, bool) \
            or epochs < 0:
        err(f"{where}: 'epochs' missing or invalid: {epochs!r}")
        return
    boundaries = r.get("boundaries")
    if not isinstance(boundaries, list):
        err(f"{where}: missing 'boundaries' array")
        return
    if sorted(set(boundaries)) != boundaries:
        err(f"{where}: boundaries must be sorted and distinct: "
            f"{boundaries}")
    for b in boundaries:
        if not isinstance(b, int) or b <= 0 or b >= epochs:
            err(f"{where}: boundary {b!r} outside (0, {epochs})")
    phases = r.get("phases")
    if not isinstance(phases, list):
        err(f"{where}: missing 'phases' array")
        return
    if epochs > 0 and len(phases) != len(boundaries) + 1:
        err(f"{where}: {len(phases)} phases for {len(boundaries)} "
            f"boundaries (expected boundaries+1)")
    prev = None
    for i, p in enumerate(phases):
        pw = f"{where}.phases[{i}]"
        for key in ("index", "start_epoch", "end_epoch", "epochs",
                    "start_ops", "end_ops", "transfers", "raw_bits",
                    "wire_bits"):
            v = p.get(key)
            if not isinstance(v, int) or isinstance(v, bool) \
                    or v < 0:
                err(f"{pw}: '{key}' missing or invalid: {v!r}")
                return
        if p["index"] != i:
            err(f"{pw}: index {p['index']}, expected {i}")
        if p["end_epoch"] - p["start_epoch"] != p["epochs"]:
            err(f"{pw}: spans [{p['start_epoch']}, {p['end_epoch']})"
                f" but claims {p['epochs']} epochs")
        if p["epochs"] == 0:
            err(f"{pw}: empty phase")
        if p["start_ops"] > p["end_ops"]:
            err(f"{pw}: start_ops {p['start_ops']} > end_ops "
                f"{p['end_ops']}")
        if prev is None:
            if p["start_epoch"] != 0:
                err(f"{pw}: first phase starts at epoch "
                    f"{p['start_epoch']}, expected 0")
        else:
            if p["start_epoch"] != prev["end_epoch"]:
                err(f"{pw}: starts at epoch {p['start_epoch']} but "
                    f"previous phase ended at {prev['end_epoch']}")
            if p["start_ops"] != prev["end_ops"]:
                err(f"{pw}: starts at op {p['start_ops']} but "
                    f"previous phase ended at {prev['end_ops']}")
            if i - 1 < len(boundaries) \
                    and p["start_epoch"] != boundaries[i - 1]:
                err(f"{pw}: starts at epoch {p['start_epoch']} but "
                    f"boundary {i - 1} is {boundaries[i - 1]}")
        prev = p
        feats = p.get("features")
        if not isinstance(feats, dict) \
                or set(feats) != set(PHASE_FEATURES):
            err(f"{pw}: 'features' must carry exactly "
                f"{sorted(PHASE_FEATURES)}")
            continue
        for name in PHASE_FEATURES:
            f = feats[name]
            for key in ("mean", "min", "max"):
                v = f.get(key)
                if not isinstance(v, (int, float)) \
                        or isinstance(v, bool):
                    err(f"{pw}: {name}.{key} missing or "
                        f"non-numeric: {v!r}")
                    return
            if not f["min"] <= f["mean"] <= f["max"]:
                err(f"{pw}: {name} mean {f['mean']} outside "
                    f"[{f['min']}, {f['max']}]")
        spread = p.get("ratio_spread")
        want = feats["ratio"]["max"] - feats["ratio"]["min"]
        if not isinstance(spread, (int, float)) \
                or isinstance(spread, bool) \
                or abs(spread - want) > 1e-6 * max(abs(want), 1.0):
            err(f"{pw}: ratio_spread {spread!r} != ratio.max - "
                f"ratio.min = {want}")
    if phases and phases[-1]["end_epoch"] != epochs:
        err(f"{where}: last phase ends at epoch "
            f"{phases[-1]['end_epoch']}, expected {epochs}")


def check_phases_v1(m):
    for key in ("tool", "phases"):
        if key not in m:
            err(f"missing top-level key '{key}'")
    if errors:
        return
    # cable_sim reports carry run identity + the epoch interval;
    # phases.py reports (recomputed from exported epochs) carry the
    # metrics path instead. Both share the "phases" report object.
    if m["tool"] == "cable_sim":
        for key in ("command", "benchmark", "scheme", "ops", "seed",
                    "interval"):
            if key not in m:
                err(f"missing top-level key '{key}'")
        interval = m.get("interval")
        if not isinstance(interval, int) or isinstance(interval, bool) \
                or interval < 1:
            err(f"'interval' must be a positive integer: "
                f"{interval!r}")
    check_phases_report(m["phases"], "phases")
    if not errors:
        r = m["phases"]
        print(f"check_metrics: OK (phases report, {r['epochs']} "
              f"epochs, {len(r['boundaries'])} boundaries, "
              f"{len(r['phases'])} phases)")


VERIFY_INVARIANTS = {
    "deterministic", "no_dead_end", "recovers_to_initial",
    "fault_total", "typed_terminals", "epoch_monotone",
    "bit_conserving", "fully_reachable",
}


def check_findings(findings, where, kinds):
    """The one finding shape both static-analysis reports share (the
    cable_scan.Finding fields); @p kinds are the code letters the
    writer may emit."""
    if not isinstance(findings, list):
        err(f"{where}: 'findings' must be a list")
        return 0
    for i, f in enumerate(findings):
        fw = f"{where}.findings[{i}]"
        if not isinstance(f, dict):
            err(f"{fw}: not an object")
            continue
        check_unknown_keys(f, {"code", "path", "line", "detail"}, fw)
        code = f.get("code")
        if not isinstance(code, str) \
                or not re.fullmatch(f"[{kinds}]\\d{{3}}", code):
            err(f"{fw}: 'code' must be one of [{kinds}] and three "
                f"digits: {code!r}")
        if not isinstance(f.get("path"), str):
            err(f"{fw}: 'path' missing or non-string")
        line = f.get("line")
        if not isinstance(line, int) or isinstance(line, bool) \
                or line < 1:
            err(f"{fw}: 'line' must be a positive integer: {line!r}")
        if not isinstance(f.get("detail"), str):
            err(f"{fw}: 'detail' missing or non-string")
    return len(findings)


def check_lint_v1(m):
    for key in ("files", "findings"):
        if key not in m:
            err(f"missing top-level key '{key}'")
    if errors:
        return
    files = m["files"]
    if not isinstance(files, int) or isinstance(files, bool) \
            or files < 1:
        err(f"'files' must be a positive integer: {files!r}")
    nfind = check_findings(m["findings"], "lint", "R")
    if not errors:
        print(f"check_metrics: OK (lint report, {files} file(s), "
              f"{nfind} finding(s))")


def check_verify_v1(m):
    for key in ("tool", "ok", "fsm"):
        if key not in m:
            err(f"missing top-level key '{key}'")
    if errors:
        return
    if m["tool"] != "cable_verify":
        err(f"'tool' must be 'cable_verify': {m['tool']!r}")
    if not isinstance(m["ok"], bool):
        err(f"'ok' must be a boolean: {m['ok']!r}")

    fsm = m["fsm"]
    if not isinstance(fsm, dict):
        err("'fsm' must be an object")
        return
    for key in ("spec", "initial", "states", "steady", "transient",
                "terminals", "events", "fault_events", "transitions",
                "reachable_states", "reachable_terminals",
                "reachable_transitions", "simple_cycles",
                "invariants", "findings"):
        if key not in fsm:
            err(f"fsm: missing key '{key}'")
    if errors:
        return
    for key in ("states", "steady", "transient", "terminals",
                "events", "fault_events", "transitions",
                "reachable_states", "reachable_terminals",
                "reachable_transitions", "simple_cycles"):
        v = fsm[key]
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            err(f"fsm.{key}: must be a non-negative integer: {v!r}")
    if errors:
        return
    if fsm["steady"] + fsm["transient"] != fsm["states"]:
        err(f"fsm: steady {fsm['steady']} + transient "
            f"{fsm['transient']} != states {fsm['states']}")
    for part, whole in (("reachable_states", "states"),
                        ("reachable_terminals", "terminals"),
                        ("reachable_transitions", "transitions")):
        if fsm[part] > fsm[whole]:
            err(f"fsm: {part} {fsm[part]} exceeds {whole} "
                f"{fsm[whole]}")
    inv = fsm["invariants"]
    if not isinstance(inv, dict) or set(inv) != VERIFY_INVARIANTS:
        err(f"fsm.invariants must carry exactly "
            f"{sorted(VERIFY_INVARIANTS)}")
        return
    for name, v in inv.items():
        if not isinstance(v, bool):
            err(f"fsm.invariants.{name}: must be a boolean: {v!r}")
    nfind = check_findings(fsm["findings"], "fsm", "F")

    # 'ok' is not advisory: it must equal "no findings anywhere", and
    # a clean report must have proved every invariant and reached the
    # whole declared state space.
    if m["ok"] != (nfind == 0):
        err(f"'ok' is {m['ok']} but the report carries {nfind} "
            f"finding(s)")
    if m["ok"]:
        for name, v in inv.items():
            if v is not True:
                err(f"clean report but invariant '{name}' is false")
        if fsm["reachable_states"] != fsm["states"]:
            err(f"clean report but only {fsm['reachable_states']}/"
                f"{fsm['states']} states are reachable")
        if fsm["reachable_terminals"] != fsm["terminals"]:
            err(f"clean report but only "
                f"{fsm['reachable_terminals']}/{fsm['terminals']} "
                f"terminals are reachable")
    if not errors:
        print(f"check_metrics: OK (verify report, "
              f"{fsm['reachable_states']}/{fsm['states']} states, "
              f"{fsm['reachable_transitions']}/{fsm['transitions']} "
              f"transitions, {nfind} finding(s))")


def main():
    global strict
    ap = argparse.ArgumentParser(
        description="CABLE telemetry document checker")
    ap.add_argument("document", help="JSON document to validate")
    ap.add_argument("trace", nargs="?",
                    help="JSONL trace for cable-metrics-v1 "
                         "reconciliation")
    ap.add_argument("--lax", action="store_true",
                    help="ignore unknown keys instead of failing")
    args = ap.parse_args()
    strict = not args.lax

    with open(args.document) as f:
        m = json.load(f)

    schema = m.get("schema")
    trace_path = args.trace
    if schema in SCHEMA_KEYS:
        check_unknown_keys(m, SCHEMA_KEYS[schema], "top level")
    if schema == "cable-metrics-v1":
        check_metrics_v1(m, trace_path)
    elif schema == "cable-bench-v1":
        check_bench_v1(m)
    elif schema == "cable-trajectory-v1":
        check_trajectory_v1(m)
    elif schema == "cable-chaos-v1":
        check_chaos_v1(m)
    elif schema == "cable-critpath-v1":
        check_critpath_v1(m)
    elif schema == "cable-phases-v1":
        check_phases_v1(m)
    elif schema == "cable-verify-v1":
        check_verify_v1(m)
    elif schema == "cable-lint-v1":
        check_lint_v1(m)
    else:
        err(f"unexpected schema: {schema!r}")

    if errors:
        print(f"check_metrics: FAILED with {len(errors)} error(s)",
              file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
