#!/usr/bin/env python3
"""Perf-trajectory harness for the CABLE benchmark suite.

Two subcommands:

  run (default)
      Builds nothing itself: it drives a curated subset of the
      already-built bench binaries (fig14_throughput, fig03_dict_sweep,
      fig20_engines, micro_search, micro_crc, ext_fault_sweep) through their
      CABLE_METRICS_OUT / --benchmark_out JSON exports, plus one
      `cable_sim ratio` run for the search-shape histograms and
      wire-level metrics, and appends one entry -- benches + a flat
      metric map + commit/host identity -- to a top-level trajectory
      file (default BENCH_cable.json, schema "cable-trajectory-v1").

  compare
      Diffs two entries of the trajectory file metric by metric with
      per-metric noise thresholds, prints a markdown report, and exits
      non-zero when any metric regressed beyond its threshold (unless
      --warn-only).

Typical use:

  tools/bench_runner.py --quick              # fast CI-sized run
  tools/bench_runner.py                      # full-sized run
  tools/bench_runner.py compare              # last run vs the one before
  tools/bench_runner.py compare -a 0 -b -1   # first entry vs latest
  tools/bench_runner.py compare --baseline BENCH_cable.json \
      --out ci_bench.json                    # CI run vs committed baseline
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
import time

SCHEMA = "cable-trajectory-v1"
DEFAULT_OUT = "BENCH_cable.json"

# Curated bench subset: name -> (relative binary path, quick argv,
# full argv). The fig binaries take one positional ops argument.
BENCHES = {
    "fig03_dict_sweep": ("bench/fig03_dict_sweep", ["20000"], ["150000"]),
    "fig14_throughput": ("bench/fig14_throughput", ["300"], ["3000"]),
    "fig20_engines": ("bench/fig20_engines", ["20000"], ["250000"]),
    "ext_fault_sweep": ("bench/ext_fault_sweep", ["20000"], ["150000"]),
}

MICRO_SEARCH = "bench/micro_search"
MICRO_CRC = "bench/micro_crc"
CABLE_SIM = "tools/cable_sim"

# Per-metric comparison policy: direction and relative noise
# threshold. Timing-derived metrics get a wider band than
# deterministic ratio/bit metrics, which only move when the code
# changes behaviour.
METRIC_POLICY = {
    "compression_ratio": {"higher_is_better": True, "threshold": 0.02},
    "effective_ratio": {"higher_is_better": True, "threshold": 0.02},
    "wire_bits_per_line": {"higher_is_better": False, "threshold": 0.02},
    "encode_ns_op": {"higher_is_better": False, "threshold": 0.15},
    "encode64_ns_op": {"higher_is_better": False, "threshold": 0.15},
    "fig14_mean_speedup_cable": {"higher_is_better": True, "threshold": 0.10},
    "fig20_mean_eff_lbe": {"higher_is_better": True, "threshold": 0.05},
    "fig03_ideal_64KB": {"higher_is_better": True, "threshold": 0.02},
    "search_ht_hits_mean": {"higher_is_better": None, "threshold": 0.10},
    "search_ranked_mean": {"higher_is_better": None, "threshold": 0.10},
    "search_covered_words_mean": {"higher_is_better": True, "threshold": 0.10},
    # Largest within-phase compression-ratio spread (phase detector,
    # DESIGN.md §14): counter-derived and deterministic; a jump means
    # the detector is splitting phases differently or the encoder's
    # behaviour inside a phase got less stable.
    "phase_ratio_spread": {"higher_is_better": None, "threshold": 0.02},
    # Kernel micro-metrics: intra-entry speedup ratios (scalar or
    # serial reference / optimized path within the same run), so they
    # self-normalize across hosts; still timing-derived, hence the
    # wide noise band.
    "crc16_speedup": {"higher_is_better": True, "threshold": 0.25},
    "crc8_speedup": {"higher_is_better": True, "threshold": 0.25},
    "cbv_simd_speedup": {"higher_is_better": True, "threshold": 0.25},
    "trivial_simd_speedup": {"higher_is_better": True,
                             "threshold": 0.25},
}


def fail(msg):
    print("bench_runner: error: %s" % msg, file=sys.stderr)
    sys.exit(2)


def run_cmd(argv, env=None, cwd=None):
    """Runs a subprocess, failing loudly on non-zero exit."""
    print("  $ %s" % " ".join(argv), flush=True)
    proc = subprocess.run(argv, env=env, cwd=cwd,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout.decode("utf-8", "replace"))
        fail("'%s' exited with %d" % (argv[0], proc.returncode))
    return proc.stdout.decode("utf-8", "replace")


def read_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s '%s': %s" % (what, path, e))


def section(doc, label):
    for s in doc.get("sections", []):
        if s.get("label") == label:
            return s
    return None


def row_value(sec, row_name, column):
    """Value of (row, column) in a cable-bench-v1 section, or None."""
    if sec is None:
        return None
    try:
        col = sec["columns"].index(column)
    except (KeyError, ValueError):
        return None
    for row in sec.get("rows", []):
        if row.get("name") == row_name:
            vals = row.get("values", [])
            if col < len(vals):
                return vals[col]
    return None


def git_identity(repo):
    def git(*args):
        try:
            out = subprocess.run(["git", *args], cwd=repo,
                                 stdout=subprocess.PIPE,
                                 stderr=subprocess.DEVNULL)
            if out.returncode != 0:
                return None
            return out.stdout.decode().strip()
        except OSError:
            return None

    commit = git("rev-parse", "HEAD")
    status = git("status", "--porcelain")
    return {
        "commit": commit or "unknown",
        "dirty": bool(status),
        "branch": git("rev-parse", "--abbrev-ref", "HEAD") or "unknown",
    }


def host_identity():
    return {
        "hostname": platform.node(),
        "machine": platform.machine(),
        "system": "%s %s" % (platform.system(), platform.release()),
        "python": platform.python_version(),
    }


def hist_mean(metrics_doc, name):
    h = metrics_doc.get("stats", {}).get("histograms", {}).get(name)
    return h.get("mean") if h else None


def cmd_run(args):
    build = args.build_dir
    if not os.path.isdir(build):
        fail("build directory '%s' not found (configure and build "
             "first: cmake -B build -S . && cmake --build build -j)"
             % build)

    entry = {
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
        "quick": args.quick,
        "git": git_identity(os.path.dirname(os.path.abspath(build))),
        "host": host_identity(),
        "benches": {},
        "metrics": {},
    }
    metrics = entry["metrics"]
    unoptimized = False

    with tempfile.TemporaryDirectory(prefix="cable-bench-") as tmp:
        # --- fig/table binaries via CABLE_METRICS_OUT ----------------
        for name, (rel, quick_args, full_args) in BENCHES.items():
            binary = os.path.join(build, rel)
            if not os.path.exists(binary):
                fail("bench binary '%s' not built" % binary)
            out = os.path.join(tmp, name + ".json")
            env = dict(os.environ, CABLE_METRICS_OUT=out)
            print("[%s]" % name, flush=True)
            run_cmd([binary] + (quick_args if args.quick else full_args),
                    env=env)
            doc = read_json(out, "bench metrics")
            if doc.get("schema") != "cable-bench-v1":
                fail("%s wrote schema '%s', expected cable-bench-v1"
                     % (name, doc.get("schema")))
            unoptimized = unoptimized or bool(doc.get("unoptimized"))
            entry["benches"][name] = doc

        # --- micro benches via google-benchmark JSON -----------------
        def run_gbench(rel, name):
            binary = os.path.join(build, rel)
            if not os.path.exists(binary):
                fail("bench binary '%s' not built" % binary)
            out = os.path.join(tmp, name + ".json")
            argv = [binary, "--benchmark_out=" + out,
                    "--benchmark_out_format=json"]
            if args.quick:
                argv.append("--benchmark_min_time=0.02")
            print("[%s]" % name, flush=True)
            run_cmd(argv)
            micro = read_json(out, "google-benchmark output")
            entry["benches"][name] = {
                "schema": "google-benchmark",
                "benchmarks": [
                    {k: b.get(k) for k in
                     ("name", "real_time", "cpu_time", "time_unit",
                      "iterations", "ratio")}
                    for b in micro.get("benchmarks", [])
                ],
            }

        run_gbench(MICRO_SEARCH, "micro_search")
        run_gbench(MICRO_CRC, "micro_crc")

        # --- cable_sim ratio run: wire metrics + stage timings -------
        sim = os.path.join(build, CABLE_SIM)
        if not os.path.exists(sim):
            fail("cable_sim binary '%s' not built" % sim)
        out = os.path.join(tmp, "ratio_mcf.json")
        snap = os.path.join(tmp, "ratio_mcf_structures.json")
        critpath = os.path.join(tmp, "ratio_mcf_critpath.json")
        phases = os.path.join(tmp, "ratio_mcf_phases.json")
        ops = "50000" if args.quick else "400000"
        interval = "10000" if args.quick else "40000"
        print("[ratio_mcf]", flush=True)
        run_cmd([sim, "ratio", "mcf", "--scheme", "cable", "--ops",
                 ops, "--metrics-out", out, "--snapshot-out", snap,
                 "--critpath-out", critpath, "--stats-interval",
                 interval, "--phase-out", phases])
        ratio_doc = read_json(out, "cable_sim metrics")
        entry["benches"]["ratio_mcf"] = ratio_doc
        entry["benches"]["ratio_mcf_structures"] = read_json(
            snap, "cable_sim snapshot")
        entry["benches"]["ratio_mcf_critpath"] = read_json(
            critpath, "cable_sim critpath report")
        entry["benches"]["ratio_mcf_phases"] = read_json(
            phases, "cable_sim phase report")

    entry["unoptimized"] = unoptimized
    if unoptimized:
        print("bench_runner: WARNING: benches were built without "
              "NDEBUG; this entry is flagged 'unoptimized' and its "
              "timings are not comparable to Release runs",
              file=sys.stderr)

    # --- flat metric map for compare ---------------------------------
    counters = ratio_doc.get("stats", {}).get("counters", {})
    results = ratio_doc.get("results", {})
    if results.get("bit_ratio") is not None:
        metrics["compression_ratio"] = results["bit_ratio"]
    if results.get("effective_ratio") is not None:
        metrics["effective_ratio"] = results["effective_ratio"]
    if counters.get("transfers"):
        metrics["wire_bits_per_line"] = (
            counters.get("wire_bits", 0) / counters["transfers"])
    for hist, key in (("ht_hits_per_search", "search_ht_hits_mean"),
                      ("ranked_candidates", "search_ranked_mean"),
                      ("cbv_covered_words",
                       "search_covered_words_mean")):
        m = hist_mean(ratio_doc, hist)
        if m is not None:
            metrics[key] = m

    # Critical-path attribution: which pipeline stage bound this run.
    # The stage name lives in the entry (compare only tracks numeric
    # metrics); its critical-path share is a numeric metric.
    cp = ratio_doc.get("critpath") or {}
    if cp.get("binding_stage") is not None:
        entry["binding_stage"] = cp["binding_stage"]
        metrics["binding_share"] = cp["binding_share"]

    # Phase analytics: the worst within-phase ratio spread. Tracks
    # whether encoder behaviour inside a detected phase stays stable
    # release to release.
    phase_report = (entry["benches"].get("ratio_mcf_phases") or {}) \
        .get("phases", {})
    spreads = [p.get("ratio_spread", 0.0)
               for p in phase_report.get("phases", [])]
    if spreads:
        metrics["phase_ratio_spread"] = max(spreads)

    def gbench_time(bench, name):
        for b in entry["benches"][bench]["benchmarks"]:
            if b.get("name") == name:
                return b.get("real_time")
        return None

    v = gbench_time("micro_search", "BM_ChannelFetch/6")
    if v is not None:
        metrics["encode_ns_op"] = v
    # The 64-access configuration spends most of its time in the
    # search stage, so it is the sensitive probe for search-path
    # optimizations.
    v = gbench_time("micro_search", "BM_ChannelFetch/64")
    if v is not None:
        metrics["encode64_ns_op"] = v

    # Kernel speedups: reference formulation / optimized path within
    # this same entry, so the ratio is host-independent.
    for metric, bench, ref, opt in (
            ("crc16_speedup", "micro_crc",
             "BM_Crc16Serial/512", "BM_Crc16Table/512"),
            ("crc8_speedup", "micro_crc",
             "BM_Crc8Serial/512", "BM_Crc8Table/512"),
            ("cbv_simd_speedup", "micro_search",
             "BM_CbvScalar", "BM_CbvSimd"),
            ("trivial_simd_speedup", "micro_search",
             "BM_TrivialScalar", "BM_TrivialSimd")):
        tr = gbench_time(bench, ref)
        to = gbench_time(bench, opt)
        if tr is not None and to:
            metrics[metric] = tr / to

    fig14 = section(entry["benches"]["fig14_throughput"], "benchmark")
    v = row_value(fig14, "MEAN", "cable")
    if v is not None:
        metrics["fig14_mean_speedup_cable"] = v
    fig20 = section(entry["benches"]["fig20_engines"], "benchmark")
    v = row_value(fig20, "MEAN", "lbe")
    if v is not None:
        metrics["fig20_mean_eff_lbe"] = v
    fig03 = section(entry["benches"]["fig03_dict_sweep"], "dict size")
    v = row_value(fig03, "64KB", "ideal")
    if v is not None:
        metrics["fig03_ideal_64KB"] = v

    # --- append to the trajectory file -------------------------------
    if os.path.exists(args.out):
        doc = read_json(args.out, "trajectory file")
        if doc.get("schema") != SCHEMA:
            fail("'%s' has schema '%s', expected %s"
                 % (args.out, doc.get("schema"), SCHEMA))
    else:
        doc = {"schema": SCHEMA, "entries": []}
    doc["entries"].append(entry)
    with open(args.out, "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")
    print("bench_runner: appended entry %d to %s (%d metrics)"
          % (len(doc["entries"]) - 1, args.out, len(metrics)))
    return 0


def pick_entry(entries, index, what):
    try:
        return entries[index]
    except IndexError:
        fail("entry index %d for %s out of range (%d entries)"
             % (index, what, len(entries)))


def load_entries(path):
    doc = read_json(path, "trajectory file")
    if doc.get("schema") != SCHEMA:
        fail("'%s' has schema '%s', expected %s"
             % (path, doc.get("schema"), SCHEMA))
    entries = doc.get("entries", [])
    if not entries:
        fail("'%s' has no entries; run the harness first" % path)
    return entries


def cmd_compare(args):
    entries = load_entries(args.out)

    if args.baseline:
        # Cross-file mode: baseline comes from another trajectory
        # file (e.g. the committed BENCH_cable.json), candidate from
        # --out. -a indexes the baseline file, -b the candidate file.
        base_entries = load_entries(args.baseline)
        a = pick_entry(base_entries,
                       args.a if args.a is not None else -1,
                       "baseline (-a)")
        b = pick_entry(entries,
                       args.b if args.b is not None else -1,
                       "candidate (-b)")
    else:
        # Defaults: previous vs latest; with a single entry, compare
        # the entry against itself (a sanity self-diff, zero
        # regressions by construction).
        a_idx = args.a if args.a is not None else (
            -2 if len(entries) >= 2 else -1)
        b_idx = args.b if args.b is not None else -1
        a = pick_entry(entries, a_idx, "baseline (-a)")
        b = pick_entry(entries, b_idx, "candidate (-b)")

    lines = []
    lines.append("# CABLE perf trajectory: %s vs %s"
                 % (a["git"]["commit"][:12], b["git"]["commit"][:12]))
    lines.append("")
    for e, tag in ((a, "baseline"), (b, "candidate")):
        flags = []
        if e.get("quick"):
            flags.append("quick")
        if e.get("unoptimized"):
            flags.append("**unoptimized**")
        if e["git"].get("dirty"):
            flags.append("dirty tree")
        lines.append("- %s: `%s` on %s at %s%s"
                     % (tag, e["git"]["commit"][:12],
                        e["host"].get("hostname", "?"),
                        e.get("timestamp", "?"),
                        (" (%s)" % ", ".join(flags)) if flags else ""))
    if a.get("quick") != b.get("quick") or \
            a.get("unoptimized") != b.get("unoptimized"):
        lines.append("")
        lines.append("> note: entries differ in quick/unoptimized "
                     "mode; deltas may reflect run size, not code.")
    lines.append("")
    lines.append("| metric | baseline | candidate | delta | "
                 "threshold | verdict |")
    lines.append("|---|---|---|---|---|---|")

    regressions = []
    for name in sorted(set(a.get("metrics", {}))
                       | set(b.get("metrics", {}))):
        policy = METRIC_POLICY.get(
            name, {"higher_is_better": None, "threshold": 0.10})
        va = a.get("metrics", {}).get(name)
        vb = b.get("metrics", {}).get(name)
        if va is None or vb is None:
            lines.append("| %s | %s | %s | - | - | missing |"
                         % (name,
                            "-" if va is None else "%.4g" % va,
                            "-" if vb is None else "%.4g" % vb))
            continue
        if va == 0:
            delta = 0.0 if vb == 0 else float("inf")
        else:
            delta = (vb - va) / abs(va)
        thr = policy["threshold"]
        hib = policy["higher_is_better"]
        if hib is None:
            verdict = "ok" if abs(delta) <= thr else "changed"
        elif abs(delta) <= thr:
            verdict = "ok"
        elif (delta > 0) == hib:
            verdict = "improved"
        else:
            verdict = "REGRESSED"
            regressions.append((name, va, vb, delta))
        lines.append("| %s | %.4g | %.4g | %+.1f%% | ±%.0f%% | %s |"
                     % (name, va, vb, delta * 100, thr * 100,
                        verdict))

    lines.append("")
    if regressions:
        lines.append("**%d regression(s):**" % len(regressions))
        for name, va, vb, delta in regressions:
            lines.append("- %s: %.4g -> %.4g (%+.1f%%)"
                         % (name, va, vb, delta * 100))
    else:
        lines.append("No regressions beyond noise thresholds.")

    report = "\n".join(lines) + "\n"
    sys.stdout.write(report)
    if args.report:
        with open(args.report, "w") as f:
            f.write(report)

    if regressions and not args.warn_only:
        return 1
    return 0


def main(argv):
    parser = argparse.ArgumentParser(
        prog="bench_runner.py",
        description="CABLE perf-trajectory harness")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="run benches, append an entry")
    p_cmp = sub.add_parser("compare", help="diff two entries")
    for p in (p_run, p_cmp, parser):
        p.add_argument("--out", default=DEFAULT_OUT,
                       help="trajectory file (default %(default)s)")
    for p in (p_run, parser):
        p.add_argument("--quick", action="store_true",
                       help="CI-sized ops (flagged in the entry)")
        p.add_argument("--build-dir", default="build",
                       help="CMake build dir (default %(default)s)")
    p_cmp.add_argument("--baseline", default=None,
                       help="read the baseline entry from this "
                            "trajectory file instead of --out")
    p_cmp.add_argument("-a", type=int, default=None,
                       help="baseline entry index (default -2, or -1 "
                            "when only one entry exists)")
    p_cmp.add_argument("-b", type=int, default=None,
                       help="candidate entry index (default -1)")
    p_cmp.add_argument("--warn-only", action="store_true",
                       help="report regressions but exit 0")
    p_cmp.add_argument("--report", default=None,
                       help="also write the markdown report here")

    # No subcommand means "run".
    if argv and argv[0] in ("run", "compare"):
        args = parser.parse_args(argv)
    else:
        args = parser.parse_args(["run"] + argv)
    if args.command == "compare":
        return cmd_compare(args)
    return cmd_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
