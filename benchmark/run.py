#!/usr/bin/env python3
"""Simulator benchmark: host time, set-up time and memory of cable_sim
on six link workloads, plus a traced per-layer breakdown.

    python3 benchmark/run.py --workload ratio-refs --seed 1 \
        --seconds 20 --trace 0
    python3 benchmark/run.py               # every workload, e2e + trace
    python3 benchmark/run.py --quick       # tiny round; metric rot guard

Builds cable_sim and the probe into build-bench/ (RelWithDebInfo), then
runs one child process at a time, each single-threaded, each a fixed
op count executed as fast as the host allows (closed loop).

--trace 0 times the real cable_sim CLI from outside. Rounds of
SETUP_PER_ROUND `--ops 1` runs plus one full run repeat until
--seconds are used (at least MIN_REPS rounds). host_ns_per_op is
(wall - setup_s) / simulated ops, as the lower quartile over the full
runs; setup_s is the median `--ops 1` wall time.

--trace 1 runs benchmark/probe.cc, which rebuilds the same system
through the public simulator API, times every simulated op and
classifies it by what crossed the link. Its simulated results must
equal cable_sim's for the same seed (the equivalence guard).

The last stdout line is one JSON object: correct, attempted, failed
(simulated ops) and metrics. The line before it holds the build and
host identity and every metric's quartiles and sample count.
"""

import argparse
import hashlib
import json
import os
import platform
import re
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, "build-bench")
SIM = os.path.join(BUILD, "cable", "tools", "cable_sim")
PROBE = os.path.join(BUILD, "cable_probe")
SPAWN = os.path.join(BUILD, "cable_spawn")
BUILD_TYPE = "RelWithDebInfo"

MIN_REPS = 9
SETUP_PER_ROUND = 3
CHILD_TIMEOUT_S = 60
THROUGHPUT_GROUP = 8
FAULTS = ["--fault-rate", "1e-5", "--burst-rate", "1e-4",
          "--drop-sync-rate", "1e-3", "--meta-rate", "1e-4"]

# name -> (command, benchmark, ops, extra flags). Op counts keep one
# run near 1.2 s on a 4-core x86 host, so over MIN_REPS full runs fit
# in a 20 s measurement. README.md gives the reason for each workload.
WORKLOADS = {
    "ratio-refs": ("ratio", "soplex", 1000000, ["--stats"]),
    "ratio-self": ("ratio", "mcf", 750000, ["--stats"]),
    "coherence": ("coherence", "mcf", 750000,
                  ["--stats", "--replicas", "1", "--jobs", "1"]),
    "ratio-faults": ("ratio", "mcf", 750000, ["--stats"] + FAULTS),
    # --stats is left out here: with --metrics-out its dump carries
    # wall-clock histograms, which would break the per-run digest.
    "ratio-telemetry": ("ratio", "soplex", 1000000,
                        ["--metrics-out", "metrics.json",
                         "--critpath-out", "critpath.json",
                         "--stats-interval", "100000",
                         "--phase-out", "phases.json"]),
    "throughput": ("throughput", "mcf", 20000, []),
}
QUICK_OPS = {"ratio": 20000, "coherence": 20000, "throughput": 300}

def per_layer_unit(name):
    if name.endswith("_pct"):
        return "%"
    if name.endswith("_share") or name.endswith("_frac"):
        return "fraction"
    if name.endswith("_ops") or name == "core.desync_recoveries":
        return "count"
    return "ns"


class BenchError(Exception):
    pass


def log(msg):
    print("run.py: %s" % msg, file=sys.stderr, flush=True)


# --- build --------------------------------------------------------------

def build():
    """Configures (once) and builds cable_sim and the probe."""
    os.makedirs(BUILD, exist_ok=True)
    jobs = str(min(4, os.cpu_count() or 1))
    steps = [["cmake", "--build", BUILD, "--parallel", jobs]]
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.insert(0, ["cmake", "-S", HERE, "-B", BUILD,
                         "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE])
    log_path = os.path.join(BUILD, "build.log")
    with open(log_path, "w") as out:
        for argv in steps:
            if subprocess.run(argv, stdout=out,
                              stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build step failed: %s" % " ".join(argv))


def build_identity():
    cache = {}
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            m = re.match(r"(CMAKE_BUILD_TYPE|CMAKE_CXX_COMPILER):\w+=(.*)",
                         line)
            if m:
                cache[m.group(1)] = m.group(2).strip()
    version = "unknown"
    files = os.path.join(BUILD, "CMakeFiles")
    for d in sorted(os.listdir(files)):
        path = os.path.join(files, d, "CMakeCXXCompiler.cmake")
        if os.path.exists(path):
            with open(path) as f:
                m = re.search(r'CMAKE_CXX_COMPILER_VERSION "([^"]*)"',
                              f.read())
            version = m.group(1) if m else version
    commit, dirty = "unknown", None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*args):
            return subprocess.run(["git", "-C", ROOT, *args],
                                  capture_output=True,
                                  text=True).stdout.strip()
        commit = git("rev-parse", "HEAD") or "unknown"
        dirty = bool(git("status", "--porcelain"))
    return {
        "build_type": cache.get("CMAKE_BUILD_TYPE", ""),
        "compiler": "%s %s" % (cache.get("CMAKE_CXX_COMPILER", "?"),
                               version),
        "commit": commit,
        "dirty": dirty,
        "host": platform.node(),
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
    }


# --- child processes ----------------------------------------------------

class Child:
    """One finished child: wall seconds, peak RSS and output.

    Children start through cable_spawn (spawn.cc), which times them and
    reads their own peak RSS with wait4: Linux carries a process's peak
    RSS across fork and exec, so a child forked from this interpreter
    would report at least the interpreter's footprint.
    """

    def __init__(self, argv, tmp):
        paths = [os.path.join(tmp, n) for n in ("stdout", "stderr",
                                                "spawn")]
        with open(paths[0], "wb") as out, open(paths[1], "wb") as err:
            spawned = subprocess.run(
                [SPAWN, paths[2], str(CHILD_TIMEOUT_S)] + argv,
                stdout=out, stderr=err, cwd=tmp)
        with open(paths[0], encoding="utf-8", errors="replace") as f:
            self.stdout = f.read()
        with open(paths[1], encoding="utf-8", errors="replace") as f:
            self.stderr = f.read()
        if spawned.returncode != 0:
            raise BenchError("cable_spawn failed: %s" % self.stderr[-500:])
        with open(paths[2]) as f:
            code, wall_ns, rss_kb = (int(v) for v in f.read().split())
        self.wall_s = wall_ns * 1e-9
        self.rss_mb = rss_kb / 1024.0
        if code != 0:
            raise BenchError("%s exited with %d: %s" % (
                os.path.basename(argv[0]), code,
                self.stderr.strip()[-500:]))


def full_ops(name):
    return WORKLOADS[name][2]


def quick_ops(name):
    return QUICK_OPS[WORKLOADS[name][0]]


def sim_args(name, seed, ops, setup=False):
    command, bench, _, extra = WORKLOADS[name]
    ops = 1 if setup else ops
    args = [command, bench, "--ops", str(ops), "--seed", str(seed)]
    args += extra
    if name == "ratio-faults":
        args += ["--fault-seed", str(seed)]
    if command == "throughput":
        args += ["--warmup", "0" if setup else str(4 * ops)]
    return args


def sim_ops(name, ops, setup=False):
    """Simulated memory ops one cable_sim run executes."""
    if setup:
        ops = 1
    if WORKLOADS[name][0] == "throughput":
        warmup = 0 if setup else 4 * ops
        return THROUGHPUT_GROUP * (ops + warmup)
    return ops


LINE_RE = re.compile(r"^(bit ratio|effective ratio|goodput ratio|"
                     r"aggregate IPC|group bandwidth|link transfers)"
                     r"\s+([0-9.]+)", re.M)
STAT_RE = re.compile(r"^\s*([a-z][a-z0-9_]*) (\d+)$", re.M)


def headline(name):
    """The printed result line sim_result reports for @name."""
    return {"ratio-faults": "goodput ratio",
            "throughput": "aggregate IPC"}.get(name, "bit ratio")


def parse_output(name, child, tmp):
    """Printed results, counters and a digest of one cable_sim run."""
    out = {k: v for k, v in LINE_RE.findall(child.stdout)}
    if headline(name) not in out:
        raise BenchError("cable_sim printed no %s" % headline(name))
    stats = {k: int(v) for k, v in STAT_RE.findall(child.stdout)}
    if name == "ratio-telemetry":
        with open(os.path.join(tmp, "metrics.json")) as f:
            doc = json.load(f)
        for path in ("critpath.json", "phases.json"):
            with open(os.path.join(tmp, path)) as f:
                json.load(f)
        printed = "%.3f" % doc["results"]["bit_ratio"]
        if printed != out.get("bit ratio"):
            raise BenchError("metrics.json bit_ratio %s != printed %s"
                             % (printed, out.get("bit ratio")))
        stats = doc["stats"]["counters"]
    masked = child.stdout.replace(tmp, "<tmp>")
    return {
        "printed": out,
        "stats": stats,
        "digest": hashlib.sha256(masked.encode()).hexdigest(),
    }


def summary(values, unit, value="median"):
    """Quartiles and count of @values; @value names the one reported."""
    q1, med, q3 = (statistics.quantiles(values, n=4) if len(values) > 1
                   else values * 3)
    quartiles = {"q1": q1, "median": med, "q3": q3}
    return {"value": quartiles[value], "unit": unit, **quartiles,
            "n": len(values)}


# --- end to end ---------------------------------------------------------

class E2E:
    """Per-workload accumulator over interleaved rounds."""

    def __init__(self, name, seed, ops):
        self.name, self.seed, self.ops = name, seed, ops
        self.setup_s, self.walls, self.rss = [], [], []
        self.attempted = self.failed = 0
        self.first = None
        self.errors = []

    def run(self, tmp, setup):
        ops = sim_ops(self.name, self.ops, setup)
        self.attempted += ops
        try:
            child = Child([SIM] + sim_args(self.name, self.seed, self.ops,
                                           setup), tmp)
            if setup:
                self.setup_s.append(child.wall_s)
                return
            parsed = parse_output(self.name, child, tmp)
            if self.first is None:
                self.first = parsed
            elif parsed["digest"] != self.first["digest"]:
                raise BenchError("output differs between runs of one seed")
            stats = parsed["stats"]
            self.failed += (stats.get("crc_undetected", 0)
                            + stats.get("arq_timeouts", 0))
            self.walls.append(child.wall_s)
            self.rss.append(child.rss_mb)
        except (BenchError, OSError, ValueError, KeyError) as e:
            self.failed += ops
            self.errors.append("%s: %s" % (self.name, e))

    def metrics(self):
        if not self.walls or not self.setup_s:
            return {}
        setup = statistics.median(self.setup_s)
        ops = sim_ops(self.name, self.ops)
        per_op = [(w - setup) / ops * 1e9 for w in self.walls]
        result = float(self.first["printed"][headline(self.name)])
        return {
            # Other tenants of the host only ever add time, so the
            # lower quartile tracks the simulator's own cost more
            # steadily than the median (README.md, noise).
            "host_ns_per_op": summary(per_op, "ns", value="q1"),
            "setup_s": summary(self.setup_s, "s"),
            "peak_rss_mb": summary(self.rss, "MB"),
            "sim_result": summary([result], "x"),
        }


def measure_e2e(names, seed, seconds, ops_for, min_reps):
    """Round-robin rounds over @names until their time is used; the
    first failure ends the measurement."""
    acc = {n: E2E(n, seed, ops_for(n)) for n in names}
    deadline = time.monotonic() + seconds * len(names)
    rounds, last_round = 0, 0.0
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        while not any(a.errors for a in acc.values()) and (
                rounds < min_reps
                or time.monotonic() + last_round < deadline):
            t0 = time.monotonic()
            for n in names:
                for _ in range(SETUP_PER_ROUND):
                    acc[n].run(tmp, setup=True)
                acc[n].run(tmp, setup=False)
            last_round = time.monotonic() - t0
            rounds += 1
    return acc


# --- traced run ---------------------------------------------------------

PROBE_KEYS = {"bit ratio": "bit_ratio", "effective ratio": "effective_ratio",
              "goodput ratio": "goodput_ratio",
              "aggregate IPC": "aggregate_ipc",
              "group bandwidth": "group_bandwidth"}


def equivalence(name, probe, parsed):
    """Every simulated result cable_sim printed, and its transfer
    count, must equal the probe's."""
    printed = parsed["printed"]
    for label, value in printed.items():
        mine = PROBE_KEYS.get(label)
        if mine and probe[mine] != value:
            raise BenchError("equivalence: probe %s %s != cable_sim %s"
                             % (mine, probe[mine], value))
    if WORKLOADS[name][0] != "throughput":
        transfers = parsed["stats"].get("transfers")
        if name == "coherence":
            transfers = int(printed["link transfers"])
        if probe["transfers"] != transfers:
            raise BenchError("equivalence: probe transfers %s != "
                             "cable_sim %s" % (probe["transfers"],
                                               transfers))


def measure_trace(name, seed, seconds, ops, min_reps):
    """Per-layer medians over repeated probe runs of one workload."""
    deadline = time.monotonic() + seconds
    runs, attempted, failed, errors = [], 0, 0, []
    with tempfile.TemporaryDirectory(dir=BUILD) as tmp:
        args = sim_args(name, seed, ops)
        try:
            reference = parse_output(name, Child([SIM] + args, tmp), tmp)
        except (BenchError, OSError, ValueError, KeyError) as e:
            return [], sim_ops(name, ops), sim_ops(name, ops), [str(e)]
        last = 0.0
        while len(runs) < min_reps or time.monotonic() + last < deadline:
            t0 = time.monotonic()
            n = sim_ops(name, ops)
            attempted += n
            try:
                child = Child([PROBE] + args, tmp)
                probe = json.loads(child.stdout.strip().splitlines()[-1])
                equivalence(name, probe, reference)
                runs.append(probe["metrics"])
            except (BenchError, OSError, ValueError, KeyError,
                    IndexError) as e:
                failed += n
                errors.append("%s: %s" % (name, e))
                break
            last = time.monotonic() - t0
    return runs, attempted, failed, errors


def trace_metrics(runs):
    """Medians of the metrics every probe run measured. The probe
    leaves out a percentile with fewer than ten samples beyond it, so
    such a metric is missing here rather than reported as a number."""
    names = set(runs[0]) if runs else set()
    for r in runs[1:]:
        names &= set(r)
    return {m: summary([r[m] for r in runs], per_layer_unit(m))
            for m in sorted(names)}


# --- reporting ----------------------------------------------------------

def load_declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def print_table(title, metrics):
    print("== %s" % title)
    for name, s in sorted(metrics.items()):
        print("  %-28s %14.6g %-8s q1 %.6g  median %.6g  q3 %.6g  n %d"
              % (name, s["value"], s["unit"], s["q1"], s["median"],
                 s["q3"], s["n"]))


def undeclared_gaps(measured, declared):
    """Declared metrics @measured lacks. A percentile the probe left
    out for too few samples is not a gap when its class's op count
    was measured; it is reported as not measured."""
    gaps, not_measured = [], []
    for metric in sorted(declared):
        if metric in measured:
            continue
        m = re.match(r"(.*_op)_ns\.p\d+$", metric)
        if m and m.group(1) + "_ops" in measured:
            not_measured.append(metric)
        else:
            gaps.append(metric)
    return gaps, not_measured


def finish(correct, attempted, failed, metrics, details, errors):
    for e in errors:
        log(e)
    print(json.dumps({"env": build_identity(), "errors": errors,
                      "details": details}))
    print(json.dumps({
        "correct": correct,
        "attempted": max(attempted, 1),
        "failed": failed,
        "metrics": {k: {"value": v["value"], "unit": v["unit"]}
                    for k, v in metrics.items()},
    }))


def run_one(args, e2e_names, layer_names):
    """The driver's mode: one workload, end to end or traced."""
    ops = full_ops(args.workload)
    details = {}
    if args.trace:
        runs, attempted, failed, errors = measure_trace(
            args.workload, args.seed, args.seconds, ops, 1)
        metrics = trace_metrics(runs)
    else:
        acc = measure_e2e([args.workload], args.seed, args.seconds,
                          lambda n: ops, MIN_REPS)[args.workload]
        metrics = acc.metrics()
        attempted, failed, errors = acc.attempted, acc.failed, acc.errors
        if acc.first:
            details["output_sha256"] = acc.first["digest"]
    wanted = layer_names if args.trace else e2e_names
    gaps, not_measured = undeclared_gaps(metrics, wanted)
    if gaps:
        errors.append("metrics not produced: %s" % ", ".join(gaps))
    if not_measured:
        errors.append("too few samples to measure: %s"
                      % ", ".join(not_measured))
    details["metrics"] = metrics
    metrics = {k: v for k, v in metrics.items() if k in wanted}
    print_table(args.workload, metrics)
    finish(not errors, attempted, failed, metrics,
           {args.workload: details}, errors)
    return 0 if not errors else 1


def run_all(args, e2e_names, layer_names, declared_workloads):
    """Every workload: interleaved e2e rounds, then one traced run
    set each. --quick shrinks ops and time and checks every declared
    metric is emitted with its declared unit."""
    if args.quick:
        ops_for, seconds, min_reps = quick_ops, 0, 3
    else:
        ops_for, seconds, min_reps = full_ops, args.seconds, MIN_REPS
    workloads = list(WORKLOADS)
    acc = measure_e2e(workloads, args.seed, seconds, ops_for, min_reps)
    attempted = sum(a.attempted for a in acc.values())
    failed = sum(a.failed for a in acc.values())
    errors = [e for a in acc.values() for e in a.errors]
    details, flat = {}, {}
    for name in workloads:
        runs, att, fail, errs = measure_trace(
            name, args.seed, seconds, ops_for(name), 1)
        attempted, failed, errors = attempted + att, failed + fail, \
            errors + errs
        metrics = dict(acc[name].metrics())
        metrics.update(trace_metrics(runs))
        details[name] = {"metrics": metrics}
        if acc[name].first:
            details[name]["output_sha256"] = acc[name].first["digest"]
        print_table(name, metrics)
        for metric, s in metrics.items():
            flat["%s.%s" % (name, metric)] = s
    base = details["ratio-refs"]["metrics"].get("host_ns_per_op")
    tel = details["ratio-telemetry"]["metrics"].get("host_ns_per_op")
    if base and tel:
        print("telemetry e2e overhead: %+.2f%% of ratio-refs "
              "host_ns_per_op" % (100.0 * (tel["value"] / base["value"]
                                           - 1.0)))
    declared = {**e2e_names, **layer_names}
    for name in workloads:
        metrics = details[name]["metrics"]
        gaps, not_measured = undeclared_gaps(metrics, declared)
        details[name]["not_measured"] = not_measured
        if args.quick:
            gaps += [m for m, unit in declared.items()
                     if m in metrics and metrics[m]["unit"] != unit]
        elif not_measured:
            errors.append("%s: too few samples to measure: %s"
                          % (name, ", ".join(not_measured)))
        if gaps:
            errors.append("%s: metrics missing or in another unit: %s"
                          % (name, ", ".join(gaps)))
    if args.quick and sorted(declared_workloads) != sorted(workloads):
        errors.append("BENCHMARK.json workloads differ from run.py's")
    finish(not errors, attempted, failed, flat, details, errors)
    return 0 if not errors else 1


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one tiny round of every workload; checks "
                             "every metric in BENCHMARK.json is emitted")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    try:
        e2e, layer, workloads = load_declared()
        build()
        if args.workload:
            return run_one(args, e2e, layer)
        return run_all(args, e2e, layer, workloads)
    except (BenchError, OSError) as e:
        log("error: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
