/**
 * @file
 * cable_sim: command-line driver for custom experiments, the
 * front door for users who want numbers without writing C++.
 *
 *   cable_sim list
 *   cable_sim ratio <benchmark> [options]
 *   cable_sim throughput <benchmark> [options]
 *   cable_sim coherence <benchmark> [options]
 *   cable_sim numa <benchmark> [options]
 *   cable_sim chaos <benchmark> [options]
 *
 * Common options:
 *   --scheme S      raw|zero|bdi|fpc|cpack|cpack128|lbe256|gzip|cable
 *   --ops N         memory operations (per thread)
 *   --seed N        simulation seed
 * ratio options:
 *   --llc-kb N --l4-kb N --engine E --accesses N --max-refs N
 *   --ht-factor F --link-bits N --timing --stats --prefetch N
 * throughput options:
 *   --threads N --group N --warmup N
 * coherence/numa options:
 *   --nodes N
 * coherence batch options:
 *   --replicas N    independent replica systems (seed-derived
 *                   streams; stats merged in replica order)
 *   --jobs N        worker threads for the replica batch (0 = all
 *                   hardware threads). Results are bit-identical
 *                   for every value of --jobs.
 * fault-injection options (ratio/throughput, cable scheme only):
 *   --fault-rate P      per-bit wire flip probability in [0,1]
 *   --burst-rate P      per-packet burst probability in [0,1]
 *   --burst-len N       bits per burst (default 8)
 *   --drop-sync-rate P  sync-message loss probability in [0,1]
 *   --meta-rate P       metadata soft-error probability in [0,1]
 *   --fault-seed N      fault-injection stream seed
 *   --max-retries N     compressed resends before raw fallback
 *   --crc-bits N        frame CRC width: 0, 8 or 16
 *   --audit-period N    cycles between §III-F invariant audits
 *   --arq-watchdog N    retry-cycle budget before CableTimeoutError
 *                       (0 = unbounded, the default)
 *   --strict-desync     surface desyncs as CableDesyncError (exit 3)
 *                       instead of recovering in place
 * chaos options (crash/recovery soak; DESIGN.md §12):
 *   --crashes N         endpoint crash/restart events (default 10)
 *   --corrupt-prob P    probability a checkpoint image is damaged
 *                       before reload (default 0.4)
 *   --ckpt-dir D        round-trip checkpoints through files in D
 *   --chaos-out F       machine-readable report JSON
 *                       (schema "cable-chaos-v1")
 *   --no-watchdog       skip the ARQ-watchdog timeout scenario
 * telemetry options (ratio):
 *   --metrics-out F     machine-readable metrics JSON
 *                       (schema "cable-metrics-v1"); also enables
 *                       stage-span recording (the t_stage_*_ns
 *                       histograms and the critpath section)
 *   --snapshot-out F    end-of-run dictionary-structure snapshot
 *                       (schema "cable-structures-v1"): hash-table
 *                       occupancy/duplication histograms, WMT
 *                       residency, eviction-buffer traffic.
 *                       Requires --scheme cable.
 *   --trace-out F       structured per-line trace events
 *   --trace-format T    jsonl (default) or chrome (trace_event)
 *   --trace-sample N    keep 1-in-N encode events (deterministic,
 *                       counter-based; control events always pass)
 *   --critpath-out F    per-stage critical-path attribution report
 *                       (schema "cable-critpath-v1"); enables stage
 *                       span recording
 *   --critpath-sample N record spans on 1-in-N transfers
 *                       (default 64, deterministic by transfer
 *                       ordinal; requires --critpath-out or
 *                       --metrics-out)
 *   --stats-interval K  epoch stats snapshot every K ops/thread
 *   --live-stats K      print one machine-readable link-health
 *                       status line (JSONL, stdout) every K ops;
 *                       deterministic — no wall-clock fields
 *   --phase-out F       online phase-detection report (schema
 *                       "cable-phases-v1"): seed-deterministic
 *                       CUSUM change points over the epoch stream;
 *                       requires --stats-interval or --live-stats
 * global options:
 *   --log-level L       quiet|warn|info|debug (default info)
 *
 * Every flag is validated up front: unknown flags, malformed
 * numbers and out-of-range values abort with an actionable message
 * and a non-zero exit code before any simulation starts.
 */

#include <cerrno>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/log.h"
#include "core/checkpoint.h"
#include "common/worker_pool.h"
#include "telemetry/critpath.h"
#include "telemetry/phase.h"
#include "telemetry/spans.h"
#include "telemetry/trace.h"
#include "sim/chaos.h"
#include "sim/memlink.h"
#include "sim/multichip.h"
#include "sim/numa.h"
#include "sim/throughput.h"

using namespace cable;

namespace
{

/** Usage-error exit: message to stderr, exit code 2. */
[[noreturn]] void
fail(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "cable_sim: error: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(2);
}

const std::set<std::string> kSchemes = {
    "raw",  "zero",  "bdi",     "fpc",  "cpack",
    "cpack128", "lbe256", "gzip", "cable",
};

const std::set<std::string> kEngines = {
    "lbe", "cpack", "cpack128", "gzip", "lzss", "oracle", "bdi",
};

struct Args
{
    std::string command;
    std::string benchmark;
    std::map<std::string, std::string> flags;

    bool
    has(const std::string &k) const
    {
        return flags.count(k) > 0;
    }

    std::string
    str(const std::string &k, const std::string &dflt) const
    {
        auto it = flags.find(k);
        return it == flags.end() ? dflt : it->second;
    }

    /** Strict non-negative integer: full-string decimal parse. */
    std::uint64_t
    num(const std::string &k, std::uint64_t dflt) const
    {
        auto it = flags.find(k);
        if (it == flags.end())
            return dflt;
        const std::string &text = it->second;
        errno = 0;
        char *end = nullptr;
        unsigned long long v =
            std::strtoull(text.c_str(), &end, 10);
        if (text.empty() || end != text.c_str() + text.size()
            || text.find_first_not_of("0123456789") != std::string::npos)
            fail("--%s expects a non-negative integer, got '%s'",
                 k.c_str(), text.c_str());
        if (errno == ERANGE)
            fail("--%s value '%s' does not fit in 64 bits", k.c_str(),
                 text.c_str());
        return v;
    }

    /** Strict finite double: full-string parse. */
    double
    real(const std::string &k, double dflt) const
    {
        auto it = flags.find(k);
        if (it == flags.end())
            return dflt;
        const std::string &text = it->second;
        errno = 0;
        char *end = nullptr;
        double v = std::strtod(text.c_str(), &end);
        if (text.empty() || end != text.c_str() + text.size())
            fail("--%s expects a number, got '%s'", k.c_str(),
                 text.c_str());
        if (errno == ERANGE)
            fail("--%s value '%s' out of range", k.c_str(),
                 text.c_str());
        return v;
    }

    /** A probability flag: value must lie in [0, 1]. */
    double
    probability(const std::string &k) const
    {
        double p = real(k, 0.0);
        if (p < 0.0 || p > 1.0)
            fail("--%s must be a probability in [0, 1], got %s",
                 k.c_str(), str(k, "0").c_str());
        return p;
    }
};

/** Flags every command accepts. */
const std::set<std::string> kCommonFlags = {"scheme", "ops", "seed",
                                            "stats", "log-level"};
/** Extra flags per command. */
const std::set<std::string> kMemFlags = {
    "llc-kb",    "l4-kb",      "engine",     "accesses",
    "max-refs",  "ht-factor",  "link-bits",  "timing",
    "prefetch",  "fault-rate", "burst-rate", "burst-len",
    "drop-sync-rate", "meta-rate", "fault-seed", "max-retries",
    "crc-bits",  "audit-period", "arq-watchdog", "strict-desync",
};
/** Chaos-soak flags (chaos command). */
const std::set<std::string> kChaosFlags = {
    "crashes", "corrupt-prob", "ckpt-dir", "chaos-out", "no-watchdog",
};
const std::set<std::string> kThroughputFlags = {"threads", "group",
                                                "warmup"};
const std::set<std::string> kNodeFlags = {"nodes"};
/** Replica-batch flags (coherence command). */
const std::set<std::string> kBatchFlags = {"replicas", "jobs"};
/** Telemetry export flags (ratio command). */
const std::set<std::string> kTelemetryFlags = {
    "metrics-out", "snapshot-out", "trace-out", "trace-format",
    "trace-sample", "stats-interval", "critpath-out",
    "critpath-sample", "live-stats", "phase-out",
};
/** Presence-only switches; everything else must carry a value. */
const std::set<std::string> kBoolFlags = {"stats", "timing",
                                          "strict-desync",
                                          "no-watchdog"};

void
checkFlags(const Args &a, const std::set<std::string> &allowed)
{
    for (const auto &[flag, value] : a.flags) {
        if (kCommonFlags.count(flag) || allowed.count(flag))
            continue;
        fail("unknown option '--%s' for command '%s' "
             "(run 'cable_sim' with no arguments for usage)",
             flag.c_str(), a.command.c_str());
    }
}

Args
parse(int argc, char **argv)
{
    Args a;
    if (argc >= 2)
        a.command = argv[1];
    int i = 2;
    if (i < argc && argv[i][0] != '-')
        a.benchmark = argv[i++];
    for (; i < argc; ++i) {
        const char *arg = argv[i];
        if (arg[0] != '-' || arg[1] != '-')
            fail("unexpected argument '%s' (options start with --)",
                 arg);
        std::string flag(arg + 2);
        if (flag.empty())
            fail("empty option name '--'");
        bool boolean = kBoolFlags.count(flag) != 0;
        // A following token is this flag's value unless it looks
        // like another option. A leading '-' followed by a digit is
        // a (negative) number, not an option — consuming it lets
        // the numeric validators reject e.g. '--critpath-sample -5'
        // with the actionable out-of-range message instead of a
        // misleading "expects a value".
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        bool next_is_value =
            next
            && (next[0] != '-'
                || (next[1] >= '0' && next[1] <= '9'));
        if (next_is_value)
            a.flags[flag] = argv[++i];
        else if (boolean)
            a.flags[flag] = "1";
        else
            fail("--%s expects a value (e.g. '--%s <value>')",
                 flag.c_str(), flag.c_str());
    }
    return a;
}

int
usage()
{
    std::fprintf(
        stderr,
        "usage: cable_sim <list|ratio|throughput|coherence|numa"
        "|chaos> [benchmark] [--flag value ...]\n"
        "run 'cable_sim list' for benchmarks and schemes.\n");
    return 2;
}

void
checkBenchmark(const std::string &name)
{
    for (const auto &known : spec2006Benchmarks())
        if (known == name)
            return;
    fail("unknown benchmark '%s' (run 'cable_sim list' to see them)",
         name.c_str());
}

void
checkScheme(const std::string &scheme)
{
    if (!kSchemes.count(scheme))
        fail("unknown scheme '%s' (run 'cable_sim list' to see them)",
             scheme.c_str());
}

MemSystemConfig
memCfg(const Args &a)
{
    MemSystemConfig cfg;
    cfg.scheme = a.str("scheme", "cable");
    checkScheme(cfg.scheme);
    cfg.seed = a.num("seed", 1);

    std::uint64_t llc_kb = a.num("llc-kb", 1024);
    std::uint64_t l4_kb = a.num("l4-kb", 4096);
    if (llc_kb < 64)
        fail("--llc-kb must be at least 64 (a few sets), got %llu",
             static_cast<unsigned long long>(llc_kb));
    if (l4_kb < llc_kb)
        fail("--l4-kb (%llu) must be >= --llc-kb (%llu): the home "
             "cache must contain the remote cache",
             static_cast<unsigned long long>(l4_kb),
             static_cast<unsigned long long>(llc_kb));
    cfg.llc_bytes_per_thread = llc_kb << 10;
    cfg.l4_bytes_per_thread = l4_kb << 10;

    std::uint64_t link_bits = a.num("link-bits", 16);
    if (link_bits < 1 || link_bits > 512)
        fail("--link-bits must be in [1, 512], got %llu",
             static_cast<unsigned long long>(link_bits));
    cfg.link.width_bits = static_cast<unsigned>(link_bits);

    cfg.cable.engine = a.str("engine", "lbe");
    if (!kEngines.count(cfg.cable.engine))
        fail("unknown delegate engine '%s' (run 'cable_sim list')",
             cfg.cable.engine.c_str());

    std::uint64_t accesses = a.num("accesses", 6);
    if (accesses < 1 || accesses > 64)
        fail("--accesses must be in [1, 64], got %llu",
             static_cast<unsigned long long>(accesses));
    cfg.cable.data_accesses = static_cast<unsigned>(accesses);

    std::uint64_t max_refs = a.num("max-refs", 3);
    if (max_refs < 1 || max_refs > 3)
        fail("--max-refs must be in [1, 3] (2-bit wire field), "
             "got %llu",
             static_cast<unsigned long long>(max_refs));
    cfg.cable.max_refs = static_cast<unsigned>(max_refs);

    double ht_factor = a.real("ht-factor", 0.0);
    if (a.has("ht-factor")) {
        if (ht_factor <= 0.0 || ht_factor > 16.0)
            fail("--ht-factor must be in (0, 16], got %s",
                 a.str("ht-factor", "").c_str());
        cfg.cable.home_ht_factor = ht_factor;
        cfg.cable.remote_ht_factor = ht_factor;
    }

    std::uint64_t prefetch = a.num("prefetch", 0);
    if (prefetch > 16)
        fail("--prefetch degree must be at most 16, got %llu",
             static_cast<unsigned long long>(prefetch));
    cfg.prefetch_degree = static_cast<unsigned>(prefetch);
    cfg.timing = a.has("timing");

    // --- fault injection ---------------------------------------------
    cfg.fault.bit_error_rate = a.probability("fault-rate");
    cfg.fault.burst_rate = a.probability("burst-rate");
    cfg.fault.drop_sync_rate = a.probability("drop-sync-rate");
    cfg.fault.meta_corrupt_rate = a.probability("meta-rate");
    cfg.fault.seed = a.num("fault-seed", cfg.fault.seed);

    std::uint64_t burst_len = a.num("burst-len", cfg.fault.burst_len);
    if (burst_len < 1 || burst_len > 512)
        fail("--burst-len must be in [1, 512], got %llu",
             static_cast<unsigned long long>(burst_len));
    cfg.fault.burst_len = static_cast<unsigned>(burst_len);

    std::uint64_t max_retries =
        a.num("max-retries", cfg.cable.max_retries);
    if (max_retries > 64)
        fail("--max-retries must be at most 64, got %llu",
             static_cast<unsigned long long>(max_retries));
    cfg.cable.max_retries = static_cast<unsigned>(max_retries);

    std::uint64_t crc_bits = a.num("crc-bits", cfg.cable.frame_crc_bits);
    if (crc_bits != 0 && crc_bits != 8 && crc_bits != 16)
        fail("--crc-bits must be 0, 8 or 16, got %llu",
             static_cast<unsigned long long>(crc_bits));
    cfg.cable.frame_crc_bits = static_cast<unsigned>(crc_bits);

    std::uint64_t audit = a.num("audit-period", cfg.fault_audit_period);
    if (audit < 1000)
        fail("--audit-period must be at least 1000 cycles, got %llu",
             static_cast<unsigned long long>(audit));
    cfg.fault_audit_period = audit;

    cfg.cable.arq_watchdog_cycles = a.num("arq-watchdog", 0);
    cfg.cable.strict_desync = a.has("strict-desync");
    if (cfg.cable.strict_desync && cfg.scheme != "cable")
        fail("--strict-desync requires --scheme cable");

    if (cfg.fault.anyEnabled() && cfg.scheme != "cable")
        fail("fault injection (--fault-rate/--burst-rate/"
             "--drop-sync-rate/--meta-rate) requires --scheme cable; "
             "scheme '%s' has no recovery machinery",
             cfg.scheme.c_str());
    if (cfg.fault.anyEnabled() && cfg.cable.frame_crc_bits == 0
        && cfg.fault.bit_error_rate + cfg.fault.burst_rate > 0.0)
        fail("wire fault injection with --crc-bits 0 would deliver "
             "corrupt frames undetected; use --crc-bits 8 or 16");
    return cfg;
}

/** Parsed --metrics-out / --trace-* / --stats-interval options. */
struct TelemetryArgs
{
    std::string metrics_path;
    std::string snapshot_path;
    std::string trace_path;
    std::string critpath_path;
    std::string phases_path;
    std::string trace_format = "jsonl";
    std::uint64_t trace_sample = 1;
    std::uint64_t critpath_sample = 64;
    std::uint64_t stats_interval = 0; // ops per epoch; 0 = off
    std::uint64_t live_stats = 0;     // ops per status line; 0 = off

    /** Stage-span recording is on when any consumer of the critpath
     *  report (standalone or metrics section) asked for it. */
    bool
    wantCritPath() const
    {
        return !critpath_path.empty() || !metrics_path.empty();
    }

    /** The phase detector runs for the report and/or the phase
     *  annotations on live status lines. */
    bool
    wantPhases() const
    {
        return !phases_path.empty() || live_stats > 0;
    }

    /** Ops per epoch of the single epoch stream that drives stats
     *  deltas, live lines and phase detection alike. */
    std::uint64_t
    epochInterval() const
    {
        return stats_interval ? stats_interval : live_stats;
    }
};

TelemetryArgs
telemetryArgs(const Args &a)
{
    TelemetryArgs t;
    t.metrics_path = a.str("metrics-out", "");
    t.snapshot_path = a.str("snapshot-out", "");
    t.trace_path = a.str("trace-out", "");
    t.trace_format = a.str("trace-format", "jsonl");
    if (t.trace_format != "jsonl" && t.trace_format != "chrome")
        fail("--trace-format must be 'jsonl' or 'chrome', got '%s'",
             t.trace_format.c_str());
    t.trace_sample = a.num("trace-sample", 1);
    if (t.trace_sample < 1)
        fail("--trace-sample must be at least 1 (1 = every event)");
    t.critpath_path = a.str("critpath-out", "");
    t.critpath_sample = a.num("critpath-sample", 64);
    if (t.critpath_sample < 1)
        fail("--critpath-sample must be at least 1 "
             "(1 = every transfer)");
    t.stats_interval = a.num("stats-interval", 0);
    if (a.has("stats-interval") && t.stats_interval < 1)
        fail("--stats-interval must be at least 1 op");
    t.live_stats = a.num("live-stats", 0);
    if (a.has("live-stats") && t.live_stats < 1)
        fail("--live-stats must be at least 1 op");
    if (t.stats_interval && t.live_stats
        && t.stats_interval != t.live_stats)
        fail("--live-stats (%llu) and --stats-interval (%llu) must "
             "agree when both are given: one epoch stream drives "
             "stats deltas, live lines and phase detection",
             static_cast<unsigned long long>(t.live_stats),
             static_cast<unsigned long long>(t.stats_interval));
    t.phases_path = a.str("phase-out", "");
    if (!t.phases_path.empty() && t.epochInterval() == 0)
        fail("--phase-out requires an epoch stream: pass "
             "--stats-interval K (or --live-stats K) to define "
             "the detector's epochs");
    if (t.trace_path.empty()
        && (a.has("trace-format") || a.has("trace-sample")))
        fail("--trace-format/--trace-sample require --trace-out");
    if (a.has("critpath-sample") && !t.wantCritPath())
        fail("--critpath-sample requires --critpath-out or "
             "--metrics-out");
    return t;
}

/** One epoch snapshot: stats delta over [prev op target, this one]. */
struct Epoch
{
    std::uint64_t ops_reached;
    StatSet stats;
};

/**
 * Tee at the head of the sink chain: every event reaches the
 * critical-path analyzer *before* the trace sampler, so
 * --trace-sample thins the exported trace without starving the
 * attribution report.
 */
class AnalyzerTraceSink : public TraceSink
{
  public:
    AnalyzerTraceSink(CritPathAnalyzer &analyzer, TraceSink *next)
        : analyzer_(analyzer), next_(next)
    {
    }

    void
    emit(const TraceEvent &ev) override
    {
        analyzer_.addEvent(ev);
        ++emitted_;
        if (next_)
            next_->emit(ev);
    }

    void
    flush() override
    {
        if (next_)
            next_->flush();
    }

  private:
    CritPathAnalyzer &analyzer_;
    TraceSink *next_;
};

/** The recorder's measurement-cost self-report, for the report. */
CritPathOverhead
spanOverhead(const SpanRecorder &rec)
{
    CritPathOverhead oh;
    oh.sampled_transfers = rec.sampledTransfers();
    oh.clock_reads = rec.clockReads();
    oh.clock_cost_ns = SpanRecorder::clockReadCostNs();
    oh.estimated_ns = rec.overheadNsEstimate();
    return oh;
}

/**
 * Writes the standalone cable-critpath-v1 document: run identity,
 * the span-sampling period, and the analyzer's per-stage bottleneck
 * attribution (tools/check_metrics.py validates the schema;
 * tools/critpath.py recomputes the same report from a JSONL trace).
 */
void
writeCritPath(const TelemetryArgs &tel, const Args &a,
              const MemSystemConfig &cfg, std::uint64_t ops,
              MemLinkSystem &sys, const CritPathAnalyzer &analyzer)
{
    std::ofstream os(tel.critpath_path);
    if (!os)
        fail("cannot open --critpath-out file '%s'",
             tel.critpath_path.c_str());
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("schema", "cable-critpath-v1");
    jw.field("tool", "cable_sim");
    jw.field("command", a.command);
    jw.field("benchmark", a.benchmark);
    jw.field("scheme", cfg.scheme);
    jw.field("ops", ops);
    jw.field("seed", cfg.seed);
    jw.field("sample", tel.critpath_sample);
    jw.key("critpath");
    CritPathOverhead oh = spanOverhead(sys.protocol().spanRecorder());
    analyzer.writeReport(jw, &oh);
    jw.endObject();
    os << "\n";
    if (!os)
        fail("write to --critpath-out file '%s' failed",
             tel.critpath_path.c_str());
}

/**
 * Writes the standalone cable-phases-v1 document: run identity, the
 * epoch interval and the detector's full report — config, boundary
 * list and per-phase summaries. Reruns with the same seed produce a
 * byte-identical file (ctest compares two), and tools/phases.py
 * recomputes the same boundaries from the metrics epochs.
 */
void
writePhases(const TelemetryArgs &tel, const Args &a,
            const MemSystemConfig &cfg, std::uint64_t ops,
            const PhaseDetector &detector)
{
    std::ofstream os(tel.phases_path);
    if (!os)
        fail("cannot open --phase-out file '%s'",
             tel.phases_path.c_str());
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("schema", "cable-phases-v1");
    jw.field("tool", "cable_sim");
    jw.field("command", a.command);
    jw.field("benchmark", a.benchmark);
    jw.field("scheme", cfg.scheme);
    jw.field("ops", ops);
    jw.field("seed", cfg.seed);
    jw.field("interval", tel.epochInterval());
    jw.key("phases");
    detector.writeReport(jw);
    jw.endObject();
    os << "\n";
    if (!os)
        fail("write to --phase-out file '%s' failed",
             tel.phases_path.c_str());
}

/**
 * Writes the cable-metrics-v1 JSON document: run identity, derived
 * results, the full counter/histogram/distribution sets, per-epoch
 * deltas and the trace-file cross-reference tools/check_metrics.py
 * validates against the trace itself.
 */
void
writeMetrics(const TelemetryArgs &tel, const Args &a,
             const MemSystemConfig &cfg, std::uint64_t ops,
             MemLinkSystem &sys, const std::vector<Epoch> &epochs,
             const SamplingTraceSink *sampler,
             const StatSet *structures,
             const CritPathAnalyzer *critpath)
{
    std::ofstream os(tel.metrics_path);
    if (!os)
        fail("cannot open --metrics-out file '%s'",
             tel.metrics_path.c_str());
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("schema", "cable-metrics-v1");
    jw.field("tool", "cable_sim");
    jw.field("command", a.command);
    jw.field("benchmark", a.benchmark);
    jw.field("scheme", cfg.scheme);

    jw.key("config");
    jw.beginObject();
    jw.field("ops", ops);
    jw.field("seed", cfg.seed);
    jw.field("engine", cfg.cable.engine);
    jw.field("link_bits", cfg.link.width_bits);
    jw.field("timing", cfg.timing);
    jw.field("stats_interval", tel.stats_interval);
    jw.field("critpath_sample",
             critpath ? tel.critpath_sample : 0);
    jw.endObject();

    const StatSet &st = sys.protocol().stats();
    jw.key("results");
    jw.beginObject();
    // ratioOpt: null (not 0.0) when the link never moved a bit.
    auto bit = st.ratioOpt("raw_bits", "wire_bits");
    if (bit)
        jw.field("bit_ratio", *bit);
    else
        jw.nullField("bit_ratio");
    jw.field("effective_ratio", sys.effectiveRatio());
    jw.field("goodput_ratio", sys.goodputRatio());
    if (cfg.timing) {
        jw.field("cycles",
                 static_cast<std::uint64_t>(sys.maxTime()));
        jw.field("ipc", sys.aggregateIPC());
    }
    jw.endObject();

    jw.key("stats");
    st.dumpJson(jw);

    // Dictionary-structure snapshot (null for non-cable schemes,
    // which have no hash tables / WMT / eviction buffer to probe).
    if (structures) {
        jw.key("structures");
        structures->dumpJson(jw);
    } else {
        jw.nullField("structures");
    }

    if (sys.faultInjector()) {
        jw.key("fault");
        sys.faultInjector()->stats().dumpJson(jw);
    } else {
        jw.nullField("fault");
    }

    // Recovery section (cable only): the DESIGN.md §12 counters.
    // check_metrics.py asserts recovery_bits reconciles with its
    // handshake + re-arm components, so desync/resync traffic can
    // never silently fold into the payload ratios.
    if (const CableChannel *ch = sys.protocol().cableChannel()) {
        jw.key("recovery");
        jw.beginObject();
        jw.field("epoch", ch->epoch());
        for (const char *name :
             {"desyncs_detected", "desync_recoveries", "rearms",
              "degraded_entries", "endpoint_crashes",
              "checkpoint_restores", "arq_timeouts",
              "resync_sessions", "resync_completions",
              "resync_lines", "resync_ranges_repaired",
              "resync_faults", "resync_handshake_bits",
              "resync_rearm_bits", "recovery_bits"})
            jw.field(name, st.get(name));
        jw.endObject();
    } else {
        jw.nullField("recovery");
    }

    jw.key("epochs");
    jw.beginArray();
    for (const Epoch &e : epochs) {
        jw.beginObject();
        jw.field("ops_reached", e.ops_reached);
        jw.key("stats");
        e.stats.dumpJson(jw);
        jw.endObject();
    }
    jw.endArray();

    if (sampler) {
        jw.key("trace");
        jw.beginObject();
        jw.field("file", tel.trace_path);
        jw.field("format", tel.trace_format);
        jw.field("sample", tel.trace_sample);
        jw.field("encode_seen", sampler->encodeSeen());
        jw.field("events", sampler->emitted());
        jw.endObject();
    } else {
        jw.nullField("trace");
    }

    // Bottleneck attribution (same object as --critpath-out's
    // "critpath" key): per-stage totals reconcile with the
    // t_stage_*_ns histograms in "stats" — check_metrics.py holds
    // them to 1%.
    if (critpath) {
        jw.key("critpath");
        CritPathOverhead oh =
            spanOverhead(sys.protocol().spanRecorder());
        critpath->writeReport(jw, &oh);
    } else {
        jw.nullField("critpath");
    }
    jw.endObject();
    os << "\n";
    if (!os)
        fail("write to --metrics-out file '%s' failed",
             tel.metrics_path.c_str());
}

/**
 * Writes the standalone cable-structures-v1 document: run identity
 * plus the end-of-run structure probe of every CABLE metadata
 * structure (tools/check_metrics.py validates the occupancy
 * invariants against the counters).
 */
void
writeSnapshot(const TelemetryArgs &tel, const Args &a,
              const MemSystemConfig &cfg, std::uint64_t ops,
              const StatSet &structures)
{
    std::ofstream os(tel.snapshot_path);
    if (!os)
        fail("cannot open --snapshot-out file '%s'",
             tel.snapshot_path.c_str());
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("schema", "cable-structures-v1");
    jw.field("tool", "cable_sim");
    jw.field("command", a.command);
    jw.field("benchmark", a.benchmark);
    jw.field("scheme", cfg.scheme);
    jw.field("ops", ops);
    jw.field("seed", cfg.seed);
    jw.key("structures");
    structures.dumpJson(jw);
    jw.endObject();
    os << "\n";
    if (!os)
        fail("write to --snapshot-out file '%s' failed",
             tel.snapshot_path.c_str());
}

void
printFaultStats(MemLinkSystem &sys)
{
    if (!sys.faultInjector())
        return;
    const StatSet &inj = sys.faultInjector()->stats();
    const StatSet &ch = sys.protocol().stats();
    std::printf("--- fault injection ---\n");
    std::printf("faults injected    %llu\n",
                static_cast<unsigned long long>(
                    inj.get("faults_injected")));
    std::printf("crc detected       %llu\n",
                static_cast<unsigned long long>(
                    ch.get("crc_detected")));
    std::printf("retransmits        %llu\n",
                static_cast<unsigned long long>(
                    ch.get("retransmits")));
    std::printf("raw fallbacks      %llu\n",
                static_cast<unsigned long long>(
                    ch.get("raw_fallbacks")));
    std::printf("desync recoveries  %llu\n",
                static_cast<unsigned long long>(
                    ch.get("desync_recoveries")));
    std::printf("degraded cycles    %llu\n",
                static_cast<unsigned long long>(
                    ch.get("degraded_cycles")));
    std::printf("goodput ratio      %.3fx\n", sys.goodputRatio());
}

int
cmdList()
{
    std::printf("benchmarks (zero/value-dominant marked *):\n ");
    for (const auto &name : spec2006Benchmarks())
        std::printf(" %s%s", name.c_str(),
                    benchmarkProfile(name).zero_dominant ? "*" : "");
    std::printf("\n\nschemes:\n  raw zero bdi fpc cpack cpack128 "
                "lbe256 gzip cable\n");
    std::printf("\ncable delegate engines (--engine):\n  lbe cpack "
                "cpack128 gzip oracle bdi\n");
    return 0;
}

int
cmdRatio(const Args &a)
{
    std::set<std::string> allowed = kMemFlags;
    allowed.insert(kTelemetryFlags.begin(), kTelemetryFlags.end());
    checkFlags(a, allowed);
    MemSystemConfig cfg = memCfg(a);
    TelemetryArgs tel = telemetryArgs(a);
    if (!tel.snapshot_path.empty() && cfg.scheme != "cable")
        fail("--snapshot-out requires --scheme cable; scheme '%s' "
             "has no dictionary structures to probe",
             cfg.scheme.c_str());
    std::uint64_t ops = a.num("ops", 400000);
    if (ops < 1)
        fail("--ops must be at least 1");
    MemLinkSystem sys(cfg, {benchmarkProfile(a.benchmark)});

    // Trace sink chain: critpath analyzer tee → deterministic
    // sampler (period 1 forwards everything) → file sink. The
    // analyzer sits ahead of the sampler so a thinned export cannot
    // starve the attribution report.
    std::ofstream trace_os;
    std::unique_ptr<TraceSink> file_sink;
    std::unique_ptr<SamplingTraceSink> sampler;
    CritPathAnalyzer analyzer;
    std::unique_ptr<AnalyzerTraceSink> analyzer_sink;
    if (!tel.trace_path.empty()) {
        trace_os.open(tel.trace_path);
        if (!trace_os)
            fail("cannot open --trace-out file '%s'",
                 tel.trace_path.c_str());
        if (tel.trace_format == "chrome")
            file_sink = std::make_unique<ChromeTraceSink>(trace_os);
        else
            file_sink = std::make_unique<JsonlTraceSink>(trace_os);
        sampler = std::make_unique<SamplingTraceSink>(
            *file_sink, tel.trace_sample);
    }
    if (tel.wantCritPath()) {
        analyzer_sink = std::make_unique<AnalyzerTraceSink>(
            analyzer, sampler.get());
        sys.setTraceSink(analyzer_sink.get());
        sys.setSpanSampling(tel.critpath_sample);
    } else if (sampler) {
        sys.setTraceSink(sampler.get());
    }
    // Tail-quantile sketches (frame bits, ARQ rounds, encode ns)
    // feed the metrics export and the phase report; off otherwise so
    // plain runs pay nothing.
    CableChannel *cable_ch = sys.protocol().cableChannel();
    if (cable_ch && (!tel.metrics_path.empty() || tel.wantPhases()))
        cable_ch->setSketchesEnabled(true);

    // The head of the sink chain sees the phase-boundary control
    // events (they always pass the sampler, like every non-Encode
    // type), so both trace formats carry the phase annotations.
    TraceSink *trace_head =
        analyzer_sink ? static_cast<TraceSink *>(analyzer_sink.get())
                      : static_cast<TraceSink *>(sampler.get());

    PhaseDetector detector;
    std::uint64_t interval = tel.epochInterval();
    std::vector<Epoch> epochs;
    try {
        if (interval > 0) {
            // run() targets absolute op counts and is re-entrant, so
            // stepping epoch by epoch reproduces the single-run
            // schedule.
            StatSet prev;
            std::uint64_t next = 0;
            do {
                next = std::min(next + interval, ops);
                sys.run(next);
                Epoch e{next, sys.protocol().stats().delta(prev)};
                prev = sys.protocol().stats();
                if (tel.wantPhases()
                    && detector.observe(e.stats, next)
                    && trace_head) {
                    TraceEvent ev;
                    ev.type = TraceEvent::Type::Phase;
                    ev.when = next;
                    ev.aux = detector.currentPhase();
                    trace_head->emit(ev);
                }
                if (tel.live_stats > 0) {
                    // One self-describing JSONL status line per
                    // epoch: counters of the epoch just closed plus
                    // the detector's current phase. Deliberately no
                    // wall-clock field — reruns are byte-identical.
                    double f[kPhaseFeatureCount];
                    PhaseDetector::features(e.stats, f);
                    JsonWriter jw(std::cout);
                    jw.beginObject();
                    jw.field("live", "cable-live-v1");
                    jw.field("ops", next);
                    jw.field("transfers",
                             e.stats.get("transfers"));
                    jw.field("wire_bits",
                             e.stats.get("wire_bits"));
                    jw.field("bit_ratio", f[2]);
                    jw.field("hit_rate", f[0]);
                    jw.field("coverage", f[1]);
                    jw.field("phase", detector.currentPhase());
                    jw.field("health",
                             cable_ch && cable_ch->degraded()
                                 ? "degraded"
                                 : "healthy");
                    jw.endObject();
                    std::cout << "\n";
                }
                epochs.push_back(std::move(e));
            } while (next < ops);
            if (tel.wantPhases())
                detector.finish();
        } else {
            sys.run(ops);
        }
    } catch (const CableDesyncError &e) {
        // Only reachable under --strict-desync: recovery is the
        // default; strict mode turns the first desync terminal.
        std::fprintf(stderr, "cable_sim: strict desync: %s\n",
                     e.what());
        return 3;
    } catch (const CableTimeoutError &e) {
        // Only reachable with a finite --arq-watchdog budget.
        std::fprintf(stderr, "cable_sim: ARQ watchdog: %s\n",
                     e.what());
        return 3;
    }

    // End-of-run structure probe (before the trace flush so its
    // struct_snapshot control event lands in the stream).
    std::unique_ptr<StatSet> structures;
    if (CableChannel *ch = sys.protocol().cableChannel())
        structures =
            std::make_unique<StatSet>(ch->snapshotStructures());
    if (analyzer_sink)
        analyzer_sink->flush();
    else if (sampler)
        sampler->flush();

    std::printf("benchmark          %s\n", a.benchmark.c_str());
    std::printf("scheme             %s\n", cfg.scheme.c_str());
    std::printf("memory ops         %llu\n",
                static_cast<unsigned long long>(ops));
    std::printf("bit ratio          %.3fx\n", sys.bitRatio());
    std::printf("effective ratio    %.3fx (%u-bit flits)\n",
                sys.effectiveRatio(), cfg.link.width_bits);
    if (cfg.timing) {
        std::printf("cycles             %llu\n",
                    static_cast<unsigned long long>(sys.maxTime()));
        std::printf("IPC                %.4f\n", sys.aggregateIPC());
        auto e = sys.energy().breakdown(sys.maxTime());
        std::printf("energy             %.2f uJ\n",
                    e["total"] * 1e-3);
    }
    printFaultStats(sys);
    if (a.has("stats")) {
        std::printf("--- protocol stats ---\n");
        sys.protocol().stats().dump(std::cout, "  ");
    }
    if (!tel.metrics_path.empty())
        writeMetrics(tel, a, cfg, ops, sys, epochs, sampler.get(),
                     structures.get(),
                     analyzer_sink ? &analyzer : nullptr);
    if (!tel.snapshot_path.empty()) {
        if (!structures)
            fail("--snapshot-out: no cable channel in this system");
        writeSnapshot(tel, a, cfg, ops, *structures);
    }
    if (!tel.critpath_path.empty())
        writeCritPath(tel, a, cfg, ops, sys, analyzer);
    if (!tel.phases_path.empty())
        writePhases(tel, a, cfg, ops, detector);
    return 0;
}

int
cmdThroughput(const Args &a)
{
    std::set<std::string> allowed = kMemFlags;
    allowed.insert(kThroughputFlags.begin(), kThroughputFlags.end());
    checkFlags(a, allowed);
    MemSystemConfig cfg = memCfg(a);
    cfg.timing = true;
    std::uint64_t threads_n = a.num("threads", 2048);
    std::uint64_t group_n = a.num("group", 8);
    if (threads_n < 1)
        fail("--threads must be at least 1");
    if (group_n < 1 || group_n > threads_n)
        fail("--group must be in [1, --threads], got %llu",
             static_cast<unsigned long long>(group_n));
    unsigned threads = static_cast<unsigned>(threads_n);
    unsigned group = static_cast<unsigned>(group_n);
    std::uint64_t ops = a.num("ops", 3000);
    if (ops < 1)
        fail("--ops must be at least 1");
    std::uint64_t warmup = a.num("warmup", 4 * ops);

    ThroughputSim sim(cfg, benchmarkProfile(a.benchmark), threads,
                      group);
    sim.run(ops, warmup);
    std::printf("benchmark          %s\n", a.benchmark.c_str());
    std::printf("scheme             %s\n", cfg.scheme.c_str());
    std::printf("threads            %u (group of %u simulated)\n",
                threads, group);
    std::printf("group bandwidth    %.3f GB/s\n",
                sim.groupBandwidthGBs());
    std::printf("aggregate IPC      %.4f\n", sim.aggregateIPC());
    return 0;
}

int
cmdCoherence(const Args &a)
{
    std::set<std::string> allowed = kNodeFlags;
    allowed.insert(kBatchFlags.begin(), kBatchFlags.end());
    checkFlags(a, allowed);
    MultiChipConfig cfg;
    cfg.scheme = a.str("scheme", "cable");
    checkScheme(cfg.scheme);
    std::uint64_t nodes = a.num("nodes", 4);
    if (nodes < 2 || nodes > 64)
        fail("--nodes must be in [2, 64], got %llu",
             static_cast<unsigned long long>(nodes));
    cfg.nodes = static_cast<unsigned>(nodes);
    cfg.seed = a.num("seed", 1);
    cfg.cable.home_ht_factor = 0.25;
    cfg.cable.remote_ht_factor = 0.25;
    std::uint64_t ops = a.num("ops", 400000);
    if (ops < 1)
        fail("--ops must be at least 1");

    std::uint64_t replicas = a.num("replicas", 1);
    if (replicas < 1 || replicas > 1024)
        fail("--replicas must be in [1, 1024], got %llu",
             static_cast<unsigned long long>(replicas));
    std::uint64_t jobs = a.num("jobs", 1);
    if (jobs > 256)
        fail("--jobs must be in [0, 256] (0 = all hardware "
             "threads), got %llu",
             static_cast<unsigned long long>(jobs));
    unsigned njobs = jobs == 0 ? hardwareJobs()
                               : static_cast<unsigned>(jobs);

    // The batch driver: R independent replica systems run across
    // the worker pool, stats merged in replica order — bit-identical
    // output for every --jobs value. One replica with the base seed
    // is exactly the legacy single-system run.
    MultiChipBatch batch(cfg, benchmarkProfile(a.benchmark),
                         static_cast<unsigned>(replicas));
    MultiChipBatchResult res =
        batch.run(ops, static_cast<unsigned>(njobs));
    std::printf("benchmark          %s\n", a.benchmark.c_str());
    if (replicas > 1)
        std::printf("scheme             %s, %u nodes, %u replicas\n",
                    cfg.scheme.c_str(), cfg.nodes, res.replicas);
    else
        std::printf("scheme             %s, %u nodes\n",
                    cfg.scheme.c_str(), cfg.nodes);
    std::printf("bit ratio          %.3fx\n", res.bit_ratio);
    std::printf("effective ratio    %.3fx\n", res.effective_ratio);
    std::printf("link transfers     %llu\n",
                static_cast<unsigned long long>(
                    res.link_stats.get("transfers")));
    if (a.has("stats")) {
        std::printf("\n");
        std::fflush(stdout);
        res.link_stats.dump(std::cout);
    }
    return 0;
}

int
cmdNuma(const Args &a)
{
    checkFlags(a, kNodeFlags);
    NumaConfig cfg;
    cfg.scheme = a.str("scheme", "cable");
    checkScheme(cfg.scheme);
    std::uint64_t nodes = a.num("nodes", 4);
    if (nodes < 2 || nodes > 64)
        fail("--nodes must be in [2, 64], got %llu",
             static_cast<unsigned long long>(nodes));
    cfg.nodes = static_cast<unsigned>(nodes);
    cfg.seed = a.num("seed", 1);
    cfg.cable.home_ht_factor = 0.25;
    cfg.cable.remote_ht_factor = 0.25;
    std::uint64_t ops = a.num("ops", 40000);
    if (ops < 1)
        fail("--ops must be at least 1");
    NumaSystem sys(cfg, benchmarkProfile(a.benchmark));
    sys.run(ops);
    std::printf("benchmark          %s\n", a.benchmark.c_str());
    std::printf("scheme             %s, %u nodes, 1 thread/node\n",
                cfg.scheme.c_str(), cfg.nodes);
    std::printf("bit ratio          %.3fx\n", sys.bitRatio());
    std::printf("effective ratio    %.3fx\n", sys.effectiveRatio());
    std::printf("shared lines       %llu\n",
                static_cast<unsigned long long>(
                    sys.activelySharedLines()));
    std::printf("invalidations      %llu\n",
                static_cast<unsigned long long>(
                    sys.invalidations()));
    return 0;
}

/** Writes the cable-chaos-v1 report document. */
void
writeChaosReport(const std::string &path, const Args &a,
                 const ChaosConfig &cfg, const ChaosReport &r)
{
    std::ofstream os(path);
    if (!os)
        fail("cannot open --chaos-out file '%s'", path.c_str());
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("schema", "cable-chaos-v1");
    jw.field("tool", "cable_sim");
    jw.field("benchmark", a.benchmark);
    jw.field("ok", r.ok);
    jw.field("failure", r.failure);

    jw.key("config");
    jw.beginObject();
    jw.field("ops", cfg.ops);
    jw.field("seed", cfg.seed);
    jw.field("crashes", cfg.crashes);
    jw.field("corrupt_prob", cfg.corrupt_prob);
    jw.field("ckpt_dir", cfg.ckpt_dir);
    jw.field("watchdog_scenario", cfg.watchdog_scenario);
    jw.endObject();

    jw.key("report");
    jw.beginObject();
    jw.field("crashes", r.crashes);
    jw.field("checkpoints_saved", r.checkpoints_saved);
    jw.field("restores_ok", r.restores_ok);
    jw.field("corrupt_images", r.corrupt_images);
    jw.field("corrupt_rejected", r.corrupt_rejected);
    jw.field("resyncs_completed", r.resyncs_completed);
    jw.field("watchdog_timeouts", r.watchdog_timeouts);
    jw.field("recovery_bits", r.recovery_bits);
    jw.field("transfers", r.transfers);
    jw.endObject();

    // The schedule: replaying with the same seed reproduces it.
    jw.key("crash_steps");
    jw.beginArray();
    for (std::uint64_t s : r.crash_steps)
        jw.value(s);
    jw.endArray();

    jw.key("stats");
    r.subject_stats.dumpJson(jw);
    jw.endObject();
    os << "\n";
    if (!os)
        fail("write to --chaos-out file '%s' failed", path.c_str());
}

int
cmdChaos(const Args &a)
{
    std::set<std::string> allowed = kMemFlags;
    allowed.insert(kChaosFlags.begin(), kChaosFlags.end());
    checkFlags(a, allowed);
    MemSystemConfig mem = memCfg(a);
    if (mem.scheme != "cable")
        fail("chaos requires --scheme cable; scheme '%s' has no "
             "checkpoint/resync machinery",
             mem.scheme.c_str());

    ChaosConfig cfg;
    cfg.mem = mem;
    cfg.benchmark = a.benchmark;
    cfg.ops = a.num("ops", 20000);
    if (cfg.ops < 100)
        fail("--ops must be at least 100 for a meaningful schedule");
    cfg.seed = mem.seed;
    std::uint64_t crashes = a.num("crashes", 10);
    if (crashes < 1 || crashes > 10000)
        fail("--crashes must be in [1, 10000], got %llu",
             static_cast<unsigned long long>(crashes));
    cfg.crashes = static_cast<unsigned>(crashes);
    cfg.corrupt_prob =
        a.has("corrupt-prob") ? a.probability("corrupt-prob") : 0.4;
    cfg.ckpt_dir = a.str("ckpt-dir", "");
    if (!cfg.ckpt_dir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(cfg.ckpt_dir, ec);
        if (ec)
            fail("cannot create --ckpt-dir %s: %s",
                 cfg.ckpt_dir.c_str(), ec.message().c_str());
    }
    cfg.watchdog_scenario = !a.has("no-watchdog");
    // Chaos without faults would only exercise the crash schedule;
    // default to a hostile link so desync recovery, mid-resync
    // faults and ARQ all see traffic. Explicit rates still win.
    if (!cfg.mem.fault.anyEnabled()) {
        cfg.mem.fault.bit_error_rate = 1e-4;
        cfg.mem.fault.drop_sync_rate = 2e-3;
        cfg.mem.fault.meta_corrupt_rate = 1e-3;
    }

    ChaosReport r;
    try {
        r = runChaos(cfg);
    } catch (const CableCheckpointError &e) {
        // The harness rejects corrupt images internally; only real
        // file-system trouble (unwritable --ckpt-dir, disk full)
        // reaches this handler.
        std::fprintf(stderr, "cable_sim: checkpoint I/O: %s\n",
                     e.what());
        return 2;
    }

    std::printf("benchmark          %s\n", a.benchmark.c_str());
    std::printf("memory ops         %llu\n",
                static_cast<unsigned long long>(cfg.ops));
    std::printf("crashes            %u\n", r.crashes);
    std::printf("restores ok        %u\n", r.restores_ok);
    std::printf("corrupt rejected   %u/%u\n", r.corrupt_rejected,
                r.corrupt_images);
    std::printf("resyncs completed  %u\n", r.resyncs_completed);
    std::printf("watchdog timeouts  %u\n", r.watchdog_timeouts);
    std::printf("recovery bits      %llu\n",
                static_cast<unsigned long long>(r.recovery_bits));
    std::printf("oracle             %s\n",
                r.ok ? "PASS (bit-exact vs fault-free twin)"
                     : r.failure.c_str());
    if (a.has("stats")) {
        std::printf("--- subject stats ---\n");
        r.subject_stats.dump(std::cout, "  ");
    }
    std::string out = a.str("chaos-out", "");
    if (!out.empty())
        writeChaosReport(out, a, cfg, r);
    return r.ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parse(argc, argv);
    if (a.has("log-level")) {
        auto level = parseLogLevel(a.str("log-level", ""));
        if (!level)
            fail("--log-level must be quiet, warn, info or debug, "
                 "got '%s'",
                 a.str("log-level", "").c_str());
        setLogLevel(*level);
    }
    if (a.command == "list")
        return cmdList();
    if (a.command.empty())
        return usage();
    if (a.command != "ratio" && a.command != "throughput"
        && a.command != "coherence" && a.command != "numa"
        && a.command != "chaos") {
        std::fprintf(stderr, "cable_sim: error: unknown command '%s'\n",
                     a.command.c_str());
        return usage();
    }
    if (a.benchmark.empty())
        fail("command '%s' needs a benchmark, e.g. 'cable_sim %s mcf'"
             " (run 'cable_sim list' to see them)",
             a.command.c_str(), a.command.c_str());
    checkBenchmark(a.benchmark);
    if (a.command == "ratio")
        return cmdRatio(a);
    if (a.command == "throughput")
        return cmdThroughput(a);
    if (a.command == "coherence")
        return cmdCoherence(a);
    if (a.command == "chaos")
        return cmdChaos(a);
    return cmdNuma(a);
}
