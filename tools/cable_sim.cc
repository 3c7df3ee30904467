/**
 * @file
 * cable_sim: command-line driver for custom experiments, the front
 * door for users who want numbers without writing C++.
 *
 *   cable_sim list
 *   cable_sim <ratio|throughput|coherence|numa|chaos> <benchmark>
 *             [--flag value ...]
 *
 * `cable_sim` alone prints every option and the commands that read
 * it; `cable_sim <command>` prints that command's options. Both are
 * printed from kFlags, the table that also validates every flag up
 * front: an invalid invocation exits 2 with a "cable_sim: error:"
 * line before any simulation starts.
 */

#include <algorithm>
#include <bit>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <iterator>
#include <limits>
#include <map>
#include <memory>
#include <optional>
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

/** A factory's name list as a set: lookups and a sorted listing. */
std::set<std::string>
nameSet(const std::vector<std::string> &names)
{
    return {names.begin(), names.end()};
}

/** @p names in order, each after @p prefix, space-separated. */
template <typename Container>
std::string
joined(const Container &names, const char *prefix)
{
    std::string out;
    for (const auto &name : names) {
        if (!out.empty())
            out += ' ';
        out += prefix;
        out += name;
    }
    return out;
}

/** Command masks: bit i is command i of kCommands. */
enum Cmd : unsigned
{
    kList = 1,
    kRatio = 2,
    kThroughput = 4,
    kCoherence = 8,
    kNuma = 16,
    kChaos = 32,
};
/** Commands that simulate a benchmark. */
constexpr unsigned kRuns = kRatio | kThroughput | kCoherence | kNuma | kChaos;
/** Commands that build a MemSystemConfig (memCfg). */
constexpr unsigned kMem = kRatio | kThroughput | kChaos;

/** How a flag's value is read and checked. */
enum class Kind
{
    Switch, // presence only; takes no value
    U64,    // decimal integer in [lo, hi]
    U32,    // the same, and fits in 32 bits
    Real,   // finite number in (lo, hi]
    Prob,   // finite number in [0, 1]
    Str,    // any text
    Choice, // one of choices()
};

constexpr double kNoMax = std::numeric_limits<double>::infinity();
/** Cache sizes stop at 4 GiB per thread, so memCfg's KiB-to-bytes
 *  shift (`kb << 10`) cannot wrap; a larger value is a usage error,
 *  not a 0-byte cache or an out-of-memory abort. */
constexpr double kMaxCacheKb = 1u << 22;
using Names = std::vector<std::string>;

/** One flag: the commands that read it, what it accepts, its help. */
struct Flag
{
    const char *name;
    Kind kind;
    unsigned cmds;
    const char *dflt; // as typed; nullptr: none (reads as 0 or "")
    double lo, hi;
    const char *help;
    Names (*choices)() = nullptr;
};

Names traceFormats() { return {"jsonl", "chrome"}; }
Names crcWidths() { return {"0", "8", "16"}; }
Names logLevels() { return {"quiet", "warn", "info", "debug"}; }

/**
 * Every flag of every command. A name may have one row per group of
 * commands (--ops has a default per command). Rules that tie flags
 * together (l4 >= llc, faults need cable and a CRC, the telemetry
 * dependencies) are code in memCfg and the commands.
 */
const Flag kFlags[] = {
    {"scheme", Kind::Choice, kRuns, "cable", 0, 0, "link scheme",
     schemeNames},
    {"ops", Kind::U64, kRatio | kCoherence, "400000", 1, kNoMax,
     "ops per thread"},
    {"ops", Kind::U64, kThroughput, "3000", 1, kNoMax, "ops per thread"},
    {"ops", Kind::U64, kNuma, "40000", 1, kNoMax, "ops per thread"},
    {"ops", Kind::U64, kChaos, "20000", 100, kNoMax,
     "memory operations (enough for a meaningful crash schedule)"},
    {"seed", Kind::U64, kRuns, "1", 0, kNoMax, "simulation seed"},
    {"stats", Kind::Switch, kRatio | kCoherence | kChaos, nullptr, 0, 0,
     "print the full stats dump"},
    {"log-level", Kind::Choice, kList | kRuns, "info", 0, 0,
     "log verbosity", logLevels},

    // The memory-link system (ratio, throughput, chaos).
    {"llc-kb", Kind::U64, kMem, "1024", 64, kMaxCacheKb,
     "remote LLC KiB per thread"},
    {"l4-kb", Kind::U64, kMem, "4096", 0, kMaxCacheKb,
     "home L4 KiB per thread, at least --llc-kb"},
    {"engine", Kind::Choice, kMem, "lbe", 0, 0, "CABLE delegate engine",
     delegateEngineNames},
    {"accesses", Kind::U32, kMem, "6", 1, 64,
     "candidate data-array reads per search"},
    {"max-refs", Kind::U32, kMem, "3", 1, 3,
     "references per transfer (2-bit wire field)"},
    {"ht-factor", Kind::Real, kMem, nullptr, 0, 16,
     "hash-table entries per cache line at both ends (default home "
     "0.5, remote 1.0)"},
    {"link-bits", Kind::U32, kMem, "16", 1, 512, "link width in bits"},
    {"timing", Kind::Switch, kRatio | kChaos, nullptr, 0, 0,
     "timed run: cycles, IPC and energy"},
    {"prefetch", Kind::U32, kMem, "0", 0, 16, "prefetch degree"},

    // Fault injection (cable scheme only).
    {"fault-rate", Kind::Prob, kMem, "0", 0, 1,
     "per-bit wire flip probability"},
    {"burst-rate", Kind::Prob, kMem, "0", 0, 1,
     "per-packet burst probability"},
    {"burst-len", Kind::U32, kMem, "8", 1, 512, "bits per burst"},
    {"drop-sync-rate", Kind::Prob, kMem, "0", 0, 1,
     "sync-message loss probability"},
    {"meta-rate", Kind::Prob, kMem, "0", 0, 1,
     "metadata soft-error probability"},
    {"fault-seed", Kind::U64, kMem, nullptr, 0, kNoMax,
     "fault-injection stream seed (default 0xfa017)"},
    {"max-retries", Kind::U32, kMem, "3", 0, 64,
     "compressed resends before raw fallback"},
    {"crc-bits", Kind::Choice, kMem, "16", 0, 0, "frame CRC width",
     crcWidths},
    {"audit-period", Kind::U64, kMem, "500000", 1000, kNoMax,
     "cycles between invariant audits"},
    {"arq-watchdog", Kind::U64, kRatio | kThroughput, "0", 0, kNoMax,
     "retry-cycle budget before a timeout, exit 3 (0 = unbounded)"},
    {"strict-desync", Kind::Switch, kMem, nullptr, 0, 0,
     "end the run at the first desync, exit 3, instead of recovering"},

    // throughput
    {"threads", Kind::U32, kThroughput, "2048", 1, kNoMax,
     "threads sharing the link"},
    {"group", Kind::U32, kThroughput, "8", 1, kNoMax,
     "threads simulated in detail, at most --threads"},
    {"warmup", Kind::U64, kThroughput, nullptr, 0, kNoMax,
     "warm-up ops per thread (default 4 x --ops)"},
    {"jobs", Kind::U32, kThroughput, "0", 0, 256,
     "worker threads running the group's systems ahead (0 = all "
     "hardware threads, at most --group); output is the same for "
     "every value"},

    // coherence and numa
    {"nodes", Kind::U32, kCoherence | kNuma, "4", 2, 64, "chips"},
    {"replicas", Kind::U32, kCoherence, "1", 1, 1024,
     "independent replica systems, stats merged in replica order"},
    {"jobs", Kind::U32, kCoherence, "1", 0, 256,
     "worker threads for the replicas (0 = all hardware threads); "
     "output is the same for every value"},

    // chaos: crash/recovery soak (DESIGN.md §12)
    {"crashes", Kind::U32, kChaos, "10", 1, 10000,
     "endpoint crash/restart events"},
    {"corrupt-prob", Kind::Prob, kChaos, "0.4", 0, 1,
     "probability a checkpoint image is damaged before reload"},
    {"ckpt-dir", Kind::Str, kChaos, nullptr, 0, 0,
     "round-trip checkpoints through files in this directory"},
    {"chaos-out", Kind::Str, kChaos, nullptr, 0, 0,
     "report file (schema cable-chaos-v1)"},
    {"no-watchdog", Kind::Switch, kChaos, nullptr, 0, 0,
     "skip the ARQ-watchdog timeout scenario"},

    // ratio telemetry (DESIGN.md §13-14)
    {"metrics-out", Kind::Str, kRatio, nullptr, 0, 0,
     "metrics file (schema cable-metrics-v1); records stage spans"},
    {"trace-out", Kind::Str, kRatio, nullptr, 0, 0,
     "per-line trace event file"},
    {"trace-format", Kind::Choice, kRatio, "jsonl", 0, 0,
     "trace file format", traceFormats},
    {"trace-sample", Kind::U64, kRatio, "1", 1, kNoMax,
     "keep 1 in N encode events (control events always pass)"},
    {"critpath-out", Kind::Str, kRatio, nullptr, 0, 0,
     "critical-path report (schema cable-critpath-v1)"},
    {"critpath-sample", Kind::U64, kRatio, "64", 1, kNoMax,
     "record stage spans on 1 in N transfers"},
    {"stats-interval", Kind::U64, kRatio, nullptr, 1, kNoMax,
     "epoch stats snapshot every N ops"},
    {"live-stats", Kind::U64, kRatio, nullptr, 1, kNoMax,
     "print a JSONL link-health line every N ops"},
    {"phase-out", Kind::Str, kRatio, nullptr, 0, 0,
     "phase report (schema cable-phases-v1); needs an epoch stream"},
};

/** The row of @p name that @p cmds read, or nullptr. */
const Flag *
findFlag(const std::string &name, unsigned cmds)
{
    for (const Flag &f : kFlags)
        if (name == f.name && (f.cmds & cmds))
            return &f;
    return nullptr;
}

/** "in [lo, hi]", "in (lo, hi]" or "at least lo". */
std::string
rangeText(const Flag &f)
{
    char buf[64];
    if (f.hi == kNoMax)
        std::snprintf(buf, sizeof(buf), "at least %.15g", f.lo);
    else
        std::snprintf(buf, sizeof(buf), "in %c%.15g, %.15g]",
                      f.kind == Kind::Real ? '(' : '[', f.lo, f.hi);
    return buf;
}

/** Fails unless @p text is a value @p f accepts. */
void
checkValue(const Flag &f, const std::string &text)
{
    const char *t = text.c_str();
    if (f.kind == Kind::Switch || f.kind == Kind::Str)
        return;
    if (f.kind == Kind::Choice) {
        Names names = f.choices();
        if (std::find(names.begin(), names.end(), text) == names.end())
            fail("--%s must be one of: %s; got '%s'", f.name,
                 joined(names, "").c_str(), t);
        return;
    }
    double v;
    if (f.kind == Kind::U64 || f.kind == Kind::U32) {
        if (text.empty()
            || text.find_first_not_of("0123456789") != std::string::npos)
            fail("--%s expects a non-negative integer, got '%s'", f.name,
                 t);
        errno = 0;
        unsigned long long n = std::strtoull(t, nullptr, 10);
        if (errno == ERANGE
            || (f.kind == Kind::U32
                && n > std::numeric_limits<std::uint32_t>::max()))
            fail("--%s value '%s' does not fit in %d bits", f.name, t,
                 f.kind == Kind::U32 ? 32 : 64);
        v = static_cast<double>(n);
    } else {
        errno = 0;
        char *end = nullptr;
        v = std::strtod(t, &end);
        if (text.empty() || end != t + text.size() || !std::isfinite(v))
            fail("--%s expects a finite number, got '%s'", f.name, t);
        if (errno == ERANGE)
            fail("--%s value '%s' out of range", f.name, t);
    }
    if (v < f.lo || v > f.hi || (f.kind == Kind::Real && v == f.lo))
        fail("--%s must be %s, got '%s'", f.name, rangeText(f).c_str(),
             t);
}

/** A parsed command line; every flag in it passed checkValue. */
struct Args
{
    std::string command;
    unsigned cmd = 0; // the command's Cmd bit
    std::string benchmark;
    std::map<std::string, std::string> given;

    bool has(const char *k) const { return given.count(k) > 0; }

    /** The given value, else the row's default, else "". A flag the
     *  command does not read takes the default of a row that has it. */
    std::string
    str(const char *k) const
    {
        auto it = given.find(k);
        if (it != given.end())
            return it->second;
        const Flag *f = findFlag(k, cmd);
        if (!f && !(f = findFlag(k, ~0u)))
            panic("cable_sim reads undeclared flag --%s", k);
        return f->dflt ? f->dflt : "";
    }

    std::uint64_t
    u64(const char *k) const
    {
        return std::strtoull(str(k).c_str(), nullptr, 10);
    }
    unsigned u32(const char *k) const { return static_cast<unsigned>(u64(k)); }
    double
    real(const char *k) const
    {
        return std::strtod(str(k).c_str(), nullptr);
    }
};

MemSystemConfig
memCfg(const Args &a)
{
    MemSystemConfig cfg;
    cfg.scheme = a.str("scheme");
    cfg.seed = a.u64("seed");

    std::uint64_t llc_kb = a.u64("llc-kb");
    std::uint64_t l4_kb = a.u64("l4-kb");
    if (l4_kb < llc_kb)
        fail("--l4-kb (%llu) must be >= --llc-kb (%llu): the home "
             "cache must contain the remote cache",
             static_cast<unsigned long long>(l4_kb),
             static_cast<unsigned long long>(llc_kb));
    cfg.llc_bytes_per_thread = llc_kb << 10;
    cfg.l4_bytes_per_thread = l4_kb << 10;
    cfg.link.width_bits = a.u32("link-bits");
    cfg.cable.engine = a.str("engine");
    cfg.cable.data_accesses = a.u32("accesses");
    cfg.cable.max_refs = a.u32("max-refs");
    if (a.has("ht-factor"))
        cfg.cable.home_ht_factor = cfg.cable.remote_ht_factor =
            a.real("ht-factor");
    cfg.prefetch_degree = a.u32("prefetch");
    cfg.timing = a.has("timing");

    // --- fault injection ---------------------------------------------
    cfg.fault.bit_error_rate = a.real("fault-rate");
    cfg.fault.burst_rate = a.real("burst-rate");
    cfg.fault.drop_sync_rate = a.real("drop-sync-rate");
    cfg.fault.meta_corrupt_rate = a.real("meta-rate");
    if (a.has("fault-seed"))
        cfg.fault.seed = a.u64("fault-seed");
    cfg.fault.burst_len = a.u32("burst-len");
    cfg.cable.max_retries = a.u32("max-retries");
    cfg.cable.frame_crc_bits = a.u32("crc-bits");
    cfg.fault_audit_period = a.u64("audit-period");
    cfg.cable.arq_watchdog_cycles = a.u64("arq-watchdog");
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
 * Writes one JSON document to @p path, the file --@p flag names:
 * {"schema": @p schema, "tool": "cable_sim", ...what @p body writes}
 * and a newline. A failed open or write is a usage error.
 * tools/check_metrics.py validates every schema written here.
 */
template <typename Body>
void
writeJson(const std::string &path, const char *flag, const char *schema,
          Body &&body)
{
    std::ofstream os(path);
    if (!os)
        fail("cannot open --%s file '%s'", flag, path.c_str());
    JsonWriter jw(os);
    jw.beginObject();
    jw.field("schema", schema);
    jw.field("tool", "cable_sim");
    body(jw);
    jw.endObject();
    os << "\n";
    if (!os)
        fail("write to --%s file '%s' failed", flag, path.c_str());
}

/** The run identity the ratio documents open with. */
void
writeIdentity(JsonWriter &jw, const Args &a, const MemSystemConfig &cfg)
{
    jw.field("command", a.command);
    jw.field("benchmark", a.benchmark);
    jw.field("scheme", cfg.scheme);
}

/**
 * Writes the body of the cable-metrics-v1 document: run identity,
 * derived results, the full counter/histogram/sketch sets, per-epoch
 * deltas and the trace-file cross-reference tools/check_metrics.py
 * validates against the trace itself.
 */
void
writeMetrics(JsonWriter &jw, const Args &a,
             const MemSystemConfig &cfg, std::uint64_t ops,
             MemLinkSystem &sys, const std::vector<Epoch> &epochs,
             const SamplingTraceSink *sampler,
             const StatSet *structures,
             const CritPathAnalyzer *critpath)
{
    writeIdentity(jw, a, cfg);
    jw.key("config");
    jw.beginObject();
    jw.field("ops", ops);
    jw.field("seed", cfg.seed);
    jw.field("engine", cfg.cable.engine);
    jw.field("link_bits", cfg.link.width_bits);
    jw.field("timing", cfg.timing);
    jw.field("stats_interval", a.u64("stats-interval"));
    jw.field("critpath_sample",
             critpath ? a.u64("critpath-sample") : 0);
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
        jw.field("file", a.str("trace-out"));
        jw.field("format", a.str("trace-format"));
        jw.field("sample", a.u64("trace-sample"));
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
    for (const char *name : {"crc_detected", "retransmits",
                             "raw_fallbacks", "desync_recoveries",
                             "degraded_cycles"}) {
        std::string label = name;
        std::replace(label.begin(), label.end(), '_', ' ');
        std::printf("%-19s%llu\n", label.c_str(),
                    static_cast<unsigned long long>(ch.get(name)));
    }
    std::printf("goodput ratio      %.3fx\n", sys.goodputRatio());
}

int
cmdList(const Args &)
{
    std::printf("benchmarks (zero/value-dominant marked *):\n ");
    for (const auto &name : spec2006Benchmarks())
        std::printf(" %s%s", name.c_str(),
                    benchmarkProfile(name).zero_dominant ? "*" : "");
    std::printf("\n\nschemes:\n  %s\n",
                joined(nameSet(schemeNames()), "").c_str());
    std::printf("\ncable delegate engines (--engine):\n  %s\n",
                joined(nameSet(delegateEngineNames()), "").c_str());
    return 0;
}

int
cmdRatio(const Args &a)
{
    MemSystemConfig cfg = memCfg(a);
    std::uint64_t ops = a.u64("ops");
    // Telemetry outputs (an empty path is off) and their rules.
    const std::string metrics_path = a.str("metrics-out");
    const std::string trace_path = a.str("trace-out");
    const std::string critpath_path = a.str("critpath-out");
    const std::string phases_path = a.str("phase-out");
    const std::uint64_t live_stats = a.u64("live-stats");
    // One epoch stream drives stats deltas, live lines and phase
    // detection alike.
    const std::uint64_t interval =
        a.has("stats-interval") ? a.u64("stats-interval") : live_stats;
    if (live_stats && interval != live_stats)
        fail("--live-stats (%llu) and --stats-interval (%llu) must "
             "agree when both are given: one epoch stream drives "
             "stats deltas, live lines and phase detection",
             static_cast<unsigned long long>(live_stats),
             static_cast<unsigned long long>(interval));
    if (!phases_path.empty() && interval == 0)
        fail("--phase-out requires an epoch stream: pass "
             "--stats-interval K (or --live-stats K) to define "
             "the detector's epochs");
    if (trace_path.empty()
        && (a.has("trace-format") || a.has("trace-sample")))
        fail("--trace-format/--trace-sample require --trace-out");
    // Stage spans are recorded for either consumer of the critpath
    // report (standalone or metrics section); the phase detector runs
    // for its report and for the live lines' phase field.
    const bool want_critpath =
        !critpath_path.empty() || !metrics_path.empty();
    const bool want_phases = !phases_path.empty() || live_stats > 0;
    if (a.has("critpath-sample") && !want_critpath)
        fail("--critpath-sample requires --critpath-out or "
             "--metrics-out");
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
    if (!trace_path.empty()) {
        trace_os.open(trace_path);
        if (!trace_os)
            fail("cannot open --trace-out file '%s'",
                 trace_path.c_str());
        if (a.str("trace-format") == "chrome")
            file_sink = std::make_unique<ChromeTraceSink>(trace_os);
        else
            file_sink = std::make_unique<JsonlTraceSink>(trace_os);
        sampler = std::make_unique<SamplingTraceSink>(
            *file_sink, a.u64("trace-sample"));
    }
    if (want_critpath) {
        analyzer_sink = std::make_unique<AnalyzerTraceSink>(
            analyzer, sampler.get());
        sys.setTraceSink(analyzer_sink.get());
        sys.setSpanSampling(a.u64("critpath-sample"));
    } else if (sampler) {
        sys.setTraceSink(sampler.get());
    }
    // Tail-quantile sketches (frame bits, ARQ rounds, encode ns)
    // feed the metrics export and the phase report; off otherwise so
    // plain runs pay nothing.
    CableChannel *cable_ch = sys.protocol().cableChannel();
    if (cable_ch && (!metrics_path.empty() || want_phases))
        cable_ch->setSketchesEnabled(true);

    // The head of the sink chain sees the phase-boundary control
    // events (they always pass the sampler, like every non-Encode
    // type), so both trace formats carry the phase annotations.
    TraceSink *trace_head = sampler.get();
    if (analyzer_sink)
        trace_head = analyzer_sink.get();

    PhaseDetector detector;
    std::vector<Epoch> epochs;
    if (interval > 0) {
        // run() targets absolute op counts and is re-entrant, so
        // stepping epoch by epoch reproduces the single-run schedule.
        StatSet prev;
        std::uint64_t next = 0;
        do {
            next = std::min(next + interval, ops);
            sys.run(next);
            Epoch e{next, sys.protocol().stats().delta(prev)};
            prev = sys.protocol().stats();
            if (want_phases && detector.observe(e.stats, next)
                && trace_head) {
                TraceEvent ev;
                ev.type = TraceEvent::Type::Phase;
                ev.when = next;
                ev.aux = detector.currentPhase();
                trace_head->emit(ev);
            }
            if (live_stats > 0) {
                // One self-describing JSONL status line per epoch:
                // counters of the epoch just closed plus the
                // detector's current phase. Deliberately no
                // wall-clock field — reruns are byte-identical.
                double f[kPhaseFeatureCount];
                PhaseDetector::features(e.stats, f);
                JsonWriter jw(std::cout);
                jw.beginObject();
                jw.field("live", "cable-live-v1");
                jw.field("ops", next);
                jw.field("transfers", e.stats.get("transfers"));
                jw.field("wire_bits", e.stats.get("wire_bits"));
                jw.field("bit_ratio", f[2]);
                jw.field("hit_rate", f[0]);
                jw.field("coverage", f[1]);
                jw.field("phase", detector.currentPhase());
                jw.field("health", cable_ch && cable_ch->degraded()
                                       ? "degraded"
                                       : "healthy");
                jw.endObject();
                std::cout << "\n";
            }
            epochs.push_back(std::move(e));
        } while (next < ops);
        if (want_phases)
            detector.finish();
    } else {
        sys.run(ops);
    }

    // End-of-run structure probe (before the trace flush so its
    // struct_snapshot control event lands in the stream).
    std::optional<StatSet> structures;
    if (cable_ch)
        structures = cable_ch->snapshotStructures();
    if (trace_head)
        trace_head->flush();

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
    if (!metrics_path.empty())
        writeJson(metrics_path, "metrics-out", "cable-metrics-v1",
                  [&](JsonWriter &jw) {
                      writeMetrics(jw, a, cfg, ops, sys, epochs,
                                   sampler.get(),
                                   structures ? &*structures : nullptr,
                                   analyzer_sink ? &analyzer : nullptr);
                  });
    // The analyzer's per-stage bottleneck attribution; tools/
    // critpath.py recomputes the same report from a JSONL trace.
    if (!critpath_path.empty())
        writeJson(critpath_path, "critpath-out", "cable-critpath-v1",
                  [&](JsonWriter &jw) {
                      writeIdentity(jw, a, cfg);
                      jw.field("ops", ops);
                      jw.field("seed", cfg.seed);
                      jw.field("sample", a.u64("critpath-sample"));
                      jw.key("critpath");
                      CritPathOverhead oh = spanOverhead(
                          sys.protocol().spanRecorder());
                      analyzer.writeReport(jw, &oh);
                  });
    // The detector's config, boundaries and per-phase summaries;
    // tools/phases.py recomputes the same boundaries from the
    // metrics epochs.
    if (!phases_path.empty())
        writeJson(phases_path, "phase-out", "cable-phases-v1",
                  [&](JsonWriter &jw) {
                      writeIdentity(jw, a, cfg);
                      jw.field("ops", ops);
                      jw.field("seed", cfg.seed);
                      jw.field("interval", interval);
                      jw.key("phases");
                      detector.writeReport(jw);
                  });
    return 0;
}

int
cmdThroughput(const Args &a)
{
    MemSystemConfig cfg = memCfg(a);
    unsigned threads = a.u32("threads");
    unsigned group = a.u32("group");
    if (group > threads)
        fail("--group (%u) must be at most --threads (%u)", group,
             threads);
    std::uint64_t ops = a.u64("ops");
    std::uint64_t warmup = a.has("warmup") ? a.u64("warmup") : 4 * ops;
    unsigned jobs = a.u32("jobs");

    ThroughputSim sim(cfg, benchmarkProfile(a.benchmark), threads,
                      group);
    sim.run(ops, warmup, jobs == 0 ? hardwareJobs() : jobs);
    std::printf("benchmark          %s\n", a.benchmark.c_str());
    std::printf("scheme             %s\n", cfg.scheme.c_str());
    std::printf("threads            %u (group of %u simulated)\n",
                threads, group);
    std::printf("group bandwidth    %.3f GB/s\n",
                sim.groupBandwidthGBs());
    std::printf("aggregate IPC      %.4f\n", sim.aggregateIPC());
    return 0;
}

/** The multi-node set-up coherence and numa share: scheme, nodes,
 *  seed, and hash tables a quarter of each cache. */
template <typename Config>
Config
nodeCfg(const Args &a)
{
    Config cfg;
    cfg.scheme = a.str("scheme");
    cfg.nodes = a.u32("nodes");
    cfg.seed = a.u64("seed");
    cfg.cable.home_ht_factor = 0.25;
    cfg.cable.remote_ht_factor = 0.25;
    return cfg;
}

int
cmdCoherence(const Args &a)
{
    auto cfg = nodeCfg<MultiChipConfig>(a);
    unsigned replicas = a.u32("replicas");
    unsigned jobs = a.u32("jobs");

    // The batch driver: R independent replica systems run across
    // the worker pool, stats merged in replica order — bit-identical
    // output for every --jobs value. One replica with the base seed
    // is exactly the legacy single-system run.
    MultiChipBatch batch(cfg, benchmarkProfile(a.benchmark), replicas);
    MultiChipBatchResult res =
        batch.run(a.u64("ops"), jobs == 0 ? hardwareJobs() : jobs);
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
    auto cfg = nodeCfg<NumaConfig>(a);
    NumaSystem sys(cfg, benchmarkProfile(a.benchmark));
    sys.run(a.u64("ops"));
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

/** Writes the body of the cable-chaos-v1 report document. */
void
writeChaosReport(JsonWriter &jw, const Args &a, const ChaosConfig &cfg,
                 const ChaosReport &r)
{
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
}

int
cmdChaos(const Args &a)
{
    MemSystemConfig mem = memCfg(a);
    if (mem.scheme != "cable")
        fail("chaos requires --scheme cable; scheme '%s' has no "
             "checkpoint/resync machinery",
             mem.scheme.c_str());

    ChaosConfig cfg;
    cfg.mem = mem;
    cfg.benchmark = a.benchmark;
    cfg.ops = a.u64("ops");
    cfg.seed = mem.seed;
    cfg.crashes = a.u32("crashes");
    cfg.corrupt_prob = a.real("corrupt-prob");
    cfg.ckpt_dir = a.str("ckpt-dir");
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

    ChaosReport r = runChaos(cfg);
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
    std::string out = a.str("chaos-out");
    if (!out.empty())
        writeJson(out, "chaos-out", "cable-chaos-v1",
                  [&](JsonWriter &jw) { writeChaosReport(jw, a, cfg, r); });
    return r.ok ? 0 : 1;
}

/** The commands, in Cmd bit order. */
const struct
{
    const char *name;
    int (*run)(const Args &);
} kCommands[] = {{"list", cmdList},           {"ratio", cmdRatio},
                 {"throughput", cmdThroughput}, {"coherence", cmdCoherence},
                 {"numa", cmdNuma},           {"chaos", cmdChaos}};

/**
 * Prints the synopsis and the options of command @p cmd, or of every
 * command (each row naming its commands) when @p cmd is 0, to
 * stderr; returns the usage-error exit code.
 */
int
usage(unsigned cmd)
{
    std::fprintf(
        stderr,
        "usage: cable_sim <list|ratio|throughput|coherence|numa"
        "|chaos> [benchmark] [--flag value ...]\n"
        "run 'cable_sim list' for benchmarks and schemes.\n\n");
    if (cmd)
        std::fprintf(stderr, "%s options:\n",
                     kCommands[std::countr_zero(cmd)].name);
    else
        std::fprintf(stderr, "options [commands that read them]:\n");
    static const char *const kPlaceholder[] = {"",  "N", "N", "F",
                                               "P", "S", "NAME"};
    for (const Flag &f : kFlags) {
        if (cmd && !(f.cmds & cmd))
            continue;
        std::string text = f.help;
        if (f.choices)
            text += ": " + joined(f.choices(), "");
        else if (f.kind != Kind::Switch && f.kind != Kind::Str
                 && (f.lo > 0 || f.hi != kNoMax))
            text += ", " + rangeText(f);
        if (f.dflt)
            text += std::string(" (default ") + f.dflt + ")";
        if (!cmd) {
            std::set<std::string> readers;
            for (unsigned i = 0; i < std::size(kCommands); ++i)
                if (f.cmds & (1u << i))
                    readers.insert(kCommands[i].name);
            text += " [" + joined(readers, "") + "]";
        }
        std::string flag = f.name;
        if (f.kind != Kind::Switch)
            flag += std::string(" ") + kPlaceholder[static_cast<int>(f.kind)];
        std::fprintf(stderr, "  --%-19s %s\n", flag.c_str(),
                     text.c_str());
    }
    return 2;
}

/**
 * Reads the command, the benchmark and every flag, checking each flag
 * against kFlags as it goes: unknown, not read by the command,
 * repeated, a switch given a value, a value missing or invalid.
 */
Args
parse(int argc, char **argv)
{
    Args a;
    if (argc < 2)
        std::exit(usage(0));
    a.command = argv[1];
    for (unsigned i = 0; i < std::size(kCommands); ++i)
        if (a.command == kCommands[i].name)
            a.cmd = 1u << i;
    if (!a.cmd) {
        std::fprintf(stderr, "cable_sim: error: unknown command '%s'\n",
                     a.command.c_str());
        std::exit(usage(0));
    }
    int i = 2;
    if (i < argc && argv[i][0] != '-')
        a.benchmark = argv[i++];
    for (; i < argc; ++i) {
        const char *arg = argv[i];
        if (arg[0] != '-' || arg[1] != '-')
            fail("unexpected argument '%s' (options start with --)",
                 arg);
        std::string name(arg + 2);
        const Flag *f = findFlag(name, a.cmd);
        if (!f) {
            std::set<std::string> accepted;
            for (const Flag &g : kFlags)
                if (g.cmds & a.cmd)
                    accepted.insert(g.name);
            fail("unknown option '--%s' for command '%s'; it accepts: %s",
                 name.c_str(), a.command.c_str(),
                 joined(accepted, "--").c_str());
        }
        if (a.given.count(name))
            fail("--%s is given twice", name.c_str());
        const char *next = i + 1 < argc ? argv[i + 1] : nullptr;
        if (f->kind == Kind::Switch) {
            if (next && (next[0] != '-' || next[1] != '-'))
                fail("--%s is a switch and takes no value, got '%s'",
                     name.c_str(), next);
            a.given[name] = "1";
            continue;
        }
        // The next token is this flag's value unless it looks like
        // another option. A '-' then a digit is a (negative) number,
        // so '--live-stats -3' gets the range message rather than a
        // misleading "expects a value".
        if (!next
            || (next[0] == '-' && !(next[1] >= '0' && next[1] <= '9')))
            fail("--%s expects a value (e.g. '--%s <value>')",
                 name.c_str(), name.c_str());
        checkValue(*f, next);
        a.given[name] = argv[++i];
    }
    return a;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parse(argc, argv);
    if (a.has("log-level"))
        setLogLevel(*parseLogLevel(a.str("log-level")));
    if (a.cmd != kList) {
        if (a.benchmark.empty()) {
            std::fprintf(stderr,
                         "cable_sim: error: command '%s' needs a "
                         "benchmark, e.g. 'cable_sim %s mcf' (run "
                         "'cable_sim list' to see them)\n",
                         a.command.c_str(), a.command.c_str());
            return usage(a.cmd);
        }
        if (!nameSet(spec2006Benchmarks()).count(a.benchmark))
            fail("unknown benchmark '%s' (run 'cable_sim list' to see them)",
                 a.benchmark.c_str());
    }
    try {
        return kCommands[std::countr_zero(a.cmd)].run(a);
    } catch (const CableDesyncError &e) {
        // Only reachable under --strict-desync.
        std::fprintf(stderr, "cable_sim: strict desync: %s\n", e.what());
        return 3;
    } catch (const CableTimeoutError &e) {
        // Only reachable with a finite --arq-watchdog budget.
        std::fprintf(stderr, "cable_sim: ARQ watchdog: %s\n", e.what());
        return 3;
    } catch (const CableCheckpointError &e) {
        // The chaos harness rejects corrupt images internally; only
        // real file-system trouble (unwritable --ckpt-dir, disk full)
        // reaches this handler.
        std::fprintf(stderr, "cable_sim: checkpoint I/O: %s\n",
                     e.what());
        return 2;
    }
}
