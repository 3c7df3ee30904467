/**
 * @file
 * cable_probe: the benchmark's traced-run driver. It takes the same
 * command line as the cable_sim invocation of one benchmark workload,
 * builds the same system through the simulator's public API, and
 * measures it from outside:
 *
 *   cable_probe ratio <benchmark> [flags]
 *   cable_probe coherence <benchmark> [flags]
 *   cable_probe throughput <benchmark> [flags]
 *
 * 1. An untraced run through the simulator's own run() call.
 * 2. A traced run: every simulated memory op is timed on its own and
 *    classified by what crossed the link during it, as seen by a
 *    TraceSink on every channel (nothing; one refs, self or raw
 *    transfer; or several transfers, such as a dirty-victim
 *    write-back plus the response).
 * 3. The untraced run again with the per-transfer telemetry hooks
 *    toggled (sketches, span sampling, sampled stage timers and the
 *    critical-path analyzer, as `cable_sim --metrics-out` enables
 *    them), giving the hooks' cost on this workload.
 * 4. Public kernels timed on 4096 lines of the workload's own data.
 *
 * All three runs must produce bit-identical simulated results; the
 * probe exits 1 otherwise. It prints one JSON object: the simulated
 * results formatted as cable_sim prints them (the benchmark compares
 * them with the real CLI's output) and the per-layer metrics.
 * Invalid arguments exit 2.
 */

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/crc.h"
#include "compress/compressor.h"
#include "core/channel.h"
#include "core/signature.h"
#include "sim/memlink.h"
#include "sim/multichip.h"
#include "sim/throughput.h"
#include "telemetry/critpath.h"
#include "telemetry/timing.h"
#include "telemetry/trace.h"
#include "workload/access_gen.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

using Clock = std::chrono::steady_clock;

std::uint64_t
nowNs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            Clock::now().time_since_epoch())
            .count());
}

[[noreturn]] void
fail(int code, const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::fprintf(stderr, "cable_probe: error: ");
    std::vfprintf(stderr, fmt, ap);
    std::fprintf(stderr, "\n");
    va_end(ap);
    std::exit(code);
}

/** The cable_sim flags the benchmark workloads use. */
const std::set<std::string> kValueFlags = {
    "ops",          "seed",        "fault-rate",     "burst-rate",
    "drop-sync-rate", "meta-rate", "fault-seed",     "warmup",
    "replicas",     "jobs",        "metrics-out",    "critpath-out",
    "stats-interval", "phase-out",
};
const std::set<std::string> kBoolFlags = {"stats"};

struct Args
{
    std::string command;
    std::string benchmark;
    std::map<std::string, std::string> flags;

    bool has(const std::string &k) const { return flags.count(k) > 0; }

    std::uint64_t
    num(const std::string &k, std::uint64_t dflt) const
    {
        auto it = flags.find(k);
        if (it == flags.end())
            return dflt;
        const std::string &s = it->second;
        if (s.empty() || s.find_first_not_of("0123456789") != s.npos)
            fail(2, "--%s expects a non-negative integer, got '%s'",
                 k.c_str(), s.c_str());
        return std::strtoull(s.c_str(), nullptr, 10);
    }

    double
    real(const std::string &k) const
    {
        auto it = flags.find(k);
        if (it == flags.end())
            return 0.0;
        char *end = nullptr;
        double v = std::strtod(it->second.c_str(), &end);
        if (it->second.empty() || *end != '\0' || v < 0.0 || v > 1.0)
            fail(2, "--%s expects a probability, got '%s'", k.c_str(),
                 it->second.c_str());
        return v;
    }
};

Args
parse(int argc, char **argv)
{
    if (argc < 3)
        fail(2, "usage: cable_probe <ratio|coherence|throughput> "
                "<benchmark> [cable_sim flags]");
    Args a;
    a.command = argv[1];
    a.benchmark = argv[2];
    bool known = false;
    for (const auto &name : spec2006Benchmarks())
        known = known || name == a.benchmark;
    if (!known)
        fail(2, "unknown benchmark '%s'", a.benchmark.c_str());
    for (int i = 3; i < argc; ++i) {
        std::string arg = argv[i];
        if (arg.rfind("--", 0) != 0)
            fail(2, "unexpected argument '%s'", arg.c_str());
        std::string flag = arg.substr(2);
        if (kBoolFlags.count(flag)) {
            a.flags[flag] = "1";
        } else if (kValueFlags.count(flag) && i + 1 < argc) {
            a.flags[flag] = argv[++i];
        } else {
            fail(2, "unsupported option '%s'", arg.c_str());
        }
    }
    return a;
}

/** What crossed the link during one simulated memory op. */
enum OpClass : std::uint8_t
{
    kNoLink,
    kRefs,
    kSelf,
    kRaw,
    kMulti,
    kClassCount
};

const char *const kClassMetric[kClassCount] = {
    "cache.nolink", "core.refs", "core.self", "core.raw", "core.multi",
};

/**
 * Counts the Encode events of the op in flight and remembers the last
 * one's mode; every event is forwarded to @p next (the telemetry
 * analyzer) when one is given.
 */
class ClassifySink : public TraceSink
{
  public:
    explicit ClassifySink(TraceSink *next) : next_(next) {}

    void
    emit(const TraceEvent &ev) override
    {
        if (next_)
            next_->emit(ev);
        if (ev.type != TraceEvent::Type::Encode)
            return;
        ++op_encodes_;
        ++encodes_;
        last_mode_ = ev.mode;
        if (std::strcmp(ev.mode, "refs") == 0)
            ++refs_;
        else if (std::strcmp(ev.mode, "raw") == 0)
            ++raws_;
    }

    void beginOp() { op_encodes_ = 0; }

    OpClass
    endOp() const
    {
        if (op_encodes_ == 0)
            return kNoLink;
        if (op_encodes_ > 1)
            return kMulti;
        if (std::strcmp(last_mode_, "refs") == 0)
            return kRefs;
        return std::strcmp(last_mode_, "self") == 0 ? kSelf : kRaw;
    }

    std::uint64_t encodes() const { return encodes_; }
    std::uint64_t refsEncodes() const { return refs_; }
    std::uint64_t rawEncodes() const { return raws_; }

  private:
    TraceSink *next_;
    unsigned op_encodes_ = 0;
    const char *last_mode_ = "";
    std::uint64_t encodes_ = 0;
    std::uint64_t refs_ = 0;
    std::uint64_t raws_ = 0;
};

/** Feeds the critical-path analyzer, as cable_sim's telemetry does. */
class AnalyzerSink : public TraceSink
{
  public:
    void emit(const TraceEvent &ev) override { analyzer_.addEvent(ev); }

  private:
    CritPathAnalyzer analyzer_;
};

/** Simulated outputs the three runs must agree on. */
struct Results
{
    double bit_ratio = 0.0;
    double effective_ratio = 0.0;
    double goodput_ratio = 0.0;
    double aggregate_ipc = 0.0;
    double group_bandwidth = 0.0;
    StatSet stats; // merged over every channel

    bool
    operator==(const Results &o) const
    {
        return bit_ratio == o.bit_ratio
               && effective_ratio == o.effective_ratio
               && goodput_ratio == o.goodput_ratio
               && aggregate_ipc == o.aggregate_ipc
               && group_bandwidth == o.group_bandwidth
               && stats.counters() == o.stats.counters();
    }
};

/**
 * One workload instance. next() picks the following simulated op
 * (false once the workload is complete) and step() executes it, so
 * the traced loop times step() alone.
 */
class Subject
{
  public:
    virtual ~Subject() = default;
    virtual bool next() = 0;
    virtual void step() = 0;
    /** The whole workload through the simulator's own run() call. */
    virtual void runAll() = 0;
    virtual std::vector<LinkProtocol *> links() = 0;
    virtual Results results() = 0;

    /** Merged stats of every channel. */
    StatSet
    mergedStats()
    {
        StatSet s;
        for (LinkProtocol *l : links())
            s.merge(l->stats());
        return s;
    }
};

/** The cable_sim defaults memCfg() applies to unset flags. */
MemSystemConfig
memConfig(const Args &a)
{
    MemSystemConfig cfg;
    cfg.seed = a.num("seed", 1);
    cfg.timing = false;
    cfg.fault.bit_error_rate = a.real("fault-rate");
    cfg.fault.burst_rate = a.real("burst-rate");
    cfg.fault.drop_sync_rate = a.real("drop-sync-rate");
    cfg.fault.meta_corrupt_rate = a.real("meta-rate");
    cfg.fault.seed = a.num("fault-seed", cfg.fault.seed);
    return cfg;
}

class RatioSubject : public Subject
{
  public:
    explicit RatioSubject(const Args &a)
        : ops_(a.num("ops", 400000)),
          sys_(memConfig(a), {benchmarkProfile(a.benchmark)})
    {
    }

    bool next() override { return !sys_.allThreadsReached(ops_); }
    void step() override { sys_.stepOnce(); }
    void runAll() override { sys_.run(ops_); }

    std::vector<LinkProtocol *>
    links() override
    {
        return {&sys_.protocol()};
    }

    Results
    results() override
    {
        sys_.finishEnergyAccounting();
        Results r;
        r.bit_ratio = sys_.bitRatio();
        r.effective_ratio = sys_.effectiveRatio();
        r.goodput_ratio = sys_.goodputRatio();
        r.stats = mergedStats();
        return r;
    }

  private:
    std::uint64_t ops_;
    MemLinkSystem sys_;
};

MultiChipConfig
coherenceConfig(const Args &a)
{
    if (a.num("replicas", 1) != 1 || a.num("jobs", 1) != 1)
        fail(2, "coherence is probed as one replica on one job");
    MultiChipConfig cfg;
    cfg.seed = a.num("seed", 1);
    cfg.cable.home_ht_factor = 0.25;
    cfg.cable.remote_ht_factor = 0.25;
    return cfg;
}

class CoherenceSubject : public Subject
{
  public:
    explicit CoherenceSubject(const Args &a)
        : ops_(a.num("ops", 400000)), cfg_(coherenceConfig(a)),
          sys_(cfg_, benchmarkProfile(a.benchmark))
    {
    }

    bool next() override { return done_ < ops_; }

    void
    step() override
    {
        sys_.run(1);
        ++done_;
    }

    void runAll() override { sys_.run(ops_); }

    std::vector<LinkProtocol *>
    links() override
    {
        std::vector<LinkProtocol *> v;
        for (unsigned k = 1; k < cfg_.nodes; ++k)
            v.push_back(&sys_.channel(k));
        return v;
    }

    Results
    results() override
    {
        Results r;
        r.bit_ratio = sys_.bitRatio();
        r.effective_ratio = sys_.effectiveRatio();
        r.stats = mergedStats();
        return r;
    }

  private:
    std::uint64_t ops_;
    std::uint64_t done_ = 0;
    MultiChipConfig cfg_;
    MultiChipSystem sys_;
};

class ThroughputSubject : public Subject
{
  public:
    /** cable_sim throughput's --threads and --group defaults, which
     *  the benchmark workload uses. */
    static constexpr unsigned kThreads = 2048;
    static constexpr unsigned kGroup = 8;

    explicit ThroughputSubject(const Args &a)
        : ops_(a.num("ops", 3000)), warmup_(a.num("warmup", 4 * ops_)),
          sim_(throughputConfig(a), benchmarkProfile(a.benchmark),
               kThreads, kGroup)
    {
    }

    /** ThroughputSim::runUntil's schedule: the system whose pending
     *  thread is earliest goes next. */
    bool
    next() override
    {
        while (true) {
            next_ = nullptr;
            Cycles best = ~Cycles{0};
            for (unsigned i = 0; i < sim_.groupSize(); ++i) {
                MemLinkSystem &sys = sim_.system(i);
                if (sys.allThreadsReached(target_))
                    continue;
                Cycles t = sys.nextEventTime();
                if (t < best) {
                    best = t;
                    next_ = &sys;
                }
            }
            if (next_)
                return true;
            if (measuring_)
                return false;
            for (unsigned i = 0; i < sim_.groupSize(); ++i)
                sim_.system(i).beginMeasurement();
            measuring_ = true;
            target_ = ops_;
        }
    }

    void step() override { next_->stepOnce(); }
    void runAll() override { sim_.run(ops_, warmup_); }

    std::vector<LinkProtocol *>
    links() override
    {
        std::vector<LinkProtocol *> v;
        for (unsigned i = 0; i < sim_.groupSize(); ++i)
            v.push_back(&sim_.system(i).protocol());
        return v;
    }

    Results
    results() override
    {
        Results r;
        r.aggregate_ipc = sim_.aggregateIPC();
        r.group_bandwidth = sim_.groupBandwidthGBs();
        r.stats = mergedStats();
        r.bit_ratio = r.stats.ratio("raw_bits", "wire_bits");
        return r;
    }

  private:
    static MemSystemConfig
    throughputConfig(const Args &a)
    {
        MemSystemConfig cfg = memConfig(a);
        cfg.timing = true;
        return cfg;
    }

    std::uint64_t ops_;
    std::uint64_t warmup_;
    ThroughputSim sim_;
    /** Without a warm-up, the whole run is the measured window. */
    bool measuring_ = warmup_ == 0;
    std::uint64_t target_ = measuring_ ? ops_ : warmup_;
    MemLinkSystem *next_ = nullptr;
};

std::unique_ptr<Subject>
makeSubject(const Args &a)
{
    if (a.command == "ratio")
        return std::make_unique<RatioSubject>(a);
    if (a.command == "coherence")
        return std::make_unique<CoherenceSubject>(a);
    if (a.command == "throughput")
        return std::make_unique<ThroughputSubject>(a);
    fail(2, "unsupported command '%s'", a.command.c_str());
}

/**
 * The per-transfer telemetry hooks `cable_sim --metrics-out` turns on:
 * quantile sketches, 1-in-64 stage spans feeding the critical-path
 * analyzer, and 1-in-64 sampled stage timers.
 */
void
attachTelemetry(Subject &s, TraceSink *sink)
{
    for (LinkProtocol *l : s.links()) {
        l->setTraceSink(sink);
        l->setSpanSampling(64);
        if (CableChannel *ch = l->cableChannel())
            ch->setSketchesEnabled(true);
    }
    setTimingSamplePeriod(64);
}

/** Untraced run; returns wall nanoseconds of run() alone. */
std::uint64_t
timeUntraced(const Args &a, bool telemetry, Results &out)
{
    AnalyzerSink analyzer; // outlives the subject that points at it
    std::unique_ptr<Subject> s = makeSubject(a);
    if (telemetry)
        attachTelemetry(*s, &analyzer);
    std::uint64_t t0 = nowNs();
    s->runAll();
    std::uint64_t wall = nowNs() - t0;
    setTimingSamplePeriod(0);
    out = s->results();
    return wall;
}

/**
 * Records @p prefix's sample count, and each percentile that has at
 * least ten samples beyond it: p50 from 20 samples, p99 from 1000. A
 * percentile with fewer is left out, so it reads as not measured
 * rather than as a number.
 */
void
recordPercentiles(std::map<std::string, double> &m, const std::string &prefix,
                  std::vector<std::uint32_t> &v)
{
    m[prefix + "_ops"] = static_cast<double>(v.size());
    for (double p : {0.50, 0.99}) {
        if (static_cast<double>(v.size()) * (1.0 - p) < 10.0)
            continue;
        auto k =
            static_cast<std::size_t>(p * static_cast<double>(v.size() - 1));
        std::nth_element(v.begin(), v.begin() + static_cast<long>(k),
                         v.end());
        m[prefix + "_ns.p" + std::to_string(static_cast<int>(p * 100))] =
            static_cast<double>(v[k]);
    }
}

double
frac(std::uint64_t num, std::uint64_t den)
{
    return den ? static_cast<double>(num) / static_cast<double>(den)
               : 0.0;
}

/** Median over @p passes of fn()'s ns per item (fn handles @p items). */
template <typename Fn>
double
medianNsPerItem(unsigned passes, std::size_t items, Fn &&fn)
{
    std::vector<double> per;
    for (unsigned p = 0; p < passes; ++p) {
        std::uint64_t t0 = nowNs();
        fn();
        per.push_back(static_cast<double>(nowNs() - t0)
                      / static_cast<double>(items));
    }
    std::sort(per.begin(), per.end());
    return per[per.size() / 2];
}

/** Public kernels timed on lines of the workload's own data. */
void
timeKernels(const Args &a, std::map<std::string, double> &m,
            std::uint64_t &checksum)
{
    constexpr std::size_t kLines = 4096;
    constexpr unsigned kPasses = 9;
    const WorkloadProfile &prof = benchmarkProfile(a.benchmark);
    const Addr base = Addr{1} << kThreadBaseShift;
    const std::uint64_t seed = a.num("seed", 1);

    AccessGen gen(prof.access, base, seed);
    SyntheticMemory mem(prof.value, base, seed);
    m["workload.next_ns"] = medianNsPerItem(kPasses, kLines, [&] {
        for (std::size_t i = 0; i < kLines; ++i)
            checksum += mem.lineAt(gen.next().addr).word(0);
    });

    std::vector<CacheLine> lines;
    for (std::size_t i = 0; i < kLines; ++i)
        lines.push_back(mem.lineAt(gen.next().addr));
    // Reference sets: the three preceding lines of the access stream.
    std::vector<RefList> refs(kLines);
    for (std::size_t i = 0; i < kLines; ++i)
        for (std::size_t k = 1; k <= 3; ++k)
            refs[i].push_back(&lines[(i + kLines - k) % kLines]);

    CompressorPtr lbe = makeDelegateEngine("lbe");
    std::vector<BitVec> self_bits(kLines);
    std::vector<BitVec> ref_bits(kLines);
    const RefList none;
    m["compress.lbe.self_ns"] = medianNsPerItem(kPasses, kLines, [&] {
        for (std::size_t i = 0; i < kLines; ++i)
            self_bits[i] = lbe->compress(lines[i], none);
    });
    m["compress.lbe.refs_ns"] = medianNsPerItem(kPasses, kLines, [&] {
        for (std::size_t i = 0; i < kLines; ++i)
            ref_bits[i] = lbe->compress(lines[i], refs[i]);
    });
    std::vector<CacheLine> decoded(kLines);
    m["compress.lbe.decompress_ns"] =
        medianNsPerItem(kPasses, kLines, [&] {
            for (std::size_t i = 0; i < kLines; ++i)
                decoded[i] = lbe->decompress(ref_bits[i], refs[i]);
        });
    for (std::size_t i = 0; i < kLines; ++i)
        if (!(decoded[i] == lines[i]))
            fail(1, "LBE round trip failed on kernel line %zu", i);

    SignatureConfig sig;
    SigList sl;
    m["core.sig_extract_ns"] = medianNsPerItem(kPasses, kLines, [&] {
        for (const CacheLine &l : lines) {
            extractSearchSignaturesInto(l, sig, sl);
            checksum += sl.size();
        }
    });
    m["common.crc16_frame_ns"] = medianNsPerItem(kPasses, kLines, [&] {
        for (const BitVec &b : self_bits)
            checksum += crc16Bits(b, 0, b.sizeBits());
    });
}

/** cable_sim's printf formats, so the benchmark compares strings. */
std::string
printed(const char *fmt, double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), fmt, v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Args a = parse(argc, argv);
    const bool telemetry = a.has("metrics-out");

    Results untraced;
    std::uint64_t untraced_ns = timeUntraced(a, telemetry, untraced);

    // Traced run: one duration and one class per simulated op.
    AnalyzerSink analyzer;
    ClassifySink sink(telemetry ? &analyzer : nullptr);
    std::unique_ptr<Subject> s = makeSubject(a);
    if (telemetry)
        attachTelemetry(*s, &sink);
    else
        for (LinkProtocol *l : s->links())
            l->setTraceSink(&sink);
    std::vector<std::uint32_t> op_ns;
    std::vector<std::uint8_t> op_class;
    std::uint64_t wall0 = nowNs();
    while (s->next()) {
        sink.beginOp();
        std::uint64_t t0 = nowNs();
        s->step();
        std::uint64_t t1 = nowNs();
        op_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::uint64_t>(t1 - t0, UINT32_MAX)));
        op_class.push_back(sink.endOp());
    }
    std::uint64_t traced_ns = nowNs() - wall0;
    setTimingSamplePeriod(0);
    Results traced = s->results();

    Results toggled;
    std::uint64_t toggled_ns = timeUntraced(a, !telemetry, toggled);

    if (!(traced == untraced) || !(toggled == untraced))
        fail(1, "traced, untraced and telemetry-toggled runs disagree "
                "(bit ratio %.9g / %.9g / %.9g)",
             traced.bit_ratio, untraced.bit_ratio, toggled.bit_ratio);
    const StatSet &st = traced.stats;
    const std::uint64_t transfers = st.get("transfers");
    if (sink.encodes() != transfers)
        fail(1, "trace saw %llu transfers, stats count %llu",
             static_cast<unsigned long long>(sink.encodes()),
             static_cast<unsigned long long>(transfers));

    std::map<std::string, double> m;
    std::array<std::vector<std::uint32_t>, kClassCount> by_class;
    std::array<std::uint64_t, kClassCount> class_ns{};
    for (std::size_t i = 0; i < op_ns.size(); ++i) {
        by_class[op_class[i]].push_back(op_ns[i]);
        class_ns[op_class[i]] += op_ns[i];
    }
    double attributed = 0.0;
    for (unsigned c = 0; c < kClassCount; ++c) {
        std::string name = kClassMetric[c];
        double share = frac(class_ns[c], traced_ns);
        attributed += share;
        m[name + "_share"] = share;
        recordPercentiles(m, name + "_op", by_class[c]);
    }
    m["unattributed_share"] = 1.0 - attributed;
    recordPercentiles(m, "sim.op", op_ns);
    m["trace_overhead_pct"] =
        100.0 * (static_cast<double>(traced_ns)
                 - static_cast<double>(untraced_ns))
        / static_cast<double>(untraced_ns);
    const std::uint64_t off_ns = telemetry ? toggled_ns : untraced_ns;
    const std::uint64_t on_ns = telemetry ? untraced_ns : toggled_ns;
    m["telemetry.overhead_pct"] =
        100.0 * (static_cast<double>(on_ns) - static_cast<double>(off_ns))
        / static_cast<double>(off_ns);

    const std::uint64_t searches =
        st.get("searches") + st.get("wb_searches");
    m["core.search_frac"] = frac(searches, transfers);
    m["core.search_hit_frac"] = frac(sink.refsEncodes(), searches);
    m["core.self_skip_frac"] = frac(st.get("self_threshold_hits"),
                                    transfers);
    m["core.raw_frac"] = frac(sink.rawEncodes(), transfers);
    m["core.wb_frac"] = frac(st.get("wb_transfers"), transfers);
    m["core.retransmit_frac"] = frac(st.get("retransmits"), transfers);
    m["core.desync_recoveries"] =
        static_cast<double>(st.get("desync_recoveries"));

    std::uint64_t checksum = 0;
    timeKernels(a, m, checksum);

    JsonWriter jw(std::cout);
    jw.beginObject();
    jw.field("ops", static_cast<std::uint64_t>(op_ns.size()));
    jw.field("transfers", transfers);
    jw.field("bit_ratio", printed("%.3f", traced.bit_ratio));
    jw.field("effective_ratio", printed("%.3f", traced.effective_ratio));
    jw.field("goodput_ratio", printed("%.3f", traced.goodput_ratio));
    jw.field("aggregate_ipc", printed("%.4f", traced.aggregate_ipc));
    jw.field("group_bandwidth", printed("%.3f", traced.group_bandwidth));
    jw.field("traced_s", static_cast<double>(traced_ns) * 1e-9);
    jw.field("untraced_s", static_cast<double>(untraced_ns) * 1e-9);
    jw.field("kernel_checksum", checksum);
    jw.key("metrics");
    jw.beginObject();
    for (const auto &[name, value] : m)
        jw.field(name, value);
    jw.endObject();
    jw.endObject();
    std::cout << "\n";
    return 0;
}
