/**
 * @file
 * Critical-path profiler tests: hand-computed critical paths and
 * slack over synthetic span DAGs (linear chain, forked search
 * branch, ARQ-retransmit stall, resync epoch), binding-stage
 * tie-breaks, malformed-edge tolerance, SpanRecorder sampling /
 * drain / overhead self-report, exact reconciliation between span
 * durations and the t_stage_*_ns histograms, span topology
 * determinism on a live channel, the literal (stage, dep, aux)
 * topology of every encode outcome, and the allocation-guard
 * contract of span-carrying trace emission.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/alloc_guard.h"
#include "common/json.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/channel.h"
#include "telemetry/critpath.h"
#include "telemetry/spans.h"
#include "telemetry/trace.h"
#include "workload/profile.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

/** Builds an Encode event carrying the given spans. */
TraceEvent
spanEvent(std::initializer_list<StageSpan> spans)
{
    TraceEvent ev;
    ev.type = TraceEvent::Type::Encode;
    unsigned i = 0;
    for (const StageSpan &s : spans)
        ev.spans[i++] = s;
    ev.nspans = static_cast<std::uint8_t>(i);
    return ev;
}

StageSpan
span(Stage stage, int dep, std::uint64_t begin, std::uint64_t end,
     std::uint16_t aux = 0)
{
    StageSpan s;
    s.stage = stage;
    s.dep = static_cast<std::int8_t>(dep);
    s.aux = aux;
    s.begin_ns = begin;
    s.end_ns = end;
    return s;
}

// ---------------------------------------------------------------------
// CritPathAnalyzer: hand-computed DAGs
// ---------------------------------------------------------------------

TEST(CritPath, LinearChainIsAllCritical)
{
    // line(10) -> serialize(20) -> frame(5) -> ack(5): one chain, so
    // the critical path is the whole transfer and nothing has slack.
    CritPathAnalyzer a;
    a.addEvent(spanEvent({
        span(Stage::Line, -1, 0, 10),
        span(Stage::Serialize, 0, 10, 30),
        span(Stage::Frame, 1, 30, 35),
        span(Stage::Ack, 2, 35, 40),
    }));
    EXPECT_EQ(a.events(), 1u);
    EXPECT_EQ(a.spannedEvents(), 1u);
    EXPECT_EQ(a.spanCount(), 4u);
    EXPECT_EQ(a.criticalNsTotal(), 40u);
    EXPECT_EQ(a.totalNs(), 40u);
    EXPECT_EQ(a.stage(Stage::Serialize).critical_ns, 20u);
    EXPECT_EQ(a.stage(Stage::Line).slack_ns, 0u);
    EXPECT_EQ(a.stage(Stage::Frame).slack_ns, 0u);
    EXPECT_EQ(a.bindingStage(), Stage::Serialize);
    EXPECT_DOUBLE_EQ(a.bindingShare(), 0.5);
}

TEST(CritPath, ForkedSearchBranchCarriesSlack)
{
    // The §III-E shape: line forks into a long self-compression
    // serialize (30) and a short signature(5)->probe(5)->score(5)
    // search branch. Critical path = line + self-serialize = 40;
    // every search span's longest through-path is 10+5+5+5 = 25, so
    // each carries slack 15.
    CritPathAnalyzer a;
    a.addEvent(spanEvent({
        span(Stage::Line, -1, 0, 10),
        span(Stage::Serialize, 0, 10, 40),
        span(Stage::Signature, 0, 10, 15),
        span(Stage::Probe, 2, 15, 20),
        span(Stage::Score, 3, 20, 25),
    }));
    EXPECT_EQ(a.criticalNsTotal(), 40u);
    EXPECT_EQ(a.totalNs(), 55u);
    EXPECT_EQ(a.stage(Stage::Line).critical_ns, 10u);
    EXPECT_EQ(a.stage(Stage::Serialize).critical_ns, 30u);
    EXPECT_EQ(a.stage(Stage::Signature).critical_ns, 0u);
    EXPECT_EQ(a.stage(Stage::Signature).slack_ns, 15u);
    EXPECT_EQ(a.stage(Stage::Probe).slack_ns, 15u);
    EXPECT_EQ(a.stage(Stage::Score).slack_ns, 15u);
    EXPECT_EQ(a.bindingStage(), Stage::Serialize);
    EXPECT_DOUBLE_EQ(a.bindingShare(), 0.75);
}

TEST(CritPath, RetransmitStallDominatesCriticalPath)
{
    // ARQ retry: the NACKed first frame is followed by a 50 ns
    // retransmit stall; the whole chain is critical and retransmit
    // is the binding stage.
    CritPathAnalyzer a;
    a.addEvent(spanEvent({
        span(Stage::Line, -1, 0, 5),
        span(Stage::Serialize, 0, 5, 15),
        span(Stage::Frame, 1, 15, 20),
        span(Stage::Frame, 2, 20, 25),
        span(Stage::Retransmit, 3, 25, 75, /*attempt=*/1),
        span(Stage::Link, 4, 75, 85),
        span(Stage::Ack, 5, 85, 90),
    }));
    EXPECT_EQ(a.criticalNsTotal(), 90u);
    EXPECT_EQ(a.stage(Stage::Retransmit).critical_ns, 50u);
    EXPECT_EQ(a.stage(Stage::Frame).critical_ns, 10u);
    EXPECT_EQ(a.bindingStage(), Stage::Retransmit);
    EXPECT_NEAR(a.bindingShare(), 50.0 / 90.0, 1e-12);
}

TEST(CritPath, ResyncEpochRidesControlEvent)
{
    // Resync work arrives as its own control event with one span;
    // mixed with a small encode it must still dominate attribution.
    CritPathAnalyzer a;
    a.addEvent(spanEvent({span(Stage::Line, -1, 0, 10)}));
    TraceEvent resync;
    resync.type = TraceEvent::Type::Resync;
    resync.nspans = 1;
    resync.spans[0] = span(Stage::Resync, -1, 100, 300, /*rounds=*/2);
    a.addEvent(resync);
    EXPECT_EQ(a.events(), 2u);
    EXPECT_EQ(a.spannedEvents(), 2u);
    EXPECT_EQ(a.criticalNsTotal(), 210u);
    EXPECT_EQ(a.stage(Stage::Resync).critical_ns, 200u);
    EXPECT_EQ(a.bindingStage(), Stage::Resync);
}

TEST(CritPath, BindingTieBreaksTowardEarlierStage)
{
    CritPathAnalyzer a;
    a.addEvent(spanEvent({span(Stage::Probe, -1, 0, 10)}));
    a.addEvent(spanEvent({span(Stage::Signature, -1, 0, 10)}));
    // Equal critical contributions: the earlier pipeline stage wins.
    EXPECT_EQ(a.stage(Stage::Probe).critical_ns, 10u);
    EXPECT_EQ(a.stage(Stage::Signature).critical_ns, 10u);
    EXPECT_EQ(a.bindingStage(), Stage::Signature);
}

TEST(CritPath, MalformedForwardDepDegradesToRoot)
{
    // A self edge (dep == index) and a forward edge (dep > index)
    // must be treated as roots, not followed.
    CritPathAnalyzer a;
    a.addEvent(spanEvent({
        span(Stage::Line, 0, 0, 10),      // self edge
        span(Stage::Serialize, 5, 0, 30), // forward edge
    }));
    EXPECT_EQ(a.criticalNsTotal(), 30u);
    EXPECT_EQ(a.stage(Stage::Serialize).critical_ns, 30u);
    EXPECT_EQ(a.stage(Stage::Line).slack_ns, 20u);
}

TEST(CritPath, SpanlessEventsOnlyCount)
{
    CritPathAnalyzer a;
    TraceEvent ev;
    ev.type = TraceEvent::Type::Encode;
    a.addEvent(ev);
    a.addEvent(ev);
    EXPECT_EQ(a.events(), 2u);
    EXPECT_EQ(a.spannedEvents(), 0u);
    EXPECT_EQ(a.spanCount(), 0u);
    EXPECT_EQ(a.criticalNsTotal(), 0u);
}

TEST(CritPath, ReportJsonIsWellFormed)
{
    CritPathAnalyzer a;
    a.addEvent(spanEvent({
        span(Stage::Line, -1, 0, 10),
        span(Stage::Serialize, 0, 10, 30),
    }));
    CritPathOverhead oh;
    oh.sampled_transfers = 1;
    oh.clock_reads = 4;
    oh.clock_cost_ns = 20;
    oh.estimated_ns = 80;
    std::ostringstream os;
    JsonWriter jw(os);
    a.writeReport(jw, &oh);
    std::string out = os.str();
    EXPECT_NE(out.find("\"binding_stage\":\"serialize\""),
              std::string::npos);
    EXPECT_NE(out.find("\"critical_ns\":30"), std::string::npos);
    EXPECT_NE(out.find("\"estimated_ns\":80"), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));

    // Without spans the binding attribution must be null, and
    // without an overhead block the field is null, not absent.
    CritPathAnalyzer empty;
    std::ostringstream os2;
    JsonWriter jw2(os2);
    empty.writeReport(jw2, nullptr);
    EXPECT_NE(os2.str().find("\"binding_stage\":null"),
              std::string::npos);
    EXPECT_NE(os2.str().find("\"overhead\":null"),
              std::string::npos);
}

TEST(CritPath, IdenticalStreamsAttributeIdentically)
{
    auto feed = [](CritPathAnalyzer &a) {
        a.addEvent(spanEvent({
            span(Stage::Line, -1, 0, 7),
            span(Stage::Serialize, 0, 7, 20),
            span(Stage::Signature, 0, 7, 13),
            span(Stage::Probe, 2, 13, 19),
        }));
        a.addEvent(spanEvent({span(Stage::Resync, -1, 5, 50)}));
    };
    CritPathAnalyzer a, b;
    feed(a);
    feed(b);
    std::ostringstream oa, ob;
    JsonWriter ja(oa), jb(ob);
    a.writeReport(ja, nullptr);
    b.writeReport(jb, nullptr);
    EXPECT_EQ(oa.str(), ob.str());
}

// ---------------------------------------------------------------------
// Stage name round-trip
// ---------------------------------------------------------------------

TEST(StageNames, RoundTripAllStages)
{
    for (unsigned i = 0; i < kStageCount; ++i) {
        Stage s = static_cast<Stage>(i);
        Stage back = Stage::Line;
        ASSERT_TRUE(stageFromName(stageName(s), back))
            << stageName(s);
        EXPECT_EQ(back, s);
    }
    Stage out;
    EXPECT_FALSE(stageFromName("bogus", out));
}

// ---------------------------------------------------------------------
// SpanRecorder
// ---------------------------------------------------------------------

TEST(SpanRecorder, DeterministicOneInPeriodArming)
{
    SpanRecorder rec;
    rec.configure(4);
    EXPECT_TRUE(rec.enabled());
    std::vector<bool> armed;
    for (std::uint64_t seq = 0; seq < 9; ++seq)
        armed.push_back(rec.arm(seq));
    EXPECT_EQ(armed, (std::vector<bool>{true, false, false, false,
                                        true, false, false, false,
                                        true}));
    EXPECT_EQ(rec.sampledTransfers(), 3u);

    rec.configure(0);
    EXPECT_FALSE(rec.enabled());
    EXPECT_FALSE(rec.arm(0));
    EXPECT_EQ(rec.open(Stage::Line, -1), -1);
    rec.close(-1); // must be a harmless no-op
}

TEST(SpanRecorder, DrainReconcilesWithStageHistograms)
{
    SpanRecorder rec;
    rec.configure(1);
    ASSERT_TRUE(rec.arm(0));
    int sp_line = rec.open(Stage::Line, -1);
    ASSERT_EQ(sp_line, 0);
    rec.close(sp_line);
    // The chained overload hangs the next span off the last closed
    // one.
    int sp_ser = rec.open(Stage::Serialize);
    ASSERT_EQ(sp_ser, 1);
    rec.close(sp_ser, /*aux=*/3);
    int sp_ack = rec.open(Stage::Ack, sp_line);
    ASSERT_EQ(sp_ack, 2);
    rec.close(sp_ack);

    TraceEvent ev;
    StatSet stats;
    rec.drainTo(ev, stats);
    ASSERT_EQ(ev.nspans, 3u);
    EXPECT_EQ(ev.spans[1].dep, 0);
    EXPECT_EQ(ev.spans[1].aux, 3u);
    EXPECT_EQ(ev.spans[2].dep, 0);

    // Exact reconciliation: the histograms and the event spans come
    // from the same measurements.
    for (unsigned i = 0; i < ev.nspans; ++i) {
        const Histogram *h =
            stats.findHist(stageHistName(ev.spans[i].stage));
        ASSERT_NE(h, nullptr);
        EXPECT_EQ(h->sum(), ev.spans[i].durationNs());
        EXPECT_EQ(h->samples(), 1u);
    }

    // Draining disarms: a second drain reports no spans.
    EXPECT_FALSE(rec.active());
    TraceEvent ev2;
    rec.drainTo(ev2, stats);
    EXPECT_EQ(ev2.nspans, 0u);
}

TEST(SpanRecorder, CapacityOverflowReturnsSentinel)
{
    SpanRecorder rec;
    rec.configure(1);
    ASSERT_TRUE(rec.arm(0));
    for (unsigned i = 0; i < TraceEvent::kMaxSpans; ++i)
        EXPECT_EQ(rec.open(Stage::Line, -1), static_cast<int>(i));
    EXPECT_EQ(rec.open(Stage::Line, -1), -1);
    TraceEvent ev;
    StatSet stats;
    rec.drainTo(ev, stats);
    EXPECT_EQ(ev.nspans, TraceEvent::kMaxSpans);
}

TEST(SpanRecorder, ControlSpanIsTheEventsOnlySpan)
{
    // Control paths are timed whenever recording is enabled, armed
    // or not; the span lands on their own event and in the same
    // stage histogram cache that drainTo() fills.
    SpanRecorder rec;
    rec.configure(64);
    StatSet stats;
    TraceEvent ev;
    std::uint64_t begin = rec.nowNs();
    std::uint64_t reads = rec.clockReads();
    rec.recordControl(ev, stats, Stage::Resync, begin, /*aux=*/7);
    EXPECT_EQ(rec.clockReads(), reads + 1); // the end stamp
    ASSERT_EQ(ev.nspans, 1u);
    EXPECT_EQ(ev.spans[0].stage, Stage::Resync);
    EXPECT_EQ(ev.spans[0].dep, -1);
    EXPECT_EQ(ev.spans[0].aux, 7u);
    EXPECT_EQ(ev.spans[0].begin_ns, begin);
    const Histogram *h = stats.findHist(stageHistName(Stage::Resync));
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->samples(), 1u);
    EXPECT_EQ(h->sum(), ev.spans[0].durationNs());
    EXPECT_FALSE(rec.active());
}

TEST(SpanRecorder, OverheadSelfReportCountsClockReads)
{
    EXPECT_GE(SpanRecorder::clockReadCostNs(), 1u);
    SpanRecorder rec;
    rec.configure(1);
    ASSERT_TRUE(rec.arm(0));
    std::uint64_t before = rec.clockReads();
    int sp = rec.open(Stage::Line, -1);
    rec.close(sp);
    // One read to open, one to close.
    EXPECT_EQ(rec.clockReads(), before + 2);
    EXPECT_EQ(rec.overheadNsEstimate(),
              rec.clockReads() * SpanRecorder::clockReadCostNs());
}

// ---------------------------------------------------------------------
// Live channel: topology determinism + reconciliation
// ---------------------------------------------------------------------

/** Collects events in memory; keeps only topology, not wall time. */
class CollectingSink : public TraceSink
{
  public:
    struct Shape
    {
        TraceEvent::Type type;
        std::uint64_t when;
        std::vector<std::pair<Stage, int>> spans;

        bool operator==(const Shape &o) const
        {
            return type == o.type && when == o.when
                   && spans == o.spans;
        }
    };

    void
    emit(const TraceEvent &ev) override
    {
        ++emitted_;
        Shape s;
        s.type = ev.type;
        s.when = ev.when;
        for (unsigned i = 0; i < ev.nspans; ++i)
            s.spans.emplace_back(ev.spans[i].stage,
                                 static_cast<int>(ev.spans[i].dep));
        shapes.push_back(std::move(s));
    }

    std::vector<Shape> shapes;
};

struct ChannelRun
{
    std::vector<CollectingSink::Shape> shapes;
    StatSet stats;
};

ChannelRun
runChannel(std::uint64_t span_period)
{
    Cache home({"home", 1u << 20, 8});
    Cache remote({"remote", 128u << 10, 8});
    CableChannel channel(home, remote, CableConfig{});
    CollectingSink sink;
    channel.setTraceSink(&sink);
    channel.setSpanSampling(span_period);

    ValueProfile vp;
    vp.template_count = 16;
    vp.region_lines = 8;
    vp.template_vocab = 6;
    vp.mutation_rate = 0.05;
    SyntheticMemory mem(vp, 0, 33);
    Rng rng(34);
    for (int i = 0; i < 3000; ++i) {
        Addr addr = rng.below(1 << 12) * kLineBytes;
        if (remote.access(addr))
            continue;
        if (!home.probe(addr))
            (void)channel.homeInstall(addr, mem.lineAt(addr));
        (void)channel.remoteFetch(addr, false);
    }
    ChannelRun out;
    out.shapes = std::move(sink.shapes);
    out.stats = channel.stats();
    return out;
}

TEST(ChannelSpans, SampledTopologyIsDeterministic)
{
    ChannelRun a = runChannel(8);
    ChannelRun b = runChannel(8);
    ASSERT_FALSE(a.shapes.empty());
    EXPECT_EQ(a.shapes.size(), b.shapes.size());
    EXPECT_TRUE(a.shapes == b.shapes)
        << "span topology diverged between identically seeded runs";

    std::size_t spanned = 0;
    for (const auto &s : a.shapes) {
        if (s.spans.empty())
            continue;
        ++spanned;
        if (s.type != TraceEvent::Type::Encode)
            continue;
        // Sampling by transfer ordinal: only 1-in-8 encodes carry
        // spans, and each sampled encode starts at the line root.
        EXPECT_EQ(s.when % 8, 0u) << "unsampled ordinal has spans";
        EXPECT_EQ(s.spans.front().first, Stage::Line);
        EXPECT_EQ(s.spans.front().second, -1);
    }
    EXPECT_GT(spanned, 20u) << "workload produced too few samples";
}

TEST(ChannelSpans, StageHistogramsReconcileWithAnalyzer)
{
    Cache home({"home", 1u << 20, 8});
    Cache remote({"remote", 128u << 10, 8});
    CableChannel channel(home, remote, CableConfig{});
    CritPathAnalyzer analyzer;

    class AnalyzerSink : public TraceSink
    {
      public:
        explicit AnalyzerSink(CritPathAnalyzer &a) : a_(a) {}
        void
        emit(const TraceEvent &ev) override
        {
            ++emitted_;
            a_.addEvent(ev);
        }

      private:
        CritPathAnalyzer &a_;
    } sink(analyzer);
    channel.setTraceSink(&sink);
    channel.setSpanSampling(4);

    ValueProfile vp;
    vp.template_count = 16;
    vp.region_lines = 8;
    vp.template_vocab = 6;
    vp.mutation_rate = 0.05;
    SyntheticMemory mem(vp, 0, 35);
    Rng rng(36);
    for (int i = 0; i < 2000; ++i) {
        Addr addr = rng.below(1 << 12) * kLineBytes;
        if (remote.access(addr))
            continue;
        if (!home.probe(addr))
            (void)channel.homeInstall(addr, mem.lineAt(addr));
        (void)channel.remoteFetch(addr, false);
    }

    ASSERT_GT(analyzer.spannedEvents(), 0u);
    // Per-stage analyzer totals must equal the t_stage_*_ns
    // histogram sums exactly: SpanRecorder::drainTo records both
    // sides from the same clock reads.
    std::uint64_t checked = 0;
    for (unsigned i = 0; i < kStageCount; ++i) {
        Stage s = static_cast<Stage>(i);
        const Histogram *h =
            channel.stats().findHist(stageHistName(s));
        std::uint64_t hist_sum = h ? h->sum() : 0;
        EXPECT_EQ(analyzer.stage(s).total_ns, hist_sum)
            << "stage " << stageName(s) << " diverged";
        if (hist_sum)
            ++checked;
    }
    EXPECT_GE(checked, 4u) << "too few stages exercised";
    EXPECT_EQ(channel.spanRecorder().sampledTransfers(),
              analyzer.spannedEvents());
}

// ---------------------------------------------------------------------
// Live channel: the literal span topology of each encode outcome
// ---------------------------------------------------------------------

/** One span's topology: stage, parent index, per-stage detail. */
using SpanShape = std::tuple<Stage, int, unsigned>;

/** What a topology test keeps of one Encode event. */
struct EncodeShape
{
    std::string mode;
    bool writeback = false;
    unsigned refs = 0;
    unsigned sigs = 0;
    std::vector<SpanShape> spans; ///< full (stage, dep, aux) vector
};

/** Keeps every Encode event's shape until the test clears them. */
class EncodeShapeSink : public TraceSink
{
  public:
    void
    emit(const TraceEvent &ev) override
    {
        ++emitted_;
        if (ev.type != TraceEvent::Type::Encode)
            return;
        EncodeShape &e = encodes.emplace_back();
        e.mode = ev.mode;
        e.writeback = ev.writeback;
        e.refs = ev.refs;
        e.sigs = ev.sigs;
        for (unsigned i = 0; i < ev.nspans; ++i)
            e.spans.emplace_back(ev.spans[i].stage,
                                 static_cast<int>(ev.spans[i].dep),
                                 static_cast<unsigned>(ev.spans[i].aux));
    }

    std::vector<EncodeShape> encodes;
};

/** A line of 16 fresh random words. */
CacheLine
randomLine(Rng &rng)
{
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        l.setWord(w, static_cast<std::uint32_t>(rng.next()));
    return l;
}

struct TopologyRig
{
    Cache home{{"home", 1u << 20, 8}};
    Cache remote{{"remote", 128u << 10, 8}};
    CableChannel channel{home, remote, CableConfig{}};
    EncodeShapeSink sink;

    TopologyRig()
    {
        channel.setTraceSink(&sink);
        channel.setSpanSampling(1);
    }

    /** Fetches @p data into a clean remote; returns its encode. */
    EncodeShape
    fetch(Addr addr, const CacheLine &data)
    {
        (void)channel.homeInstall(addr, data);
        (void)channel.remoteFetch(addr, false);
        return sink.encodes.back();
    }
};

TEST(ChannelSpans, EveryEncodeOutcomeHasItsPinnedTopology)
{
    // Span indices: the Line root (0) forks the self-compress
    // Serialize (1) and, when a search runs, the Signature → Probe →
    // Score chain (2..4) plus the refs Serialize (5, aux = refs).
    // The wire Serialize chains onto the last span closed before
    // it, and the Ack closes every transfer.
    TopologyRig rig;
    Rng rng(91);

    // Self via the self-ratio early-out: no search spans at all.
    EncodeShape e = rig.fetch(0x0000, CacheLine{});
    EXPECT_EQ(e.mode, "self");
    EXPECT_EQ(e.spans, (std::vector<SpanShape>{
                           {Stage::Line, -1, 0},
                           {Stage::Serialize, 0, 0},
                           {Stage::Serialize, 1, 0},
                           {Stage::Frame, 2, 0},
                           {Stage::Link, 3, 0},
                           {Stage::Ack, 4, 0},
                       }));

    // Raw after a search that found nothing: the wire Serialize
    // chains onto Score, and a raw frame skips the Link decode.
    const CacheLine r1 = randomLine(rng);
    e = rig.fetch(0x1000, r1);
    EXPECT_EQ(e.mode, "raw");
    EXPECT_EQ(e.spans, (std::vector<SpanShape>{
                           {Stage::Line, -1, 0},
                           {Stage::Serialize, 0, 0},
                           {Stage::Signature, 0, 0},
                           {Stage::Probe, 2, 0},
                           {Stage::Score, 3, 0},
                           {Stage::Serialize, 4, 0},
                           {Stage::Frame, 5, 0},
                           {Stage::Ack, 6, 0},
                       }));

    // Refs won: a near-duplicate of r1 references it.
    CacheLine r2 = r1;
    r2.setWord(0, ~r1.word(0));
    e = rig.fetch(0x2000, r2);
    EXPECT_EQ(e.mode, "refs");
    EXPECT_EQ(e.refs, 1u);
    const std::vector<SpanShape> refs_topology = {
        {Stage::Line, -1, 0},      {Stage::Serialize, 0, 0},
        {Stage::Signature, 0, 0},  {Stage::Probe, 2, 0},
        {Stage::Score, 3, 0},      {Stage::Serialize, 4, 1},
        {Stage::Serialize, 5, 0},  {Stage::Frame, 6, 0},
        {Stage::Link, 7, 0},       {Stage::Ack, 8, 0},
    };
    EXPECT_EQ(e.spans, refs_topology);

    // Self after a search that found no reference: half zero words
    // keep the self ratio under the early-out threshold.
    CacheLine half;
    for (unsigned w = kWordsPerLine / 2; w < kWordsPerLine; ++w)
        half.setWord(w, static_cast<std::uint32_t>(rng.next()));
    e = rig.fetch(0x3000, half);
    EXPECT_EQ(e.mode, "self");
    EXPECT_GT(e.sigs, 0u);
    EXPECT_EQ(e.spans, (std::vector<SpanShape>{
                           {Stage::Line, -1, 0},
                           {Stage::Serialize, 0, 0},
                           {Stage::Signature, 0, 0},
                           {Stage::Probe, 2, 0},
                           {Stage::Score, 3, 0},
                           {Stage::Serialize, 4, 0},
                           {Stage::Frame, 5, 0},
                           {Stage::Link, 6, 0},
                           {Stage::Ack, 7, 0},
                       }));

    // A write-back carrying refs has the response's refs topology.
    CacheLine dirty = r1;
    dirty.setWord(5, ~r1.word(5));
    rig.channel.remoteUpgrade(0x2000);
    rig.remote.writeLine(0x2000, dirty, true);
    (void)rig.channel.writeBack(0x2000, dirty);
    e = rig.sink.encodes.back();
    EXPECT_TRUE(e.writeback);
    EXPECT_EQ(e.mode, "refs");
    EXPECT_EQ(e.refs, 1u);
    EXPECT_EQ(e.spans, refs_topology);
}

TEST(ChannelSpans, SelfWinningOverRefsChainsOntoRefsSerialize)
{
    // When references were compressed but lost the cost comparison,
    // the wire Serialize still chains onto the refs Serialize span:
    // that comparison had to wait for the refs branch. Rare, so the
    // seeded workload runs until the first such transfer (a
    // write-back: no self-ratio early-out there).
    TopologyRig rig;
    ValueProfile vp;
    vp.template_count = 16;
    vp.region_lines = 8;
    vp.template_vocab = 6;
    vp.mutation_rate = 0.05;
    SyntheticMemory mem(vp, 0, 41);
    Rng rng(42);
    std::vector<SpanShape> lost;
    std::uint64_t transfers = 0;
    for (int i = 0; i < 30000 && lost.empty(); ++i) {
        Addr addr = rng.below(1 << 12) * kLineBytes;
        bool store = rng.chance(0.3);
        if (rig.remote.access(addr)) {
            if (store
                && !rig.remote.entryAt(rig.remote.find(addr)).dirty())
                rig.channel.remoteUpgrade(addr);
            continue;
        }
        if (!rig.home.probe(addr))
            (void)rig.channel.homeInstall(addr, mem.lineAt(addr));
        (void)rig.channel.remoteFetch(addr, store);
        // A fetch may also encode its victim's write-back: check
        // every encode it made.
        for (const EncodeShape &enc : rig.sink.encodes)
            if (enc.mode == "self" && enc.spans.size() > 6
                && std::get<0>(enc.spans[6]) == Stage::Serialize)
                lost = enc.spans;
        rig.sink.encodes.clear();
        transfers = rig.channel.stats().get("transfers");
    }
    ASSERT_FALSE(lost.empty())
        << "no self-won transfer with refs in " << transfers;
    EXPECT_EQ(lost, (std::vector<SpanShape>{
                        {Stage::Line, -1, 0},
                        {Stage::Serialize, 0, 0},
                        {Stage::Signature, 0, 0},
                        {Stage::Probe, 2, 0},
                        {Stage::Score, 3, 0},
                        {Stage::Serialize, 4, 2},
                        {Stage::Serialize, 5, 0},
                        {Stage::Frame, 6, 0},
                        {Stage::Link, 7, 0},
                        {Stage::Ack, 8, 0},
                    }));
}

TEST(ChannelSpans, DisabledSamplingRecordsNothing)
{
    ChannelRun r = runChannel(0);
    ASSERT_FALSE(r.shapes.empty());
    for (const auto &s : r.shapes)
        EXPECT_TRUE(s.spans.empty());
    for (unsigned i = 0; i < kStageCount; ++i)
        EXPECT_EQ(
            r.stats.findHist(stageHistName(static_cast<Stage>(i))),
            nullptr);
}

// ---------------------------------------------------------------------
// Allocation guard: span-carrying emission stays heap-free
// ---------------------------------------------------------------------

TEST(SpanAllocGuard, JsonlEmitWithSpansIsSteadyStateAllocFree)
{
    ASSERT_TRUE(alloc_guard::hooksLinked());
    // A file-backed stream writes through its fixed filebuf, so any
    // allocation charged to emitAllocs() after warm-up would be the
    // sink's own doing.
    std::ofstream os("/dev/null");
    ASSERT_TRUE(os.is_open());
    JsonlTraceSink sink(os);

    TraceEvent ev = spanEvent({
        span(Stage::Line, -1, 0, 10),
        span(Stage::Serialize, 0, 10, 30),
        span(Stage::Frame, 1, 30, 35, /*aux=*/2),
    });
    ev.engine = "lbe";
    ev.mode = "refs";
    sink.emit(ev); // warm-up: stream-local lazy init may allocate
    std::uint64_t after_first = sink.emitAllocs();
    for (int i = 0; i < 64; ++i)
        sink.emit(ev);
    EXPECT_EQ(sink.emitAllocs(), after_first)
        << "span serialization allocated in steady state";
    EXPECT_EQ(sink.emitted(), 65u);
}

} // namespace
