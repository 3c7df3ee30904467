/**
 * @file
 * Telemetry subsystem tests: histogram bucketing edge cases and
 * percentile math, epoch snapshot/merge semantics, JSONL trace
 * round-trip, sampled-tracing determinism, the ratioOpt() n/a
 * distinction and escaping-safe dumps, and the log-level gates.
 */

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "common/json.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/stats.h"
#include "core/channel.h"
#include "telemetry/trace.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

constexpr std::uint64_t kU64Max =
    std::numeric_limits<std::uint64_t>::max();

// ---------------------------------------------------------------------
// Histogram bucketing
// ---------------------------------------------------------------------

TEST(Histogram, Log2ZeroGoesToBucketZero)
{
    Histogram h;
    h.record(0);
    ASSERT_EQ(h.buckets().size(), 1u);
    EXPECT_EQ(h.buckets()[0], 1u);
    auto [lo, hi] = h.bucketRange(0);
    EXPECT_EQ(lo, 0u);
    EXPECT_EQ(hi, 0u);
}

TEST(Histogram, Log2PowerOfTwoBoundaries)
{
    Histogram h;
    // 1 → bucket 1 [1,1]; 2,3 → bucket 2 [2,3]; 4 → bucket 3 [4,7].
    h.record(1);
    h.record(2);
    h.record(3);
    h.record(4);
    ASSERT_GE(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[2], 2u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.bucketRange(2).first, 2u);
    EXPECT_EQ(h.bucketRange(2).second, 3u);
}

TEST(Histogram, Log2MaxU64IsSafe)
{
    Histogram h;
    h.record(kU64Max);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.max(), kU64Max);
    // Bucket 64 covers [2^63, max]; its range must not overflow.
    ASSERT_EQ(h.buckets().size(), 65u);
    EXPECT_EQ(h.buckets()[64], 1u);
    EXPECT_EQ(h.bucketRange(64).second, kU64Max);
}

TEST(Histogram, SingleSampleStats)
{
    Histogram h;
    h.record(42);
    EXPECT_EQ(h.samples(), 1u);
    EXPECT_EQ(h.min(), 42u);
    EXPECT_EQ(h.max(), 42u);
    EXPECT_DOUBLE_EQ(h.mean(), 42.0);
    // Every percentile of one sample is that sample (clamped to
    // the observed extrema).
    EXPECT_DOUBLE_EQ(h.percentile(0), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 42.0);
    EXPECT_DOUBLE_EQ(h.percentile(100), 42.0);
}

TEST(Histogram, EmptyIsInert)
{
    Histogram h;
    EXPECT_EQ(h.samples(), 0u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    EXPECT_DOUBLE_EQ(h.percentile(50), 0.0);
}

TEST(Histogram, LinearOverflowBucketClamps)
{
    Histogram h(Histogram::Scale::Linear, 1, 4);
    h.record(0);
    h.record(3);   // last regular bucket
    h.record(100); // clamps into the overflow bucket (index 3)
    ASSERT_EQ(h.buckets().size(), 4u);
    EXPECT_EQ(h.buckets()[3], 2u);
    EXPECT_EQ(h.bucketRange(3).second, kU64Max);
    EXPECT_EQ(h.max(), 100u); // exact extrema survive clamping
}

TEST(Histogram, LinearWidthBuckets)
{
    Histogram h(Histogram::Scale::Linear, 32, 20);
    h.record(0);
    h.record(31);
    h.record(32);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.bucketRange(1).first, 32u);
    EXPECT_EQ(h.bucketRange(1).second, 63u);
}

TEST(Histogram, PercentileNearestRankLinearWidth1)
{
    // Linear width-1 buckets hold exactly one value, so percentiles
    // are exact nearest-rank order statistics.
    Histogram h(Histogram::Scale::Linear, 1, 16);
    for (std::uint64_t v = 1; v <= 10; ++v)
        h.record(v);
    EXPECT_DOUBLE_EQ(h.percentile(50), 5.0);
    EXPECT_DOUBLE_EQ(h.percentile(90), 9.0);
    EXPECT_DOUBLE_EQ(h.percentile(99), 10.0);
    EXPECT_DOUBLE_EQ(h.percentile(10), 1.0);
}

TEST(Histogram, MergeAddsBuckets)
{
    Histogram a, b;
    a.record(1);
    b.record(1);
    b.record(1000);
    a.merge(b);
    EXPECT_EQ(a.samples(), 3u);
    EXPECT_EQ(a.min(), 1u);
    EXPECT_EQ(a.max(), 1000u);
    EXPECT_EQ(a.sum(), 1002u);
}

TEST(Histogram, DeltaSubtractsBucketsKeepsExtrema)
{
    Histogram h(Histogram::Scale::Linear, 1, 8);
    h.record(1);
    h.record(2);
    Histogram snapshot = h;
    h.record(2);
    h.record(5);
    Histogram d = h.delta(snapshot);
    EXPECT_EQ(d.samples(), 2u);
    EXPECT_EQ(d.buckets()[2], 1u);
    EXPECT_EQ(d.buckets()[5], 1u);
    EXPECT_EQ(d.buckets()[1], 0u);
    // Extrema are cumulative by contract.
    EXPECT_EQ(d.min(), 1u);
    EXPECT_EQ(d.max(), 5u);
}

// ---------------------------------------------------------------------
// StatSet: ratios, epoch deltas, dumps
// ---------------------------------------------------------------------

TEST(StatSet, RatioOptDistinguishesNeverRecorded)
{
    StatSet s;
    s.add("num", 10);
    // Untouched denominator: legacy ratio() says 0.0, ratioOpt says
    // "not applicable".
    EXPECT_DOUBLE_EQ(s.ratio("num", "missing"), 0.0);
    EXPECT_FALSE(s.ratioOpt("num", "missing").has_value());
    // Touched-but-zero denominator is also n/a (division impossible).
    s.add("den", 0);
    EXPECT_TRUE(s.has("den"));
    EXPECT_FALSE(s.ratioOpt("num", "den").has_value());
    s.add("den", 5);
    ASSERT_TRUE(s.ratioOpt("num", "den").has_value());
    EXPECT_DOUBLE_EQ(*s.ratioOpt("num", "den"), 2.0);
}

TEST(StatSet, DumpQuotesAwkwardNames)
{
    StatSet s;
    s.add("plain", 1);
    s.add("with space", 2);
    s.add("quo\"te", 3);
    std::ostringstream os;
    s.dump(os);
    std::string out = os.str();
    EXPECT_NE(out.find("plain 1"), std::string::npos);
    EXPECT_NE(out.find("\"with space\" 2"), std::string::npos);
    EXPECT_NE(out.find("\"quo\\\"te\" 3"), std::string::npos);
}

TEST(StatSet, EpochDeltaCountersAndHistograms)
{
    StatSet s;
    s.add("transfers", 5);
    s.hist("bits").record(100);
    StatSet epoch0 = s;
    s.add("transfers", 3);
    s.hist("bits").record(200);
    s.hist("fresh").record(1); // born after the snapshot
    StatSet d = s.delta(epoch0);
    EXPECT_EQ(d.get("transfers"), 3u);
    ASSERT_NE(d.findHist("bits"), nullptr);
    EXPECT_EQ(d.findHist("bits")->samples(), 1u);
    ASSERT_NE(d.findHist("fresh"), nullptr);
    EXPECT_EQ(d.findHist("fresh")->samples(), 1u);
}

TEST(StatSet, EpochDeltaOfIdleEpochIsAllZero)
{
    // An epoch in which nothing moved must delta to zeros — not to
    // missing entries, and never to wrapped-negative counters.
    StatSet s;
    s.add("transfers", 7);
    s.hist("bits").record(64);
    s.sketch("frame_bits").record(64);
    StatSet snapshot = s;
    StatSet d = s.delta(snapshot);
    EXPECT_EQ(d.get("transfers"), 0u);
    ASSERT_NE(d.findHist("bits"), nullptr);
    EXPECT_EQ(d.findHist("bits")->samples(), 0u);
    ASSERT_NE(d.findSketch("frame_bits"), nullptr);
    EXPECT_EQ(d.findSketch("frame_bits")->samples(), 0u);
}

TEST(StatSet, EpochDeltaSingleSampleDistribution)
{
    // Distributions cannot be un-merged, so the delta carries them
    // cumulatively — and a single sample must yield clean moments
    // (variance 0, min == max == mean), not NaN.
    StatSet s;
    StatSet snapshot = s;
    s.dist("ratio").record(2.5);
    StatSet d = s.delta(snapshot);
    const Distribution *dist = d.findDist("ratio");
    ASSERT_NE(dist, nullptr);
    EXPECT_EQ(dist->samples(), 1u);
    EXPECT_DOUBLE_EQ(dist->mean(), 2.5);
    EXPECT_DOUBLE_EQ(dist->variance(), 0.0);
    EXPECT_DOUBLE_EQ(dist->min(), 2.5);
    EXPECT_DOUBLE_EQ(dist->max(), 2.5);
}

TEST(StatSet, EpochDeltaAfterMergeOfDisjointHistograms)
{
    // Fold a worker's disjoint histograms in mid-epoch: the next
    // delta must attribute exactly the merged-in samples, while a
    // histogram the snapshot already covered deltas to empty.
    StatSet s;
    s.hist("local").record(10, 3);
    StatSet snapshot = s;
    StatSet worker;
    worker.hist("remote").record(99, 5);
    worker.hist("local").record(20);
    s.merge(worker);
    StatSet d = s.delta(snapshot);
    ASSERT_NE(d.findHist("remote"), nullptr);
    EXPECT_EQ(d.findHist("remote")->samples(), 5u);
    EXPECT_EQ(d.findHist("remote")->sum(), 5u * 99u);
    ASSERT_NE(d.findHist("local"), nullptr);
    EXPECT_EQ(d.findHist("local")->samples(), 1u);
    EXPECT_EQ(d.findHist("local")->sum(), 20u);
}

TEST(StatSet, EpochDeltaClampsCounterWrap)
{
    // If a counter ever runs backwards (a reset or a wrap), the
    // delta clamps to zero instead of producing a near-2^64 value
    // that would poison every downstream rate computation.
    StatSet before, after;
    before.add("transfers", 100);
    after.add("transfers", 40); // went backwards
    after.add("fresh", 3);      // born after the snapshot
    StatSet d = after.delta(before);
    EXPECT_EQ(d.get("transfers"), 0u);
    EXPECT_EQ(d.get("fresh"), 3u);
}

TEST(StatSet, MergeCombinesAllKinds)
{
    StatSet a, b;
    a.add("c", 1);
    b.add("c", 2);
    b.hist("h").record(4);
    b.dist("d").record(0.5);
    a.merge(b);
    EXPECT_EQ(a.get("c"), 3u);
    ASSERT_NE(a.findHist("h"), nullptr);
    EXPECT_EQ(a.findHist("h")->samples(), 1u);
    ASSERT_NE(a.findDist("d"), nullptr);
    EXPECT_DOUBLE_EQ(a.findDist("d")->mean(), 0.5);
}

TEST(StatSet, DumpJsonIsWellFormed)
{
    StatSet s;
    s.add("a b", 1);
    s.hist("h").record(7);
    s.dist("d").record(1.5);
    std::ostringstream os;
    JsonWriter jw(os);
    s.dumpJson(jw);
    std::string out = os.str();
    EXPECT_NE(out.find("\"a b\":1"), std::string::npos);
    EXPECT_NE(out.find("\"histograms\""), std::string::npos);
    EXPECT_NE(out.find("\"distributions\""), std::string::npos);
    // Balanced braces/brackets — cheap structural sanity.
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
    EXPECT_EQ(std::count(out.begin(), out.end(), '['),
              std::count(out.begin(), out.end(), ']'));
}

TEST(Distribution, MomentsAndMerge)
{
    Distribution d;
    d.record(1.0);
    d.record(3.0);
    EXPECT_EQ(d.samples(), 2u);
    EXPECT_DOUBLE_EQ(d.mean(), 2.0);
    EXPECT_DOUBLE_EQ(d.variance(), 1.0);
    Distribution e;
    e.record(5.0);
    d.merge(e);
    EXPECT_EQ(d.samples(), 3u);
    EXPECT_DOUBLE_EQ(d.max(), 5.0);
}

// ---------------------------------------------------------------------
// Trace sinks
// ---------------------------------------------------------------------

TraceEvent
encodeEvent(std::uint64_t when, std::uint64_t out_bits)
{
    TraceEvent ev;
    ev.type = TraceEvent::Type::Encode;
    ev.when = when;
    ev.addr = 0x1000 + when * 64;
    ev.engine = "lbe";
    ev.mode = "refs";
    ev.sigs = 4;
    ev.refs = 2;
    ev.cbv = 0x0f0f;
    ev.covered = 8;
    ev.in_bits = 512;
    ev.out_bits = out_bits;
    return ev;
}

TEST(JsonlTrace, RoundTripParse)
{
    std::ostringstream os;
    JsonlTraceSink sink(os);
    sink.emit(encodeEvent(0, 100));
    TraceEvent desync;
    desync.type = TraceEvent::Type::Desync;
    desync.when = 1;
    desync.aux = 3;
    sink.emit(desync);
    sink.flush();

    std::istringstream is(os.str());
    std::string line;
    std::vector<std::string> lines;
    while (std::getline(is, line))
        lines.push_back(line);
    ASSERT_EQ(lines.size(), 2u);
    // One JSON object per line, fields present and escaped.
    EXPECT_EQ(lines[0].front(), '{');
    EXPECT_EQ(lines[0].back(), '}');
    EXPECT_NE(lines[0].find("\"ev\":\"encode\""), std::string::npos);
    EXPECT_NE(lines[0].find("\"in_bits\":512"), std::string::npos);
    EXPECT_NE(lines[0].find("\"out_bits\":100"), std::string::npos);
    EXPECT_NE(lines[1].find("\"ev\":\"desync\""), std::string::npos);
    EXPECT_NE(lines[1].find("\"aux\":3"), std::string::npos);
    EXPECT_EQ(sink.emitted(), 2u);
}

TEST(ChromeTrace, FlushClosesArray)
{
    std::ostringstream os;
    {
        ChromeTraceSink sink(os);
        sink.emit(encodeEvent(0, 100));
        sink.emit(encodeEvent(1, 200));
        sink.flush();
    }
    std::string out = os.str();
    ASSERT_FALSE(out.empty());
    EXPECT_EQ(out.front(), '[');
    EXPECT_NE(out.find(']'), std::string::npos);
    EXPECT_EQ(std::count(out.begin(), out.end(), '{'),
              std::count(out.begin(), out.end(), '}'));
}

TEST(SamplingTrace, DeterministicOneInN)
{
    auto run = [](std::uint64_t period) {
        std::ostringstream os;
        JsonlTraceSink inner(os);
        SamplingTraceSink sampler(inner, period);
        for (std::uint64_t i = 0; i < 10; ++i)
            sampler.emit(encodeEvent(i, 100 + i));
        TraceEvent ctl;
        ctl.type = TraceEvent::Type::Retransmit;
        sampler.emit(ctl);
        return std::make_pair(sampler.emitted(), os.str());
    };
    // 1-in-3 over 10 encodes keeps ordinals 0,3,6,9 (+ the control
    // event, which always passes).
    auto [count3, text3] = run(3);
    EXPECT_EQ(count3, 5u);
    EXPECT_NE(text3.find("\"retransmit\""), std::string::npos);
    // Determinism: the identical event stream yields the identical
    // serialized trace.
    auto [count3b, text3b] = run(3);
    EXPECT_EQ(count3, count3b);
    EXPECT_EQ(text3, text3b);
    // Period 1 forwards everything.
    auto [count1, text1] = run(1);
    EXPECT_EQ(count1, 11u);
    (void)text1;
}

TEST(Timing, EveryEncodeSearchTimesEachStageOnce)
{
    // With a sink attached and every transfer's spans sampled, each
    // reference search — in either direction — must record exactly
    // one signature, probe and score span: a stage timed twice, or
    // skipped in one direction, breaks the equality.
    Cache home({"home", 1u << 20, 8});
    Cache remote({"remote", 128u << 10, 8});
    CableChannel channel(home, remote, CableConfig{});
    NullTraceSink sink;
    channel.setTraceSink(&sink);
    channel.setSpanSampling(1);
    ValueProfile vp;
    vp.template_count = 16;
    vp.region_lines = 8;
    vp.template_vocab = 6;
    vp.mutation_rate = 0.05;
    SyntheticMemory mem(vp, 0, 41);
    Rng rng(42);
    for (int i = 0; i < 3000; ++i) {
        Addr addr = rng.below(1 << 12) * kLineBytes;
        bool store = rng.chance(0.3);
        if (remote.access(addr)) {
            if (store && !remote.entryAt(remote.find(addr)).dirty())
                channel.remoteUpgrade(addr);
            continue;
        }
        if (!home.probe(addr))
            (void)channel.homeInstall(addr, mem.lineAt(addr));
        (void)channel.remoteFetch(addr, store);
    }

    const StatSet &s = channel.stats();
    std::uint64_t searches = s.get("searches") + s.get("wb_searches");
    ASSERT_GT(s.get("searches"), 0u);
    ASSERT_GT(s.get("wb_searches"), 0u);
    for (const char *name : {"t_stage_signature_ns", "t_stage_probe_ns",
                             "t_stage_score_ns"}) {
        const Histogram *h = s.findHist(name);
        ASSERT_NE(h, nullptr) << name;
        EXPECT_EQ(h->samples(), searches) << name;
    }
}

TEST(Log, ParseAndGating)
{
    EXPECT_EQ(parseLogLevel("quiet"), LogLevel::Quiet);
    EXPECT_EQ(parseLogLevel("warn"), LogLevel::Warn);
    EXPECT_EQ(parseLogLevel("info"), LogLevel::Info);
    EXPECT_EQ(parseLogLevel("debug"), LogLevel::Debug);
    EXPECT_FALSE(parseLogLevel("loud").has_value());

    LogLevel before = logLevel();
    setLogLevel(LogLevel::Debug);
    EXPECT_TRUE(debugLogEnabled());
    setLogLevel(LogLevel::Warn);
    EXPECT_FALSE(debugLogEnabled());
    setLogLevel(before);
}

} // namespace
