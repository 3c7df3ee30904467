/**
 * @file
 * CableChannel integration tests: the full search/compress/transmit/
 * synchronize loop between a home and a remote cache. Every transfer
 * is decoded by the channel itself from the frame it received and
 * receiver-side data, and verified bit-exact (CableDesyncError on a
 * mismatch), so simply surviving a long randomized workload is a
 * strong correctness statement; on top of that these tests check the
 * synchronization invariants and the link frame's walk directly.
 */

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/frame.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

struct Rig
{
    Cache home;
    Cache remote;
    CableChannel channel;

    explicit Rig(const CableConfig &cfg = CableConfig{},
                 std::uint64_t home_bytes = 1u << 20,
                 std::uint64_t remote_bytes = 256u << 10)
        : home({"home", home_bytes, 8}),
          remote({"remote", remote_bytes, 8}),
          channel(home, remote, cfg)
    {
    }

    /**
     * Fetch addr into the remote, filling home from @p mem. A hit
     * at the remote touches LRU state (and upgrades on a store),
     * like the surrounding system would.
     */
    FetchResult
    fetch(SyntheticMemory &mem, Addr addr, bool store = false)
    {
        if (remote.access(addr)) {
            if (store && !remote.dirtyAt(remote.find(addr)))
                channel.remoteUpgrade(addr);
            return FetchResult{};
        }
        if (!home.probe(addr))
            (void)channel.homeInstall(addr, mem.lineAt(addr));
        return channel.remoteFetch(addr, store);
    }
};

ValueProfile
similarValues()
{
    ValueProfile v;
    v.zero_line_frac = 0.1;
    v.zero_word_frac = 0.3;
    v.template_count = 16;
    v.region_lines = 8;
    v.template_vocab = 6;
    v.mutation_rate = 0.05;
    v.random_line_frac = 0.05;
    return v;
}

} // namespace

TEST(Channel, BasicFetchInstallsAtRemote)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 1);
    auto r = rig.fetch(mem, 0x1000);
    EXPECT_TRUE(rig.remote.probe(0x1000));
    EXPECT_TRUE(rig.home.probe(0x1000));
    EXPECT_EQ(r.response.raw_bits, 512u);
    EXPECT_GT(r.response.bits, 0u);
    EXPECT_EQ(rig.remote.lineAt(rig.remote.find(0x1000)),
              mem.lineAt(0x1000));
}

TEST(Channel, SimilarLinesCompressWithReferences)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 2);
    // Fetch a whole template region; later lines should find the
    // earlier ones as references.
    unsigned with_refs = 0;
    for (unsigned i = 0; i < 64; ++i) {
        auto r = rig.fetch(mem, i * kLineBytes);
        if (r.response.nrefs > 0)
            ++with_refs;
    }
    EXPECT_GT(with_refs, 10u);
    EXPECT_GT(rig.channel.compressionRatio(), 2.0);
}

TEST(Channel, ZeroLinesSelfCompressWithoutSearch)
{
    Rig rig;
    ValueProfile v;
    v.zero_line_frac = 1.0;
    SyntheticMemory mem(v, 0, 3);
    for (unsigned i = 0; i < 16; ++i) {
        auto r = rig.fetch(mem, i * kLineBytes);
        EXPECT_TRUE(r.response.self_only);
        EXPECT_EQ(r.response.nrefs, 0u);
    }
    EXPECT_GT(rig.channel.stats().get("self_threshold_hits"), 0u);
    EXPECT_EQ(rig.channel.stats().get("searches"), 0u);
}

TEST(Channel, RandomDataFallsBackGracefully)
{
    Rig rig;
    ValueProfile v;
    v.zero_line_frac = 0.0;
    v.random_line_frac = 1.0;
    SyntheticMemory mem(v, 0, 4);
    for (unsigned i = 0; i < 32; ++i)
        rig.fetch(mem, i * kLineBytes);
    // Random lines: ratio close to 1, many raw sends, no crash.
    EXPECT_LT(rig.channel.compressionRatio(), 1.2);
}

TEST(Channel, SharedStateInvariant)
{
    // After any fetch sequence: every WMT-tracked remote slot holds
    // exactly the line its home slot holds.
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 5);
    Rng rng(6);
    for (int i = 0; i < 3000; ++i)
        rig.fetch(mem, rng.below(4096) * kLineBytes,
                  rng.chance(0.2));

    const WayMapTable &wmt = rig.channel.wmt();
    unsigned tracked = 0;
    for (std::uint32_t rset = 0; rset < rig.remote.numSets();
         ++rset) {
        for (unsigned w = 0; w < rig.remote.numWays(); ++w) {
            auto occ = wmt.occupantHomeLID(
                rset, static_cast<std::uint8_t>(w));
            if (!occ)
                continue;
            ++tracked;
            ASSERT_TRUE(rig.home.validAt(*occ));
            LineID rlid(rset, static_cast<std::uint8_t>(w));
            ASSERT_TRUE(rig.remote.validAt(rlid));
            ASSERT_FALSE(rig.remote.dirtyAt(rlid)); // dirty: untracked
            ASSERT_EQ(rig.home.addrAt(*occ), rig.remote.addrAt(rlid));
            ASSERT_EQ(rig.home.lineAt(*occ), rig.remote.lineAt(rlid));
        }
    }
    EXPECT_GT(tracked, 0u);
}

TEST(Channel, StoreMissInstallsModifiedAndUntracked)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 7);
    rig.fetch(mem, 0x2000, /*store=*/true);
    LineID rlid = rig.remote.find(0x2000);
    ASSERT_TRUE(rlid.valid);
    EXPECT_TRUE(rig.remote.dirtyAt(rlid));
    EXPECT_FALSE(
        rig.channel.wmt().occupant(rlid.set, rlid.way).has_value());
}

TEST(Channel, UpgradeDetachesLine)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 8);
    rig.fetch(mem, 0x3000);
    LineID rlid = rig.remote.find(0x3000);
    ASSERT_TRUE(
        rig.channel.wmt().occupant(rlid.set, rlid.way).has_value());
    rig.channel.remoteUpgrade(0x3000);
    EXPECT_TRUE(rig.remote.dirtyAt(rlid));
    EXPECT_FALSE(
        rig.channel.wmt().occupant(rlid.set, rlid.way).has_value());
    EXPECT_EQ(rig.channel.stats().get("upgrades"), 1u);
}

TEST(Channel, DirtyEvictionWritesBackCompressed)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 9);
    rig.fetch(mem, 0x4000);
    rig.channel.remoteUpgrade(0x4000);
    CacheLine dirty = mem.lineAt(0x4000);
    dirty.setWord(0, 0xfeedf00d);
    rig.remote.writeLine(0x4000, dirty, true);

    LineID rlid = rig.remote.find(0x4000);
    auto wb = rig.channel.remoteEvictSlot(rlid);
    ASSERT_TRUE(wb.has_value());
    EXPECT_TRUE(wb->writeback);
    EXPECT_FALSE(rig.remote.probe(0x4000));
    // Home copy updated with the dirty data.
    EXPECT_EQ(rig.home.lineAt(rig.home.find(0x4000)), dirty);
    EXPECT_TRUE(rig.home.dirtyAt(rig.home.find(0x4000)));
}

TEST(Channel, CleanEvictionSendsNoData)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 10);
    rig.fetch(mem, 0x5000);
    auto before = rig.channel.stats().get("wire_bits");
    auto wb = rig.channel.remoteEvictSlot(rig.remote.find(0x5000));
    EXPECT_FALSE(wb.has_value());
    EXPECT_EQ(rig.channel.stats().get("wire_bits"), before);
    EXPECT_FALSE(rig.remote.probe(0x5000));
}

TEST(Channel, EvictionRemovesReferences)
{
    // After a line is evicted from the remote, later transfers must
    // not reference it (the channel would panic on decompression
    // since the receiver reads its own slots).
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 11);
    Rng rng(12);
    // Heavy traffic with a small remote forces constant evictions.
    for (int i = 0; i < 5000; ++i)
        rig.fetch(mem, rng.below(1 << 14) * kLineBytes);
    SUCCEED(); // no verification panic == references stayed valid
}

TEST(Channel, WriteBackUsesRemoteReferences)
{
    CableConfig cfg;
    Rig rig(cfg);
    SyntheticMemory mem(similarValues(), 0, 13);
    // Warm both caches within one template region.
    for (unsigned i = 0; i < 8; ++i)
        rig.fetch(mem, i * kLineBytes);
    // Dirty a near-duplicate and write it back while resident.
    CacheLine d = mem.lineAt(0);
    d.setWord(3, 0x12345678);
    rig.channel.remoteUpgrade(0);
    rig.remote.writeLine(0, d, true);
    Transfer t = rig.channel.writeBack(0, d);
    EXPECT_TRUE(t.writeback);
    EXPECT_LT(t.bits, 512u); // compressed against siblings
    EXPECT_EQ(rig.home.lineAt(rig.home.find(0)), d);
}

TEST(Channel, HomeEvictionBackInvalidatesRemote)
{
    // Tiny home cache: fetching enough lines forces home evictions
    // of remote-resident lines.
    Rig rig(CableConfig{}, /*home=*/32u << 10, /*remote=*/16u << 10);
    SyntheticMemory mem(similarValues(), 0, 14);
    Rng rng(15);
    for (int i = 0; i < 4000; ++i)
        rig.fetch(mem, rng.below(4096) * kLineBytes);
    EXPECT_GT(rig.channel.stats().get("back_invalidations"), 0u);
    // Inclusivity: every remote line still present at home.
    for (std::uint32_t set = 0; set < rig.remote.numSets(); ++set) {
        for (unsigned w = 0; w < rig.remote.numWays(); ++w) {
            LineID rlid(set, static_cast<std::uint8_t>(w));
            if (!rig.remote.validAt(rlid))
                continue;
            ASSERT_TRUE(rig.home.probe(rig.remote.addrAt(rlid)));
        }
    }
}

TEST(Channel, SnoopInvalidateCleansUp)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 16);
    rig.fetch(mem, 0x6000);
    auto wb = rig.channel.remoteInvalidate(0x6000);
    EXPECT_FALSE(wb.has_value()); // clean copy
    EXPECT_FALSE(rig.remote.probe(0x6000));
    EXPECT_EQ(rig.channel.stats().get("snoop_invalidations"), 1u);
    EXPECT_FALSE(rig.channel.remoteInvalidate(0x6000).has_value());
}

TEST(Channel, CompressionDisabledSendsRaw)
{
    CableConfig cfg;
    cfg.compression_enabled = false;
    Rig rig(cfg);
    SyntheticMemory mem(similarValues(), 0, 17);
    auto r = rig.fetch(mem, 0x7000);
    EXPECT_TRUE(r.response.raw);
    EXPECT_EQ(r.response.bits, 512u);
    EXPECT_DOUBLE_EQ(rig.channel.compressionRatio(), 1.0);
}

TEST(Channel, OnOffToggleKeepsMetadataLive)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 18);
    Rng rng(19);
    for (int i = 0; i < 300; ++i)
        rig.fetch(mem, rng.below(1024) * kLineBytes);
    rig.channel.setCompressionEnabled(false);
    for (int i = 0; i < 300; ++i)
        rig.fetch(mem, rng.below(1024) * kLineBytes);
    rig.channel.setCompressionEnabled(true);
    unsigned with_refs = 0;
    for (int i = 0; i < 300; ++i) {
        auto addr = rng.below(1024) * kLineBytes;
        if (rig.remote.probe(addr))
            continue;
        auto r = rig.fetch(mem, addr);
        if (r.response.nrefs)
            ++with_refs;
    }
    EXPECT_GT(with_refs, 0u); // metadata survived the off period
}

TEST(Channel, DelegateEngineSweepAllWork)
{
    for (const std::string engine :
         {"lbe", "cpack", "cpack128", "gzip", "oracle", "bdi"}) {
        CableConfig cfg;
        cfg.engine = engine;
        Rig rig(cfg);
        SyntheticMemory mem(similarValues(), 0, 20);
        Rng rng(21);
        for (int i = 0; i < 800; ++i)
            rig.fetch(mem, rng.below(2048) * kLineBytes,
                      rng.chance(0.2));
        EXPECT_GE(rig.channel.compressionRatio(), 1.0) << engine;
    }
}

TEST(Channel, MaxRefsRespected)
{
    CableConfig cfg;
    cfg.max_refs = 2;
    Rig rig(cfg);
    SyntheticMemory mem(similarValues(), 0, 22);
    Rng rng(23);
    for (int i = 0; i < 1000; ++i) {
        auto addr = rng.below(2048) * kLineBytes;
        if (rig.remote.probe(addr))
            continue;
        auto r = rig.fetch(mem, addr);
        EXPECT_LE(r.response.nrefs, 2u);
    }
    EXPECT_EQ(rig.channel.stats().get("refs_3"), 0u);
}

TEST(Channel, WritebackCompressionCanBeDisabled)
{
    CableConfig cfg;
    cfg.writeback_compression = false;
    Rig rig(cfg);
    SyntheticMemory mem(similarValues(), 0, 24);
    rig.fetch(mem, 0x8000);
    rig.channel.remoteUpgrade(0x8000);
    CacheLine d = mem.lineAt(0x8000);
    d.setWord(1, 99);
    rig.remote.writeLine(0x8000, d, true);
    auto wb = rig.channel.remoteEvictSlot(rig.remote.find(0x8000));
    ASSERT_TRUE(wb.has_value());
    EXPECT_TRUE(wb->raw);
}

TEST(Channel, StatsAccumulateConsistently)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 25);
    Rng rng(26);
    for (int i = 0; i < 1000; ++i)
        rig.fetch(mem, rng.below(4096) * kLineBytes, rng.chance(0.3));
    const StatSet &s = rig.channel.stats();
    EXPECT_EQ(s.get("transfers"),
              s.get("responses") + s.get("wb_transfers"));
    EXPECT_EQ(s.get("raw_bits"),
              s.get("resp_raw_bits") + s.get("wb_raw_bits"));
    EXPECT_EQ(s.get("wire_bits"),
              s.get("resp_wire_bits") + s.get("wb_wire_bits"));
    EXPECT_EQ(s.get("responses"),
              s.get("refs_0") + s.get("refs_1") + s.get("refs_2")
                  + s.get("refs_3"));
}

// ---------------------------------------------------------------------
// Direction asymmetries of the shared encode path
// ---------------------------------------------------------------------

namespace
{

/** Stats and every write-back transfer of one mixed-traffic run. */
struct MixedRun
{
    StatSet stats;
    std::vector<Transfer> writebacks;
};

/**
 * Drives a seed-fixed load/store mix through a channel built with
 * @p cfg and calls @p fn(channel, transfer, line) on every transfer
 * right after it crossed, while the receiver still holds the data
 * the frame was encoded against; @p line is what the frame carried.
 * Victims are vacated before the home fill (the ordering the
 * non-inclusive mode needs; valid for the inclusive one too), and
 * stores diverge the remote copy so write-backs carry new data.
 * Without a fault model the representation a transfer picks never
 * changes cache or metadata state, so runs that differ only in an
 * encode gate see the same traffic. Returns the channel's stats.
 */
template <class Fn>
StatSet
driveMixed(const CableConfig &cfg, Fn &&fn)
{
    Cache home({"home", 1u << 20, 8});
    Cache remote({"remote", 128u << 10, 8});
    CableChannel channel(home, remote, cfg);
    SyntheticMemory mem(similarValues(), 0, 31);
    Rng rng(32);
    auto landed = [&](Addr a) { return home.lineAt(home.find(a)); };
    for (int i = 0; i < 4000; ++i) {
        Addr addr = rng.below(1 << 12) * kLineBytes;
        bool store = rng.chance(0.3);
        if (remote.access(addr)) {
            if (store && !remote.dirtyAt(remote.find(addr)))
                channel.remoteUpgrade(addr);
        } else {
            LineID victim(remote.setOf(addr), remote.victimWay(addr));
            Addr vaddr = remote.validAt(victim) ? remote.addrAt(victim) : 0;
            if (auto wb = channel.remoteEvictSlot(victim))
                fn(channel, *wb, landed(vaddr));
            if (!home.probe(addr)) {
                HomeInstallResult r =
                    channel.homeInstall(addr, mem.lineAt(addr));
                if (r.backinval_writeback)
                    fn(channel, *r.backinval_writeback,
                       r.memory_writeback->data);
            }
            Transfer t = channel.respondAndInstall(addr, victim.way, store);
            fn(channel, t, remote.lineAt(remote.find(addr)));
        }
        if (store) {
            CacheLine d = remote.lineAt(remote.find(addr));
            d.setWord(5, d.word(5) ^ 0x5a5a0000u);
            remote.writeLine(addr, d, true);
        }
    }
    return channel.stats();
}

MixedRun
runMixed(const CableConfig &cfg)
{
    MixedRun run;
    run.stats = driveMixed(
        cfg, [&](CableChannel &, const Transfer &t, const CacheLine &) {
            if (t.writeback)
                run.writebacks.push_back(t);
        });
    return run;
}

} // namespace

TEST(Channel, DirectionAsymmetriesArePinned)
{
    // Responses and write-backs share one encode routine; what still
    // differs between them is configuration data on the direction.
    // Each case flips one gate and checks it moves only its own
    // direction's counters against a default-config run.
    const MixedRun baseline = runMixed(CableConfig{});
    const StatSet &b = baseline.stats;
    ASSERT_GT(b.get("searches"), 0u);
    ASSERT_GT(b.get("wb_searches"), 0u);
    ASSERT_GT(b.get("ht_hits"), 0u);

    struct Case
    {
        const char *name;
        void (*tweak)(CableConfig &);
        void (*check)(const StatSet &base, const MixedRun &run);
    };
    const Case cases[] = {
        {"self_ratio_threshold=0 (response-only early-out)",
         [](CableConfig &c) { c.self_ratio_threshold = 0.0; },
         [](const StatSet &base, const MixedRun &run) {
             const StatSet &s = run.stats;
             EXPECT_LT(s.get("searches"), base.get("searches"));
             EXPECT_EQ(s.get("wb_searches"), base.get("wb_searches"));
             EXPECT_GT(s.get("self_threshold_hits"), 0u);
             EXPECT_LE(s.get("self_threshold_hits"),
                       s.get("responses"));
         }},
        {"inclusive=false (write-backs self-or-raw)",
         [](CableConfig &c) { c.inclusive = false; },
         [](const StatSet &, const MixedRun &run) {
             EXPECT_EQ(run.stats.get("wb_searches"), 0u);
             EXPECT_GT(run.stats.get("searches"), 0u);
             EXPECT_FALSE(run.writebacks.empty());
             for (const Transfer &t : run.writebacks)
                 EXPECT_EQ(t.nrefs, 0u);
         }},
        {"writeback_compression=false (write-backs raw)",
         [](CableConfig &c) { c.writeback_compression = false; },
         [](const StatSet &base, const MixedRun &run) {
             const StatSet &s = run.stats;
             EXPECT_EQ(s.get("wb_searches"), 0u);
             // Equal to the default run, where write-backs searched:
             // ht_hits counts response probes only.
             EXPECT_EQ(s.get("searches"), base.get("searches"));
             EXPECT_EQ(s.get("ht_hits"), base.get("ht_hits"));
             EXPECT_FALSE(run.writebacks.empty());
             for (const Transfer &t : run.writebacks)
                 EXPECT_TRUE(t.raw);
         }},
    };
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        CableConfig cfg;
        c.tweak(cfg);
        c.check(b, runMixed(cfg));
    }
}

// ---------------------------------------------------------------------
// The link frame: one walk writes and reads it
// ---------------------------------------------------------------------

TEST(Frame, HeaderWalkRoundTripsEveryShape)
{
    // Raw, self-only and 1-3 references over several geometries:
    // direct-mapped, a way count that is not a power of two, one set.
    Rng rng(41);
    const std::pair<std::uint32_t, unsigned> geoms[] = {
        {256, 8}, {1024, 1}, {64, 12}, {1, 16}};
    for (const auto &[sets, ways] : geoms) {
        const RlidFormat fmt(sets, ways);
        for (int shape = -1; shape <= int{kWireMaxRefs}; ++shape) {
            SCOPED_TRACE(std::to_string(sets) + "x" + std::to_string(ways)
                         + " shape " + std::to_string(shape));
            FrameHeader h;
            h.compressed = shape >= 0;
            h.nrefs = shape > 0 ? static_cast<unsigned>(shape) : 0;
            for (unsigned i = 0; i < h.nrefs; ++i)
                h.refs[i] = LineID(
                    static_cast<std::uint32_t>(rng.below(sets)),
                    static_cast<std::uint8_t>(rng.below(ways)));
            BitWriter bw;
            putFrameHeader(bw, h, fmt);
            EXPECT_EQ(bw.sizeBits(),
                      h.compressed ? kWireCompressedHeaderBits
                                         + h.nrefs * fmt.bits()
                                   : kWireRawHeaderBits);
            BitReader br(bw.bits());
            FrameHeader got;
            ASSERT_EQ(getFrameHeader(br, got, fmt), FrameError::None);
            EXPECT_TRUE(br.exhausted());
            EXPECT_EQ(got.compressed, h.compressed);
            ASSERT_EQ(got.nrefs, h.nrefs);
            for (unsigned i = 0; i < h.nrefs; ++i)
                EXPECT_EQ(got.refs[i], h.refs[i]);
        }
    }
}

namespace
{

/** "response raw", "write-back 2 refs", ... */
std::string
shapeOf(const Transfer &t)
{
    std::string dir = t.writeback ? "write-back " : "response ";
    if (t.raw)
        return dir + "raw";
    if (t.self_only)
        return dir + "self";
    return dir + std::to_string(t.nrefs) + " refs";
}

} // namespace

TEST(Frame, ReceiverDecodesEveryShapeInBothDirections)
{
    std::map<std::string, unsigned> seen;
    driveMixed(CableConfig{}, [&](CableChannel &ch, const Transfer &t,
                                  const CacheLine &line) {
        SCOPED_TRACE(shapeOf(t));
        const FrameDecode d = ch.decodeFrame(t.wire, t.bits, t.writeback);
        ASSERT_TRUE(d.ok()) << frameErrorName(d.error);
        EXPECT_EQ(d.line, line);
        EXPECT_EQ(d.header.compressed, !t.raw);
        EXPECT_EQ(d.header.nrefs, t.nrefs);
        ++seen[shapeOf(t)];
    });
    for (const char *dir : {"response ", "write-back "})
        for (const char *shape : {"raw", "self", "1 refs", "2 refs",
                                  "3 refs"})
            EXPECT_GT(seen[std::string(dir) + shape], 0u)
                << dir << shape;
}

TEST(Frame, CutOrFlippedFramesGetATypedErrorOrALine)
{
    // The first frames of each shape: every strict prefix must fail
    // as truncated, and every single-bit flip must give a typed error
    // or a line. ASan and the standard library's assertions catch any
    // read of a cache or WMT slot out of range.
    std::map<std::string, unsigned> probed;
    unsigned flips_ok = 0, flips_failed = 0;
    driveMixed(CableConfig{}, [&](CableChannel &ch, const Transfer &t,
                                  const CacheLine &) {
        if (probed[shapeOf(t)]++ >= 2)
            return;
        SCOPED_TRACE(shapeOf(t));
        BitVec cut;
        for (std::size_t n = 0; n < t.bits; ++n) {
            const FrameDecode d = ch.decodeFrame(cut, t.bits, t.writeback);
            ASSERT_FALSE(d.ok()) << "cut to " << n << " bits";
            const bool truncated =
                d.error == FrameError::Truncated
                || (d.error == FrameError::BadDiff
                    && d.diff == DecodeError::Truncated);
            ASSERT_TRUE(truncated)
                << "cut to " << n << " bits: " << frameErrorName(d.error);
            cut.pushBit(t.wire.bit(n));
        }
        for (std::size_t i = 0; i < t.wire.sizeBits(); ++i) {
            BitVec flipped = t.wire;
            flipped.flipBit(i);
            const FrameDecode d =
                ch.decodeFrame(flipped, t.bits, t.writeback);
            ++(d.ok() ? flips_ok : flips_failed);
        }
    });
    EXPECT_EQ(probed.size(), 10u);
    EXPECT_GT(flips_ok, 0u);
    EXPECT_GT(flips_failed, 0u);
}

TEST(Frame, BitsAfterTheFrameAreATypedError)
{
    // A whole frame with 16 more payload bits planted after it: the
    // header and the DIFF (or raw line) end before the payload end,
    // so the frame must not decode as the line it carries.
    std::map<std::string, unsigned> probed;
    driveMixed(CableConfig{}, [&](CableChannel &ch, const Transfer &t,
                                  const CacheLine &) {
        if (probed[shapeOf(t)]++ >= 2)
            return;
        SCOPED_TRACE(shapeOf(t));
        BitVec planted;
        for (std::size_t n = 0; n < t.bits; ++n)
            planted.pushBit(t.wire.bit(n));
        for (unsigned n = 0; n < 16; ++n)
            planted.pushBit(n % 3 == 0);
        const FrameDecode d =
            ch.decodeFrame(planted, planted.sizeBits(), t.writeback);
        EXPECT_EQ(d.error, FrameError::TrailingBits)
            << frameErrorName(d.error);
    });
    EXPECT_EQ(probed.size(), 10u);
}

TEST(Frame, DirectMappedRemoteRejectsWayOne)
{
    // One way still gets a one-bit way field, so a frame can name a
    // way the remote cache does not have.
    Cache home({"home", 256u << 10, 8});
    Cache remote({"remote", 16u << 10, 1});
    CableChannel channel(home, remote, CableConfig{});
    const RlidFormat fmt(remote.numSets(), remote.numWays());
    ASSERT_EQ(fmt.way_bits, 1u);
    auto frameNaming = [&](std::uint8_t way) {
        FrameHeader h;
        h.compressed = true;
        h.nrefs = 1;
        h.refs[0] = LineID(3, way);
        BitWriter bw;
        putFrameHeader(bw, h, fmt);
        bw.put(0, 64); // DIFF bits
        return bw.take();
    };
    for (bool writeback : {false, true}) {
        SCOPED_TRACE(writeback ? "write-back" : "response");
        const BitVec bad = frameNaming(1);
        const FrameDecode d =
            channel.decodeFrame(bad, bad.sizeBits(), writeback);
        EXPECT_STREQ(frameErrorName(d.error), "RemoteLID out of range");
        const BitVec good = frameNaming(0);
        const FrameDecode ok =
            channel.decodeFrame(good, good.sizeBits(), writeback);
        EXPECT_NE(ok.error, FrameError::BadRemoteLid);
    }
}
