/**
 * @file
 * LinkProtocol tests: the scheme abstraction both simulators drive.
 * Covers the raw baseline, streaming baselines, CABLE wrapping, the
 * Table IV latency table and the back-invalidation hook contract.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "sim/protocol.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

struct Rig
{
    Cache home;
    Cache remote;
    LinkProtocolPtr proto;

    explicit Rig(const std::string &scheme,
                 std::uint64_t home_bytes = 512u << 10,
                 std::uint64_t remote_bytes = 128u << 10)
        : home({"home", home_bytes, 8}),
          remote({"remote", remote_bytes, 8})
    {
        proto = makeLinkProtocol(scheme, home, remote, CableConfig{});
    }

    Transfer
    fetch(SyntheticMemory &mem, Addr addr)
    {
        if (!home.probe(addr))
            proto->homeFill(addr, mem.lineAt(addr));
        std::uint8_t vway = remote.victimWay(addr);
        proto->evictRemoteSlot(LineID(remote.setOf(addr), vway));
        return proto->respond(addr, vway);
    }
};

ValueProfile
compressible()
{
    ValueProfile v;
    v.zero_line_frac = 0.3;
    v.template_count = 8;
    v.mutation_rate = 0.05;
    return v;
}

} // namespace

TEST(SchemeLatencyTable, MatchesTable4)
{
    EXPECT_EQ(schemeLatency("raw").comp, 0u);
    EXPECT_EQ(schemeLatency("cpack").comp, 8u);
    EXPECT_EQ(schemeLatency("cpack").decomp, 8u);
    EXPECT_EQ(schemeLatency("gzip").comp, 64u);
    EXPECT_EQ(schemeLatency("gzip").decomp, 32u);
    EXPECT_EQ(schemeLatency("cable").comp, 32u);
    EXPECT_EQ(schemeLatency("cable").decomp, 16u);
    EXPECT_EXIT(schemeLatency("wat"), ::testing::ExitedWithCode(1),
                "unknown scheme");
}

TEST(SchemeLatencyTable, EveryNamedSchemeRunsALink)
{
    // schemeNames() is the list `--scheme` accepts: each name needs a
    // latency row and must build a protocol that moves a line.
    std::vector<std::string> names = schemeNames();
    EXPECT_EQ(names.size(), 10u);
    SyntheticMemory mem(compressible(), 0, 1);
    for (const std::string &name : names) {
        SCOPED_TRACE(name);
        (void)schemeLatency(name);
        Rig rig(name);
        Transfer t = rig.fetch(mem, 0x1000);
        EXPECT_EQ(t.raw_bits, 512u);
        EXPECT_TRUE(rig.remote.probe(0x1000));
    }
}

TEST(Protocol, RawSends512Bits)
{
    Rig rig("raw");
    SyntheticMemory mem(compressible(), 0, 1);
    Transfer t = rig.fetch(mem, 0x1000);
    EXPECT_EQ(t.bits, 512u);
    EXPECT_TRUE(t.raw);
    EXPECT_DOUBLE_EQ(rig.proto->bitRatio(), 1.0);
}

TEST(Protocol, StreamingSchemesCompress)
{
    for (const std::string scheme :
         {"bdi", "cpack", "cpack128", "lbe256", "gzip"}) {
        Rig rig(scheme);
        SyntheticMemory mem(compressible(), 0, 2);
        for (unsigned i = 0; i < 200; ++i)
            rig.fetch(mem, i * kLineBytes);
        EXPECT_GT(rig.proto->bitRatio(), 1.2) << scheme;
        EXPECT_EQ(rig.proto->schemeName(), scheme);
    }
}

TEST(Protocol, CableCompressesBestOnTemplatedData)
{
    Rig cable("cable");
    Rig cpack("cpack");
    SyntheticMemory m1(compressible(), 0, 3), m2(compressible(), 0, 3);
    for (unsigned i = 0; i < 400; ++i) {
        cable.fetch(m1, i * kLineBytes);
        cpack.fetch(m2, i * kLineBytes);
    }
    EXPECT_GT(cable.proto->bitRatio(), cpack.proto->bitRatio());
}

TEST(Protocol, DirtyUpdateThenEvictionWritesBack)
{
    Rig rig("cpack");
    SyntheticMemory mem(compressible(), 0, 4);
    rig.fetch(mem, 0x2000);
    CacheLine d = mem.lineAt(0x2000);
    d.setWord(0, 0x777);
    rig.proto->dirtyUpdate(0x2000, d);
    auto wb = rig.proto->evictRemoteSlot(rig.remote.find(0x2000));
    ASSERT_TRUE(wb.has_value());
    EXPECT_TRUE(wb->writeback);
    EXPECT_EQ(rig.home.lineAt(rig.home.find(0x2000)), d);
}

TEST(Protocol, HomeFillReportsDirtyMemoryWriteback)
{
    // Tiny home so fills evict.
    Rig rig("cpack", /*home=*/8u << 10, /*remote=*/4u << 10);
    SyntheticMemory mem(compressible(), 0, 5);
    Rng rng(6);
    bool saw_mem_wb = false;
    for (int i = 0; i < 2000 && !saw_mem_wb; ++i) {
        Addr addr = rng.below(2048) * kLineBytes;
        if (rig.remote.probe(addr)) {
            CacheLine d = mem.lineAt(addr);
            d.setWord(1, static_cast<std::uint32_t>(i));
            rig.proto->dirtyUpdate(addr, d);
            continue;
        }
        if (!rig.home.probe(addr)) {
            auto r = rig.proto->homeFill(addr, mem.lineAt(addr));
            saw_mem_wb |= r.memory_writeback.has_value();
        }
        std::uint8_t vway = rig.remote.victimWay(addr);
        rig.proto->evictRemoteSlot(
            LineID(rig.remote.setOf(addr), vway));
        rig.proto->respond(addr, vway);
    }
    EXPECT_TRUE(saw_mem_wb);
}

TEST(Protocol, BackinvalHookFiresForRemoteResidentVictims)
{
    Rig rig("cpack", /*home=*/8u << 10, /*remote=*/8u << 10);
    SyntheticMemory mem(compressible(), 0, 7);
    int hook_calls = 0;
    rig.proto->setBackinvalHook([&](Addr) { ++hook_calls; });
    Rng rng(8);
    for (int i = 0; i < 2000; ++i) {
        Addr addr = rng.below(1024) * kLineBytes;
        if (rig.remote.probe(addr))
            continue;
        rig.fetch(mem, addr);
    }
    EXPECT_GT(hook_calls, 0);
    EXPECT_GT(rig.proto->stats().get("back_invalidations"), 0u);
}

TEST(Protocol, DisableCompressionMidStream)
{
    Rig rig("cpack128");
    SyntheticMemory mem(compressible(), 0, 9);
    for (unsigned i = 0; i < 50; ++i)
        rig.fetch(mem, i * kLineBytes);
    rig.proto->setCompressionEnabled(false);
    Transfer t = rig.fetch(mem, 999 * kLineBytes);
    EXPECT_TRUE(t.raw);
    EXPECT_EQ(t.bits, 512u);
    rig.proto->setCompressionEnabled(true);
    Transfer t2 = rig.fetch(mem, 1000 * kLineBytes);
    EXPECT_FALSE(t2.raw);
}

TEST(Protocol, FactoryDispatch)
{
    Cache h({"h", 64 << 10, 8}), r({"r", 32 << 10, 8});
    auto cable = makeLinkProtocol("cable", h, r, CableConfig{});
    EXPECT_EQ(cable->schemeName(), "cable");
    auto gz = makeLinkProtocol("gzip", h, r, CableConfig{});
    EXPECT_EQ(gz->schemeName(), "gzip");
}

TEST(Protocol, StreamRespondInstallsShared)
{
    Rig rig("gzip");
    SyntheticMemory mem(compressible(), 0, 10);
    rig.fetch(mem, 0x3000);
    LineID rlid = rig.remote.find(0x3000);
    ASSERT_TRUE(rlid.valid);
    EXPECT_FALSE(rig.remote.dirtyAt(rlid));
    EXPECT_EQ(rig.remote.lineAt(rlid), mem.lineAt(0x3000));
}
