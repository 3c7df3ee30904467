/**
 * @file
 * §IV-C non-inclusive extension tests: home evictions detach CABLE
 * metadata without back-invalidating the remote copy; write-backs
 * fall back to non-dictionary compression; dirty evictions of lines
 * the home no longer holds re-allocate at the home agent.
 */

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "common/rng.h"
#include "core/channel.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

struct Rig
{
    Cache home;
    Cache remote;
    CableChannel channel;

    explicit Rig(std::uint64_t home_bytes = 64u << 10,
                 std::uint64_t remote_bytes = 64u << 10)
        : home({"home", home_bytes, 8}),
          remote({"remote", remote_bytes, 8}),
          channel(home, remote,
                  [] {
                      CableConfig c;
                      c.inclusive = false;
                      return c;
                  }())
    {
    }

    void
    fetch(SyntheticMemory &mem, Addr addr, bool store = false)
    {
        if (remote.access(addr)) {
            if (store && !remote.dirtyAt(remote.find(addr)))
                channel.remoteUpgrade(addr);
            return;
        }
        // Non-inclusive ordering: vacate the victim first — its
        // write-back may itself allocate at the home — and only then
        // ensure the requested line is home-resident.
        std::uint8_t vway = remote.victimWay(addr);
        (void)channel.remoteEvictSlot(LineID(remote.setOf(addr), vway));
        if (!home.probe(addr))
            (void)channel.homeInstall(addr, mem.lineAt(addr));
        (void)channel.respondAndInstall(addr, vway, store);
    }
};

ValueProfile
values()
{
    ValueProfile v;
    v.template_count = 16;
    v.mutation_rate = 0.05;
    return v;
}

} // namespace

TEST(NonInclusive, HomeEvictionKeepsRemoteCopy)
{
    // Home as small as the remote: home evictions displace lines the
    // remote still caches; non-inclusive mode must keep them there.
    Rig rig;
    SyntheticMemory mem(values(), 0, 1);
    Rng rng(2);
    for (int i = 0; i < 6000; ++i)
        rig.fetch(mem, rng.below(4096) * kLineBytes);

    EXPECT_GT(rig.channel.stats().get("noninclusive_detaches"), 0u);
    EXPECT_EQ(rig.channel.stats().get("back_invalidations"), 0u);
    // At least one remote-resident line is absent from the home.
    unsigned orphans = 0;
    for (std::uint32_t set = 0; set < rig.remote.numSets(); ++set)
        for (unsigned w = 0; w < rig.remote.numWays(); ++w) {
            LineID lid(set, static_cast<std::uint8_t>(w));
            if (rig.remote.validAt(lid)
                && !rig.home.probe(rig.remote.addrAt(lid)))
                ++orphans;
        }
    EXPECT_GT(orphans, 0u);
}

TEST(NonInclusive, LongRandomRunStaysConsistent)
{
    // The built-in round-trip verification covers every transfer;
    // surviving a store-heavy run with constant home evictions is
    // the correctness statement.
    Rig rig;
    SyntheticMemory mem(values(), 0, 3);
    Rng rng(4);
    for (int i = 0; i < 10000; ++i)
        rig.fetch(mem, rng.below(4096) * kLineBytes,
                  rng.chance(0.3));
    EXPECT_GE(rig.channel.compressionRatio(), 1.0);
}

TEST(NonInclusive, WritebacksAvoidDictionary)
{
    Rig rig;
    SyntheticMemory mem(values(), 0, 5);
    rig.fetch(mem, 0x1000);
    rig.channel.remoteUpgrade(0x1000);
    CacheLine d = mem.lineAt(0x1000);
    d.setWord(2, 0xabcd);
    rig.remote.writeLine(0x1000, d, true);
    auto wb = rig.channel.remoteEvictSlot(rig.remote.find(0x1000));
    ASSERT_TRUE(wb.has_value());
    EXPECT_EQ(wb->nrefs, 0u); // non-dictionary fallback (§IV-C)
}

TEST(NonInclusive, DirtyEvictionOfOrphanReallocatesAtHome)
{
    Rig rig;
    SyntheticMemory mem(values(), 0, 6);
    Rng rng(7);

    // Dirty a line, then thrash the home until it loses the line.
    rig.fetch(mem, 0, /*store=*/false);
    rig.channel.remoteUpgrade(0);
    CacheLine d = mem.lineAt(0);
    d.setWord(0, 0x1234);
    rig.remote.writeLine(0, d, true);
    int guard = 0;
    while (rig.home.probe(0) && guard++ < 20000) {
        Addr a = (rng.below(4096) + 1) * kLineBytes;
        if (!rig.home.probe(a))
            (void)rig.channel.homeInstall(a, mem.lineAt(a));
    }
    ASSERT_FALSE(rig.home.probe(0));
    ASSERT_TRUE(rig.remote.probe(0));

    // The write-back must re-allocate the line at the home agent.
    auto wb = rig.channel.remoteEvictSlot(rig.remote.find(0));
    ASSERT_TRUE(wb.has_value());
    ASSERT_TRUE(rig.home.probe(0));
    EXPECT_EQ(rig.home.lineAt(rig.home.find(0)), d);
    EXPECT_TRUE(rig.home.dirtyAt(rig.home.find(0)));
}

TEST(NonInclusive, ResponsesStillUseReferences)
{
    // Opportunistic sharing still works while both caches hold the
    // tracked lines.
    Rig rig(256u << 10, 64u << 10); // roomy home
    SyntheticMemory mem(values(), 0, 8);
    unsigned with_refs = 0;
    for (unsigned i = 0; i < 512; ++i) {
        rig.fetch(mem, i * kLineBytes);
        // re-fetch misses only; count refs via stats below
    }
    with_refs = static_cast<unsigned>(
        rig.channel.stats().get("refs_1")
        + rig.channel.stats().get("refs_2")
        + rig.channel.stats().get("refs_3"));
    EXPECT_GT(with_refs, 10u);
}
