/**
 * @file
 * Eviction-buffer tests (§IV-A): sequence numbers, acknowledgement
 * retirement, capacity, and lookup of recently evicted lines —
 * including the double-eviction-of-one-slot case.
 */

#include <gtest/gtest.h>

#include "common/alloc_guard.h"
#include "core/eviction_buffer.h"

using namespace cable;

TEST(EvictionBuffer, PushAssignsMonotonicSeq)
{
    EvictionBuffer buf(4);
    auto s1 = buf.push(LineID(1, 0), CacheLine::filledWords(1));
    auto s2 = buf.push(LineID(2, 0), CacheLine::filledWords(2));
    EXPECT_LT(s1, s2);
    EXPECT_EQ(buf.lastSeq(), s2);
    EXPECT_EQ(buf.size(), 2u);
}

TEST(EvictionBuffer, FindReturnsData)
{
    EvictionBuffer buf(4);
    buf.push(LineID(3, 1), CacheLine::filledWords(0xaa));
    auto hit = buf.find(LineID(3, 1));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, CacheLine::filledWords(0xaa));
    EXPECT_FALSE(buf.find(LineID(9, 9)).has_value());
}

TEST(EvictionBuffer, AcknowledgeRetiresPrefix)
{
    EvictionBuffer buf(8);
    auto s1 = buf.push(LineID(1, 0), CacheLine{});
    buf.push(LineID(2, 0), CacheLine{});
    auto s3 = buf.push(LineID(3, 0), CacheLine{});
    buf.acknowledge(s1);
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_FALSE(buf.find(LineID(1, 0)).has_value());
    buf.acknowledge(s3);
    EXPECT_EQ(buf.size(), 0u);
}

TEST(EvictionBuffer, CapacityDropsOldest)
{
    EvictionBuffer buf(2);
    buf.push(LineID(1, 0), CacheLine::filledWords(1));
    buf.push(LineID(2, 0), CacheLine::filledWords(2));
    buf.push(LineID(3, 0), CacheLine::filledWords(3));
    EXPECT_EQ(buf.size(), 2u);
    EXPECT_FALSE(buf.find(LineID(1, 0)).has_value());
    EXPECT_TRUE(buf.find(LineID(3, 0)).has_value());
}

TEST(EvictionBuffer, SameSlotEvictedTwiceReturnsNewest)
{
    // A remote slot can be evicted, refilled and evicted again while
    // the first copy is still unacknowledged; lookups must see the
    // newest eviction.
    EvictionBuffer buf(4);
    buf.push(LineID(5, 2), CacheLine::filledWords(0x11));
    buf.push(LineID(5, 2), CacheLine::filledWords(0x22));
    auto hit = buf.find(LineID(5, 2));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, CacheLine::filledWords(0x22));
}

TEST(EvictionBuffer, AcknowledgeIsIdempotent)
{
    EvictionBuffer buf(4);
    auto s = buf.push(LineID(1, 0), CacheLine{});
    buf.acknowledge(s);
    buf.acknowledge(s);
    buf.acknowledge(s + 100);
    EXPECT_EQ(buf.size(), 0u);
}

TEST(EvictionBuffer, OutOfOrderRaceScenario)
{
    // §IV-A scenario: the home cache selected a reference while the
    // remote was evicting it. The response arrives referencing slot
    // (7,3); the cache slot now holds something else, but the buffer
    // still has the old data until the home acks the EvictSeq.
    EvictionBuffer buf(8);
    CacheLine old_ref = CacheLine::filledWords(0xdead);
    auto seq = buf.push(LineID(7, 3), old_ref);

    // Response in flight uses the buffered copy.
    auto hit = buf.find(LineID(7, 3));
    ASSERT_TRUE(hit.has_value());
    EXPECT_EQ(*hit, old_ref);

    // Home echoes the EvictSeq; now the entry may retire.
    buf.acknowledge(seq);
    EXPECT_FALSE(buf.find(LineID(7, 3)).has_value());
}

TEST(EvictionBuffer, SteadyStateTrafficIsAllocationFree)
{
    // The entries live in a ring sized at construction: after a
    // warm-up that wraps it, pushes (with overflow drops),
    // acknowledgements and lookups allocate nothing.
    ASSERT_TRUE(alloc_guard::hooksLinked());
    EvictionBuffer buf(16);
    for (std::uint32_t i = 0; i < 40; ++i)
        buf.push(LineID(i, 0), CacheLine::filledWords(i));
    alloc_guard::Scope guard;
    std::uint64_t hits = 0;
    for (std::uint32_t i = 0; i < 1000; ++i) {
        std::uint64_t seq = buf.push(LineID(i % 64, 1),
                                     CacheLine::filledWords(i));
        hits += buf.find(LineID((i + 60) % 64, 1)).has_value();
        if (i % 5 == 0)
            buf.acknowledge(seq - 3);
    }
    EXPECT_EQ(guard.allocations(), 0u);
    EXPECT_GT(hits, 0u);
    EXPECT_LE(buf.size(), buf.capacity());
}

TEST(EvictionBuffer, RingKeepsOldestToNewestOrderAcrossTheWrap)
{
    EvictionBuffer buf(3);
    for (std::uint32_t i = 1; i <= 7; ++i)
        buf.push(LineID(i, 0), CacheLine::filledWords(i));
    // Entries 5, 6, 7 remain; acknowledging through 6 leaves 7.
    EXPECT_EQ(buf.size(), 3u);
    EXPECT_FALSE(buf.find(LineID(4, 0)).has_value());
    buf.acknowledge(6);
    EXPECT_EQ(buf.size(), 1u);
    EXPECT_FALSE(buf.find(LineID(6, 0)).has_value());
    ASSERT_TRUE(buf.find(LineID(7, 0)).has_value());
    EXPECT_EQ(*buf.find(LineID(7, 0)), CacheLine::filledWords(7));
    StatSet s;
    buf.snapshot(s, "");
    EXPECT_EQ(s.get("overflow_drops"), 4u);
    EXPECT_EQ(s.get("retired"), 2u);
}
