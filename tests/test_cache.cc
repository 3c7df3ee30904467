/**
 * @file
 * Cache-model tests: geometry, lookup, LRU replacement, the
 * replacement-way contract CABLE relies on, installs/evictions,
 * state transitions and LineID-based data-array reads, and the
 * private L1/L2 pair's inclusion and dirty hand-off contract. A
 * differential test drives the split key/stamp/line rows against an
 * array-of-structs reference model.
 */

#include <algorithm>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "cache/cache.h"
#include "cache/private_caches.h"
#include "common/rng.h"

using namespace cable;

namespace
{

Cache
smallCache()
{
    return Cache({"t", 4096, 4}); // 64 lines, 16 sets, 4 ways
}

CacheLine
lineOf(std::uint32_t v)
{
    return CacheLine::filledWords(v);
}

/** L1: 4 sets x 1 way; L2: 2 sets x 2 ways. Lines 0, 2 and 4 share
 *  L2 set 0; lines 0 and 4 also share L1 set 0. */
PrivateCaches
smallPair()
{
    return PrivateCaches(256, 1, 256, 2);
}

constexpr Addr kA = 0x000; // line 0
constexpr Addr kB = 0x080; // line 2
constexpr Addr kC = 0x100; // line 4

/** The line an install of @p a into @p way would displace, read from
 *  the slot before the install overwrites it. */
Eviction
displaced(const Cache &c, Addr a, std::uint8_t way)
{
    LineID lid(c.setOf(a), way);
    Eviction ev;
    if (c.validAt(lid) && c.addrAt(lid) != lineAlign(a))
        ev = {true, c.addrAt(lid), c.lineAt(lid), c.dirtyAt(lid), lid};
    return ev;
}

/** Fills L2 then L1, the order every system uses on a miss. */
void
fill(PrivateCaches &p, Addr la, std::uint32_t v)
{
    EXPECT_FALSE(p.installL2(la, lineOf(v)));
    p.installL1(la, lineOf(v));
}

} // namespace

TEST(Cache, Geometry)
{
    Cache c({"c", 1u << 20, 8});
    EXPECT_EQ(c.numLines(), (1u << 20) / 64);
    EXPECT_EQ(c.numSets(), (1u << 20) / 64 / 8);
    EXPECT_EQ(c.numWays(), 8u);
    EXPECT_EQ(c.setIndexBits(), 11u);
}

TEST(Cache, SetIndexUsesLineNumberBits)
{
    Cache c = smallCache();
    EXPECT_EQ(c.setOf(0), 0u);
    EXPECT_EQ(c.setOf(64), 1u);
    EXPECT_EQ(c.setOf(16 * 64), 0u); // wraps at 16 sets
}

TEST(Cache, MissThenHit)
{
    Cache c = smallCache();
    EXPECT_FALSE(c.probe(0x1000));
    c.install(0x1000, lineOf(1), CoherenceState::Shared);
    EXPECT_TRUE(c.probe(0x1000));
    EXPECT_TRUE(c.access(0x1000));
    LineID lid = c.find(0x1000);
    ASSERT_TRUE(lid.valid);
    EXPECT_EQ(c.lineAt(lid), lineOf(1));
    EXPECT_EQ(c.addrAt(lid), 0x1000u);
}

TEST(Cache, VictimPrefersInvalidWays)
{
    Cache c = smallCache();
    Addr base = 0; // set 0
    EXPECT_EQ(c.victimWay(base), 0);
    c.install(base, lineOf(1), CoherenceState::Shared, 0);
    EXPECT_EQ(c.victimWay(base + 16 * 64), 1);
}

TEST(Cache, LruVictimSelection)
{
    Cache c = smallCache();
    // Fill set 0 (addresses 0, 1K, 2K, 3K map to set 0: stride 16
    // lines = 1024 bytes).
    for (unsigned i = 0; i < 4; ++i)
        c.install(i * 1024, lineOf(i), CoherenceState::Shared);
    // Touch everything except way 1's line (addr 1024).
    c.access(0);
    c.access(2048);
    c.access(3072);
    EXPECT_EQ(c.victimWay(4096), 1);
    // Touch it; way 0's line (touched earliest) becomes victim.
    c.access(1024);
    EXPECT_EQ(c.victimWay(4096), 0);
}

TEST(Cache, InstallReturnsEviction)
{
    Cache c = smallCache();
    for (unsigned i = 0; i < 4; ++i)
        c.install(i * 1024, lineOf(i), CoherenceState::Shared);
    std::uint8_t way = c.victimWay(4096);
    Eviction ev = displaced(c, 4096, way);
    c.install(4096, lineOf(9), CoherenceState::Shared, way);
    ASSERT_TRUE(ev.valid);
    EXPECT_EQ(ev.addr, 0u);
    EXPECT_EQ(ev.data, lineOf(0));
    EXPECT_FALSE(ev.dirty);
    EXPECT_FALSE(c.probe(0));
    EXPECT_TRUE(c.probe(4096));
}

TEST(Cache, ReinstallSameAddressNoEviction)
{
    Cache c = smallCache();
    c.install(0x1000, lineOf(1), CoherenceState::Shared);
    LineID lid = c.find(0x1000);
    Eviction ev = displaced(c, 0x1000, lid.way);
    c.install(0x1000, lineOf(2), CoherenceState::Shared, lid.way);
    EXPECT_FALSE(ev.valid);
    EXPECT_EQ(c.lineAt(c.find(0x1000)), lineOf(2));
}

TEST(Cache, DirtyTracking)
{
    Cache c = smallCache();
    c.install(0x40, lineOf(1), CoherenceState::Shared);
    EXPECT_FALSE(c.dirtyAt(c.find(0x40)));
    c.markDirty(0x40);
    EXPECT_TRUE(c.dirtyAt(c.find(0x40)));
    c.writeLine(0x40, lineOf(3), true);
    Addr other = 0x40 + 1024 * 16 * 4;
    std::uint8_t way = c.find(0x40).way;
    Eviction ev = displaced(c, other, way);
    c.install(other, lineOf(7), CoherenceState::Shared, way);
    ASSERT_TRUE(ev.valid);
    EXPECT_TRUE(ev.dirty);
    EXPECT_EQ(ev.data, lineOf(3));
}

TEST(Cache, WriteLineWithoutDirtying)
{
    Cache c = smallCache();
    c.install(0x80, lineOf(1), CoherenceState::Shared);
    c.writeLine(0x80, lineOf(2), false);
    EXPECT_FALSE(c.dirtyAt(c.find(0x80)));
    EXPECT_EQ(c.lineAt(c.find(0x80)), lineOf(2));
}

TEST(Cache, Invalidate)
{
    Cache c = smallCache();
    c.install(0xc0, lineOf(1), CoherenceState::Shared);
    LineID lid = c.invalidate(0xc0);
    EXPECT_TRUE(lid.valid);
    EXPECT_FALSE(c.probe(0xc0));
    EXPECT_FALSE(c.invalidate(0xc0).valid);
}

TEST(Cache, Clear)
{
    Cache c = smallCache();
    c.install(0x100, lineOf(1), CoherenceState::Shared);
    c.clear();
    EXPECT_FALSE(c.probe(0x100));
    EXPECT_EQ(c.victimWay(0x100), 0);
}

TEST(Cache, ProbeDoesNotTouchLru)
{
    Cache c = smallCache();
    for (unsigned i = 0; i < 4; ++i)
        c.install(i * 1024, lineOf(i), CoherenceState::Shared);
    c.probe(0); // must NOT refresh way 0
    EXPECT_EQ(c.victimWay(4096), 0);
}

TEST(Cache, DirectMapped)
{
    Cache c({"dm", 1024, 1}); // 16 sets, 1 way
    c.install(0, lineOf(1), CoherenceState::Shared);
    Eviction ev = displaced(c, 1024, 0);
    c.install(1024, lineOf(2), CoherenceState::Shared, 0);
    EXPECT_TRUE(ev.valid);
    EXPECT_EQ(ev.addr, 0u);
}

TEST(CacheDeath, BadGeometryIsFatal)
{
    EXPECT_EXIT(Cache({"bad", 1000, 3}),
                ::testing::ExitedWithCode(1), "");
    EXPECT_EXIT(Cache({"bad", 64 * 3, 1}),
                ::testing::ExitedWithCode(1), "power of two");
}

TEST(CacheDeath, WriteLineToMissingLinePanics)
{
    Cache c = smallCache();
    EXPECT_DEATH(c.writeLine(0x4000, CacheLine{}, true),
                 "non-resident");
}

TEST(CachePolicy, FifoEvictsOldestInstall)
{
    Cache c({"fifo", 4096, 4, ReplacementPolicy::FIFO});
    for (unsigned i = 0; i < 4; ++i)
        c.install(i * 1024, lineOf(i), CoherenceState::Shared);
    // Touch way 0's line; FIFO must still evict it (oldest install).
    c.access(0);
    c.access(0);
    EXPECT_EQ(c.victimWay(4096), 0);
}

TEST(CachePolicy, RandomIsDeterministicPerSequence)
{
    Cache a({"r1", 4096, 4, ReplacementPolicy::Random});
    Cache b({"r2", 4096, 4, ReplacementPolicy::Random});
    for (unsigned i = 0; i < 4; ++i) {
        a.install(i * 1024, lineOf(i), CoherenceState::Shared);
        b.install(i * 1024, lineOf(i), CoherenceState::Shared);
    }
    for (int i = 0; i < 16; ++i)
        EXPECT_EQ(a.victimWay(4096), b.victimWay(4096));
}

TEST(CachePolicy, RandomStillPrefersInvalidWays)
{
    Cache c({"r", 4096, 4, ReplacementPolicy::Random});
    c.install(0, lineOf(1), CoherenceState::Shared, 0);
    c.install(1024, lineOf(2), CoherenceState::Shared, 1);
    EXPECT_EQ(c.victimWay(2048), 2); // first invalid way
}

namespace
{

/** Reference model: one struct per slot (tag, state, data and both
 *  stamps), the array-of-structs layout the split rows replace. */
class RefCache
{
  public:
    RefCache(unsigned sets, unsigned ways, ReplacementPolicy policy)
        : sets_(sets), ways_(ways), policy_(policy), slots_(sets * ways)
    {
    }

    struct Slot
    {
        Addr tag = 0;
        CoherenceState state = CoherenceState::Invalid;
        CacheLine data;
        std::uint64_t lru = 0, installed = 0;
        bool valid() const { return state != CoherenceState::Invalid; }
    };

    std::uint32_t
    setOf(Addr a) const
    {
        return static_cast<std::uint32_t>(lineNumber(a) & (sets_ - 1));
    }
    Slot &at(std::uint32_t set, unsigned w) { return slots_[set * ways_ + w]; }

    LineID
    find(Addr a)
    {
        for (unsigned w = 0; w < ways_; ++w) {
            const Slot &e = at(setOf(a), w);
            if (e.valid() && e.tag == lineNumber(a))
                return LineID(setOf(a), static_cast<std::uint8_t>(w));
        }
        return kInvalidLineID;
    }
    Slot &slot(LineID lid) { return at(lid.set, lid.way); }

    LineID
    access(Addr a)
    {
        LineID lid = find(a);
        if (lid.valid)
            slot(lid).lru = ++clock_;
        return lid;
    }

    std::uint8_t
    victimWay(Addr a)
    {
        std::uint8_t victim = 0;
        std::uint64_t best = ~std::uint64_t{0};
        for (unsigned w = 0; w < ways_; ++w) {
            const Slot &e = at(setOf(a), w);
            if (!e.valid())
                return static_cast<std::uint8_t>(w);
            std::uint64_t key =
                policy_ == ReplacementPolicy::FIFO ? e.installed : e.lru;
            if (key < best) {
                best = key;
                victim = static_cast<std::uint8_t>(w);
            }
        }
        if (policy_ == ReplacementPolicy::Random) {
            rand_ ^= rand_ << 13;
            rand_ ^= rand_ >> 7;
            rand_ ^= rand_ << 17;
            victim = static_cast<std::uint8_t>(rand_ % ways_);
        }
        return victim;
    }

    Eviction
    install(Addr a, const CacheLine &d, CoherenceState s, std::uint8_t w)
    {
        Slot &e = at(setOf(a), w);
        Eviction ev;
        if (e.valid() && e.tag != lineNumber(a))
            ev = {true, e.tag << kLineShift, e.data,
                  e.state == CoherenceState::Modified, LineID(setOf(a), w)};
        e = {lineNumber(a), s, d, ++clock_, clock_};
        return ev;
    }

    void
    writeLine(Addr a, const CacheLine &d, bool dirty)
    {
        Slot &e = slot(find(a));
        e.data = d;
        if (dirty)
            e.state = CoherenceState::Modified;
        e.lru = ++clock_;
    }

    void
    clear()
    {
        std::fill(slots_.begin(), slots_.end(), Slot{});
        clock_ = 0;
    }

  private:
    unsigned sets_, ways_;
    ReplacementPolicy policy_;
    std::vector<Slot> slots_;
    std::uint64_t clock_ = 0;
    std::uint64_t rand_ = 0x9e3779b97f4a7c15ull;
};

void
expectSameEviction(const Eviction &a, const Eviction &b)
{
    EXPECT_EQ(a.valid, b.valid);
    EXPECT_EQ(a.addr, b.addr);
    EXPECT_EQ(a.data, b.data);
    EXPECT_EQ(a.dirty, b.dirty);
    EXPECT_EQ(a.lid, b.lid);
}

/** Every slot: same state, and the same address and line. */
void
expectSameSlots(Cache &c, RefCache &ref)
{
    for (std::uint32_t set = 0; set < c.numSets(); ++set)
        for (unsigned w = 0; w < c.numWays(); ++w) {
            LineID lid(set, static_cast<std::uint8_t>(w));
            const RefCache::Slot &e = ref.slot(lid);
            ASSERT_EQ(c.stateAt(lid), e.state) << set << "/" << w;
            ASSERT_EQ(c.lineAt(lid), e.data) << set << "/" << w;
            if (e.valid()) {
                ASSERT_EQ(c.addrAt(lid), e.tag << kLineShift);
            }
        }
}

/** The largest line number an address can have. */
constexpr Addr kMaxLine = ~Addr{0} >> kLineShift;

/** Seeded random operation stream against the reference model. With
 *  @p ends, lines are drawn from both ends of the line-number range
 *  (0 upward and kMaxLine downward) instead. */
void
runDifferential(ReplacementPolicy policy, unsigned ways,
                std::uint64_t seed, bool ends = false)
{
    constexpr unsigned kSets = 8;
    Cache c({"diff", std::uint64_t{kSets} * ways * kLineBytes, ways,
             policy});
    RefCache ref(kSets, ways, policy);
    Rng rng(seed);
    // Three working sets' worth of lines, some with the top bits set.
    auto pick = [&] {
        Addr line = rng.below(3 * kSets * ways);
        if (ends) {
            if (rng.below(2))
                line = kMaxLine - line;
        } else if (rng.below(8) == 0) {
            line |= Addr{0x3ff} << 48;
        }
        return line << kLineShift;
    };
    for (int step = 0; step < 4000; ++step) {
        Addr a = pick();
        CacheLine d = CacheLine::filledWords(
            static_cast<std::uint32_t>(rng.next()));
        CoherenceState s = rng.below(2) ? CoherenceState::Shared
                                        : CoherenceState::Modified;
        bool resident = ref.find(a).valid;
        switch (rng.below(12)) {
          case 0:
          case 1:
            ASSERT_EQ(c.access(a), ref.access(a));
            break;
          case 2:
            ASSERT_EQ(c.probe(a), resident);
            break;
          case 3:
            ASSERT_EQ(c.find(a), ref.find(a));
            break;
          case 4:
            ASSERT_EQ(c.victimWay(a), ref.victimWay(a));
            break;
          case 5:
          case 6: {
            // install() picks the way itself; expectSameSlots below
            // fails if it is not the model's.
            std::uint8_t w = ref.victimWay(a);
            expectSameEviction(displaced(c, a, w),
                               ref.install(a, d, s, w));
            c.install(a, d, s);
            break;
          }
          case 7: {
            auto w = static_cast<std::uint8_t>(rng.below(ways));
            expectSameEviction(displaced(c, a, w),
                               ref.install(a, d, s, w));
            c.install(a, d, s, w);
            break;
          }
          case 8:
            if (resident) {
                bool dirty = rng.below(2);
                c.writeLine(a, d, dirty);
                ref.writeLine(a, d, dirty);
            }
            break;
          case 9:
            if (resident) {
                c.markDirty(a);
                ref.slot(ref.find(a)).state = CoherenceState::Modified;
            }
            break;
          case 10: {
            LineID lid = ref.find(a);
            if (lid.valid)
                ref.slot(lid).state = CoherenceState::Invalid;
            ASSERT_EQ(c.invalidate(a), lid);
            break;
          }
          default:
            if (rng.below(50) == 0) {
                c.clear();
                ref.clear();
            }
            break;
        }
        expectSameSlots(c, ref);
        if (::testing::Test::HasFailure())
            FAIL() << "diverged at step " << step;
    }
}

} // namespace

TEST(CacheRows, MatchTheArrayOfStructsModel)
{
    for (ReplacementPolicy policy :
         {ReplacementPolicy::LRU, ReplacementPolicy::FIFO,
          ReplacementPolicy::Random})
        for (unsigned ways : {1u, 4u, 16u}) {
            SCOPED_TRACE(::testing::Message()
                         << "policy " << static_cast<int>(policy)
                         << " ways " << ways);
            runDifferential(policy, ways, 100 + ways);
            if (HasFailure())
                return; // later runs would all report step 0
        }
}

TEST(CacheRows, KeyEncodingAtBothEndsMatchesTheModel)
{
    // The all-zero key is Invalid and decodes to line 2^62 - 1, past
    // kMaxLine (2^58 - 1); lines 0 and kMaxLine must round-trip.
    for (ReplacementPolicy policy :
         {ReplacementPolicy::LRU, ReplacementPolicy::Random})
        for (unsigned ways : {1u, 4u}) {
            SCOPED_TRACE(::testing::Message()
                         << "policy " << static_cast<int>(policy)
                         << " ways " << ways);
            runDifferential(policy, ways, 7 + ways, /*ends=*/true);
            if (HasFailure())
                return;
        }
    for (Addr line : {Addr{0}, kMaxLine}) {
        Cache c = smallCache();
        Addr a = line << kLineShift;
        EXPECT_FALSE(c.probe(a));
        c.install(a, lineOf(3), CoherenceState::Shared);
        LineID lid = c.find(a);
        ASSERT_TRUE(lid.valid);
        EXPECT_EQ(c.addrAt(lid), a);
        EXPECT_EQ(c.stateAt(lid), CoherenceState::Shared);
        c.setState(lid, CoherenceState::Modified);
        EXPECT_EQ(c.find(a), lid);
        EXPECT_TRUE(c.dirtyAt(lid));
        c.setState(lid, CoherenceState::Invalid);
        EXPECT_FALSE(c.probe(a));
        EXPECT_EQ(c.stateAt(lid), CoherenceState::Invalid);
    }
}

TEST(CacheRows, FifoEvictsOldestInstallAfterWriteLine)
{
    Cache c({"fifo", 4096, 4, ReplacementPolicy::FIFO});
    for (unsigned i = 0; i < 4; ++i)
        c.install(i * 1024, lineOf(i), CoherenceState::Shared);
    c.writeLine(0, lineOf(9), false);
    EXPECT_EQ(c.victimWay(4096), 0);
}

TEST(CacheRows, InvalidatedSlotIsNotFoundAndIsNextVictim)
{
    Cache c = smallCache();
    for (unsigned i = 0; i < 4; ++i)
        c.install(i * 1024, lineOf(i), CoherenceState::Shared);
    LineID lid = c.invalidate(2048);
    ASSERT_TRUE(lid.valid);
    EXPECT_FALSE(c.find(2048).valid);
    EXPECT_FALSE(c.access(2048));
    EXPECT_FALSE(c.validAt(lid));
    EXPECT_EQ(c.victimWay(4096), lid.way);
}

TEST(CacheRows, TopBitAddressRoundTrips)
{
    Cache c = smallCache();
    const Addr top = ~Addr{0} & ~Addr{63};
    c.install(top, lineOf(5), CoherenceState::Shared);
    LineID lid = c.find(top);
    ASSERT_TRUE(lid.valid);
    EXPECT_EQ(c.addrAt(lid), top);
    c.markDirty(top);
    EXPECT_TRUE(c.dirtyAt(lid));
    EXPECT_EQ(c.addrAt(lid), top);
    EXPECT_EQ(c.find(top), lid);
    EXPECT_FALSE(c.find(top - kLineBytes * c.numSets()).valid);
}

TEST(CacheRows, EveryLineIsHostLineAligned)
{
    Cache c({"a", 64 * 1024, 16});
    for (std::uint32_t set = 0; set < c.numSets(); ++set)
        for (unsigned w = 0; w < c.numWays(); ++w) {
            auto p = reinterpret_cast<std::uintptr_t>(
                &c.lineAt(LineID(set, static_cast<std::uint8_t>(w))));
            ASSERT_EQ(p % 64, 0u) << set << "/" << w;
        }
}

TEST(PrivateCaches, StoreDirtiesL1WithASeededValue)
{
    PrivateCaches p = smallPair(), q = smallPair();
    fill(p, kA, 0);
    fill(q, kA, 0);
    p.store(kA + 4, 7);
    q.store(kA + 4, 7);
    auto dp = p.drop(kA);
    auto dq = q.drop(kA);
    ASSERT_TRUE(dp && dq);
    EXPECT_EQ(dp->addr, kA);
    EXPECT_EQ(dp->data, dq->data); // a function of (addr, seq) only
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if (w != 1) {
            EXPECT_EQ(dp->data.word(w), 0u) << w;
        }
    }
}

TEST(PrivateCaches, DirtyL1VictimIsWrittenIntoL2)
{
    PrivateCaches p = smallPair();
    fill(p, kA, 1);
    p.store(kA, 3);
    EXPECT_FALSE(p.installL2(kC, lineOf(2))); // L2 set 0 had room
    EXPECT_TRUE(p.installL1(kC, lineOf(2)));  // evicts dirty A
    auto d = p.drop(kA);                      // now only in L2
    ASSERT_TRUE(d);
    EXPECT_NE(d->data, lineOf(1));
    EXPECT_FALSE(p.holds(kA));
}

TEST(PrivateCaches, L2VictimSpillsTheNewestCopy)
{
    PrivateCaches p = smallPair(), ref = smallPair();
    fill(ref, kA, 1);
    ref.store(kA, 5);
    DirtyLine newest = *ref.drop(kA);

    fill(p, kA, 1);
    fill(p, kB, 2);
    p.store(kA, 5); // L1's copy of A is newer than L2's clean one
    auto spill = p.installL2(kC, lineOf(3)); // A is the LRU way
    ASSERT_TRUE(spill);
    EXPECT_EQ(spill->addr, kA);
    EXPECT_EQ(spill->data, newest.data);
    EXPECT_FALSE(p.holds(kA)); // inclusion: gone from L1 too
    const CacheLine *c = p.accessL2(kC);
    ASSERT_NE(c, nullptr);
    EXPECT_EQ(*c, lineOf(3));

    EXPECT_FALSE(p.installL2(kA, lineOf(1))); // B: clean victim
    EXPECT_FALSE(p.holds(kB));
}

TEST(PrivateCaches, DropInvalidatesBothLevels)
{
    PrivateCaches p = smallPair();
    EXPECT_FALSE(p.drop(kA));
    fill(p, kA, 1);
    EXPECT_TRUE(p.holds(kA));
    EXPECT_FALSE(p.drop(kA)); // clean: nothing to sink
    EXPECT_FALSE(p.holds(kA));
    EXPECT_FALSE(p.accessL1(kA));
    EXPECT_EQ(p.accessL2(kA), nullptr);
}

TEST(PrivateCachesDeath, L1VictimOutsideL2Panics)
{
    PrivateCaches p = smallPair();
    p.installL1(kA, lineOf(1)); // skips L2: breaks inclusion
    p.store(kA, 1);
    EXPECT_DEATH(p.installL1(kC, lineOf(2)), "not inclusive");
}
