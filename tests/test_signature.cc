/**
 * @file
 * Signature-extraction tests (§III-A): trivial-word skipping, the
 * two default insertion offsets, search-signature deduplication, and
 * the H3 hash family's determinism, linearity and pinned values.
 */

#include <gtest/gtest.h>

#include <set>

#include "common/rng.h"
#include "core/signature.h"

using namespace cable;

TEST(Signature, InsertUsesDefaultOffsets)
{
    CacheLine l;
    l.setWord(0, 0xaabbccdd);
    l.setWord(8, 0x11223344);
    auto sigs = extractInsertSignatures(l);
    ASSERT_EQ(sigs.size(), 2u);
    EXPECT_EQ(sigs[0], 0xaabbccddu);
    EXPECT_EQ(sigs[1], 0x11223344u);
}

TEST(Signature, SkipsTrivialWordsForward)
{
    CacheLine l;
    // Words 0..2 trivial (zero / small / sign-extended small).
    l.setWord(0, 0);
    l.setWord(1, 0x7f);
    l.setWord(2, 0xffffffe1u);
    l.setWord(3, 0xcafebabe);
    l.setWord(8, 0x12);       // trivial
    l.setWord(9, 0xdeadbeef);
    auto sigs = extractInsertSignatures(l);
    ASSERT_EQ(sigs.size(), 2u);
    EXPECT_EQ(sigs[0], 0xcafebabeu); // offset 0 walked to word 3
    EXPECT_EQ(sigs[1], 0xdeadbeefu); // offset 8 walked to word 9
}

TEST(Signature, AllTrivialYieldsNoSignatures)
{
    CacheLine l; // all zero
    EXPECT_TRUE(extractInsertSignatures(l).empty());
    EXPECT_TRUE(extractSearchSignatures(l).empty());
}

TEST(Signature, InsertDeduplicates)
{
    CacheLine l;
    l.setWord(0, 0xabcd1234);
    l.setWord(8, 0xabcd1234);
    auto sigs = extractInsertSignatures(l);
    EXPECT_EQ(sigs.size(), 1u);
}

TEST(Signature, SearchExtractsAllNonTrivialDeduplicated)
{
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        l.setWord(w, w % 2 ? 0x1000 + w / 2 : 0);
    auto sigs = extractSearchSignatures(l);
    EXPECT_EQ(sigs.size(), 8u);
    std::set<std::uint32_t> uniq(sigs.begin(), sigs.end());
    EXPECT_EQ(uniq.size(), sigs.size());
}

TEST(Signature, SearchCapsAtSixteen)
{
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        l.setWord(w, 0x10000 + w);
    EXPECT_EQ(extractSearchSignatures(l).size(), kWordsPerLine);
}

TEST(Signature, ThresholdIsConfigurable)
{
    CacheLine l;
    l.setWord(0, 0x0000ffff); // trivial at threshold 16, not at 24
    SignatureConfig cfg;
    cfg.trivial_threshold = 16;
    EXPECT_TRUE(extractSearchSignatures(l, cfg).empty());
    cfg.trivial_threshold = 24;
    EXPECT_EQ(extractSearchSignatures(l, cfg).size(), 1u);
}

TEST(H3, DeterministicPerSeed)
{
    H3Hash h1(16, 1), h2(16, 1), h3(16, 2);
    bool differs = false;
    for (std::uint32_t x : {1u, 0xffffu, 0xdeadbeefu, 0x80000000u}) {
        EXPECT_EQ(h1(x), h2(x));
        if (h1(x) != h3(x))
            differs = true;
    }
    EXPECT_TRUE(differs);
}

TEST(H3, OutputWidthRespected)
{
    H3Hash h(10);
    Rng rng(1);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(h(static_cast<std::uint32_t>(rng.next())), 1u << 10);
}

TEST(H3, ZeroMapsToZeroAndLinearity)
{
    // H3 is linear over GF(2): h(a ^ b) == h(a) ^ h(b).
    H3Hash h(32, 7);
    EXPECT_EQ(h(0), 0u);
    Rng rng(2);
    for (int i = 0; i < 100; ++i) {
        auto a = static_cast<std::uint32_t>(rng.next());
        auto b = static_cast<std::uint32_t>(rng.next());
        EXPECT_EQ(h(a ^ b), h(a) ^ h(b));
    }
}

TEST(H3, SpreadsBucketsReasonably)
{
    H3Hash h(8, 3);
    std::vector<unsigned> buckets(256, 0);
    for (std::uint32_t i = 1; i <= 25600; ++i)
        buckets[h(i * 2654435761u)]++;
    unsigned max = 0;
    for (unsigned b : buckets)
        max = std::max(max, b);
    EXPECT_LT(max, 200u); // mean 100, no catastrophic skew
}

namespace
{

/**
 * H3 outputs pinned at the row-loop implementation. Linearity alone
 * cannot catch a swapped or mis-shifted lookup table (any XOR of rows
 * is still linear), so every evaluation strategy must reproduce these
 * exact values.
 */
struct H3Golden
{
    std::uint64_t seed;
    /** h(1 << b) at 32 output bits: the rows themselves. */
    std::uint32_t single_bit[32];
    std::uint32_t all_ones;
    /** FNV-1a over h(0), h(~0), h(1 << b) for every b, then 64 words
     *  from Rng(kH3InputSeed), at out_bits 8, 14 and 32. */
    std::uint64_t digest[3];
};

constexpr std::uint64_t kH3InputSeed = 0x4833;
constexpr unsigned kH3Widths[3] = {8, 14, 32};

const H3Golden kH3Goldens[] = {
    {
        0xcab1e,
        {0x6355b312u, 0xefa1b3b6u, 0x9baf1185u, 0x2aaf4ef9u,
         0x1cef3406u, 0x0ce63e11u, 0x0f6a8ad5u, 0x9611a343u,
         0x505f7ad2u, 0xa3a6a666u, 0x62522768u, 0xe5481915u,
         0x2c83fe26u, 0x9580d258u, 0x05db965du, 0x3c355002u,
         0x380e6967u, 0xa23d1a07u, 0x389c611fu, 0xb79353d8u,
         0xb53cb8afu, 0x256bf54au, 0xf64885ceu, 0x2faa4d0cu,
         0x2be2a501u, 0x1cd37490u, 0x829266d8u, 0xd7aa6c7cu,
         0x25c82e40u, 0x5363d686u, 0xafd7ea40u, 0xefc30afcu},
        0x48b7737eu,
        {0xc7cf79c202c5617dull, 0xc8dc91504ca8df7dull,
         0xc74bb0fe552e1f7dull},
    },
    {
        0xcab1e ^ 0x5eed,
        {0xde955aa6u, 0x4d8deee8u, 0xfbaa0c16u, 0x99cc3c45u,
         0x61141740u, 0x825284d3u, 0x4458411eu, 0x57553fdeu,
         0x40ff2ae1u, 0x42aec25cu, 0xec70ae13u, 0x872c6c3au,
         0x1a830f6eu, 0x7f7b14f8u, 0xd2a8520cu, 0xb3982f1au,
         0x3f3fdcafu, 0x37b8757bu, 0xe8bb76f2u, 0x0fda552au,
         0x580bf72au, 0x1c1c2b3du, 0x32afe1e9u, 0xa593b67fu,
         0x508550a2u, 0x7df1c11du, 0xc2689ae0u, 0xf150f40cu,
         0x6ac89cdfu, 0x7221d3fbu, 0x5502264eu, 0x0b37e6d0u},
        0x08ad543eu,
        {0x169f3e6aaa9e40a8ull, 0x68ebf3e694315fa8ull,
         0xcd84293c5b6d5fa8ull},
    },
    {
        7,
        {0x9d43bf63u, 0xed8b3347u, 0x09ff9094u, 0x9508d8f0u,
         0x085d9a0du, 0xd362dfbcu, 0x04a84425u, 0x9644e093u,
         0x49e1c6d0u, 0xdceea501u, 0x5d5eecbfu, 0xce4999f6u,
         0xc5bdf9d0u, 0x9621eac5u, 0x6df44f7bu, 0x7a38985eu,
         0x3a20c27au, 0x4dfef499u, 0x19eb04a9u, 0x5eac42e1u,
         0x8ef7a291u, 0xa16f9ff2u, 0x3f3fd40fu, 0xca5c2d81u,
         0xefcd44a0u, 0xe8352c30u, 0x5f59e797u, 0xf836fff7u,
         0xdb20879fu, 0x7e3d610fu, 0x7aa5373fu, 0x3180edb3u},
        0x43690f45u,
        {0x880ca99034237491ull, 0xc820edc83f19ae91ull,
         0x69cfd61642b7ee91ull},
    },
};

/** The textbook H3 evaluation: XOR the row of every set input bit,
 *  with rows drawn exactly as H3Hash's constructor draws them. */
struct H3RowLoop
{
    std::uint32_t rows[32];

    explicit H3RowLoop(std::uint64_t seed)
    {
        Rng rng(seed);
        for (auto &row : rows)
            row = static_cast<std::uint32_t>(rng.next());
    }

    std::uint32_t
    operator()(std::uint32_t x, unsigned out_bits) const
    {
        std::uint32_t h = 0;
        for (unsigned b = 0; b < 32; ++b)
            if (x >> b & 1)
                h ^= rows[b];
        return out_bits >= 32 ? h : h & ((1u << out_bits) - 1);
    }
};

} // namespace

TEST(H3, GoldenValuesArePinned)
{
    for (const H3Golden &g : kH3Goldens) {
        H3Hash full(32, g.seed);
        for (unsigned b = 0; b < 32; ++b)
            EXPECT_EQ(full(1u << b), g.single_bit[b])
                << "seed " << g.seed << " bit " << b;
        EXPECT_EQ(full(~0u), g.all_ones) << "seed " << g.seed;
        for (unsigned wi = 0; wi < 3; ++wi) {
            H3Hash h(kH3Widths[wi], g.seed);
            std::uint64_t d = 1469598103934665603ull;
            auto mix = [&](std::uint32_t x) {
                d ^= h(x);
                d *= 1099511628211ull;
            };
            mix(0);
            mix(~0u);
            for (unsigned b = 0; b < 32; ++b)
                mix(1u << b);
            Rng rng(kH3InputSeed);
            for (int i = 0; i < 64; ++i)
                mix(static_cast<std::uint32_t>(rng.next()));
            EXPECT_EQ(d, g.digest[wi])
                << "seed " << g.seed << " out_bits " << kH3Widths[wi];
        }
    }
}

TEST(H3, MatchesRowLoopReference)
{
    for (const H3Golden &g : kH3Goldens) {
        const H3RowLoop ref(g.seed);
        for (unsigned bits : kH3Widths) {
            H3Hash h(bits, g.seed);
            Rng rng(0x4834);
            for (int i = 0; i < 100000; ++i) {
                auto x = static_cast<std::uint32_t>(rng.next());
                ASSERT_EQ(h(x), ref(x, bits))
                    << "seed " << g.seed << " out_bits " << bits
                    << " x " << x;
            }
        }
    }
}
