/**
 * @file
 * Differential tests for the vectorized encode kernels: the SIMD
 * backend (common/simd.h), the table-driven CRCs (common/crc.h) and
 * the allocation-free search primitives (core/cbv.h,
 * core/signature.h) must be bit-for-bit identical to their scalar /
 * bit-serial / vector-returning references on randomized inputs —
 * the optimizations are pure speed, never behaviour.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "common/crc.h"
#include "common/rng.h"
#include "common/simd.h"
#include "core/cbv.h"
#include "core/signature.h"

using namespace cable;

namespace
{

/** A line whose words mix arbitrary, small, sign-extended-small and
 *  boundary values — the shapes the trivial classifier cares about. */
CacheLine
mixedLine(Rng &rng)
{
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        std::uint64_t h = rng.next();
        std::uint32_t v;
        switch (h & 7) {
        case 0:
            v = 0;
            break;
        case 1:
            v = 0xffffffffu;
            break;
        case 2:
            v = static_cast<std::uint32_t>(h >> 56); // small
            break;
        case 3: // sign-extended small negative
            v = 0xffffff00u | static_cast<std::uint32_t>(h >> 56);
            break;
        case 4: // single bit somewhere, sweeps the boundary
            v = 1u << ((h >> 8) & 31);
            break;
        default:
            v = static_cast<std::uint32_t>(h >> 32);
            break;
        }
        l.setWord(w, v);
    }
    return l;
}

} // namespace

TEST(Simd, BackendNameIsKnown)
{
    std::string name = simdBackendName();
    EXPECT_TRUE(name == "avx2" || name == "sse2" || name == "neon"
                || name == "scalar")
        << name;
}

TEST(Simd, WordEqMaskMatchesScalarOnRandomPairs)
{
    Rng rng(101);
    for (int iter = 0; iter < 2000; ++iter) {
        CacheLine a = mixedLine(rng);
        CacheLine b = a;
        // Perturb a random subset of words so masks are partial.
        unsigned flips = static_cast<unsigned>(rng.below(17));
        for (unsigned f = 0; f < flips; ++f) {
            unsigned w = static_cast<unsigned>(rng.below(16));
            b.setWord(w, b.word(w) ^ static_cast<std::uint32_t>(
                                         rng.next() | 1));
        }
        EXPECT_EQ(wordEqMask16(a.data(), b.data()),
                  wordEqMask16Scalar(a.data(), b.data()));
    }
}

TEST(Simd, WordEqMaskIdenticalLinesIsFull)
{
    Rng rng(102);
    CacheLine a = mixedLine(rng);
    EXPECT_EQ(wordEqMask16(a.data(), a.data()), 0xffffu);
}

TEST(Simd, BroadcastEqMaskMatchesScalar)
{
    Rng rng(105);
    for (int iter = 0; iter < 2000; ++iter) {
        CacheLine l = mixedLine(rng);
        // Probe with every word of the line (at least one hit each),
        // the mixed-line boundary values, and a random word.
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            std::uint32_t probe = l.word(w);
            std::uint32_t m = broadcastEqMask16(l.data(), probe);
            EXPECT_EQ(m, broadcastEqMask16Scalar(l.data(), probe));
            EXPECT_TRUE(m & (1u << w));
        }
        for (std::uint32_t probe :
             {0u, 0xffffffffu, 0x80000000u,
              static_cast<std::uint32_t>(rng.next())})
            EXPECT_EQ(broadcastEqMask16(l.data(), probe),
                      broadcastEqMask16Scalar(l.data(), probe));
    }
}

TEST(Simd, BroadcastEqMaskFullAndEmpty)
{
    CacheLine l = CacheLine::filledWords(0xdeadbeefu);
    EXPECT_EQ(broadcastEqMask16(l.data(), 0xdeadbeefu), 0xffffu);
    EXPECT_EQ(broadcastEqMask16(l.data(), 0xdeadbeeeu), 0u);
    // Lanes differ in one byte only: the compare is whole-word.
    l.setWord(7, 0xdeadbe00u);
    EXPECT_EQ(broadcastEqMask16(l.data(), 0xdeadbeefu),
              0xffffu & ~(1u << 7));
}

TEST(Simd, TrivialMaskMatchesScalarAcrossAllThresholds)
{
    Rng rng(103);
    for (int iter = 0; iter < 500; ++iter) {
        CacheLine l = mixedLine(rng);
        for (unsigned t = 0; t <= 33; ++t)
            EXPECT_EQ(trivialMask16(l.data(), t),
                      trivialMask16Scalar(l.data(), t))
                << "threshold " << t;
    }
}

TEST(Simd, TrivialMaskBoundaryValues)
{
    // Exact boundary words at the default threshold 24: magnitude
    // just below / at 2^(32-24) = 256 on both the zero and the ones
    // side.
    CacheLine l;
    l.setWord(0, 0x000000ffu);  // 24 leading zeros: trivial
    l.setWord(1, 0x00000100u);  // 23 leading zeros: not
    l.setWord(2, 0xffffff00u);  // 24 leading ones: trivial
    l.setWord(3, 0xfffffeffu);  // 23 leading ones: not
    l.setWord(4, 0);            // all zeros: trivial
    l.setWord(5, 0xffffffffu);  // all ones: trivial
    for (unsigned w = 6; w < kWordsPerLine; ++w)
        l.setWord(w, 0xdead0000u + w);
    std::uint32_t m = trivialMask16(l.data(), 24);
    EXPECT_EQ(m, trivialMask16Scalar(l.data(), 24));
    EXPECT_TRUE(m & (1u << 0));
    EXPECT_FALSE(m & (1u << 1));
    EXPECT_TRUE(m & (1u << 2));
    EXPECT_FALSE(m & (1u << 3));
    EXPECT_TRUE(m & (1u << 4));
    EXPECT_TRUE(m & (1u << 5));
}

TEST(Simd, TrivialMaskDegenerateThresholds)
{
    Rng rng(104);
    CacheLine l = mixedLine(rng);
    // threshold < 2 classifies everything trivial (any word has >= 1
    // leading zero or one); threshold > 32 classifies nothing.
    EXPECT_EQ(trivialMask16(l.data(), 0), 0xffffu);
    EXPECT_EQ(trivialMask16(l.data(), 1), 0xffffu);
    EXPECT_EQ(trivialMask16(l.data(), 33), 0u);
}

TEST(Crc, TableMatchesSerialOnRandomFrames)
{
    Rng rng(105);
    for (int iter = 0; iter < 300; ++iter) {
        std::size_t nbits = 1 + rng.below(700);
        BitVec v;
        for (std::size_t i = 0; i < nbits; ++i)
            v.pushBit(rng.below(2) != 0);
        // Whole-frame and random sub-range, hitting unaligned heads
        // and tails.
        EXPECT_EQ(crc8Bits(v, 0, nbits), crc8BitsSerial(v, 0, nbits));
        EXPECT_EQ(crc16Bits(v, 0, nbits),
                  crc16BitsSerial(v, 0, nbits));
        std::size_t a = rng.below(nbits + 1);
        std::size_t b = rng.below(nbits + 1);
        if (a > b)
            std::swap(a, b);
        EXPECT_EQ(crc8Bits(v, a, b), crc8BitsSerial(v, a, b));
        EXPECT_EQ(crc16Bits(v, a, b), crc16BitsSerial(v, a, b));
    }
}

TEST(Crc, FrameCrcDispatchMatchesSerial)
{
    Rng rng(106);
    BitVec v;
    for (int i = 0; i < 523; ++i)
        v.pushBit(rng.below(2) != 0);
    for (unsigned width : {8u, 16u})
        EXPECT_EQ(frameCrc(v, 0, v.sizeBits(), width),
                  frameCrcSerial(v, 0, v.sizeBits(), width));
}

TEST(Crc, AppendAndCheckRoundTrip)
{
    Rng rng(107);
    for (unsigned width : {8u, 16u}) {
        BitWriter bw;
        for (int i = 0; i < 217; ++i)
            bw.put(rng.below(2), 1);
        appendFrameCrc(bw, width);
        BitVec frame = bw.take();
        EXPECT_TRUE(checkFrameCrc(frame, width));
    }
}

TEST(Cbv, CoverageVectorMatchesScalar)
{
    Rng rng(108);
    for (int iter = 0; iter < 1000; ++iter) {
        CacheLine a = mixedLine(rng);
        CacheLine b = mixedLine(rng);
        if (rng.below(2)) {
            // Force partial overlap.
            for (unsigned w = 0; w < kWordsPerLine; ++w)
                if (rng.below(2))
                    b.setWord(w, a.word(w));
        }
        EXPECT_EQ(coverageVector(a, b), coverageVectorScalar(a, b));
    }
}

TEST(Cbv, SelectIntoMatchesVectorForm)
{
    Rng rng(109);
    for (int iter = 0; iter < 1000; ++iter) {
        unsigned n = 1 + static_cast<unsigned>(rng.below(64));
        std::vector<std::uint32_t> cbvs(n);
        for (auto &c : cbvs)
            c = static_cast<std::uint32_t>(rng.next()) & 0xffffu;
        for (unsigned max_refs = 1; max_refs <= 3; ++max_refs) {
            std::vector<unsigned> want =
                selectByCoverage(cbvs, max_refs);
            unsigned picks[3];
            unsigned got = selectByCoverageInto(cbvs.data(), n,
                                                max_refs, picks);
            ASSERT_EQ(got, want.size());
            for (unsigned i = 0; i < got; ++i)
                EXPECT_EQ(picks[i], want[i]);
        }
    }
}

TEST(Cbv, SelectIntoRejectsOversizedCandidateSets)
{
    std::vector<std::uint32_t> cbvs(65, 1u);
    unsigned picks[3];
    EXPECT_DEATH(selectByCoverageInto(cbvs.data(), 65, 3, picks),
                 "exceed");
}

TEST(SigList, ExtractionNeverExceedsSixteen)
{
    // Regression for the structural 16-signature clamp: a line has
    // 16 words, so no extraction may yield more, for any threshold.
    Rng rng(110);
    SignatureConfig cfg;
    SigList out;
    for (int iter = 0; iter < 500; ++iter) {
        CacheLine l = mixedLine(rng);
        for (unsigned t : {0u, 8u, 24u, 33u}) {
            cfg.trivial_threshold = t;
            extractSearchSignaturesInto(l, cfg, out);
            EXPECT_LE(out.size(), SigList::kCapacity);
            extractInsertSignaturesInto(l, cfg, out);
            EXPECT_LE(out.size(), cfg.insert_count);
        }
    }
}

TEST(SigList, IntoFormsMatchVectorForms)
{
    Rng rng(111);
    SignatureConfig cfg;
    SigList out;
    for (int iter = 0; iter < 500; ++iter) {
        CacheLine l = mixedLine(rng);
        extractSearchSignaturesInto(l, cfg, out);
        std::vector<std::uint32_t> want = extractSearchSignatures(l,
                                                                  cfg);
        ASSERT_EQ(out.size(), want.size());
        for (unsigned i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], want[i]);

        extractInsertSignaturesInto(l, cfg, out);
        want = extractInsertSignatures(l, cfg);
        ASSERT_EQ(out.size(), want.size());
        for (unsigned i = 0; i < out.size(); ++i)
            EXPECT_EQ(out[i], want[i]);
    }
}

TEST(SigList, OverflowPanics)
{
    SigList s;
    for (unsigned i = 0; i < SigList::kCapacity; ++i)
        s.push(i);
    EXPECT_EQ(s.size(), SigList::kCapacity);
    EXPECT_DEATH(s.push(99), "overflow");
}

TEST(SigList, PushUniqueDeduplicates)
{
    SigList s;
    EXPECT_TRUE(s.pushUnique(7));
    EXPECT_FALSE(s.pushUnique(7));
    EXPECT_TRUE(s.pushUnique(8));
    EXPECT_EQ(s.size(), 2u);
    EXPECT_TRUE(s.contains(7));
    EXPECT_FALSE(s.contains(9));
}
