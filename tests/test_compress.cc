/**
 * @file
 * Compression-engine tests: exact round-trips for every engine over
 * every data class (property-style, parameterized over engines and
 * seeds), known-size encodings for CPACK and BDI, dictionary
 * seeding, streaming-window behaviour and dictionary pollution for
 * gzip/LZSS, ORACLE optimality properties, a differential check of
 * the LBE bit-matrix parse against the scanning reference encoder
 * (tests/lbe_reference.h), and typed decode errors on malformed,
 * cut-short and bit-flipped images.
 */

#include <gtest/gtest.h>

#include "common/rng.h"
#include "compress/bdi.h"
#include "compress/cpack.h"
#include "compress/factory.h"
#include "compress/fpc.h"
#include "compress/ideal.h"
#include "compress/lbe.h"
#include "compress/lzss.h"
#include "compress/oracle.h"
#include "compress/zero_run.h"
#include "core/channel.h"
#include "lbe_reference.h"
#include "workload/profile.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

CacheLine
randomLine(Rng &rng)
{
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine / 2; ++w)
        l.setWord64(w, rng.next());
    return l;
}

CacheLine
sparseLine(Rng &rng, double zero_frac)
{
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        l.setWord(w, rng.chance(zero_frac)
                         ? 0
                         : static_cast<std::uint32_t>(rng.next()));
    return l;
}

CacheLine
smallIntLine(Rng &rng)
{
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        l.setWord(w, static_cast<std::uint32_t>(rng.below(256)));
    return l;
}

/** A near-duplicate of @p base with @p k mutated words. */
CacheLine
mutated(const CacheLine &base, Rng &rng, unsigned k)
{
    CacheLine l = base;
    for (unsigned i = 0; i < k; ++i)
        l.setWord(static_cast<unsigned>(rng.below(kWordsPerLine)),
                  static_cast<std::uint32_t>(rng.next()));
    return l;
}

} // namespace

// ---------------------------------------------------------------------
// Parameterized round-trip property over all engines.
// ---------------------------------------------------------------------

class EngineRoundTrip
    : public ::testing::TestWithParam<std::string>
{
};

TEST_P(EngineRoundTrip, AllDataClassesSelfCompress)
{
    auto eng = makeCompressor(GetParam());
    Rng rng(42);
    std::vector<CacheLine> lines;
    lines.push_back(CacheLine{});                    // zero
    lines.push_back(CacheLine::filledWords(0x1234)); // repeated
    for (int i = 0; i < 30; ++i)
        lines.push_back(randomLine(rng));
    for (int i = 0; i < 30; ++i)
        lines.push_back(sparseLine(rng, 0.5));
    for (int i = 0; i < 10; ++i)
        lines.push_back(smallIntLine(rng));

    for (const CacheLine &l : lines) {
        BitVec enc = eng->compress(l, {});
        CacheLine dec = eng->decompress(enc, {});
        ASSERT_EQ(dec, l) << GetParam() << " failed on "
                          << l.toString();
    }
}

TEST_P(EngineRoundTrip, RefsSeededRoundTrip)
{
    auto eng = makeCompressor(GetParam());
    Rng rng(7);
    for (int iter = 0; iter < 25; ++iter) {
        CacheLine r1 = sparseLine(rng, 0.3);
        CacheLine r2 = randomLine(rng);
        CacheLine r3 = mutated(r1, rng, 2);
        RefList refs{&r1, &r2, &r3};
        CacheLine target = mutated(r1, rng, 1);
        BitVec enc = eng->compress(target, refs);
        CacheLine dec = eng->decompress(enc, refs);
        ASSERT_EQ(dec, target) << GetParam();
    }
}

TEST_P(EngineRoundTrip, PartialRefListsRoundTrip)
{
    auto eng = makeCompressor(GetParam());
    Rng rng(19);
    CacheLine r1 = sparseLine(rng, 0.4);
    for (unsigned nrefs = 1; nrefs <= 3; ++nrefs) {
        RefList refs;
        std::vector<CacheLine> store;
        for (unsigned i = 0; i < nrefs; ++i)
            store.push_back(mutated(r1, rng, i));
        for (const CacheLine &l : store)
            refs.push_back(&l);
        CacheLine target = mutated(r1, rng, 1);
        BitVec enc = eng->compress(target, refs);
        ASSERT_EQ(eng->decompress(enc, refs), target)
            << GetParam() << " nrefs=" << nrefs;
    }
}

INSTANTIATE_TEST_SUITE_P(AllEngines, EngineRoundTrip,
                         ::testing::Values("zero", "bdi", "fpc", "cpack",
                                           "cpack128", "lbe256",
                                           "gzip", "lzss", "oracle"));

// ---------------------------------------------------------------------
// Property sweep: many random seeds per engine.
// ---------------------------------------------------------------------

class EngineSeedSweep
    : public ::testing::TestWithParam<std::tuple<std::string, int>>
{
};

TEST_P(EngineSeedSweep, RandomRoundTrips)
{
    auto [name, seed] = GetParam();
    auto eng = makeCompressor(name);
    Rng rng(static_cast<std::uint64_t>(seed));
    for (int i = 0; i < 40; ++i) {
        CacheLine l = sparseLine(rng, rng.uniform());
        BitVec enc = eng->compress(l, {});
        ASSERT_EQ(eng->decompress(enc, {}), l)
            << name << " seed=" << seed;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Seeds, EngineSeedSweep,
    ::testing::Combine(::testing::Values("bdi", "fpc", "cpack",
                                         "cpack128", "lbe256", "gzip",
                                         "oracle"),
                       ::testing::Values(1, 2, 3, 4, 5)));

// ---------------------------------------------------------------------
// CPACK specifics
// ---------------------------------------------------------------------

TEST(Cpack, ZeroLineIsTwoBitsPerWord)
{
    Cpack c;
    BitVec enc = c.compress(CacheLine{}, {});
    EXPECT_EQ(enc.sizeBits(), 2u * kWordsPerLine);
}

TEST(Cpack, SmallIntsUseZzzx)
{
    Cpack c;
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        l.setWord(w, 0x40 + w); // distinct bytes, three zero bytes
    BitVec enc = c.compress(l, {});
    EXPECT_EQ(enc.sizeBits(), 12u * kWordsPerLine);
}

TEST(Cpack, RepeatedWordUsesDictionary)
{
    Cpack c;
    CacheLine l = CacheLine::filledWords(0xdeadbeef);
    BitVec enc = c.compress(l, {});
    // First word uncompressed (34b), fifteen full matches (6b).
    EXPECT_EQ(enc.sizeBits(), 34u + 15u * 6u);
}

TEST(Cpack, HighBytesMatchUsesMmmx)
{
    Cpack c;
    CacheLine l;
    l.setWord(0, 0xcafe1200);
    for (unsigned w = 1; w < kWordsPerLine; ++w)
        l.setWord(w, 0xcafe1200 | w); // 3-byte dictionary matches
    BitVec enc = c.compress(l, {});
    EXPECT_EQ(enc.sizeBits(), 34u + 15u * (4u + 4u + 8u));
}

TEST(Cpack, IncompressibleCostsOverheadOnly)
{
    Cpack c;
    Rng rng(3);
    CacheLine l = randomLine(rng);
    BitVec enc = c.compress(l, {});
    // At worst every word is xxxx: 34 bits each.
    EXPECT_LE(enc.sizeBits(), 34u * kWordsPerLine);
}

TEST(Cpack, LargerDictionaryWidensIndex)
{
    Cpack::Config cfg;
    cfg.dict_entries = 32;
    Cpack c(cfg);
    EXPECT_EQ(c.name(), "cpack128");
    CacheLine l = CacheLine::filledWords(0xdeadbeef);
    BitVec enc = c.compress(l, {});
    EXPECT_EQ(enc.sizeBits(), 34u + 15u * 7u); // 2+5-bit index
}

TEST(Cpack, PersistentDictionaryCarriesAcrossLines)
{
    Cpack::Config cfg;
    cfg.persistent = true;
    Cpack enc_side(cfg), dec_side(cfg);
    Rng rng(11);
    CacheLine a = sparseLine(rng, 0.2);
    // Second transmission of similar content should be smaller.
    std::size_t first = enc_side.compress(a, {}).sizeBits();
    std::size_t second = enc_side.compress(a, {}).sizeBits();
    EXPECT_LT(second, first);
    // And a lock-step decoder still reconstructs both.
    Cpack enc2(cfg);
    BitVec e1 = enc2.compress(a, {});
    BitVec e2 = enc2.compress(a, {});
    EXPECT_EQ(dec_side.decompress(e1, {}), a);
    EXPECT_EQ(dec_side.decompress(e2, {}), a);
}

TEST(Cpack, RefSeedingHelps)
{
    Cpack c;
    Rng rng(17);
    CacheLine ref = randomLine(rng);
    CacheLine target = mutated(ref, rng, 1);
    RefList refs{&ref};
    std::size_t with = c.compress(target, refs).sizeBits();
    std::size_t without = c.compress(target, {}).sizeBits();
    EXPECT_LT(with, without);
}

// ---------------------------------------------------------------------
// BDI specifics
// ---------------------------------------------------------------------

TEST(Bdi, ZeroLineIsHeaderOnly)
{
    Bdi b;
    EXPECT_EQ(b.compress(CacheLine{}, {}).sizeBits(), 4u);
}

TEST(Bdi, RepeatedLineIsBaseOnly)
{
    Bdi b;
    CacheLine l;
    for (unsigned i = 0; i < 8; ++i)
        l.setWord64(i, 0x1122334455667788ull);
    EXPECT_EQ(b.compress(l, {}).sizeBits(), 4u + 64u);
}

TEST(Bdi, Base8Delta1)
{
    Bdi b;
    CacheLine l;
    for (unsigned i = 0; i < 8; ++i)
        l.setWord64(i, 0x7000000000000000ull + i);
    // header + 8B base + 8 x (flag + 1B delta)
    EXPECT_EQ(b.compress(l, {}).sizeBits(), 4u + 64u + 8u * 9u);
    EXPECT_EQ(b.decompress(b.compress(l, {}), {}), l);
}

TEST(Bdi, ImmediateMixesPointerAndSmallInt)
{
    Bdi b;
    CacheLine l;
    for (unsigned i = 0; i < 8; ++i)
        l.setWord64(i, i % 2 ? 0x7fff000000000100ull + i : i);
    BitVec enc = b.compress(l, {});
    EXPECT_LT(enc.sizeBits(), 4u + 512u);
    EXPECT_EQ(b.decompress(enc, {}), l);
}

TEST(Bdi, NegativeDeltasRoundTrip)
{
    Bdi b;
    CacheLine l;
    for (unsigned i = 0; i < 8; ++i)
        l.setWord64(i, 0x8000000000000000ull - i * 3);
    BitVec enc = b.compress(l, {});
    EXPECT_EQ(b.decompress(enc, {}), l);
}

TEST(Bdi, IncompressibleFallsBackToRaw)
{
    Bdi b;
    Rng rng(23);
    CacheLine l = randomLine(rng);
    EXPECT_EQ(b.compress(l, {}).sizeBits(), 4u + 512u);
}

// ---------------------------------------------------------------------
// LBE specifics
// ---------------------------------------------------------------------

TEST(Lbe, FullLineCopyIsOneToken)
{
    Lbe lbe;
    Rng rng(31);
    CacheLine ref = randomLine(rng);
    RefList refs{&ref};
    BitVec enc = lbe.compress(ref, refs);
    // 2-bit op + offset (5 bits: 16-word dict + 16-word self
    // window) + 4-bit length.
    EXPECT_EQ(enc.sizeBits(), 2u + 5u + 4u);
    EXPECT_EQ(lbe.decompress(enc, refs), ref);
}

TEST(Lbe, ZeroRunsAreCheap)
{
    Lbe lbe;
    BitVec enc = lbe.compress(CacheLine{}, {});
    EXPECT_EQ(enc.sizeBits(), 6u); // one zero-run token
}

TEST(Lbe, AlignedBlockCopyBeatsCpackOnNearDuplicates)
{
    // The §VI-E insight: LBE copies large aligned blocks cheaply.
    Lbe lbe;
    Cpack cpack;
    Rng rng(37);
    CacheLine ref = randomLine(rng);
    CacheLine target = mutated(ref, rng, 1);
    RefList refs{&ref};
    EXPECT_LT(lbe.compress(target, refs).sizeBits(),
              cpack.compress(target, refs).sizeBits());
}

TEST(Lbe, StreamingDictionaryRoundTrip)
{
    Lbe::Config cfg;
    cfg.persistent = true;
    Lbe enc_side(cfg), dec_side(cfg);
    Rng rng(41);
    CacheLine base = sparseLine(rng, 0.3);
    for (int i = 0; i < 20; ++i) {
        CacheLine l = mutated(base, rng, 1);
        BitVec enc = enc_side.compress(l, {});
        ASSERT_EQ(dec_side.decompress(enc, {}), l);
    }
}

TEST(Lbe, StreamingGetsBetterOnRepeats)
{
    Lbe::Config cfg;
    cfg.persistent = true;
    Lbe lbe(cfg);
    Rng rng(43);
    CacheLine a = randomLine(rng);
    std::size_t first = lbe.compress(a, {}).sizeBits();
    std::size_t second = lbe.compress(a, {}).sizeBits();
    EXPECT_LT(second, first);
}

// ---------------------------------------------------------------------
// LBE differential: the bit-matrix parse against the scanning
// reference. Outputs must be bit-for-bit equal, not just the same
// size, and must decode back to the line.
// ---------------------------------------------------------------------

namespace
{

::testing::AssertionResult
sameBits(const BitVec &got, const BitVec &want)
{
    if (got.sizeBits() != want.sizeBits())
        return ::testing::AssertionFailure()
               << "size " << got.sizeBits() << " vs reference "
               << want.sizeBits();
    for (std::size_t i = 0; i < got.sizeBits(); ++i)
        if (got.bit(i) != want.bit(i))
            return ::testing::AssertionFailure()
                   << "first differing bit " << i << " of "
                   << got.sizeBits();
    return ::testing::AssertionSuccess();
}

/** Encodes @p line against @p refs with both encoders, compares the
 *  bits and checks the round trip. The draft must cost exactly what
 *  its emission writes, and emit the same bits as compress(). */
::testing::AssertionResult
lbeMatchesReference(Lbe &lbe, const CacheLine &line,
                    const RefList &refs)
{
    BitVec got = lbe.compress(line, refs);
    ::testing::AssertionResult same =
        sameBits(got, lbe_ref::encodeWithRefs(line, refs));
    if (!same)
        return same;
    const unsigned slot = static_cast<unsigned>(refs.size() % 2);
    const std::size_t drafted = lbe.draft(line, refs, slot);
    BitVec emitted;
    lbe.emit(slot, emitted);
    if (drafted != emitted.sizeBits())
        return ::testing::AssertionFailure()
               << "draft costs " << drafted << " bits, emit wrote "
               << emitted.sizeBits();
    same = sameBits(emitted, got);
    if (!same)
        return same << " (emit vs compress)";
    if (!(lbe.decompress(got, refs) == line))
        return ::testing::AssertionFailure() << "round trip failed";
    return ::testing::AssertionSuccess();
}

/** A word from a small alphabet that mixes zero, byte words and
 *  full words, so equal words (and so copy runs) are common. */
std::uint32_t
alphabetWord(Rng &rng)
{
    static constexpr std::uint32_t kAlphabet[] = {
        0u, 1u, 0x7fu, 0xffu, 0x100u, 0xdeadbeefu, 0xcafef00du,
        0xffffffffu};
    return kAlphabet[rng.below(std::size(kAlphabet))];
}

/** A line assembled from segments: copies out of the refs, copies of
 *  its own earlier words, zero and byte runs, alphabet words and
 *  random literals. */
CacheLine
structuredLine(Rng &rng, const RefList &refs)
{
    CacheLine l;
    unsigned i = 0;
    while (i < kWordsPerLine) {
        unsigned len = 1 + static_cast<unsigned>(rng.below(
                               rng.chance(0.3) ? kWordsPerLine : 4));
        len = std::min(len, kWordsPerLine - i);
        switch (rng.below(6)) {
        case 0:
            if (!refs.empty()) {
                const CacheLine &r = *refs[rng.below(refs.size())];
                unsigned from = static_cast<unsigned>(
                    rng.below(kWordsPerLine - len + 1));
                for (unsigned k = 0; k < len; ++k)
                    l.setWord(i + k, r.word(from + k));
                break;
            }
            [[fallthrough]];
        case 1:
            if (i > 0) {
                unsigned from = static_cast<unsigned>(rng.below(i));
                for (unsigned k = 0; k < len; ++k)
                    l.setWord(i + k, l.word(from + k));
                break;
            }
            [[fallthrough]];
        case 2:
            break; // zero run
        case 3:
            for (unsigned k = 0; k < len; ++k)
                l.setWord(i + k, static_cast<std::uint32_t>(
                                     1 + rng.below(255)));
            break;
        case 4:
            for (unsigned k = 0; k < len; ++k)
                l.setWord(i + k, alphabetWord(rng));
            break;
        default:
            for (unsigned k = 0; k < len; ++k)
                l.setWord(i + k, static_cast<std::uint32_t>(rng.next()));
            break;
        }
        i += len;
    }
    return l;
}

CacheLine
lineOf(std::initializer_list<std::uint32_t> words)
{
    CacheLine l;
    unsigned i = 0;
    for (std::uint32_t w : words)
        l.setWord(i++, w);
    return l;
}

CacheLine
periodicLine(std::initializer_list<std::uint32_t> period)
{
    CacheLine l;
    const std::uint32_t *p = period.begin();
    for (unsigned i = 0; i < kWordsPerLine; ++i)
        l.setWord(i, p[i % period.size()]);
    return l;
}

} // namespace

TEST(LbeDifferential, RandomLinesAtEveryDictionarySize)
{
    Lbe lbe;
    Rng rng(0x1be);
    for (int iter = 0; iter < 100000; ++iter) {
        CacheLine r[3];
        for (auto &ref : r)
            ref = iter % 4 == 0 ? randomLine(rng)
                                : structuredLine(rng, {});
        const RefList dicts[4] = {
            {}, {&r[0]}, {&r[0], &r[1]}, {&r[0], &r[1], &r[2]}};
        for (const RefList &refs : dicts) {
            CacheLine line = structuredLine(rng, refs);
            ASSERT_TRUE(lbeMatchesReference(lbe, line, refs))
                << "iteration " << iter << ", " << refs.size()
                << " refs";
        }
    }
}

TEST(LbeDifferential, AdversarialLines)
{
    Rng rng(0xad5);
    CacheLine r0 = randomLine(rng), r1 = randomLine(rng);
    // A dictionary whose tail is a run of 17 equal words across the
    // ref boundary: longer than one copy token can carry.
    CacheLine eq_tail = r1;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        eq_tail.setWord(w, w < 15 ? r1.word(w) : 0x5a5a5a5au);
    CacheLine eq_head;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        eq_head.setWord(w, 0x5a5a5a5au);

    std::vector<CacheLine> lines;
    lines.push_back(CacheLine{});
    lines.push_back(periodicLine({0xdeadbeefu}));
    lines.push_back(periodicLine({0x5a5a5a5au}));
    lines.push_back(periodicLine({r0.word(3)}));
    lines.push_back(periodicLine({0xdeadbeefu, 0xcafef00du}));
    lines.push_back(periodicLine({0xdeadbeefu, 0u}));
    lines.push_back(periodicLine({0x11u, 0xdeadbeefu}));
    lines.push_back(periodicLine({0xdeadbeefu, 0xcafef00du, 0x1u}));
    lines.push_back(periodicLine({0u, 0u, 0xabcdef01u}));
    lines.push_back(periodicLine({r0.word(0), r0.word(1), r0.word(2)}));
    // Zero and byte runs of 15 and 16 words at both ends of the line.
    for (unsigned run : {15u, 16u}) {
        for (bool at_end : {false, true}) {
            CacheLine z = periodicLine({0xfeedfaceu});
            CacheLine b = periodicLine({0xfeedfaceu});
            for (unsigned k = 0; k < run; ++k) {
                unsigned w = at_end ? kWordsPerLine - 1 - k : k;
                z.setWord(w, 0);
                b.setWord(w, 1 + (k % 200));
            }
            lines.push_back(z);
            lines.push_back(b);
        }
    }
    // Copies that start in the dictionary and continue into the
    // line's own already-emitted words.
    lines.push_back(lineOf({0x1111u, 0x2222u, 0x3333u, 0xabcdefu,
                            r1.word(14), r1.word(15), 0x1111u, 0x2222u,
                            0x3333u, 0xabcdefu, r1.word(15), 0x1111u}));
    lines.push_back(lineOf({0x5a5a5a5au, 0x5a5a5a5au, 0x77777777u,
                            0x5a5a5a5au, 0x5a5a5a5au, 0x5a5a5a5au,
                            0x77777777u, 0x5a5a5a5au}));
    // Lines equal to a reference, and off by one word from one.
    lines.push_back(r0);
    lines.push_back(r1);
    lines.push_back(eq_tail);
    lines.push_back(mutated(r1, rng, 1));

    Lbe lbe;
    const RefList dicts[] = {{},
                             {&r0},
                             {&r1},
                             {&r0, &r1},
                             {&eq_tail, &eq_head},
                             {&r0, &eq_tail, &eq_head},
                             {&r1, &r1, &r1}};
    for (std::size_t li = 0; li < lines.size(); ++li)
        for (const RefList &refs : dicts)
            EXPECT_TRUE(lbeMatchesReference(lbe, lines[li], refs))
                << "line " << li << ", " << refs.size() << " refs";
}

TEST(LbeDifferential, StreamsWrapTheFifo)
{
    // lbe256 (64 words, whole lines) and a 25-word FIFO whose head
    // lands mid-line, over at least 1,000 lines each.
    for (unsigned dict_bytes : {256u, 100u}) {
        Rng rng(0x256 + dict_bytes);
        CompressorPtr enc = dict_bytes == 256
                                ? makeCompressor("lbe256")
                                : std::make_unique<Lbe>(
                                      Lbe::Config{dict_bytes, true});
        Lbe dec(Lbe::Config{dict_bytes, true});
        lbe_ref::Stream ref(dict_bytes / 4);
        std::vector<CacheLine> recent;
        for (int n = 0; n < 1500; ++n) {
            RefList pool;
            for (const CacheLine &l : recent)
                pool.push_back(&l);
            CacheLine line = n % 5 == 0 ? randomLine(rng)
                                        : structuredLine(rng, pool);
            BitVec got = enc->compress(line, {});
            ASSERT_TRUE(sameBits(got, ref.encodeAndPush(line)))
                << dict_bytes << "B dictionary, line " << n;
            ASSERT_EQ(dec.decompress(got, {}), line)
                << dict_bytes << "B dictionary, line " << n;
            recent.push_back(line);
            if (recent.size() > 6)
                recent.erase(recent.begin());
        }
    }
}

TEST(LbeDifferential, SyntheticMemoryLines)
{
    Lbe lbe;
    for (const char *bench : {"soplex", "mcf"}) {
        SyntheticMemory mem(benchmarkProfile(bench).value, 0, 17);
        lbe_ref::Stream stream(64);
        Lbe persistent(Lbe::Config{256, true});
        std::vector<CacheLine> lines;
        for (std::uint64_t rel = 0; rel < 6000; ++rel)
            lines.push_back(mem.generate(rel * 7 % 4096));
        for (std::size_t n = 3; n < lines.size(); ++n) {
            const RefList dicts[] = {
                {},
                {&lines[n - 1]},
                {&lines[n - 2], &lines[n - 1]},
                {&lines[n - 3], &lines[n - 2], &lines[n - 1]}};
            for (const RefList &refs : dicts)
                ASSERT_TRUE(lbeMatchesReference(lbe, lines[n], refs))
                    << bench << " line " << n << ", " << refs.size()
                    << " refs";
            ASSERT_TRUE(sameBits(persistent.compress(lines[n], {}),
                                 stream.encodeAndPush(lines[n])))
                << bench << " stream line " << n;
        }
    }
}

TEST(LbePlan, ThreeRefsFillTheNarrowMask)
{
    // 48 reference words plus the 16-word self window use all 64
    // bits of the narrow source mask. Runs that end on the last
    // reference word and copies of the line's own later words
    // exercise its top bits.
    Rng rng(0x64);
    Lbe lbe;
    for (int iter = 0; iter < 2000; ++iter) {
        CacheLine r[3] = {randomLine(rng), randomLine(rng),
                          randomLine(rng)};
        const RefList refs = {&r[0], &r[1], &r[2]};
        CacheLine tail_copy;
        for (unsigned w = 0; w < kWordsPerLine; ++w)
            tail_copy.setWord(w, w < 8 ? r[2].word(8 + w)
                                       : tail_copy.word(w - 8));
        for (const CacheLine &line :
             {structuredLine(rng, refs), tail_copy, r[2]})
            ASSERT_TRUE(lbeMatchesReference(lbe, line, refs))
                << "iteration " << iter;
    }
}

TEST(LbePlan, DraftsHoldTwoSlotsForOneLine)
{
    // The channel drafts self into one slot and refs into the other,
    // then emits either; each slot keeps its own plan.
    Rng rng(0x5107);
    Lbe lbe;
    for (int iter = 0; iter < 500; ++iter) {
        CacheLine ref = randomLine(rng);
        const RefList refs = {&ref};
        CacheLine line = structuredLine(rng, refs);
        const std::size_t self_bits = lbe.draft(line, {}, 0);
        const std::size_t refs_bits = lbe.draft(line, refs, 1);
        BitVec out;
        lbe.emit(iter % 2, out);
        const BitVec want = iter % 2 ? lbe_ref::encodeWithRefs(line, refs)
                                     : lbe_ref::encodeWithRefs(line, {});
        ASSERT_TRUE(sameBits(out, want)) << "iteration " << iter;
        EXPECT_EQ(out.sizeBits(), iter % 2 ? refs_bits : self_bits);
        // Emission reuses the buffer: the other slot after it.
        lbe.emit(1 - iter % 2, out);
        EXPECT_EQ(out.sizeBits(), iter % 2 ? self_bits : refs_bits);
        EXPECT_EQ(lbe.decompress(out, iter % 2 ? RefList{} : refs),
                  line);
    }
}

TEST(LbePlan, WideMaskStreamsAndTailDictionaries)
{
    // lbe256 (64 + 16 sources) and a 50-word FIFO (66 sources: three
    // whole lines and a two-word tail) take the 128-bit mask; a
    // 10-word FIFO (40 bytes, all tail) fits the 64-bit one. Drafts
    // read the stream without advancing it: drafting a line twice
    // and emitting it gives the bits compress() gives on a copy of
    // the engine taken before the drafts, and the streams stay in
    // step afterwards.
    for (unsigned dict_bytes : {256u, 200u, 40u}) {
        Rng rng(0x40 + dict_bytes);
        Lbe lbe(Lbe::Config{dict_bytes, true});
        Lbe dec(Lbe::Config{dict_bytes, true});
        lbe_ref::Stream ref(dict_bytes / 4);
        std::vector<CacheLine> recent;
        for (int n = 0; n < 1200; ++n) {
            RefList pool;
            for (const CacheLine &l : recent)
                pool.push_back(&l);
            CacheLine line = n % 7 == 0 ? randomLine(rng)
                                        : structuredLine(rng, pool);
            Lbe fresh = lbe;
            const std::size_t first = lbe.draft(line, {}, 0);
            ASSERT_EQ(lbe.draft(line, {}, 1), first);
            BitVec emitted;
            lbe.emit(1, emitted);
            BitVec want = fresh.compress(line, {});
            ASSERT_TRUE(sameBits(emitted, want))
                << dict_bytes << "B dictionary, line " << n;
            ASSERT_TRUE(sameBits(lbe.compress(line, {}),
                                 ref.encodeAndPush(line)))
                << dict_bytes << "B dictionary, line " << n;
            ASSERT_EQ(dec.decompress(want, {}), line)
                << dict_bytes << "B dictionary, line " << n;
            recent.push_back(line);
            if (recent.size() > 6)
                recent.erase(recent.begin());
        }
    }
}

TEST(EngineDraft, DefaultDraftEmitsWhatCompressWrites)
{
    // Engines without a plan of their own draft by compressing: the
    // drafted size is the emitted size and the bits are compress()'s.
    Rng rng(0xd4af7);
    for (const std::string &name : compressorNames()) {
        SCOPED_TRACE(name);
        CompressorPtr drafting = makeCompressor(name);
        CompressorPtr plain = makeCompressor(name);
        for (int i = 0; i < 200; ++i) {
            CacheLine base = randomLine(rng);
            CacheLine line = mutated(base, rng, 2);
            const RefList refs = {&base};
            const std::size_t bits = drafting->draft(line, refs, 1);
            BitVec out;
            drafting->emit(1, out);
            EXPECT_EQ(out.sizeBits(), bits);
            ASSERT_TRUE(sameBits(out, plain->compress(line, refs)));
        }
    }
}

// ---------------------------------------------------------------------
// LZSS / gzip specifics
// ---------------------------------------------------------------------

TEST(Lzss, StreamingWindowRoundTripManyLines)
{
    Lzss enc_side, dec_side;
    Rng rng(47);
    CacheLine base = sparseLine(rng, 0.3);
    for (int i = 0; i < 600; ++i) {
        CacheLine l = i % 3 ? mutated(base, rng, 2) : randomLine(rng);
        BitVec enc = enc_side.compress(l, {});
        ASSERT_EQ(dec_side.decompress(enc, {}), l) << "line " << i;
    }
}

TEST(Lzss, WindowFindsOldLines)
{
    Lzss lz;
    Rng rng(53);
    CacheLine a = randomLine(rng);
    lz.compress(a, {});
    // 100 unrelated lines later (well within 32KB = 512 lines), the
    // duplicate should still compress extremely well.
    for (int i = 0; i < 100; ++i) {
        CacheLine f = randomLine(rng);
        lz.compress(f, {});
    }
    std::size_t dup = lz.draft(a, {}, 0);
    EXPECT_LT(dup, 100u);
}

TEST(Lzss, WindowForgetsBeyondCapacity)
{
    Lzss::Config cfg;
    cfg.window_bytes = 4096; // 64 lines
    Lzss lz(cfg);
    Rng rng(59);
    CacheLine a = randomLine(rng);
    lz.compress(a, {});
    for (int i = 0; i < 200; ++i) { // flush the window
        CacheLine f = randomLine(rng);
        lz.compress(f, {});
    }
    std::size_t dup = lz.draft(a, {}, 0);
    EXPECT_GT(dup, 400u); // no trace of the old duplicate
}

TEST(Lzss, DictionaryPollutionDegradesInterleavedStreams)
{
    // The §VI-C effect: interleave a compressible stream with a
    // random one and the compressible stream gets worse because the
    // window is shared.
    Lzss::Config cfg;
    cfg.window_bytes = 4096;
    Rng rng(61);
    std::vector<CacheLine> pool;
    CacheLine base = sparseLine(rng, 0.3);
    for (int i = 0; i < 64; ++i)
        pool.push_back(mutated(base, rng, 2));

    Lzss alone(cfg);
    std::size_t alone_bits = 0;
    for (const CacheLine &l : pool)
        alone_bits += alone.compress(l, {}).sizeBits();

    Lzss shared(cfg);
    std::size_t shared_bits = 0;
    Rng rng2(62);
    for (const CacheLine &l : pool) {
        shared_bits += shared.compress(l, {}).sizeBits();
        for (int k = 0; k < 3; ++k) { // polluting stream
            CacheLine noise = randomLine(rng2);
            shared.compress(noise, {});
        }
    }
    EXPECT_GT(shared_bits, alone_bits);
}

TEST(Lzss, RefSeededCatchesByteShifts)
{
    Lzss::Config cfg;
    cfg.persistent = false;
    Lzss lz(cfg);
    Rng rng(67);
    CacheLine ref = randomLine(rng);
    CacheLine shifted;
    for (unsigned b = 0; b < kLineBytes; ++b)
        shifted.setByte(b, ref.byte((b + 1) % kLineBytes));
    RefList refs{&ref};
    std::size_t bits = lz.compress(shifted, refs).sizeBits();
    EXPECT_LT(bits, 150u); // essentially one long match
    EXPECT_EQ(lz.decompress(lz.compress(shifted, refs), refs),
              shifted);
}

// ---------------------------------------------------------------------
// Oracle specifics
// ---------------------------------------------------------------------

TEST(Oracle, NeverWorseThanAllLiterals)
{
    Oracle o;
    Rng rng(71);
    for (int i = 0; i < 20; ++i) {
        CacheLine l = randomLine(rng);
        EXPECT_LE(o.compress(l, {}).sizeBits(), 9u * kLineBytes);
    }
}

TEST(Oracle, ExactDuplicateIsOneCopyToken)
{
    Oracle o;
    Rng rng(73);
    CacheLine ref = randomLine(rng);
    RefList refs{&ref};
    BitVec enc = o.compress(ref, refs);
    // Selector bit plus one copy token, whichever representation
    // (byte DP or word-aligned) is cheaper.
    EXPECT_LE(enc.sizeBits(), 16u);
    EXPECT_EQ(o.decompress(enc, refs), ref);
}

TEST(Oracle, HandlesUnalignedDuplicates)
{
    Oracle o;
    Lbe lbe;
    Rng rng(79);
    CacheLine ref = randomLine(rng);
    CacheLine shifted;
    for (unsigned b = 0; b < kLineBytes; ++b)
        shifted.setByte(b, ref.byte((b + 3) % kLineBytes));
    RefList refs{&ref};
    std::size_t oracle_bits = o.compress(shifted, refs).sizeBits();
    std::size_t lbe_bits = lbe.compress(shifted, refs).sizeBits();
    EXPECT_LT(oracle_bits, lbe_bits); // word-aligned engines miss it
    EXPECT_EQ(o.decompress(o.compress(shifted, refs), refs), shifted);
}

TEST(Oracle, SelfReferencesWithinLine)
{
    Oracle o;
    CacheLine l;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        l.setWord(w, 0xabcd1234);
    BitVec enc = o.compress(l, {});
    // First 4ish literal bytes then long self-copies.
    EXPECT_LT(enc.sizeBits(), 100u);
    EXPECT_EQ(o.decompress(enc, {}), l);
}

// ---------------------------------------------------------------------
// ZeroRun & factory & ideal model
// ---------------------------------------------------------------------

TEST(ZeroRun, SizesAreExact)
{
    ZeroRun z;
    EXPECT_EQ(z.compress(CacheLine{}, {}).sizeBits(), kWordsPerLine);
    CacheLine full = CacheLine::filledWords(5);
    EXPECT_EQ(z.compress(full, {}).sizeBits(), kWordsPerLine * 33u);
}

TEST(Factory, AllNamesConstruct)
{
    for (const std::string &name : compressorNames()) {
        auto eng = makeCompressor(name);
        ASSERT_NE(eng, nullptr);
        EXPECT_FALSE(eng->name().empty());
    }
}

TEST(Factory, UnknownNameDies)
{
    EXPECT_EXIT(makeCompressor("nope"),
                ::testing::ExitedWithCode(1), "unknown compressor");
}

TEST(IdealModel, HitsAreCheaperWithoutPointerCost)
{
    Rng rng(83);
    std::vector<CacheLine> lines;
    CacheLine base = sparseLine(rng, 0.2);
    for (int i = 0; i < 100; ++i)
        lines.push_back(mutated(base, rng, 1));

    IdealDictModel ideal(1 << 16, false);
    IdealDictModel with_ptr(1 << 16, true);
    std::size_t ideal_bits = 0, ptr_bits = 0;
    for (const CacheLine &l : lines) {
        ideal_bits += ideal.sizeLine(l);
        ptr_bits += with_ptr.sizeLine(l);
    }
    EXPECT_LT(ideal_bits, ptr_bits);
}

TEST(IdealModel, BiggerDictionaryNeverHurtsIdealCurve)
{
    Rng rng(89);
    std::vector<CacheLine> lines;
    for (int i = 0; i < 400; ++i) {
        CacheLine base = CacheLine::filledWords(
            static_cast<std::uint32_t>(i % 50 + 0x1000));
        lines.push_back(mutated(base, rng, 4));
    }
    std::size_t small_bits = 0, big_bits = 0;
    IdealDictModel small(256, false), big(1 << 20, false);
    for (const CacheLine &l : lines) {
        small_bits += small.sizeLine(l);
        big_bits += big.sizeLine(l);
    }
    EXPECT_LE(big_bits, small_bits);
}

// ---------------------------------------------------------------------
// FPC specifics
// ---------------------------------------------------------------------

TEST(Fpc, ZeroRunsAreSixBits)
{
    Fpc f;
    // 16 zero words = two 8-word runs of 6 bits each.
    EXPECT_EQ(f.compress(CacheLine{}, {}).sizeBits(), 12u);
}

TEST(Fpc, SignExtendedImmediates)
{
    Fpc f;
    CacheLine l;
    l.setWord(0, 0x00000007);  // 4-bit
    l.setWord(1, 0xfffffff9);  // 4-bit negative
    l.setWord(2, 0x0000007f);  // 8-bit
    l.setWord(3, 0xffffff80);  // 8-bit negative
    l.setWord(4, 0x00007fff);  // 16-bit
    l.setWord(5, 0xffff8000);  // 16-bit negative
    l.setWord(6, 0x12340000);  // halfword padded
    l.setWord(7, 0x00ffff85);  // none: uncompressed (hi=255)
    l.setWord(8, 0x00120043);  // two sign-extended halfwords
    l.setWord(9, 0xababdead);  // uncompressed
    l.setWord(10, 0x55555555); // repeated bytes
    BitVec enc = f.compress(l, {});
    EXPECT_EQ(f.decompress(enc, {}), l);
    // 2 zero-run tokens for words 11..15 plus one run boundary case:
    // exact size: words 0..10 plus one 5-word zero run.
    std::size_t expected = (3 + 4) * 2 + (3 + 8) * 2 + (3 + 16) * 2
                           + (3 + 16)       // half padded
                           + (3 + 32)       // 0x00ffff85
                           + (3 + 16)       // two halfwords
                           + (3 + 32)       // 0xababdead
                           + (3 + 8)        // repeated bytes
                           + 6;             // zero run 11..15
    EXPECT_EQ(enc.sizeBits(), expected);
}

TEST(Fpc, NegativeHalfwordsRoundTrip)
{
    Fpc f;
    CacheLine l;
    l.setWord(0, 0xffaf0011); // hi=-81, lo=17 both 8-bit
    l.setWord(1, 0x004cffd3); // hi=76, lo=-45
    BitVec enc = f.compress(l, {});
    EXPECT_EQ(f.decompress(enc, {}), l);
}

// ---------------------------------------------------------------------
// Decode errors: a malformed image gets a typed error, never an abort
// or a write past the line.
// ---------------------------------------------------------------------

namespace
{

/** An image built from (value, width) fields, in order. */
BitVec
image(std::initializer_list<std::pair<std::uint64_t, unsigned>> fields)
{
    BitWriter bw;
    for (const auto &[value, nbits] : fields)
        bw.put(value, nbits);
    return bw.take();
}

/** The name of the error @p eng reports for @p bits. */
std::string
errorOf(Compressor &eng, const BitVec &bits, const RefList &refs = {})
{
    return decodeErrorName(eng.decode(bits, refs).error);
}

} // namespace

TEST(DecodeErrors, LbeLiteralRunPastLineEnd)
{
    // Eight zero words, then a 16-word literal run from word 8.
    BitWriter bw;
    bw.put(0b00, 2);
    bw.put(8 - 1, 4);
    bw.put(0b10, 2);
    bw.put(16 - 1, 4);
    for (unsigned k = 0; k < 16; ++k)
        bw.put(0xdeadbeef, 32);
    Lbe lbe;
    EXPECT_EQ(errorOf(lbe, bw.bits()), "bad shape");
}

TEST(DecodeErrors, LbeCopyPastTheDecodedFrontier)
{
    // Self-compression has no dictionary: word 0 has no source.
    // Offsets index the 16-word self window in 4 bits.
    Lbe lbe;
    EXPECT_EQ(errorOf(lbe, image({{0b01, 2}, {0, 4}, {0, 4}})),
              "bad distance");

    // One ref: 16 dictionary words, 5-bit offsets. At word 1 only
    // offsets below 16 + 1 have been decoded.
    Rng rng(83);
    const CacheLine ref = randomLine(rng);
    const RefList refs{&ref};
    auto copyAtWord1 = [](unsigned off) {
        return image({{0b10, 2}, {0, 4}, {0x1234, 32}, // literal
                      {0b01, 2}, {off, 5}, {0, 4},     // 1-word copy
                      {0b00, 2}, {14 - 1, 4}});        // zero run
    };
    EXPECT_EQ(errorOf(lbe, copyAtWord1(17), refs), "bad distance");
    const DecodeResult ok = lbe.decode(copyAtWord1(16), refs);
    ASSERT_TRUE(ok.ok());
    EXPECT_EQ(ok.line.word(1), 0x1234u); // word 0, through the window
}

TEST(DecodeErrors, LzssPerLineCopyPastLineEnd)
{
    Lzss::Config cfg;
    cfg.persistent = false;
    Lzss lz(cfg);
    // A literal, then a distance-1 copy of the longest length, 258.
    // Distances over the 32 KB window take 16 bits.
    EXPECT_EQ(errorOf(lz, image({{0, 1}, {0xab, 8},
                                 {1, 1}, {1, 16}, {258 - 3, 8}})),
              "bad shape");
}

TEST(DecodeErrors, OracleByteCopyPastLineEnd)
{
    // Byte-DP selector, a literal, then a 65-byte copy from byte 0.
    Oracle o;
    EXPECT_EQ(errorOf(o, image({{0, 1},
                                {0, 1}, {0xab, 8},
                                {1, 1}, {0, 8}, {65 - 2, 6}})),
              "bad shape");
}

TEST(DecodeErrors, ByteCopiesFromPastTheFrontier)
{
    // Nothing precedes byte 0 of a self-compressed line.
    Lzss::Config cfg;
    cfg.persistent = false;
    Lzss lz(cfg);
    EXPECT_EQ(errorOf(lz, image({{1, 1}, {1, 16}, {0, 8}})),
              "bad distance");
    // Byte-DP selector, then a copy whose source starts at the
    // frontier: offset 0 before any byte is decoded.
    Oracle o;
    EXPECT_EQ(errorOf(o, image({{0, 1}, {1, 1}, {0, 8}, {0, 6}})),
              "bad distance");
}

TEST(DecodeErrors, FpcZeroRunPastLineEnd)
{
    // Twelve uncompressed words, then an eight-word zero run.
    BitWriter bw;
    for (unsigned k = 0; k < 12; ++k) {
        bw.put(0b111, 3);
        bw.put(0xdeadbeef, 32);
    }
    bw.put(0b000, 3);
    bw.put(8 - 1, 3);
    Fpc f;
    EXPECT_EQ(errorOf(f, bw.bits()), "bad shape");
}

TEST(DecodeErrors, CpackIndexIntoEmptyDictionary)
{
    // mmmm at word 0: the per-line dictionary is still empty.
    Cpack c;
    EXPECT_EQ(errorOf(c, image({{0b10, 2}, {3, 4}})), "bad distance");
}

TEST(DecodeErrors, CpackUnusedCode)
{
    Cpack c;
    EXPECT_EQ(errorOf(c, image({{0b1111, 4}})), "bad opcode");
}

TEST(DecodeErrors, BdiUnusedEncodings)
{
    // Encodings 0..8 are in use; the other seven 4-bit values are not.
    Bdi b;
    for (unsigned enc = 9; enc < 16; ++enc)
        EXPECT_EQ(errorOf(b, image({{enc, 4}})), "bad opcode") << enc;
}

// ---------------------------------------------------------------------
// Decode robustness: every engine the simulator builds, fed its own
// images cut short and with single bits flipped.
// ---------------------------------------------------------------------

namespace
{

/** A baseline engine (makeCompressor) or a CABLE delegate
 *  (makeDelegateEngine), by name. */
struct EngineSpec
{
    bool delegate;
    std::string name;
};

std::ostream &
operator<<(std::ostream &os, const EngineSpec &e)
{
    return os << (e.delegate ? "delegate " : "") << e.name;
}

CompressorPtr
build(const EngineSpec &e)
{
    return e.delegate ? makeDelegateEngine(e.name) : makeCompressor(e.name);
}

std::vector<EngineSpec>
everyEngine()
{
    std::vector<EngineSpec> specs;
    for (const std::string &name : compressorNames())
        specs.push_back({false, name});
    for (const std::string &name : delegateEngineNames())
        specs.push_back({true, name});
    return specs;
}

} // namespace

class DecodeRobustness : public ::testing::TestWithParam<EngineSpec>
{
};

TEST_P(DecodeRobustness, CutImagesTruncateAndFlippedBitsNeverAbort)
{
    const EngineSpec &spec = GetParam();
    Rng rng(0xdec0de);
    CompressorPtr enc = build(spec);
    // Images with refs never read or move a persistent stream, so
    // one decoder serves all of them.
    CompressorPtr with_refs = build(spec);
    // Self images sent so far: a fresh decoder replays them to reach
    // the encoder's stream state, since a probe may leave its
    // decoder's state undefined.
    std::vector<BitVec> sent;
    constexpr int kLines = 8;
    for (int t = 0; t < kLines; ++t) {
        const unsigned nrefs = t % 4;
        const CacheLine base = t % 2 ? randomLine(rng) : sparseLine(rng, 0.4);
        std::vector<CacheLine> store;
        for (unsigned i = 0; i < nrefs; ++i)
            store.push_back(mutated(base, rng, 3));
        RefList refs;
        for (const CacheLine &l : store)
            refs.push_back(&l);
        const CacheLine line = mutated(base, rng, 2);
        const BitVec img = enc->compress(line, refs);

        CompressorPtr fresh;
        auto decoder = [&]() -> Compressor & {
            if (nrefs > 0)
                return *with_refs;
            fresh = build(spec);
            for (const BitVec &b : sent)
                fresh->decompress(b, {});
            return *fresh;
        };
        ASSERT_EQ(decoder().decompress(img, refs), line) << spec;

        BitVec cut;
        for (std::size_t n = 0; n < img.sizeBits(); ++n) {
            ASSERT_EQ(decodeErrorName(decoder().decode(cut, refs).error),
                      std::string("truncated"))
                << spec << ", line " << t << " cut to " << n << " of "
                << img.sizeBits() << " bits";
            cut.pushBit(img.bit(n));
        }
        for (std::size_t i = 0; i < img.sizeBits(); ++i) {
            BitVec flipped = img;
            flipped.flipBit(i);
            // A line or a typed error; ASan and the assertions in
            // the standard library catch any stray access.
            (void)decoder().decode(flipped, refs);
        }
        if (nrefs == 0)
            sent.push_back(img);
    }
}

INSTANTIATE_TEST_SUITE_P(
    EveryEngine, DecodeRobustness, ::testing::ValuesIn(everyEngine()),
    [](const ::testing::TestParamInfo<EngineSpec> &spec) {
        return (spec.param.delegate ? "delegate_" : "") + spec.param.name;
    });
