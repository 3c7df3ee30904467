/**
 * @file
 * Unit tests for the common substrate: bit utilities, the CacheLine
 * value type, bitstreams, deterministic RNG, the stats package and
 * the zero-page rows (with the all-zero invariant of every element
 * type stored in one).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <new>
#include <sstream>
#include <unistd.h>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/bitops.h"
#include "common/line.h"
#include "common/rng.h"
#include "common/stats.h"
#include "common/types.h"
#include "common/zero_row.h"
#include "compress/bitstream.h"
#include "core/hash_table.h"
#include "core/wmt.h"

using namespace cable;

TEST(Bitops, TrivialWordZeros)
{
    EXPECT_TRUE(isTrivialWord(0));
    EXPECT_TRUE(isTrivialWord(0xff));       // 24 leading zeros
    EXPECT_TRUE(isTrivialWord(0x01));
    EXPECT_FALSE(isTrivialWord(0x100));     // 23 leading zeros
    EXPECT_FALSE(isTrivialWord(0x80000000));
}

TEST(Bitops, TrivialWordOnes)
{
    EXPECT_TRUE(isTrivialWord(0xffffffff));
    EXPECT_TRUE(isTrivialWord(0xffffff00)); // 24 leading ones
    EXPECT_TRUE(isTrivialWord(0xffffff7f));
    EXPECT_FALSE(isTrivialWord(0xfffffe00)); // 23 leading ones
}

TEST(Bitops, TrivialThresholdConfigurable)
{
    EXPECT_TRUE(isTrivialWord(0x0000ffff, 16));
    EXPECT_FALSE(isTrivialWord(0x0000ffff, 24));
}

TEST(Bitops, BitsToIndex)
{
    EXPECT_EQ(bitsToIndex(0), 0u);
    EXPECT_EQ(bitsToIndex(1), 0u);
    EXPECT_EQ(bitsToIndex(2), 1u);
    EXPECT_EQ(bitsToIndex(3), 2u);
    EXPECT_EQ(bitsToIndex(16), 4u);
    EXPECT_EQ(bitsToIndex(17), 5u);
    EXPECT_EQ(bitsToIndex(1u << 20), 20u);
}

TEST(Bitops, CeilDiv)
{
    EXPECT_EQ(ceilDiv(0, 16), 0u);
    EXPECT_EQ(ceilDiv(1, 16), 1u);
    EXPECT_EQ(ceilDiv(16, 16), 1u);
    EXPECT_EQ(ceilDiv(17, 16), 2u);
    EXPECT_EQ(ceilDiv(512, 16), 32u);
}

TEST(Bitops, CeilDivNearMax)
{
    // The naive (a + b - 1) / b form wraps here and returns 0.
    EXPECT_EQ(ceilDiv(UINT64_MAX, 16), (UINT64_MAX >> 4) + 1);
    EXPECT_EQ(ceilDiv(UINT64_MAX, 1), UINT64_MAX);
    EXPECT_EQ(ceilDiv(UINT64_MAX - 14, 16), (UINT64_MAX >> 4) + 1);
}

TEST(Bitops, IsPow2)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(3));
    EXPECT_FALSE(isPow2(1000));
}

TEST(Types, LineAlign)
{
    EXPECT_EQ(lineAlign(0), 0u);
    EXPECT_EQ(lineAlign(63), 0u);
    EXPECT_EQ(lineAlign(64), 64u);
    EXPECT_EQ(lineAlign(0x12345), 0x12340u);
    EXPECT_EQ(lineNumber(128), 2u);
}

TEST(Types, LineIDEquality)
{
    LineID a(3, 1), b(3, 1), c(3, 2);
    EXPECT_EQ(a, b);
    EXPECT_NE(a, c);
    EXPECT_NE(a, kInvalidLineID);
    EXPECT_EQ(LineID{}, kInvalidLineID);
    EXPECT_EQ(a.pack(8), 3u * 8 + 1);
}

TEST(CacheLine, WordAccessors)
{
    CacheLine l;
    EXPECT_TRUE(l.isZero());
    l.setWord(3, 0xdeadbeef);
    EXPECT_EQ(l.word(3), 0xdeadbeefu);
    EXPECT_FALSE(l.isZero());
    EXPECT_EQ(l.byte(12), 0xefu); // little-endian
    l.setWord64(0, 0x0123456789abcdefull);
    EXPECT_EQ(l.word64(0), 0x0123456789abcdefull);
    EXPECT_EQ(l.word(0), 0x89abcdefu);
    EXPECT_EQ(l.word(1), 0x01234567u);
}

TEST(CacheLine, FilledAndEquality)
{
    CacheLine a = CacheLine::filledWords(0x42);
    CacheLine b = CacheLine::filledWords(0x42);
    EXPECT_EQ(a, b);
    b.setByte(0, 0x43);
    EXPECT_NE(a, b);
}

TEST(CacheLine, FromBytesRoundTrip)
{
    std::uint8_t raw[kLineBytes];
    for (unsigned i = 0; i < kLineBytes; ++i)
        raw[i] = static_cast<std::uint8_t>(i * 7 + 1);
    CacheLine l = CacheLine::fromBytes(raw);
    for (unsigned i = 0; i < kLineBytes; ++i)
        EXPECT_EQ(l.byte(i), raw[i]);
}

TEST(CacheLine, ToStringHasAllBytes)
{
    CacheLine l = CacheLine::filledWords(0x11223344);
    std::string s = l.toString();
    EXPECT_NE(s.find("44332211"), std::string::npos);
}

TEST(BitStream, WriteReadRoundTrip)
{
    BitWriter bw;
    bw.put(0b101, 3);
    bw.put(0xdead, 16);
    bw.put(1, 1);
    bw.put(0x0123456789abcdefull, 64);
    BitVec v = bw.take();
    EXPECT_EQ(v.sizeBits(), 3u + 16 + 1 + 64);

    BitReader br(v);
    EXPECT_EQ(br.get(3), 0b101u);
    EXPECT_EQ(br.get(16), 0xdeadu);
    EXPECT_EQ(br.get(1), 1u);
    EXPECT_EQ(br.get(64), 0x0123456789abcdefull);
    EXPECT_TRUE(br.exhausted());
}

TEST(BitStream, AppendBits)
{
    BitWriter a;
    a.put(0b1100, 4);
    BitWriter b;
    b.put(0b1010, 4);
    a.appendBits(b.bits());
    BitReader br(a.bits());
    EXPECT_EQ(br.get(8), 0b11001010u);
}

TEST(BitStream, ZeroLengthVec)
{
    BitVec v;
    EXPECT_TRUE(v.empty());
    EXPECT_EQ(v.sizeBits(), 0u);
}

TEST(BitStream, MsbFirstBytePacking)
{
    // pushBit must set bits MSB-first without narrowing surprises
    // at byte boundaries.
    BitVec v;
    v.pushBit(true); // bit 7 of byte 0
    for (int i = 0; i < 7; ++i)
        v.pushBit(false);
    v.pushBit(true); // bit 7 of byte 1
    EXPECT_EQ(v.data()[0], 0x80u);
    EXPECT_EQ(v.data()[1], 0x80u);
    EXPECT_TRUE(v.bit(0));
    EXPECT_TRUE(v.bit(8));
}

namespace
{

/**
 * Bit-serial reference for the byte-granular BitWriter/BitReader: one
 * bool per bit, serialized MSB-first with zero padding only when the
 * bytes are compared.
 */
struct RefBits
{
    std::vector<bool> bits;

    void
    put(std::uint64_t value, unsigned nbits)
    {
        for (unsigned i = nbits; i-- > 0;)
            bits.push_back((value >> i) & 1);
    }

    void
    append(const RefBits &other)
    {
        bits.insert(bits.end(), other.bits.begin(), other.bits.end());
    }

    std::uint64_t
    read(std::size_t pos, unsigned nbits) const
    {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < nbits; ++i)
            v = (v << 1) | static_cast<std::uint64_t>(bits[pos + i]);
        return v;
    }

    std::vector<std::uint8_t>
    bytes() const
    {
        std::vector<std::uint8_t> out((bits.size() + 7) / 8, 0);
        for (std::size_t i = 0; i < bits.size(); ++i)
            if (bits[i])
                out[i / 8] |= static_cast<std::uint8_t>(
                    0x80u >> (i % 8));
        return out;
    }
};

/** Same length, same bytes (pad bits included), pad bits zero. */
void
expectSameBits(const BitVec &v, const RefBits &ref)
{
    ASSERT_EQ(v.sizeBits(), ref.bits.size());
    std::vector<std::uint8_t> want = ref.bytes();
    std::vector<std::uint8_t> got(v.data(), v.data() + want.size());
    EXPECT_EQ(got, want);
    if (unsigned used = v.sizeBits() % 8) {
        EXPECT_EQ(v.data()[v.sizeBits() / 8] & (0xffu >> used), 0u)
            << "pad bits must stay zero";
    }
}

/** Puts the low @p nbits of @p value (junk above them included). */
void
putBoth(BitWriter &bw, RefBits &ref, std::uint64_t value,
        unsigned nbits)
{
    bw.put(value, nbits);
    std::uint64_t field =
        nbits == 64 ? value : value & ((std::uint64_t{1} << nbits) - 1);
    ref.put(field, nbits);
}

} // namespace

TEST(BitStream, PutEveryWidthMatchesBitSerial)
{
    Rng rng(11);
    for (unsigned lead = 0; lead < 8; ++lead) {
        for (unsigned nbits = 0; nbits <= 64; ++nbits) {
            BitWriter bw;
            RefBits ref;
            for (unsigned i = 0; i < lead; ++i)
                putBoth(bw, ref, rng.next(), 1);
            putBoth(bw, ref, rng.next(), nbits);
            // A trailing field exposes any junk left in the pad bits.
            putBoth(bw, ref, rng.next(), 5);
            expectSameBits(bw.bits(), ref);
        }
    }
}

TEST(BitStream, PackerMatchesBitSerialInAReusedBuffer)
{
    // Fields of 0-32 bits (junk above them masked), written into one
    // BitVec over and over: a longer stale stream must not leak into
    // a shorter one's bytes or pad bits.
    Rng rng(13);
    BitVec out;
    for (int iter = 0; iter < 2000; ++iter) {
        RefBits ref;
        std::vector<std::pair<std::uint32_t, unsigned>> fields;
        const unsigned n = static_cast<unsigned>(rng.below(40));
        for (unsigned i = 0; i < n; ++i) {
            const auto nbits = static_cast<unsigned>(rng.below(33));
            const auto value = static_cast<std::uint32_t>(rng.next());
            fields.emplace_back(value, nbits);
            ref.put(nbits == 32 ? value
                                : value & ((1u << nbits) - 1),
                    nbits);
        }
        BitPacker pk(out, ref.bits.size());
        for (const auto &[value, nbits] : fields)
            pk.put(value, nbits);
        pk.finish();
        expectSameBits(out, ref);
    }
}

TEST(BitStream, RandomFieldSequencesMatchBitSerial)
{
    Rng rng(12);
    for (int trial = 0; trial < 50; ++trial) {
        BitWriter bw;
        RefBits ref;
        for (int f = 0; f < 200; ++f)
            putBoth(bw, ref, rng.next(),
                    static_cast<unsigned>(rng.below(65)));
        expectSameBits(bw.bits(), ref);
    }
}

TEST(BitStream, AppendBitsAtEveryAlignment)
{
    Rng rng(13);
    // Destination and source lengths cover all 8x8 byte alignments,
    // empty and sub-byte sources, and multi-byte bodies.
    for (unsigned dst_len = 0; dst_len < 24; ++dst_len) {
        for (unsigned src_len = 0; src_len < 24; ++src_len) {
            BitWriter src;
            RefBits src_ref;
            for (unsigned i = 0; i < src_len; ++i)
                putBoth(src, src_ref, rng.next(), 1);
            BitWriter bw;
            RefBits ref;
            for (unsigned i = 0; i < dst_len; ++i)
                putBoth(bw, ref, rng.next(), 1);
            bw.appendBits(src.bits());
            ref.append(src_ref);
            expectSameBits(bw.bits(), ref);
            putBoth(bw, ref, rng.next(), 7);
            expectSameBits(bw.bits(), ref);
        }
    }
}

TEST(BitStream, AppendLongStreamsMatchesBitSerial)
{
    Rng rng(14);
    for (int trial = 0; trial < 40; ++trial) {
        BitWriter src;
        RefBits src_ref;
        for (std::uint64_t n = rng.below(40); n > 0; --n)
            putBoth(src, src_ref, rng.next(),
                    static_cast<unsigned>(rng.below(65)));
        BitWriter bw;
        RefBits ref;
        putBoth(bw, ref, rng.next(),
                static_cast<unsigned>(rng.below(65)));
        bw.appendBits(src.bits());
        ref.append(src_ref);
        bw.appendBits(bw.bits()); // self-append doubles the stream
        ref.append(RefBits(ref));
        expectSameBits(bw.bits(), ref);
    }
}

TEST(BitStream, InterleavedPushBitMatchesBitSerial)
{
    Rng rng(15);
    BitWriter bw;
    RefBits ref;
    BitVec pushed;
    RefBits pushed_ref;
    for (int step = 0; step < 3000; ++step) {
        switch (rng.below(3)) {
        case 0:
            putBoth(bw, ref, rng.next(),
                    static_cast<unsigned>(rng.below(65)));
            break;
        case 1: {
            bool b = rng.chance(0.5);
            pushed.pushBit(b);
            pushed_ref.bits.push_back(b);
            break;
        }
        default:
            bw.appendBits(pushed);
            ref.append(pushed_ref);
            break;
        }
    }
    expectSameBits(pushed, pushed_ref);
    BitVec v = bw.take();
    for (int i = 0; i < 13; ++i) {
        bool b = rng.chance(0.5);
        v.pushBit(b);
        ref.bits.push_back(b);
    }
    expectSameBits(v, ref);
}

TEST(BitStream, GetEveryWidthAndOffsetMatchesBitSerial)
{
    Rng rng(16);
    BitWriter bw;
    RefBits ref;
    for (int i = 0; i < 20; ++i)
        putBoth(bw, ref, rng.next(), 64);
    const BitVec &v = bw.bits();
    for (unsigned off = 0; off < 16; ++off) {
        for (unsigned nbits = 0; nbits <= 64; ++nbits) {
            BitReader br(v);
            ASSERT_EQ(br.get(off), ref.read(0, off));
            EXPECT_EQ(br.get(nbits), ref.read(off, nbits))
                << "off=" << off << " nbits=" << nbits;
            EXPECT_EQ(br.pos(), off + nbits);
        }
    }
    // Random sequential walk to the exact end.
    for (int trial = 0; trial < 50; ++trial) {
        BitReader br(v);
        std::size_t pos = 0;
        while (!br.exhausted()) {
            unsigned n = static_cast<unsigned>(std::min<std::uint64_t>(
                rng.below(65), br.remaining()));
            EXPECT_EQ(br.get(n), ref.read(pos, n));
            pos += n;
        }
        EXPECT_EQ(pos, v.sizeBits());
    }
}

TEST(BitStreamDeathTest, BitOutOfRangePanics)
{
    BitVec v;
    v.pushBit(true);
    EXPECT_DEATH((void)v.bit(1), "out of");
    EXPECT_DEATH(v.flipBit(1), "out of");
}

TEST(BitStream, ReadPastEndSetsOverrun)
{
    BitWriter bw;
    bw.put(0x5a, 7);
    BitReader br(bw.bits());
    EXPECT_EQ(br.get(3), 0b101u);
    EXPECT_FALSE(br.overrun());
    // Five bits asked, four left: 0, and the four are consumed.
    EXPECT_EQ(br.get(5), 0u);
    EXPECT_TRUE(br.overrun());
    EXPECT_EQ(br.pos(), 7u);
    EXPECT_EQ(br.remaining(), 0u);
    // Later reads stay 0 and the flag stays set; pos() never wraps.
    for (unsigned n : {1u, 8u, 64u, 0u}) {
        EXPECT_EQ(br.get(n), 0u) << n;
        EXPECT_TRUE(br.overrun());
        EXPECT_EQ(br.pos(), 7u);
        EXPECT_EQ(br.remaining(), 0u);
    }

    // Reading exactly to the end is no overrun; one bit more is.
    BitReader exact(bw.bits());
    EXPECT_EQ(exact.get(7), 0x5au);
    EXPECT_FALSE(exact.overrun());
    EXPECT_TRUE(exact.exhausted());
    EXPECT_EQ(exact.get(1), 0u);
    EXPECT_TRUE(exact.overrun());

    BitReader wide(bw.bits());
    EXPECT_EQ(wide.get(8), 0u);
    EXPECT_TRUE(wide.overrun());
    EXPECT_EQ(wide.pos(), 7u);

    BitVec empty;
    BitReader none(empty);
    EXPECT_EQ(none.get(0), 0u);
    EXPECT_FALSE(none.overrun());
    EXPECT_EQ(none.get(1), 0u);
    EXPECT_TRUE(none.overrun());
    EXPECT_EQ(none.pos(), 0u);
}

TEST(BitStreamDeathTest, PutWiderThan64Panics)
{
    BitWriter bw;
    EXPECT_DEATH(bw.put(0, 65), "nbits=65");
}

TEST(Rng, Deterministic)
{
    Rng a(123), b(123), c(124);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
    bool differs = false;
    Rng a2(123);
    for (int i = 0; i < 100; ++i)
        if (a2.next() != c.next())
            differs = true;
    EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange)
{
    Rng r(5);
    for (int i = 0; i < 1000; ++i) {
        double u = r.uniform();
        EXPECT_GE(u, 0.0);
        EXPECT_LT(u, 1.0);
        EXPECT_LT(r.below(17), 17u);
        auto x = r.range(10, 12);
        EXPECT_GE(x, 10u);
        EXPECT_LE(x, 12u);
    }
}

TEST(Rng, ChanceIsCalibrated)
{
    Rng r(99);
    int hits = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        hits += r.chance(0.3);
    EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.02);
}

TEST(Rng, SplitMixAvalanche)
{
    // Neighbouring inputs produce very different outputs.
    std::uint64_t a = splitMix64(1), b = splitMix64(2);
    EXPECT_NE(a, b);
    int diff_bits = __builtin_popcountll(a ^ b);
    EXPECT_GT(diff_bits, 10);
}

TEST(Stats, CountersAndRatios)
{
    StatSet s;
    s.add("a", 10);
    s.add("a", 5);
    s.add(s.counterId("b"), 3);
    EXPECT_EQ(s.get("a"), 15u);
    EXPECT_EQ(s.get("b"), 3u);
    EXPECT_EQ(s.get("missing"), 0u);
    EXPECT_DOUBLE_EQ(s.ratio("a", "b"), 5.0);
    EXPECT_DOUBLE_EQ(s.ratio("a", "missing"), 0.0);
}

TEST(Stats, MergeAndClear)
{
    StatSet a, b;
    a.add("x", 1);
    b.add("x", 2);
    b.add("y", 3);
    a.merge(b);
    EXPECT_EQ(a.get("x"), 3u);
    EXPECT_EQ(a.get("y"), 3u);
    a.clear();
    EXPECT_EQ(a.get("x"), 0u);
}

TEST(Stats, DumpIsSorted)
{
    StatSet s;
    s.add("zz", 1);
    s.add("aa", 2);
    std::ostringstream os;
    s.dump(os, "p.");
    std::string out = os.str();
    EXPECT_LT(out.find("p.aa 2"), out.find("p.zz 1"));
}

namespace
{

/** True if a T value-initialized over zero bytes leaves every byte
 *  zero, i.e. no member has a non-zero default. */
template <class T>
bool
valueInitIsZero()
{
    alignas(T) unsigned char buf[sizeof(T)] = {};
    ::new (static_cast<void *>(buf)) T{};
    return std::all_of(buf, buf + sizeof(T),
                       [](unsigned char b) { return b == 0; });
}

} // namespace

TEST(ZeroRow, EveryRowElementValueInitializesToZeroBytes)
{
    // A row's zero pages are its value-initialized elements only if
    // each type's value-initialized object is all-zero bytes. A
    // non-zero member default added later fails here.
    EXPECT_TRUE(valueInitIsZero<std::uint64_t>()); // cache key, stamp
    EXPECT_TRUE(valueInitIsZero<Cache::AlignedLine>());
    EXPECT_TRUE(valueInitIsZero<SignatureHashTable::Slot>());
    EXPECT_TRUE(valueInitIsZero<WayMapTable::Slot>());

    struct NonZeroDefault
    {
        std::uint32_t a = 0;
        bool valid = true;
    };
    EXPECT_FALSE(valueInitIsZero<NonZeroDefault>());
}

TEST(ZeroRow, StartsZeroedAndPageAligned)
{
    ZeroRow<std::uint64_t> row(3000);
    ASSERT_EQ(row.size(), 3000u);
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(row.data())
                  % static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE)),
              0u);
    EXPECT_TRUE(std::all_of(row.begin(), row.end(),
                            [](std::uint64_t v) { return v == 0; }));
    EXPECT_EQ(ZeroRow<std::uint64_t>().size(), 0u);
    EXPECT_EQ(ZeroRow<std::uint64_t>(0).begin(),
              ZeroRow<std::uint64_t>(0).end());
}

TEST(ZeroRow, CopiesAreDeepAndMovesTransferStorage)
{
    ZeroRow<std::uint64_t> a(600);
    a[0] = 7;
    a[599] = 9;
    ZeroRow<std::uint64_t> b = a;
    b[0] = 1;
    EXPECT_EQ(a[0], 7u);
    EXPECT_EQ(b[599], 9u);

    const std::uint64_t *storage = a.data();
    ZeroRow<std::uint64_t> c = std::move(a);
    EXPECT_EQ(c.data(), storage);
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.data(), nullptr);

    b = c;
    EXPECT_EQ(b[0], 7u);
    c.zero();
    EXPECT_EQ(c[599], 0u);
    EXPECT_EQ(b[599], 9u);
}
