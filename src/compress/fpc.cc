#include "compress/fpc.h"

namespace cable
{

namespace
{

enum Pattern : unsigned
{
    kZeroRun = 0b000,
    kSignExt4 = 0b001,
    kSignExt8 = 0b010,
    kSignExt16 = 0b011,
    kHalfPadded = 0b100,
    kTwoHalfSign8 = 0b101,
    kRepeatedBytes = 0b110,
    kUncompressed = 0b111,
};

/** Does @p v sign-extend from @p bits bits? */
bool
signExtends(std::uint32_t v, unsigned bits)
{
    std::int32_t s = static_cast<std::int32_t>(v);
    std::int32_t lim = std::int32_t{1} << (bits - 1);
    return s >= -lim && s < lim;
}

std::uint32_t
signExtend(std::uint32_t v, unsigned bits)
{
    std::uint32_t sign = 1u << (bits - 1);
    std::uint32_t mask = (bits >= 32) ? ~0u : ((1u << bits) - 1);
    v &= mask;
    return (v ^ sign) - sign;
}

} // namespace

BitVec
Fpc::compress(const CacheLine &line, const RefList &)
{
    BitWriter bw;
    unsigned i = 0;
    while (i < kWordsPerLine) {
        std::uint32_t w = line.word(i);
        if (w == 0) {
            unsigned run = 0;
            while (i + run < kWordsPerLine && run < 8
                   && line.word(i + run) == 0) {
                ++run;
            }
            bw.put(kZeroRun, 3);
            bw.put(run - 1, 3);
            i += run;
            continue;
        }
        if (signExtends(w, 4)) {
            bw.put(kSignExt4, 3);
            bw.put(w & 0xf, 4);
        } else if (signExtends(w, 8)) {
            bw.put(kSignExt8, 3);
            bw.put(w & 0xff, 8);
        } else if (signExtends(w, 16)) {
            bw.put(kSignExt16, 3);
            bw.put(w & 0xffff, 16);
        } else if ((w & 0x0000ffffu) == 0) {
            bw.put(kHalfPadded, 3);
            bw.put(w >> 16, 16);
        } else if (signExtends(signExtend(w >> 16, 16), 8)
                   && signExtends(signExtend(w & 0xffff, 16), 8)) {
            bw.put(kTwoHalfSign8, 3);
            bw.put((w >> 16) & 0xff, 8);
            bw.put(w & 0xff, 8);
        } else if (((w >> 24) & 0xff) == ((w >> 16) & 0xff)
                   && ((w >> 16) & 0xff) == ((w >> 8) & 0xff)
                   && ((w >> 8) & 0xff) == (w & 0xff)) {
            bw.put(kRepeatedBytes, 3);
            bw.put(w & 0xff, 8);
        } else {
            bw.put(kUncompressed, 3);
            bw.put(w, 32);
        }
        ++i;
    }
    return bw.take();
}

DecodeResult
Fpc::decode(BitReader &br, const RefList &)
{
    CacheLine line;
    unsigned i = 0;
    while (i < kWordsPerLine) {
        // All eight 3-bit codes are patterns.
        switch (static_cast<unsigned>(br.get(3))) {
          case kZeroRun: {
            unsigned run = static_cast<unsigned>(br.get(3)) + 1;
            if (i + run > kWordsPerLine)
                return DecodeResult::fail(br, DecodeError::BadShape);
            i += run; // line starts zeroed
            break;
          }
          case kSignExt4:
            line.setWord(i++, signExtend(
                                  static_cast<std::uint32_t>(br.get(4)),
                                  4));
            break;
          case kSignExt8:
            line.setWord(i++, signExtend(
                                  static_cast<std::uint32_t>(br.get(8)),
                                  8));
            break;
          case kSignExt16:
            line.setWord(i++,
                         signExtend(static_cast<std::uint32_t>(
                                        br.get(16)),
                                    16));
            break;
          case kHalfPadded:
            line.setWord(i++, static_cast<std::uint32_t>(br.get(16))
                                  << 16);
            break;
          case kTwoHalfSign8: {
            std::uint32_t hi = signExtend(
                                   static_cast<std::uint32_t>(
                                       br.get(8)),
                                   8)
                               & 0xffff;
            std::uint32_t lo = signExtend(
                                   static_cast<std::uint32_t>(
                                       br.get(8)),
                                   8)
                               & 0xffff;
            line.setWord(i++, (hi << 16) | lo);
            break;
          }
          case kRepeatedBytes: {
            std::uint32_t b = static_cast<std::uint32_t>(br.get(8));
            line.setWord(i++, b * 0x01010101u);
            break;
          }
          case kUncompressed:
            line.setWord(i++,
                         static_cast<std::uint32_t>(br.get(32)));
            break;
        }
    }
    return DecodeResult::of(br, line);
}

} // namespace cable
