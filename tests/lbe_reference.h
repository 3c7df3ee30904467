/**
 * @file
 * Test-only reference for the LBE encoder: the original scanning
 * search that the production encoder's word-equality bit-matrix
 * parse replaced. At every word position it rescans every dictionary
 * and self-window offset for the longest copy run, and the literal
 * path rescans them for every word. It is slow but obviously
 * faithful to the token grammar in compress/lbe.h, so the
 * differential tests in test_compress.cc require the production
 * encoder to emit exactly its bits.
 */

#ifndef CABLE_TESTS_LBE_REFERENCE_H
#define CABLE_TESTS_LBE_REFERENCE_H

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "common/line.h"
#include "compress/bitstream.h"
#include "compress/compressor.h"

namespace cable::lbe_ref
{

using WordDict = std::vector<std::uint32_t>;

constexpr unsigned kOpZeroRun = 0b00;
constexpr unsigned kOpCopy = 0b01;
constexpr unsigned kOpLiteral = 0b10;
constexpr unsigned kOpByteRun = 0b11;
constexpr unsigned kMaxRun = 16;

inline bool
isByteWord(std::uint32_t w)
{
    return w != 0 && (w & 0xffffff00u) == 0;
}

/** Encodes @p line over @p dict; offsets below dict.size() name
 *  dictionary words, the rest name already-emitted line words. */
inline BitVec
encode(const CacheLine &line, const WordDict &dict, unsigned off_bits)
{
    BitWriter bw;
    const std::size_t dsize = dict.size();
    auto source = [&](std::size_t off) {
        return off < dsize
                   ? dict[off]
                   : line.word(static_cast<unsigned>(off - dsize));
    };

    unsigned i = 0;
    while (i < kWordsPerLine) {
        unsigned zr = 0;
        while (i + zr < kWordsPerLine && zr < kMaxRun
               && line.word(i + zr) == 0) {
            ++zr;
        }
        unsigned best_len = 0;
        std::size_t best_off = 0;
        const std::size_t avail = dsize + i;
        for (std::size_t off = 0; off < avail; ++off) {
            unsigned len = 0;
            while (i + len < kWordsPerLine && off + len < avail
                   && len < kMaxRun
                   && source(off + len) == line.word(i + len)) {
                ++len;
            }
            if (len > best_len) {
                best_len = len;
                best_off = off;
            }
        }
        unsigned br = 0;
        while (i + br < kWordsPerLine && br < kMaxRun
               && isByteWord(line.word(i + br))) {
            ++br;
        }

        if (zr > 0 && zr >= best_len) {
            bw.put(kOpZeroRun, 2);
            bw.put(zr - 1, 4);
            i += zr;
        } else if (br > 0 && br >= best_len) {
            bw.put(kOpByteRun, 2);
            bw.put(br - 1, 4);
            for (unsigned k = 0; k < br; ++k)
                bw.put(line.word(i + k) & 0xff, 8);
            i += br;
        } else if (best_len > 0) {
            bw.put(kOpCopy, 2);
            bw.put(best_off, off_bits);
            bw.put(best_len - 1, 4);
            i += best_len;
        } else {
            unsigned start = i;
            unsigned len = 0;
            while (i + len < kWordsPerLine && len < kMaxRun) {
                std::uint32_t w = line.word(i + len);
                if (w == 0 || isByteWord(w))
                    break;
                bool matched = false;
                for (std::size_t off = 0; off < dsize + i + len;
                     ++off) {
                    if (source(off) == w) {
                        matched = true;
                        break;
                    }
                }
                if (matched)
                    break;
                ++len;
            }
            if (len == 0)
                len = 1;
            bw.put(kOpLiteral, 2);
            bw.put(len - 1, 4);
            for (unsigned k = 0; k < len; ++k)
                bw.put(line.word(start + k), 32);
            i += len;
        }
    }
    return bw.take();
}

/** Reference-mode encode: the dictionary is the refs' words in
 *  order, exactly as Lbe::compress builds it. */
inline BitVec
encodeWithRefs(const CacheLine &line, const RefList &refs)
{
    WordDict dict;
    for (const CacheLine *ref : refs)
        for (unsigned w = 0; w < kWordsPerLine; ++w)
            dict.push_back(ref->word(w));
    return encode(line, dict, bitsToIndex(dict.size() + kWordsPerLine));
}

/** Persistent-stream LBE: a FIFO of whole lines, overwritten in
 *  place from @p head once full. */
struct Stream
{
    WordDict dict;
    std::size_t head = 0;
    unsigned capacity;

    explicit Stream(unsigned capacity_words) : capacity(capacity_words) {}

    BitVec
    encodeAndPush(const CacheLine &line)
    {
        BitVec out =
            encode(line, dict, bitsToIndex(capacity + kWordsPerLine));
        for (unsigned w = 0; w < kWordsPerLine; ++w) {
            if (dict.size() < capacity) {
                dict.push_back(line.word(w));
            } else {
                dict[head] = line.word(w);
                head = (head + 1) % capacity;
            }
        }
        return out;
    }
};

} // namespace cable::lbe_ref

#endif // CABLE_TESTS_LBE_REFERENCE_H
