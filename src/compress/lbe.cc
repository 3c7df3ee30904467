#include "compress/lbe.h"

#include "common/bitops.h"
#include "common/log.h"

namespace cable
{

namespace
{

constexpr unsigned kOpZeroRun = 0b00;
constexpr unsigned kOpCopy = 0b01;
constexpr unsigned kOpLiteral = 0b10;
constexpr unsigned kOpByteRun = 0b11; // words with 3 zero high bytes
constexpr unsigned kMaxRun = 16;      // 4-bit length field stores len-1

bool
isByteWord(std::uint32_t w)
{
    return w != 0 && (w & 0xffffff00u) == 0;
}

} // namespace

Lbe::Lbe() : Lbe(Config{}) {}

Lbe::Lbe(const Config &cfg) : cfg_(cfg)
{
    if (cfg_.dict_bytes % 4 != 0 || cfg_.dict_bytes == 0)
        fatal("Lbe: dict_bytes must be a positive multiple of 4");
    dict_words_ = cfg_.dict_bytes / 4;
    // The copy-source space is the dictionary plus the already
    // emitted words of the current line.
    stream_off_bits_ = bitsToIndex(dict_words_ + kWordsPerLine);
    enc_dict_.reserve(dict_words_);
    dec_dict_.reserve(dict_words_);
}

std::string
Lbe::name() const
{
    return "lbe" + std::to_string(cfg_.dict_bytes);
}

const Lbe::WordDict &
Lbe::refDict(const RefList &refs)
{
    ref_dict_.clear();
    ref_dict_.reserve(refs.size() * kWordsPerLine);
    for (const CacheLine *ref : refs)
        for (unsigned w = 0; w < kWordsPerLine; ++w)
            ref_dict_.push_back(ref->word(w));
    return ref_dict_;
}

void
Lbe::streamPush(WordDict &dict, std::size_t &head, unsigned capacity,
                const CacheLine &line)
{
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        if (dict.size() < capacity) {
            dict.push_back(line.word(w));
        } else {
            dict[head] = line.word(w);
            head = (head + 1) % capacity;
        }
    }
}

/*
 * Copy sources are addressed through a combined index space: offsets
 * below dict.size() name dictionary words; offsets at or above it
 * name already-emitted words of the current line (the self window),
 * which the decoder reconstructs incrementally. Runs never cross the
 * not-yet-decoded frontier.
 */

BitVec
Lbe::encode(const CacheLine &line, const WordDict &dict,
            unsigned off_bits) const
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
        // Zero run length at i.
        unsigned zr = 0;
        while (i + zr < kWordsPerLine && zr < kMaxRun
               && line.word(i + zr) == 0) {
            ++zr;
        }
        // Best copy run at i over dictionary + self window.
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

        // Byte run: consecutive small (one significant byte) words
        // cost 8 bits each instead of a full literal.
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
            // Literal run: extend while neither a zero word nor any
            // copy source matches.
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
                len = 1; // always make progress
            bw.put(kOpLiteral, 2);
            bw.put(len - 1, 4);
            for (unsigned k = 0; k < len; ++k)
                bw.put(line.word(start + k), 32);
            i += len;
        }
    }
    return bw.take();
}

CacheLine
Lbe::decode(const BitVec &bits, const WordDict &dict,
            unsigned off_bits) const
{
    BitReader br(bits);
    CacheLine line;
    const std::size_t dsize = dict.size();
    auto source = [&](std::size_t off) {
        return off < dsize
                   ? dict[off]
                   : line.word(static_cast<unsigned>(off - dsize));
    };

    unsigned i = 0;
    while (i < kWordsPerLine) {
        unsigned op = static_cast<unsigned>(br.get(2));
        if (op == kOpZeroRun) {
            unsigned len = static_cast<unsigned>(br.get(4)) + 1;
            i += len; // line starts zeroed
        } else if (op == kOpCopy) {
            std::size_t off = br.get(off_bits);
            unsigned len = static_cast<unsigned>(br.get(4)) + 1;
            for (unsigned k = 0; k < len; ++k) {
                line.setWord(i, source(off + k));
                ++i;
            }
        } else if (op == kOpLiteral) {
            unsigned len = static_cast<unsigned>(br.get(4)) + 1;
            for (unsigned k = 0; k < len; ++k) {
                line.setWord(i,
                             static_cast<std::uint32_t>(br.get(32)));
                ++i;
            }
        } else if (op == kOpByteRun) {
            unsigned len = static_cast<unsigned>(br.get(4)) + 1;
            for (unsigned k = 0; k < len; ++k) {
                line.setWord(i,
                             static_cast<std::uint32_t>(br.get(8)));
                ++i;
            }
        } else {
            panic("Lbe::decode: bad opcode");
        }
    }
    return line;
}

BitVec
Lbe::compress(const CacheLine &line, const RefList &refs)
{
    if (!refs.empty()) {
        const WordDict &d = refDict(refs);
        return encode(line, d,
                      bitsToIndex(d.size() + kWordsPerLine));
    }
    if (cfg_.persistent) {
        BitVec out = encode(line, enc_dict_, stream_off_bits_);
        streamPush(enc_dict_, enc_head_, dict_words_, line);
        return out;
    }
    WordDict empty;
    return encode(line, empty, bitsToIndex(kWordsPerLine));
}

CacheLine
Lbe::decompress(const BitVec &bits, const RefList &refs)
{
    if (!refs.empty()) {
        const WordDict &d = refDict(refs);
        return decode(bits, d,
                      bitsToIndex(d.size() + kWordsPerLine));
    }
    if (cfg_.persistent) {
        CacheLine line = decode(bits, dec_dict_, stream_off_bits_);
        streamPush(dec_dict_, dec_head_, dict_words_, line);
        return line;
    }
    WordDict empty;
    return decode(bits, empty, bitsToIndex(kWordsPerLine));
}

std::size_t
Lbe::compressedBits(const CacheLine &line, const RefList &refs)
{
    if (!refs.empty()) {
        const WordDict &d = refDict(refs);
        return encode(line, d, bitsToIndex(d.size() + kWordsPerLine))
            .sizeBits();
    }
    if (cfg_.persistent)
        return encode(line, enc_dict_, stream_off_bits_).sizeBits();
    WordDict empty;
    return encode(line, empty, bitsToIndex(kWordsPerLine)).sizeBits();
}

void
Lbe::reset()
{
    enc_dict_.clear();
    dec_dict_.clear();
    enc_head_ = 0;
    dec_head_ = 0;
}

} // namespace cable
