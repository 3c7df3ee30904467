#include "compress/lbe.h"

#include <bit>

#include "common/bitops.h"
#include "common/log.h"
#include "common/simd.h"

namespace cable
{

namespace
{

constexpr unsigned kOpZeroRun = 0b00;
constexpr unsigned kOpCopy = 0b01;
constexpr unsigned kOpLiteral = 0b10;
constexpr unsigned kOpByteRun = 0b11; // words with 3 zero high bytes
constexpr unsigned kMaxRun = 16;      // 4-bit length field stores len-1
// A run never outlives the line, so no token needs an explicit cap.
static_assert(kMaxRun == kWordsPerLine);

// Worst-case encoded line: sixteen one-word literals, 38 bits each.
// Every other token costs at most that per word it covers.
constexpr std::size_t kMaxLineBits = kWordsPerLine * (2 + 4 + 32);

bool
isByteWord(std::uint32_t w)
{
    return w != 0 && (w & 0xffffff00u) == 0;
}

/*
 * One bit per copy source. In use: up to 48 reference words or the
 * 64-word lbe256 stream, plus the 16-word self window (80 sources).
 */
__extension__ typedef unsigned __int128 SourceMask;
constexpr std::size_t kMaxSources = 128;

/** Sources [0, n), for n in [0, kMaxSources]. */
SourceMask
below(std::size_t n)
{
    return n >= kMaxSources ? ~SourceMask{0}
                            : (SourceMask{1} << n) - 1;
}

unsigned
lowestSource(SourceMask m)
{
    const auto lo = static_cast<std::uint64_t>(m);
    return lo ? static_cast<unsigned>(std::countr_zero(lo))
              : 64 + static_cast<unsigned>(std::countr_zero(
                         static_cast<std::uint64_t>(m >> 64)));
}

/**
 * The line's word-equality matrix: bit off of eq[j] is set iff copy
 * source off equals line word j.
 */
void
buildMatchRows(const CacheLine &line, const std::vector<std::uint32_t> &dict,
               SourceMask (&eq)[kWordsPerLine])
{
    const std::size_t dsize = dict.size();
    const auto *dp = reinterpret_cast<const std::uint8_t *>(dict.data());
    for (unsigned j = 0; j < kWordsPerLine; ++j)
        eq[j] = SourceMask{broadcastEqMask16(line.data(), line.word(j))}
                << dsize;
    std::size_t b = 0;
    for (; b + kWordsPerLine <= dsize; b += kWordsPerLine)
        for (unsigned j = 0; j < kWordsPerLine; ++j)
            eq[j] |= SourceMask{broadcastEqMask16(dp + 4 * b,
                                                  line.word(j))}
                     << b;
    // A FIFO that is not a whole number of lines leaves a tail.
    for (; b < dsize; ++b)
        for (unsigned j = 0; j < kWordsPerLine; ++j)
            if (dict[b] == line.word(j))
                eq[j] |= SourceMask{1} << b;
}

} // namespace

Lbe::Lbe() : Lbe(Config{}) {}

Lbe::Lbe(const Config &cfg) : cfg_(cfg)
{
    if (cfg_.dict_bytes % 4 != 0 || cfg_.dict_bytes == 0)
        fatal("Lbe: dict_bytes must be a positive multiple of 4");
    dict_words_ = cfg_.dict_bytes / 4;
    if (dict_words_ + kWordsPerLine > kMaxSources)
        fatal("Lbe: dict_bytes must be at most %zu",
              4 * (kMaxSources - kWordsPerLine));
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
 *
 * The greedy parse reads the word-equality matrix instead of
 * rescanning sources. A copy at word i survives to length t+1 at
 * offset off iff bit off of (eq[i+t] & below(dsize+i)) >> t is set
 * for every step, so the run mask is an AND of shifted rows. The
 * last non-empty mask holds the longest runs, and its lowest bit is
 * the first offset to reach that length: the scan's tie-break.
 */

BitVec
Lbe::encode(const CacheLine &line, const WordDict &dict,
            unsigned off_bits) const
{
    const std::size_t dsize = dict.size();
    if (dsize + kWordsPerLine > kMaxSources)
        panic("Lbe::encode: %zu dictionary words exceed the matrix",
              dsize);
    SourceMask eq[kWordsPerLine];
    buildMatchRows(line, dict, eq);

    // Bit j: word j is zero / a byte word / has an earlier source.
    std::uint32_t zero = 0, bytes = 0, matched = 0;
    for (unsigned j = 0; j < kWordsPerLine; ++j) {
        const std::uint32_t w = line.word(j);
        zero |= std::uint32_t{w == 0} << j;
        bytes |= std::uint32_t{isByteWord(w)} << j;
        matched |= std::uint32_t{(eq[j] & below(dsize + j)) != 0} << j;
    }
    // A literal run extends until one of these, or the line end.
    const std::uint32_t literal_stop =
        zero | bytes | matched | (1u << kWordsPerLine);

    BitWriter bw;
    bw.reserveBits(kMaxLineBits);
    unsigned i = 0;
    while (i < kWordsPerLine) {
        const auto zr = static_cast<unsigned>(std::countr_one(zero >> i));
        const auto br =
            static_cast<unsigned>(std::countr_one(bytes >> i));
        const SourceMask avail = below(dsize + i);
        SourceMask run = eq[i] & avail;
        SourceMask best = 0;
        unsigned best_len = 0;
        while (run) {
            best = run;
            ++best_len;
            if (i + best_len == kWordsPerLine)
                break;
            run &= (eq[i + best_len] & avail) >> best_len;
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
            bw.put(lowestSource(best), off_bits);
            bw.put(best_len - 1, 4);
            i += best_len;
        } else {
            // Word i is a non-zero, non-byte word with no source;
            // the run covers it and extends to the next stop.
            const auto len = 1 + static_cast<unsigned>(std::countr_zero(
                                     literal_stop >> (i + 1)));
            bw.put(kOpLiteral, 2);
            bw.put(len - 1, 4);
            for (unsigned k = 0; k < len; ++k)
                bw.put(line.word(i + k), 32);
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
