#include "compress/lbe.h"

#include <bit>
#include <cstring>

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

bool
isByteWord(std::uint32_t w)
{
    return w != 0 && (w & 0xffffff00u) == 0;
}

/*
 * One bit per copy source. Channel transfers carry at most 48
 * reference words, which with the 16-word self window fill the
 * 64-bit width exactly; lbe256 streams (64 + 16 sources) and other
 * dictionaries up to 112 words take the 128-bit width.
 */
__extension__ typedef unsigned __int128 WideMask;
constexpr std::size_t kMaxSources = 128;
constexpr std::size_t kNarrowSources = 64;

/** Sources [0, n), for n in [0, width]. */
template <class Mask>
Mask
below(std::size_t n)
{
    return n >= 8 * sizeof(Mask) ? ~Mask{0} : (Mask{1} << n) - 1;
}

unsigned
lowestSource(std::uint64_t m)
{
    return static_cast<unsigned>(std::countr_zero(m));
}

unsigned
lowestSource(WideMask m)
{
    const auto lo = static_cast<std::uint64_t>(m);
    return lo ? lowestSource(lo)
              : 64 + lowestSource(static_cast<std::uint64_t>(m >> 64));
}

} // namespace

/**
 * Dictionary words in copy-source order: whole 16-word blocks (the
 * reference lines, or a FIFO's full lines), then single tail words
 * (a FIFO that is not a whole number of lines).
 */
struct Lbe::DictView
{
    static constexpr unsigned kMaxBlocks =
        (kMaxSources - kWordsPerLine) / kWordsPerLine;

    const std::uint8_t *blocks[kMaxBlocks];
    unsigned nblocks = 0;
    const std::uint32_t *tail = nullptr;
    unsigned ntail = 0;
    unsigned off_bits = 0;

    std::size_t size() const { return nblocks * kWordsPerLine + ntail; }

    /** Dictionary word @p off, for off below size(). */
    std::uint32_t
    word(std::size_t off) const
    {
        const std::size_t b = off / kWordsPerLine;
        if (b >= nblocks)
            return tail[off - nblocks * kWordsPerLine];
        std::uint32_t w;
        std::memcpy(&w, blocks[b] + 4 * (off % kWordsPerLine), sizeof w);
        return w;
    }
};

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

const Lbe::LineFacts &
Lbe::factsOf(const CacheLine &line)
{
    // The channel drafts each line twice (self, then refs); the
    // second draft reuses the first one's self block.
    if (facts_valid_ && facts_.line == line)
        return facts_;
    facts_.line = line;
    const CacheLine &l = facts_.line; // the copy: no aliasing stores
    std::uint32_t zero = 0, bytes = 0;
    for (unsigned j = 0; j < kWordsPerLine; ++j) {
        const std::uint32_t w = l.word(j);
        facts_.self[j] =
            static_cast<std::uint16_t>(broadcastEqMask16(l.data(), w));
        zero |= std::uint32_t{w == 0} << j;
        bytes |= std::uint32_t{isByteWord(w)} << j;
    }
    facts_.zero = zero;
    facts_.bytes = bytes;
    facts_valid_ = true;
    return facts_;
}

/*
 * Copy sources are addressed through a combined index space: offsets
 * below the dictionary size name dictionary words; offsets at or
 * above it name already-emitted words of the current line (the self
 * window), which the decoder reconstructs incrementally. Runs never
 * cross the not-yet-decoded frontier.
 *
 * The greedy parse reads the word-equality matrix instead of
 * rescanning sources: bit off of eq[j] is set iff source off equals
 * line word j. A copy at word i survives to length t+1 at offset off
 * iff bit off of (eq[i+t] & below(dsize+i)) >> t is set for every
 * step, so the run mask is an AND of shifted rows. The last
 * non-empty mask holds the longest runs, and its lowest bit is the
 * first offset to reach that length: the scan's tie-break.
 */
template <class Mask>
void
Lbe::parse(const LineFacts &facts, const DictView &dict, Plan &plan)
{
    const CacheLine &line = facts.line;
    const std::size_t dsize = dict.size();
    // The self block sits above the dictionary columns.
    Mask eq[kWordsPerLine];
    for (unsigned j = 0; j < kWordsPerLine; ++j)
        eq[j] = Mask{facts.self[j]} << dsize;
    for (unsigned b = 0; b < dict.nblocks; ++b)
        for (unsigned j = 0; j < kWordsPerLine; ++j)
            eq[j] |= Mask{broadcastEqMask16(dict.blocks[b],
                                            line.word(j))}
                     << (b * kWordsPerLine);
    for (unsigned t = 0; t < dict.ntail; ++t)
        for (unsigned j = 0; j < kWordsPerLine; ++j)
            if (dict.tail[t] == line.word(j))
                eq[j] |= Mask{1} << (dict.nblocks * kWordsPerLine + t);

    // Bit j: word j has an earlier source.
    std::uint32_t matched = 0;
    for (unsigned j = 0; j < kWordsPerLine; ++j)
        matched |= std::uint32_t{(eq[j] & below<Mask>(dsize + j)) != 0}
                   << j;
    // A literal run extends until one of these, or the line end.
    const std::uint32_t literal_stop =
        facts.zero | facts.bytes | matched | (1u << kWordsPerLine);

    plan.line = line;
    plan.off_bits = dict.off_bits;
    plan.ntokens = 0;
    std::size_t bits = 0;
    unsigned i = 0;
    while (i < kWordsPerLine) {
        const auto zr =
            static_cast<unsigned>(std::countr_one(facts.zero >> i));
        const auto br =
            static_cast<unsigned>(std::countr_one(facts.bytes >> i));
        const Mask avail = below<Mask>(dsize + i);
        Mask run = eq[i] & avail;
        Mask best = 0;
        unsigned best_len = 0;
        while (run) {
            best = run;
            ++best_len;
            if (i + best_len == kWordsPerLine)
                break;
            run &= (eq[i + best_len] & avail) >> best_len;
        }

        Token &tok = plan.tokens[plan.ntokens++];
        tok.off = 0;
        if (zr > 0 && zr >= best_len) {
            tok.op = kOpZeroRun;
            tok.len = static_cast<std::uint8_t>(zr);
        } else if (br > 0 && br >= best_len) {
            tok.op = kOpByteRun;
            tok.len = static_cast<std::uint8_t>(br);
            bits += 8 * br;
        } else if (best_len > 0) {
            tok.op = kOpCopy;
            tok.len = static_cast<std::uint8_t>(best_len);
            tok.off = static_cast<std::uint8_t>(lowestSource(best));
            bits += dict.off_bits;
        } else {
            // Word i is a non-zero, non-byte word with no source;
            // the run covers it and extends to the next stop.
            const auto len = 1 + static_cast<unsigned>(std::countr_zero(
                                     literal_stop >> (i + 1)));
            tok.op = kOpLiteral;
            tok.len = static_cast<std::uint8_t>(len);
            bits += 32 * len;
        }
        bits += 2 + 4; // opcode and length
        i += tok.len;
    }
    plan.bits = bits;
}

Lbe::DictView
Lbe::dictFor(const RefList &refs, const WordDict &stream) const
{
    DictView dict;
    if (!refs.empty()) {
        if (refs.size() > DictView::kMaxBlocks)
            panic("Lbe: %zu references exceed the matrix", refs.size());
        for (const CacheLine *ref : refs)
            dict.blocks[dict.nblocks++] = ref->data();
        dict.off_bits = bitsToIndex(dict.size() + kWordsPerLine);
    } else if (cfg_.persistent) {
        const auto *words =
            reinterpret_cast<const std::uint8_t *>(stream.data());
        dict.nblocks =
            static_cast<unsigned>(stream.size() / kWordsPerLine);
        for (unsigned b = 0; b < dict.nblocks; ++b)
            dict.blocks[b] = words + 4 * kWordsPerLine * b;
        dict.tail = stream.data() + dict.nblocks * kWordsPerLine;
        dict.ntail = static_cast<unsigned>(stream.size() % kWordsPerLine);
        dict.off_bits = stream_off_bits_;
    } else {
        dict.off_bits = bitsToIndex(kWordsPerLine);
    }
    return dict;
}

void
Lbe::planLine(const CacheLine &line, const RefList &refs, Plan &plan)
{
    const DictView dict = dictFor(refs, enc_dict_);
    const LineFacts &facts = factsOf(line);
    if (dict.size() + kWordsPerLine <= kNarrowSources)
        parse<std::uint64_t>(facts, dict, plan);
    else
        parse<WideMask>(facts, dict, plan);
}

void
Lbe::write(const Plan &plan, BitVec &out)
{
    BitPacker pk(out, plan.bits);
    unsigned i = 0;
    for (unsigned k = 0; k < plan.ntokens; ++k) {
        const Token &tok = plan.tokens[k];
        const unsigned len = tok.len;
        if (tok.op == kOpCopy) {
            pk.put((kOpCopy << (plan.off_bits + 4))
                       | (unsigned{tok.off} << 4) | (len - 1),
                   2 + plan.off_bits + 4);
        } else {
            pk.put((unsigned{tok.op} << 4) | (len - 1), 2 + 4);
        }
        if (tok.op == kOpLiteral)
            for (unsigned w = i; w < i + len; ++w)
                pk.put(plan.line.word(w), 32);
        else if (tok.op == kOpByteRun)
            for (unsigned w = i; w < i + len; ++w)
                pk.put(plan.line.word(w) & 0xff, 8);
        i += len;
    }
    pk.finish();
}

std::size_t
Lbe::draft(const CacheLine &line, const RefList &refs, unsigned slot)
{
    Plan &p = plans_[checkedSlot(slot)];
    planLine(line, refs, p);
    return p.bits;
}

void
Lbe::emit(unsigned slot, BitVec &out)
{
    write(plans_[checkedSlot(slot)], out);
}

BitVec
Lbe::compress(const CacheLine &line, const RefList &refs)
{
    Plan p;
    planLine(line, refs, p);
    BitVec out;
    write(p, out);
    if (refs.empty() && cfg_.persistent)
        streamPush(enc_dict_, enc_head_, dict_words_, line);
    return out;
}

DecodeResult
Lbe::decode(BitReader &br, const RefList &refs)
{
    const DictView dict = dictFor(refs, dec_dict_);
    const std::size_t dsize = dict.size();
    CacheLine line;
    unsigned i = 0;
    while (i < kWordsPerLine) {
        const auto op = static_cast<unsigned>(br.get(2));
        const std::size_t off = op == kOpCopy ? br.get(dict.off_bits) : 0;
        const unsigned len = static_cast<unsigned>(br.get(4)) + 1;
        if (i + len > kWordsPerLine)
            return DecodeResult::fail(br, DecodeError::BadShape);
        switch (op) {
          case kOpZeroRun:
            break; // line starts zeroed
          case kOpCopy:
            // Every source word precedes the run: the encoder only
            // copies from the dictionary and already-decoded words.
            if (off + len > dsize + i)
                return DecodeResult::fail(br, DecodeError::BadDistance);
            for (unsigned k = 0; k < len; ++k) {
                const std::size_t src = off + k;
                line.setWord(i + k,
                             src < dsize ? dict.word(src)
                                         : line.word(static_cast<unsigned>(
                                               src - dsize)));
            }
            break;
          case kOpLiteral:
            for (unsigned k = 0; k < len; ++k)
                line.setWord(i + k, static_cast<std::uint32_t>(br.get(32)));
            break;
          default: // kOpByteRun
            for (unsigned k = 0; k < len; ++k)
                line.setWord(i + k, static_cast<std::uint32_t>(br.get(8)));
        }
        i += len;
    }
    const DecodeResult r = DecodeResult::of(br, line);
    if (r.ok() && refs.empty() && cfg_.persistent)
        streamPush(dec_dict_, dec_head_, dict_words_, line);
    return r;
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
