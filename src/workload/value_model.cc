#include "workload/value_model.h"

#include <bit>

#include "common/log.h"
#include "common/rng.h"
#include "common/simd.h"

namespace cable
{

namespace
{

/** Uniform [0,1) from a hash value. */
double
unit(std::uint64_t h)
{
    return static_cast<double>(h >> 11) * 0x1.0p-53;
}

/** Slot::diff kinds, in its low two bits. An empty slot's diff is 0,
 *  so it reads as kSame. */
constexpr std::uint64_t kSame = 0;
constexpr std::uint64_t kOneWord = 1;
constexpr std::uint64_t kPooled = 2;
constexpr std::uint64_t kKindMask = 3;

constexpr unsigned kInitialSlotsLog2 = 6;

} // namespace

SyntheticMemory::SyntheticMemory(const ValueProfile &profile, Addr base,
                                 std::uint64_t value_seed)
    : profile_(profile), base_(lineAlign(base)), seed_(value_seed),
      slots_(std::size_t{1} << kInitialSlotsLog2),
      shift_(64 - kInitialSlotsLog2)
{
    templates_.reserve(profile_.template_count);
    for (std::uint64_t tid = 0; tid < profile_.template_count; ++tid)
        templates_.push_back(templateLine(tid));
}

std::uint32_t
SyntheticMemory::templateWord(std::uint64_t tid, unsigned w) const
{
    std::uint64_t h = splitMix64(seed_ ^ 0x7e3a11ull
                                 ^ (tid * kWordsPerLine + w));
    double roll = unit(h);
    if (roll < profile_.zero_word_frac)
        return 0;
    roll = (roll - profile_.zero_word_frac)
           / (1.0 - profile_.zero_word_frac);
    // Non-zero words draw from a small per-template vocabulary, so
    // lines repeat words internally (C-PACK's bread and butter) and
    // across the template's lines.
    unsigned vocab = profile_.template_vocab ? profile_.template_vocab
                                             : 1;
    std::uint64_t slot = splitMix64(h ^ 0x70c4bull) % vocab;
    std::uint64_t v =
        splitMix64(seed_ ^ 0x77abull ^ (tid * 131 + slot));
    if (roll < profile_.pointer_frac) {
        // Pointer-like: plausible heap word, 8-byte aligned, high
        // bits shared across the whole data image.
        return 0x08000000u
               | (static_cast<std::uint32_t>(v) & 0x00fffff8u);
    }
    if (roll < profile_.pointer_frac + profile_.small_int_frac) {
        // Small integer (trivial word for the signature extractor).
        return static_cast<std::uint32_t>(v & 0xff);
    }
    return static_cast<std::uint32_t>(v);
}

CacheLine
SyntheticMemory::templateLine(std::uint64_t tid) const
{
    CacheLine line;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        line.setWord(w, templateWord(tid, w));
    return line;
}

CacheLine
SyntheticMemory::generate(std::uint64_t rel) const
{
    std::uint64_t h = splitMix64(seed_ ^ (rel * 0x9e3779b97f4a7c15ull));
    double roll = unit(h);

    if (roll < profile_.zero_line_frac)
        return CacheLine{};
    roll -= profile_.zero_line_frac;

    if (roll < profile_.random_line_frac) {
        CacheLine line;
        std::uint64_t x = splitMix64(h ^ 0xbadc0ffeull);
        for (unsigned w = 0; w < kWordsPerLine / 2; ++w) {
            x = splitMix64(x);
            line.setWord64(w, x);
        }
        return line;
    }
    roll -= profile_.random_line_frac;

    // Template-based line: lines within a region share a template
    // (object-array runs); a few words mutate per line.
    std::uint64_t region = rel / profile_.region_lines;
    std::uint64_t tid = splitMix64(seed_ ^ 0x7151d5ull ^ region)
                        % profile_.template_count;
    CacheLine line = templates_[tid];
    for (unsigned w = 0; w < kWordsPerLine; ++w) {
        std::uint64_t hw = splitMix64(h ^ (0xa11ceull + w));
        if (unit(hw) < profile_.mutation_rate)
            line.setWord(w, static_cast<std::uint32_t>(
                                splitMix64(hw ^ 0x5ca1abull)));
    }

    // Byte-shifted duplicate: same template content, rotated by a
    // per-line 1..3 byte amount. Unaligned similarity that word-
    // granular engines miss but gzip and ORACLE catch.
    if (profile_.byte_shift_frac > 0.0) {
        std::uint64_t hs = splitMix64(h ^ 0x51f7ull);
        if (unit(hs) < profile_.byte_shift_frac) {
            unsigned shift = 1 + static_cast<unsigned>(hs % 3);
            CacheLine shifted;
            for (unsigned b = 0; b < kLineBytes; ++b)
                shifted.setByte(b,
                                line.byte((b + shift) % kLineBytes));
            return shifted;
        }
    }
    return line;
}

std::uint64_t
SyntheticMemory::relLine(Addr la) const
{
    if (la < base_)
        panic("SyntheticMemory: address %llx below base %llx",
              static_cast<unsigned long long>(la),
              static_cast<unsigned long long>(base_));
    return lineNumber(la - base_);
}

std::size_t
SyntheticMemory::probe(Addr key) const
{
    std::size_t mask = slots_.size() - 1;
    auto i = static_cast<std::size_t>(
        (lineNumber(key) * 0x9e3779b97f4a7c15ull) >> shift_);
    while (slots_[i].key != 0 && slots_[i].key != key)
        i = (i + 1) & mask;
    return i;
}

void
SyntheticMemory::grow()
{
    std::vector<Slot> old(slots_.size() * 2);
    old.swap(slots_);
    --shift_;
    for (const Slot &s : old)
        if (s.key)
            slots_[probe(s.key)] = s;
}

CacheLine
SyntheticMemory::lineAt(Addr addr) const
{
    Addr la = lineAlign(addr);
    std::uint64_t rel = relLine(la);
    std::uint64_t diff = slots_[probe(la | 1)].diff;
    // One named result on every path, so it is built in place.
    CacheLine line = (diff & kKindMask) == kPooled ? pool_[diff >> 2]
                                                   : generate(rel);
    if ((diff & kKindMask) == kOneWord)
        line.setWord((diff >> 2) & 0xf,
                     static_cast<std::uint32_t>(diff >> 32));
    return line;
}

void
SyntheticMemory::storeLine(Addr addr, const CacheLine &data)
{
    // Regenerating costs less than keeping the line: most written-back
    // lines differ from it in one word, which then fits in the slot.
    Addr la = lineAlign(addr);
    std::uint32_t changed =
        ~wordEqMask16(generate(relLine(la)).data(), data.data())
        & 0xffffu;
    std::size_t i = probe(la | 1);
    if (slots_[i].key == 0) {
        if (!changed)
            return;
        if ((used_ + 1) * 4 > slots_.size() * 3) {
            grow();
            i = probe(la | 1);
        }
        slots_[i].key = la | 1;
        ++used_;
    }
    std::uint64_t &diff = slots_[i].diff;
    if ((diff & kKindMask) == kPooled) {
        pool_[diff >> 2] = data;
    } else if (!changed) {
        diff = kSame;
    } else if (std::has_single_bit(changed)) {
        auto w = static_cast<unsigned>(std::countr_zero(changed));
        diff = kOneWord | std::uint64_t{w} << 2
               | std::uint64_t{data.word(w)} << 32;
    } else {
        diff = kPooled | std::uint64_t{pool_.size()} << 2;
        pool_.push_back(data);
    }
}

} // namespace cable
