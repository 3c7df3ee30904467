#include "workload/value_model.h"

#include "common/log.h"
#include "common/rng.h"

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

} // namespace

SyntheticMemory::SyntheticMemory(const ValueProfile &profile, Addr base,
                                 std::uint64_t value_seed)
    : profile_(profile), base_(lineAlign(base)), seed_(value_seed)
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

CacheLine
SyntheticMemory::lineAt(Addr addr)
{
    Addr la = lineAlign(addr);
    auto it = overrides_.find(la);
    if (it != overrides_.end())
        return it->second;
    if (la < base_)
        panic("SyntheticMemory: address %llx below base %llx",
              static_cast<unsigned long long>(la),
              static_cast<unsigned long long>(base_));
    return generate(lineNumber(la - base_));
}

void
SyntheticMemory::storeLine(Addr addr, const CacheLine &data)
{
    overrides_[lineAlign(addr)] = data;
}

} // namespace cable
