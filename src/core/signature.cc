#include "core/signature.h"

#include <bit>

#include "common/simd.h"

namespace cable
{

H3Hash::H3Hash(unsigned out_bits, std::uint64_t seed)
    : out_bits_(out_bits)
{
    Rng rng(seed);
    std::array<std::uint32_t, 32> rows;
    for (auto &row : rows)
        row = static_cast<std::uint32_t>(rng.next());
    const std::uint32_t mask =
        out_bits >= 32 ? ~0u : ((1u << out_bits) - 1);
    for (unsigned k = 0; k < 4; ++k) {
        auto &table = byte_tables_[k];
        table[0] = 0;
        // v's entry is that of v without its top bit, XOR that bit's
        // row; entries below v are already filled.
        for (unsigned v = 1; v < 256; ++v) {
            const unsigned top =
                static_cast<unsigned>(std::bit_width(v)) - 1;
            table[v] = table[v ^ (1u << top)]
                       ^ (rows[8 * k + top] & mask);
        }
    }
}

namespace
{

/** Bit i set iff word i of @p line is non-trivial. */
// cable-lint: no-alloc
std::uint32_t
nonTrivialMask(const CacheLine &line, const SignatureConfig &cfg)
{
    return ~trivialMask16(line.data(), cfg.trivial_threshold)
           & 0xffffu;
}

} // namespace

// cable-lint: no-alloc
void
extractInsertSignaturesInto(const CacheLine &line,
                            const SignatureConfig &cfg, SigList &out)
{
    out.clear();
    std::uint32_t mask = nonTrivialMask(line, cfg);
    for (unsigned k = 0; k < cfg.insert_count && k < 2; ++k) {
        unsigned base = cfg.insert_offsets[k];
        if (base >= kWordsPerLine)
            continue;
        std::uint32_t rest = mask >> base;
        if (!rest)
            continue;
        unsigned off = base
                       + static_cast<unsigned>(std::countr_zero(rest));
        out.pushUnique(line.word(off));
    }
}

// cable-lint: no-alloc
void
extractSearchSignaturesInto(const CacheLine &line,
                            const SignatureConfig &cfg, SigList &out)
{
    out.clear();
    std::uint32_t mask = nonTrivialMask(line, cfg);
    while (mask) {
        unsigned off = static_cast<unsigned>(std::countr_zero(mask));
        mask &= mask - 1;
        out.pushUnique(line.word(off));
    }
}

std::vector<std::uint32_t>
extractInsertSignatures(const CacheLine &line, const SignatureConfig &cfg)
{
    SigList sigs;
    extractInsertSignaturesInto(line, cfg, sigs);
    return std::vector<std::uint32_t>(sigs.begin(), sigs.end());
}

std::vector<std::uint32_t>
extractSearchSignatures(const CacheLine &line, const SignatureConfig &cfg)
{
    SigList sigs;
    extractSearchSignaturesInto(line, cfg, sigs);
    return std::vector<std::uint32_t>(sigs.begin(), sigs.end());
}

} // namespace cable
