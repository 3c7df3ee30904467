/**
 * @file
 * Signature extraction (§III-A) and the H3 hash family (§IV-D).
 *
 * A signature is a 32-bit word sampled from a cache line. Trivial
 * words (>= 24 leading zeroes or ones) carry little identity, so the
 * sampling offset moves forward 4 bytes at a time until it lands on a
 * non-trivial word (Fig 6). Two kinds of extraction are used:
 *
 *  - insertion: a small, fixed number of signatures (default 2, from
 *    default offsets 0 and 8) keyed into the hash table when a line
 *    becomes shared; keeping this number low limits hash pollution;
 *  - search: every non-trivial word of the requested line (up to 16),
 *    deduplicated, used to probe the hash table (Fig 8 step 1).
 *
 * A line has kWordsPerLine (16) words, so after deduplication no
 * extraction can yield more than 16 signatures; SigList makes that
 * bound structural (fixed capacity, overflow panics) where the old
 * vector-returning API merely documented it.
 *
 * The hot path (CableChannel::searchAndCompress, once per
 * transfer) uses the allocation-free *Into forms over a caller-owned
 * SigList; trivial-word classification is one whole-line SIMD
 * kernel (common/simd.h trivialMask16) instead of 16 scalar clz
 * tests.
 */

#ifndef CABLE_CORE_SIGNATURE_H
#define CABLE_CORE_SIGNATURE_H

#include <array>
#include <cstdint>
#include <vector>

#include "common/line.h"
#include "common/log.h"
#include "common/rng.h"

namespace cable
{

/**
 * H3 universal hash (Carter & Wegman; Ramakrishna et al.): the output
 * is the XOR of per-input-bit random rows, cheap to build in hardware
 * as an XOR tree. Output width is configurable per table size.
 *
 * Because the hash is linear over GF(2), the XOR of the rows of one
 * input byte can be tabulated: byte_tables_[k][v] is the XOR of
 * rows 8k+b for every set bit b of v, masked to the output width.
 * One evaluation is then four table loads and three XORs, with the
 * same value the row loop gives.
 */
class H3Hash
{
  public:
    /** @param out_bits output width; @param seed row-matrix seed. */
    explicit H3Hash(unsigned out_bits = 32,
                    std::uint64_t seed = 0xcab1e);

    std::uint32_t
    operator()(std::uint32_t x) const
    {
        return byte_tables_[0][x & 0xff]
               ^ byte_tables_[1][(x >> 8) & 0xff]
               ^ byte_tables_[2][(x >> 16) & 0xff]
               ^ byte_tables_[3][x >> 24];
    }

    unsigned outBits() const { return out_bits_; }

  private:
    std::array<std::array<std::uint32_t, 256>, 4> byte_tables_;
    unsigned out_bits_;
};

/** Extraction configuration. */
struct SignatureConfig
{
    /** Leading-zero/one bits that make a word trivial. */
    unsigned trivial_threshold = 24;
    /** Signatures inserted per line on synchronization. */
    unsigned insert_count = 2;
    /** Base offsets (words) for insertion signatures. */
    std::array<unsigned, 2> insert_offsets = {0, 8};
};

/**
 * Fixed-capacity, allocation-free signature list. Capacity is
 * kWordsPerLine (16): a 64-byte line has 16 words, so deduplicated
 * extraction can never produce more. push() enforces the bound with
 * a panic (live in Release builds, unlike assert) so a future
 * extraction bug cannot silently overrun.
 */
class SigList
{
  public:
    static constexpr unsigned kCapacity = kWordsPerLine;

    unsigned size() const { return count_; }
    bool empty() const { return count_ == 0; }
    void clear() { count_ = 0; }

    std::uint32_t operator[](unsigned i) const { return words_[i]; }
    const std::uint32_t *begin() const { return words_.data(); }
    const std::uint32_t *end() const { return words_.data() + count_; }

    bool
    contains(std::uint32_t s) const
    {
        for (unsigned i = 0; i < count_; ++i)
            if (words_[i] == s)
                return true;
        return false;
    }

    void
    push(std::uint32_t s)
    {
        if (count_ >= kCapacity)
            panic("SigList: overflow past %u signatures", kCapacity);
        words_[count_++] = s;
    }

    /** push() unless already present; returns whether it pushed. */
    // cable-lint: allow(R004) push-or-skip; the bool is advisory and
    // extraction loops legitimately discard it
    bool
    pushUnique(std::uint32_t s)
    {
        if (contains(s))
            return false;
        push(s);
        return true;
    }

  private:
    std::array<std::uint32_t, kCapacity> words_;
    unsigned count_ = 0;
};

/**
 * Extracts the insertion signatures of a line into @p out (cleared
 * first): for each base offset, the first non-trivial word at or
 * after it; duplicates removed.
 */
void
extractInsertSignaturesInto(const CacheLine &line,
                            const SignatureConfig &cfg, SigList &out);

/**
 * Extracts the search signatures of a line into @p out (cleared
 * first): every non-trivial word, deduplicated, in line order (at
 * most SigList::kCapacity = 16).
 */
void
extractSearchSignaturesInto(const CacheLine &line,
                            const SignatureConfig &cfg, SigList &out);

/**
 * Vector-returning convenience form of extractInsertSignaturesInto.
 * Returns raw 32-bit signature words (unhashed); never more than
 * SigList::kCapacity entries.
 */
std::vector<std::uint32_t>
extractInsertSignatures(const CacheLine &line,
                        const SignatureConfig &cfg = SignatureConfig{});

/**
 * Vector-returning convenience form of extractSearchSignaturesInto;
 * never more than SigList::kCapacity (16) entries.
 */
std::vector<std::uint32_t>
extractSearchSignatures(const CacheLine &line,
                        const SignatureConfig &cfg = SignatureConfig{});

} // namespace cable

#endif // CABLE_CORE_SIGNATURE_H
