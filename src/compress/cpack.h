/**
 * @file
 * C-PACK (Chen et al., TVLSI 2010) pattern + dictionary compressor.
 *
 * Each 32-bit word is encoded with one of six patterns:
 *
 *   zzzz  00                    2 bits   all-zero word
 *   xxxx  01   + 32b literal   34 bits   no match
 *   mmmm  10   + idx          2+B bits   full dictionary match
 *   mmxx  1100 + idx + 16b   20+B bits   upper-2-byte match
 *   zzzx  1101 + 8b            12 bits   three zero bytes + 1 literal
 *   mmmx  1110 + idx + 8b    12+B bits   upper-3-byte match
 *
 * where B = log2(dictionary entries). The baseline C-PACK uses a
 * 16-entry (64-byte) dictionary rebuilt per line. This implementation
 * additionally supports:
 *
 *  - configurable dictionary size (the paper's CPACK128 baseline and
 *    the Fig 3 dictionary-size sweep),
 *  - a persistent FIFO dictionary that survives across lines (link
 *    compression mode, FIFO replacement per §VI-A), and
 *  - seeding the dictionary from CABLE reference lines (CABLE+CPACK).
 */

#ifndef CABLE_COMPRESS_CPACK_H
#define CABLE_COMPRESS_CPACK_H

#include <cstdint>
#include <vector>

#include "compress/compressor.h"

namespace cable
{

class Cpack : public Compressor
{
  public:
    struct Config
    {
        /** Dictionary entries (4 bytes each); 16 = classic C-PACK. */
        unsigned dict_entries = 16;
        /** Keep the dictionary across lines (FIFO replacement). */
        bool persistent = false;
    };

    Cpack();
    explicit Cpack(const Config &cfg);

    std::string name() const override;
    BitVec compress(const CacheLine &line, const RefList &refs) override;
    using Compressor::decode;
    DecodeResult decode(BitReader &br, const RefList &refs) override;
    void reset() override;

  private:
    /** FIFO dictionary of 32-bit words. */
    struct Dict
    {
        std::vector<std::uint32_t> entries;
        unsigned capacity = 0;
        std::size_t head = 0; // insertion point when full

        explicit Dict(unsigned cap) : capacity(cap)
        {
            entries.reserve(cap);
        }

        void push(std::uint32_t w);
        std::size_t size() const { return entries.size(); }
        std::uint32_t at(std::size_t i) const { return entries[i]; }

        /** Best match: 2 = full, 1 = 3-byte, 0 = 2-byte, -1 = none. */
        int bestMatch(std::uint32_t w, std::size_t &index) const;
    };

    BitVec encode(const CacheLine &line, Dict &dict) const;
    DecodeResult decodeWith(BitReader &br, Dict &dict) const;
    Dict makeSeededDict(const RefList &refs) const;

    Config cfg_;
    unsigned idx_bits_;
    // Persistent mode keeps one dictionary per direction so a single
    // object can act as a loop-back encoder/decoder pair; deployed
    // endpoints use compress() on one side and decode() on the
    // other, which keeps the two dictionaries in lock-step.
    Dict enc_dict_;
    Dict dec_dict_;
};

} // namespace cable

#endif // CABLE_COMPRESS_CPACK_H
