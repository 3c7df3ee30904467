/**
 * @file
 * LBE: length-based dictionary encoding in the style of MORC
 * (Nguyen & Wentzlaff, MICRO 2015). LBE works at 32-bit word
 * granularity over a FIFO dictionary of recent words and encodes
 * *runs*: one token can copy up to sixteen consecutive, aligned
 * dictionary words. This is the property the CABLE paper calls out
 * in §VI-E ("LBE can copy large aligned data blocks with lower
 * overheads"), which makes it the best-performing delegate engine.
 *
 * Token grammar (2-bit opcode first):
 *
 *   00 + 4b len                     zero run of len+1 words
 *   01 + off + 4b len               dictionary copy, len+1 words
 *   10 + 4b len + (len+1)*32b       literal run
 *
 * where off is log2(dictionary words) bits wide. The paper's LBE256
 * baseline is LBE with a 256-byte (64-word) persistent dictionary;
 * CABLE+LBE freezes the dictionary to the (up to) three reference
 * lines for the duration of one line.
 */

#ifndef CABLE_COMPRESS_LBE_H
#define CABLE_COMPRESS_LBE_H

#include <cstdint>
#include <vector>

#include "compress/compressor.h"

namespace cable
{

class Lbe : public Compressor
{
  public:
    struct Config
    {
        /** Dictionary capacity in bytes (must be a multiple of 4). */
        unsigned dict_bytes = 256;
        /** Keep dictionary across lines (FIFO of whole lines). */
        bool persistent = false;
    };

    Lbe();
    explicit Lbe(const Config &cfg);

    std::string name() const override;
    BitVec compress(const CacheLine &line, const RefList &refs) override;
    CacheLine decompress(const BitVec &bits, const RefList &refs) override;
    std::size_t compressedBits(const CacheLine &line,
                               const RefList &refs) override;
    void reset() override;

  private:
    using WordDict = std::vector<std::uint32_t>;

    BitVec encode(const CacheLine &line, const WordDict &dict,
                  unsigned off_bits) const;
    CacheLine decode(const BitVec &bits, const WordDict &dict,
                     unsigned off_bits) const;
    /** Fills ref_dict_ with the reference lines' words, in order. */
    const WordDict &refDict(const RefList &refs);
    static void streamPush(WordDict &dict, std::size_t &head,
                           unsigned capacity, const CacheLine &line);

    Config cfg_;
    unsigned dict_words_;
    unsigned stream_off_bits_;
    // Persistent mode keeps one dictionary per direction so one
    // object can loop back on itself in tests; real endpoints call
    // compress() on one side and decompress() on the other.
    WordDict enc_dict_;
    std::size_t enc_head_ = 0;
    WordDict dec_dict_;
    std::size_t dec_head_ = 0;
    // Reference-mode dictionary, refilled per call; reusing it keeps
    // refs compress/decompress free of a per-call allocation.
    WordDict ref_dict_;
};

} // namespace cable

#endif // CABLE_COMPRESS_LBE_H
