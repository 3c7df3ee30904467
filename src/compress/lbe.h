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
 *   11 + 4b len + (len+1)*8b        byte run: words whose three high
 *                                   bytes are zero, low bytes only
 *
 * where off indexes the copy sources: the dictionary words, then the
 * line's own already-emitted words (a 16-word self window). It is
 * bitsToIndex(dictionary words + 16) bits wide. The paper's LBE256
 * baseline is LBE with a 256-byte (64-word) persistent dictionary;
 * CABLE+LBE freezes the dictionary to the (up to) three reference
 * lines for the duration of one line.
 *
 * Encoding is two-phase (DESIGN.md §9): draft() parses the line
 * into a token plan and returns its exact size without writing a
 * bit; emit() writes a kept plan. compress() is one of each.
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
    using Compressor::decode;
    DecodeResult decode(BitReader &br, const RefList &refs) override;
    /** Plans @p line without writing bits; a persistent stream is
     *  read, never advanced. */
    std::size_t draft(const CacheLine &line, const RefList &refs,
                      unsigned slot) override;
    void emit(unsigned slot, BitVec &out) override;
    void reset() override;

  private:
    using WordDict = std::vector<std::uint32_t>;

    /** One token of a plan; runs cover len words. */
    struct Token
    {
        std::uint8_t op;
        std::uint8_t len;
        std::uint8_t off; ///< copy source (copies only)
    };

    /** A drafted line: its tokens and their exact size in bits. */
    struct Plan
    {
        CacheLine line; ///< literal and byte runs carry its words
        std::size_t bits = 0;
        unsigned off_bits = 0;
        unsigned ntokens = 0;
        Token tokens[kWordsPerLine];
    };

    /**
     * What every draft of one line shares: the self block of its
     * word-equality matrix (bit k of self[j]: word k equals word j)
     * and its zero and byte-word masks.
     */
    struct LineFacts
    {
        CacheLine line;
        std::uint16_t self[kWordsPerLine];
        std::uint32_t zero = 0, bytes = 0;
    };

    /** The copy sources a line is drafted against (lbe.cc). */
    struct DictView;

    /** The greedy parse over a @p Mask-wide word-equality matrix. */
    template <class Mask>
    static void parse(const LineFacts &facts, const DictView &dict,
                      Plan &plan);
    /** Fills @p plan for @p line against @p refs (or the stream). */
    void planLine(const CacheLine &line, const RefList &refs, Plan &plan);
    static void write(const Plan &plan, BitVec &out);
    /** The copy sources for @p refs, or else the @p stream FIFO. */
    DictView dictFor(const RefList &refs, const WordDict &stream) const;
    /** The facts of @p line, rebuilt only when the line changes. */
    const LineFacts &factsOf(const CacheLine &line);
    static void streamPush(WordDict &dict, std::size_t &head,
                           unsigned capacity, const CacheLine &line);

    Config cfg_;
    unsigned dict_words_;
    unsigned stream_off_bits_;
    // Persistent mode keeps one dictionary per direction so one
    // object can loop back on itself in tests; real endpoints call
    // compress() on one side and decode() on the other.
    WordDict enc_dict_;
    std::size_t enc_head_ = 0;
    WordDict dec_dict_;
    std::size_t dec_head_ = 0;
    Plan plans_[kDraftSlots];
    LineFacts facts_;
    bool facts_valid_ = false;
};

} // namespace cable

#endif // CABLE_COMPRESS_LBE_H
