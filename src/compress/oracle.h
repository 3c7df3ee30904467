/**
 * @file
 * ORACLE delegate engine (§VI-E, Fig 20): an upper bound on what any
 * engine could extract from CABLE's references. It performs an
 * optimal (dynamic-programming) byte-granular parse of the requested
 * line against the concatenated reference lines plus the already-
 * emitted prefix, so byte shifts and unaligned duplicates — which the
 * aligned, word-granular engines cannot express — compress too.
 *
 * Token grammar: 1-bit flag; literal = 8 bits; copy = 8-bit absolute
 * offset into (refs || prefix) plus 6-bit length (2..65, no overlap).
 */

#ifndef CABLE_COMPRESS_ORACLE_H
#define CABLE_COMPRESS_ORACLE_H

#include "compress/compressor.h"
#include "compress/lbe.h"

namespace cable
{

class Oracle : public Compressor
{
  public:
    Oracle();

    std::string name() const override { return "oracle"; }
    BitVec compress(const CacheLine &line, const RefList &refs) override;
    using Compressor::decode;
    DecodeResult decode(BitReader &br, const RefList &refs) override;

  private:
    static constexpr unsigned kMinCopy = 2;
    static constexpr unsigned kMaxCopy = 65;
    static constexpr unsigned kOffsetBits = 8;
    static constexpr unsigned kLenBits = 6;
    /** What the offset field addresses: three refs and the line. */
    static constexpr unsigned kSourceBytes = 1u << kOffsetBits;

    BitVec dpEncode(const CacheLine &line, const RefList &refs) const;
    DecodeResult dpDecode(BitReader &br, const RefList &refs) const;
    /** Copies @p refs to the front of @p src; returns their size. */
    static unsigned refBytes(const RefList &refs, std::uint8_t *src);

    /** An oracle never loses to a real engine: it may emit the
     *  word-aligned LBE encoding instead of the byte parse (1-bit
     *  selector). */
    Lbe lbe_;
};

} // namespace cable

#endif // CABLE_COMPRESS_ORACLE_H
