/**
 * @file
 * Frequent Pattern Compression (Alameldeen & Wood, TR-1500; cited by
 * the paper among the significance-based, non-dictionary schemes).
 * Each 32-bit word is encoded with a 3-bit prefix and a variable
 * payload:
 *
 *   000  zero-word run (3-bit run length, 1..8)
 *   001  4-bit sign-extended immediate
 *   010  8-bit sign-extended immediate
 *   011  16-bit sign-extended immediate
 *   100  16-bit value padded with a zero halfword (upper half)
 *   101  two halfwords, each an 8-bit sign-extended immediate
 *   110  word of four repeated bytes
 *   111  uncompressed word
 *
 * FPC is per-line and dictionary-free — the same baseline class as
 * BDI and C-PACK in the paper's taxonomy. Not part of the paper's
 * evaluated set, so the figure harnesses do not chart it, but it is
 * available ("fpc") for custom studies and the micro-benchmarks.
 */

#ifndef CABLE_COMPRESS_FPC_H
#define CABLE_COMPRESS_FPC_H

#include "compress/compressor.h"

namespace cable
{

class Fpc : public Compressor
{
  public:
    std::string name() const override { return "fpc"; }
    BitVec compress(const CacheLine &line, const RefList &refs) override;
    using Compressor::decode;
    DecodeResult decode(BitReader &br, const RefList &refs) override;
};

} // namespace cable

#endif // CABLE_COMPRESS_FPC_H
