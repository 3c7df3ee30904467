/**
 * @file
 * Trivial zero-word encoder (Villa et al. style dynamic zero
 * compression): one flag bit per 32-bit word, literal words follow
 * uncompressed. The simplest link-compression baseline; useful as a
 * floor in sweeps and as a sanity check in tests.
 */

#ifndef CABLE_COMPRESS_ZERO_RUN_H
#define CABLE_COMPRESS_ZERO_RUN_H

#include "compress/compressor.h"

namespace cable
{

class ZeroRun : public Compressor
{
  public:
    std::string name() const override { return "zero"; }

    BitVec
    compress(const CacheLine &line, const RefList &) override
    {
        BitWriter bw;
        for (unsigned i = 0; i < kWordsPerLine; ++i) {
            std::uint32_t w = line.word(i);
            if (w == 0) {
                bw.put(1, 1);
            } else {
                bw.put(0, 1);
                bw.put(w, 32);
            }
        }
        return bw.take();
    }

    using Compressor::decode;
    DecodeResult
    decode(BitReader &br, const RefList &) override
    {
        CacheLine line;
        for (unsigned i = 0; i < kWordsPerLine; ++i)
            if (!br.get(1))
                line.setWord(i, static_cast<std::uint32_t>(br.get(32)));
        return DecodeResult::of(br, line);
    }
};

} // namespace cable

#endif // CABLE_COMPRESS_ZERO_RUN_H
