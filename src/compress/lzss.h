/**
 * @file
 * LZSS sliding-window compressor, the repository's gzip/LZ77 stand-in
 * (the paper evaluates gzip via IBM's LZ77 ASIC estimates; §VI uses a
 * 32KB dictionary, gzip's maximum). Byte-granular greedy parsing with
 * a zlib-style hash-chain match finder over a persistent window.
 *
 * Token grammar: 1-bit flag, then either an 8-bit literal or a
 * (distance, length) pair with log2(window) distance bits and 8-bit
 * length (3..258 like DEFLATE).
 *
 * In streaming mode the window persists across lines — this is what
 * makes gzip vulnerable to the paper's "dictionary pollution" effect
 * (§VI-C): interleaved streams from unrelated programs evict each
 * other's history. In CABLE mode (non-empty RefList) the window is
 * rebuilt per line from the reference lines.
 */

#ifndef CABLE_COMPRESS_LZSS_H
#define CABLE_COMPRESS_LZSS_H

#include <cstdint>
#include <vector>

#include "common/bitops.h"
#include "compress/compressor.h"

namespace cable
{

class Lzss : public Compressor
{
  public:
    struct Config
    {
        /** Sliding window in bytes (power of two); 32768 = gzip max. */
        unsigned window_bytes = 32768;
        /** Keep the window across lines. */
        bool persistent = true;
        /** Match-finder chain walk bound (speed/ratio knob). */
        unsigned max_chain = 32;
    };

    Lzss();
    explicit Lzss(const Config &cfg);

    std::string name() const override;
    BitVec compress(const CacheLine &line, const RefList &refs) override;
    using Compressor::decode;
    DecodeResult decode(BitReader &br, const RefList &refs) override;
    void reset() override;

  private:
    static constexpr unsigned kMinMatch = 3;
    static constexpr unsigned kMaxMatch = 258;
    static constexpr std::uint64_t kNone = ~std::uint64_t{0};
    static constexpr unsigned kHashBits = 15;

    /** Distance width over @p nrefs reference lines and the line. */
    static unsigned
    refDistBits(std::size_t nrefs)
    {
        return bitsToIndex((nrefs + 1) * kLineBytes + 1);
    }

    /** Reference-seeded per-line path (small buffers, brute force). */
    BitVec encodeWithRefs(const CacheLine &line, const RefList &refs,
                          unsigned dist_bits) const;
    /** Decodes a line that follows @p prefix: the reference bytes or
     *  the stream window. */
    static DecodeResult decodeAfter(BitReader &br,
                                    const std::vector<std::uint8_t> &prefix,
                                    unsigned dist_bits);

    /** Streaming path over the window: persistent, or rolled back
     *  after each line. */
    BitVec encodeStream(const CacheLine &line);
    void insertHash(std::uint64_t pos);
    std::uint8_t byteAt(std::uint64_t abs) const;
    unsigned hashAt(std::uint64_t abs) const;

    Config cfg_;
    unsigned dist_bits_;

    // Streaming window state: bytes [trim_base_, trim_base_+size) of
    // the logical stream live in history_; chains use absolute
    // positions with distance-bounded validity.
    std::vector<std::uint8_t> history_;
    std::uint64_t trim_base_ = 0;
    // Hash chains of a persistent window; empty until its first line.
    std::vector<std::uint64_t> head_;
    std::vector<std::uint64_t> prev_;
    // Decoder-side history (separate so one object can loop back in
    // tests; real deployments use one instance per direction).
    std::vector<std::uint8_t> dec_history_;
};

} // namespace cable

#endif // CABLE_COMPRESS_LZSS_H
