/**
 * @file
 * CacheLine: the 64-byte value type that flows through caches, the
 * compression engines and the CABLE search pipeline. Provides 32-bit
 * word views (the granularity signatures and CBVs operate at) and
 * 64-bit views (used by BDI).
 */

#ifndef CABLE_COMMON_LINE_H
#define CABLE_COMMON_LINE_H

#include <array>
#include <cstdint>
#include <cstring>
#include <string>

#include "common/types.h"

namespace cable
{

/**
 * A 64-byte cache line. Stored little-endian; word accessors use
 * memcpy so the type stays trivially copyable and alias-safe.
 */
class CacheLine
{
  public:
    CacheLine() { bytes_.fill(0); }

    /** Builds a line from raw bytes (must be kLineBytes long). */
    static CacheLine
    fromBytes(const std::uint8_t *data)
    {
        CacheLine l;
        std::memcpy(l.bytes_.data(), data, kLineBytes);
        return l;
    }

    /** Builds a line whose 32-bit words are all @p word. */
    static CacheLine
    filledWords(std::uint32_t word)
    {
        CacheLine l;
        for (unsigned i = 0; i < kWordsPerLine; ++i)
            l.setWord(i, word);
        return l;
    }

    std::uint8_t byte(unsigned i) const { return bytes_[i]; }
    void setByte(unsigned i, std::uint8_t v) { bytes_[i] = v; }

    /** Reads the i-th 32-bit word (i in [0, 16)). */
    std::uint32_t
    word(unsigned i) const
    {
        std::uint32_t w;
        std::memcpy(&w, bytes_.data() + i * 4, 4);
        return w;
    }

    void
    setWord(unsigned i, std::uint32_t v)
    {
        std::memcpy(bytes_.data() + i * 4, &v, 4);
    }

    /** Reads the i-th 64-bit word (i in [0, 8)). */
    std::uint64_t
    word64(unsigned i) const
    {
        std::uint64_t w;
        std::memcpy(&w, bytes_.data() + i * 8, 8);
        return w;
    }

    void
    setWord64(unsigned i, std::uint64_t v)
    {
        std::memcpy(bytes_.data() + i * 8, &v, 8);
    }

    const std::uint8_t *data() const { return bytes_.data(); }
    std::uint8_t *data() { return bytes_.data(); }

    bool isZero() const
    {
        for (auto b : bytes_)
            if (b)
                return false;
        return true;
    }

    bool
    operator==(const CacheLine &o) const
    {
        return bytes_ == o.bytes_;
    }

    bool operator!=(const CacheLine &o) const { return !(*this == o); }

    /** Hex dump for test diagnostics. */
    std::string toString() const;

  private:
    std::array<std::uint8_t, kLineBytes> bytes_;
};

} // namespace cable

#endif // CABLE_COMMON_LINE_H
