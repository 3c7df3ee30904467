/**
 * @file
 * Bit-granular streams used by every compression engine. Encoders
 * emit into a BitWriter or a BitPacker; decoders consume from a
 * BitReader. The backing BitVec records the exact encoded length in
 * bits, which is what the link model quantizes into flits.
 */

#ifndef CABLE_COMPRESS_BITSTREAM_H
#define CABLE_COMPRESS_BITSTREAM_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/log.h"

namespace cable
{

/** A sequence of bits, MSB-first within each stored byte. */
class BitVec
{
  public:
    std::size_t sizeBits() const { return num_bits_; }
    bool empty() const { return num_bits_ == 0; }

    bool
    bit(std::size_t i) const
    {
        if (i >= num_bits_)
            panic("BitVec::bit: index %zu out of %zu", i, num_bits_);
        return (bytes_[i >> 3] >> (7 - (i & 7))) & 1;
    }

    void
    pushBit(bool b)
    {
        if ((num_bits_ & 7) == 0)
            bytes_.push_back(0);
        if (b)
            bytes_.back() |= static_cast<std::uint8_t>(
                1u << (7 - (num_bits_ & 7)));
        ++num_bits_;
    }

    /** Inverts bit @p i; used by the link fault injector. */
    void
    flipBit(std::size_t i)
    {
        if (i >= num_bits_)
            panic("BitVec::flipBit: index %zu out of %zu", i,
                  num_bits_);
        bytes_[i >> 3] ^= static_cast<std::uint8_t>(1u << (7 - (i & 7)));
    }

    void
    clear()
    {
        bytes_.clear();
        num_bits_ = 0;
    }

    /** Reserves room for @p nbits bits, so refills up to that length
     *  never reallocate. */
    void reserveBits(std::size_t nbits) { bytes_.reserve((nbits + 7) >> 3); }

    /**
     * Raw backing bytes (ceil(sizeBits/8) of them), bits MSB-first
     * within each byte. Lets byte-at-a-time consumers — the
     * table-driven CRC in common/crc.h — skip the per-bit accessor.
     */
    const std::uint8_t *data() const { return bytes_.data(); }

  private:
    /** Write whole bytes straight into the backing store. */
    friend class BitWriter;
    friend class BitPacker;

    std::vector<std::uint8_t> bytes_;
    std::size_t num_bits_ = 0;
};

/**
 * Appends fields of up to 64 bits, most significant bit first. Fields
 * are written a byte at a time into BitVec's MSB-first layout; bits
 * past sizeBits() in the last byte always stay zero, so appended
 * streams can be copied or shifted in whole bytes.
 */
class BitWriter
{
  public:
    /** Appends the low @p nbits bits of @p value. */
    void
    put(std::uint64_t value, unsigned nbits)
    {
        if (nbits > 64)
            panic("BitWriter::put: nbits=%u", nbits);
        if (nbits == 0)
            return;
        if (nbits < 64)
            value &= (std::uint64_t{1} << nbits) - 1;
        const std::size_t pos = vec_.num_bits_;
        vec_.num_bits_ = pos + nbits;
        vec_.bytes_.resize((vec_.num_bits_ + 7) >> 3);
        std::uint8_t *p = vec_.bytes_.data() + (pos >> 3);
        unsigned left = nbits; // bits of value not yet written
        if (const unsigned used = pos & 7) {
            const unsigned room = 8 - used;
            if (left <= room) {
                *p |= static_cast<std::uint8_t>(value << (room - left));
                return;
            }
            left -= room;
            *p++ |= static_cast<std::uint8_t>(value >> left);
        }
        for (; left >= 8; ++p) {
            left -= 8;
            *p = static_cast<std::uint8_t>(value >> left);
        }
        if (left > 0)
            *p = static_cast<std::uint8_t>(value << (8 - left));
    }

    /** Reserves room for @p nbits bits, so puts up to that length
     *  never reallocate. */
    void reserveBits(std::size_t nbits) { vec_.reserveBits(nbits); }

    /** Appends every bit of @p other. */
    void
    appendBits(const BitVec &other)
    {
        if (&other == &vec_) {
            BitVec copy = other;
            appendBits(copy);
            return;
        }
        const std::size_t n = other.num_bits_;
        if (n == 0)
            return;
        const std::uint8_t *src = other.bytes_.data();
        const std::size_t src_bytes = other.bytes_.size();
        const unsigned shift = vec_.num_bits_ & 7;
        vec_.num_bits_ += n;
        if (shift == 0) {
            vec_.bytes_.insert(vec_.bytes_.end(), src, src + src_bytes);
            return;
        }
        // Unaligned: each source byte straddles two destination
        // bytes. The source's zero pad bits land past the new end, so
        // the spill of the last source byte is dropped when it would
        // open a byte beyond ceil(sizeBits/8).
        const std::size_t old_bytes = vec_.bytes_.size();
        const std::size_t new_bytes = (vec_.num_bits_ + 7) >> 3;
        vec_.bytes_.resize(new_bytes);
        std::uint8_t *dst = vec_.bytes_.data() + old_bytes - 1;
        for (std::size_t i = 0; i < src_bytes; ++i) {
            dst[i] |= static_cast<std::uint8_t>(src[i] >> shift);
            if (old_bytes + i < new_bytes)
                dst[i + 1] = static_cast<std::uint8_t>(src[i]
                                                       << (8 - shift));
        }
    }

    std::size_t sizeBits() const { return vec_.sizeBits(); }
    const BitVec &bits() const { return vec_; }
    BitVec take() { return std::move(vec_); }

  private:
    BitVec vec_;
};

/**
 * Writes a stream whose exact length is known up front into an
 * existing BitVec, reusing its storage: the byte array is sized
 * once, then filled four bytes at a time from a 64-bit accumulator.
 * For encoders that cost a line before writing it (LBE's draft and
 * emit); a BitWriter grows its vector on every field instead.
 */
class BitPacker
{
  public:
    /** Replaces @p out's contents with the @p nbits bits to come. */
    BitPacker(BitVec &out, std::size_t nbits) : nbits_(nbits)
    {
        out.num_bits_ = nbits;
        out.bytes_.resize((nbits + 7) >> 3);
        p_ = out.bytes_.data();
    }

    BitPacker(const BitPacker &) = delete;
    BitPacker &operator=(const BitPacker &) = delete;

    /** Appends the low @p nbits (at most 32) bits of @p value. */
    void
    put(std::uint32_t value, unsigned nbits)
    {
        if (nbits > 32 || put_ + nbits > nbits_)
            panic("BitPacker: %u more bits after %zu of %zu", nbits,
                  put_, nbits_);
        const std::uint64_t field =
            value & ((std::uint64_t{1} << nbits) - 1);
        acc_ = (acc_ << nbits) | field;
        n_ += nbits;
        put_ += nbits;
        if (n_ >= 32) {
            n_ -= 32;
            const auto w = static_cast<std::uint32_t>(acc_ >> n_);
            p_[0] = static_cast<std::uint8_t>(w >> 24);
            p_[1] = static_cast<std::uint8_t>(w >> 16);
            p_[2] = static_cast<std::uint8_t>(w >> 8);
            p_[3] = static_cast<std::uint8_t>(w);
            p_ += 4;
        }
    }

    /** Writes the last partial word, zero-padded; the bits put must
     *  add up to the length announced at construction. */
    void
    finish()
    {
        if (put_ != nbits_)
            panic("BitPacker: put %zu bits, announced %zu", put_,
                  nbits_);
        // The n_ < 32 pending bits, MSB-aligned in a 32-bit word.
        const auto w = static_cast<std::uint32_t>(
            n_ == 0 ? 0 : (acc_ << (32 - n_)));
        for (unsigned b = 0; b < (n_ + 7) / 8; ++b)
            p_[b] = static_cast<std::uint8_t>(w >> (24 - 8 * b));
    }

  private:
    std::size_t nbits_;
    std::uint8_t *p_;
    std::uint64_t acc_ = 0; ///< low n_ bits pending
    unsigned n_ = 0;
    std::size_t put_ = 0;
};

/**
 * Sequential reader over a BitVec, the reading twin of BitPacker:
 * fields come out of a 64-bit accumulator refilled four bytes at a
 * time. Reading never aborts. A read past the end returns 0, consumes
 * the rest of the stream and sets the sticky overrun() flag, so a
 * decoder can check once, at the end, whether it ran out of bits.
 */
class BitReader
{
  public:
    explicit BitReader(const BitVec &vec)
        : p_(vec.data()), end_(vec.data() + ((vec.sizeBits() + 7) >> 3)),
          size_(vec.sizeBits())
    {
    }

    /** Reads the next @p nbits (at most 64) bits as an unsigned
     *  value; 0 if fewer than @p nbits remain. */
    std::uint64_t
    get(unsigned nbits)
    {
        if (nbits > 64)
            panic("BitReader::get: nbits=%u", nbits);
        if (nbits > size_ - pos_) {
            overrun_ = true;
            pos_ = size_;
            return 0;
        }
        pos_ += nbits;
        if (nbits <= 32)
            return take(nbits);
        const std::uint64_t hi = take(nbits - 32);
        return (hi << 32) | take(32);
    }

    /** Ends the stream after its first @p nbits bits (never before
     *  the current position, never past the vector's end): reads
     *  beyond the new end overrun. */
    void
    limit(std::size_t nbits)
    {
        size_ = std::max(pos_, std::min(nbits, size_));
    }

    std::size_t pos() const { return pos_; }
    bool exhausted() const { return pos_ >= size_; }
    std::size_t remaining() const { return size_ - pos_; }
    /** Whether any read ran past the end. */
    bool overrun() const { return overrun_; }

  private:
    /** The next @p nbits (at most 32) bits, known to be in the
     *  stream. */
    std::uint64_t
    take(unsigned nbits)
    {
        if (n_ < nbits) {
            // n_ < 32 pending bits stay below the 32 loaded.
            if (end_ - p_ >= 4) {
                acc_ = (acc_ << 32) | (std::uint64_t{p_[0]} << 24)
                       | (std::uint64_t{p_[1]} << 16)
                       | (std::uint64_t{p_[2]} << 8) | p_[3];
                p_ += 4;
                n_ += 32;
            } else {
                for (; p_ != end_; ++p_, n_ += 8)
                    acc_ = (acc_ << 8) | *p_;
            }
        }
        n_ -= nbits;
        return (acc_ >> n_) & ((std::uint64_t{1} << nbits) - 1);
    }

    const std::uint8_t *p_;   ///< next byte to load
    const std::uint8_t *end_; ///< one past the last byte
    std::size_t size_;
    std::size_t pos_ = 0;
    std::uint64_t acc_ = 0; ///< low n_ bits pending
    unsigned n_ = 0;
    bool overrun_ = false;
};

} // namespace cable

#endif // CABLE_COMPRESS_BITSTREAM_H
