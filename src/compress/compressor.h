/**
 * @file
 * The engine interface CABLE delegates to (§II-B: "CABLE is a
 * compression framework and not a compression algorithm"). Engines
 * compress one 64-byte line at a time, optionally seeded with up to
 * three reference lines that form a temporary dictionary (Fig 10).
 *
 * An engine costs a line with draft() and emit()s the kept draft. It
 * reads a line back with decode(), the receiver: on damaged or cut
 * bits it returns a typed DecodeError, never aborting. decode()
 * reads from a BitReader, so a frame's receiver hands the engine the
 * reader it parsed the frame header with, limited to the payload end.
 *
 * Engines may also keep persistent state across lines (a streaming
 * window or FIFO dictionary); such engines model link compressors
 * like gzip or CPACK128 where the dictionary survives between
 * transfers. Encoder and decoder instances must then be kept in
 * lock-step, which the link endpoints in src/sim do. After a decode
 * error, a persistent engine's decoder state is undefined until
 * reset().
 */

#ifndef CABLE_COMPRESS_COMPRESSOR_H
#define CABLE_COMPRESS_COMPRESSOR_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/line.h"
#include "compress/bitstream.h"

namespace cable
{

/** Up to three reference lines seeding the temporary dictionary. */
using RefList = std::vector<const CacheLine *>;

/** Why decode() produced no line. */
enum class DecodeError : std::uint8_t
{
    None,        ///< decoded
    Truncated,   ///< the bits ran out before the line was complete
    BadOpcode,   ///< a token or selector the encoder never writes
    BadDistance, ///< a copy from outside the dictionary or the
                 ///< already-decoded part of the line
    BadShape,    ///< a run or copy past the end of the line
};

/** "truncated", "bad opcode", ... for messages. */
inline const char *
decodeErrorName(DecodeError e)
{
    static constexpr const char *kNames[] = {
        "none", "truncated", "bad opcode", "bad distance", "bad shape"};
    return kNames[static_cast<unsigned>(e)];
}

/** A decoded line, or the error that stopped the decode. */
struct DecodeResult
{
    CacheLine line; ///< meaningful only when ok()
    DecodeError error = DecodeError::None;

    bool ok() const { return error == DecodeError::None; }

    /** @p line as read through @p br: Truncated if a read overran. */
    static DecodeResult
    of(const BitReader &br, const CacheLine &line)
    {
        return {line, br.overrun() ? DecodeError::Truncated
                                   : DecodeError::None};
    }

    /** Error @p e, or Truncated if @p br overran first: bits past
     *  the end read as zeros, so a cut image can look malformed. */
    static DecodeResult
    fail(const BitReader &br, DecodeError e)
    {
        return {CacheLine{}, br.overrun() ? DecodeError::Truncated : e};
    }
};

/**
 * Abstract line compressor. decode() inverts compress() given
 * identical persistent state and references.
 */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /** Engine name for reports ("cpack", "lbe", ...). */
    virtual std::string name() const = 0;

    /**
     * Encodes @p line. @p refs seed the temporary dictionary; an
     * empty list means self-compression only. The default draft()
     * is one compress().
     */
    virtual BitVec compress(const CacheLine &line, const RefList &refs) = 0;

    /** Decodes one line from @p br's position with the same @p refs
     *  the encoder had, leaving @p br after it. */
    virtual DecodeResult decode(BitReader &br, const RefList &refs) = 0;

    /** decode() of a whole image. Engines override the reader form
     *  with `using Compressor::decode;` beside it. */
    DecodeResult
    decode(const BitVec &bits, const RefList &refs)
    {
        BitReader br(bits);
        return decode(br, refs);
    }

    /** decode() for trusted bits (benchmarks, tests): panics on a
     *  decode error. */
    CacheLine
    decompress(const BitVec &bits, const RefList &refs)
    {
        DecodeResult r = decode(bits, refs);
        if (!r.ok())
            panic("%s: decode failed: %s", name().c_str(),
                  decodeErrorName(r.error));
        return r.line;
    }

    /** Drafts one caller can hold at once: CABLE costs a line's
     *  self and refs representations, then emits the cheaper. */
    static constexpr unsigned kDraftSlots = 2;

    /**
     * First half of a two-phase compress: costs @p line against
     * @p refs, keeps what emit() needs in draft slot @p slot, and
     * returns the exact size compress() would produce. The default
     * compresses once and keeps the bits, so on an engine with
     * persistent state it advances the stream as compress() does.
     * LBE overrides it with a token plan that writes no bits and
     * leaves the stream alone.
     */
    virtual std::size_t
    draft(const CacheLine &line, const RefList &refs, unsigned slot)
    {
        BitVec &d = drafts_[checkedSlot(slot)];
        d = compress(line, refs);
        return d.sizeBits();
    }

    /**
     * Second half: replaces @p out with the bits drafted in @p slot.
     * Call it at most once per draft; the default hands over the
     * bits it kept.
     */
    virtual void
    emit(unsigned slot, BitVec &out)
    {
        out = std::move(drafts_[checkedSlot(slot)]);
    }

    /** Clears any persistent cross-line state. */
    virtual void reset() {}

  protected:
    static unsigned
    checkedSlot(unsigned slot)
    {
        if (slot >= kDraftSlots)
            panic("Compressor: draft slot %u out of %u", slot,
                  kDraftSlots);
        return slot;
    }

  private:
    BitVec drafts_[kDraftSlots];
};

using CompressorPtr = std::unique_ptr<Compressor>;

} // namespace cable

#endif // CABLE_COMPRESS_COMPRESSOR_H
