/**
 * @file
 * The engine interface CABLE delegates to (§II-B: "CABLE is a
 * compression framework and not a compression algorithm"). Engines
 * compress one 64-byte line at a time, optionally seeded with up to
 * three reference lines that form a temporary dictionary (Fig 10).
 *
 * Engines may also keep persistent state across lines (a streaming
 * window or FIFO dictionary); such engines model link compressors
 * like gzip or CPACK128 where the dictionary survives between
 * transfers. Encoder and decoder instances must then be kept in
 * lock-step, which the link endpoints in src/sim do.
 */

#ifndef CABLE_COMPRESS_COMPRESSOR_H
#define CABLE_COMPRESS_COMPRESSOR_H

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

/**
 * Abstract line compressor. compress() and decompress() must be
 * exact inverses given identical persistent state and references.
 */
class Compressor
{
  public:
    virtual ~Compressor() = default;

    /** Engine name for reports ("cpack", "lbe", ...). */
    virtual std::string name() const = 0;

    /**
     * Encodes @p line. @p refs seed the temporary dictionary; an
     * empty list means self-compression only.
     */
    virtual BitVec compress(const CacheLine &line, const RefList &refs) = 0;

    /** Decodes @p bits back into a line with the same @p refs. */
    virtual CacheLine decompress(const BitVec &bits,
                                 const RefList &refs) = 0;

    /**
     * Size-only query. The default implementation encodes and
     * discards; engines with persistent state must override so that
     * probing does not mutate the stream window.
     */
    virtual std::size_t
    compressedBits(const CacheLine &line, const RefList &refs)
    {
        return compress(line, refs).sizeBits();
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
