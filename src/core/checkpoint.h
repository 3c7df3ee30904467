/**
 * @file
 * Crash-consistent channel checkpoints (DESIGN.md §12). A checkpoint
 * is a versioned, CRC-protected, bit-granular image of the full
 * CableChannel metadata state — both signature hash tables, the WMT,
 * the eviction buffer, the generation clocks and every stats counter
 * — that can be written atomically to disk and restored after a
 * simulated endpoint crash.
 *
 * Image layout (all fields MSB-first, widths are the named kCkpt*
 * constants below — lint rules R003/R005 reject bare literals here):
 *
 *   [magic:32][version:16][body_len_bits:32]
 *   <body: tagged sections, fixed order>
 *   [crc16:16]                 (over bits [0, header+body_len))
 *
 * Sections, each introduced by an 8-bit tag:
 *
 *   GEOM     0xA1  cache/table geometry (restore target must match)
 *   CHANNEL  0xA2  health, streak, epoch, trace clock, compression
 *   WMT      0xA3  counters + per-slot residency map
 *   HT_HOME  0xA4  age clock, counters, per-bucket slot lists
 *   HT_REMOTE 0xA5 same layout as HT_HOME
 *   EVBUF    0xA6  seq clock, counters, buffered entries
 *   COUNTERS 0xA7  every StatSet counter (name, value)
 *
 * The body layout is written down once, as a walk over the sections
 * that capture() runs with a writer and restore() with a reader, so
 * the two directions cannot drift apart. Each range check sits beside
 * the field it guards and does nothing when writing.
 *
 * Load-time validation is exhaustive and typed: truncation, magic or
 * version skew, CRC mismatch, malformed sections and geometry
 * mismatches each raise CableCheckpointError with a distinct Kind —
 * never undefined behaviour. The reader's BitReader is limited to the
 * declared body, so a field past its end overruns and is rejected as
 * a BadSection naming its section; no loop or allocation is sized by
 * an image count the body cannot back. restore() walks the image into
 * copies of the channel's structures and moves them in only once the
 * whole image has validated (strong exception guarantee). save()
 * writes `path + ".tmp"` and renames, so a crash mid-write never
 * leaves a torn image at the published path.
 */

#ifndef CABLE_CORE_CHECKPOINT_H
#define CABLE_CORE_CHECKPOINT_H

#include <cstdint>
#include <exception>
#include <string>

#include "compress/bitstream.h"

namespace cable
{

class CableChannel;

// ---- checkpoint wire-format constants (DESIGN.md §12) ---------------

/** Magic number opening every checkpoint image ("CABL"-ish). */
inline constexpr std::uint32_t kCkptMagic = 0xcab1ec4d;
inline constexpr unsigned kCkptMagicBits = 32;

/** Format version; bump on any layout change. */
inline constexpr std::uint32_t kCkptVersion = 1;
inline constexpr unsigned kCkptVersionBits = 16;

/** Body length field (bits, excluding header and CRC). */
inline constexpr unsigned kCkptBodyLenBits = 32;

/** Header width: magic + version + body length. */
inline constexpr unsigned kCkptHeaderBits =
    kCkptMagicBits + kCkptVersionBits + kCkptBodyLenBits;

/** Trailing CRC-16-CCITT over header + body. */
inline constexpr unsigned kCkptCrcBits = 16;

/** Section tag width and the tag values (fixed serialization order). */
inline constexpr unsigned kCkptSectionTagBits = 8;
inline constexpr std::uint32_t kCkptTagGeom = 0xA1;
inline constexpr std::uint32_t kCkptTagChannel = 0xA2;
inline constexpr std::uint32_t kCkptTagWmt = 0xA3;
inline constexpr std::uint32_t kCkptTagHtHome = 0xA4;
inline constexpr std::uint32_t kCkptTagHtRemote = 0xA5;
inline constexpr std::uint32_t kCkptTagEvbuf = 0xA6;
inline constexpr std::uint32_t kCkptTagCounters = 0xA7;

// Field widths shared by several sections.
inline constexpr unsigned kCkptSetBits = 32;     ///< cache set index
inline constexpr unsigned kCkptWayBits = 8;      ///< cache way index
inline constexpr unsigned kCkptCountBits = 64;   ///< clocks & counters
inline constexpr unsigned kCkptBucketCountBits = 32; ///< HT buckets
inline constexpr unsigned kCkptBucketWaysBits = 8;   ///< HT slot depth
inline constexpr unsigned kCkptRlidBits = 8;     ///< RemoteLID width
inline constexpr unsigned kCkptEvbufCapBits = 16; ///< evbuf capacity
inline constexpr unsigned kCkptEvbufLenBits = 16; ///< buffered entries
inline constexpr unsigned kCkptHealthBits = 2;   ///< health enum
inline constexpr unsigned kCkptFlagBits = 1;     ///< booleans
inline constexpr unsigned kCkptNormBits = 32;    ///< WMT normalized LID
inline constexpr unsigned kCkptSlotCountBits = 8; ///< live slots/bucket
inline constexpr unsigned kCkptNameLenBits = 16;  ///< counter name len
inline constexpr unsigned kCkptNumCountersBits = 32; ///< counter count
inline constexpr unsigned kCkptByteBits = 8;      ///< raw data bytes

/**
 * A checkpoint operation failed. Every corruption class a load can
 * encounter maps to a distinct Kind, so callers (and the chaos
 * harness's corruption oracle) can assert on *why* an image was
 * rejected, not just that it was.
 */
class CableCheckpointError : public std::exception
{
  public:
    enum class Kind
    {
        IoError,          ///< open/read/write/rename failed
        Truncated,        ///< image shorter than its declared size
        BadMagic,         ///< leading magic number wrong
        VersionSkew,      ///< format version unsupported
        CrcMismatch,      ///< image CRC check failed (bit flip)
        BadSection,       ///< malformed or out-of-range section data
        GeometryMismatch, ///< image geometry != restoring channel
    };

    CableCheckpointError(Kind kind, const std::string &detail);

    const char *what() const noexcept override { return what_.c_str(); }
    Kind kind() const { return kind_; }
    const char *kindName() const { return kindName(kind_); }

    static const char *kindName(Kind k);

  private:
    Kind kind_;
    std::string what_;
};

/**
 * Static serializer for CableChannel state. A friend of the channel
 * and its metadata structures; holds no state of its own.
 *
 * Restore semantics: the image fully replaces the channel's metadata,
 * counters and clocks (histograms are telemetry, not replicated — a
 * restored channel restarts them empty). The epoch is set to the
 * image's epoch plus one and `checkpoint_restores` is incremented
 * *after* the image is applied: every restore begins a new channel
 * generation, which the resync handshake uses to detect restarts.
 */
class ChannelCheckpoint
{
  public:
    /** Serializes the channel's full metadata state into an image. */
    static BitVec capture(const CableChannel &ch);

    /**
     * Validates @p image and applies it to @p ch. Throws
     * CableCheckpointError (see Kind) on any defect; the channel is
     * untouched unless the whole image parsed and validated.
     */
    static void restore(CableChannel &ch, const BitVec &image);

    /** capture() + atomic write (tmp file + rename) to @p path. */
    static void save(const CableChannel &ch, const std::string &path);

    /** readImage() + restore() from @p path. */
    static void load(CableChannel &ch, const std::string &path);

    /**
     * Reads a checkpoint file into a BitVec (whole bytes; the CRC'd
     * bit length is recovered from the image header during restore).
     * Throws Kind::IoError when the file cannot be read.
     */
    static BitVec readImage(const std::string &path);

    /** Atomically writes an image's backing bytes to @p path. */
    static void writeImage(const BitVec &image, const std::string &path);

  private:
    /** The checkpointed state, over copies of the channel's
     *  structures (checkpoint.cc). */
    struct State;

    /** The one definition of the body layout: capture() runs it with
     *  a writer, restore() with a reader. */
    template <class IO>
    static void walk(IO &io, State &s);
};

} // namespace cable

#endif // CABLE_CORE_CHECKPOINT_H
