/**
 * @file
 * The CABLE link frame (§III-E, Fig 8; layout and widths in
 * core/wire_format.h). The header — flag, nrefs, and each RemoteLID
 * as a set field and a way field — is written down once, as a walk
 * that the sender runs with a writer and the receiver with a reader,
 * so the two sides cannot drift apart. Each range check sits beside
 * the field it guards and does nothing when writing. The reader
 * never aborts: a header that runs past the payload end or names a
 * RemoteLID outside the remote cache gets a typed FrameError. The
 * DIFF after the header is read by the engine from the same
 * BitReader (Compressor::decode).
 *
 * The stream baselines (sim/protocol.cc) use the same flag and
 * payload fields: [flag = 1][engine bits] or a raw frame; a link
 * without compression sends the payload alone.
 */

#ifndef CABLE_CORE_FRAME_H
#define CABLE_CORE_FRAME_H

#include <array>
#include <cstdint>

#include "common/bitops.h"
#include "common/line.h"
#include "common/types.h"
#include "compress/bitstream.h"
#include "compress/compressor.h"
#include "core/wire_format.h"

namespace cable
{

/**
 * Widths and bounds of a RemoteLID, from the remote cache's geometry:
 * set index bits plus way bits (17 in the paper's 16MB/16-way
 * config, Table III). The way field is at least one bit wide, so a
 * direct-mapped cache still carries one, and a reader must reject
 * way 1 there.
 */
struct RlidFormat
{
    RlidFormat(std::uint32_t sets_in, unsigned ways_in)
        : sets(sets_in), ways(ways_in), set_bits(bitsToIndex(sets_in)),
          way_bits(ways_in > 1 ? bitsToIndex(ways_in) : 1)
    {
    }

    std::uint32_t sets;
    unsigned ways;
    unsigned set_bits;
    unsigned way_bits;

    /** Bits of one RemoteLID on the wire. */
    unsigned bits() const { return set_bits + way_bits; }
};

/** The header of one frame: the raw/compressed flag and, for a
 *  compressed frame, the RemoteLIDs its DIFF was encoded against. */
struct FrameHeader
{
    bool compressed = false;
    unsigned nrefs = 0;
    std::array<LineID, kWireMaxRefs> refs{};
};

/** Why a received frame produced no line. */
enum class FrameError : std::uint8_t
{
    None,         ///< decoded
    Truncated,    ///< the header or raw payload ran past the payload end
    BadRemoteLid, ///< a RemoteLID outside the remote cache's geometry
    UntrackedRef, ///< a write-back reference the home's WMT does not map
    BadDiff,      ///< the engine rejected the DIFF (FrameDecode::diff)
};

/** "truncated frame", "RemoteLID out of range", ... for messages. */
inline const char *
frameErrorName(FrameError e)
{
    static constexpr const char *kNames[] = {
        "none", "truncated frame", "RemoteLID out of range",
        "reference to untracked remote line", "decode failed"};
    return kNames[static_cast<unsigned>(e)];
}

/** A received frame: its header, and its line or why there is none. */
struct FrameDecode
{
    FrameHeader header;
    CacheLine line; ///< meaningful only when ok()
    FrameError error = FrameError::None;
    DecodeError diff = DecodeError::None; ///< the engine's, on BadDiff

    bool ok() const { return error == FrameError::None; }
};

/** Appends the header @p h (the writer side of the walk). */
void putFrameHeader(BitWriter &bw, FrameHeader h, const RlidFormat &fmt);

/** Reads a header from @p br (the reader side of the walk). */
FrameError getFrameHeader(BitReader &br, FrameHeader &h,
                          const RlidFormat &fmt);

/** Appends the frame flag alone: a stream baseline's compressed
 *  frame puts its engine bits right after it. */
void putFrameFlag(BitWriter &bw, bool compressed);

/** Appends the 512 payload bits of @p line. */
void putLine(BitWriter &bw, const CacheLine &line);

/** Reads 512 payload bits; check @p br's overrun() after. */
CacheLine getLine(BitReader &br);

/** Appends a raw frame: the flag (0) and the payload. */
void putRawFrame(BitWriter &bw, const CacheLine &line);

} // namespace cable

#endif // CABLE_CORE_FRAME_H
