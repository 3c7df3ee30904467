/**
 * @file
 * Named widths of every field in CABLE's link-frame header (§III-E,
 * Fig 8). The encoded frame layout is an exact-match contract: the
 * receiver decodes against its own metadata, so a sender/receiver
 * disagreement about any field width silently corrupts every
 * reconstruction. Centralizing the widths here (and lint rule R003,
 * tools/cable_lint.py) keeps bare literals out of the walk that
 * serializes the header.
 *
 * Frame layout, compressed transfer:
 *
 *   [flag:1 = 1][nrefs:2]([set:set_bits][way:way_bits])*nrefs[DIFF...]
 *
 * and raw transfer:
 *
 *   [flag:1 = 0][512 payload bits]
 *
 * A RemoteLID's width is not a constant: it is derived from the
 * remote cache's geometry (set index bits + way bits — 17 in the paper's
 * 16MB/16-way config, Table III) by RlidFormat (core/frame.h).
 *
 * The frame header is written and read by one walk in core/frame.h,
 * so sender and receiver share one description of it, as the
 * checkpoint body does (core/checkpoint.cc).
 */

#ifndef CABLE_CORE_WIRE_FORMAT_H
#define CABLE_CORE_WIRE_FORMAT_H

#include <cstddef>

#include "common/types.h"

namespace cable
{

/** Bits per serialized payload byte (BitWriter byte fields). */
inline constexpr unsigned kBitsPerByte = 8;

/** Leading raw/compressed flag bit of every frame. */
inline constexpr unsigned kWireFlagBits = 1;

/** Reference-count field of a compressed frame. */
inline constexpr unsigned kWireNRefsBits = 2;

/**
 * Hard cap on references per DIFF, derived from the wire field: a
 * 2-bit nrefs can name at most 3 references. CableConfig::max_refs
 * is validated against this at channel construction.
 */
inline constexpr unsigned kWireMaxRefs = (1u << kWireNRefsBits) - 1;

/** Header bits of a compressed (referenced or self-only) frame. */
inline constexpr unsigned kWireCompressedHeaderBits =
    kWireFlagBits + kWireNRefsBits;

/** Header bits of a raw (uncompressed escape) frame. */
inline constexpr unsigned kWireRawHeaderBits = kWireFlagBits;

/** Bits of a raw frame: the flag and the 512-bit line. A DIFF is
 *  only sent while its frame costs less. */
inline constexpr std::size_t kWireRawFrameBits =
    kWireRawHeaderBits + kLineBytes * kBitsPerByte;

// ---------------------------------------------------------------------
// Resync handshake (DESIGN.md §12). The reconciliation protocol that
// returns a crashed/desynced channel to Healthy exchanges epoch
// numbers, per-range structure digests and per-line re-arm
// confirmations; their widths are part of the wire contract exactly
// like the frame header above, and all resync traffic is charged to
// the recovery counters using these widths.
// ---------------------------------------------------------------------

/** Channel-generation (epoch) number in the resync hello. */
inline constexpr unsigned kWireResyncEpochBits = 32;

/** Per-range metadata digest exchanged during reconciliation. */
inline constexpr unsigned kWireResyncDigestBits = 32;

/**
 * Per-line confirmation digest sent while re-arming a mismatched
 * range: one RemoteLID (RlidFormat::bits()) plus this
 * digest per re-linked line.
 */
inline constexpr unsigned kWireResyncLineDigestBits = 16;

} // namespace cable

#endif // CABLE_CORE_WIRE_FORMAT_H
