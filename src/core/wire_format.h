/**
 * @file
 * Named widths of every field in CABLE's link-frame header (§III-E,
 * Fig 8). The encoded frame layout is an exact-match contract: the
 * receiver decodes against its own metadata, so a sender/receiver
 * disagreement about any field width silently corrupts every
 * reconstruction. Centralizing the widths here (and lint rule R003,
 * tools/cable_lint.py) keeps bare literals out of the BitWriter
 * calls that serialize the header.
 *
 * Frame layout, compressed transfer:
 *
 *   [flag:1 = 1][nrefs:2][RemoteLID:rlid_bits]*nrefs[DIFF bits...]
 *
 * and raw transfer:
 *
 *   [flag:1 = 0][512 payload bits]
 *
 * RemoteLID width is not a constant: it is derived from the remote
 * cache's geometry (set index bits + way bits — 17 in the paper's
 * 16MB/16-way config, Table III) and lives in the channel's
 * rlid_bits_.
 *
 * The `cable-wire-decl:` directives below are the machine-readable
 * half of this contract: tools/cable_verify.py reconstructs each
 * record's field sequence from the annotated writer sites
 * (core/channel.cc, core/resync.cc, sim/protocol.cc) and checks them
 * against these declarations, so a header change that forgets one
 * side fails the static-analysis job. Records whose reader lives on
 * the (simulated) peer — the frame headers and the resync handshake —
 * have no C++ reader to compare; the declaration *is* the receiving
 * side.
 */

#ifndef CABLE_CORE_WIRE_FORMAT_H
#define CABLE_CORE_WIRE_FORMAT_H

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

// Frame-header wire contracts (writer sites: core/channel.cc
// packageTransfer/rawFallbackResend/bitsOf, sim/protocol.cc encode).
// cable-wire-decl: frame.compressed flag kWireFlagBits
// cable-wire-decl: frame.compressed nrefs kWireNRefsBits
// cable-wire-decl: frame.compressed ref_set rlid_bits_-way_bits*nrefs
// cable-wire-decl: frame.compressed ref_way way_bits*nrefs
// cable-wire-decl: frame.raw flag kWireFlagBits
// cable-wire-decl: frame.stream flag kWireFlagBits
// cable-wire-decl: frame.payload byte kBitsPerByte*kLineBytes

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
 * range: one RemoteLID (the channel's rlid_bits_) plus this
 * digest per re-linked line.
 */
inline constexpr unsigned kWireResyncLineDigestBits = 16;

// Resync handshake wire contracts (accounting sites: core/resync.cc
// CableChannel::resync — both directions of each exchange, hence *2 —
// and the desync re-arm in core/channel.cc recoverFromDesync).
// cable-wire-decl: resync.hello epoch kWireResyncEpochBits*2
// cable-wire-decl: resync.digest digest kWireResyncDigestBits*2
// cable-wire-decl: resync.rearm rlid rlid_bits_*relinked
// cable-wire-decl: resync.rearm line_digest kWireResyncLineDigestBits*relinked

} // namespace cable

#endif // CABLE_CORE_WIRE_FORMAT_H
