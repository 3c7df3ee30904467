/**
 * @file
 * Fundamental types shared across the CABLE reproduction: addresses,
 * cache geometry constants and the LineID used by the hash table and
 * way-map table to name a (set, way) slot inside a cache.
 */

#ifndef CABLE_COMMON_TYPES_H
#define CABLE_COMMON_TYPES_H

#include <cstdint>
#include <functional>

namespace cable
{

/** Physical/virtual address type. */
using Addr = std::uint64_t;

/** Simulation time in core clock cycles. */
using Cycles = std::uint64_t;

/** Bytes per cache line; the paper assumes 64-byte lines throughout. */
constexpr unsigned kLineBytes = 64;

/** 32-bit words per cache line (16 for 64-byte lines). */
constexpr unsigned kWordsPerLine = kLineBytes / 4;

/** log2 of the line size; used to split addresses. */
constexpr unsigned kLineShift = 6;

/** Returns the line-aligned base of @p addr. */
constexpr Addr
lineAlign(Addr addr)
{
    return addr & ~static_cast<Addr>(kLineBytes - 1);
}

/** Returns the line number (addr / 64) of @p addr. */
constexpr Addr
lineNumber(Addr addr)
{
    return addr >> kLineShift;
}

/**
 * Identifier of a cache slot: set index plus way. The paper uses
 * "HomeLID" for slots in the home cache and "RemoteLID" for slots in
 * the remote cache; both are LineIDs, only the cache they name
 * differs. A LineID is what the hash table stores and what travels
 * over the link as a reference pointer.
 */
struct LineID
{
    std::uint32_t set = 0;
    std::uint8_t way = 0;
    bool valid = false;

    LineID() = default;
    LineID(std::uint32_t s, std::uint8_t w) : set(s), way(w), valid(true) {}

    /** Pack into a dense integer given the owning cache's way count. */
    std::uint32_t
    pack(unsigned num_ways) const
    {
        return set * num_ways + way;
    }

    bool
    operator==(const LineID &o) const
    {
        return valid == o.valid && (!valid || (set == o.set && way == o.way));
    }

    bool operator!=(const LineID &o) const { return !(*this == o); }

    /** True for a slot, false for "no line" (a miss). */
    explicit operator bool() const { return valid; }
};

/** An invalid LineID constant for table initialization. */
inline const LineID kInvalidLineID{};

} // namespace cable

namespace std
{

template <> struct hash<cable::LineID>
{
    size_t
    operator()(const cable::LineID &lid) const
    {
        if (!lid.valid)
            return ~size_t{0};
        return (static_cast<size_t>(lid.set) << 8) ^ lid.way;
    }
};

} // namespace std

#endif // CABLE_COMMON_TYPES_H
