/**
 * @file
 * The Way-Map Table (§III-D): a home-cache structure that mirrors
 * the remote cache's (sets × ways) layout so reference pointers can
 * be sent as short RemoteLIDs instead of full tags (17 bits vs 40,
 * a 57.5% reduction).
 *
 * Each WMT slot (remote_set, remote_way) stores a *normalized*
 * HomeLID — alias bits (home set index minus the remote index bits)
 * plus the home way — identifying which home-cache line currently
 * occupies that remote slot. Lookup by home line: recompute the
 * normalized HomeLID, index with the remote set bits of the address,
 * and search the ways; the hit position *is* the remote way (Fig 9).
 *
 * The table doubles as the home side's precise record of remote
 * residency, which is what lets CABLE track synchronization without
 * touching the coherence protocol or replacement policy.
 */

#ifndef CABLE_CORE_WMT_H
#define CABLE_CORE_WMT_H

#include <cstdint>
#include <optional>
#include <string>

#include "common/stats.h"
#include "common/types.h"
#include "common/zero_row.h"

namespace cable
{

class WayMapTable
{
  public:
    struct Config
    {
        std::uint32_t remote_sets = 1 << 14;
        unsigned remote_ways = 8;
        std::uint32_t home_sets = 1 << 15;
        unsigned home_ways = 8;
    };

    explicit WayMapTable(const Config &cfg);

    /** alias+way normalization of a HomeLID (§III-D). */
    std::uint32_t normalize(LineID home_lid) const;

    /** Recovers the full HomeLID from (remote_set, normalized). */
    LineID denormalize(std::uint32_t remote_set,
                       std::uint32_t norm) const;

    /**
     * Translates a home line to its remote way, if resident: the
     * tag-match step of Fig 9. @p remote_set must be the remote set
     * of the line's address (low index bits, shared with home).
     */
    std::optional<std::uint8_t>
    lookupRemoteWay(std::uint32_t remote_set, LineID home_lid) const;

    /** Occupant (normalized HomeLID) of a remote slot, if any. */
    std::optional<std::uint32_t>
    occupant(std::uint32_t remote_set, std::uint8_t remote_way) const;

    /** Occupant as a full HomeLID, if any. */
    std::optional<LineID>
    occupantHomeLID(std::uint32_t remote_set,
                    std::uint8_t remote_way) const;

    /** Records that remote (set, way) now holds home line @p hlid. */
    void set(std::uint32_t remote_set, std::uint8_t remote_way,
             LineID home_lid);

    /** Clears one remote slot. */
    void clear(std::uint32_t remote_set, std::uint8_t remote_way);

    /** Invalidates every slot (desync recovery resynchronization). */
    void clearAll();

    /** Clears every slot pointing to @p home_lid (home eviction). */
    void clearByHomeLID(std::uint32_t remote_set, LineID home_lid);

    /** Entry width in bits: alias bits + home way bits (Table III). */
    unsigned entryBits() const { return alias_bits_ + home_way_bits_; }

    /** Total SRAM bits of the table. */
    std::uint64_t
    storageBits() const
    {
        return std::uint64_t{cfg_.remote_sets} * cfg_.remote_ways
               * (entryBits() + 1); // +1 valid bit
    }

    const Config &config() const { return cfg_; }

    /**
     * Structure introspection probe: exports the table's residency
     * picture into @p out under @p prefix:
     *
     *  - gauges: `<p>slots`, `<p>occupancy` (valid entries — the
     *    home side's count of remote-resident tracked lines);
     *  - lifetime counters: `<p>lookups` / `<p>translate_misses`
     *    (lookupRemoteWay traffic; the miss/lookup quotient is the
     *    WMT translate-miss rate), `<p>sets`, `<p>overwrites`
     *    (set() on an already-valid slot), `<p>clears` (valid slots
     *    invalidated, including clearAll/clearByHomeLID);
     *  - histogram: `<p>set_occupancy` (valid ways per remote set).
     */
    void snapshot(StatSet &out, const std::string &prefix) const;

    /** One remote slot's entry; all-zero bytes is the empty entry. */
    struct Slot
    {
        std::uint32_t norm = 0;
        bool valid = false;
    };

  private:
    /** Serializes/restores slots and counters (core/checkpoint.h). */
    friend class ChannelCheckpoint;

    Slot &at(std::uint32_t set, std::uint8_t way);
    const Slot &at(std::uint32_t set, std::uint8_t way) const;

    Config cfg_;
    unsigned remote_set_bits_;
    unsigned alias_bits_;
    unsigned home_way_bits_;
    ZeroRow<Slot> slots_;

    // Lifetime traffic counters; lookupRemoteWay is logically const
    // but still traffic, hence mutable.
    mutable std::uint64_t lookups_ = 0;
    mutable std::uint64_t translate_misses_ = 0;
    std::uint64_t sets_ = 0;
    std::uint64_t overwrites_ = 0;
    std::uint64_t clears_ = 0;
};

} // namespace cable

#endif // CABLE_CORE_WMT_H
