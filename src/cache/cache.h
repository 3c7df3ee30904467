/**
 * @file
 * Set-associative cache model with LRU replacement, MESI-like line
 * states and data storage. Used functionally by the compression
 * studies and as the storage component of the timing simulator.
 *
 * Two properties CABLE relies on are modelled faithfully:
 *
 *  - victimWay() exposes the replacement way *before* an install, so
 *    requests can carry way-replacement info the way the UltraSPARC
 *    T1/T2 do (§II-C); and
 *  - the victim slot can be read (addrAt/lineAt/dirtyAt) before
 *    install() overwrites it (non-silent eviction), so the home
 *    cache can keep its hash table and WMT synchronized.
 *
 * Lines are addressed by LineID (set + way) for CABLE's data-array
 * reads, which need no tag check (§III-C). As in that hardware, tags
 * live apart from data: the slots are three set-major rows, a key row
 * (tag and state in one word), a stamp row and a line row, so a
 * lookup reads only the key row. The rows are ZeroRows: an all-zero
 * slot is Invalid, so a cache costs memory only for the sets a run
 * touches (DESIGN.md §3).
 */

#ifndef CABLE_CACHE_CACHE_H
#define CABLE_CACHE_CACHE_H

#include <cstddef>
#include <cstdint>
#include <string>

#include "common/line.h"
#include "common/types.h"
#include "common/zero_row.h"

namespace cable
{

/** Coherence state of a cached line (MESI minus E for simplicity). */
enum class CoherenceState : std::uint8_t
{
    Invalid,
    Shared,   ///< clean, possibly replicated; usable as reference
    Modified, ///< dirty; never used as reference data (§II-A)
};

/** A line leaving a cache on its way to memory, if any. */
struct Eviction
{
    bool valid = false;
    Addr addr = 0;
    CacheLine data;
    bool dirty = false;
    LineID lid;
};

/** Replacement policy for victim selection. */
enum class ReplacementPolicy : std::uint8_t
{
    LRU,    ///< least recently used (default, Table IV)
    FIFO,   ///< oldest install
    Random, ///< seeded pseudo-random way
};

class Cache
{
  public:
    struct Config
    {
        std::string name = "cache";
        std::uint64_t size_bytes = 1 << 20;
        unsigned ways = 8;
        /** CABLE is decoupled from replacement policy (§II-C):
         *  it tracks evictions precisely whatever is chosen. */
        ReplacementPolicy policy = ReplacementPolicy::LRU;
    };

    explicit Cache(const Config &cfg);

    // --- geometry ---------------------------------------------------
    unsigned numSets() const { return num_sets_; }
    unsigned numWays() const { return cfg_.ways; }
    std::uint64_t sizeBytes() const { return cfg_.size_bytes; }
    std::uint64_t numLines() const
    {
        return std::uint64_t{num_sets_} * cfg_.ways;
    }
    unsigned setIndexBits() const { return set_bits_; }

    /** Set index of an address. */
    std::uint32_t
    setOf(Addr addr) const
    {
        return static_cast<std::uint32_t>(lineNumber(addr)
                                          & (num_sets_ - 1));
    }

    // --- lookup -----------------------------------------------------
    /** Hit check without touching LRU state. */
    bool probe(Addr addr) const;

    /** Hit check that promotes the line in LRU order. */
    bool access(Addr addr);

    /** LineID of addr if resident, else invalid. Does not touch LRU. */
    LineID find(Addr addr) const;

    // --- slots by LineID (data-array reads; no tag check) -----------
    /** Data of slot @p lid, valid or not. */
    const CacheLine &
    lineAt(LineID lid) const
    {
        return lines_[index(lid)].line;
    }
    CacheLine &
    lineAt(LineID lid)
    {
        return lines_[index(lid)].line;
    }

    /** State of slot @p lid. */
    CoherenceState
    stateAt(LineID lid) const
    {
        return static_cast<CoherenceState>(keys_[index(lid)]
                                           & kStateMask);
    }
    bool
    validAt(LineID lid) const
    {
        return keys_[index(lid)] != kInvalidKey;
    }
    bool
    dirtyAt(LineID lid) const
    {
        return stateAt(lid) == CoherenceState::Modified;
    }

    /** Address of the line in valid slot @p lid. */
    Addr addrAt(LineID lid) const;

    /**
     * Sets the state of slot @p lid. Invalid drops the line; a valid
     * state needs a valid slot, since an invalid one keeps no tag.
     */
    void setState(LineID lid, CoherenceState s);

    // --- modification -----------------------------------------------
    /**
     * The way an install of @p addr would use: an invalid way if one
     * exists (lowest first), else the LRU way. This is the
     * "replacement-way info" carried on requests.
     */
    std::uint8_t victimWay(Addr addr) const;

    /**
     * Installs @p data for @p addr in @p way of its set, overwriting
     * whatever the slot held; a caller that needs the displaced line
     * reads the slot first. Also promotes the line in LRU order.
     */
    void install(Addr addr, const CacheLine &data, CoherenceState state,
                 std::uint8_t way);

    /** install() into victimWay(). */
    void
    install(Addr addr, const CacheLine &data, CoherenceState state)
    {
        install(addr, data, state, victimWay(addr));
    }

    /** Overwrites the data of a resident line; optionally dirties. */
    void writeLine(Addr addr, const CacheLine &data, bool mark_dirty);

    /** Marks a resident line dirty (upgrade). */
    void markDirty(Addr addr);

    /** Drops a line (snoop/back-invalidation). Returns its LID. */
    LineID invalidate(Addr addr);

    /** Invalidates everything. */
    void clear();

    const Config &config() const { return cfg_; }

    /** One element of the line row: each line on its own host line. */
    struct alignas(64) AlignedLine
    {
        CacheLine line;
    };

  private:
    /** Key-row word: (~line number << 2) | state. The zero word is
     *  Invalid (state 0) and names line number 2^62 - 1, which
     *  exceeds any real one, so a lookup needs no validity test. */
    static constexpr std::uint64_t kInvalidKey = 0;
    static constexpr std::uint64_t kStateMask = 3;

    static std::uint64_t
    keyOf(Addr addr, CoherenceState s)
    {
        return (~lineNumber(addr) << 2) | static_cast<std::uint64_t>(s);
    }
    /** Line number a key word names (2^62 - 1 for kInvalidKey). */
    static std::uint64_t lineOfKey(std::uint64_t key) { return ~key >> 2; }

    std::size_t
    index(LineID lid) const
    {
        if (!lid.valid)
            invalidLineID();
        return std::size_t{lid.set} * cfg_.ways + lid.way;
    }
    [[noreturn]] void invalidLineID() const;

    /** A use of slot @p i: advances the clock under every policy;
     *  only LRU restamps (FIFO keeps the install stamp). */
    void
    promote(std::size_t i)
    {
        ++lru_clock_;
        if (cfg_.policy == ReplacementPolicy::LRU)
            stamps_[i] = lru_clock_;
    }

    Config cfg_;
    unsigned num_sets_;
    unsigned set_bits_;
    std::uint64_t lru_clock_ = 0;
    mutable std::uint64_t rand_state_ = 0x9e3779b97f4a7c15ull;
    // Three set-major rows, slot i = set * ways + way in each.
    ZeroRow<std::uint64_t> keys_;   ///< tag + state; kInvalidKey
    ZeroRow<std::uint64_t> stamps_; ///< LRU recency / FIFO install
    ZeroRow<AlignedLine> lines_;    ///< data, 64-B aligned
};

} // namespace cable

#endif // CABLE_CACHE_CACHE_H
