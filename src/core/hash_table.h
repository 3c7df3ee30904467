/**
 * @file
 * The signature hash table (§III-B): a standard SRAM key-value
 * structure mapping hash(signature) → LineIDs of cache lines that
 * contained that signature when they became shared. Buckets hold two
 * LineIDs by default with FIFO replacement. The table is inherently
 * inexact — collisions yield false-positive candidates that the CBV
 * ranking step later filters by actual data comparison (Fig 7).
 *
 * Sizing (§IV-D): "full-sized" means one entry per cache line of the
 * owning cache; smaller tables degrade gracefully (Fig 21), larger
 * ones reduce collisions.
 */

#ifndef CABLE_CORE_HASH_TABLE_H
#define CABLE_CORE_HASH_TABLE_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/stats.h"
#include "common/types.h"
#include "common/zero_row.h"
#include "core/signature.h"

namespace cable
{

class SignatureHashTable
{
  public:
    struct Config
    {
        /** Number of buckets (rounded up to a power of two). */
        std::uint64_t entries = 1 << 14;
        /** LineIDs per bucket. */
        unsigned bucket_ways = 2;
        /** H3 seed (distinct per table instance in a system). */
        std::uint64_t hash_seed = 0xcab1e;
    };

    explicit SignatureHashTable(const Config &cfg);

    /**
     * Inserts sig → lid. An existing identical mapping is refreshed;
     * otherwise the oldest slot of the bucket is replaced (FIFO).
     */
    void insert(std::uint32_t sig, LineID lid);

    /** Removes the mapping sig → lid if present. */
    void remove(std::uint32_t sig, LineID lid);

    /** Appends all LineIDs in sig's bucket to @p out. */
    void lookup(std::uint32_t sig, std::vector<LineID> &out) const;

    /** Buckets in the table. */
    std::uint64_t numEntries() const { return num_buckets_; }
    unsigned bucketWays() const { return cfg_.bucket_ways; }

    /** Occupied slots, for occupancy stats. */
    std::uint64_t occupancy() const;

    /**
     * Structure introspection probe (Fig 21 material): exports the
     * table's current shape and lifetime traffic into @p out under
     * @p prefix:
     *
     *  - gauges: `<p>buckets`, `<p>ways`, `<p>capacity`,
     *    `<p>occupancy` (live slots right now);
     *  - lifetime counters: `<p>inserts`, `<p>evictions` (any live
     *    slot invalidated or replaced — FIFO replacement, remove(),
     *    clear()), `<p>refreshes`, `<p>removes`, `<p>remove_misses`,
     *    `<p>lookups`, `<p>lookup_lids` (candidates returned);
     *  - histograms: `<p>bucket_occupancy` (valid slots per bucket,
     *    one sample per bucket, so its sum is the live-slot count
     *    and always equals inserts − evictions) and
     *    `<p>lid_duplication` (slots per distinct resident LineID —
     *    the duplication count of Fig 21).
     */
    void snapshot(StatSet &out, const std::string &prefix) const;

    void clear();

    /** One bucket slot; all-zero bytes is the empty slot. */
    struct Slot
    {
        LineID lid;
        std::uint64_t age = 0;
    };

  private:
    /** Serializes/restores buckets, clocks and counters
     *  (core/checkpoint.h). */
    friend class ChannelCheckpoint;

    /** Index in slots_ of the first slot of sig's bucket. */
    std::size_t
    firstSlot(std::uint32_t sig) const
    {
        return (hash_(sig) & (num_buckets_ - 1)) * cfg_.bucket_ways;
    }

    Config cfg_;
    H3Hash hash_;
    std::uint64_t age_clock_ = 0;
    std::uint64_t num_buckets_;
    // Every bucket's slots, bucket-major: bucket b is
    // slots_[b * bucket_ways, (b + 1) * bucket_ways).
    ZeroRow<Slot> slots_;

    // Lifetime traffic counters (monotonic; clear() converts every
    // live slot into an eviction so occupancy == inserts − evictions
    // holds across desync-recovery flushes). lookup() is const on
    // the table's contents but still traffic, hence mutable.
    std::uint64_t inserts_ = 0;
    std::uint64_t evictions_ = 0;
    std::uint64_t refreshes_ = 0;
    std::uint64_t removes_ = 0;
    std::uint64_t remove_misses_ = 0;
    mutable std::uint64_t lookups_ = 0;
    mutable std::uint64_t lookup_lids_ = 0;
};

} // namespace cable

#endif // CABLE_CORE_HASH_TABLE_H
