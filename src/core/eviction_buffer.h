/**
 * @file
 * Eviction buffer (§IV-A): a small remote-side structure holding
 * copies of evicted lines until the home cache acknowledges that it
 * has stopped using them as references. Each eviction gets a
 * sequence number (EvictSeq) that piggybacks on the next request;
 * the home cache echoes the last EvictSeq it has observed, at which
 * point all entries at or below that number can be retired.
 *
 * This closes the select-while-evicting race even over out-of-order
 * transports: a compressed response arriving after the reference was
 * evicted can still read the reference data out of the buffer.
 *
 * The entries live in a ring sized at construction, so pushes and
 * retirements never allocate.
 */

#ifndef CABLE_CORE_EVICTION_BUFFER_H
#define CABLE_CORE_EVICTION_BUFFER_H

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/line.h"
#include "common/stats.h"
#include "common/types.h"

namespace cable
{

class EvictionBuffer
{
  public:
    /** Holds up to @p capacity entries (at least one). */
    explicit EvictionBuffer(std::size_t capacity = 8)
        : ring_(capacity ? capacity : 1)
    {
    }

    /**
     * Records an eviction from remote slot @p lid and returns its
     * EvictSeq. If the buffer is full the oldest entry is dropped
     * (safe only once acknowledged; callers should size the buffer
     * to the link's round-trip outstanding count).
     */
    // cable-lint: allow(R004) the seq is advisory — it piggybacks on
    // the next request; acknowledge() consumes lastSeq() instead
    std::uint64_t
    push(LineID lid, const CacheLine &data)
    {
        if (size_ == ring_.size()) {
            popOldest();
            ++overflow_drops_;
        }
        std::uint64_t seq = ++seq_clock_;
        ++size_;
        at(size_ - 1) = Entry{seq, lid, data};
        ++pushes_;
        return seq;
    }

    /** Most recent EvictSeq (0 if none ever pushed). */
    std::uint64_t lastSeq() const { return seq_clock_; }

    /** Retires every entry with seq <= @p acked_seq. */
    void
    acknowledge(std::uint64_t acked_seq)
    {
        while (size_ && at(0).seq <= acked_seq) {
            popOldest();
            ++retired_;
        }
    }

    /**
     * Looks up the data of a recently evicted remote slot; used when
     * a compressed response references a line that has since left
     * the cache.
     */
    std::optional<CacheLine>
    find(LineID lid) const
    {
        ++finds_;
        // Newest first: a slot may have been evicted twice.
        for (std::size_t i = size_; i-- > 0;) {
            if (at(i).lid == lid) {
                ++find_hits_;
                return at(i).data;
            }
        }
        return std::nullopt;
    }

    std::size_t size() const { return size_; }
    std::size_t capacity() const { return ring_.size(); }

    /**
     * Drops every entry without retiring it (endpoint crash: the
     * buffered copies are gone). The sequence clock keeps counting
     * so post-crash EvictSeqs stay monotone.
     */
    void clearAll() { size_ = 0; }

    /**
     * Structure introspection probe: current fill plus lifetime
     * traffic — pushes, retirements, capacity-overflow drops (a
     * non-zero value means the buffer is undersized for the link's
     * outstanding count) and race-closure lookups.
     */
    void
    snapshot(StatSet &out, const std::string &prefix) const
    {
        out.add(prefix + "capacity", ring_.size());
        out.add(prefix + "size", size_);
        out.add(prefix + "last_seq", seq_clock_);
        out.add(prefix + "pushes", pushes_);
        out.add(prefix + "retired", retired_);
        out.add(prefix + "overflow_drops", overflow_drops_);
        out.add(prefix + "finds", finds_);
        out.add(prefix + "find_hits", find_hits_);
    }

  private:
    /** Serializes/restores entries, the sequence clock and counters
     *  (core/checkpoint.h). */
    friend class ChannelCheckpoint;

    struct Entry
    {
        std::uint64_t seq;
        LineID lid;
        CacheLine data;
    };

    /** The @p i-th oldest entry. */
    Entry &at(std::size_t i) { return ring_[(head_ + i) % ring_.size()]; }
    const Entry &
    at(std::size_t i) const
    {
        return ring_[(head_ + i) % ring_.size()];
    }
    void
    popOldest()
    {
        head_ = (head_ + 1) % ring_.size();
        --size_;
    }

    std::uint64_t seq_clock_ = 0;
    /** Entries at(0) (oldest) .. at(size_ - 1) (newest). */
    std::vector<Entry> ring_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;

    // Lifetime traffic counters; find() is logically const but still
    // traffic, hence mutable.
    std::uint64_t pushes_ = 0;
    std::uint64_t retired_ = 0;
    std::uint64_t overflow_drops_ = 0;
    mutable std::uint64_t finds_ = 0;
    mutable std::uint64_t find_hits_ = 0;
};

} // namespace cable

#endif // CABLE_CORE_EVICTION_BUFFER_H
