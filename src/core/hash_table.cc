#include "core/hash_table.h"

#include <bit>
#include <span>
#include <unordered_map>

#include "common/bitops.h"
#include "common/log.h"

namespace cable
{

SignatureHashTable::SignatureHashTable(const Config &cfg)
    : cfg_(cfg),
      hash_(bitsToIndex(std::bit_ceil(cfg.entries ? cfg.entries : 1)),
            cfg.hash_seed)
{
    if (cfg_.bucket_ways == 0)
        fatal("SignatureHashTable: bucket_ways must be >= 1");
    num_buckets_ = std::bit_ceil(cfg.entries ? cfg.entries : 1);
    slots_ = ZeroRow<Slot>(num_buckets_ * cfg_.bucket_ways);
}

void
SignatureHashTable::insert(std::uint32_t sig, LineID lid)
{
    std::span<Slot> bucket(slots_.data() + firstSlot(sig),
                           cfg_.bucket_ways);
    // Refresh an identical mapping.
    for (Slot &s : bucket) {
        if (s.lid == lid && s.lid.valid) {
            s.age = ++age_clock_;
            ++refreshes_;
            return;
        }
    }
    // Free slot, else FIFO-replace the oldest.
    Slot *victim = &bucket[0];
    for (Slot &s : bucket) {
        if (!s.lid.valid) {
            victim = &s;
            break;
        }
        if (s.age < victim->age)
            victim = &s;
    }
    if (victim->lid.valid)
        ++evictions_;
    ++inserts_;
    victim->lid = lid;
    victim->age = ++age_clock_;
}

void
SignatureHashTable::remove(std::uint32_t sig, LineID lid)
{
    std::span<Slot> bucket(slots_.data() + firstSlot(sig),
                           cfg_.bucket_ways);
    bool found = false;
    for (Slot &s : bucket) {
        if (s.lid.valid && s.lid == lid) {
            s.lid = kInvalidLineID;
            s.age = 0;
            ++evictions_;
            found = true;
        }
    }
    if (found)
        ++removes_;
    else
        ++remove_misses_;
}

// cable-lint: no-alloc (push_back into the caller's capacity-
// retaining scratch vector; see CableChannel::SearchScratch)
void
SignatureHashTable::lookup(std::uint32_t sig,
                           std::vector<LineID> &out) const
{
    std::span<const Slot> bucket(slots_.data() + firstSlot(sig),
                                 cfg_.bucket_ways);
    ++lookups_;
    for (const Slot &s : bucket) {
        if (s.lid.valid) {
            out.push_back(s.lid);
            ++lookup_lids_;
        }
    }
}

std::uint64_t
SignatureHashTable::occupancy() const
{
    std::uint64_t n = 0;
    for (const Slot &s : slots_)
        if (s.lid.valid)
            ++n;
    return n;
}

void
SignatureHashTable::snapshot(StatSet &out,
                             const std::string &prefix) const
{
    out.add(prefix + "buckets", num_buckets_);
    out.add(prefix + "ways", cfg_.bucket_ways);
    out.add(prefix + "capacity", slots_.size());
    out.add(prefix + "inserts", inserts_);
    out.add(prefix + "evictions", evictions_);
    out.add(prefix + "refreshes", refreshes_);
    out.add(prefix + "removes", removes_);
    out.add(prefix + "remove_misses", remove_misses_);
    out.add(prefix + "lookups", lookups_);
    out.add(prefix + "lookup_lids", lookup_lids_);

    // One sample per bucket: the histogram's sum is the live-slot
    // count, so `sum == inserts - evictions` is the checkable
    // occupancy invariant.
    Histogram &occ = out.hist(prefix + "bucket_occupancy",
                              Histogram::Scale::Linear, 1,
                              cfg_.bucket_ways + 2);
    // Slots per distinct resident LineID (Fig 21's duplication
    // count): a line inserted under many signatures occupies many
    // slots, inflating occupancy without widening reach.
    // cable-lint: allow(R002) iteration only feeds an order-
    // independent histogram (per-LID duplication counts), so the
    // container's traversal order cannot reach any output
    std::unordered_map<std::uint64_t, std::uint64_t> dup;
    std::uint64_t live = 0;
    for (std::size_t first = 0; first < slots_.size();
         first += cfg_.bucket_ways) {
        std::uint64_t n = 0;
        for (const Slot &s : std::span<const Slot>(
                 slots_.data() + first, cfg_.bucket_ways)) {
            if (!s.lid.valid)
                continue;
            ++n;
            std::uint64_t key =
                (std::uint64_t{s.lid.set} << 8) | s.lid.way;
            ++dup[key];
        }
        occ.record(n);
        live += n;
    }
    out.add(prefix + "occupancy", live);
    out.add(prefix + "distinct_lids", dup.size());
    Histogram &d = out.hist(prefix + "lid_duplication",
                            Histogram::Scale::Linear, 1, 34);
    for (const auto &[key, n] : dup)
        d.record(n);
}

void
SignatureHashTable::clear()
{
    // A flush evicts every live slot; keeping the counters monotonic
    // preserves `occupancy == inserts - evictions` across
    // desync-recovery flushes.
    evictions_ += occupancy();
    slots_.zero();
    age_clock_ = 0;
}

} // namespace cable
