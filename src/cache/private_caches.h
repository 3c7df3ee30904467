/**
 * @file
 * PrivateCaches: one core's private L1/L2 pair. L2 is inclusive of
 * L1 and evictions are non-silent: a dirty line leaves the pair only
 * through installL2() (an L2 victim) or drop() (a back-invalidation),
 * and both hand the newest copy (L1 wins over L2) to the caller. That
 * hand-off is the moment private stores become visible to CABLE's
 * remote cache (the S→M upgrade of §II-C), where the Fig 13 "dirty
 * transfers compress worse" effect comes from.
 *
 * The pair invalidates the line in both levels before it returns the
 * dirty copy, so the caller's sink (a link protocol's dirtyUpdate, a
 * local LLC write, a directory sweep) sees a hierarchy that no longer
 * holds it and may recurse into other cores' pairs freely.
 */

#ifndef CABLE_CACHE_PRIVATE_CACHES_H
#define CABLE_CACHE_PRIVATE_CACHES_H

#include <cstdint>
#include <optional>

#include "cache/cache.h"
#include "common/rng.h"

namespace cable
{

/** A dirty line leaving the private levels: its newest data. */
struct DirtyLine
{
    Addr addr = 0;
    CacheLine data;
};

class PrivateCaches
{
  public:
    PrivateCaches(std::uint64_t l1_bytes, unsigned l1_ways,
                  std::uint64_t l2_bytes, unsigned l2_ways);

    /** L1 lookup of line address @p la; a hit is promoted in LRU. */
    bool accessL1(Addr la) { return l1_.access(la).valid; }
    /** L2 lookup of line address @p la: a hit is promoted in LRU and
     *  its data returned; nullptr on a miss. */
    const CacheLine *
    accessL2(Addr la)
    {
        LineID lid = l2_.access(la);
        return lid.valid ? &l2_.lineAt(lid) : nullptr;
    }
    /** True while either level holds @p addr (no LRU update). */
    bool
    holds(Addr addr) const
    {
        return l1_.probe(addr) || l2_.probe(addr);
    }

    /**
     * Stores into the resident L1 line of byte address @p addr and
     * marks it Modified. @p seq is the caller's operation counter;
     * the stored value depends only on (addr, seq).
     */
    void
    store(Addr addr, std::uint64_t seq)
    {
        LineID lid = l1_.find(lineAlign(addr));
        unsigned w = static_cast<unsigned>((addr >> 2)
                                           & (kWordsPerLine - 1));
        // Stored values mirror real programs: mostly small integers
        // and flags, occasionally arbitrary words — which keeps
        // dirty lines compressible but harder than clean ones
        // (the Fig 13 "dirty transfers compress worse" effect).
        std::uint64_t h = splitMix64(addr ^ (seq * 0x9e37ull));
        std::uint32_t v = (h & 1) ? static_cast<std::uint32_t>(
                                        (h >> 8) & 0xff)
                                  : static_cast<std::uint32_t>(h >> 32);
        l1_.lineAt(lid).setWord(w, v);
        l1_.setState(lid, CoherenceState::Modified);
    }

    /**
     * Installs @p data (Shared) for @p la in L2. The victim leaves
     * both levels; returns its newest copy if it was dirty.
     */
    std::optional<DirtyLine> installL2(Addr la, const CacheLine &data);

    /**
     * Installs @p data (Shared) for @p la in L1. A dirty victim is
     * written into its (inclusive) L2 line; returns whether it was.
     */
    bool installL1(Addr la, const CacheLine &data);

    /**
     * Invalidates @p addr in both levels; returns the newest copy if
     * either level held it dirty.
     */
    std::optional<DirtyLine> drop(Addr addr);

  private:
    /** drop() on slots already found: @p l1id / @p l2id may be
     *  invalid when a level does not hold @p addr. */
    std::optional<DirtyLine> take(Addr addr, LineID l1id, LineID l2id);

    Cache l1_;
    Cache l2_;
};

} // namespace cable

#endif // CABLE_CACHE_PRIVATE_CACHES_H
