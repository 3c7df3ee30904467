/**
 * @file
 * NumaSystem: the general multi-threaded extension of the §V-B
 * multi-chip use case. One thread runs on every chip; all threads
 * share one address space whose pages are interleaved round-robin
 * across the nodes' memories, so lines are actively shared between
 * chips and every ordered (home, requester) node pair carries its
 * own compression endpoint — N×(N−1) directed channels, matching the
 * paper's one-WMT-per-link-pair organization (§IV-D).
 *
 * A full-map directory at each home tracks sharers and the dirty
 * owner. The system keeps the paper's pairwise invariant — a
 * WMT-tracked remote copy always equals the home copy — by
 * invalidating other sharers *before* dirty data becomes visible at
 * the owning LLC, and by sweeping every channel of a home node when
 * its LLC evicts a line. CABLE's built-in round-trip verification
 * then checks the whole protocol on every transfer.
 */

#ifndef CABLE_SIM_NUMA_H
#define CABLE_SIM_NUMA_H

#include <memory>
#include <unordered_map>
#include <vector>

#include "cache/cache.h"
#include "cache/private_caches.h"
#include "sim/protocol.h"
#include "workload/access_gen.h"
#include "workload/profile.h"
#include "workload/value_model.h"

namespace cable
{

struct NumaConfig
{
    unsigned nodes = 4;
    std::string scheme = "cable";
    CableConfig cable;

    std::uint64_t l1_bytes = 32 * 1024;
    unsigned l1_ways = 4;
    std::uint64_t l2_bytes = 128 * 1024;
    unsigned l2_ways = 8;
    std::uint64_t llc_bytes = 1ull << 20;
    unsigned llc_ways = 8;

    std::uint64_t page_bytes = 4096;
    std::uint64_t seed = 1;
};

class NumaSystem
{
  public:
    /**
     * @param cfg topology/scheme configuration
     * @param program the workload every thread runs (same address
     *        space, per-thread access seeds — threads desynchronize
     *        but share data)
     */
    NumaSystem(const NumaConfig &cfg, const WorkloadProfile &program);

    /** Runs @p ops memory operations per thread (round-robin). */
    void run(std::uint64_t ops);

    unsigned
    nodeOf(Addr addr) const
    {
        return static_cast<unsigned>((addr / cfg_.page_bytes)
                                     % cfg_.nodes);
    }

    /** Aggregated coherence-link stats over all directed channels. */
    StatSet linkStats() const;
    double bitRatio() const;
    double effectiveRatio() const;

    /** Directed channel home → requester (home != requester). */
    LinkProtocol &channel(unsigned home, unsigned requester);
    Cache &llc(unsigned node) { return *llcs_[node]; }

    /** Lines currently recorded with 2+ sharing nodes. */
    std::uint64_t activelySharedLines() const;
    /** Cross-node invalidations performed. */
    std::uint64_t invalidations() const { return invalidations_; }

  private:
    struct DirEntry
    {
        std::uint32_t sharers = 0; ///< bitmask of caching nodes
        int owner = -1;            ///< dirty owner node, -1 if clean
    };

    struct Thread
    {
        unsigned node;
        PrivateCaches priv;
        AccessGen gen;
        std::uint64_t ops = 0;

        Thread(unsigned node_, const NumaConfig &cfg,
               const AccessProfile &prof, Addr base, std::uint64_t seed)
            : node(node_),
              priv(cfg.l1_bytes, cfg.l1_ways, cfg.l2_bytes, cfg.l2_ways),
              gen(prof, base, seed)
        {
        }
    };

    void step(Thread &t);
    void access(Thread &t, Addr addr, bool store);
    void fillLlc(Thread &t, Addr addr);
    void backInvalUpper(unsigned node, Addr addr);
    /** Dirty data from node's private levels reaches its LLC. */
    void dirtyToLlc(unsigned node, Addr addr, const CacheLine &data);
    /** Vacates a slot of node's LLC, routing by the line's home. */
    void evictLlcSlot(unsigned node, LineID lid);
    /** Makes room in home node's LLC before a homeFill. */
    void preCleanHomeVictim(unsigned home, Addr addr);

    DirEntry &dir(Addr addr) { return directory_[lineAlign(addr)]; }

    NumaConfig cfg_;
    std::vector<std::unique_ptr<Cache>> llcs_;
    /** channels_[home * nodes + requester]; null on the diagonal. */
    std::vector<LinkProtocolPtr> channels_;
    std::vector<std::unique_ptr<Thread>> threads_;
    std::unique_ptr<SyntheticMemory> mem_;
    // cable-lint: allow(R002) keyed lookups plus one order-
    // independent reduction (activelySharedLines counts sharers>=2);
    // traversal order never reaches simulator output
    std::unordered_map<Addr, DirEntry> directory_;
    std::uint64_t invalidations_ = 0;
    std::uint64_t op_clock_ = 0;
};

} // namespace cable

#endif // CABLE_SIM_NUMA_H
