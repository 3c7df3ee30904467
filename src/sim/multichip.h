/**
 * @file
 * MultiChipSystem: the coherence-link use case (§V-B, Fig 13). A
 * fully-connected NUMA of N chips with memory pages interleaved
 * round-robin across nodes; a node caches remote-homed lines in its
 * own LLC (inclusive, Haswell-EP/MCM-GPU style), and every
 * point-to-point link runs its own compression endpoint pair: the
 * home node's LLC is the channel's home cache, the requester's LLC
 * the remote cache.
 *
 * As in the paper, single-threaded SPEC workloads on node 0 gauge a
 * system with page-interleaved load balancing; what is measured is
 * the traffic on the chip-to-chip links (local memory fills are not
 * coherence traffic). This is a functional (ratio) model; latency
 * curves for coherence compression track the memory-link ones
 * (§VI-D).
 */

#ifndef CABLE_SIM_MULTICHIP_H
#define CABLE_SIM_MULTICHIP_H

#include <memory>
#include <vector>

#include "cache/cache.h"
#include "cache/private_caches.h"
#include "sim/protocol.h"
#include "workload/access_gen.h"
#include "workload/profile.h"
#include "workload/value_model.h"

namespace cable
{

struct MultiChipConfig
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

class MultiChipSystem
{
  public:
    MultiChipSystem(const MultiChipConfig &cfg,
                    const WorkloadProfile &program);

    /** Runs @p ops memory operations of the node-0 thread. */
    void run(std::uint64_t ops);

    /** Home node of an address (round-robin page interleave). */
    unsigned
    nodeOf(Addr addr) const
    {
        return static_cast<unsigned>((addr / cfg_.page_bytes)
                                     % cfg_.nodes);
    }

    /** Bit-level ratio aggregated over all coherence links. */
    double bitRatio() const;
    /** Flit-quantized ratio over all coherence links (16b link). */
    double effectiveRatio(unsigned link_width_bits = 16) const;
    /** Aggregated link stats across channels. */
    StatSet linkStats() const;

    LinkProtocol &channel(unsigned home_node);
    Cache &llc(unsigned node) { return *llcs_[node]; }

  private:
    void access(Addr addr, bool store);
    /** Brings @p addr into the LLC; returns the slot it landed in. */
    LineID fillLlc(Addr addr);
    void backInvalUpper(Addr addr);
    void dirtyToLlc(Addr addr, const CacheLine &data);

    MultiChipConfig cfg_;
    std::vector<std::unique_ptr<Cache>> llcs_;
    /** channels_[k] compresses the link home-node-k → node 0. */
    std::vector<LinkProtocolPtr> channels_; // index 0 unused
    PrivateCaches priv_;
    std::unique_ptr<AccessGen> gen_;
    std::unique_ptr<SyntheticMemory> mem_;
    std::uint64_t op_count_ = 0;
};

/** Merged outcome of a MultiChipBatch run. */
struct MultiChipBatchResult
{
    /** Link stats merged across replicas, in replica order. */
    StatSet link_stats;
    double bit_ratio = 0.0;
    double effective_ratio = 0.0;
    unsigned replicas = 0;
};

/**
 * A batch of independent MultiChipSystem replicas — the worker-pool
 * driver behind `cable_sim coherence --replicas R --jobs N`. Each
 * replica is a complete system with its own caches, channels and
 * RNG streams; replica seeds derive deterministically from the base
 * seed and the replica index alone, so a batch models R independent
 * simulated machines and its merged statistics are bit-identical
 * for every worker count (see common/worker_pool.h for the
 * contract). Replica 0 runs the base config unchanged: a
 * single-replica batch reproduces a plain MultiChipSystem run
 * exactly.
 */
class MultiChipBatch
{
  public:
    MultiChipBatch(const MultiChipConfig &cfg,
                   const WorkloadProfile &program, unsigned replicas);

    /** Config a given replica runs (derived seeds for index > 0). */
    MultiChipConfig replicaConfig(unsigned index) const;

    /** Runs @p ops per replica over @p jobs workers and merges. */
    MultiChipBatchResult run(std::uint64_t ops, unsigned jobs);

    unsigned replicas() const { return replicas_; }

  private:
    MultiChipConfig cfg_;
    WorkloadProfile program_;
    unsigned replicas_;
};

} // namespace cable

#endif // CABLE_SIM_MULTICHIP_H
