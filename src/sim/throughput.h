/**
 * @file
 * ThroughputSim: the Fig 14 methodology. A system with T total
 * threads over quad-channel memory (76.8GB/s) is evaluated by
 * simulating one *group* of eight threads that competitively share
 * a link carrying the group's bandwidth share (§VI-A: "we split the
 * threads into groups of eight and allow them to share bandwidth
 * competitively within a group"). Each thread keeps its private
 * 1MB LLC slice and 4MB L4 slice with its own compression endpoint
 * (footnote 7: replicated workloads, no cross-program compression);
 * only the wire is shared.
 *
 * So the systems' functional halves are independent: the group runs
 * them ahead on worker threads, a batch per system, and replays the
 * tapes in global time order on the calling thread, where the shared
 * link's queueing happens (MemLinkSystem::recordAhead). The result
 * is the same for every worker count.
 */

#ifndef CABLE_SIM_THROUGHPUT_H
#define CABLE_SIM_THROUGHPUT_H

#include <memory>
#include <vector>

#include "sim/memlink.h"

namespace cable
{

class WorkerPool;

class ThroughputSim
{
  public:
    /**
     * @param base per-thread system template (scheme, geometry)
     * @param program workload replicated across the group
     * @param total_threads system-wide thread count (>= group)
     * @param group_size threads sharing one wire (8 in the paper)
     * @param total_gbytes_per_s chip memory bandwidth (quad channel)
     */
    ThroughputSim(const MemSystemConfig &base,
                  const WorkloadProfile &program,
                  unsigned total_threads, unsigned group_size = 8,
                  double total_gbytes_per_s = 76.8);

    /**
     * Runs every thread for @p warmup_ops unmeasured memory
     * operations (cache fill) and then @p ops measured ones, with up
     * to @p jobs worker threads (at most one per system) recording
     * ahead.
     */
    void run(std::uint64_t ops, std::uint64_t warmup_ops = 0,
             unsigned jobs = 1);

    /** Sum of per-thread IPC within the simulated group. */
    double aggregateIPC() const;

    /** Group's share of the chip bandwidth, in GB/s. */
    double groupBandwidthGBs() const { return group_gbs_; }

    LinkModel &link() { return *link_; }
    MemLinkSystem &system(unsigned i) { return *systems_[i]; }
    unsigned groupSize() const
    {
        return static_cast<unsigned>(systems_.size());
    }

  private:
    void runUntil(std::uint64_t ops, WorkerPool &pool);
    /** Tops up every system's tape, toward @p ops. */
    void recordAhead(std::uint64_t ops, WorkerPool &pool);

    double group_gbs_;
    std::unique_ptr<LinkModel> link_;
    std::vector<std::unique_ptr<MemLinkSystem>> systems_;
};

} // namespace cable

#endif // CABLE_SIM_THROUGHPUT_H
