/**
 * @file
 * MemLinkSystem: the single-chip, memory-link simulator (§V-A,
 * Table IV). N threads with private L1/L2 run over a shared
 * inclusive LLC; the LLC talks to an off-chip L4/DRAM-buffer cache
 * over the compressed 16-bit link; the L4 misses to DDR3 DRAM.
 *
 * The modelling level follows PriME: caches are simulated
 * functionally with real data contents; timing is per-thread cycle
 * accounting with busy-until FCFS queueing on the link and DRAM
 * channels; threads advance in global time order, so bandwidth
 * contention is captured. A functional mode skips timing for
 * compression-ratio-only studies.
 *
 * Stores dirty the L1 and propagate down on evictions, so the LLC
 * (CABLE's remote cache) sees S→M upgrades exactly when dirty data
 * actually reaches it — the non-silent model of §II-C.
 */

#ifndef CABLE_SIM_MEMLINK_H
#define CABLE_SIM_MEMLINK_H

#include <memory>
#include <vector>

#include "cache/cache.h"
#include "cache/private_caches.h"
#include "common/stats.h"
#include "sim/dram.h"
#include "sim/energy.h"
#include "sim/fault.h"
#include "sim/link.h"
#include "core/pipeline.h"
#include "sim/protocol.h"
#include "workload/access_gen.h"
#include "workload/profile.h"
#include "workload/value_model.h"

namespace cable
{

/** Address-space placement: one program per 2^40-byte region. */
constexpr unsigned kThreadBaseShift = 40;

struct MemSystemConfig
{
    std::string scheme = "cable";
    CableConfig cable;

    std::uint64_t l1_bytes = 32 * 1024;
    unsigned l1_ways = 4;
    Cycles l1_lat = 1;
    std::uint64_t l2_bytes = 128 * 1024;
    unsigned l2_ways = 8;
    Cycles l2_lat = 4;
    /** LLC share per thread (shared inclusive within the chip). */
    std::uint64_t llc_bytes_per_thread = 1ull << 20;
    unsigned llc_ways = 8;
    Cycles llc_lat = 30;
    /** L4 (off-chip DRAM buffer) share per thread. */
    std::uint64_t l4_bytes_per_thread = 4ull << 20;
    unsigned l4_ways = 16;
    Cycles l4_lat = 30;
    /** LLC replacement policy (§II-C: CABLE is decoupled from it). */
    ReplacementPolicy llc_policy = ReplacementPolicy::LRU;

    LinkModel::Config link;
    DramModel::Config dram;

    /** Cycle-accounting timing model on/off. */
    bool timing = true;
    /** Track per-wire toggles (slower; §VI-D study only). */
    bool count_toggles = false;

    /**
     * Use the per-transfer §IV-D pipeline latency model instead of
     * Table IV's conservative worst case (CABLE only): requests
     * with few non-trivial signatures finish the search early.
     */
    bool modeled_latency = false;

    /** §VI-D sampling on/off compression control. */
    bool onoff_control = false;
    Cycles onoff_period = 2000000; // 1ms at 2GHz
    double onoff_low = 0.80;
    double onoff_high = 0.90;

    /** Same value seed for every thread (SPECrate-style copies). */
    bool shared_value_seed = false;

    /**
     * Link-fault injection (CABLE scheme only). Any non-zero rate
     * attaches a FaultInjector to the channel and engages the CRC /
     * retransmit / desync-recovery machinery.
     */
    FaultConfig fault;
    /** Core cycles between periodic §III-F invariant audits. */
    Cycles fault_audit_period = 500000;

    /**
     * Next-N-line LLC prefetcher (0 = off). Prefetches issue off the
     * critical path but consume link bandwidth — the knob for the
     * compression × prefetching interaction study (the paper's
     * ref [17]): compression frees the bandwidth prefetching wants.
     */
    unsigned prefetch_degree = 0;

    std::uint64_t seed = 1;
};

class MemLinkSystem
{
  public:
    /**
     * @param cfg system configuration
     * @param programs one workload per thread
     * @param shared_link external link (bandwidth shared across
     *        systems, e.g. the Fig 14 groups of 8); nullptr = own
     */
    MemLinkSystem(const MemSystemConfig &cfg,
                  const std::vector<WorkloadProfile> &programs,
                  LinkModel *shared_link = nullptr);

    /** Runs until every thread has executed @p ops memory ops. */
    void run(std::uint64_t ops);

    /**
     * Marks the start of the measured window: IPC and op-count
     * queries become relative to this point. Use after a cache
     * warm-up phase so compulsory misses don't dominate short runs.
     */
    void beginMeasurement();

    /** Advances the earliest thread by one memory op. */
    void stepOnce();

    /** Earliest pending thread time (scheduling across systems). */
    Cycles nextEventTime() const;

    /** True once every thread has executed @p ops memory ops. */
    bool allThreadsReached(std::uint64_t ops) const;

    // --- results -----------------------------------------------------
    /** Bit-level compression ratio over the link. */
    double bitRatio() { return protocol_->bitRatio(); }
    /**
     * Goodput ratio: raw payload bits over *all* wire bits,
     * including CRC framing and every retransmission — what the
     * link actually bought after paying for integrity and recovery.
     */
    double goodputRatio();
    /** Flit-quantized ("effective") compression ratio. */
    double effectiveRatio() const;
    /** Per-thread instructions / cycles, summed (throughput). */
    double aggregateIPC() const;
    /** Instructions retired by thread @p t. */
    std::uint64_t instructions(unsigned t) const;
    /** Per-program link compression (Fig 15/16 attribution). */
    double threadBitRatio(unsigned t) const;
    /** Local clock of thread @p t. */
    Cycles threadTime(unsigned t) const { return threads_[t]->time; }
    Cycles maxTime() const;

    /**
     * Attaches a structured trace sink (nullptr detaches): the link
     * protocol emits per-transfer Encode/control events and the
     * fault injector (when configured) emits Fault events.
     */
    void setTraceSink(TraceSink *sink);

    /** Critical-path span sampling on the link protocol (1-in-
     *  @p period transfers; 0 disables) — see DESIGN.md §13. */
    void setSpanSampling(std::uint64_t period);

    LinkProtocol &protocol() { return *protocol_; }
    LinkModel &link() { return *link_; }
    /** The fault injector, when fault injection is configured. */
    FaultInjector *faultInjector() { return fault_injector_.get(); }
    DramModel &dram() { return dram_; }
    EnergyModel &energy() { return energy_; }
    Cache &llc() { return llc_; }
    Cache &l4() { return l4_; }
    unsigned numThreads() const
    {
        return static_cast<unsigned>(threads_.size());
    }

    /** Finalizes derived energy counters (search reads etc.). */
    void finishEnergyAccounting();

  private:
    struct Thread
    {
        unsigned id;
        PrivateCaches priv;
        AccessGen gen;
        SyntheticMemory mem;
        Cycles time = 0;
        std::uint64_t instrs = 0;
        std::uint64_t ops = 0;
        // measurement-window offsets (beginMeasurement)
        Cycles time0 = 0;
        std::uint64_t instrs0 = 0;
        std::uint64_t ops0 = 0;
        // link bits attributed to this program's addresses
        std::uint64_t link_raw_bits = 0;
        std::uint64_t link_wire_bits = 0;

        Thread(unsigned id_, const MemSystemConfig &cfg,
               const WorkloadProfile &prof, Addr base,
               std::uint64_t seed, std::uint64_t vseed)
            : id(id_),
              priv(cfg.l1_bytes, cfg.l1_ways, cfg.l2_bytes, cfg.l2_ways),
              gen(prof.access, base, seed), mem(prof.value, base, vseed)
        {
        }
    };

    void step(Thread &t);
    Cycles access(Thread &t, Addr addr, bool store);
    Cycles offChipFill(Thread &t, Addr addr, Cycles now);
    void prefetch(Thread &t, Addr miss_addr, Cycles now);
    /** Back-invalidates addr from every thread's L1/L2, then pushes
     *  each dirty copy to the LLC (dirtyUpdate). */
    void backInvalUpper(Addr addr);
    SyntheticMemory &memoryOf(Addr addr);
    void accountLinkTransfer(const Transfer &t, bool critical,
                             Cycles now, Cycles &extra_lat);
    void attributeTransfer(Addr addr, const Transfer &t);
    void pollOnOff();
    void pollFaultAudit();
    /** ARQ backoff is metered in link clocks; timing runs in core. */
    Cycles linkCyclesToCore(Cycles link_cycles) const;

    MemSystemConfig cfg_;
    Cache llc_;
    Cache l4_;
    std::unique_ptr<LinkModel> own_link_;
    LinkModel *link_;
    DramModel dram_;
    EnergyModel energy_;
    LinkProtocolPtr protocol_;
    std::vector<std::unique_ptr<Thread>> threads_;
    SchemeLatency lat_;
    std::unique_ptr<FaultInjector> fault_injector_;
    CableChannel *fault_channel_ = nullptr;
    Cycles next_fault_audit_;
    Cycles next_onoff_sample_;
    std::uint64_t flits_at_sample_ = 0;
    std::uint64_t search_reads_accounted_ = 0;
    bool compression_on_ = true;
};

} // namespace cable

#endif // CABLE_SIM_MEMLINK_H
