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
 * Each op runs in two halves (ZSim's bound-weave split). The
 * functional half (record) walks the caches, runs the protocol
 * transfers and memory write-backs, counts energy, and writes the
 * op's timing inputs to the thread's tape. The timing half (replay)
 * reads the tape back: link and DRAM queueing, the fill latency
 * arithmetic, the thread's clock, then the time-driven on/off and
 * fault-audit polls. stepOnce() records one op and replays it. A
 * single-thread system whose functional state depends only on its
 * own op stream may also record a batch ahead (recordAhead), which
 * is how ThroughputSim runs a group's systems on worker threads.
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

    /** Advances the earliest thread by one memory op: replays its
     *  next recorded op, recording one first if its tape is empty. */
    void stepOnce();

    /** Ops one recordAhead() call records at most. */
    static constexpr std::size_t kTapeOps = 256;

    /** Recorded ops not yet replayed (one-thread systems). */
    std::size_t pendingOps() const { return threads_[0]->tape.pending(); }

    /**
     * Ops recordAhead(@p ops) would record now. Always 0 unless the
     * functional half may run ahead of the timing half: one thread,
     * and no fault injection, on/off control or toggle counting
     * (each reads time or the shared link from the functional half).
     * Other systems record each op in stepOnce().
     */
    std::uint64_t recordable(std::uint64_t ops) const;

    /**
     * Runs the functional half ahead: records recordable(@p ops)
     * ops, never past @p ops since beginMeasurement(). Touches only
     * this system's state, never the shared link, so systems may
     * record concurrently; replaying is serial.
     */
    void recordAhead(std::uint64_t ops);

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
    /** One op's timing inputs, written by the functional half. */
    struct OpRecord
    {
        Cycles hit_lat = 0;    ///< L1/L2/LLC lookup latency, no fill
        std::uint32_t gap = 0; ///< non-memory instructions before it
        std::uint32_t fills = 0; ///< demand fill first, then prefetches
    };

    /** One off-chip fill's link and DRAM work (fill()). */
    struct FillRecord
    {
        /** Which of the optional fields below are present. */
        enum : std::uint8_t
        {
            kVictimWb = 1,    ///< LLC victim write-back on the link
            kDramRead = 2,    ///< L4 miss
            kBackinvalWb = 4, ///< L4 victim's back-invalidation
            kDramWrite = 8,   ///< memory write-back
        };

        Addr dram_read = 0;
        Addr dram_write = 0;
        Cycles retry_cycles = 0; ///< response ARQ backoff, link clocks
        std::uint32_t victim_bits = 0; ///< wire bits of each transfer
        std::uint32_t backinval_bits = 0;
        std::uint32_t resp_bits = 0;
        std::uint32_t comp_lat = 0;
        std::uint32_t decomp_lat = 0;
        std::uint8_t has = 0;
    };

    /**
     * A thread's recorded ops awaiting replay, oldest first. Both
     * rows are reserved at construction and never grow: a thread
     * records only while pending() is below its capacity, and each
     * op has at most 1 + prefetch_degree fills.
     */
    struct Tape
    {
        std::vector<OpRecord> ops;
        std::vector<FillRecord> fills;
        std::size_t op_head = 0;   ///< next op to replay
        std::size_t fill_head = 0; ///< its first fill

        Tape(std::size_t max_ops, unsigned prefetch_degree)
        {
            ops.reserve(max_ops);
            fills.reserve(max_ops * (1 + std::size_t{prefetch_degree}));
        }
        std::size_t pending() const { return ops.size() - op_head; }
        /** Drops the replayed records from the front. */
        void
        compact()
        {
            ops.erase(ops.begin(), ops.begin() + op_head);
            fills.erase(fills.begin(), fills.begin() + fill_head);
            op_head = fill_head = 0;
        }
    };

    struct Thread
    {
        unsigned id;
        PrivateCaches priv;
        AccessGen gen;
        SyntheticMemory mem;
        Tape tape;
        /** Ops the functional half has run (the timing half's count
         *  is `ops`); stamps the thread's stores. */
        std::uint64_t recorded = 0;
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
               std::uint64_t seed, std::uint64_t vseed,
               std::size_t tape_ops)
            : id(id_),
              priv(cfg.l1_bytes, cfg.l1_ways, cfg.l2_bytes, cfg.l2_ways),
              gen(prof.access, base, seed), mem(prof.value, base, vseed),
              tape(tape_ops, cfg.prefetch_degree)
        {
        }
    };

    /** Replays t's next op, recording it first if none is pending. */
    void step(Thread &t);

    // --- functional half ----------------------------------------------
    /** Runs t's next op through the caches and the protocol and
     *  appends its OpRecord (and FillRecords) to t's tape. */
    void record(Thread &t);
    /** The op's lookup latency; misses append fills to the tape. */
    Cycles access(Thread &t, Addr addr, bool store);
    /** Brings line @p addr into the LLC over the link and records
     *  the fill; returns the LLC slot it landed in. */
    LineID fill(Thread &t, Addr addr);
    void prefetch(Thread &t, Addr miss_addr);
    /** Back-invalidates addr from every thread's L1/L2, then pushes
     *  each dirty copy to the LLC (dirtyUpdate). */
    void backInvalUpper(Addr addr);
    SyntheticMemory &memoryOf(Addr addr);
    /** Energy, toggles and per-program attribution of one transfer;
     *  returns the wire bits the timing half queues on the link. */
    std::uint32_t accountLinkTransfer(Addr addr, const Transfer &t);

    // --- timing half --------------------------------------------------
    /** Replays t's next recorded op: clock, counts, then polls. */
    void replay(Thread &t);
    /** Queues one recorded fill issued at @p now; returns its
     *  latency to the requester. */
    Cycles replayFill(const FillRecord &f, Cycles now);
    /** Queues @p bits on the link no earlier than @p now (counts
     *  them only, untimed); returns the completion time. */
    Cycles sendOnLink(Cycles now, std::size_t bits);
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
    /** Tape capacity of a system that runs ahead; 0 when it does
     *  not (recordable()). */
    std::size_t ahead_;
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
