#include "sim/memlink.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/log.h"
#include "common/rng.h"

namespace cable
{

MemLinkSystem::MemLinkSystem(const MemSystemConfig &cfg,
                             const std::vector<WorkloadProfile> &programs,
                             LinkModel *shared_link)
    : cfg_(cfg),
      llc_({"llc", cfg.llc_bytes_per_thread * programs.size(),
            cfg.llc_ways, cfg.llc_policy}),
      l4_({"l4", cfg.l4_bytes_per_thread * programs.size(),
           cfg.l4_ways}),
      dram_(cfg.dram), lat_(schemeLatency(cfg.scheme)),
      next_fault_audit_(cfg.fault_audit_period),
      next_onoff_sample_(cfg.onoff_period)
{
    if (programs.empty())
        fatal("MemLinkSystem: no programs");
    if (!shared_link) {
        own_link_ = std::make_unique<LinkModel>(cfg.link);
        link_ = own_link_.get();
    } else {
        link_ = shared_link;
    }
    protocol_ = makeLinkProtocol(cfg.scheme, l4_, llc_, cfg.cable);
    protocol_->setBackinvalHook(
        [this](Addr addr) { backInvalUpper(addr); });

    if (cfg_.fault.anyEnabled()) {
        fault_channel_ = protocol_->cableChannel();
        if (!fault_channel_)
            fatal("fault injection requires the cable scheme "
                  "(scheme '%s' has no recovery machinery)",
                  cfg.scheme.c_str());
        fault_injector_ = std::make_unique<FaultInjector>(cfg_.fault);
        fault_channel_->setFaultModel(fault_injector_.get());
    }

    for (unsigned t = 0; t < programs.size(); ++t) {
        Addr base = (static_cast<Addr>(t) + 1) << kThreadBaseShift;
        std::uint64_t aseed = splitMix64(cfg.seed ^ (t * 977 + 13));
        std::uint64_t vseed =
            cfg.shared_value_seed
                ? splitMix64(cfg.seed ^ 0x7a1ull)
                : splitMix64(cfg.seed ^ 0x9191ull ^ (t * 31));
        threads_.push_back(std::make_unique<Thread>(
            t, cfg, programs[t], base, aseed, vseed));
    }
}

SyntheticMemory &
MemLinkSystem::memoryOf(Addr addr)
{
    std::size_t t = (addr >> kThreadBaseShift) - 1;
    if (t >= threads_.size())
        panic("memoryOf: address %llx has no owner",
              static_cast<unsigned long long>(addr));
    return threads_[t]->mem;
}

void
MemLinkSystem::backInvalUpper(Addr addr)
{
    for (auto &tp : threads_)
        if (auto dirty = tp->priv.drop(addr))
            protocol_->dirtyUpdate(addr, dirty->data);
}

void
MemLinkSystem::attributeTransfer(Addr addr, const Transfer &t)
{
    std::size_t owner = (addr >> kThreadBaseShift) - 1;
    if (owner < threads_.size()) {
        threads_[owner]->link_raw_bits += t.raw_bits;
        threads_[owner]->link_wire_bits += t.bits;
    }
}

double
MemLinkSystem::threadBitRatio(unsigned t) const
{
    const Thread &th = *threads_[t];
    return th.link_wire_bits
               ? static_cast<double>(th.link_raw_bits)
                     / static_cast<double>(th.link_wire_bits)
               : 1.0;
}

Cycles
MemLinkSystem::linkCyclesToCore(Cycles link_cycles) const
{
    if (!link_cycles)
        return 0;
    double f = link_->config().core_ghz / link_->config().link_ghz;
    return static_cast<Cycles>(
        static_cast<double>(link_cycles) * f + 0.5);
}

void
MemLinkSystem::accountLinkTransfer(const Transfer &t, bool critical,
                                   Cycles now, Cycles &extra_lat)
{
    if (cfg_.count_toggles)
        link_->countToggles(t.wire);
    // The wire carries payload + CRC framing + every retransmission;
    // charge all of it for bandwidth and energy (the payload-only
    // ratio is preserved separately in the protocol stats).
    energy_.linkFlits(link_->flitsFor(t.wireBits()),
                      link_->config().width_bits);
    if (!t.raw) {
        energy_.compression();
        energy_.decompression();
    }
    if (cfg_.timing) {
        Cycles done = link_->acquire(now, t.wireBits());
        if (critical)
            extra_lat += done - now + linkCyclesToCore(t.retry_cycles);
    } else {
        link_->countOnly(t.wireBits());
    }
}

Cycles
MemLinkSystem::offChipFill(Thread &, Addr addr, Cycles now)
{
    Cycles extra = 0;

    // Victim handling: vacate the LLC slot the fill will use.
    std::uint8_t vway = llc_.victimWay(addr);
    LineID vlid(llc_.setOf(addr), vway);
    if (llc_.validAt(vlid)) {
        Addr vaddr = llc_.addrAt(vlid);
        backInvalUpper(vaddr);
        auto wb = protocol_->evictRemoteSlot(vlid);
        if (wb) {
            // Posted write: consumes bandwidth, off the load's
            // critical path.
            accountLinkTransfer(*wb, false, now, extra);
            attributeTransfer(vaddr, *wb);
            energy_.l4Access();
        }
    }

    // Home side: L4 lookup, DRAM on miss.
    Cycles dram_lat = 0;
    energy_.l4Access();
    if (!l4_.probe(addr)) {
        CacheLine data = memoryOf(addr).lineAt(addr);
        if (cfg_.timing) {
            Cycles done = dram_.access(now + cfg_.l4_lat, addr, false);
            dram_lat = done - (now + cfg_.l4_lat);
        } else {
            dram_.access(now, addr, false);
        }
        energy_.dramAccess();
        HomeInstallResult hr = protocol_->homeFill(addr, data);
        if (hr.backinval_writeback) {
            accountLinkTransfer(*hr.backinval_writeback, false, now,
                                extra);
            attributeTransfer(addr, *hr.backinval_writeback);
        }
        if (hr.memory_writeback) {
            memoryOf(hr.memory_writeback->addr)
                .storeLine(hr.memory_writeback->addr,
                           hr.memory_writeback->data);
            dram_.access(now, hr.memory_writeback->addr, true);
            energy_.dramAccess();
        }
    }

    // Response transfer: on the critical path. Compression latency
    // is only paid while the (runtime-controllable) compressor is
    // active; decompression only when the payload actually arrives
    // compressed.
    Transfer resp = protocol_->respond(addr, vway);
    attributeTransfer(addr, resp);
    Cycles comp_lat = compression_on_ ? lat_.comp : 0;
    Cycles decomp_lat =
        (compression_on_ && !resp.raw) ? lat_.decomp : 0;
    if (cfg_.modeled_latency && compression_on_
        && cfg_.scheme == "cable") {
        SearchPipelineModel pipe;
        comp_lat = pipe.compressionCycles(resp.sigs);
        if (!resp.raw)
            decomp_lat = pipe.decompressionCycles();
        pipe.recordStages(protocol_->stats(), resp.sigs);
    }
    Cycles ser_start = now + cfg_.l4_lat + dram_lat + comp_lat
                       + link_->config().setup_cycles;
    Cycles resp_lat = cfg_.l4_lat + dram_lat + comp_lat
                      + link_->config().setup_cycles + decomp_lat;
    accountLinkTransfer(resp, true, ser_start, resp_lat);
    return extra + resp_lat;
}

void
MemLinkSystem::prefetch(Thread &t, Addr miss_addr, Cycles now)
{
    // Next-N-line prefetcher: fills ride the link off the demand
    // load's critical path; the returned latency is discarded but
    // the bandwidth (link busy-until, flits, energy) is charged.
    for (unsigned d = 1; d <= cfg_.prefetch_degree; ++d) {
        Addr p = miss_addr + static_cast<Addr>(d) * kLineBytes;
        if ((p >> kThreadBaseShift) != (miss_addr >> kThreadBaseShift))
            break; // never cross into another program's space
        if (llc_.probe(p))
            continue;
        (void)offChipFill(t, p, now);
        energy_.llcAccess();
    }
}

Cycles
MemLinkSystem::access(Thread &t, Addr addr, bool store)
{
    Addr la = lineAlign(addr);
    energy_.l1Access();

    if (t.priv.accessL1(la)) {
        if (store)
            t.priv.store(addr, t.ops);
        return cfg_.l1_lat;
    }

    Cycles lat = cfg_.l1_lat + cfg_.l2_lat;
    energy_.l2Access();
    CacheLine data;
    if (t.priv.accessL2(la)) {
        data = t.priv.l2Line(la);
    } else {
        lat += cfg_.llc_lat;
        energy_.llcAccess();
        if (llc_.access(la)) {
            data = llc_.lineAt(llc_.find(la));
        } else {
            lat += offChipFill(t, la, t.time + lat);
            data = llc_.lineAt(llc_.find(la));
            if (cfg_.prefetch_degree)
                prefetch(t, la, t.time + lat);
        }
        if (auto spill = t.priv.installL2(la, data)) {
            protocol_->dirtyUpdate(spill->addr, spill->data);
            energy_.llcAccess();
        }
    }
    if (t.priv.installL1(la, data))
        energy_.l2Access(); // the dirty L1 victim lands in L2
    if (store)
        t.priv.store(addr, t.ops);
    return lat;
}

void
MemLinkSystem::pollOnOff()
{
    if (!cfg_.onoff_control)
        return;
    Cycles now = maxTime();
    if (now < next_onoff_sample_)
        return;
    std::uint64_t flits = link_->stats().get("flits");
    double used_bits = static_cast<double>(flits - flits_at_sample_)
                       * link_->config().width_bits;
    double cap = link_->bitsPerCoreCycle()
                 * static_cast<double>(cfg_.onoff_period);
    double util = cap > 0 ? used_bits / cap : 0.0;
    // Utilization of the *compressed* stream understates demand;
    // compare against effective (post-compression) capacity usage.
    if (compression_on_ && util < cfg_.onoff_low) {
        compression_on_ = false;
        protocol_->setCompressionEnabled(false);
    } else if (!compression_on_ && util > cfg_.onoff_high) {
        compression_on_ = true;
        protocol_->setCompressionEnabled(true);
    }
    flits_at_sample_ = flits;
    next_onoff_sample_ = now + cfg_.onoff_period;
}

void
MemLinkSystem::setTraceSink(TraceSink *sink)
{
    protocol_->setTraceSink(sink);
    if (fault_injector_)
        fault_injector_->setTraceSink(sink);
}

void
MemLinkSystem::setSpanSampling(std::uint64_t period)
{
    protocol_->setSpanSampling(period);
}

void
MemLinkSystem::pollFaultAudit()
{
    if (!fault_channel_)
        return;
    Cycles now = maxTime();
    if (now < next_fault_audit_)
        return;
    // Window-granular degraded-time accounting: if the channel is
    // still degraded when the audit fires, the whole window counts.
    if (fault_channel_->degraded())
        fault_channel_->stats().add("degraded_cycles",
                                    cfg_.fault_audit_period);
    (void)fault_channel_->auditInvariant();
    next_fault_audit_ = now + cfg_.fault_audit_period;
}

void
MemLinkSystem::step(Thread &t)
{
    MemOp op = t.gen.next();
    t.time += op.gap; // 1 CPI non-memory instructions
    t.time += access(t, op.addr, op.store);
    t.instrs += op.gap + 1;
    t.ops += 1;
    pollOnOff();
    pollFaultAudit();
}

void
MemLinkSystem::stepOnce()
{
    Thread *earliest = threads_[0].get();
    for (auto &tp : threads_)
        if (tp->time < earliest->time)
            earliest = tp.get();
    step(*earliest);
}

Cycles
MemLinkSystem::nextEventTime() const
{
    Cycles m = ~Cycles{0};
    for (const auto &tp : threads_)
        m = std::min(m, tp->time);
    return m;
}

bool
MemLinkSystem::allThreadsReached(std::uint64_t ops) const
{
    for (const auto &tp : threads_)
        if (tp->ops - tp->ops0 < ops)
            return false;
    return true;
}

void
MemLinkSystem::beginMeasurement()
{
    for (auto &tp : threads_) {
        tp->time0 = tp->time;
        tp->instrs0 = tp->instrs;
        tp->ops0 = tp->ops;
    }
}

void
MemLinkSystem::run(std::uint64_t ops)
{
    if (cfg_.timing) {
        while (!allThreadsReached(ops))
            stepOnce();
    } else {
        // Functional mode: round-robin interleaving.
        while (!allThreadsReached(ops))
            for (auto &tp : threads_)
                if (tp->ops - tp->ops0 < ops)
                    step(*tp);
    }
    finishEnergyAccounting();
}

double
MemLinkSystem::effectiveRatio() const
{
    std::uint64_t flits = link_->stats().get("flits");
    if (!flits)
        return 1.0;
    std::uint64_t transfers = link_->stats().get("transfers");
    std::uint64_t raw_flits =
        transfers
        * ceilDiv(kLineBytes * 8, link_->config().width_bits);
    return static_cast<double>(raw_flits)
           / static_cast<double>(flits);
}

double
MemLinkSystem::goodputRatio()
{
    const StatSet &s = protocol_->stats();
    // recovery_bits covers desync re-arm plus resync-protocol
    // handshake traffic; zero on fault-free runs, so the ratio is
    // unchanged there.
    std::uint64_t wire = s.get("wire_bits") + s.get("crc_overhead_bits")
                         + s.get("retrans_bits")
                         + s.get("recovery_bits");
    if (!wire)
        return 1.0;
    return static_cast<double>(s.get("raw_bits"))
           / static_cast<double>(wire);
}

double
MemLinkSystem::aggregateIPC() const
{
    double ipc = 0;
    for (const auto &tp : threads_) {
        Cycles dt = tp->time - tp->time0;
        if (dt)
            ipc += static_cast<double>(tp->instrs - tp->instrs0)
                   / static_cast<double>(dt);
    }
    return ipc;
}

std::uint64_t
MemLinkSystem::instructions(unsigned t) const
{
    return threads_[t]->instrs;
}

Cycles
MemLinkSystem::maxTime() const
{
    Cycles m = 0;
    for (const auto &tp : threads_)
        m = std::max(m, tp->time);
    return m;
}

void
MemLinkSystem::finishEnergyAccounting()
{
    std::uint64_t reads = protocol_->stats().get("data_reads")
                          + protocol_->stats().get("wb_data_reads");
    if (reads > search_reads_accounted_) {
        energy_.searchReads(reads - search_reads_accounted_);
        search_reads_accounted_ = reads;
    }
}

} // namespace cable
