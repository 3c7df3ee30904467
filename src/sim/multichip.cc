#include "sim/multichip.h"

#include "common/bitops.h"
#include "common/log.h"
#include "common/rng.h"
#include "common/worker_pool.h"

namespace cable
{

MultiChipSystem::MultiChipSystem(const MultiChipConfig &cfg,
                                 const WorkloadProfile &program)
    : cfg_(cfg),
      priv_(cfg.l1_bytes, cfg.l1_ways, cfg.l2_bytes, cfg.l2_ways)
{
    if (cfg_.nodes < 2)
        fatal("MultiChipSystem: need at least 2 nodes");
    for (unsigned n = 0; n < cfg_.nodes; ++n) {
        llcs_.push_back(std::make_unique<Cache>(Cache::Config{
            "llc" + std::to_string(n), cfg_.llc_bytes,
            cfg_.llc_ways}));
    }
    channels_.resize(cfg_.nodes);
    for (unsigned k = 1; k < cfg_.nodes; ++k) {
        CableConfig cc = cfg_.cable;
        cc.hash_seed ^= k * 0x1234567ull;
        channels_[k] =
            makeLinkProtocol(cfg_.scheme, *llcs_[k], *llcs_[0], cc);
        channels_[k]->setBackinvalHook(
            [this](Addr addr) { backInvalUpper(addr); });
    }

    Addr base = Addr{1} << 40;
    gen_ = std::make_unique<AccessGen>(program.access, base,
                                       splitMix64(cfg_.seed ^ 0xc417ull));
    mem_ = std::make_unique<SyntheticMemory>(
        program.value, base, splitMix64(cfg_.seed ^ 0x5151ull));
}

LinkProtocol &
MultiChipSystem::channel(unsigned home_node)
{
    if (home_node == 0 || home_node >= cfg_.nodes)
        panic("channel(%u): node 0 has no channel to itself",
              home_node);
    return *channels_[home_node];
}

void
MultiChipSystem::backInvalUpper(Addr addr)
{
    if (auto dirty = priv_.drop(addr))
        dirtyToLlc(addr, dirty->data);
}

void
MultiChipSystem::dirtyToLlc(Addr addr, const CacheLine &data)
{
    unsigned h = nodeOf(addr);
    if (h == 0) {
        llcs_[0]->writeLine(addr, data, true);
    } else {
        channels_[h]->dirtyUpdate(addr, data);
    }
}

void
MultiChipSystem::fillLlc(Addr addr)
{
    Cache &llc0 = *llcs_[0];
    std::uint8_t vway = llc0.victimWay(addr);
    LineID vlid(llc0.setOf(addr), vway);
    if (llc0.validAt(vlid)) {
        Addr vaddr = llc0.addrAt(vlid);
        backInvalUpper(vaddr);
        unsigned vh = nodeOf(vaddr);
        if (vh == 0) {
            // Local line: plain DRAM write-back, no coherence link.
            if (llc0.dirtyAt(vlid))
                mem_->storeLine(vaddr, llc0.lineAt(vlid));
            llc0.invalidate(vaddr);
        } else {
            channels_[vh]->evictRemoteSlot(vlid);
        }
    }

    unsigned h = nodeOf(addr);
    if (h == 0) {
        llc0.install(addr, mem_->lineAt(addr),
                     CoherenceState::Shared, vway);
        return;
    }
    LinkProtocol &ch = *channels_[h];
    if (!ch.home().probe(addr)) {
        HomeInstallResult hr = ch.homeFill(addr, mem_->lineAt(addr));
        if (hr.memory_writeback)
            mem_->storeLine(hr.memory_writeback->addr,
                            hr.memory_writeback->data);
    }
    ch.respond(addr, vway);
}

void
MultiChipSystem::access(Addr addr, bool store)
{
    Addr la = lineAlign(addr);

    if (priv_.accessL1(la)) {
        if (store)
            priv_.store(addr, op_count_);
        return;
    }

    CacheLine data;
    if (priv_.accessL2(la)) {
        data = priv_.l2Line(la);
    } else {
        Cache &llc0 = *llcs_[0];
        if (!llc0.access(la))
            fillLlc(la);
        data = llc0.lineAt(llc0.find(la));
        if (auto spill = priv_.installL2(la, data))
            dirtyToLlc(spill->addr, spill->data);
    }
    priv_.installL1(la, data);
    if (store)
        priv_.store(addr, op_count_);
}

void
MultiChipSystem::run(std::uint64_t ops)
{
    for (std::uint64_t i = 0; i < ops; ++i) {
        MemOp op = gen_->next();
        ++op_count_;
        access(op.addr, op.store);
    }
}

StatSet
MultiChipSystem::linkStats() const
{
    StatSet s;
    for (unsigned k = 1; k < cfg_.nodes; ++k) {
        auto &ch = const_cast<MultiChipSystem *>(this)->channels_[k];
        s.merge(ch->stats());
    }
    return s;
}

double
MultiChipSystem::bitRatio() const
{
    StatSet s = linkStats();
    return s.ratio("raw_bits", "wire_bits");
}

double
MultiChipSystem::effectiveRatio(unsigned link_width_bits) const
{
    StatSet s = linkStats();
    if (link_width_bits == 16 && s.get("wire_flits16"))
        return s.ratio("raw_flits16", "wire_flits16");
    double r = s.ratio("raw_bits", "wire_bits");
    if (link_width_bits == 0)
        return r; // no flit quantization without a width
    double cap = static_cast<double>(kLineBytes * 8)
                 / static_cast<double>(link_width_bits);
    return r > cap ? cap : r;
}

// ---------------------------------------------------------------------
// Replica batch (worker-pool driver)
// ---------------------------------------------------------------------

MultiChipBatch::MultiChipBatch(const MultiChipConfig &cfg,
                               const WorkloadProfile &program,
                               unsigned replicas)
    : cfg_(cfg), program_(program), replicas_(replicas)
{
    if (replicas_ < 1)
        fatal("MultiChipBatch: need at least 1 replica");
}

MultiChipConfig
MultiChipBatch::replicaConfig(unsigned index) const
{
    MultiChipConfig rc = cfg_;
    if (index == 0)
        return rc; // the base config: batch-of-1 == plain run
    // Replica streams are a pure function of (base seed, index):
    // independent of worker count, schedule and wall clock. The
    // hash seed is decorrelated too so replicas do not share H3
    // row matrices.
    std::uint64_t stream =
        splitMix64(cfg_.seed ^ (0x9e3779b97f4a7c15ull * index));
    rc.seed = stream;
    rc.cable.hash_seed ^= splitMix64(stream ^ 0xcab1eull);
    return rc;
}

MultiChipBatchResult
MultiChipBatch::run(std::uint64_t ops, unsigned jobs)
{
    // Per-replica result slots: workers never touch shared state
    // (contract rule 2); the merge below walks the slots in replica
    // order (rule 3), so the outcome is identical for every value
    // of `jobs`.
    std::vector<StatSet> slots(replicas_);
    parallelFor(replicas_, jobs, [&](std::size_t r) {
        MultiChipSystem sys(replicaConfig(static_cast<unsigned>(r)),
                            program_);
        sys.run(ops);
        slots[r] = sys.linkStats();
    });

    MultiChipBatchResult out;
    out.replicas = replicas_;
    for (const StatSet &s : slots)
        out.link_stats.merge(s);
    out.bit_ratio = out.link_stats.ratio("raw_bits", "wire_bits");
    if (out.link_stats.get("wire_flits16"))
        out.effective_ratio =
            out.link_stats.ratio("raw_flits16", "wire_flits16");
    else
        out.effective_ratio = out.bit_ratio;
    return out;
}

} // namespace cable
