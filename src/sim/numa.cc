#include "sim/numa.h"

#include "common/bitops.h"
#include "common/log.h"
#include "common/rng.h"

namespace cable
{

NumaSystem::NumaSystem(const NumaConfig &cfg,
                       const WorkloadProfile &program)
    : cfg_(cfg)
{
    if (cfg_.nodes < 2 || cfg_.nodes > 32)
        fatal("NumaSystem: nodes must be in [2, 32]");

    for (unsigned n = 0; n < cfg_.nodes; ++n)
        llcs_.push_back(std::make_unique<Cache>(Cache::Config{
            "llc" + std::to_string(n), cfg_.llc_bytes,
            cfg_.llc_ways}));

    channels_.resize(std::size_t{cfg_.nodes} * cfg_.nodes);
    for (unsigned k = 0; k < cfg_.nodes; ++k) {
        for (unsigned j = 0; j < cfg_.nodes; ++j) {
            if (k == j)
                continue;
            CableConfig cc = cfg_.cable;
            cc.hash_seed ^= (k * 131 + j) * 0x9e3779b9ull;
            auto &slot = channels_[std::size_t{k} * cfg_.nodes + j];
            slot = makeLinkProtocol(cfg_.scheme, *llcs_[k],
                                    *llcs_[j], cc);
            slot->setBackinvalHook([this, j](Addr addr) {
                backInvalUpper(j, addr);
            });
        }
    }

    const Addr base = Addr{1} << 40;
    mem_ = std::make_unique<SyntheticMemory>(
        program.value, base, splitMix64(cfg_.seed ^ 0x5151ull));
    for (unsigned n = 0; n < cfg_.nodes; ++n) {
        threads_.push_back(std::make_unique<Thread>(
            n, cfg_, program.access, base,
            splitMix64(cfg_.seed ^ (0xc417ull + n * 7))));
    }
}

LinkProtocol &
NumaSystem::channel(unsigned home, unsigned requester)
{
    if (home == requester || home >= cfg_.nodes
        || requester >= cfg_.nodes)
        panic("NumaSystem::channel(%u,%u)", home, requester);
    return *channels_[std::size_t{home} * cfg_.nodes + requester];
}

void
NumaSystem::backInvalUpper(unsigned node, Addr addr)
{
    // drop() invalidates first, so dirtyToLlc's sharer sweep cannot
    // recurse back into this node's private levels.
    if (auto dirty = threads_[node]->priv.drop(addr))
        dirtyToLlc(node, addr, dirty->data);
}

void
NumaSystem::dirtyToLlc(unsigned node, Addr addr, const CacheLine &data)
{
    unsigned home = nodeOf(addr);
    DirEntry &d = dir(addr);

    // Drop every other remote sharer before the dirty data becomes
    // visible anywhere (keeps each channel's pairwise invariant).
    for (unsigned l = 0; l < cfg_.nodes; ++l) {
        if (l == node || l == home)
            continue;
        if (!(d.sharers & (1u << l)))
            continue;
        backInvalUpper(l, addr);
        LineID llid = llcs_[l]->find(addr);
        if (llid.valid)
            channel(home, l).evictRemoteSlot(llid);
        d.sharers &= ~(1u << l);
        ++invalidations_;
    }
    // The home node's private copies go stale too; a dirty one loses
    // to this write (last-writer-wins, as below).
    if (home != node && threads_[home]->priv.holds(addr)) {
        (void)threads_[home]->priv.drop(addr);
        ++invalidations_;
    }

    // Private stores are only made globally visible here, so two
    // nodes can briefly hold dirty private copies; the sweep above
    // resolves the race and may have torn down this node's own LLC
    // copy. The losing (stale) write is then discarded —
    // last-writer-wins, which is a legal serialization.
    if (!llcs_[node]->probe(addr)) {
        ++invalidations_;
        return;
    }
    if (home == node) {
        llcs_[node]->writeLine(addr, data, true);
        d.owner = static_cast<int>(node);
    } else {
        channel(home, node).dirtyUpdate(addr, data);
        d.owner = static_cast<int>(node);
        d.sharers = 1u << node;
    }
}

void
NumaSystem::evictLlcSlot(unsigned node, LineID lid)
{
    Cache &llc = *llcs_[node];
    if (!llc.validAt(lid))
        return;
    Addr vaddr = llc.addrAt(lid);
    unsigned home = nodeOf(vaddr);
    backInvalUpper(node, vaddr);
    if (!llc.validAt(lid))
        return; // the merge path already tore the slot down

    DirEntry &d = dir(vaddr);
    if (home == node) {
        // Home LLC eviction: remote copies must go first.
        for (unsigned l = 0; l < cfg_.nodes; ++l) {
            if (l == node || !(d.sharers & (1u << l)))
                continue;
            backInvalUpper(l, vaddr);
            LineID llid = llcs_[l]->find(vaddr);
            if (llid.valid)
                channel(home, l).evictRemoteSlot(llid);
            d.sharers &= ~(1u << l);
            ++invalidations_;
        }
        if (llc.dirtyAt(lid))
            mem_->storeLine(vaddr, llc.lineAt(lid));
        llc.invalidate(vaddr);
        d.owner = -1;
    } else {
        channel(home, node).evictRemoteSlot(lid);
        d.sharers &= ~(1u << node);
        if (d.owner == static_cast<int>(node))
            d.owner = -1;
    }
}

void
NumaSystem::preCleanHomeVictim(unsigned home, Addr addr)
{
    Cache &llc = *llcs_[home];
    if (llc.probe(addr))
        return;
    std::uint8_t vway = llc.victimWay(addr);
    LineID vlid(llc.setOf(addr), vway);
    if (!llc.validAt(vlid))
        return;
    // Vacate the slot ourselves so the channel's homeFill lands on
    // an invalid way and needs no cross-channel knowledge.
    evictLlcSlot(home, vlid);
}

LineID
NumaSystem::fillLlc(Thread &t, Addr addr)
{
    unsigned j = t.node;
    unsigned home = nodeOf(addr);
    Cache &llc_j = *llcs_[j];
    DirEntry &d = dir(addr);

    // A dirty owner elsewhere must flush before anyone else reads.
    if (d.owner >= 0 && d.owner != static_cast<int>(j)) {
        unsigned o = static_cast<unsigned>(d.owner);
        backInvalUpper(o, addr);
        if (o != home) {
            LineID olid = llcs_[o]->find(addr);
            if (olid.valid)
                channel(home, o).evictRemoteSlot(olid);
            d.sharers &= ~(1u << o);
        }
        d.owner = -1;
        ++invalidations_;
    }

    std::uint8_t vway = llc_j.victimWay(addr);
    const LineID vlid(llc_j.setOf(addr), vway);
    evictLlcSlot(j, vlid);

    if (home == j) {
        if (d.sharers & ~(1u << j))
            panic("NumaSystem: home miss with live sharers for %llx",
                  static_cast<unsigned long long>(addr));
        llc_j.install(addr, mem_->lineAt(addr),
                      CoherenceState::Shared, vway);
        return vlid;
    }

    LinkProtocol &ch = channel(home, j);
    if (!ch.home().probe(addr)) {
        preCleanHomeVictim(home, addr);
        HomeInstallResult hr = ch.homeFill(addr, mem_->lineAt(addr));
        if (hr.memory_writeback)
            mem_->storeLine(hr.memory_writeback->addr,
                            hr.memory_writeback->data);
    }
    ch.respond(addr, vway);
    d.sharers |= 1u << j;
    return vlid;
}

void
NumaSystem::access(Thread &t, Addr addr, bool store)
{
    Addr la = lineAlign(addr);
    unsigned j = t.node;

    if (t.priv.accessL1(la)) {
        if (store)
            t.priv.store(addr, op_clock_);
        return;
    }

    CacheLine data;
    if (const CacheLine *hit = t.priv.accessL2(la)) {
        data = *hit;
    } else {
        Cache &llc_j = *llcs_[j];
        // A local hit on a home line may be stale if another node
        // owns it dirty: flush the owner first.
        if (llc_j.probe(la) && nodeOf(la) == j) {
            DirEntry &d = dir(la);
            if (d.owner >= 0 && d.owner != static_cast<int>(j)) {
                unsigned o = static_cast<unsigned>(d.owner);
                backInvalUpper(o, la);
                LineID olid = llcs_[o]->find(la);
                if (olid.valid)
                    channel(j, o).evictRemoteSlot(olid);
                d.sharers &= ~(1u << o);
                d.owner = -1;
                ++invalidations_;
            }
        }
        LineID lid = llc_j.access(la);
        if (!lid.valid)
            lid = fillLlc(t, la);
        data = llc_j.lineAt(lid);
        if (auto spill = t.priv.installL2(la, data))
            dirtyToLlc(j, spill->addr, spill->data);
    }
    t.priv.installL1(la, data);
    if (store)
        t.priv.store(addr, op_clock_);
}

void
NumaSystem::step(Thread &t)
{
    MemOp op = t.gen.next();
    ++op_clock_;
    access(t, op.addr, op.store);
    ++t.ops;
}

void
NumaSystem::run(std::uint64_t ops)
{
    for (std::uint64_t i = 0; i < ops; ++i)
        for (auto &t : threads_)
            step(*t);
}

StatSet
NumaSystem::linkStats() const
{
    StatSet s;
    for (const auto &ch : channels_)
        if (ch)
            s.merge(ch->stats());
    return s;
}

double
NumaSystem::bitRatio() const
{
    return linkStats().ratio("raw_bits", "wire_bits");
}

double
NumaSystem::effectiveRatio() const
{
    return linkStats().ratio("raw_flits16", "wire_flits16");
}

std::uint64_t
NumaSystem::activelySharedLines() const
{
    std::uint64_t n = 0;
    for (const auto &[addr, d] : directory_)
        if (popcount32(d.sharers) >= 2)
            ++n;
    return n;
}

} // namespace cable
