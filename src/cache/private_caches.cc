#include "cache/private_caches.h"

#include "common/log.h"

namespace cable
{

PrivateCaches::PrivateCaches(std::uint64_t l1_bytes, unsigned l1_ways,
                             std::uint64_t l2_bytes, unsigned l2_ways)
    : l1_({"l1", l1_bytes, l1_ways}), l2_({"l2", l2_bytes, l2_ways})
{
}

std::optional<DirtyLine>
PrivateCaches::installL2(Addr la, const CacheLine &data)
{
    LineID vlid(l2_.setOf(la), l2_.victimWay(la));
    const Cache::Entry &victim = l2_.entryAt(vlid);
    std::optional<DirtyLine> spill;
    if (victim.valid()) {
        Addr vaddr = victim.tag << kLineShift;
        spill = take(vaddr, l1_.find(vaddr), vlid);
    }
    l2_.install(la, data, CoherenceState::Shared, vlid.way);
    return spill;
}

bool
PrivateCaches::installL1(Addr la, const CacheLine &data)
{
    std::uint8_t vway = l1_.victimWay(la);
    const Cache::Entry &victim = l1_.entryAt(LineID(l1_.setOf(la), vway));
    bool dirty = victim.dirty();
    if (dirty) {
        Addr vaddr = victim.tag << kLineShift;
        if (!l2_.probe(vaddr))
            panic("PrivateCaches: L2 not inclusive of L1 for %llx",
                  static_cast<unsigned long long>(vaddr));
        l2_.writeLine(vaddr, victim.data, true);
    }
    l1_.install(la, data, CoherenceState::Shared, vway);
    return dirty;
}

std::optional<DirtyLine>
PrivateCaches::drop(Addr addr)
{
    return take(addr, l1_.find(addr), l2_.find(addr));
}

std::optional<DirtyLine>
PrivateCaches::take(Addr addr, LineID l1id, LineID l2id)
{
    Cache::Entry *e1 = l1id.valid ? &l1_.entryAt(l1id) : nullptr;
    Cache::Entry *e2 = l2id.valid ? &l2_.entryAt(l2id) : nullptr;
    std::optional<DirtyLine> out;
    if (e1 && e1->dirty())
        out = DirtyLine{addr, e1->data};
    else if (e2 && e2->dirty())
        out = DirtyLine{addr, e2->data};
    if (e1)
        e1->state = CoherenceState::Invalid;
    if (e2)
        e2->state = CoherenceState::Invalid;
    return out;
}

} // namespace cable
