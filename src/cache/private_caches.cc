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
    std::optional<DirtyLine> spill;
    if (l2_.validAt(vlid)) {
        Addr vaddr = l2_.addrAt(vlid);
        spill = take(vaddr, l1_.find(vaddr), vlid);
    }
    l2_.install(la, data, CoherenceState::Shared, vlid.way);
    return spill;
}

bool
PrivateCaches::installL1(Addr la, const CacheLine &data)
{
    LineID vlid(l1_.setOf(la), l1_.victimWay(la));
    bool dirty = l1_.dirtyAt(vlid);
    if (dirty) {
        Addr vaddr = l1_.addrAt(vlid);
        if (!l2_.probe(vaddr))
            panic("PrivateCaches: L2 not inclusive of L1 for %llx",
                  static_cast<unsigned long long>(vaddr));
        l2_.writeLine(vaddr, l1_.lineAt(vlid), true);
    }
    l1_.install(la, data, CoherenceState::Shared, vlid.way);
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
    std::optional<DirtyLine> out;
    if (l1id.valid && l1_.dirtyAt(l1id))
        out = DirtyLine{addr, l1_.lineAt(l1id)};
    else if (l2id.valid && l2_.dirtyAt(l2id))
        out = DirtyLine{addr, l2_.lineAt(l2id)};
    if (l1id.valid)
        l1_.setState(l1id, CoherenceState::Invalid);
    if (l2id.valid)
        l2_.setState(l2id, CoherenceState::Invalid);
    return out;
}

} // namespace cable
