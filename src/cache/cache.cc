#include "cache/cache.h"

#include <algorithm>

#include "common/bitops.h"
#include "common/log.h"

namespace cable
{

Cache::Cache(const Config &cfg) : cfg_(cfg)
{
    if (cfg_.ways == 0)
        fatal("%s: zero ways", cfg_.name.c_str());
    std::uint64_t lines = cfg_.size_bytes / kLineBytes;
    if (lines == 0 || lines % cfg_.ways != 0)
        fatal("%s: size %llu not divisible into %u ways",
              cfg_.name.c_str(),
              static_cast<unsigned long long>(cfg_.size_bytes),
              cfg_.ways);
    num_sets_ = static_cast<unsigned>(lines / cfg_.ways);
    if (!isPow2(num_sets_))
        fatal("%s: %u sets is not a power of two", cfg_.name.c_str(),
              num_sets_);
    set_bits_ = bitsToIndex(num_sets_);
    keys_ = ZeroRow<std::uint64_t>(lines);
    stamps_ = ZeroRow<std::uint64_t>(lines);
    lines_ = ZeroRow<AlignedLine>(lines);
}

void
Cache::invalidLineID() const
{
    panic("%s: slot access through an invalid LineID", cfg_.name.c_str());
}

bool
Cache::probe(Addr addr) const
{
    return find(addr).valid;
}

LineID
Cache::access(Addr addr)
{
    LineID lid = find(addr);
    if (lid.valid)
        promote(index(lid));
    return lid;
}

LineID
Cache::find(Addr addr) const
{
    std::uint32_t set = setOf(addr);
    Addr tag = lineNumber(addr);
    const std::uint64_t *keys = keys_.data() + std::size_t{set} * cfg_.ways;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (lineOfKey(keys[w]) == tag)
            return LineID(set, static_cast<std::uint8_t>(w));
    }
    return kInvalidLineID;
}

Addr
Cache::addrAt(LineID lid) const
{
    std::uint64_t key = keys_[index(lid)];
    if (key == kInvalidKey)
        panic("%s: addrAt(invalid slot %u/%u)", cfg_.name.c_str(),
              lid.set, lid.way);
    return lineOfKey(key) << kLineShift;
}

void
Cache::setState(LineID lid, CoherenceState s)
{
    std::uint64_t &key = keys_[index(lid)];
    if (s == CoherenceState::Invalid) {
        key = kInvalidKey;
        return;
    }
    if (key == kInvalidKey)
        panic("%s: setState on invalid slot %u/%u", cfg_.name.c_str(),
              lid.set, lid.way);
    key = (key & ~kStateMask) | static_cast<std::uint64_t>(s);
}

std::uint8_t
Cache::victimWay(Addr addr) const
{
    std::uint32_t set = setOf(addr);
    std::size_t first = std::size_t{set} * cfg_.ways;
    const std::uint64_t *keys = keys_.data() + first;
    for (unsigned w = 0; w < cfg_.ways; ++w) {
        if (keys[w] == kInvalidKey)
            return static_cast<std::uint8_t>(w);
    }
    if (cfg_.policy == ReplacementPolicy::Random) {
        // Deterministic xorshift stream; callers see a stable
        // victim per (state, addr) because victimWay is consulted
        // once per install.
        rand_state_ ^= rand_state_ << 13;
        rand_state_ ^= rand_state_ >> 7;
        rand_state_ ^= rand_state_ << 17;
        return static_cast<std::uint8_t>(rand_state_ % cfg_.ways);
    }
    // LRU and FIFO differ only in which operations set the stamp;
    // the oldest stamp (lowest way on a tie) is the victim.
    const std::uint64_t *stamps = stamps_.data() + first;
    return static_cast<std::uint8_t>(
        std::min_element(stamps, stamps + cfg_.ways) - stamps);
}

void
Cache::install(Addr addr, const CacheLine &data, CoherenceState state,
               std::uint8_t way)
{
    if (way >= cfg_.ways)
        panic("%s: install way %u out of range", cfg_.name.c_str(), way);
    if (state == CoherenceState::Invalid)
        panic("%s: install in state Invalid", cfg_.name.c_str());
    std::size_t i = std::size_t{setOf(addr)} * cfg_.ways + way;
    keys_[i] = keyOf(addr, state);
    lines_[i].line = data;
    stamps_[i] = ++lru_clock_;
}

void
Cache::writeLine(Addr addr, const CacheLine &data, bool mark_dirty)
{
    LineID lid = find(addr);
    if (!lid.valid)
        panic("%s: writeLine to non-resident %llx", cfg_.name.c_str(),
              static_cast<unsigned long long>(addr));
    std::size_t i = index(lid);
    lines_[i].line = data;
    if (mark_dirty)
        keys_[i] = keyOf(addr, CoherenceState::Modified);
    promote(i);
}

void
Cache::markDirty(Addr addr)
{
    LineID lid = find(addr);
    if (!lid.valid)
        panic("%s: markDirty on non-resident %llx", cfg_.name.c_str(),
              static_cast<unsigned long long>(addr));
    keys_[index(lid)] = keyOf(addr, CoherenceState::Modified);
}

LineID
Cache::invalidate(Addr addr)
{
    LineID lid = find(addr);
    if (lid.valid)
        keys_[index(lid)] = kInvalidKey;
    return lid;
}

void
Cache::clear()
{
    keys_.zero();
    stamps_.zero();
    lines_.zero();
    lru_clock_ = 0;
}

} // namespace cable
