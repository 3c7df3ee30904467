#include "core/wmt.h"

#include "common/bitops.h"
#include "common/log.h"

namespace cable
{

WayMapTable::WayMapTable(const Config &cfg) : cfg_(cfg)
{
    if (!isPow2(cfg_.remote_sets) || !isPow2(cfg_.home_sets))
        fatal("WayMapTable: set counts must be powers of two");
    if (cfg_.home_sets < cfg_.remote_sets)
        fatal("WayMapTable: home cache must have at least as many sets "
              "as the remote cache");
    remote_set_bits_ = bitsToIndex(cfg_.remote_sets);
    alias_bits_ = bitsToIndex(cfg_.home_sets) - remote_set_bits_;
    home_way_bits_ = bitsToIndex(cfg_.home_ways);
    if (home_way_bits_ == 0)
        home_way_bits_ = 1; // direct-mapped still needs a way field
    slots_ = ZeroRow<Slot>(std::size_t{cfg_.remote_sets} * cfg_.remote_ways);
}

WayMapTable::Slot &
WayMapTable::at(std::uint32_t set, std::uint8_t way)
{
    return slots_[std::size_t{set} * cfg_.remote_ways + way];
}

const WayMapTable::Slot &
WayMapTable::at(std::uint32_t set, std::uint8_t way) const
{
    return slots_[std::size_t{set} * cfg_.remote_ways + way];
}

std::uint32_t
WayMapTable::normalize(LineID home_lid) const
{
    std::uint32_t alias = home_lid.set >> remote_set_bits_;
    return (alias << home_way_bits_) | home_lid.way;
}

LineID
WayMapTable::denormalize(std::uint32_t remote_set,
                         std::uint32_t norm) const
{
    std::uint32_t alias = norm >> home_way_bits_;
    std::uint8_t way = static_cast<std::uint8_t>(
        norm & ((1u << home_way_bits_) - 1));
    std::uint32_t home_set = (alias << remote_set_bits_) | remote_set;
    return LineID(home_set, way);
}

std::optional<std::uint8_t>
WayMapTable::lookupRemoteWay(std::uint32_t remote_set,
                             LineID home_lid) const
{
    std::uint32_t norm = normalize(home_lid);
    ++lookups_;
    for (unsigned w = 0; w < cfg_.remote_ways; ++w) {
        const Slot &s = at(remote_set, static_cast<std::uint8_t>(w));
        if (s.valid && s.norm == norm) {
            // Verify the alias round-trips: the stored entry must
            // denote this exact home line.
            if (denormalize(remote_set, s.norm) == home_lid)
                return static_cast<std::uint8_t>(w);
        }
    }
    ++translate_misses_;
    return std::nullopt;
}

std::optional<std::uint32_t>
WayMapTable::occupant(std::uint32_t remote_set,
                      std::uint8_t remote_way) const
{
    const Slot &s = at(remote_set, remote_way);
    if (!s.valid)
        return std::nullopt;
    return s.norm;
}

std::optional<LineID>
WayMapTable::occupantHomeLID(std::uint32_t remote_set,
                             std::uint8_t remote_way) const
{
    const Slot &s = at(remote_set, remote_way);
    if (!s.valid)
        return std::nullopt;
    return denormalize(remote_set, s.norm);
}

void
WayMapTable::set(std::uint32_t remote_set, std::uint8_t remote_way,
                 LineID home_lid)
{
    Slot &s = at(remote_set, remote_way);
    if (s.valid)
        ++overwrites_;
    ++sets_;
    s.norm = normalize(home_lid);
    s.valid = true;
}

void
WayMapTable::clear(std::uint32_t remote_set, std::uint8_t remote_way)
{
    Slot &s = at(remote_set, remote_way);
    if (s.valid)
        ++clears_;
    s.valid = false;
}

void
WayMapTable::clearAll()
{
    for (Slot &s : slots_) {
        if (s.valid) {
            ++clears_;
            s.valid = false;
        }
    }
}

void
WayMapTable::clearByHomeLID(std::uint32_t remote_set, LineID home_lid)
{
    std::uint32_t norm = normalize(home_lid);
    for (unsigned w = 0; w < cfg_.remote_ways; ++w) {
        Slot &s = at(remote_set, static_cast<std::uint8_t>(w));
        if (s.valid && s.norm == norm) {
            ++clears_;
            s.valid = false;
        }
    }
}

void
WayMapTable::snapshot(StatSet &out, const std::string &prefix) const
{
    out.add(prefix + "slots", slots_.size());
    out.add(prefix + "lookups", lookups_);
    out.add(prefix + "translate_misses", translate_misses_);
    out.add(prefix + "sets", sets_);
    out.add(prefix + "overwrites", overwrites_);
    out.add(prefix + "clears", clears_);

    Histogram &occ = out.hist(prefix + "set_occupancy",
                              Histogram::Scale::Linear, 1,
                              cfg_.remote_ways + 2);
    std::uint64_t live = 0;
    for (std::uint32_t set = 0; set < cfg_.remote_sets; ++set) {
        std::uint64_t n = 0;
        for (unsigned w = 0; w < cfg_.remote_ways; ++w)
            if (at(set, static_cast<std::uint8_t>(w)).valid)
                ++n;
        occ.record(n);
        live += n;
    }
    out.add(prefix + "occupancy", live);
}

} // namespace cable
