#include "sim/link.h"

#include <cmath>

#include "common/bitops.h"
#include "common/log.h"

namespace cable
{

LinkModel::LinkModel(const Config &cfg)
    : cfg_(cfg), last_flit_(cfg.width_bits, false)
{
    if (cfg_.width_bits == 0)
        fatal("LinkModel: zero width");
    bits_per_cycle_ =
        cfg_.width_bits * (cfg_.link_ghz / cfg_.core_ghz);
}

std::uint64_t
LinkModel::flitsFor(std::size_t bits) const
{
    if (bits == 0)
        return 0;
    if (cfg_.packed)
        return ceilDiv(bits + 6, cfg_.width_bits);
    return ceilDiv(bits, cfg_.width_bits);
}

Cycles
LinkModel::serializeCycles(std::size_t bits) const
{
    if (bits == 0)
        return 0;
    double cycles = static_cast<double>(flitsFor(bits))
                    * cfg_.width_bits / bits_per_cycle_;
    return static_cast<Cycles>(std::ceil(cycles));
}

Cycles
LinkModel::acquire(Cycles now, std::size_t bits)
{
    countOnly(bits);
    Cycles start = now > busy_until_ ? now : busy_until_;
    Cycles dur = serializeCycles(bits);
    busy_until_ = start + dur;
    return busy_until_;
}

void
LinkModel::countOnly(std::size_t bits)
{
    stats_.add(transfers_, 1);
    stats_.add(payload_bits_, bits);
    if (cfg_.packed) {
        // Length header added, then bits accumulate without padding;
        // whole flits drain as they fill.
        packed_spill_bits_ += bits + 6;
        std::uint64_t whole = packed_spill_bits_ / cfg_.width_bits;
        stats_.add(flits_, whole);
        packed_spill_bits_ -= whole * cfg_.width_bits;
    } else {
        stats_.add(flits_, flitsFor(bits));
    }
}

void
LinkModel::countToggles(const BitVec &wire)
{
    std::size_t bits = wire.sizeBits();
    std::size_t beats = ceilDiv(bits, cfg_.width_bits);
    std::uint64_t toggles = 0;
    for (std::size_t beat = 0; beat < beats; ++beat) {
        for (unsigned w = 0; w < cfg_.width_bits; ++w) {
            std::size_t i = beat * cfg_.width_bits + w;
            bool b = i < bits ? wire.bit(i) : false;
            if (b != last_flit_[w])
                ++toggles;
            last_flit_[w] = b;
        }
    }
    stats_.add(toggles_, toggles);
}

double
LinkModel::utilization(Cycles elapsed) const
{
    if (elapsed == 0)
        return 0.0;
    double used_bits =
        static_cast<double>(stats_.value(flits_)) * cfg_.width_bits;
    return used_bits / (bits_per_cycle_ * static_cast<double>(elapsed));
}

} // namespace cable
