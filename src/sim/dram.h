/**
 * @file
 * DRAM model (Table IV): FCFS, closed-page controller over N
 * channels of DDR3-1600 with 9-9-9 sub-timings. Closed-page access
 * is modelled as a fixed activate+CAS+precharge latency plus the
 * 64-byte burst, with per-channel busy-until FCFS queueing —
 * matching the abstraction level of the PriME host simulator.
 */

#ifndef CABLE_SIM_DRAM_H
#define CABLE_SIM_DRAM_H

#include <cstdint>
#include <vector>

#include "common/stats.h"
#include "common/types.h"

namespace cable
{

class DramModel
{
  public:
    struct Config
    {
        unsigned channels = 4;
        /** tRCD+CL+tRP for DDR3-1600 9-9-9 is ~33.75ns plus
         *  controller/queueing overhead; ~50ns = 100 core cycles
         *  at 2GHz. */
        Cycles access_cycles = 100;
        /** 64B burst at 12.8GB/s is 5ns = 10 core cycles. */
        Cycles burst_cycles = 10;
    };

    explicit DramModel(const Config &cfg) : cfg_(cfg)
    {
        busy_until_.assign(cfg_.channels ? cfg_.channels : 1, 0);
    }

    /** Queues an access; returns its completion time. */
    Cycles
    access(Cycles now, Addr addr, bool write)
    {
        unsigned ch = channelOf(addr);
        Cycles start = now > busy_until_[ch] ? now : busy_until_[ch];
        busy_until_[ch] = start + cfg_.burst_cycles;
        stats_.add(write ? writes_ : reads_, 1);
        // Writes are posted; reads pay the access latency.
        return write ? busy_until_[ch]
                     : start + cfg_.access_cycles + cfg_.burst_cycles;
    }

    unsigned
    channelOf(Addr addr) const
    {
        return static_cast<unsigned>(lineNumber(addr)
                                     % busy_until_.size());
    }

    StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }

  private:
    Config cfg_;
    std::vector<Cycles> busy_until_;
    StatSet stats_;
    CounterId reads_ = stats_.counterId("reads"),
              writes_ = stats_.counterId("writes");
};

} // namespace cable

#endif // CABLE_SIM_DRAM_H
