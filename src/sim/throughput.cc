#include "sim/throughput.h"

#include "common/log.h"

namespace cable
{

ThroughputSim::ThroughputSim(const MemSystemConfig &base,
                             const WorkloadProfile &program,
                             unsigned total_threads,
                             unsigned group_size,
                             double total_gbytes_per_s)
{
    if (total_threads < group_size)
        fatal("ThroughputSim: total threads below group size");

    group_gbs_ = total_gbytes_per_s * group_size / total_threads;

    // Express the group's share as a link of the configured width
    // running at the equivalent frequency.
    LinkModel::Config lcfg = base.link;
    lcfg.link_ghz = group_gbs_ * 8.0 / lcfg.width_bits; // Gbit/s ÷ b
    link_ = std::make_unique<LinkModel>(lcfg);

    for (unsigned i = 0; i < group_size; ++i) {
        MemSystemConfig cfg = base;
        cfg.timing = true;
        cfg.seed = base.seed + i * 7919;
        systems_.push_back(std::make_unique<MemLinkSystem>(
            cfg, std::vector<WorkloadProfile>{program}, link_.get()));
    }
}

void
ThroughputSim::run(std::uint64_t ops, std::uint64_t warmup_ops)
{
    if (warmup_ops) {
        runUntil(warmup_ops);
        for (auto &sys : systems_)
            sys->beginMeasurement();
    }
    runUntil(ops);
    for (auto &sys : systems_)
        sys->finishEnergyAccounting();
}

void
ThroughputSim::runUntil(std::uint64_t ops)
{
    // Conservative global-time ordering across the group: always
    // advance the system whose pending thread is earliest (lowest
    // index on a tie). A step moves only the stepped system's
    // threads, so only its entry is refreshed. A finished system
    // reads ~0, which never wins, as in a full rescan.
    auto pending = [ops](const MemLinkSystem &sys) {
        return sys.allThreadsReached(ops) ? ~Cycles{0}
                                          : sys.nextEventTime();
    };
    std::vector<Cycles> next;
    next.reserve(systems_.size());
    for (const auto &sys : systems_)
        next.push_back(pending(*sys));
    while (true) {
        std::size_t pick = next.size();
        Cycles best = ~Cycles{0};
        for (std::size_t i = 0; i < next.size(); ++i) {
            if (next[i] < best) {
                best = next[i];
                pick = i;
            }
        }
        if (pick == next.size())
            break;
        systems_[pick]->stepOnce();
        next[pick] = pending(*systems_[pick]);
    }
}

double
ThroughputSim::aggregateIPC() const
{
    double ipc = 0;
    for (const auto &sys : systems_)
        ipc += sys->aggregateIPC();
    return ipc;
}

} // namespace cable
