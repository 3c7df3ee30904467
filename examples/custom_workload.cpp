/**
 * @file
 * Defining your own workload: build a WorkloadProfile from scratch
 * and drive a CABLE channel with its access stream by hand — the
 * lowest-level public API tour.
 *
 *   $ ./custom_workload
 */

#include <cstdio>

#include "core/channel.h"
#include "workload/access_gen.h"
#include "workload/value_model.h"

using namespace cable;

int
main()
{
    // 1. Describe the workload: a pointer-chasing program over 8MB
    //    whose objects come from 32 allocation site "templates",
    //    mutated per object — prime CABLE territory.
    WorkloadProfile prof;
    prof.name = "ptrchase";
    prof.value.zero_line_frac = 0.10;
    prof.value.zero_word_frac = 0.25;
    prof.value.template_count = 32;
    prof.value.region_lines = 4;
    prof.value.template_vocab = 6;
    prof.value.mutation_rate = 0.08;
    prof.value.pointer_frac = 0.5;
    prof.access.mem_ratio = 0.33;
    prof.access.store_frac = 0.2;
    prof.access.ws_lines = 128 << 10; // 8MB
    prof.access.hot_frac = 0.6;
    prof.access.hot_lines = 2048;
    prof.access.seq_frac = 0.05;
    prof.access.stride_frac = 0.05;

    // 2. Replay its access stream against a raw CABLE channel: an
    //    L4-sized home cache backing an LLC-sized remote cache.
    const Addr base = Addr{1} << 40;
    AccessGen gen(prof.access, base, /*seed=*/7);
    Cache home({"l4", 4u << 20, 16});
    Cache remote({"llc", 1u << 20, 8});
    CableConfig ccfg;
    ccfg.engine = "lbe";
    CableChannel channel(home, remote, ccfg);
    SyntheticMemory mem(prof.value, base, /*value_seed=*/7);

    const std::uint64_t ops = 80000;
    std::uint64_t instructions = 0, hits = 0, fetches = 0;
    for (std::uint64_t i = 0; i < ops; ++i) {
        MemOp op = gen.next();
        instructions += 1 + op.gap;
        Addr la = lineAlign(op.addr);
        if (remote.access(la)) {
            ++hits;
            if (op.store
                && !remote.dirtyAt(remote.find(la)))
                channel.remoteUpgrade(la);
            continue;
        }
        if (!home.probe(la))
            (void)channel.homeInstall(la, mem.lineAt(la));
        (void)channel.remoteFetch(la, op.store);
        ++fetches;
    }

    const StatSet &s = channel.stats();
    std::printf("%s: %llu ops (%llu instructions)\n", prof.name.c_str(),
                static_cast<unsigned long long>(ops),
                static_cast<unsigned long long>(instructions));
    std::printf("LLC hits %llu, off-chip fetches %llu\n",
                static_cast<unsigned long long>(hits),
                static_cast<unsigned long long>(fetches));
    std::printf("link compression: %.2fx bit-level, %.2fx effective "
                "(16-bit flits)\n",
                channel.compressionRatio(),
                s.ratio("raw_flits16", "wire_flits16"));
    std::printf("reference usage: %llu/%llu/%llu responses with "
                "1/2/3 refs, %llu self-compressed, %llu raw\n",
                static_cast<unsigned long long>(s.get("refs_1")),
                static_cast<unsigned long long>(s.get("refs_2")),
                static_cast<unsigned long long>(s.get("refs_3")),
                static_cast<unsigned long long>(s.get("self_only")),
                static_cast<unsigned long long>(s.get("raw_sends")));
    return 0;
}
