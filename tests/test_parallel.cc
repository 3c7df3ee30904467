/**
 * @file
 * Determinism tests for the worker-pool driver: parallelFor and
 * WorkerPool rounds must cover every index exactly once and
 * propagate failures, and a
 * MultiChipBatch must produce bit-identical merged statistics for
 * every worker count (the `--jobs N == --jobs 1` contract in
 * common/worker_pool.h).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <mutex>
#include <set>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cache/cache.h"
#include "common/alloc_guard.h"
#include "common/rng.h"
#include "common/worker_pool.h"
#include "core/channel.h"
#include "sim/fault.h"
#include "sim/multichip.h"
#include "workload/profile.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

std::string
dumped(const StatSet &s)
{
    std::ostringstream os;
    s.dump(os);
    return os.str();
}

} // namespace

TEST(ParallelFor, CoversEveryIndexExactlyOnce)
{
    for (unsigned jobs : {0u, 1u, 2u, 7u, 64u}) {
        std::vector<std::atomic<int>> hits(100);
        parallelFor(hits.size(), jobs,
                    [&](std::size_t i) { ++hits[i]; });
        for (std::size_t i = 0; i < hits.size(); ++i)
            EXPECT_EQ(hits[i].load(), 1) << "index " << i;
    }
}

TEST(ParallelFor, ZeroWorkIsANoop)
{
    bool ran = false;
    parallelFor(0, 8, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(ParallelFor, WritesToPerIndexSlotsInOrder)
{
    std::vector<std::size_t> slots(257, 0);
    parallelFor(slots.size(), 8,
                [&](std::size_t i) { slots[i] = i * i; });
    for (std::size_t i = 0; i < slots.size(); ++i)
        EXPECT_EQ(slots[i], i * i);
}

TEST(ParallelFor, RethrowsWorkerExceptionAfterJoin)
{
    std::vector<std::atomic<int>> hits(64);
    EXPECT_THROW(parallelFor(hits.size(), 4,
                             [&](std::size_t i) {
                                 ++hits[i];
                                 if (i == 13)
                                     throw std::runtime_error("boom");
                             }),
                 std::runtime_error);
    // Remaining indices still ran despite the failure.
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 1) << "index " << i;
}

TEST(ParallelFor, InlineWhenSingleJob)
{
    std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ids(8);
    parallelFor(ids.size(), 1, [&](std::size_t i) {
        ids[i] = std::this_thread::get_id();
    });
    for (const auto &id : ids)
        EXPECT_EQ(id, caller);
}

TEST(WorkerPool, RoundsReuseTheSameThreads)
{
    // Many short rounds on one pool: every index once per round, and
    // never more threads than jobs (the caller among them).
    WorkerPool pool(4);
    std::mutex mu;
    std::set<std::thread::id> ids;
    for (int round = 0; round < 50; ++round) {
        std::vector<std::atomic<int>> hits(16);
        pool.run(hits.size(), [&](std::size_t i) {
            ++hits[i];
            std::lock_guard<std::mutex> lock(mu);
            ids.insert(std::this_thread::get_id());
        });
        for (std::size_t i = 0; i < hits.size(); ++i)
            ASSERT_EQ(hits[i].load(), 1) << "round " << round;
    }
    EXPECT_LE(ids.size(), 4u);
    EXPECT_TRUE(ids.count(std::this_thread::get_id()));
}

TEST(WorkerPool, SerialRoundRunsOnTheCaller)
{
    WorkerPool pool(4);
    std::thread::id caller = std::this_thread::get_id();
    std::vector<std::thread::id> ids(8);
    pool.run(
        ids.size(),
        [&](std::size_t i) { ids[i] = std::this_thread::get_id(); },
        false);
    for (const auto &id : ids)
        EXPECT_EQ(id, caller);
}

TEST(WorkerPool, RethrowsAndStaysUsable)
{
    WorkerPool pool(3);
    std::vector<std::atomic<int>> hits(32);
    EXPECT_THROW(pool.run(hits.size(),
                          [&](std::size_t i) {
                              ++hits[i];
                              if (i == 7)
                                  throw std::runtime_error("boom");
                          }),
                 std::runtime_error);
    pool.run(hits.size(), [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < hits.size(); ++i)
        EXPECT_EQ(hits[i].load(), 2) << "index " << i;
}

TEST(HardwareJobs, AtLeastOne) { EXPECT_GE(hardwareJobs(), 1u); }

TEST(MultiChipBatch, SingleReplicaMatchesPlainSystem)
{
    MultiChipConfig cfg;
    cfg.seed = 42;
    const WorkloadProfile &prof = benchmarkProfile("mcf");

    MultiChipSystem plain(cfg, prof);
    plain.run(20000);

    MultiChipBatch batch(cfg, prof, 1);
    MultiChipBatchResult res = batch.run(20000, 4);

    EXPECT_EQ(dumped(res.link_stats), dumped(plain.linkStats()));
    EXPECT_DOUBLE_EQ(res.bit_ratio, plain.bitRatio());
    EXPECT_DOUBLE_EQ(res.effective_ratio, plain.effectiveRatio());
}

TEST(MultiChipBatch, JobsCountNeverChangesMergedStats)
{
    MultiChipConfig cfg;
    cfg.seed = 7;
    const WorkloadProfile &prof = benchmarkProfile("omnetpp");
    const unsigned replicas = 5;
    const std::uint64_t ops = 8000;

    MultiChipBatch batch(cfg, prof, replicas);
    MultiChipBatchResult ref = batch.run(ops, 1);
    for (unsigned jobs : {2u, 3u, 8u}) {
        MultiChipBatchResult res = batch.run(ops, jobs);
        EXPECT_EQ(dumped(res.link_stats), dumped(ref.link_stats))
            << "jobs=" << jobs;
        EXPECT_DOUBLE_EQ(res.bit_ratio, ref.bit_ratio);
        EXPECT_DOUBLE_EQ(res.effective_ratio, ref.effective_ratio);
    }
}

TEST(MultiChipBatch, ReplicaConfigsAreDistinctAndStable)
{
    MultiChipConfig cfg;
    cfg.seed = 3;
    MultiChipBatch batch(cfg, benchmarkProfile("mcf"), 4);

    // Replica 0 is the base config untouched.
    EXPECT_EQ(batch.replicaConfig(0).seed, cfg.seed);
    EXPECT_EQ(batch.replicaConfig(0).cable.hash_seed,
              cfg.cable.hash_seed);

    // Later replicas: derived seeds, pure function of the index.
    std::set<std::uint64_t> seeds;
    for (unsigned r = 0; r < 4; ++r) {
        MultiChipConfig a = batch.replicaConfig(r);
        MultiChipConfig b = batch.replicaConfig(r);
        EXPECT_EQ(a.seed, b.seed);
        EXPECT_EQ(a.cable.hash_seed, b.cable.hash_seed);
        seeds.insert(a.seed);
    }
    EXPECT_EQ(seeds.size(), 4u);
}

// ---------------------------------------------------------------------
// Encode-path allocation guard (runtime twin of lint rule R001)
// ---------------------------------------------------------------------

TEST(AllocGuard, HooksAreLinkedIntoThisBinary)
{
    // hooksLinked() only resolves when alloc_guard_hooks.cc is in
    // the link (the cable_alloc_hooks target), and its static
    // initializer must have flipped the installed flag.
    EXPECT_TRUE(alloc_guard::hooksLinked());
    EXPECT_TRUE(alloc_guard::hooksInstalled());
}

TEST(AllocGuard, ScopeObservesHeapAllocations)
{
    alloc_guard::Scope scope;
    EXPECT_EQ(scope.allocations(), 0u);
    {
        std::vector<int> v(1024, 7);
        // Keep the vector alive past the read so the allocation
        // cannot be elided.
        EXPECT_EQ(v[512], 7);
        EXPECT_GE(scope.allocations(), 1u);
    }
}

TEST(AllocGuard, SteadyStateEncodeSearchIsAllocationFree)
{
    // The whole encode runs out of SearchScratch, whose containers
    // keep their high-water capacity: the self draft, the search
    // pipeline (extract -> probe -> rank -> CBV -> select), the refs
    // draft and the winner's emission into the DIFF bitstream.
    // After a warm-up phase the channel's own allocation counter
    // must therefore stop moving: zero heap allocations per
    // steady-state encode, in both directions, whether the search
    // ran or the self ratio skipped it. Stores dirty remote lines,
    // so evictions write back and the remote->home search runs
    // beside the response one.
    //
    // Two inputs: fault-free, and metadata soft errors. Injected
    // hash-table bindings produce stale candidates, so the second
    // case drives the stale-hit accounting inside the search, which
    // the fault-free case never reaches.
    struct Case
    {
        const char *name;
        double meta_corrupt_rate;
    };
    for (const Case &c : {Case{"fault-free", 0.0},
                          Case{"metadata faults", 0.02}}) {
        SCOPED_TRACE(c.name);
        Cache home({"home", 1u << 20, 8});
        Cache remote({"remote", 256u << 10, 8});
        CableChannel channel(home, remote, CableConfig{});
        FaultConfig fcfg;
        fcfg.meta_corrupt_rate = c.meta_corrupt_rate;
        fcfg.seed = 5;
        FaultInjector faults(fcfg);
        if (faults.enabled())
            channel.setFaultModel(&faults);

        ValueProfile vp;
        vp.template_count = 16;
        vp.region_lines = 8;
        vp.template_vocab = 6;
        vp.mutation_rate = 0.05;
        SyntheticMemory mem(vp, 0, 21);
        Rng rng(22);

        auto access = [&](Addr addr, bool store) {
            if (!remote.access(addr)) {
                if (!home.probe(addr))
                    (void)channel.homeInstall(addr, mem.lineAt(addr));
                (void)channel.remoteFetch(addr, store);
            } else if (store
                       && !remote.dirtyAt(remote.find(addr))) {
                channel.remoteUpgrade(addr);
            }
            if (store) {
                // Diverge the remote copy so write-backs carry new
                // data.
                CacheLine d = remote.lineAt(remote.find(addr));
                d.setWord(0, d.word(0) + 1);
                remote.writeLine(addr, d, true);
            }
        };

        // Warm-up: drive enough distinct lines through both compress
        // paths that every scratch container reaches its high-water
        // capacity (the footprint exceeds the remote cache, so
        // searches keep happening instead of degenerating into
        // remote hits).
        for (int i = 0; i < 4000; ++i)
            access(rng.below(1 << 13) * kLineBytes, rng.chance(0.4));

        const StatSet &stats = channel.stats();
        std::uint64_t searches_before = stats.get("searches");
        std::uint64_t wb_searches_before = stats.get("wb_searches");
        std::uint64_t stale_before = stats.get("home_ht_stale_hits");
        std::uint64_t skips_before = stats.get("self_threshold_hits");
        std::uint64_t allocs_before = stats.get("search_allocs");
        for (int i = 0; i < 4000; ++i)
            access(rng.below(1 << 13) * kLineBytes, rng.chance(0.4));
        std::uint64_t new_searches =
            stats.get("searches") - searches_before;
        std::uint64_t new_wb_searches =
            stats.get("wb_searches") - wb_searches_before;

        EXPECT_GT(new_searches, 500u)
            << "workload stopped searching; the assertion below is "
               "vacuous";
        EXPECT_GT(new_wb_searches, 500u)
            << "write-back search never ran; the assertion below "
               "does not cover it";
        EXPECT_GT(stats.get("self_threshold_hits"), skips_before)
            << "no transfer skipped the search; the self-only encode "
               "is not covered";
        if (faults.enabled()) {
            EXPECT_GT(stats.get("home_ht_stale_hits"), stale_before)
                << "no stale candidate in the window; the metadata-"
                   "fault case does not cover the stale-hit path";
        }
        EXPECT_EQ(stats.get("search_allocs"), allocs_before)
            << "steady-state encode touched the heap";
    }
}

TEST(MultiChipBatch, MergedStatsScaleWithReplicas)
{
    MultiChipConfig cfg;
    cfg.seed = 11;
    const WorkloadProfile &prof = benchmarkProfile("mcf");
    MultiChipBatch one(cfg, prof, 1);
    MultiChipBatch four(cfg, prof, 4);
    std::uint64_t t1 =
        one.run(6000, 2).link_stats.get("transfers");
    std::uint64_t t4 =
        four.run(6000, 2).link_stats.get("transfers");
    EXPECT_GT(t1, 0u);
    // Four independent replicas move roughly four times the
    // transfers (not exactly: different seeds, different traffic).
    EXPECT_GT(t4, 2 * t1);
}
