/**
 * @file
 * ThroughputSim tests (Fig 14 methodology): bandwidth-share
 * arithmetic, group scheduling, and the headline effect — at high
 * thread counts, compression converts bandwidth into throughput for
 * memory-bound workloads but not compute-bound ones.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <unistd.h>

#include "sim/throughput.h"

using namespace cable;

namespace
{

MemSystemConfig
threadCfg(const std::string &scheme)
{
    MemSystemConfig cfg;
    cfg.scheme = scheme;
    cfg.timing = true;
    cfg.l1_bytes = 4 << 10;
    cfg.l2_bytes = 16 << 10;
    cfg.llc_bytes_per_thread = 128 << 10;
    cfg.l4_bytes_per_thread = 512 << 10;
    return cfg;
}

} // namespace

TEST(Throughput, GroupBandwidthShare)
{
    ThroughputSim sim(threadCfg("raw"), benchmarkProfile("povray"),
                      2048, 8, 76.8);
    EXPECT_NEAR(sim.groupBandwidthGBs(), 76.8 * 8 / 2048, 1e-9);
    EXPECT_EQ(sim.groupSize(), 8u);
    // The shared link runs at the equivalent frequency.
    EXPECT_NEAR(sim.link().bitsPerCoreCycle(),
                sim.groupBandwidthGBs() * 8 / 2.0, 1e-9);
}

TEST(Throughput, AllThreadsComplete)
{
    ThroughputSim sim(threadCfg("raw"), benchmarkProfile("hmmer"),
                      256, 4);
    sim.run(3000);
    for (unsigned i = 0; i < sim.groupSize(); ++i)
        EXPECT_TRUE(sim.system(i).allThreadsReached(3000));
    EXPECT_GT(sim.aggregateIPC(), 0.0);
}

TEST(Throughput, CompressionHelpsWhenBandwidthBound)
{
    // 2048 threads: a memory-bound workload is starved on the raw
    // link; CABLE converts its ratio into throughput (Fig 14a).
    ThroughputSim raw(threadCfg("raw"), benchmarkProfile("mcf"),
                      2048, 4);
    ThroughputSim cable(threadCfg("cable"), benchmarkProfile("mcf"),
                        2048, 4);
    raw.run(4000);
    cable.run(4000);
    EXPECT_GT(cable.aggregateIPC(), raw.aggregateIPC() * 1.5);
}

TEST(Throughput, ComputeBoundGainsLittle)
{
    // Warm the hot set first so compulsory misses don't masquerade
    // as steady-state bandwidth demand (the paper's 100M-warmup,
    // 30M-measured SimPoint methodology in miniature).
    ThroughputSim raw(threadCfg("raw"), benchmarkProfile("povray"),
                      2048, 4);
    ThroughputSim cable(threadCfg("cable"),
                        benchmarkProfile("povray"), 2048, 4);
    raw.run(6000, 8000);
    cable.run(6000, 8000);
    double speedup = cable.aggregateIPC() / raw.aggregateIPC();
    EXPECT_LT(speedup, 1.3);
    EXPECT_GT(speedup, 0.7);
}

TEST(Throughput, GainGrowsWithThreadCount)
{
    // Fig 14b: at low thread counts bandwidth is plentiful and the
    // schemes tie; at high counts CABLE pulls ahead.
    double speedup_low, speedup_high;
    {
        ThroughputSim raw(threadCfg("raw"), benchmarkProfile("mcf"),
                          64, 4);
        ThroughputSim cable(threadCfg("cable"),
                            benchmarkProfile("mcf"), 64, 4);
        raw.run(3000);
        cable.run(3000);
        speedup_low = cable.aggregateIPC() / raw.aggregateIPC();
    }
    {
        ThroughputSim raw(threadCfg("raw"), benchmarkProfile("mcf"),
                          2048, 4);
        ThroughputSim cable(threadCfg("cable"),
                            benchmarkProfile("mcf"), 2048, 4);
        raw.run(3000);
        cable.run(3000);
        speedup_high = cable.aggregateIPC() / raw.aggregateIPC();
    }
    EXPECT_GT(speedup_high, speedup_low);
}

namespace
{

/** Resident memory of this process in bytes (/proc/self/statm). */
long
residentBytes()
{
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    long size = 0, resident = -1;
    if (f) {
        if (std::fscanf(f, "%ld %ld", &size, &resident) != 2)
            resident = -1;
        std::fclose(f);
    }
    return resident * ::sysconf(_SC_PAGESIZE);
}

} // namespace

TEST(Throughput, BuildingTheGroupCostsOnlyTouchedMemory)
{
    // cable_sim throughput's default group: eight systems, each with
    // a 1 MB LLC slice, a 4 MB L4 slice and a CABLE endpoint (two
    // signature hash tables and a WMT), about 60 MB of rows. The
    // rows are untouched zero pages until a run writes them.
    long before = residentBytes();
    ASSERT_GT(before, 0);
    ThroughputSim sim(MemSystemConfig{}, benchmarkProfile("mcf"), 2048,
                      8);
    long grown = residentBytes() - before;
    EXPECT_LT(grown, 8l << 20) << grown / 1024 << " KiB";
    EXPECT_EQ(sim.groupSize(), 8u);
}

TEST(ThroughputDeath, GroupLargerThanTotalIsFatal)
{
    EXPECT_EXIT(ThroughputSim(threadCfg("raw"),
                              benchmarkProfile("mcf"), 4, 8),
                ::testing::ExitedWithCode(1), "below group size");
}
