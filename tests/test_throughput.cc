/**
 * @file
 * ThroughputSim tests (Fig 14 methodology): bandwidth-share
 * arithmetic, group scheduling, and the headline effect — at high
 * thread counts, compression converts bandwidth into throughput for
 * memory-bound workloads but not compute-bound ones.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>
#include <string>
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

namespace
{

/** ThroughputSim::runUntil's schedule driven through stepOnce()
 *  alone: the earliest pending system (lowest index on a tie) goes
 *  next, each op recorded and replayed in one step. */
void
stepUntil(ThroughputSim &sim, std::uint64_t ops)
{
    while (true) {
        MemLinkSystem *next = nullptr;
        for (unsigned i = 0; i < sim.groupSize(); ++i) {
            MemLinkSystem &sys = sim.system(i);
            if (!sys.allThreadsReached(ops)
                && (!next || sys.nextEventTime() < next->nextEventTime()))
                next = &sys;
        }
        if (!next)
            return;
        next->stepOnce();
    }
}

std::string
dumped(const StatSet &s)
{
    std::ostringstream os;
    s.dump(os);
    return os.str();
}

/** Every per-thread clock and count, each system's protocol stats
 *  and the shared link's, as one comparable string. */
std::string
stateOf(ThroughputSim &sim)
{
    std::ostringstream os;
    for (unsigned i = 0; i < sim.groupSize(); ++i) {
        MemLinkSystem &sys = sim.system(i);
        for (unsigned t = 0; t < sys.numThreads(); ++t)
            os << "system " << i << " thread " << t << " time "
               << sys.threadTime(t) << " instrs " << sys.instructions(t)
               << "\n";
        os << dumped(sys.protocol().stats());
    }
    os << dumped(sim.link().stats());
    return os.str();
}

/** The measured ops of every system: exactly @p ops. */
void
expectOps(ThroughputSim &sim, std::uint64_t ops)
{
    for (unsigned i = 0; i < sim.groupSize(); ++i) {
        EXPECT_TRUE(sim.system(i).allThreadsReached(ops)) << i;
        EXPECT_FALSE(sim.system(i).allThreadsReached(ops + 1)) << i;
    }
}

} // namespace

TEST(Throughput, ParallelRunMatchesSerial)
{
    // The functional halves run ahead on up to 8 workers, a batch
    // per system; the replay must reproduce the one-op-at-a-time
    // stepOnce() run exactly. Prefetching gives ops several fills.
    constexpr std::uint64_t kWarmup = 2000, kOps = 1500;
    MemSystemConfig cfg = threadCfg("cable");
    cfg.prefetch_degree = 2;

    ThroughputSim serial(cfg, benchmarkProfile("mcf"), 2048, 8);
    ASSERT_EQ(serial.system(0).recordable(kWarmup),
              MemLinkSystem::kTapeOps);
    stepUntil(serial, kWarmup);
    for (unsigned i = 0; i < serial.groupSize(); ++i)
        serial.system(i).beginMeasurement();
    stepUntil(serial, kOps);
    expectOps(serial, kOps);
    const std::string want = stateOf(serial);

    for (unsigned jobs : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        ThroughputSim sim(cfg, benchmarkProfile("mcf"), 2048, 8);
        sim.run(kOps, kWarmup, jobs);
        expectOps(sim, kOps);
        for (unsigned i = 0; i < sim.groupSize(); ++i)
            EXPECT_EQ(sim.system(i).pendingOps(), 0u) << i;
        EXPECT_EQ(stateOf(sim), want);
        EXPECT_EQ(sim.aggregateIPC(), serial.aggregateIPC());
    }
}

TEST(Throughput, FaultsRunInLockstep)
{
    // Periodic audits read the clock, so a faulty system records
    // each op just before its replay: any worker count must match
    // the stepOnce() run.
    MemSystemConfig cfg = threadCfg("cable");
    cfg.fault.bit_error_rate = 1e-4;
    cfg.fault.drop_sync_rate = 1e-3;
    cfg.fault.meta_corrupt_rate = 1e-4;
    cfg.fault_audit_period = 1000;

    constexpr std::uint64_t kWarmup = 1500, kOps = 1500;
    ThroughputSim serial(cfg, benchmarkProfile("mcf"), 2048, 4);
    EXPECT_EQ(serial.system(0).recordable(kWarmup), 0u);
    stepUntil(serial, kWarmup);
    for (unsigned i = 0; i < serial.groupSize(); ++i)
        serial.system(i).beginMeasurement();
    stepUntil(serial, kOps);
    std::uint64_t retransmits = 0;
    for (unsigned i = 0; i < serial.groupSize(); ++i)
        retransmits +=
            serial.system(i).protocol().stats().get("retransmits");
    EXPECT_GT(retransmits, 0u);

    for (unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        ThroughputSim sim(cfg, benchmarkProfile("mcf"), 2048, 4);
        sim.run(kOps, kWarmup, jobs);
        EXPECT_EQ(stateOf(sim), stateOf(serial));
        EXPECT_EQ(sim.aggregateIPC(), serial.aggregateIPC());
    }
}

TEST(ThroughputDeath, GroupLargerThanTotalIsFatal)
{
    EXPECT_EXIT(ThroughputSim(threadCfg("raw"),
                              benchmarkProfile("mcf"), 4, 8),
                ::testing::ExitedWithCode(1), "below group size");
}
