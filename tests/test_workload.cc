/**
 * @file
 * Workload-generator tests: determinism, calibration of the access
 * mix (mem ratio, store fraction, hot/cold split), value-model
 * properties (zero lines, template similarity, byte shifts, shared
 * value seeds for SPECrate copies), written-back lines read back
 * exactly (against a whole-line map) and without per-store heap
 * allocation, and the profile registry.
 */

#include <gtest/gtest.h>

#include <bit>
#include <set>
#include <unordered_map>
#include <vector>

#include "common/alloc_guard.h"
#include "common/bitops.h"
#include "common/rng.h"
#include "workload/access_gen.h"
#include "workload/profile.h"
#include "workload/value_model.h"

using namespace cable;

TEST(Profiles, RegistryIsPopulated)
{
    auto all = spec2006Benchmarks();
    EXPECT_GE(all.size(), 25u);
    auto nontrivial = nonTrivialBenchmarks();
    EXPECT_LT(nontrivial.size(), all.size());
    // Zero-dominant group matches the paper's easy-to-compress set.
    std::set<std::string> nt(nontrivial.begin(), nontrivial.end());
    for (const char *b : {"mcf", "lbm", "libquantum"})
        EXPECT_EQ(nt.count(b), 0u) << b;
    for (const char *b : {"gcc", "dealII", "namd"})
        EXPECT_EQ(nt.count(b), 1u) << b;
}

TEST(Profiles, LookupByName)
{
    const WorkloadProfile &p = benchmarkProfile("mcf");
    EXPECT_EQ(p.name, "mcf");
    EXPECT_TRUE(p.zero_dominant);
    EXPECT_EXIT(benchmarkProfile("quake3"),
                ::testing::ExitedWithCode(1), "unknown benchmark");
}

TEST(Profiles, AllProfilesAreSane)
{
    for (const auto &name : spec2006Benchmarks()) {
        const WorkloadProfile &p = benchmarkProfile(name);
        EXPECT_GT(p.access.mem_ratio, 0.0) << name;
        EXPECT_LE(p.access.mem_ratio, 1.0) << name;
        EXPECT_GT(p.access.ws_lines, p.access.hot_lines) << name;
        EXPECT_GE(p.access.hot_frac, 0.5) << name;
        double fracs = p.value.zero_line_frac
                       + p.value.random_line_frac
                       + p.value.byte_shift_frac;
        EXPECT_LE(fracs, 1.0) << name;
        EXPECT_GE(p.value.template_count, 1u) << name;
        EXPECT_GE(p.value.template_vocab, 1u) << name;
    }
}

TEST(AccessGen, Deterministic)
{
    const WorkloadProfile &p = benchmarkProfile("gcc");
    AccessGen a(p.access, 1 << 20, 99);
    AccessGen b(p.access, 1 << 20, 99);
    for (int i = 0; i < 2000; ++i) {
        MemOp x = a.next(), y = b.next();
        EXPECT_EQ(x.addr, y.addr);
        EXPECT_EQ(x.store, y.store);
        EXPECT_EQ(x.gap, y.gap);
    }
}

TEST(AccessGen, SeedChangesStream)
{
    const WorkloadProfile &p = benchmarkProfile("gcc");
    AccessGen a(p.access, 1 << 20, 99);
    AccessGen b(p.access, 1 << 20, 100);
    bool differs = false;
    for (int i = 0; i < 100; ++i)
        if (a.next().addr != b.next().addr)
            differs = true;
    EXPECT_TRUE(differs);
}

TEST(AccessGen, MemRatioCalibrated)
{
    const WorkloadProfile &p = benchmarkProfile("mcf");
    AccessGen g(p.access, 0, 7);
    std::uint64_t instrs = 0, ops = 0;
    for (int i = 0; i < 50000; ++i) {
        MemOp op = g.next();
        instrs += op.gap + 1;
        ops += 1;
    }
    double ratio = static_cast<double>(ops)
                   / static_cast<double>(instrs);
    EXPECT_NEAR(ratio, p.access.mem_ratio, 0.04);
}

TEST(AccessGen, StoreFractionCalibrated)
{
    const WorkloadProfile &p = benchmarkProfile("lbm");
    AccessGen g(p.access, 0, 7);
    int stores = 0;
    const int n = 50000;
    for (int i = 0; i < n; ++i)
        stores += g.next().store;
    EXPECT_NEAR(static_cast<double>(stores) / n,
                p.access.store_frac, 0.02);
}

TEST(AccessGen, AddressesStayInWorkingSet)
{
    const WorkloadProfile &p = benchmarkProfile("povray");
    Addr base = Addr{3} << 40;
    AccessGen g(p.access, base, 1);
    for (int i = 0; i < 20000; ++i) {
        Addr a = g.next().addr;
        EXPECT_GE(a, base);
        EXPECT_LT(a, base + p.access.ws_lines * kLineBytes);
    }
}

TEST(AccessGen, HotSetConcentratesAccesses)
{
    // With hot_frac = 0.95, unique lines touched are far fewer than
    // ops; a cold-only stream touches many more.
    AccessProfile hot;
    hot.ws_lines = 1 << 20;
    hot.hot_frac = 0.95;
    hot.hot_lines = 512;
    AccessProfile cold = hot;
    cold.hot_frac = 0.0;

    std::set<std::uint64_t> hot_lines, cold_lines;
    AccessGen gh(hot, 0, 5), gc(cold, 0, 5);
    for (int i = 0; i < 20000; ++i) {
        hot_lines.insert(lineNumber(gh.next().addr));
        cold_lines.insert(lineNumber(gc.next().addr));
    }
    EXPECT_LT(hot_lines.size() * 4, cold_lines.size());
}

TEST(AccessGen, PhasesMoveTheHotSet)
{
    AccessProfile p;
    p.ws_lines = 1 << 20;
    p.hot_frac = 1.0;
    p.hot_lines = 64;
    p.phases = 4;
    AccessGen g(p, 0, 9, /*ops_per_phase=*/1000);
    std::set<std::uint64_t> phase0, phase1;
    for (int i = 0; i < 1000; ++i)
        phase0.insert(lineNumber(g.next().addr));
    for (int i = 0; i < 1000; ++i)
        phase1.insert(lineNumber(g.next().addr));
    // Hot windows of different phases should barely overlap.
    std::size_t common = 0;
    for (auto l : phase1)
        common += phase0.count(l);
    EXPECT_LT(common, phase1.size() / 2);
}

TEST(ValueModel, Deterministic)
{
    ValueProfile v;
    SyntheticMemory a(v, 0, 42), b(v, 0, 42);
    for (Addr addr = 0; addr < 100 * kLineBytes; addr += kLineBytes)
        EXPECT_EQ(a.lineAt(addr), b.lineAt(addr));
}

TEST(ValueModel, ZeroLineFractionCalibrated)
{
    ValueProfile v;
    v.zero_line_frac = 0.4;
    SyntheticMemory m(v, 0, 1);
    int zeros = 0;
    const int n = 5000;
    for (int i = 0; i < n; ++i)
        zeros += m.lineAt(static_cast<Addr>(i) * kLineBytes).isZero();
    EXPECT_NEAR(static_cast<double>(zeros) / n, 0.4, 0.05);
}

TEST(ValueModel, RegionLinesShareTemplates)
{
    ValueProfile v;
    v.zero_line_frac = 0.0;
    v.random_line_frac = 0.0;
    v.region_lines = 8;
    v.mutation_rate = 0.05;
    SyntheticMemory m(v, 0, 2);
    // Lines 0 and 1 are in the same region: mostly equal words.
    CacheLine a = m.lineAt(0), b = m.lineAt(kLineBytes);
    unsigned same = 0;
    for (unsigned w = 0; w < kWordsPerLine; ++w)
        same += a.word(w) == b.word(w);
    EXPECT_GE(same, 12u);
}

TEST(ValueModel, SameSeedSameContentAcrossAddressSpaces)
{
    // The SPECrate property behind Fig 15: two copies with the same
    // value seed carry identical data at the same offsets.
    ValueProfile v;
    SyntheticMemory a(v, Addr{1} << 40, 7);
    SyntheticMemory b(v, Addr{2} << 40, 7);
    for (unsigned i = 0; i < 200; ++i) {
        Addr off = static_cast<Addr>(i) * kLineBytes;
        EXPECT_EQ(a.lineAt((Addr{1} << 40) + off),
                  b.lineAt((Addr{2} << 40) + off));
    }
}

TEST(ValueModel, DifferentSeedsDiffer)
{
    ValueProfile v;
    v.zero_line_frac = 0.0;
    SyntheticMemory a(v, 0, 7), b(v, 0, 8);
    unsigned equal = 0;
    for (unsigned i = 0; i < 100; ++i) {
        Addr addr = static_cast<Addr>(i) * kLineBytes;
        equal += a.lineAt(addr) == b.lineAt(addr);
    }
    EXPECT_LT(equal, 20u);
}

TEST(ValueModel, StoreOverridesPersist)
{
    ValueProfile v;
    SyntheticMemory m(v, 0, 3);
    CacheLine modified = CacheLine::filledWords(0x5555);
    m.storeLine(0x100, modified);
    EXPECT_EQ(m.lineAt(0x100), modified);
    EXPECT_EQ(m.lineAt(0x140), m.generate(lineNumber(0x140)));
}

TEST(ValueModel, StoresMatchWholeLineReference)
{
    // Written-back lines are kept as differences from generate();
    // a map of whole lines is the reference. The store mix covers
    // each form a line can take: equal to the generated line, one
    // changed word (every position), two changed words, random
    // lines, and re-stores of the same line through one word -> two
    // words -> one word -> unchanged.
    const ValueProfile &v = benchmarkProfile("mcf").value;
    constexpr std::uint64_t kLines = 6000;
    for (Addr base : {Addr{0}, Addr{1} << 40}) {
        SCOPED_TRACE(base);
        SyntheticMemory m(v, base, 11);
        std::unordered_map<Addr, CacheLine> ref;
        Rng rng(base + 3);
        auto expected = [&](Addr la) {
            auto it = ref.find(la);
            return it != ref.end() ? it->second
                                   : m.generate(lineNumber(la - base));
        };
        auto withWord = [&](CacheLine line, unsigned w) {
            line.setWord(w, line.word(w)
                                ^ static_cast<std::uint32_t>(
                                    rng.next() | 1));
            return line;
        };
        auto store = [&](Addr la, const CacheLine &data) {
            m.storeLine(la + rng.below(kLineBytes), data);
            ref[la] = data;
        };
        auto check = [&](Addr la) {
            ASSERT_EQ(m.lineAt(la + rng.below(kLineBytes)), expected(la))
                << std::hex << la;
        };
        std::uint32_t one_word_positions = 0;
        for (unsigned op = 0; op < 40000; ++op) {
            Addr la = base + rng.below(kLines) * kLineBytes;
            CacheLine gen = m.generate(lineNumber(la - base));
            switch (rng.below(7)) {
              case 0:
                store(la, gen);
                break;
              case 1: {
                auto w = static_cast<unsigned>(op % kWordsPerLine);
                one_word_positions |= 1u << w;
                store(la, withWord(gen, w));
                break;
              }
              case 2: {
                auto w1 = static_cast<unsigned>(rng.below(kWordsPerLine));
                auto w2 = static_cast<unsigned>(
                    (w1 + 1 + rng.below(kWordsPerLine - 1))
                    % kWordsPerLine);
                store(la, withWord(withWord(gen, w1), w2));
                break;
              }
              case 3: {
                CacheLine line;
                for (unsigned w = 0; w < kLineBytes / 8; ++w)
                    line.setWord64(w, rng.next());
                store(la, line);
                break;
              }
              case 4: {
                auto w = static_cast<unsigned>(rng.below(kWordsPerLine));
                store(la, withWord(gen, w));
                check(la);
                store(la, withWord(withWord(gen, w),
                                   (w + 5) % kWordsPerLine));
                check(la);
                store(la, withWord(gen, (w + 9) % kWordsPerLine));
                check(la);
                store(la, gen);
                break;
              }
              default:
                check(la);
                break;
            }
            if (HasFatalFailure())
                return;
        }
        EXPECT_EQ(one_word_positions, 0xffffu);
        // The table starts at 64 slots and doubles at 3/4 load, so
        // more than 384 lines means at least three growths.
        EXPECT_GT(ref.size(), 384u);
        for (std::uint64_t i = 0; i < kLines; ++i)
            ASSERT_EQ(m.lineAt(base + i * kLineBytes),
                      expected(base + i * kLineBytes))
                << i;
    }
}

TEST(ValueModelDeathTest, StoreBelowBasePanics)
{
    SyntheticMemory m(ValueProfile{}, Addr{1} << 40, 1);
    EXPECT_DEATH(m.storeLine((Addr{1} << 40) - kLineBytes, CacheLine{}),
                 "below base");
}

TEST(ValueModel, OneWordStoresAllocateOnlyForTableGrowth)
{
    ASSERT_TRUE(alloc_guard::hooksLinked());
    ValueProfile v;
    SyntheticMemory m(v, 0, 5);
    constexpr unsigned kStores = 10000;
    std::vector<CacheLine> lines;
    lines.reserve(kStores);
    for (unsigned i = 0; i < kStores; ++i) {
        CacheLine line = m.generate(i);
        line.setWord(i % kWordsPerLine, ~line.word(i % kWordsPerLine));
        lines.push_back(line);
    }
    std::uint64_t store_allocs = 0;
    {
        alloc_guard::Scope scope;
        for (unsigned i = 0; i < kStores; ++i)
            m.storeLine(Addr{i} * kLineBytes, lines[i]);
        store_allocs = scope.allocations();
    }
    EXPECT_LE(store_allocs, std::bit_width(kStores) - 1u);

    // A pooled line (two changed words) too: reads never allocate,
    // whatever form the line is kept in.
    CacheLine two = m.generate(kStores);
    two.setWord(0, ~two.word(0));
    two.setWord(1, ~two.word(1));
    m.storeLine(Addr{kStores} * kLineBytes, two);
    std::uint64_t read_allocs = 0;
    std::uint64_t mismatches = 0;
    {
        alloc_guard::Scope scope;
        for (unsigned i = 0; i < 2 * kStores; ++i) {
            CacheLine got = m.lineAt(Addr{i} * kLineBytes);
            if (i < kStores)
                mismatches += got != lines[i];
            else if (i == kStores)
                mismatches += got != two;
        }
        read_allocs = scope.allocations();
    }
    EXPECT_EQ(read_allocs, 0u);
    EXPECT_EQ(mismatches, 0u);
}

TEST(ValueModel, ByteShiftLinesAreRotations)
{
    ValueProfile v;
    v.zero_line_frac = 0.0;
    v.random_line_frac = 0.0;
    v.byte_shift_frac = 1.0;
    v.mutation_rate = 0.0;
    v.region_lines = 1024; // one template for everything
    SyntheticMemory m(v, 0, 4);
    // All lines are rotations of one template: any two lines should
    // match under some rotation.
    CacheLine a = m.lineAt(0);
    CacheLine b = m.lineAt(kLineBytes);
    bool rotation_found = false;
    for (unsigned s = 0; s < kLineBytes && !rotation_found; ++s) {
        bool all = true;
        for (unsigned i = 0; i < kLineBytes; ++i) {
            if (a.byte((i + s) % kLineBytes) != b.byte(i)) {
                all = false;
                break;
            }
        }
        rotation_found = all;
    }
    EXPECT_TRUE(rotation_found);
}
