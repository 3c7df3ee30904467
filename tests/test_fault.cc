/**
 * @file
 * Fault-injection and recovery tests: CRC framing detects wire
 * corruption, the ARQ path retries with backoff and falls back to
 * raw, lost sync messages desynchronize only CABLE metadata (never
 * delivered data), the periodic audit catches and repairs desyncs,
 * degraded mode re-arms after a healthy window, resync work lands
 * in one t_stage_resync_ns sample per control event, and the whole
 * injection pipeline is deterministic under a fixed seed.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "cache/cache.h"
#include "common/crc.h"
#include "common/rng.h"
#include "core/channel.h"
#include "core/checkpoint.h"
#include "sim/fault.h"
#include "sim/memlink.h"
#include "telemetry/trace.h"
#include "workload/profile.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

BitVec
patternFrame(std::size_t body_bits, unsigned crc_bits,
             std::uint64_t seed)
{
    Rng rng(seed);
    BitWriter bw;
    for (std::size_t i = 0; i < body_bits; ++i)
        bw.put(rng.next() & 1, 1);
    appendFrameCrc(bw, crc_bits);
    return bw.take();
}

/** Deterministic, test-scripted fault model. */
struct ScriptedFault : LinkFaultModel
{
    unsigned corrupt_packets = 0; ///< flip bit 0 of this many packets
    bool drop_next_sync = false;

    unsigned
    corruptPacket(BitVec &wire) override
    {
        if (corrupt_packets == 0 || wire.sizeBits() == 0)
            return 0;
        --corrupt_packets;
        wire.flipBit(0);
        return 1;
    }

    bool
    dropSyncMessage() override
    {
        bool drop = drop_next_sync;
        drop_next_sync = false;
        return drop;
    }

    bool corruptMetadata() override { return false; }
    std::uint64_t pick(std::uint64_t) override { return 0; }
};

struct Rig
{
    Cache home;
    Cache remote;
    CableChannel channel;

    explicit Rig(const CableConfig &cfg = CableConfig{})
        : home({"home", 1u << 20, 8}), remote({"remote", 256u << 10, 8}),
          channel(home, remote, cfg)
    {
    }

    FetchResult
    fetch(SyntheticMemory &mem, Addr addr, bool store = false)
    {
        if (remote.access(addr)) {
            if (store && !remote.dirtyAt(remote.find(addr)))
                channel.remoteUpgrade(addr);
            return FetchResult{};
        }
        if (!home.probe(addr))
            (void)channel.homeInstall(addr, mem.lineAt(addr));
        return channel.remoteFetch(addr, store);
    }
};

ValueProfile
similarValues()
{
    ValueProfile v;
    v.zero_line_frac = 0.1;
    v.zero_word_frac = 0.3;
    v.template_count = 16;
    v.region_lines = 8;
    v.template_vocab = 6;
    v.mutation_rate = 0.05;
    v.random_line_frac = 0.05;
    return v;
}

} // namespace

// ---------------------------------------------------------------------
// CRC framing
// ---------------------------------------------------------------------

TEST(Crc, AcceptsCleanFrames)
{
    for (unsigned crc_bits : {8u, 16u})
        for (std::size_t body : {1u, 37u, 512u})
            EXPECT_TRUE(
                checkFrameCrc(patternFrame(body, crc_bits, body),
                              crc_bits))
                << crc_bits << "b CRC, body " << body;
}

TEST(Crc, DetectsEverySingleBitFlip)
{
    for (unsigned crc_bits : {8u, 16u}) {
        BitVec frame = patternFrame(131, crc_bits, 7);
        for (std::size_t i = 0; i < frame.sizeBits(); ++i) {
            frame.flipBit(i);
            EXPECT_FALSE(checkFrameCrc(frame, crc_bits))
                << crc_bits << "b CRC missed flip at bit " << i;
            frame.flipBit(i);
        }
    }
}

TEST(Crc, DetectsEveryBurstUpToCrcWidth)
{
    // Any CRC of width w detects all burst errors of length <= w.
    for (unsigned crc_bits : {8u, 16u}) {
        BitVec frame = patternFrame(99, crc_bits, 11);
        for (std::size_t len = 2; len <= crc_bits; ++len) {
            for (std::size_t s = 0; s + len <= frame.sizeBits();
                 s += 7) {
                // Burst = flipped endpoints, arbitrary interior.
                frame.flipBit(s);
                frame.flipBit(s + len - 1);
                EXPECT_FALSE(checkFrameCrc(frame, crc_bits))
                    << crc_bits << "b CRC missed burst at " << s
                    << " len " << len;
                frame.flipBit(s);
                frame.flipBit(s + len - 1);
            }
        }
    }
}

TEST(Crc, RejectsTruncatedFrames)
{
    BitVec tiny;
    tiny.pushBit(true);
    EXPECT_FALSE(checkFrameCrc(tiny, 16));
    EXPECT_FALSE(checkFrameCrc(BitVec{}, 8));
}

// ---------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------

TEST(FaultInjector, DeterministicUnderFixedSeed)
{
    FaultConfig fc;
    fc.bit_error_rate = 0.02;
    fc.burst_rate = 0.1;
    fc.drop_sync_rate = 0.3;
    fc.meta_corrupt_rate = 0.2;
    fc.seed = 42;
    FaultInjector a(fc), b(fc);
    for (unsigned round = 0; round < 50; ++round) {
        BitVec wa = patternFrame(480, 16, round);
        BitVec wb = patternFrame(480, 16, round);
        unsigned fa = a.corruptPacket(wa);
        unsigned fb = b.corruptPacket(wb);
        EXPECT_EQ(fa, fb);
        for (std::size_t i = 0; i < wa.sizeBits(); ++i)
            ASSERT_EQ(wa.bit(i), wb.bit(i)) << "round " << round;
        EXPECT_EQ(a.dropSyncMessage(), b.dropSyncMessage());
        EXPECT_EQ(a.corruptMetadata(), b.corruptMetadata());
    }
    EXPECT_EQ(a.stats().get("faults_injected"),
              b.stats().get("faults_injected"));
    EXPECT_EQ(a.stats().get("bit_flips"), b.stats().get("bit_flips"));
}

TEST(FaultInjector, CertainErrorRateFlipsEveryBit)
{
    FaultConfig fc;
    fc.bit_error_rate = 1.0;
    FaultInjector inj(fc);
    BitVec clean = patternFrame(64, 8, 3);
    BitVec wire = patternFrame(64, 8, 3);
    EXPECT_EQ(inj.corruptPacket(wire), wire.sizeBits());
    for (std::size_t i = 0; i < wire.sizeBits(); ++i)
        EXPECT_NE(wire.bit(i), clean.bit(i));
}

TEST(FaultInjectorDeath, RejectsOutOfRangeProbabilities)
{
    FaultConfig fc;
    fc.bit_error_rate = 1.5;
    EXPECT_EXIT(FaultInjector{fc}, testing::ExitedWithCode(1),
                "bit_error_rate");
}

// ---------------------------------------------------------------------
// ARQ: detect -> NACK -> retransmit -> raw fallback
// ---------------------------------------------------------------------

TEST(FaultChannel, TransientCorruptionRetransmitsAndDelivers)
{
    Rig rig;
    ScriptedFault fault;
    rig.channel.setFaultModel(&fault);
    SyntheticMemory mem(similarValues(), 0, 1);

    fault.corrupt_packets = 2; // fewer than max_retries (3)
    auto r = rig.fetch(mem, 0x1000);
    EXPECT_EQ(r.response.retries, 2u);
    EXPECT_FALSE(r.response.raw_fallback);
    EXPECT_GT(r.response.retry_cycles, 0u);
    EXPECT_EQ(r.response.retrans_bits,
              2 * (r.response.bits + r.response.crc_bits));
    EXPECT_EQ(rig.channel.stats().get("crc_detected"), 2u);
    EXPECT_EQ(rig.channel.stats().get("retransmits"), 2u);
    EXPECT_EQ(rig.channel.stats().get("raw_fallbacks"), 0u);
    // Delivered data is bit-exact despite the corruption.
    EXPECT_EQ(rig.remote.lineAt(rig.remote.find(0x1000)),
              mem.lineAt(0x1000));
}

TEST(FaultChannel, PersistentCorruptionFallsBackToRaw)
{
    CableConfig cfg;
    Rig rig(cfg);
    ScriptedFault fault;
    rig.channel.setFaultModel(&fault);
    SyntheticMemory mem(similarValues(), 0, 2);

    fault.corrupt_packets = ~0u; // every packet, forever
    auto r = rig.fetch(mem, 0x2000);
    EXPECT_TRUE(r.response.raw_fallback);
    // max_retries compressed resends, then kRawResendCap raw sends
    // (the final one modeled as recovered by the physical layer).
    EXPECT_EQ(r.response.retries,
              cfg.max_retries + kRawResendCap - 1);
    EXPECT_EQ(rig.channel.stats().get("crc_detected"),
              cfg.max_retries + 1);
    EXPECT_EQ(rig.channel.stats().get("raw_fallbacks"), 1u);
    EXPECT_EQ(rig.channel.stats().get("raw_resend_cap_hits"), 1u);
    EXPECT_EQ(rig.remote.lineAt(rig.remote.find(0x2000)),
              mem.lineAt(0x2000));
}

// ---------------------------------------------------------------------
// Desync: lost sync messages, audit, recovery, re-arm
// ---------------------------------------------------------------------

TEST(FaultChannel, DroppedUpgradeSyncIsCaughtByAudit)
{
    Rig rig;
    ScriptedFault fault;
    rig.channel.setFaultModel(&fault);
    SyntheticMemory mem(similarValues(), 0, 3);

    rig.fetch(mem, 0x3000); // shared: tracked in WMT + tables
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);

    fault.drop_next_sync = true;
    rig.fetch(mem, 0x3000, /*store=*/true); // upgrade, notice lost
    EXPECT_EQ(rig.channel.stats().get("sync_drops_upgrade"), 1u);

    // The WMT still tracks a now-dirty remote line: invariant broken.
    unsigned mismatches = rig.channel.auditInvariant();
    EXPECT_GE(mismatches, 1u);
    EXPECT_EQ(rig.channel.stats().get("desync_recoveries"), 1u);
    EXPECT_TRUE(rig.channel.degraded());
    // Recovery flushed and resynchronized: a fresh audit is clean.
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);
}

TEST(FaultChannel, DroppedEvictionSyncIsCaughtByAudit)
{
    Rig rig;
    ScriptedFault fault;
    rig.channel.setFaultModel(&fault);
    SyntheticMemory mem(similarValues(), 0, 3);

    rig.fetch(mem, 0x3000); // shared: tracked in WMT + tables
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);

    fault.drop_next_sync = true;
    // Snoop invalidation of the clean copy: eviction notice lost.
    EXPECT_FALSE(rig.channel.remoteInvalidate(0x3000).has_value());
    EXPECT_EQ(rig.channel.stats().get("sync_drops_evict"), 1u);
    EXPECT_EQ(rig.channel.stats().get("sync_drops_upgrade"), 0u);

    // The WMT still tracks the now-empty remote slot.
    EXPECT_GE(rig.channel.auditInvariant(), 1u);
    EXPECT_EQ(rig.channel.stats().get("desync_recoveries"), 1u);
    EXPECT_TRUE(rig.channel.degraded());
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);
}

TEST(FaultChannel, DegradedModeReArmsAfterHealthyWindow)
{
    CableConfig cfg;
    cfg.rearm_window = 4;
    Rig rig(cfg);
    ScriptedFault fault;
    rig.channel.setFaultModel(&fault);
    SyntheticMemory mem(similarValues(), 0, 4);

    rig.fetch(mem, 0x4000);
    fault.drop_next_sync = true;
    rig.fetch(mem, 0x4000, /*store=*/true);
    (void)rig.channel.auditInvariant();
    ASSERT_TRUE(rig.channel.degraded());

    // Clean transfers in degraded mode use self compression only...
    for (unsigned i = 1; i <= 3; ++i) {
        rig.fetch(mem, 0x4000 + i * 0x10000);
        EXPECT_TRUE(rig.channel.degraded()) << "transfer " << i;
    }
    EXPECT_GT(rig.channel.stats().get("degraded_self_only"), 0u);
    // ...and the 4th clean transfer re-arms the reference search.
    rig.fetch(mem, 0x4000 + 4 * 0x10000);
    EXPECT_FALSE(rig.channel.degraded());
    EXPECT_EQ(rig.channel.stats().get("rearms"), 1u);
}

TEST(FaultChannel, MetadataCorruptionNeverCorruptsDeliveredData)
{
    FaultConfig fc;
    fc.meta_corrupt_rate = 1.0; // soft error on every transfer
    fc.drop_sync_rate = 0.2;
    fc.seed = 99;
    FaultInjector inj(fc);
    Rig rig;
    rig.channel.setFaultModel(&inj);
    SyntheticMemory mem(similarValues(), 0, 5);

    for (unsigned i = 0; i < 200; ++i) {
        Addr addr = i * kLineBytes;
        bool store = (i % 7) == 0;
        rig.fetch(mem, addr, store);
        if (!store) {
            ASSERT_EQ(rig.remote.lineAt(rig.remote.find(addr)),
                      mem.lineAt(addr))
                << "line " << i << " corrupted";
        }
        if (i % 50 == 49)
            (void)rig.channel.auditInvariant();
    }
    EXPECT_GT(inj.stats().get("meta_corruptions"), 0u);
    EXPECT_GT(rig.channel.stats().get("meta_faults_wmt")
                  + rig.channel.stats().get("meta_faults_ht"),
              0u);
}

// ---------------------------------------------------------------------
// CableDesyncError: structured, and fatal without a fault model
// ---------------------------------------------------------------------

TEST(FaultChannel, DesyncWithoutFaultModelPropagates)
{
    Rig rig;
    ValueProfile v;
    v.random_line_frac = 1.0; // incompressible alone: refs must win
    SyntheticMemory mem(v, 0, 6);

    Addr ref_addr = 0x5000, wb_addr = 0x6000;
    rig.fetch(mem, ref_addr); // clean shared: valid reference
    rig.fetch(mem, wb_addr);

    // Silently corrupt the home copy of the reference line — the
    // §III-F invariant is now broken with no fault model attached.
    LineID hlid = rig.home.find(ref_addr);
    ASSERT_TRUE(hlid.valid);
    CacheLine bad = rig.home.lineAt(hlid);
    bad.setWord(0, ~bad.word(0));
    rig.home.lineAt(hlid) = bad;

    // A write-back whose data duplicates the reference line picks it
    // via the remote hash table; home-side decode then mismatches.
    try {
        (void)rig.channel.writeBack(wb_addr, mem.lineAt(ref_addr));
        FAIL() << "expected CableDesyncError";
    } catch (const CableDesyncError &e) {
        EXPECT_TRUE(e.writeback);
        EXPECT_GE(e.refs.size(), 1u);
        EXPECT_NE(e.mismatch_word, CableDesyncError::kNoWord);
        EXPECT_NE(std::string(e.what()).find("write-back"),
                  std::string::npos);
    }
}

namespace
{

/**
 * Builds the deterministic delivery-desync setup: a clean shared
 * reference line whose home copy is silently corrupted, then a
 * write-back that duplicates the original reference data, which the
 * remote hash table picks as a reference and home-side decode then
 * rejects. Returns the write-back line to send.
 */
CacheLine
armDeliveryDesync(Rig &rig, SyntheticMemory &mem, Addr ref_addr)
{
    rig.fetch(mem, ref_addr);
    CacheLine original = mem.lineAt(ref_addr);
    LineID hlid = rig.home.find(ref_addr);
    EXPECT_TRUE(hlid.valid);
    CacheLine bad = rig.home.lineAt(hlid);
    bad.setWord(0, ~bad.word(0));
    rig.home.lineAt(hlid) = bad;
    return original;
}

} // namespace

TEST(FaultChannel, NonStrictDesyncRecoversInPlace)
{
    Rig rig; // strict_desync off: recovery is the default
    ScriptedFault fault;
    rig.channel.setFaultModel(&fault);
    ValueProfile v;
    v.random_line_frac = 1.0;
    SyntheticMemory mem(v, 0, 6);

    Addr wb_addr = 0x6000;
    rig.fetch(mem, wb_addr);
    CacheLine dup = armDeliveryDesync(rig, mem, 0x5000);

    Transfer t = rig.channel.writeBack(wb_addr, dup);
    EXPECT_TRUE(t.raw_fallback);
    EXPECT_EQ(rig.channel.stats().get("desyncs_detected"), 1u);
    EXPECT_EQ(rig.channel.stats().get("desync_recoveries"), 1u);
    EXPECT_TRUE(rig.channel.degraded());
    // The raw fallback still delivered the correct data.
    EXPECT_EQ(rig.home.lineAt(rig.home.find(wb_addr)), dup);
    // Re-arm traffic is charged to the recovery counters only.
    const StatSet &st = rig.channel.stats();
    EXPECT_EQ(st.get("recovery_bits"), st.get("resync_rearm_bits"));
    // The in-recovery resynchronize ran an instant before the
    // write-back landed at home, so one stale link can remain (the
    // protocol's eviction path would have dropped it); the audit
    // repairs it and a re-audit is clean.
    (void)rig.channel.auditInvariant();
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);
}

TEST(FaultChannel, StrictDesyncSurfacesTypedError)
{
    CableConfig cfg;
    cfg.strict_desync = true;
    Rig rig(cfg);
    ScriptedFault fault;
    rig.channel.setFaultModel(&fault);
    ValueProfile v;
    v.random_line_frac = 1.0;
    SyntheticMemory mem(v, 0, 6);

    Addr wb_addr = 0x6000;
    rig.fetch(mem, wb_addr);
    CacheLine dup = armDeliveryDesync(rig, mem, 0x5000);

    EXPECT_THROW((void)rig.channel.writeBack(wb_addr, dup),
                 CableDesyncError);
    // Strict mode counts and surfaces — it never enters recovery.
    EXPECT_EQ(rig.channel.stats().get("desyncs_detected"), 1u);
    EXPECT_EQ(rig.channel.stats().get("desync_recoveries"), 0u);
}

// ---------------------------------------------------------------------
// Control-path spans: resync work lands in t_stage_resync_ns
// ---------------------------------------------------------------------

namespace
{

/** Records every event, so a test can inspect what one call emitted. */
class EventLog : public TraceSink
{
  public:
    void
    emit(const TraceEvent &ev) override
    {
        ++emitted_;
        events.push_back(ev);
    }

    std::vector<TraceEvent> events;
};

/**
 * Runs @p work and checks the single Resync span it emits on a
 * @p type control event: one new t_stage_resync_ns sample equal to
 * the span's duration, two recorder clock reads, and no span on any
 * other event (the transfers around it are not sampled).
 */
template <typename Work>
void
expectOneResyncSpan(CableChannel &ch, EventLog &log,
                    TraceEvent::Type type, Work &&work)
{
    const Histogram *h = ch.stats().findHist("t_stage_resync_ns");
    const std::uint64_t samples0 = h ? h->samples() : 0;
    const std::uint64_t sum0 = h ? h->sum() : 0;
    const std::uint64_t reads0 = ch.spanRecorder().clockReads();
    log.events.clear();
    work();

    const TraceEvent *control = nullptr;
    for (const TraceEvent &ev : log.events) {
        if (ev.nspans == 0)
            continue;
        ASSERT_EQ(ev.type, type) << "unexpected spans on another event";
        ASSERT_EQ(control, nullptr) << "more than one spanned event";
        control = &ev;
    }
    ASSERT_NE(control, nullptr) << "no control event carried a span";
    ASSERT_EQ(control->nspans, 1u);
    EXPECT_EQ(control->spans[0].stage, Stage::Resync);
    EXPECT_EQ(control->spans[0].dep, -1);

    h = ch.stats().findHist("t_stage_resync_ns");
    ASSERT_NE(h, nullptr);
    EXPECT_EQ(h->samples(), samples0 + 1);
    EXPECT_EQ(h->sum(), sum0 + control->spans[0].durationNs());
    EXPECT_EQ(ch.spanRecorder().clockReads(), reads0 + 2);
}

} // namespace

TEST(ControlSpans, ResyncAfterRestoreRecordsOneResyncSpan)
{
    Rig rig;
    EventLog log;
    rig.channel.setTraceSink(&log);
    rig.channel.setSpanSampling(64);
    SyntheticMemory mem(similarValues(), 0, 9);
    Rng rng(9);
    for (int i = 0; i < 1000; ++i)
        rig.fetch(mem, rng.below(512) * kLineBytes, rng.chance(0.2));

    BitVec image = ChannelCheckpoint::capture(rig.channel);
    rig.channel.crashMetadata();
    ChannelCheckpoint::restore(rig.channel, image);
    expectOneResyncSpan(rig.channel, log, TraceEvent::Type::Resync, [&] {
        EXPECT_TRUE(rig.channel.resync().completed);
    });
}

TEST(ControlSpans, DesyncRecoveryRecordsOneResyncSpan)
{
    Rig rig;
    ScriptedFault fault;
    rig.channel.setFaultModel(&fault);
    EventLog log;
    rig.channel.setTraceSink(&log);
    rig.channel.setSpanSampling(64);
    ValueProfile v;
    v.random_line_frac = 1.0;
    SyntheticMemory mem(v, 0, 6);

    Addr wb_addr = 0x6000;
    rig.fetch(mem, wb_addr);
    CacheLine dup = armDeliveryDesync(rig, mem, 0x5000);
    expectOneResyncSpan(rig.channel, log, TraceEvent::Type::Recovery, [&] {
        EXPECT_TRUE(rig.channel.writeBack(wb_addr, dup).raw_fallback);
    });
    EXPECT_EQ(rig.channel.stats().get("desync_recoveries"), 1u);
}

TEST(FaultChannel, SecondDesyncWithinAuditWindowRecovers)
{
    CableConfig cfg;
    cfg.rearm_window = 64; // stay degraded across both desyncs
    Rig rig(cfg);
    ScriptedFault fault;
    rig.channel.setFaultModel(&fault);
    SyntheticMemory mem(similarValues(), 0, 8);

    std::uint64_t epoch0 = rig.channel.epoch();
    rig.fetch(mem, 0x7000);
    fault.drop_next_sync = true;
    rig.fetch(mem, 0x7000, /*store=*/true);
    EXPECT_GE(rig.channel.auditInvariant(), 1u);
    EXPECT_EQ(rig.channel.stats().get("desync_recoveries"), 1u);
    ASSERT_TRUE(rig.channel.degraded());

    // Second lost sync while the first recovery's degraded window is
    // still open: the audit must catch and repair it again rather
    // than assuming a degraded channel cannot re-desync.
    rig.fetch(mem, 0x8000);
    fault.drop_next_sync = true;
    rig.fetch(mem, 0x8000, /*store=*/true);
    EXPECT_GE(rig.channel.auditInvariant(), 1u);
    EXPECT_EQ(rig.channel.stats().get("desync_recoveries"), 2u);
    EXPECT_TRUE(rig.channel.degraded());
    EXPECT_EQ(rig.channel.stats().get("degraded_entries"), 1u);
    EXPECT_GE(rig.channel.epoch(), epoch0 + 2);

    // Both recoveries leave a consistent channel behind.
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);
    rig.fetch(mem, 0x9000);
    EXPECT_EQ(rig.remote.lineAt(rig.remote.find(0x9000)),
              mem.lineAt(0x9000));
}

// ---------------------------------------------------------------------
// End-to-end: MemLinkSystem with injection
// ---------------------------------------------------------------------

namespace
{

MemSystemConfig
faultyMemCfg(std::uint64_t fault_seed)
{
    MemSystemConfig cfg;
    cfg.timing = false;
    cfg.seed = 12;
    cfg.fault.bit_error_rate = 1e-4;
    cfg.fault.drop_sync_rate = 0.05;
    cfg.fault.meta_corrupt_rate = 1e-3;
    cfg.fault.seed = fault_seed;
    cfg.fault_audit_period = 50000;
    return cfg;
}

} // namespace

TEST(FaultMemLink, SameFaultSeedGivesIdenticalCounters)
{
    MemLinkSystem a(faultyMemCfg(5), {benchmarkProfile("mcf")});
    MemLinkSystem b(faultyMemCfg(5), {benchmarkProfile("mcf")});
    a.run(30000);
    b.run(30000);
    EXPECT_GT(a.protocol().stats().get("crc_detected"), 0u);
    EXPECT_GT(a.protocol().stats().get("desync_recoveries"), 0u);
    for (const char *key :
         {"crc_detected", "retransmits", "raw_fallbacks",
          "desync_recoveries", "retrans_bits", "wire_bits"})
        EXPECT_EQ(a.protocol().stats().get(key),
                  b.protocol().stats().get(key))
            << key;
    EXPECT_EQ(a.faultInjector()->stats().get("faults_injected"),
              b.faultInjector()->stats().get("faults_injected"));
    EXPECT_EQ(a.link().stats().get("flits"),
              b.link().stats().get("flits"));
    EXPECT_DOUBLE_EQ(a.bitRatio(), b.bitRatio());
    EXPECT_LE(a.goodputRatio(), a.bitRatio());
}

TEST(FaultMemLink, CrcFramingLeavesPayloadRatioUntouched)
{
    // Fault-free runs with and without CRC framing must report the
    // same payload compression ratio; only the separately-accounted
    // overhead (and hence flits) differ.
    MemSystemConfig with_crc;
    with_crc.timing = false;
    with_crc.seed = 3;
    MemSystemConfig no_crc = with_crc;
    no_crc.cable.frame_crc_bits = 0;

    MemLinkSystem a(with_crc, {benchmarkProfile("libquantum")});
    MemLinkSystem b(no_crc, {benchmarkProfile("libquantum")});
    a.run(30000);
    b.run(30000);
    EXPECT_DOUBLE_EQ(a.bitRatio(), b.bitRatio());
    EXPECT_EQ(a.protocol().stats().get("wire_bits"),
              b.protocol().stats().get("wire_bits"));
    EXPECT_GT(a.protocol().stats().get("crc_overhead_bits"), 0u);
    EXPECT_EQ(b.protocol().stats().get("crc_overhead_bits"), 0u);
    EXPECT_LT(a.goodputRatio(), a.bitRatio());
}
