/**
 * @file
 * Crash-recovery tests (DESIGN.md §12): checkpoint capture/restore
 * round-trips, typed rejection of every corruption class, atomic
 * file save/load, format stability against a committed golden
 * image, the resync protocol's Degraded→Healthy guarantee, the ARQ
 * watchdog's terminal timeout, and the chaos harness's differential
 * oracle over a ≥10-crash schedule.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common/crc.h"
#include "common/rng.h"
#include "compress/bitstream.h"
#include "core/channel.h"
#include "core/checkpoint.h"
#include "sim/chaos.h"
#include "sim/fault.h"
#include "telemetry/spans.h"
#include "telemetry/trace.h"
#include "workload/profile.h"
#include "workload/value_model.h"

using namespace cable;

namespace
{

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

/** Drives a deterministic warm-up mix through the rig. */
void
warm(Rig &rig, SyntheticMemory &mem, unsigned ops, std::uint64_t seed)
{
    Rng rng(seed);
    for (unsigned i = 0; i < ops; ++i) {
        Addr addr = (rng.below(512) * 64) & ~Addr{63};
        (void)rig.fetch(mem, addr, rng.chance(0.2));
    }
}

/** Every-packet corruptor: ARQ can never succeed under it. */
struct AlwaysCorrupt : LinkFaultModel
{
    unsigned
    corruptPacket(BitVec &wire) override
    {
        if (wire.sizeBits() == 0)
            return 0;
        wire.flipBit(0);
        return 1;
    }
    bool dropSyncMessage() override { return false; }
    bool corruptMetadata() override { return false; }
    std::uint64_t pick(std::uint64_t) override { return 0; }
};

std::uint64_t
fullDigest(const CableChannel &ch)
{
    return ch.metadataDigest(0, 1u << 30);
}

} // namespace

// ---------------------------------------------------------------------
// Checkpoint image format
// ---------------------------------------------------------------------

TEST(Checkpoint, CaptureIsDeterministic)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 11);
    warm(rig, mem, 600, 11);
    BitVec a = ChannelCheckpoint::capture(rig.channel);
    BitVec b = ChannelCheckpoint::capture(rig.channel);
    ASSERT_EQ(a.sizeBits(), b.sizeBits());
    for (std::size_t i = 0; i < a.sizeBits(); ++i)
        ASSERT_EQ(a.bit(i), b.bit(i)) << "bit " << i;
}

TEST(Checkpoint, RoundTripRestoresStateAndBumpsEpoch)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 12);
    warm(rig, mem, 800, 12);

    std::uint64_t digest0 = fullDigest(rig.channel);
    std::uint64_t transfers0 = rig.channel.stats().get("transfers");
    std::uint64_t epoch0 = rig.channel.epoch();
    BitVec image = ChannelCheckpoint::capture(rig.channel);

    // Mutate well past the captured state.
    warm(rig, mem, 800, 13);
    EXPECT_NE(rig.channel.stats().get("transfers"), transfers0);

    ChannelCheckpoint::restore(rig.channel, image);
    EXPECT_EQ(fullDigest(rig.channel), digest0);
    EXPECT_EQ(rig.channel.stats().get("transfers"), transfers0);
    EXPECT_EQ(rig.channel.stats().get("checkpoint_restores"), 1u);
    EXPECT_GT(rig.channel.epoch(), epoch0);

    // The caches moved on since the capture, so the restored
    // metadata is stale — exactly the state the resync protocol
    // reconciles. After it, the channel must decode cleanly again.
    EXPECT_TRUE(rig.channel.resync().completed);
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);
    warm(rig, mem, 400, 14);
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);
}

TEST(Checkpoint, RestoreRebindsTelemetryCaches)
{
    // Restore empties stats(). The span recorder's cached stage
    // histograms and the channel's cached sketches point into it, so
    // both must be re-resolved: otherwise post-restore samples land
    // in freed map nodes (a heap-use-after-free under ASan) and the
    // restored StatSet never sees them.
    Rig rig;
    NullTraceSink sink;
    rig.channel.setTraceSink(&sink);
    rig.channel.setSpanSampling(1);
    rig.channel.setSketchesEnabled(true);
    SyntheticMemory mem(similarValues(), 0, 15);
    warm(rig, mem, 400, 15);

    ChannelCheckpoint::restore(rig.channel,
                               ChannelCheckpoint::capture(rig.channel));
    std::uint64_t transfers0 = rig.channel.stats().get("transfers");
    warm(rig, mem, 400, 16);
    std::uint64_t n = rig.channel.stats().get("transfers") - transfers0;
    ASSERT_GT(n, 0u);

    const StatSet &s = rig.channel.stats();
    const QuantileSketch *frame_bits = s.findSketch("frame_bits");
    ASSERT_NE(frame_bits, nullptr);
    EXPECT_EQ(frame_bits->samples(), n);
    // Every sampled transfer closes exactly one Ack span.
    const Histogram *ack = s.findHist(stageHistName(Stage::Ack));
    ASSERT_NE(ack, nullptr);
    EXPECT_EQ(ack->samples(), n);
}

TEST(Checkpoint, EveryCorruptionClassRejectedTyped)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 15);
    warm(rig, mem, 500, 15);
    const BitVec image = ChannelCheckpoint::capture(rig.channel);
    const std::uint64_t digest0 = fullDigest(rig.channel);

    auto expectKind = [&](const BitVec &bad,
                          CableCheckpointError::Kind kind) {
        try {
            ChannelCheckpoint::restore(rig.channel, bad);
            FAIL() << "corrupt image accepted (expected "
                   << CableCheckpointError::kindName(kind) << ")";
        } catch (const CableCheckpointError &e) {
            EXPECT_EQ(e.kind(), kind) << e.what();
        }
        // Strong guarantee: a rejected load changes nothing.
        EXPECT_EQ(fullDigest(rig.channel), digest0);
    };

    {
        BitVec bad = image; // body bit-flip
        bad.flipBit(kCkptHeaderBits + 17);
        expectKind(bad, CableCheckpointError::Kind::CrcMismatch);
    }
    {
        BitVec bad = image; // magic damage
        bad.flipBit(3);
        expectKind(bad, CableCheckpointError::Kind::BadMagic);
    }
    {
        BitVec bad = image; // version skew
        bad.flipBit(kCkptMagicBits + kCkptVersionBits - 1);
        expectKind(bad, CableCheckpointError::Kind::VersionSkew);
    }
    {
        BitVec bad; // truncated inside the body
        for (std::size_t i = 0; i < image.sizeBits() / 2; ++i)
            bad.pushBit(image.bit(i));
        expectKind(bad, CableCheckpointError::Kind::Truncated);
    }
    {
        BitVec bad; // truncated inside the header
        for (std::size_t i = 0; i + 5 < kCkptHeaderBits; ++i)
            bad.pushBit(image.bit(i));
        expectKind(bad, CableCheckpointError::Kind::Truncated);
    }
    {
        BitVec bad = image; // a byte of trailing garbage
        for (int i = 0; i < 8; ++i)
            bad.pushBit(i & 1);
        expectKind(bad, CableCheckpointError::Kind::BadSection);
    }
    expectKind(BitVec{}, CableCheckpointError::Kind::Truncated);
}

TEST(Checkpoint, GeometryMismatchRejected)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 16);
    warm(rig, mem, 300, 16);
    BitVec image = ChannelCheckpoint::capture(rig.channel);

    Cache home({"home", 1u << 20, 8});
    Cache remote({"remote", 128u << 10, 8}); // half the remote sets
    CableChannel other(home, remote, CableConfig{});
    EXPECT_THROW(ChannelCheckpoint::restore(other, image),
                 CableCheckpointError);
    try {
        ChannelCheckpoint::restore(other, image);
    } catch (const CableCheckpointError &e) {
        EXPECT_EQ(e.kind(),
                  CableCheckpointError::Kind::GeometryMismatch);
    }
}

TEST(Checkpoint, RestoreKeepsEmptySignatureSlotsEmpty)
{
    // Empty slots are captured as set/way/age 0/0/0. Restore must
    // bring them back empty, not as live LineID(0, 0) entries that
    // probes return as candidates and inserts evict.
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 20);
    warm(rig, mem, 300, 20);
    StatSet before = rig.channel.snapshotStructures();
    ChannelCheckpoint::restore(rig.channel,
                               ChannelCheckpoint::capture(rig.channel));
    StatSet after = rig.channel.snapshotStructures();
    for (std::string p : {"home_ht_", "remote_ht_"}) {
        std::uint64_t occ = before.get(p + "occupancy");
        ASSERT_GT(occ, 0u) << p;
        ASSERT_LT(occ, before.get(p + "capacity")) << p;
        EXPECT_EQ(occ, before.get(p + "inserts")
                           - before.get(p + "evictions"))
            << p;
        EXPECT_EQ(after.get(p + "occupancy"), occ) << p;
        EXPECT_EQ(after.get(p + "occupancy"),
                  after.get(p + "inserts") - after.get(p + "evictions"))
            << p;
    }
}

// ---------------------------------------------------------------------
// Per-section malformed images
// ---------------------------------------------------------------------

namespace
{

/** One tagged section located inside a checkpoint image. */
struct Section
{
    std::uint32_t tag;
    std::size_t begin; ///< image bit offset of the section tag
    std::size_t end;   ///< one past the section's last bit
};

/**
 * Independent test-side walker over the kCkpt* layout: locates every
 * tagged section of a pristine image without reusing the production
 * reader, so a layout change that desynchronizes the two shows up as
 * a test failure rather than silent agreement.
 */
std::vector<Section>
walkSections(const BitVec &image)
{
    BitReader r(image);
    EXPECT_EQ(r.get(kCkptMagicBits), kCkptMagic);
    EXPECT_EQ(r.get(kCkptVersionBits), kCkptVersion);
    std::size_t body_end =
        kCkptHeaderBits
        + static_cast<std::size_t>(r.get(kCkptBodyLenBits));
    std::vector<Section> secs;
    auto open = [&](std::uint32_t want) {
        secs.push_back({want, r.pos(), r.pos()});
        EXPECT_EQ(r.get(kCkptSectionTagBits), want);
    };
    auto close = [&] { secs.back().end = r.pos(); };

    open(kCkptTagGeom);
    std::uint64_t remote_sets = r.get(kCkptSetBits);
    std::uint64_t remote_ways = r.get(kCkptWayBits);
    (void)r.get(kCkptSetBits);  // home_sets
    (void)r.get(kCkptWayBits);  // home_ways
    (void)r.get(kCkptRlidBits);
    std::uint64_t home_buckets = r.get(kCkptBucketCountBits);
    (void)r.get(kCkptBucketWaysBits);
    std::uint64_t remote_buckets = r.get(kCkptBucketCountBits);
    (void)r.get(kCkptBucketWaysBits);
    (void)r.get(kCkptEvbufCapBits);
    close();

    open(kCkptTagChannel);
    (void)r.get(kCkptHealthBits);
    for (int i = 0; i < 3; ++i)
        (void)r.get(kCkptCountBits);
    (void)r.get(kCkptFlagBits);
    close();

    open(kCkptTagWmt);
    for (int i = 0; i < 5; ++i)
        (void)r.get(kCkptCountBits);
    for (std::uint64_t s = 0; s < remote_sets * remote_ways; ++s)
        if (r.get(kCkptFlagBits))
            (void)r.get(kCkptNormBits);
    close();

    const std::uint32_t ht_tags[2] = {kCkptTagHtHome,
                                      kCkptTagHtRemote};
    const std::uint64_t ht_buckets[2] = {home_buckets,
                                         remote_buckets};
    for (int t = 0; t < 2; ++t) {
        open(ht_tags[t]);
        for (int i = 0; i < 8; ++i)
            (void)r.get(kCkptCountBits);
        for (std::uint64_t b = 0; b < ht_buckets[t]; ++b) {
            std::uint64_t len = r.get(kCkptSlotCountBits);
            for (std::uint64_t s = 0; s < len; ++s) {
                (void)r.get(kCkptSetBits);
                (void)r.get(kCkptWayBits);
                (void)r.get(kCkptCountBits);
            }
        }
        close();
    }

    open(kCkptTagEvbuf);
    for (int i = 0; i < 6; ++i)
        (void)r.get(kCkptCountBits);
    std::uint64_t ev_len = r.get(kCkptEvbufLenBits);
    for (std::uint64_t e = 0; e < ev_len; ++e) {
        (void)r.get(kCkptCountBits);
        (void)r.get(kCkptSetBits);
        (void)r.get(kCkptWayBits);
        for (unsigned i = 0; i < kLineBytes; ++i)
            (void)r.get(kCkptByteBits);
    }
    close();

    open(kCkptTagCounters);
    std::uint64_t ncounters = r.get(kCkptNumCountersBits);
    for (std::uint64_t c = 0; c < ncounters; ++c) {
        std::uint64_t len = r.get(kCkptNameLenBits);
        for (std::uint64_t i = 0; i < len; ++i)
            (void)r.get(kCkptByteBits);
        (void)r.get(kCkptCountBits);
    }
    close();

    EXPECT_EQ(r.pos(), body_end);
    return secs;
}

/**
 * Rebuilds a well-formed image around @p body: fresh header with the
 * body's true length and a recomputed CRC, so a tampered body tests
 * the section validation rather than tripping the integrity check.
 */
BitVec
sealImage(const std::vector<bool> &body)
{
    BitWriter bw;
    bw.put(kCkptMagic, kCkptMagicBits);
    bw.put(kCkptVersion, kCkptVersionBits);
    bw.put(body.size(), kCkptBodyLenBits);
    for (bool b : body)
        bw.put(b ? 1u : 0u, 1);
    std::uint16_t crc = crc16Bits(bw.bits(), 0, bw.sizeBits());
    bw.put(crc, kCkptCrcBits);
    return bw.take();
}

std::vector<bool>
bodyBits(const BitVec &image, std::size_t end)
{
    std::vector<bool> body;
    for (std::size_t i = kCkptHeaderBits; i < end; ++i)
        body.push_back(image.bit(i));
    return body;
}

void
expectBadSection(CableChannel &ch, const BitVec &bad,
                 std::uint64_t digest0, const char *what)
{
    try {
        ChannelCheckpoint::restore(ch, bad);
        FAIL() << what << ": malformed image accepted";
    } catch (const CableCheckpointError &e) {
        EXPECT_EQ(e.kind(), CableCheckpointError::Kind::BadSection)
            << what << ": " << e.what();
    }
    // Strong guarantee: a rejected load changes nothing.
    EXPECT_EQ(ch.metadataDigest(0, 1u << 30), digest0) << what;
}

} // namespace

TEST(CheckpointSections, TruncatedInsideEverySectionRejectedTyped)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 17);
    warm(rig, mem, 500, 17);
    const BitVec image = ChannelCheckpoint::capture(rig.channel);
    const std::uint64_t digest0 = fullDigest(rig.channel);

    auto secs = walkSections(image);
    ASSERT_EQ(secs.size(), 7u);
    for (const Section &sec : secs) {
        // Cut one byte past the tag: the section opens cleanly, then
        // its first field read crosses the (consistently re-declared)
        // body end — the reader must name the section, not crash or
        // misparse the truncation as a CRC or length problem.
        std::size_t cut = sec.begin + kCkptSectionTagBits + 8;
        ASSERT_LT(cut, sec.end);
        BitVec bad = sealImage(bodyBits(image, cut));
        expectBadSection(rig.channel, bad, digest0,
                         "truncated section");
    }
}

TEST(CheckpointSections, DuplicatedTagEverySectionRejectedTyped)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 18);
    warm(rig, mem, 500, 18);
    const BitVec image = ChannelCheckpoint::capture(rig.channel);
    const std::uint64_t digest0 = fullDigest(rig.channel);

    auto secs = walkSections(image);
    ASSERT_EQ(secs.size(), 7u);
    for (std::size_t si = 0; si < secs.size(); ++si) {
        // Overwrite the section's tag with its predecessor's (the
        // last section's for the first): a duplicated tag must fail
        // the expectation for the section that should be there.
        std::uint32_t dup =
            secs[si > 0 ? si - 1 : secs.size() - 1].tag;
        std::vector<bool> body =
            bodyBits(image, image.sizeBits() - kCkptCrcBits);
        for (unsigned b = 0; b < kCkptSectionTagBits; ++b)
            body[secs[si].begin - kCkptHeaderBits + b] =
                (dup >> (kCkptSectionTagBits - 1 - b)) & 1;
        expectBadSection(rig.channel, sealImage(body), digest0,
                         "duplicated tag");
    }
}

TEST(CheckpointSections, TrailingBitsAfterEverySectionRejectedTyped)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 19);
    warm(rig, mem, 500, 19);
    const BitVec image = ChannelCheckpoint::capture(rig.channel);
    const std::uint64_t digest0 = fullDigest(rig.channel);

    auto secs = walkSections(image);
    ASSERT_EQ(secs.size(), 7u);
    for (const Section &sec : secs) {
        // Insert a zero byte after the section, with the length and
        // CRC consistently recomputed: the next section's tag reads
        // junk (or, for the last section, the body outlives its
        // sections) and the reader must reject rather than resync.
        std::vector<bool> body =
            bodyBits(image, image.sizeBits() - kCkptCrcBits);
        body.insert(body.begin()
                        + static_cast<std::ptrdiff_t>(
                            sec.end - kCkptHeaderBits),
                    8, false);
        expectBadSection(rig.channel, sealImage(body), digest0,
                         "trailing section bytes");
    }
}

TEST(CheckpointSections, EmptySlotNamingALineRejected)
{
    // Live slots always have age >= 1, so age 0 marks an empty slot,
    // which is written as 0/0/0. An age-0 slot with a non-zero set is
    // neither, and restore must reject it rather than guess.
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 21);
    warm(rig, mem, 300, 21);
    const BitVec image = ChannelCheckpoint::capture(rig.channel);
    const std::uint64_t digest0 = fullDigest(rig.channel);

    auto secs = walkSections(image);
    ASSERT_EQ(secs.size(), 7u);
    const Section &ht = secs[3];
    ASSERT_EQ(ht.tag, kCkptTagHtHome);
    BitReader r(image);
    for (std::size_t skip = ht.begin + kCkptSectionTagBits
                            + 8 * kCkptCountBits;
         skip > 0; skip -= std::min<std::size_t>(skip, 64))
        (void)r.get(static_cast<unsigned>(
            std::min<std::size_t>(skip, 64)));
    std::size_t empty_set = 0;
    while (empty_set == 0 && r.pos() < ht.end) {
        std::uint64_t len = r.get(kCkptSlotCountBits);
        for (std::uint64_t k = 0; k < len && empty_set == 0; ++k) {
            std::size_t at = r.pos();
            std::uint64_t set = r.get(kCkptSetBits);
            std::uint64_t way = r.get(kCkptWayBits);
            if (r.get(kCkptCountBits) == 0) {
                ASSERT_EQ(set, 0u);
                ASSERT_EQ(way, 0u);
                empty_set = at;
            }
        }
    }
    ASSERT_NE(empty_set, 0u) << "no empty slot in HT_HOME";
    std::vector<bool> body =
        bodyBits(image, image.sizeBits() - kCkptCrcBits);
    body[empty_set - kCkptHeaderBits + kCkptSetBits - 1] = true;
    expectBadSection(rig.channel, sealImage(body), digest0,
                     "empty slot naming set 1");
}

TEST(CheckpointSections, HugeCountInShortBodyRejectedTyped)
{
    // A body that ends right after a COUNTERS count of 2^32 - 1: the
    // reader must stop at the body end instead of looping or
    // allocating by the count.
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 22);
    warm(rig, mem, 300, 22);
    const BitVec image = ChannelCheckpoint::capture(rig.channel);
    const std::uint64_t digest0 = fullDigest(rig.channel);

    auto secs = walkSections(image);
    ASSERT_EQ(secs.size(), 7u);
    const Section &counters = secs[6];
    ASSERT_EQ(counters.tag, kCkptTagCounters);
    std::vector<bool> body =
        bodyBits(image, counters.begin + kCkptSectionTagBits);
    body.insert(body.end(), kCkptNumCountersBits, true);

    auto t0 = std::chrono::steady_clock::now();
    expectBadSection(rig.channel, sealImage(body), digest0,
                     "huge counter count");
    EXPECT_LT(std::chrono::steady_clock::now() - t0,
              std::chrono::seconds(1));
}

namespace
{

/** Bits [sec.begin, sec.end) of @p image. */
std::vector<bool>
sectionBits(const BitVec &image, const Section &sec)
{
    std::vector<bool> bits;
    for (std::size_t i = sec.begin; i < sec.end; ++i)
        bits.push_back(image.bit(i));
    return bits;
}

/** The (name, value) pairs of a COUNTERS section. */
std::map<std::string, std::uint64_t>
countersOf(const BitVec &image, const Section &sec)
{
    BitVec sub;
    for (bool b : sectionBits(image, sec))
        sub.pushBit(b);
    BitReader r(sub);
    EXPECT_EQ(r.get(kCkptSectionTagBits), kCkptTagCounters);
    std::map<std::string, std::uint64_t> out;
    std::uint64_t n = r.get(kCkptNumCountersBits);
    for (std::uint64_t c = 0; c < n; ++c) {
        std::string name(r.get(kCkptNameLenBits), ' ');
        for (char &ch : name)
            ch = static_cast<char>(r.get(kCkptByteBits));
        out[name] = r.get(kCkptCountBits);
    }
    EXPECT_FALSE(r.overrun());
    return out;
}

} // namespace

TEST(Checkpoint, RestoreThenCaptureReproducesEverySection)
{
    // capture -> restore into a fresh channel -> capture must give
    // back the same image, bit for bit, except where a restore is
    // meant to differ: the epoch advances and checkpoint_restores is
    // counted.
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 23);
    warm(rig, mem, 600, 23);
    // The channel acknowledges evictions at once, so EVBUF is empty
    // unless entries are pushed by hand. Bytes that differ from
    // their neighbours show any reordering.
    CacheLine a, b;
    for (unsigned i = 0; i < kLineBytes; ++i) {
        a.setByte(i, static_cast<std::uint8_t>(3 * i + 1));
        b.setByte(i, static_cast<std::uint8_t>(0xff - 5 * i));
    }
    (void)rig.channel.evictionBuffer().push(LineID(5, 2), a);
    (void)rig.channel.evictionBuffer().push(LineID(300, 7), b);
    const BitVec first = ChannelCheckpoint::capture(rig.channel);

    Rig fresh;
    ChannelCheckpoint::restore(fresh.channel, first);
    const BitVec second = ChannelCheckpoint::capture(fresh.channel);

    auto s1 = walkSections(first);
    auto s2 = walkSections(second);
    ASSERT_EQ(s1.size(), 7u);
    ASSERT_EQ(s2.size(), 7u);
    for (std::size_t i = 0; i + 1 < s1.size(); ++i) {
        ASSERT_EQ(s1[i].tag, s2[i].tag);
        std::vector<bool> x = sectionBits(first, s1[i]);
        std::vector<bool> y = sectionBits(second, s2[i]);
        if (s1[i].tag == kCkptTagChannel) {
            // tag, health, healthy_streak, then the epoch.
            const std::size_t at =
                kCkptSectionTagBits + kCkptHealthBits + kCkptCountBits;
            std::uint64_t e1 = 0, e2 = 0;
            for (std::size_t k = at; k < at + kCkptCountBits; ++k) {
                e1 = (e1 << 1) | x[k];
                e2 = (e2 << 1) | y[k];
                x[k] = y[k] = false;
            }
            EXPECT_EQ(e2, e1 + 1);
        }
        EXPECT_EQ(x, y) << "section 0x" << std::hex << s1[i].tag;
    }
    ASSERT_EQ(s1[5].tag, kCkptTagEvbuf);
    ASSERT_GT(s1[5].end - s1[5].begin, 2 * kLineBytes * kCkptByteBits);

    auto c1 = countersOf(first, s1[6]);
    auto c2 = countersOf(second, s2[6]);
    EXPECT_EQ(c1.count("checkpoint_restores"), 0u);
    EXPECT_EQ(c2["checkpoint_restores"], 1u);
    c2.erase("checkpoint_restores");
    EXPECT_EQ(c1, c2);
}

TEST(Checkpoint, AtomicFileSaveLoad)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 17);
    warm(rig, mem, 500, 17);

    std::string path =
        testing::TempDir() + "cable_ckpt_roundtrip.ckpt";
    ChannelCheckpoint::save(rig.channel, path);
    std::uint64_t digest0 = fullDigest(rig.channel);

    warm(rig, mem, 500, 18);
    ChannelCheckpoint::load(rig.channel, path);
    EXPECT_EQ(fullDigest(rig.channel), digest0);
    std::remove(path.c_str());

    EXPECT_THROW(ChannelCheckpoint::load(
                     rig.channel, testing::TempDir() + "nonexistent"),
                 CableCheckpointError);
}

// ---------------------------------------------------------------------
// Format stability: the committed golden fixture must keep loading.
// Regenerate (after a deliberate, version-bumped format change) with
//   CABLE_WRITE_GOLDEN=1 ./test_recovery
//       --gtest_filter=CheckpointFormat.GoldenFixtureLoads
// ---------------------------------------------------------------------

namespace
{

/** The canonical channel state behind the golden fixture. */
BitVec
goldenImage()
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 2026);
    warm(rig, mem, 1000, 2026);
    return ChannelCheckpoint::capture(rig.channel);
}

} // namespace

TEST(CheckpointFormat, GoldenFixtureLoads)
{
    const std::string path =
        std::string(CABLE_TEST_DATA_DIR) + "/checkpoint_v1.golden";
    if (std::getenv("CABLE_WRITE_GOLDEN")) {
        ChannelCheckpoint::writeImage(goldenImage(), path);
        GTEST_SKIP() << "golden fixture regenerated at " << path;
    }

    BitVec image = ChannelCheckpoint::readImage(path);
    Rig rig; // golden geometry: the default Rig
    ChannelCheckpoint::restore(rig.channel, image);
    EXPECT_EQ(rig.channel.stats().get("checkpoint_restores"), 1u);
    EXPECT_GT(rig.channel.stats().get("transfers"), 0u);

    // The fixture is bit-identical to a fresh capture of the same
    // canonical state (modulo the file format's byte-boundary pad):
    // the serializer itself is format-stable.
    BitVec fresh = goldenImage();
    ASSERT_GE(image.sizeBits(), fresh.sizeBits());
    ASSERT_LT(image.sizeBits() - fresh.sizeBits(), 8u);
    for (std::size_t i = 0; i < fresh.sizeBits(); ++i)
        ASSERT_EQ(image.bit(i), fresh.bit(i)) << "bit " << i;
    for (std::size_t i = fresh.sizeBits(); i < image.sizeBits(); ++i)
        ASSERT_FALSE(image.bit(i)) << "pad bit " << i << " set";
}

// ---------------------------------------------------------------------
// Resync protocol
// ---------------------------------------------------------------------

TEST(Resync, ColdRestartReturnsToHealthy)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 21);
    warm(rig, mem, 1000, 21);

    rig.channel.crashMetadata();
    EXPECT_TRUE(rig.channel.degraded());
    EXPECT_EQ(fullDigest(rig.channel), fullDigest(Rig{}.channel));

    ResyncResult r = rig.channel.resync();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(rig.channel.health(), CableChannel::Health::Healthy);
    EXPECT_GT(r.lines_relinked, 0u);
    EXPECT_GT(r.handshake_bits, 0u);
    EXPECT_GT(r.rearm_bits, 0u);

    // Honest accounting: recovery_bits is exactly the sum of the
    // handshake and re-arm components.
    const StatSet &st = rig.channel.stats();
    EXPECT_EQ(st.get("recovery_bits"),
              st.get("resync_handshake_bits")
                  + st.get("resync_rearm_bits"));

    // Post-resync metadata equals cache ground truth.
    EXPECT_EQ(rig.channel.metadataDigest(0, 1u << 30),
              rig.channel.referenceDigest(0, 1u << 30));
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);
}

TEST(Resync, WarmRestoreNeedsNoRearmTraffic)
{
    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 22);
    warm(rig, mem, 1000, 22);

    BitVec image = ChannelCheckpoint::capture(rig.channel);
    rig.channel.crashMetadata();
    ChannelCheckpoint::restore(rig.channel, image);

    ResyncResult r = rig.channel.resync();
    EXPECT_TRUE(r.completed);
    EXPECT_EQ(rig.channel.health(), CableChannel::Health::Healthy);
    // The checkpoint already matches ground truth: digests agree on
    // every range, so the handshake finds nothing to repair.
    EXPECT_EQ(r.ranges_repaired, 0u);
    EXPECT_EQ(r.rearm_bits, 0u);
    EXPECT_GT(r.handshake_bits, 0u);
}

TEST(Resync, MidResyncFaultsStillConverge)
{
    FaultConfig fc;
    fc.meta_corrupt_rate = 1.0; // every corruptMetadata() draw fires
    fc.seed = 99;
    FaultInjector inj(fc);

    Rig rig;
    SyntheticMemory mem(similarValues(), 0, 23);
    warm(rig, mem, 1000, 23);
    rig.channel.crashMetadata();
    rig.channel.setFaultModel(&inj);

    ResyncResult r = rig.channel.resync();
    EXPECT_TRUE(r.completed);
    EXPECT_GT(r.faults_hit, 0u);
    EXPECT_EQ(rig.channel.health(), CableChannel::Health::Healthy);
    EXPECT_EQ(rig.channel.auditInvariant(), 0u);
}

// ---------------------------------------------------------------------
// ARQ watchdog
// ---------------------------------------------------------------------

TEST(Watchdog, StalledArqRaisesTypedTimeout)
{
    CableConfig cfg;
    cfg.arq_watchdog_cycles = 100;
    Rig rig(cfg);
    SyntheticMemory mem(similarValues(), 0, 31);

    const Addr addr = 0x2040;
    (void)rig.channel.homeInstall(addr, mem.lineAt(addr));

    AlwaysCorrupt hostile;
    rig.channel.setFaultModel(&hostile);
    EXPECT_THROW((void)rig.channel.remoteFetch(addr, false),
                 CableTimeoutError);
    EXPECT_EQ(rig.channel.stats().get("arq_timeouts"), 1u);

    // Recovery after the link heals: crash, resync, retry.
    rig.channel.setFaultModel(nullptr);
    rig.channel.crashMetadata();
    EXPECT_TRUE(rig.channel.resync().completed);
    (void)rig.channel.remoteFetch(addr, false);
    LineID rlid = rig.remote.find(addr);
    ASSERT_TRUE(rlid.valid);
    EXPECT_TRUE(rig.remote.lineAt(rlid) == mem.lineAt(addr));
}

TEST(Watchdog, DisabledByDefault)
{
    Rig rig; // arq_watchdog_cycles = 0
    SyntheticMemory mem(similarValues(), 0, 32);
    const Addr addr = 0x3040;
    (void)rig.channel.homeInstall(addr, mem.lineAt(addr));

    // Scripted burst long enough to exhaust compressed retries and
    // the raw-fallback ladder would have tripped a 100-cycle budget;
    // with the watchdog off the transfer must still complete.
    FaultConfig fc;
    fc.bit_error_rate = 0.02;
    fc.seed = 7;
    FaultInjector inj(fc);
    rig.channel.setFaultModel(&inj);
    for (unsigned i = 0; i < 50; ++i)
        (void)rig.fetch(mem, addr + i * 64);
    EXPECT_EQ(rig.channel.stats().get("arq_timeouts"), 0u);
}

// ---------------------------------------------------------------------
// Chaos harness: the acceptance demo as a regression test.
// ---------------------------------------------------------------------

TEST(Chaos, TenCrashScheduleSurvivesDifferentialOracle)
{
    ChaosConfig cfg;
    cfg.benchmark = "mcf";
    cfg.ops = 12000;
    cfg.seed = 7;
    cfg.crashes = 10;
    cfg.corrupt_prob = 0.5;
    cfg.mem.fault.bit_error_rate = 1e-4;
    cfg.mem.fault.drop_sync_rate = 2e-3;
    cfg.mem.fault.meta_corrupt_rate = 1e-3;

    ChaosReport r = runChaos(cfg);
    EXPECT_TRUE(r.ok) << r.failure;
    EXPECT_EQ(r.crashes, 10u);
    EXPECT_EQ(r.corrupt_rejected, r.corrupt_images);
    EXPECT_EQ(r.restores_ok + r.corrupt_images, r.crashes);
    // Every crash recovery plus the watchdog scenario resynced.
    EXPECT_EQ(r.resyncs_completed, r.crashes + 1);
    EXPECT_EQ(r.watchdog_timeouts, 1u);
    EXPECT_GT(r.recovery_bits, 0u);
}

TEST(Chaos, FileRoundTripScheduleDeterministic)
{
    ChaosConfig cfg;
    cfg.benchmark = "omnetpp";
    cfg.ops = 6000;
    cfg.seed = 42;
    cfg.crashes = 4;
    cfg.corrupt_prob = 0.25;
    cfg.ckpt_dir = testing::TempDir();
    cfg.watchdog_scenario = false;
    cfg.mem.fault.bit_error_rate = 1e-4;

    ChaosReport a = runChaos(cfg);
    ChaosReport b = runChaos(cfg);
    EXPECT_TRUE(a.ok) << a.failure;
    EXPECT_TRUE(b.ok) << b.failure;
    EXPECT_EQ(a.crash_steps, b.crash_steps);
    EXPECT_EQ(a.transfers, b.transfers);
    EXPECT_EQ(a.recovery_bits, b.recovery_bits);
}
