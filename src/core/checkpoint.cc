#include "core/checkpoint.h"

#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "common/crc.h"
#include "core/channel.h"

// Wire-symmetry contract: every put()/get() below carries a
// cable-wire marker naming its record, field and width (or an
// explicit ignore). tools/cable_verify.py reconstructs each record's
// sequence from the writer and the reader and fails the build on any
// order/width/count drift — the class of bug PR 6 hit by hand.

namespace cable
{

const char *
CableCheckpointError::kindName(Kind k)
{
    switch (k) {
    case Kind::IoError: return "io_error";
    case Kind::Truncated: return "truncated";
    case Kind::BadMagic: return "bad_magic";
    case Kind::VersionSkew: return "version_skew";
    case Kind::CrcMismatch: return "crc_mismatch";
    case Kind::BadSection: return "bad_section";
    case Kind::GeometryMismatch: return "geometry_mismatch";
    }
    return "unknown";
}

CableCheckpointError::CableCheckpointError(Kind kind,
                                           const std::string &detail)
    : kind_(kind)
{
    what_ = std::string("CABLE checkpoint ") + kindName(kind) + ": "
            + detail;
}

namespace
{

[[noreturn]] void
bad(CableCheckpointError::Kind kind, const std::string &detail)
{
    throw CableCheckpointError(kind, detail);
}

/**
 * Bounded reader over the image body: every get() is checked against
 * the declared body end, so a section whose element counts overrun
 * the body raises a typed BadSection instead of reading on into the
 * CRC trailer.
 */
struct Cursor
{
    Cursor(const BitVec &image, std::size_t begin, std::size_t end)
        : r(image), end_(end)
    {
        // Skip the header; BitReader has no seek, so consume it in
        // 64-bit gulps (begin is the fixed header width).
        std::size_t left = begin;
        while (left > 0) {
            unsigned n = left > 64 ? 64u : static_cast<unsigned>(left);
            // cable-wire: ignore header skip, not a field read
            (void)r.get(n);
            left -= n;
        }
    }

    std::uint64_t
    get(unsigned nbits, const char *what)
    {
        if (r.pos() + nbits > end_)
            bad(CableCheckpointError::Kind::BadSection,
                std::string("body ends inside ") + what);
        // cable-wire: ignore width forwarded from annotated call sites
        return r.get(nbits);
    }

    // cable-wire-alias: expectTag get kCkptSectionTagBits
    void
    expectTag(std::uint32_t tag, const char *name)
    {
        std::uint64_t got = get(kCkptSectionTagBits, "section tag");
        if (got != tag)
            bad(CableCheckpointError::Kind::BadSection,
                std::string("expected section ") + name);
    }

    std::size_t pos() const { return r.pos(); }
    std::size_t endPos() const { return end_; }

  private:
    BitReader r;
    std::size_t end_;
};

/** Parsed hash-table section, pre-validation staging. */
struct HtImage
{
    std::uint64_t age_clock = 0;
    std::uint64_t inserts = 0;
    std::uint64_t evictions = 0;
    std::uint64_t refreshes = 0;
    std::uint64_t removes = 0;
    std::uint64_t remove_misses = 0;
    std::uint64_t lookups = 0;
    std::uint64_t lookup_lids = 0;
    struct Slot
    {
        std::uint32_t set = 0;
        std::uint8_t way = 0;
        std::uint64_t age = 0; ///< 0: empty slot
    };
    /** Bucket-major, bucket_ways per bucket; slots a short bucket
     *  leaves out stay empty. */
    std::vector<Slot> slots;
};

/** Parsed eviction-buffer section. */
struct EvbufImage
{
    std::uint64_t seq_clock = 0;
    std::uint64_t pushes = 0;
    std::uint64_t retired = 0;
    std::uint64_t overflow_drops = 0;
    std::uint64_t finds = 0;
    std::uint64_t find_hits = 0;
    struct Entry
    {
        std::uint64_t seq;
        std::uint32_t set;
        std::uint8_t way;
        CacheLine data;
    };
    std::vector<Entry> entries;
};

} // namespace

// ---------------------------------------------------------------------
// Capture
// ---------------------------------------------------------------------

namespace
{

// cable-wire-alias: putCounter put kCkptCountBits
void
putCounter(BitWriter &bw, std::uint64_t v)
{
    // cable-wire: ignore width carried by the putCounter alias
    bw.put(v, kCkptCountBits);
}

} // namespace

BitVec
ChannelCheckpoint::capture(const CableChannel &ch)
{
    BitWriter body;

    // GEOM — the restore target must present identical shapes.
    // cable-wire: ckpt.geom tag kCkptSectionTagBits
    body.put(kCkptTagGeom, kCkptSectionTagBits);
    // cable-wire: ckpt.geom remote_sets kCkptSetBits
    body.put(ch.remote_.numSets(), kCkptSetBits);
    // cable-wire: ckpt.geom remote_ways kCkptWayBits
    body.put(ch.remote_.numWays(), kCkptWayBits);
    // cable-wire: ckpt.geom home_sets kCkptSetBits
    body.put(ch.home_.numSets(), kCkptSetBits);
    // cable-wire: ckpt.geom home_ways kCkptWayBits
    body.put(ch.home_.numWays(), kCkptWayBits);
    // cable-wire: ckpt.geom rlid_bits kCkptRlidBits
    body.put(ch.rlid_bits_, kCkptRlidBits);
    // cable-wire: ckpt.geom home_buckets kCkptBucketCountBits
    body.put(ch.home_ht_.num_buckets_, kCkptBucketCountBits);
    // cable-wire: ckpt.geom home_bucket_ways kCkptBucketWaysBits
    body.put(ch.home_ht_.cfg_.bucket_ways, kCkptBucketWaysBits);
    // cable-wire: ckpt.geom remote_buckets kCkptBucketCountBits
    body.put(ch.remote_ht_.num_buckets_, kCkptBucketCountBits);
    // cable-wire: ckpt.geom remote_bucket_ways kCkptBucketWaysBits
    body.put(ch.remote_ht_.cfg_.bucket_ways, kCkptBucketWaysBits);
    // cable-wire: ckpt.geom evbuf_cap kCkptEvbufCapBits
    body.put(ch.evbuf_.capacity_, kCkptEvbufCapBits);

    // CHANNEL — health machine, generation clocks, compression gate.
    // cable-wire: ckpt.channel tag kCkptSectionTagBits
    body.put(kCkptTagChannel, kCkptSectionTagBits);
    // cable-wire: ckpt.channel health kCkptHealthBits
    body.put(ch.health_ == CableChannel::Health::Degraded ? 1u : 0u,
             kCkptHealthBits);
    // cable-wire: ckpt.channel healthy_streak kCkptCountBits
    putCounter(body, ch.healthy_streak_);
    // cable-wire: ckpt.channel epoch kCkptCountBits
    putCounter(body, ch.epoch_);
    // cable-wire: ckpt.channel trace_seq kCkptCountBits
    putCounter(body, ch.trace_seq_);
    // cable-wire: ckpt.channel compression kCkptFlagBits
    body.put(ch.cfg_.compression_enabled ? 1u : 0u, kCkptFlagBits);

    // WMT — counters then the per-slot residency map, set-major.
    // cable-wire: ckpt.wmt tag kCkptSectionTagBits
    body.put(kCkptTagWmt, kCkptSectionTagBits);
    // cable-wire: ckpt.wmt sets kCkptCountBits
    putCounter(body, ch.wmt_.sets_);
    // cable-wire: ckpt.wmt overwrites kCkptCountBits
    putCounter(body, ch.wmt_.overwrites_);
    // cable-wire: ckpt.wmt clears kCkptCountBits
    putCounter(body, ch.wmt_.clears_);
    // cable-wire: ckpt.wmt lookups kCkptCountBits
    putCounter(body, ch.wmt_.lookups_);
    // cable-wire: ckpt.wmt translate_misses kCkptCountBits
    putCounter(body, ch.wmt_.translate_misses_);
    for (std::uint32_t set = 0; set < ch.wmt_.cfg_.remote_sets;
         ++set) {
        for (unsigned way = 0; way < ch.wmt_.cfg_.remote_ways;
             ++way) {
            const WayMapTable::Slot &s =
                ch.wmt_.at(set, static_cast<std::uint8_t>(way));
            // cable-wire: ckpt.wmt slot_valid kCkptFlagBits*slots
            body.put(s.valid ? 1u : 0u, kCkptFlagBits);
            if (s.valid)
                // cable-wire: ckpt.wmt slot_norm kCkptNormBits*valid
                body.put(s.norm, kCkptNormBits);
        }
    }

    // HT_HOME / HT_REMOTE — identical layout.
    const SignatureHashTable *tables[2] = {&ch.home_ht_,
                                           &ch.remote_ht_};
    const std::uint32_t tags[2] = {kCkptTagHtHome, kCkptTagHtRemote};
    for (unsigned ti = 0; ti < 2; ++ti) {
        const SignatureHashTable &ht = *tables[ti];
        // cable-wire: ckpt.ht tag kCkptSectionTagBits
        body.put(tags[ti], kCkptSectionTagBits);
        // cable-wire: ckpt.ht age_clock kCkptCountBits
        putCounter(body, ht.age_clock_);
        // cable-wire: ckpt.ht inserts kCkptCountBits
        putCounter(body, ht.inserts_);
        // cable-wire: ckpt.ht evictions kCkptCountBits
        putCounter(body, ht.evictions_);
        // cable-wire: ckpt.ht refreshes kCkptCountBits
        putCounter(body, ht.refreshes_);
        // cable-wire: ckpt.ht removes kCkptCountBits
        putCounter(body, ht.removes_);
        // cable-wire: ckpt.ht remove_misses kCkptCountBits
        putCounter(body, ht.remove_misses_);
        // cable-wire: ckpt.ht lookups kCkptCountBits
        putCounter(body, ht.lookups_);
        // cable-wire: ckpt.ht lookup_lids kCkptCountBits
        putCounter(body, ht.lookup_lids_);
        // Empty slots are written as set/way/age 0/0/0.
        const unsigned ways = ht.cfg_.bucket_ways;
        for (std::size_t first = 0; first < ht.slots_.size();
             first += ways) {
            // cable-wire: ckpt.ht bucket_len kCkptSlotCountBits*buckets
            body.put(ways, kCkptSlotCountBits);
            for (std::size_t k = first; k < first + ways; ++k) {
                const auto &slot = ht.slots_[k];
                // cable-wire: ckpt.ht slot_set kCkptSetBits*slots
                body.put(slot.lid.set, kCkptSetBits);
                // cable-wire: ckpt.ht slot_way kCkptWayBits*slots
                body.put(slot.lid.way, kCkptWayBits);
                // cable-wire: ckpt.ht slot_age kCkptCountBits*slots
                body.put(slot.age, kCkptCountBits);
            }
        }
    }

    // EVBUF — clocks, counters, then the buffered line copies.
    // cable-wire: ckpt.evbuf tag kCkptSectionTagBits
    body.put(kCkptTagEvbuf, kCkptSectionTagBits);
    // cable-wire: ckpt.evbuf seq_clock kCkptCountBits
    putCounter(body, ch.evbuf_.seq_clock_);
    // cable-wire: ckpt.evbuf pushes kCkptCountBits
    putCounter(body, ch.evbuf_.pushes_);
    // cable-wire: ckpt.evbuf retired kCkptCountBits
    putCounter(body, ch.evbuf_.retired_);
    // cable-wire: ckpt.evbuf overflow_drops kCkptCountBits
    putCounter(body, ch.evbuf_.overflow_drops_);
    // cable-wire: ckpt.evbuf finds kCkptCountBits
    putCounter(body, ch.evbuf_.finds_);
    // cable-wire: ckpt.evbuf find_hits kCkptCountBits
    putCounter(body, ch.evbuf_.find_hits_);
    // cable-wire: ckpt.evbuf len kCkptEvbufLenBits
    body.put(ch.evbuf_.entries_.size(), kCkptEvbufLenBits);
    for (const auto &e : ch.evbuf_.entries_) {
        // cable-wire: ckpt.evbuf entry_seq kCkptCountBits*len
        body.put(e.seq, kCkptCountBits);
        // cable-wire: ckpt.evbuf entry_set kCkptSetBits*len
        body.put(e.lid.set, kCkptSetBits);
        // cable-wire: ckpt.evbuf entry_way kCkptWayBits*len
        body.put(e.lid.way, kCkptWayBits);
        for (unsigned i = 0; i < kLineBytes; ++i)
            // cable-wire: ckpt.evbuf entry_byte kCkptByteBits*kLineBytes
            body.put(e.data.byte(i), kCkptByteBits);
    }

    // COUNTERS — every touched StatSet counter, sorted by name, so
    // identical state yields a bit-identical image.
    const auto counters = ch.stats_.counters();
    // cable-wire: ckpt.counters tag kCkptSectionTagBits
    body.put(kCkptTagCounters, kCkptSectionTagBits);
    // cable-wire: ckpt.counters count kCkptNumCountersBits
    body.put(counters.size(), kCkptNumCountersBits);
    for (const auto &[name, value] : counters) {
        // cable-wire: ckpt.counters name_len kCkptNameLenBits*count
        body.put(name.size(), kCkptNameLenBits);
        for (char c : name)
            // cable-wire: ckpt.counters name_byte kCkptByteBits*name
            body.put(static_cast<unsigned char>(c), kCkptByteBits);
        // cable-wire: ckpt.counters value kCkptCountBits*count
        body.put(value, kCkptCountBits);
    }

    // Assemble: header, body, CRC over everything before the CRC.
    BitWriter bw;
    // cable-wire: ckpt.header magic kCkptMagicBits
    bw.put(kCkptMagic, kCkptMagicBits);
    // cable-wire: ckpt.header version kCkptVersionBits
    bw.put(kCkptVersion, kCkptVersionBits);
    // cable-wire: ckpt.header body_len kCkptBodyLenBits
    bw.put(body.sizeBits(), kCkptBodyLenBits);
    bw.appendBits(body.bits());
    std::uint16_t crc = crc16Bits(bw.bits(), 0, bw.sizeBits());
    // cable-wire: ckpt.trailer crc kCkptCrcBits
    bw.put(crc, kCkptCrcBits);
    return bw.take();
}

// ---------------------------------------------------------------------
// Restore
// ---------------------------------------------------------------------

void
ChannelCheckpoint::restore(CableChannel &ch, const BitVec &image)
{
    using Kind = CableCheckpointError::Kind;

    // Header checks. Magic and version are validated before the CRC
    // so version skew surfaces as VersionSkew (a v2 writer also moves
    // the CRC, which would otherwise mask the real cause).
    if (image.sizeBits() < kCkptHeaderBits)
        bad(Kind::Truncated, "image smaller than the fixed header");
    BitReader hdr(image);
    // cable-wire: ckpt.header magic kCkptMagicBits
    std::uint64_t magic = hdr.get(kCkptMagicBits);
    if (magic != kCkptMagic)
        bad(Kind::BadMagic, "leading magic number mismatch");
    // cable-wire: ckpt.header version kCkptVersionBits
    std::uint64_t version = hdr.get(kCkptVersionBits);
    if (version != kCkptVersion)
        bad(Kind::VersionSkew,
            "image version " + std::to_string(version)
                + ", supported " + std::to_string(kCkptVersion));
    // cable-wire: ckpt.header body_len kCkptBodyLenBits
    std::size_t body_len =
        static_cast<std::size_t>(hdr.get(kCkptBodyLenBits));
    std::size_t crc_end = kCkptHeaderBits + body_len;
    std::size_t total = crc_end + kCkptCrcBits;
    if (image.sizeBits() < total)
        bad(Kind::Truncated, "image shorter than its declared size");
    if (image.sizeBits() - total >= kCkptByteBits)
        bad(Kind::BadSection, "trailing bytes after the image");

    // Integrity: CRC-16 over header + body. BitReader has no seek,
    // so the trailer is folded bit-by-bit at its known offset.
    std::uint16_t want = crc16Bits(image, 0, crc_end);
    std::uint16_t got = 0;
    // cable-wire-read: ckpt.trailer crc kCkptCrcBits
    for (std::size_t i = crc_end; i < total; ++i)
        got = static_cast<std::uint16_t>((got << 1)
                                         | (image.bit(i) ? 1 : 0));
    if (want != got)
        bad(Kind::CrcMismatch, "image CRC check failed");

    Cursor cur(image, kCkptHeaderBits, crc_end);

    // GEOM.
    // cable-wire: ckpt.geom tag kCkptSectionTagBits
    cur.expectTag(kCkptTagGeom, "GEOM");
    // cable-wire: ckpt.geom remote_sets kCkptSetBits
    std::uint32_t remote_sets =
        static_cast<std::uint32_t>(cur.get(kCkptSetBits, "GEOM"));
    // cable-wire: ckpt.geom remote_ways kCkptWayBits
    unsigned remote_ways =
        static_cast<unsigned>(cur.get(kCkptWayBits, "GEOM"));
    // cable-wire: ckpt.geom home_sets kCkptSetBits
    std::uint32_t home_sets =
        static_cast<std::uint32_t>(cur.get(kCkptSetBits, "GEOM"));
    // cable-wire: ckpt.geom home_ways kCkptWayBits
    unsigned home_ways =
        static_cast<unsigned>(cur.get(kCkptWayBits, "GEOM"));
    // cable-wire: ckpt.geom rlid_bits kCkptRlidBits
    unsigned rlid_bits =
        static_cast<unsigned>(cur.get(kCkptRlidBits, "GEOM"));
    // cable-wire: ckpt.geom home_buckets kCkptBucketCountBits
    std::uint64_t home_buckets = cur.get(kCkptBucketCountBits, "GEOM");
    // cable-wire: ckpt.geom home_bucket_ways kCkptBucketWaysBits
    unsigned home_bucket_ways =
        static_cast<unsigned>(cur.get(kCkptBucketWaysBits, "GEOM"));
    // cable-wire: ckpt.geom remote_buckets kCkptBucketCountBits
    std::uint64_t remote_buckets =
        cur.get(kCkptBucketCountBits, "GEOM");
    // cable-wire: ckpt.geom remote_bucket_ways kCkptBucketWaysBits
    unsigned remote_bucket_ways =
        static_cast<unsigned>(cur.get(kCkptBucketWaysBits, "GEOM"));
    // cable-wire: ckpt.geom evbuf_cap kCkptEvbufCapBits
    std::size_t evbuf_cap =
        static_cast<std::size_t>(cur.get(kCkptEvbufCapBits, "GEOM"));
    if (remote_sets != ch.remote_.numSets()
        || remote_ways != ch.remote_.numWays()
        || home_sets != ch.home_.numSets()
        || home_ways != ch.home_.numWays()
        || rlid_bits != ch.rlid_bits_
        || home_buckets != ch.home_ht_.num_buckets_
        || home_bucket_ways != ch.home_ht_.cfg_.bucket_ways
        || remote_buckets != ch.remote_ht_.num_buckets_
        || remote_bucket_ways != ch.remote_ht_.cfg_.bucket_ways
        || evbuf_cap != ch.evbuf_.capacity_)
        bad(Kind::GeometryMismatch,
            "image geometry differs from the restoring channel");

    // CHANNEL.
    // cable-wire: ckpt.channel tag kCkptSectionTagBits
    cur.expectTag(kCkptTagChannel, "CHANNEL");
    // cable-wire: ckpt.channel health kCkptHealthBits
    std::uint64_t health_raw = cur.get(kCkptHealthBits, "CHANNEL");
    if (health_raw > 1)
        bad(Kind::BadSection, "unknown health state");
    // cable-wire: ckpt.channel healthy_streak kCkptCountBits
    std::uint64_t healthy_streak = cur.get(kCkptCountBits, "CHANNEL");
    // cable-wire: ckpt.channel epoch kCkptCountBits
    std::uint64_t epoch = cur.get(kCkptCountBits, "CHANNEL");
    // cable-wire: ckpt.channel trace_seq kCkptCountBits
    std::uint64_t trace_seq = cur.get(kCkptCountBits, "CHANNEL");
    // cable-wire: ckpt.channel compression kCkptFlagBits
    bool compression_enabled =
        cur.get(kCkptFlagBits, "CHANNEL") != 0;

    // WMT.
    // cable-wire: ckpt.wmt tag kCkptSectionTagBits
    cur.expectTag(kCkptTagWmt, "WMT");
    // cable-wire: ckpt.wmt sets kCkptCountBits
    std::uint64_t wmt_sets = cur.get(kCkptCountBits, "WMT");
    // cable-wire: ckpt.wmt overwrites kCkptCountBits
    std::uint64_t wmt_overwrites = cur.get(kCkptCountBits, "WMT");
    // cable-wire: ckpt.wmt clears kCkptCountBits
    std::uint64_t wmt_clears = cur.get(kCkptCountBits, "WMT");
    // cable-wire: ckpt.wmt lookups kCkptCountBits
    std::uint64_t wmt_lookups = cur.get(kCkptCountBits, "WMT");
    // cable-wire: ckpt.wmt translate_misses kCkptCountBits
    std::uint64_t wmt_translate_misses =
        cur.get(kCkptCountBits, "WMT");
    std::vector<WayMapTable::Slot> wmt_slots;
    wmt_slots.resize(std::size_t{remote_sets} * remote_ways);
    unsigned entry_bits = ch.wmt_.entryBits();
    for (auto &slot : wmt_slots) {
        // cable-wire: ckpt.wmt slot_valid kCkptFlagBits*slots
        bool valid = cur.get(kCkptFlagBits, "WMT") != 0;
        if (!valid)
            continue;
        // cable-wire: ckpt.wmt slot_norm kCkptNormBits*valid
        std::uint32_t norm =
            static_cast<std::uint32_t>(cur.get(kCkptNormBits, "WMT"));
        if (entry_bits < kCkptNormBits
            && norm >= (std::uint32_t{1} << entry_bits))
            bad(Kind::BadSection, "WMT normalized LID out of range");
        slot.norm = norm;
        slot.valid = true;
    }

    // HT_HOME / HT_REMOTE.
    HtImage hts[2];
    const std::uint32_t tags[2] = {kCkptTagHtHome, kCkptTagHtRemote};
    const char *ht_names[2] = {"HT_HOME", "HT_REMOTE"};
    for (unsigned ti = 0; ti < 2; ++ti) {
        const SignatureHashTable &live =
            ti == 0 ? ch.home_ht_ : ch.remote_ht_;
        std::uint32_t sets_limit = ti == 0 ? home_sets : remote_sets;
        unsigned ways_limit = ti == 0 ? home_ways : remote_ways;
        HtImage &img = hts[ti];
        // cable-wire: ckpt.ht tag kCkptSectionTagBits
        cur.expectTag(tags[ti], ht_names[ti]);
        // cable-wire: ckpt.ht age_clock kCkptCountBits
        img.age_clock = cur.get(kCkptCountBits, ht_names[ti]);
        // cable-wire: ckpt.ht inserts kCkptCountBits
        img.inserts = cur.get(kCkptCountBits, ht_names[ti]);
        // cable-wire: ckpt.ht evictions kCkptCountBits
        img.evictions = cur.get(kCkptCountBits, ht_names[ti]);
        // cable-wire: ckpt.ht refreshes kCkptCountBits
        img.refreshes = cur.get(kCkptCountBits, ht_names[ti]);
        // cable-wire: ckpt.ht removes kCkptCountBits
        img.removes = cur.get(kCkptCountBits, ht_names[ti]);
        // cable-wire: ckpt.ht remove_misses kCkptCountBits
        img.remove_misses = cur.get(kCkptCountBits, ht_names[ti]);
        // cable-wire: ckpt.ht lookups kCkptCountBits
        img.lookups = cur.get(kCkptCountBits, ht_names[ti]);
        // cable-wire: ckpt.ht lookup_lids kCkptCountBits
        img.lookup_lids = cur.get(kCkptCountBits, ht_names[ti]);
        const unsigned ways = live.cfg_.bucket_ways;
        img.slots.assign(live.slots_.size(), HtImage::Slot{});
        for (std::size_t first = 0; first < img.slots.size();
             first += ways) {
            // cable-wire: ckpt.ht bucket_len kCkptSlotCountBits*buckets
            std::uint64_t count =
                cur.get(kCkptSlotCountBits, ht_names[ti]);
            if (count > ways)
                bad(Kind::BadSection,
                    "hash bucket deeper than its configured ways");
            for (std::size_t k = first; k < first + count; ++k) {
                HtImage::Slot &slot = img.slots[k];
                // cable-wire: ckpt.ht slot_set kCkptSetBits*slots
                slot.set = static_cast<std::uint32_t>(
                    cur.get(kCkptSetBits, ht_names[ti]));
                // cable-wire: ckpt.ht slot_way kCkptWayBits*slots
                slot.way = static_cast<std::uint8_t>(
                    cur.get(kCkptWayBits, ht_names[ti]));
                // cable-wire: ckpt.ht slot_age kCkptCountBits*slots
                slot.age = cur.get(kCkptCountBits, ht_names[ti]);
                if (slot.set >= sets_limit || slot.way >= ways_limit)
                    bad(Kind::BadSection,
                        "hash-table LineID out of range");
                // Live slots always have age >= 1.
                if (slot.age == 0 && (slot.set != 0 || slot.way != 0))
                    bad(Kind::BadSection,
                        "empty hash-table slot names a LineID");
            }
        }
    }

    // EVBUF.
    EvbufImage ev;
    // cable-wire: ckpt.evbuf tag kCkptSectionTagBits
    cur.expectTag(kCkptTagEvbuf, "EVBUF");
    // cable-wire: ckpt.evbuf seq_clock kCkptCountBits
    ev.seq_clock = cur.get(kCkptCountBits, "EVBUF");
    // cable-wire: ckpt.evbuf pushes kCkptCountBits
    ev.pushes = cur.get(kCkptCountBits, "EVBUF");
    // cable-wire: ckpt.evbuf retired kCkptCountBits
    ev.retired = cur.get(kCkptCountBits, "EVBUF");
    // cable-wire: ckpt.evbuf overflow_drops kCkptCountBits
    ev.overflow_drops = cur.get(kCkptCountBits, "EVBUF");
    // cable-wire: ckpt.evbuf finds kCkptCountBits
    ev.finds = cur.get(kCkptCountBits, "EVBUF");
    // cable-wire: ckpt.evbuf find_hits kCkptCountBits
    ev.find_hits = cur.get(kCkptCountBits, "EVBUF");
    // cable-wire: ckpt.evbuf len kCkptEvbufLenBits
    std::uint64_t ev_len = cur.get(kCkptEvbufLenBits, "EVBUF");
    if (ev_len > evbuf_cap)
        bad(Kind::BadSection, "eviction buffer beyond its capacity");
    ev.entries.resize(static_cast<std::size_t>(ev_len));
    for (auto &e : ev.entries) {
        // cable-wire: ckpt.evbuf entry_seq kCkptCountBits*len
        e.seq = cur.get(kCkptCountBits, "EVBUF");
        // cable-wire: ckpt.evbuf entry_set kCkptSetBits*len
        e.set = static_cast<std::uint32_t>(
            cur.get(kCkptSetBits, "EVBUF"));
        // cable-wire: ckpt.evbuf entry_way kCkptWayBits*len
        e.way = static_cast<std::uint8_t>(
            cur.get(kCkptWayBits, "EVBUF"));
        if (e.set >= remote_sets || e.way >= remote_ways)
            bad(Kind::BadSection,
                "eviction-buffer LineID out of range");
        for (unsigned i = 0; i < kLineBytes; ++i)
            // cable-wire: ckpt.evbuf entry_byte kCkptByteBits*kLineBytes
            e.data.setByte(i, static_cast<std::uint8_t>(
                                  cur.get(kCkptByteBits, "EVBUF")));
    }

    // COUNTERS.
    // cable-wire: ckpt.counters tag kCkptSectionTagBits
    cur.expectTag(kCkptTagCounters, "COUNTERS");
    // cable-wire: ckpt.counters count kCkptNumCountersBits
    std::uint64_t ncounters = cur.get(kCkptNumCountersBits, "COUNTERS");
    std::map<std::string, std::uint64_t> counters;
    for (std::uint64_t i = 0; i < ncounters; ++i) {
        // cable-wire: ckpt.counters name_len kCkptNameLenBits*count
        std::uint64_t len = cur.get(kCkptNameLenBits, "COUNTERS");
        std::string name;
        name.reserve(static_cast<std::size_t>(len));
        for (std::uint64_t c = 0; c < len; ++c)
            // cable-wire: ckpt.counters name_byte kCkptByteBits*name
            name.push_back(static_cast<char>(
                cur.get(kCkptByteBits, "COUNTERS")));
        // cable-wire: ckpt.counters value kCkptCountBits*count
        counters[name] = cur.get(kCkptCountBits, "COUNTERS");
    }

    if (cur.pos() != cur.endPos())
        bad(Kind::BadSection, "body longer than its sections");

    // ---- apply (nothing above mutated the channel) ------------------

    // Restore routes through the generated recovery table like every
    // other health change: RestoreHealthy/RestoreDegraded land the
    // machine on the captured steady state regardless of the state
    // the restoring channel was in.
    const RecoveryStep &restore_step = recoveryAdvance(
        ch.health_, health_raw ? RecoveryEvent::RestoreDegraded
                               : RecoveryEvent::RestoreHealthy);
    ch.health_ = restore_step.to;
    ch.healthy_streak_ = static_cast<unsigned>(healthy_streak);
    ch.trace_seq_ = trace_seq;
    ch.cfg_.compression_enabled = compression_enabled;

    ch.wmt_.slots_ = std::move(wmt_slots);
    ch.wmt_.sets_ = wmt_sets;
    ch.wmt_.overwrites_ = wmt_overwrites;
    ch.wmt_.clears_ = wmt_clears;
    ch.wmt_.lookups_ = wmt_lookups;
    ch.wmt_.translate_misses_ = wmt_translate_misses;

    for (unsigned ti = 0; ti < 2; ++ti) {
        SignatureHashTable &live =
            ti == 0 ? ch.home_ht_ : ch.remote_ht_;
        HtImage &img = hts[ti];
        live.age_clock_ = img.age_clock;
        live.inserts_ = img.inserts;
        live.evictions_ = img.evictions;
        live.refreshes_ = img.refreshes;
        live.removes_ = img.removes;
        live.remove_misses_ = img.remove_misses;
        live.lookups_ = img.lookups;
        live.lookup_lids_ = img.lookup_lids;
        for (std::size_t k = 0; k < live.slots_.size(); ++k) {
            const HtImage::Slot &slot = img.slots[k];
            live.slots_[k] =
                slot.age == 0
                    ? SignatureHashTable::Slot{}
                    : SignatureHashTable::Slot{
                          LineID(slot.set, slot.way), slot.age};
        }
    }

    ch.evbuf_.seq_clock_ = ev.seq_clock;
    ch.evbuf_.pushes_ = ev.pushes;
    ch.evbuf_.retired_ = ev.retired;
    ch.evbuf_.overflow_drops_ = ev.overflow_drops;
    ch.evbuf_.finds_ = ev.finds;
    ch.evbuf_.find_hits_ = ev.find_hits;
    ch.evbuf_.entries_.clear();
    for (const auto &e : ev.entries)
        ch.evbuf_.entries_.push_back(
            {e.seq, LineID(e.set, e.way), e.data});

    // Histograms are telemetry, not replicated channel state: a
    // restored channel restarts them empty while every counter comes
    // back exactly (the reconciliation tests depend on counters).
    // clear() keeps every handle valid; enabled sketches stay
    // visible, empty.
    ch.stats_.clear();
    ch.setSketchesEnabled(ch.sketchesEnabled());
    for (const auto &[name, value] : counters)
        ch.stats_.add(name, value);

    // Every restore opens a new channel generation — the resync
    // handshake compares epochs to detect a restarted peer. The
    // spec's Restore* transitions carry the epoch advance.
    ch.epoch_ = epoch + restore_step.epoch_delta;
    ch.stats_.add("checkpoint_restores", 1);
    ch.traceControl(TraceEvent::Type::Checkpoint, 0, false, ch.epoch_);
}

// ---------------------------------------------------------------------
// File I/O (atomic write + rename)
// ---------------------------------------------------------------------

void
ChannelCheckpoint::writeImage(const BitVec &image,
                              const std::string &path)
{
    using Kind = CableCheckpointError::Kind;
    std::string tmp = path + ".tmp";
    std::FILE *f = std::fopen(tmp.c_str(), "wb");
    if (!f)
        bad(Kind::IoError, "cannot open " + tmp + " for writing");
    std::size_t nbytes = (image.sizeBits() + 7) / 8;
    std::size_t written =
        nbytes ? std::fwrite(image.data(), 1, nbytes, f) : 0;
    bool flush_ok = std::fflush(f) == 0;
    std::fclose(f);
    if (written != nbytes || !flush_ok) {
        std::remove(tmp.c_str());
        bad(Kind::IoError, "short write to " + tmp);
    }
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        std::remove(tmp.c_str());
        bad(Kind::IoError, "cannot rename " + tmp + " to " + path);
    }
}

BitVec
ChannelCheckpoint::readImage(const std::string &path)
{
    using Kind = CableCheckpointError::Kind;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        bad(Kind::IoError, "cannot open " + path + " for reading");
    std::vector<std::uint8_t> bytes;
    std::uint8_t buf[4096];
    std::size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.insert(bytes.end(), buf, buf + n);
    bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        bad(Kind::IoError, "read error on " + path);
    BitVec image;
    for (std::uint8_t b : bytes)
        for (unsigned i = 0; i < 8; ++i)
            image.pushBit(((b >> (7 - i)) & 1) != 0);
    return image;
}

void
ChannelCheckpoint::save(const CableChannel &ch, const std::string &path)
{
    writeImage(capture(ch), path);
}

void
ChannelCheckpoint::load(CableChannel &ch, const std::string &path)
{
    restore(ch, readImage(path));
}

} // namespace cable
