#include "core/checkpoint.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/crc.h"
#include "core/channel.h"

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

using Kind = CableCheckpointError::Kind;

[[noreturn]] void
bad(Kind kind, const std::string &detail)
{
    throw CableCheckpointError(kind, detail);
}

/** Walk side that emits the body: every field goes out as it stands
 *  and every check passes. */
struct BodyWriter
{
    BitWriter bw;

    void
    section(std::uint32_t tag, const char *)
    {
        rw(tag, kCkptSectionTagBits);
    }

    template <class T>
    void
    rw(const T &v, unsigned nbits)
    {
        bw.put(static_cast<std::uint64_t>(v), nbits);
    }

    void check(bool, const char *, Kind = Kind::BadSection) {}
};

/**
 * Walk side that parses the body. Its BitReader is limited to the
 * declared body end, so a field past it overruns and is rejected as
 * a BadSection naming the section it sits in, and each check throws
 * its typed error.
 */
struct BodyReader
{
    BitReader r;
    const char *section_name = "";

    explicit BodyReader(const BitVec &image) : r(image) {}

    void
    section(std::uint32_t tag, const char *name)
    {
        section_name = name;
        std::uint32_t got = 0;
        rw(got, kCkptSectionTagBits);
        if (got != tag)
            bad(Kind::BadSection, std::string("expected section ") + name);
    }

    template <class T>
    void
    rw(T &v, unsigned nbits)
    {
        v = static_cast<T>(r.get(nbits));
        if (r.overrun())
            bad(Kind::BadSection,
                std::string("body ends inside ") + section_name);
    }

    void
    check(bool ok, const char *what, Kind kind = Kind::BadSection)
    {
        if (!ok)
            bad(kind, what);
    }
};

/** Element @p i of a sequence whose length the image gives. The
 *  reader's sequences start empty and grow one element per read, so
 *  a count the body cannot back ends in an overrun, never in an
 *  allocation of that size. */
template <class Seq>
auto &
grow(Seq &seq, std::uint64_t i)
{
    if (i == seq.size())
        seq.resize(seq.size() + 1);
    return seq[i];
}

} // namespace

/**
 * Everything a checkpoint holds, with the channel's WMT, hash tables
 * and eviction buffer as copies: capture walks them out, and restore
 * walks the image into them and moves them into the channel only
 * once the whole image has validated.
 */
struct ChannelCheckpoint::State
{
    explicit State(const CableChannel &ch)
        : remote_sets(ch.remote_.numSets()),
          remote_ways(ch.remote_.numWays()),
          home_sets(ch.home_.numSets()), home_ways(ch.home_.numWays()),
          rlid_bits(ch.rlid_fmt_.bits()),
          degraded(ch.health_ == CableChannel::Health::Degraded),
          healthy_streak(ch.healthy_streak_), epoch(ch.epoch_),
          trace_seq(ch.trace_seq_),
          compression(ch.cfg_.compression_enabled), wmt(ch.wmt_),
          ht{ch.home_ht_, ch.remote_ht_}, evbuf(ch.evbuf_)
    {
    }

    // The channel's geometry, which an image must match.
    unsigned remote_sets, remote_ways, home_sets, home_ways, rlid_bits;
    unsigned degraded; ///< the kCkptHealthBits health field
    unsigned healthy_streak;
    std::uint64_t epoch, trace_seq;
    bool compression;
    WayMapTable wmt;
    SignatureHashTable ht[2]; ///< home, remote
    EvictionBuffer evbuf;
    /** Capture fills it from the StatSet; restore starts it empty. */
    std::vector<std::pair<std::string, std::uint64_t>> counters;
};

/**
 * The body layout, defined once: capture() walks it with a
 * BodyWriter and restore() with a BodyReader. Checks are no-ops for
 * the writer.
 */
template <class IO>
void
ChannelCheckpoint::walk(IO &io, State &s)
{
    // GEOM — read whole, then compared with the restoring channel.
    io.section(kCkptTagGeom, "GEOM");
    const std::pair<std::uint64_t, unsigned> geom[] = {
        {s.remote_sets, kCkptSetBits},
        {s.remote_ways, kCkptWayBits},
        {s.home_sets, kCkptSetBits},
        {s.home_ways, kCkptWayBits},
        {s.rlid_bits, kCkptRlidBits},
        {s.ht[0].num_buckets_, kCkptBucketCountBits},
        {s.ht[0].cfg_.bucket_ways, kCkptBucketWaysBits},
        {s.ht[1].num_buckets_, kCkptBucketCountBits},
        {s.ht[1].cfg_.bucket_ways, kCkptBucketWaysBits},
        {s.evbuf.capacity_, kCkptEvbufCapBits},
    };
    bool same = true;
    for (const auto &[want, nbits] : geom) {
        std::uint64_t got = want;
        io.rw(got, nbits);
        same = same && got == want;
    }
    io.check(same, "image geometry differs from the restoring channel",
             Kind::GeometryMismatch);

    // CHANNEL — health machine, generation clocks, compression gate.
    io.section(kCkptTagChannel, "CHANNEL");
    io.rw(s.degraded, kCkptHealthBits);
    io.check(s.degraded <= 1, "unknown health state");
    io.rw(s.healthy_streak, kCkptCountBits);
    io.rw(s.epoch, kCkptCountBits);
    io.rw(s.trace_seq, kCkptCountBits);
    io.rw(s.compression, kCkptFlagBits);

    // WMT — counters then the per-slot residency map, set-major.
    io.section(kCkptTagWmt, "WMT");
    WayMapTable &wmt = s.wmt;
    for (std::uint64_t *c : {&wmt.sets_, &wmt.overwrites_, &wmt.clears_,
                             &wmt.lookups_, &wmt.translate_misses_})
        io.rw(*c, kCkptCountBits);
    const unsigned entry_bits = wmt.entryBits();
    for (WayMapTable::Slot &slot : wmt.slots_) {
        io.rw(slot.valid, kCkptFlagBits);
        if (!slot.valid) {
            slot = {};
            continue;
        }
        io.rw(slot.norm, kCkptNormBits);
        io.check(entry_bits >= kCkptNormBits
                     || slot.norm < (std::uint32_t{1} << entry_bits),
                 "WMT normalized LID out of range");
    }

    // HT_HOME / HT_REMOTE — identical layout.
    const std::uint32_t tags[2] = {kCkptTagHtHome, kCkptTagHtRemote};
    const char *names[2] = {"HT_HOME", "HT_REMOTE"};
    const unsigned sets[2] = {s.home_sets, s.remote_sets};
    const unsigned ways[2] = {s.home_ways, s.remote_ways};
    for (unsigned t = 0; t < 2; ++t) {
        SignatureHashTable &ht = s.ht[t];
        io.section(tags[t], names[t]);
        for (std::uint64_t *c :
             {&ht.age_clock_, &ht.inserts_, &ht.evictions_,
              &ht.refreshes_, &ht.removes_, &ht.remove_misses_,
              &ht.lookups_, &ht.lookup_lids_})
            io.rw(*c, kCkptCountBits);
        // Every bucket is written whole, empty slots as set/way/age
        // 0/0/0; a shorter bucket leaves the rest of it empty.
        const unsigned depth = ht.cfg_.bucket_ways;
        for (std::size_t first = 0; first < ht.slots_.size();
             first += depth) {
            unsigned len = depth;
            io.rw(len, kCkptSlotCountBits);
            io.check(len <= depth,
                     "hash bucket deeper than its configured ways");
            for (std::size_t k = first; k < first + depth; ++k) {
                SignatureHashTable::Slot &slot = ht.slots_[k];
                if (k >= first + len) {
                    slot = {};
                    continue;
                }
                io.rw(slot.lid.set, kCkptSetBits);
                io.rw(slot.lid.way, kCkptWayBits);
                io.rw(slot.age, kCkptCountBits);
                io.check(slot.lid.set < sets[t] && slot.lid.way < ways[t],
                         "hash-table LineID out of range");
                // Live slots always have age >= 1.
                io.check(slot.age != 0
                             || (slot.lid.set == 0 && slot.lid.way == 0),
                         "empty hash-table slot names a LineID");
                slot.lid.valid = slot.age != 0;
            }
        }
    }

    // EVBUF — clocks, counters, then the buffered line copies.
    io.section(kCkptTagEvbuf, "EVBUF");
    EvictionBuffer &ev = s.evbuf;
    for (std::uint64_t *c : {&ev.seq_clock_, &ev.pushes_, &ev.retired_,
                             &ev.overflow_drops_, &ev.finds_,
                             &ev.find_hits_})
        io.rw(*c, kCkptCountBits);
    std::size_t len = ev.entries_.size();
    io.rw(len, kCkptEvbufLenBits);
    io.check(len <= ev.capacity_, "eviction buffer beyond its capacity");
    ev.entries_.resize(len);
    for (auto &e : ev.entries_) {
        io.rw(e.seq, kCkptCountBits);
        io.rw(e.lid.set, kCkptSetBits);
        io.rw(e.lid.way, kCkptWayBits);
        io.check(e.lid.set < s.remote_sets && e.lid.way < s.remote_ways,
                 "eviction-buffer LineID out of range");
        e.lid.valid = true;
        for (unsigned i = 0; i < kLineBytes; ++i)
            io.rw(e.data.data()[i], kCkptByteBits);
    }

    // COUNTERS — every touched StatSet counter, in ascending name
    // order, so identical state yields a bit-identical image.
    io.section(kCkptTagCounters, "COUNTERS");
    std::uint64_t n = s.counters.size();
    io.rw(n, kCkptNumCountersBits);
    for (std::uint64_t i = 0; i < n; ++i) {
        auto &[name, value] = grow(s.counters, i);
        std::uint64_t name_len = name.size();
        io.rw(name_len, kCkptNameLenBits);
        for (std::uint64_t c = 0; c < name_len; ++c)
            io.rw(grow(name, c), kCkptByteBits);
        io.rw(value, kCkptCountBits);
        io.check(i == 0 || s.counters[i - 1].first < name,
                 "counter names out of order");
    }
}

// ---------------------------------------------------------------------
// Capture and restore
// ---------------------------------------------------------------------

BitVec
ChannelCheckpoint::capture(const CableChannel &ch)
{
    State s(ch);
    const auto counters = ch.stats_.counters();
    s.counters.assign(counters.begin(), counters.end());
    BodyWriter body;
    walk(body, s);

    // Header, body, then the CRC over everything before it.
    BitWriter bw;
    bw.put(kCkptMagic, kCkptMagicBits);
    bw.put(kCkptVersion, kCkptVersionBits);
    bw.put(body.bw.sizeBits(), kCkptBodyLenBits);
    bw.appendBits(body.bw.bits());
    bw.put(crc16Bits(bw.bits(), 0, bw.sizeBits()), kCkptCrcBits);
    return bw.take();
}

void
ChannelCheckpoint::restore(CableChannel &ch, const BitVec &image)
{
    // Header checks. Magic and version are validated before the CRC
    // so version skew surfaces as VersionSkew (a v2 writer also moves
    // the CRC, which would otherwise mask the real cause).
    if (image.sizeBits() < kCkptHeaderBits)
        bad(Kind::Truncated, "image smaller than the fixed header");
    BodyReader in(image);
    if (in.r.get(kCkptMagicBits) != kCkptMagic)
        bad(Kind::BadMagic, "leading magic number mismatch");
    std::uint64_t version = in.r.get(kCkptVersionBits);
    if (version != kCkptVersion)
        bad(Kind::VersionSkew,
            "image version " + std::to_string(version)
                + ", supported " + std::to_string(kCkptVersion));
    std::size_t crc_end = kCkptHeaderBits + in.r.get(kCkptBodyLenBits);
    std::size_t total = crc_end + kCkptCrcBits;
    if (image.sizeBits() < total)
        bad(Kind::Truncated, "image shorter than its declared size");
    if (image.sizeBits() - total >= kCkptByteBits)
        bad(Kind::BadSection, "trailing bytes after the image");

    // Integrity: CRC-16 over header + body, against the trailer.
    std::uint16_t got = 0;
    for (std::size_t i = crc_end; i < total; ++i)
        got = static_cast<std::uint16_t>((got << 1) | image.bit(i));
    if (crc16Bits(image, 0, crc_end) != got)
        bad(Kind::CrcMismatch, "image CRC check failed");

    State s(ch);
    in.r.limit(crc_end);
    walk(in, s);
    if (!in.r.exhausted())
        bad(Kind::BadSection, "body longer than its sections");

    // ---- apply (nothing above mutated the channel) ------------------

    // Restore routes through the generated recovery table like every
    // other health change: RestoreHealthy/RestoreDegraded land the
    // machine on the captured steady state regardless of the state
    // the restoring channel was in.
    const RecoveryStep &restore_step = recoveryAdvance(
        ch.health_, s.degraded ? RecoveryEvent::RestoreDegraded
                               : RecoveryEvent::RestoreHealthy);
    ch.health_ = restore_step.to;
    ch.healthy_streak_ = s.healthy_streak;
    ch.trace_seq_ = s.trace_seq;
    ch.cfg_.compression_enabled = s.compression;
    ch.wmt_ = std::move(s.wmt);
    ch.home_ht_ = std::move(s.ht[0]);
    ch.remote_ht_ = std::move(s.ht[1]);
    ch.evbuf_ = std::move(s.evbuf);

    // Histograms are telemetry, not replicated channel state: a
    // restored channel restarts them empty while every counter comes
    // back exactly (the reconciliation tests depend on counters).
    // clear() keeps every handle valid; enabled sketches stay
    // visible, empty.
    ch.stats_.clear();
    ch.setSketchesEnabled(ch.sketchesEnabled());
    for (const auto &[name, value] : s.counters)
        ch.stats_.add(name, value);

    // Every restore opens a new channel generation — the resync
    // handshake compares epochs to detect a restarted peer. The
    // spec's Restore* transitions carry the epoch advance.
    ch.epoch_ = s.epoch + restore_step.epoch_delta;
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
