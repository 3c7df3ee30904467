#include "core/channel.h"

#include <algorithm>
#include <cstdio>

#include "common/alloc_guard.h"
#include "common/bitops.h"
#include "common/crc.h"
#include "common/log.h"
#include "compress/bdi.h"
#include "compress/cpack.h"
#include "compress/lbe.h"
#include "compress/lzss.h"
#include "compress/oracle.h"
#include "core/cbv.h"

namespace cable
{

CompressorPtr
makeDelegateEngine(const std::string &name)
{
    if (name == "lbe") {
        Lbe::Config cfg;
        cfg.dict_bytes = 256;
        cfg.persistent = false;
        return std::make_unique<Lbe>(cfg);
    }
    if (name == "cpack") {
        Cpack::Config cfg;
        cfg.dict_entries = 16;
        cfg.persistent = false;
        return std::make_unique<Cpack>(cfg);
    }
    if (name == "cpack128") {
        Cpack::Config cfg;
        cfg.dict_entries = 32;
        cfg.persistent = false;
        return std::make_unique<Cpack>(cfg);
    }
    if (name == "gzip" || name == "lzss") {
        Lzss::Config cfg;
        cfg.persistent = false;
        return std::make_unique<Lzss>(cfg);
    }
    if (name == "oracle")
        return std::make_unique<Oracle>();
    if (name == "bdi")
        return std::make_unique<Bdi>();
    fatal("unknown CABLE delegate engine '%s'", name.c_str());
}

namespace
{

/**
 * A "full-sized" table (factor 1.0) has as many LineID slots as the
 * cache has lines; buckets of depth @p ways group those slots, so
 * the bucket count is lines/ways.
 */
std::uint64_t
scaledEntries(double factor, std::uint64_t lines, unsigned ways)
{
    double e = factor * static_cast<double>(lines)
               / static_cast<double>(ways ? ways : 1);
    return e < 1.0 ? 1 : static_cast<std::uint64_t>(e);
}

/**
 * Stable sort of the pre-rank list, descending by duplication
 * count. std::stable_sort grabs a temporary merge buffer from the
 * heap on every call, which would break the search pipeline's
 * zero-allocation contract (rule R001's runtime twin in
 * test_parallel measures exactly this region). The list is bounded
 * by signatures x bucket ways, so insertion sort's O(n^2) is
 * immaterial; shifting only on strict inequality preserves
 * first-seen order among equal counts, matching the previous
 * std::stable_sort ordering bit for bit.
 */
// cable-lint: no-alloc
void
sortByDuplication(std::vector<std::pair<LineID, unsigned>> &v)
{
    for (std::size_t i = 1; i < v.size(); ++i) {
        std::pair<LineID, unsigned> key = v[i];
        std::size_t j = i;
        for (; j > 0 && v[j - 1].second < key.second; --j)
            v[j] = v[j - 1];
        v[j] = key;
    }
}

} // namespace

CableDesyncError::CableDesyncError(Addr addr_in, bool writeback_in,
                                   std::vector<LineID> refs_in,
                                   unsigned mismatch_word_in,
                                   const std::string &detail)
    : addr(addr_in), writeback(writeback_in), refs(std::move(refs_in)),
      mismatch_word(mismatch_word_in)
{
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "CABLE desync on %s of %llx (refs=%zu, word=%d): %s",
                  writeback ? "write-back" : "response",
                  static_cast<unsigned long long>(addr), refs.size(),
                  mismatch_word == kNoWord
                      ? -1
                      : static_cast<int>(mismatch_word),
                  detail.c_str());
    what_ = buf;
}

CableTimeoutError::CableTimeoutError(Addr addr_in, bool writeback_in,
                                     Cycles waited_in, Cycles budget_in)
    : addr(addr_in), writeback(writeback_in), waited(waited_in),
      budget(budget_in)
{
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "CABLE ARQ watchdog timeout on %s of %llx: "
                  "%llu retry cycles exceed budget %llu",
                  writeback ? "write-back" : "response",
                  static_cast<unsigned long long>(addr),
                  static_cast<unsigned long long>(waited),
                  static_cast<unsigned long long>(budget));
    what_ = buf;
}

CableChannel::CableChannel(Cache &home, Cache &remote,
                           const CableConfig &cfg)
    : home_(home), remote_(remote), cfg_(cfg),
      wmt_({remote.numSets(), remote.numWays(), home.numSets(),
            home.numWays()}),
      home_ht_({scaledEntries(cfg.home_ht_factor, home.numLines(),
                              cfg.ht_bucket),
                cfg.ht_bucket, cfg.hash_seed}),
      remote_ht_({scaledEntries(cfg.remote_ht_factor,
                                remote.numLines(), cfg.ht_bucket),
                  cfg.ht_bucket, cfg.hash_seed ^ 0x5eed}),
      evbuf_(16), engine_(makeDelegateEngine(cfg.engine))
{
    if (home_.numSets() < remote_.numSets())
        fatal("CableChannel: home cache smaller than remote cache");
    if (cfg_.max_refs > kMaxRefsCap)
        fatal("CableChannel: max_refs %u exceeds the 2-bit wire "
              "field cap of %u",
              cfg_.max_refs, kMaxRefsCap);
    if (cfg_.data_accesses > 64)
        fatal("CableChannel: data_accesses %u exceeds the selection "
              "kernel cap of 64",
              cfg_.data_accesses);
    unsigned way_bits = bitsToIndex(remote_.numWays());
    rlid_bits_ = bitsToIndex(remote_.numSets())
                 + (way_bits ? way_bits : 1);

    // Pre-size the search arena to its architectural worst case so
    // the encode search path never allocates — not even while
    // warming toward a high-water mark: a line yields at most
    // SigList::kCapacity search signatures, each hash-table probe
    // appends at most ht_bucket LIDs, and the candidate lists are
    // clipped to data_accesses entries before the data reads.
    std::size_t max_hits =
        std::size_t{SigList::kCapacity} * cfg_.ht_bucket;
    scratch_.hits.reserve(max_hits);
    scratch_.ranked.reserve(max_hits);
    scratch_.cand_rlids.reserve(cfg_.data_accesses);
    scratch_.cbvs.reserve(cfg_.data_accesses);
}

void
CableChannel::dropSignatures(SignatureHashTable &table,
                             const CacheLine &data, LineID lid)
{
    SigList sigs;
    extractInsertSignaturesInto(data, cfg_.sig, sigs);
    for (std::uint32_t sig : sigs)
        table.remove(sig, lid);
}

void
CableChannel::addSignatures(SignatureHashTable &table,
                            const CacheLine &data, LineID lid)
{
    SigList sigs;
    extractInsertSignaturesInto(data, cfg_.sig, sigs);
    for (std::uint32_t sig : sigs)
        table.insert(sig, lid);
}

// ---------------------------------------------------------------------
// Search + compress, both directions (Fig 8, §III-E, §III-G)
// ---------------------------------------------------------------------

BitVec
CableChannel::bitsOf(const CacheLine &data)
{
    BitWriter bw;
    for (unsigned i = 0; i < kLineBytes; ++i)
        // cable-wire: frame.payload byte kBitsPerByte*kLineBytes
        bw.put(data.byte(i), kBitsPerByte);
    return bw.take();
}

void
CableChannel::accountTransfer(const Transfer &t)
{
    stats_.add("transfers", 1);
    stats_.add("raw_bits", t.raw_bits);
    stats_.add("wire_bits", t.bits);
    // Integrity framing and recovery overhead, kept out of the
    // payload counters so compression ratios stay comparable to a
    // CRC-less link while the wire-level cost stays visible.
    stats_.add("crc_overhead_bits", t.crc_bits);
    stats_.add("retrans_bits", t.retrans_bits);
    stats_.add("retry_backoff_cycles", t.retry_cycles);
    // 16-bit-link flit quantization, for effective-ratio reporting.
    stats_.add("raw_flits16", ceilDiv(t.raw_bits, 16));
    stats_.add("wire_flits16", ceilDiv(t.bits, 16));
    if (t.writeback) {
        stats_.add("wb_transfers", 1);
        stats_.add("wb_raw_bits", t.raw_bits);
        stats_.add("wb_wire_bits", t.bits);
    } else {
        stats_.add("resp_raw_bits", t.raw_bits);
        stats_.add("resp_wire_bits", t.bits);
    }
}

void
CableChannel::resetStats()
{
    bool sketches = sketchesEnabled();
    stats_.clear();
    spans_.dropHistCache();
    setSketchesEnabled(sketches);
}

void
CableChannel::traceControl(TraceEvent::Type type, Addr addr,
                           bool writeback, std::uint64_t aux,
                           std::optional<std::uint64_t> resync_begin_ns)
{
    if (!trace_)
        return;
    TraceEvent ev;
    ev.type = type;
    ev.when = trace_seq_;
    ev.addr = addr;
    ev.writeback = writeback;
    ev.aux = aux;
    if (resync_begin_ns)
        spans_.recordControl(ev, stats_, Stage::Resync,
                             *resync_begin_ns);
    trace_->emit(ev);
}

const CableChannel::Direction CableChannel::Direction::kResponse = {
    .writeback = false,
    .table = &CableChannel::home_ht_,
    .self_ratio_early_out = true,
    .writeback_gates = false,
    .counts_ht_hits = true,
    .searches = "searches",
    .data_reads = "data_reads",
    .stale_hits = "home_ht_stale_hits",
    .sigs_hist = "sigs_per_search",
};

const CableChannel::Direction CableChannel::Direction::kWriteBack = {
    .writeback = true,
    .table = &CableChannel::remote_ht_,
    .self_ratio_early_out = false,
    .writeback_gates = true,
    .counts_ht_hits = false,
    .searches = "wb_searches",
    .data_reads = "wb_data_reads",
    .stale_hits = "remote_ht_stale_hits",
    .sigs_hist = "wb_sigs_per_search",
};

// cable-lint: no-alloc (steady-state: the scratch arena retains its
// high-water capacity, so the search pipeline stops allocating after
// warm-up; the engine's DIFF bitstreams are exempt by design)
CableChannel::Chosen
CableChannel::searchAndCompress(const Direction &dir,
                                const CacheLine &data, LineID self_lid)
{
    maybeCorruptMetadata();
    Chosen chosen;
    // Span sampling decision for this transfer ordinal; unsampled
    // transfers (and every transfer when sampling is off) pay this
    // branch and nothing else.
    if (trace_)
        (void)spans_.arm(trace_seq_);
    if (!cfg_.compression_enabled
        || (dir.writeback_gates && !cfg_.writeback_compression)) {
        chosen.raw = true;
        return chosen;
    }

    const std::size_t raw_cost =
        kWireRawHeaderBits + kLineBytes * kBitsPerByte;
    int sp_line = spans_.open(Stage::Line, -1);
    if (trace_)
        chosen.trivial_words = popcount32(trivialMask16(
            data.data(), cfg_.sig.trivial_threshold));
    spans_.close(sp_line);

    // Self-compression runs concurrently with the search (§III-E).
    int sp_self = spans_.open(Stage::Serialize, sp_line);
    BitVec self = engine_->compress(data, {});
    spans_.close(sp_self);
    const std::size_t self_cost =
        kWireCompressedHeaderBits + self.sizeBits();
    // The fallback whenever references are skipped or lose.
    auto takeSelfOrRaw = [&] {
        if (self_cost <= raw_cost) {
            chosen.diff = std::move(self);
            chosen.self_only = true;
        } else {
            chosen.raw = true;
        }
    };

    // A high enough self ratio skips the reference path entirely,
    // unless self would still lose to raw.
    bool search = true;
    if (dir.self_ratio_early_out && self.sizeBits() > 0
        && static_cast<double>(kLineBytes * 8)
                   / static_cast<double>(self.sizeBits())
               >= cfg_.self_ratio_threshold) {
        stats_.add("self_threshold_hits", 1);
        search = self_cost > raw_cost;
    }
    // Degraded mode: the metadata just resynchronized after a
    // desync; hold off on reference compression until a healthy
    // window passes (health-state machine, DESIGN.md).
    if (search && health_ == Health::Degraded) {
        stats_.add("degraded_self_only", 1);
        search = false;
    }
    // §IV-C: without inclusivity the remote cannot assume its lines
    // exist at the home; write-backs fall back to non-dictionary
    // (self) compression.
    if (dir.writeback_gates && !cfg_.inclusive)
        search = false;
    if (!search) {
        takeSelfOrRaw();
        return chosen;
    }

    // (1) extract search signatures, (2) probe the hash table. The
    // whole pipeline runs out of the reusable scratch arena: no
    // container below allocates once its high-water capacity is
    // reached.
    stats_.add(dir.searches, 1);
    SearchScratch &s = scratch_;
    // Runtime twin of lint rule R001: counts heap allocations over
    // the whole search pipeline (extract → probe → rank → CBV →
    // select). test_parallel asserts the counter stops growing once
    // the scratch arena reaches its high-water capacity.
    alloc_guard::Scope search_allocs;
    // The search branch forks off the Line span, parallel to the
    // self-compress Serialize span (§III-E concurrency) — the
    // critpath analyzer sees a genuine two-branch DAG.
    int sp_sig = spans_.open(Stage::Signature, sp_line);
    extractSearchSignaturesInto(data, cfg_.sig, s.sigs);
    spans_.close(sp_sig);
    int sp_probe = spans_.open(Stage::Probe);
    const SignatureHashTable &table = this->*dir.table;
    s.hits.clear();
    for (std::uint32_t sig : s.sigs)
        table.lookup(sig, s.hits);
    spans_.close(sp_probe);
    chosen.sigs_used = s.sigs.size();
    chosen.ht_hits = static_cast<unsigned>(s.hits.size());
    if (dir.counts_ht_hits)
        stats_.add("ht_hits", s.hits.size());

    // (3) pre-rank by duplication count (first-seen order breaks
    // ties), keep the top data_accesses candidates.
    int sp_score = spans_.open(Stage::Score);
    s.ranked.clear();
    for (LineID lid : s.hits) {
        if (lid == self_lid)
            continue;
        auto it = std::find_if(s.ranked.begin(), s.ranked.end(),
                               [&](const auto &p) {
                                   return p.first == lid;
                               });
        if (it == s.ranked.end())
            s.ranked.emplace_back(lid, 1);
        else
            ++it->second;
    }
    sortByDuplication(s.ranked);
    if (s.ranked.size() > cfg_.data_accesses)
        // cable-lint: allow(R001) shrink-only resize; capacity kept
        s.ranked.resize(cfg_.data_accesses);

    // (4) read candidates from the data array, build CBVs, and
    // greedily select references maximizing coverage.
    s.cand_rlids.clear();
    s.cand_data.clear();
    s.cbvs.clear();
    for (const auto &[lid, dup] : s.ranked) {
        LineID rlid;
        const CacheLine *ref = resolveCandidate(dir, lid, rlid);
        // Stale candidates — the hash table pointed at a slot that
        // no longer holds usable reference data. Expected in an
        // inexact table (§III-B); the rate is the cost.
        if (!ref) {
            stats_.add(dir.stale_hits, 1);
            continue;
        }
        stats_.add(dir.data_reads, 1);
        s.cand_rlids.push_back(rlid);
        s.cand_data.push_back(ref);
        s.cbvs.push_back(coverageVector(data, *ref));
    }
    const unsigned npicks = selectByCoverageInto(
        s.cbvs.data(), static_cast<unsigned>(s.cbvs.size()),
        cfg_.max_refs, s.picks.data());
    spans_.close(sp_score);
    if (alloc_guard::hooksInstalled())
        stats_.add("search_allocs", search_allocs.allocations());

    chosen.ranked = static_cast<unsigned>(s.cand_rlids.size());
    s.engine_refs.clear();
    for (unsigned p = 0; p < npicks; ++p) {
        unsigned c = s.picks[p];
        chosen.cbv_union |= s.cbvs[c];
        chosen.ref_rlids[chosen.nrefs++] = s.cand_rlids[c];
        s.engine_refs.push_back(s.cand_data[c]);
    }
    chosen.covered_words = popcount32(chosen.cbv_union);
    // Candidate-depth and coverage distributions (Figs 5/9 shape):
    // recorded once per reference search, whether or not the
    // reference representation ultimately wins the cost comparison.
    stats_.hist("ht_hits_per_search").record(chosen.ht_hits);
    stats_
        .hist("ranked_candidates", Histogram::Scale::Linear, 1,
              kWordsPerLine * 4 + 2)
        .record(chosen.ranked);
    stats_
        .hist("cbv_covered_words", Histogram::Scale::Linear, 1,
              kWordsPerLine + 2)
        .record(chosen.covered_words);
    stats_
        .hist(dir.sigs_hist, Histogram::Scale::Linear, 1,
              kWordsPerLine + 2)
        .record(chosen.sigs_used);

    std::size_t refs_cost = raw_cost + 1;
    if (chosen.nrefs > 0) {
        int sp_refs = spans_.open(Stage::Serialize, sp_score);
        chosen.diff = engine_->compress(data, s.engine_refs);
        refs_cost = kWireCompressedHeaderBits
                    + chosen.nrefs * rlid_bits_
                    + chosen.diff.sizeBits();
        spans_.close(sp_refs,
                     static_cast<std::uint16_t>(chosen.nrefs));
    }

    // (5) pick the cheapest representation.
    if (refs_cost < self_cost && refs_cost < raw_cost)
        return chosen;
    chosen.nrefs = 0;
    takeSelfOrRaw();
    return chosen;
}

const CacheLine *
CableChannel::resolveCandidate(const Direction &dir, LineID lid,
                               LineID &rlid) const
{
    if (!dir.writeback) {
        const Cache::Entry &e = home_.entryAt(lid);
        if (!e.valid())
            return nullptr;
        std::uint32_t rset = remote_.setOf(e.tag << kLineShift);
        auto rway = wmt_.lookupRemoteWay(rset, lid);
        if (!rway)
            return nullptr;
        rlid = LineID(rset, *rway);
        return &e.data;
    }
    const Cache::Entry &e = remote_.entryAt(lid);
    if (!e.valid() || e.dirty() || !wmt_.occupant(lid.set, lid.way))
        return nullptr;
    rlid = lid;
    return &e.data;
}

// ---------------------------------------------------------------------
// Wire packaging & verification
// ---------------------------------------------------------------------

Transfer
CableChannel::packageTransfer(const Chosen &chosen, bool writeback,
                              const CacheLine &original)
{
    Transfer t;
    t.writeback = writeback;
    t.raw_bits = kLineBytes * 8;
    t.sigs = chosen.sigs_used;

    // Wire serialization chains onto the last span closed. When a
    // search ran, that is the refs Serialize (or Score, if no
    // reference was compressed) even when self or raw won: the cost
    // comparison has to wait for the refs branch. When the search
    // was skipped, it is the self Serialize.
    int sp_ser = spans_.open(Stage::Serialize);
    BitWriter bw;
    if (!cfg_.compression_enabled) {
        // Baseline link: data only, no flag bit.
        bw.appendBits(bitsOf(original));
        t.raw = true;
    } else if (chosen.raw) {
        // cable-wire: frame.raw flag kWireFlagBits
        bw.put(0, kWireFlagBits);
        bw.appendBits(bitsOf(original));
        t.raw = true;
    } else {
        // cable-wire: frame.compressed flag kWireFlagBits
        bw.put(1, kWireFlagBits);
        // cable-wire: frame.compressed nrefs kWireNRefsBits
        bw.put(chosen.nrefs, kWireNRefsBits);
        for (unsigned i = 0; i < chosen.nrefs; ++i) {
            LineID rlid = chosen.ref_rlids[i];
            unsigned way_bits = bitsToIndex(remote_.numWays());
            if (way_bits == 0)
                way_bits = 1;
            // cable-wire: frame.compressed ref_set rlid_bits_-way_bits*nrefs
            bw.put(rlid.set, rlid_bits_ - way_bits);
            // cable-wire: frame.compressed ref_way way_bits*nrefs
            bw.put(rlid.way, way_bits);
        }
        bw.appendBits(chosen.diff);
        t.nrefs = chosen.nrefs;
        t.self_only = chosen.self_only;
    }
    // The payload counter excludes the CRC so compression ratios stay
    // comparable to a CRC-less link; the framing cost rides in
    // crc_bits and shows up in wireBits().
    std::size_t payload_bits = bw.sizeBits();
    spans_.close(sp_ser);
    if (cfg_.frame_crc_bits > 0) {
        int sp_frame = spans_.open(Stage::Frame);
        appendFrameCrc(bw, cfg_.frame_crc_bits);
        t.crc_bits = cfg_.frame_crc_bits;
        spans_.close(sp_frame);
    }
    t.wire = bw.take();
    t.bits = payload_bits;
    return t;
}

namespace
{

/** First differing 32-bit word between two lines, or kNoWord. */
unsigned
firstMismatchWord(const CacheLine &a, const CacheLine &b)
{
    for (unsigned i = 0; i < kLineBytes; ++i)
        if (a.byte(i) != b.byte(i))
            return i / 4;
    return CableDesyncError::kNoWord;
}

} // namespace

void
CableChannel::checkDecode(const Direction &dir, const Chosen &chosen,
                          const CacheLine &original, Addr addr)
{
    if (!cfg_.verify_roundtrip || chosen.raw)
        return;
    // Receiver-side reconstruction from the receiver's own data
    // array. The reference list is scratch, reused across transfers.
    RefList &refs = scratch_.verify_refs;
    refs.clear();
    for (unsigned i = 0; i < chosen.nrefs; ++i) {
        LineID rlid = chosen.ref_rlids[i];
        if (!dir.writeback) {
            refs.push_back(&remote_.entryAt(rlid).data);
            continue;
        }
        // The home translates each RemoteLID through its WMT.
        auto hlid = wmt_.occupantHomeLID(rlid.set, rlid.way);
        if (!hlid)
            throw CableDesyncError(
                addr, dir.writeback, chosen.refVector(),
                CableDesyncError::kNoWord,
                "reference to untracked remote line");
        refs.push_back(&home_.entryAt(*hlid).data);
    }
    CacheLine out = engine_->decompress(chosen.diff, refs);
    if (out != original)
        throw CableDesyncError(addr, dir.writeback, chosen.refVector(),
                               firstMismatchWord(out, original),
                               "decoded line differs from original");
}

// ---------------------------------------------------------------------
// Transmission: ARQ, raw fallback, desync recovery (fault tolerance)
// ---------------------------------------------------------------------

Transfer
CableChannel::encodeAndTransmit(const Direction &dir,
                                const CacheLine &data, LineID self_lid,
                                Addr addr)
{
    Chosen chosen = searchAndCompress(dir, data, self_lid);
    Transfer t = packageTransfer(chosen, dir.writeback, data);
    deliver(t, chosen, dir, addr, data);
    int sp_ack = spans_.open(Stage::Ack);
    accountTransfer(t);
    trackHealth(t);
    spans_.close(sp_ack);

    // Per-line distributions: the wire cost and reference-selection
    // quality of every transfer, the paper's Figs 5/9/20 material.
    stats_
        .hist("refs_per_line", Histogram::Scale::Linear, 1, 8)
        .record(t.nrefs);
    stats_
        .hist("line_wire_bits", Histogram::Scale::Linear, 32, 20)
        .record(t.bits);

    // Tail sketches (bounded-error quantiles; DESIGN.md §14). The
    // cached pointers are null unless setSketchesEnabled(true), so
    // the disabled path is one predictable branch.
    if (q_frame_bits_) {
        q_frame_bits_->record(t.bits);
        q_arq_rounds_->record(t.retries);
    }

    if (trace_) {
        // Reused, not rebuilt: every field below is rewritten and
        // drainTo() sets the span count, so no per-transfer
        // construction of the span array.
        TraceEvent &ev = encode_ev_;
        ev.type = TraceEvent::Type::Encode;
        ev.when = trace_seq_;
        ev.addr = addr;
        ev.writeback = dir.writeback;
        ev.engine = cfg_.engine.c_str();
        ev.mode = t.raw ? "raw" : (t.self_only ? "self" : "refs");
        ev.sigs = chosen.sigs_used;
        ev.trivial = chosen.trivial_words;
        ev.candidates = chosen.ht_hits;
        ev.ranked = chosen.ranked;
        ev.refs = t.nrefs;
        ev.cbv = t.raw || t.self_only ? 0 : chosen.cbv_union;
        ev.covered =
            t.raw || t.self_only ? 0 : chosen.covered_words;
        ev.in_bits = t.raw_bits;
        ev.out_bits = t.bits;
        ev.aux = t.retries;
        spans_.drainTo(ev, stats_);
        // Encode wall-time tail: summed stage spans of the sampled
        // transfers (the same measurements the t_stage_* histograms
        // hold, reduced to one per-transfer latency).
        if (q_encode_ns_ && ev.nspans > 0) {
            std::uint64_t ns = 0;
            for (unsigned i = 0; i < ev.nspans; ++i)
                ns += ev.spans[i].durationNs();
            q_encode_ns_->record(ns);
        }
        trace_->emit(ev);
    } else {
        spans_.disarm();
    }
    ++trace_seq_;
    return t;
}

void
CableChannel::deliver(Transfer &t, const Chosen &chosen,
                      const Direction &dir, Addr addr,
                      const CacheLine &original)
{
    if (fault_ && cfg_.frame_crc_bits > 0) {
        // Receiver-side ARQ: corrupt a copy of the wire image, check
        // the frame CRC, NACK and retransmit with exponential backoff
        // until clean or the retry budget runs out.
        unsigned attempt = 0;
        while (true) {
            // First pass is the receive-side CRC check (Frame);
            // every retry is a Retransmit span whose aux records the
            // attempt number — ARQ stalls become visible links in
            // the transfer's critical path.
            int sp_rx = spans_.open(attempt == 0 ? Stage::Frame
                                                 : Stage::Retransmit);
            BitVec received = t.wire;
            unsigned flips = fault_->corruptPacket(received);
            bool crc_ok = checkFrameCrc(received, cfg_.frame_crc_bits);
            spans_.close(sp_rx,
                         static_cast<std::uint16_t>(attempt));
            if (flips == 0 && crc_ok)
                break;
            if (crc_ok) {
                // Corruption the CRC cannot see (aliased syndrome).
                // Modeled as caught by the end-to-end decode check,
                // which forces the uncompressed escape hatch.
                stats_.add("crc_undetected", 1);
                traceControl(TraceEvent::Type::RawFallback, addr,
                             dir.writeback, /*aux=*/1);
                rawFallbackResend(t, original);
                checkArqWatchdog(t, addr, dir.writeback);
                return;
            }
            stats_.add("crc_detected", 1);
            if (attempt >= cfg_.max_retries) {
                // Retry budget exhausted: stop resending the fragile
                // compressed frame and fall back to raw.
                traceControl(TraceEvent::Type::RawFallback, addr,
                             dir.writeback, /*aux=*/2);
                rawFallbackResend(t, original);
                checkArqWatchdog(t, addr, dir.writeback);
                return;
            }
            ++attempt;
            t.retries += 1;
            stats_.add("retransmits", 1);
            traceControl(TraceEvent::Type::Retransmit, addr,
                         dir.writeback, attempt);
            t.retrans_bits += t.bits + t.crc_bits;
            t.retry_cycles += cfg_.retry_backoff_cycles
                              << std::min(attempt - 1, 16u);
            checkArqWatchdog(t, addr, dir.writeback);
        }
    }

    if (t.raw)
        return;
    int sp_link = spans_.open(Stage::Link);
    try {
        checkDecode(dir, chosen, original, addr);
        spans_.close(sp_link);
    } catch (const CableDesyncError &) {
        spans_.close(sp_link, /*aux=*/1);
        // Without a fault model a failed decode is a genuine bug —
        // let it propagate. Under injection it is the expected
        // consequence of a lost sync message or a metadata soft
        // error: recover and deliver the line uncompressed.
        if (!fault_)
            throw;
        stats_.add("desyncs_detected", 1);
        traceControl(TraceEvent::Type::Desync, addr, dir.writeback,
                     chosen.nrefs);
        // Strict mode: the desync is counted and traced, then
        // surfaced to the caller instead of being absorbed by the
        // recovery path (chaos harness / debugging knob). Spec path:
        // DesyncDetected → Desynced, StrictRaise → DesyncRaised; the
        // raise is atomic in code, leaving health untouched for the
        // caller that catches and continues.
        if (cfg_.strict_desync) {
            if (!recoveryRaises(Health::Desynced,
                                RecoveryEvent::StrictRaise,
                                Health::DesyncRaised))
                panic("recovery FSM: StrictRaise must target "
                      "DesyncRaised");
            throw;
        }
        recoverFromDesync();
        traceControl(TraceEvent::Type::RawFallback, addr,
                     dir.writeback, /*aux=*/3);
        rawFallbackResend(t, original);
        checkArqWatchdog(t, addr, dir.writeback);
    }
}

void
CableChannel::checkArqWatchdog(const Transfer &t, Addr addr,
                               bool writeback)
{
    if (cfg_.arq_watchdog_cycles == 0
        || t.retry_cycles <= cfg_.arq_watchdog_cycles)
        return;
    stats_.add("arq_timeouts", 1);
    traceControl(TraceEvent::Type::Timeout, addr, writeback,
                 t.retry_cycles);
    // Spec tie: every steady state maps WatchdogExceeded to the
    // typed TimeoutRaised terminal.
    if (!recoveryRaises(health_, RecoveryEvent::WatchdogExceeded,
                        Health::TimeoutRaised))
        panic("recovery FSM: WatchdogExceeded from %s must target "
              "TimeoutRaised",
              recoveryStateName(health_));
    throw CableTimeoutError(addr, writeback, t.retry_cycles,
                            cfg_.arq_watchdog_cycles);
}

void
CableChannel::rawFallbackResend(Transfer &t, const CacheLine &original)
{
    int sp = spans_.open(Stage::Retransmit);
    t.raw_fallback = true;
    stats_.add("raw_fallbacks", 1);

    BitWriter bw;
    if (cfg_.compression_enabled)
        // cable-wire: frame.raw flag kWireFlagBits
        bw.put(0, kWireFlagBits);
    bw.appendBits(bitsOf(original));
    if (cfg_.frame_crc_bits > 0)
        appendFrameCrc(bw, cfg_.frame_crc_bits);
    BitVec frame = bw.take();

    for (unsigned attempt = 0;; ++attempt) {
        t.retrans_bits += frame.sizeBits();
        BitVec received = frame;
        unsigned flips = fault_ ? fault_->corruptPacket(received) : 0;
        if (flips == 0)
            break;
        if (attempt + 1 >= kRawResendCap) {
            // Past this point a real link would escalate to physical-
            // layer retraining/FEC; model that as a final clean
            // delivery and leave a counter so sweeps can see it.
            stats_.add("raw_resend_cap_hits", 1);
            break;
        }
        stats_.add("retransmits", 1);
        t.retries += 1;
        t.retry_cycles += cfg_.retry_backoff_cycles
                          << std::min(attempt, 16u);
    }
    spans_.close(sp, static_cast<std::uint16_t>(
                         std::min(t.retries, 0xffffu)));
}

void
CableChannel::recoverFromDesync()
{
    // Recovery is rare and expensive — when span sampling is on it
    // is always timed (not 1-in-N) and rides the Recovery control
    // event as a Resync span.
    std::optional<std::uint64_t> span_begin;
    if (trace_ && spans_.enabled())
        span_begin = spans_.nowNs();
    stats_.add("desync_recoveries", 1);
    bool was_degraded = health_ == Health::Degraded;
    health_ = recoveryAdvance(health_,
                              RecoveryEvent::DesyncDetected).to;
    flushMetadata();
    unsigned relinked = resynchronize();
    stats_.add("resync_lines", relinked);
    // Re-arming a reference costs a RemoteLID plus a line digest per
    // relinked pair on a real link. Charged to the recovery counters
    // — never to the payload counters — so compression ratios stay
    // untouched while the wire-level recovery cost stays honest.
    // cable-wire-write: resync.rearm rlid remoteLidBits*relinked
    // cable-wire-write: resync.rearm line_digest kWireResyncLineDigestBits*relinked
    std::uint64_t rearm_bits =
        std::uint64_t{relinked}
        * (rlid_bits_ + kWireResyncLineDigestBits);
    stats_.add("resync_rearm_bits", rearm_bits);
    stats_.add("recovery_bits", rearm_bits);
    const RecoveryStep &engage =
        recoveryAdvance(health_, RecoveryEvent::RecoverEngage);
    health_ = engage.to;
    epoch_ += engage.epoch_delta;
    traceControl(TraceEvent::Type::Recovery, 0, false, relinked,
                 span_begin);
    if (!was_degraded)
        stats_.add("degraded_entries", 1);
    healthy_streak_ = 0;
}

void
CableChannel::trackHealth(const Transfer &t)
{
    if (health_ != Health::Degraded)
        return;
    stats_.add("degraded_transfers", 1);
    if (t.retries == 0 && !t.raw_fallback) {
        if (++healthy_streak_ >= cfg_.rearm_window) {
            health_ = recoveryAdvance(
                          health_, RecoveryEvent::StreakComplete)
                          .to;
            healthy_streak_ = 0;
            stats_.add("rearms", 1);
        }
    } else {
        healthy_streak_ = 0;
    }
}

void
CableChannel::maybeCorruptMetadata()
{
    if (!fault_ || !fault_->corruptMetadata())
        return;
    if (fault_->pick(2) == 0) {
        // Repoint a random WMT slot at a random home line — the
        // damaging class: a later reference translated through this
        // slot decodes against the wrong home data, caught by the
        // end-to-end verify or the periodic audit.
        std::uint32_t rset = static_cast<std::uint32_t>(
            fault_->pick(remote_.numSets()));
        std::uint8_t rway = static_cast<std::uint8_t>(
            fault_->pick(remote_.numWays()));
        std::uint32_t hset = static_cast<std::uint32_t>(
            fault_->pick(home_.numSets()));
        std::uint8_t hway = static_cast<std::uint8_t>(
            fault_->pick(home_.numWays()));
        wmt_.set(rset, rway, LineID(hset, hway));
        stats_.add("meta_faults_wmt", 1);
        traceControl(TraceEvent::Type::MetaFault, 0, false,
                     /*aux=*/1);
    } else {
        // Insert a bogus signature → LineID binding. Benign by
        // construction (§III-B calls the table inherently inexact):
        // the candidate either fails WMT translation or loses the
        // data-comparison ranking, so this exercises the filter.
        std::uint32_t sig =
            static_cast<std::uint32_t>(fault_->pick(1ull << 32));
        std::uint32_t hset = static_cast<std::uint32_t>(
            fault_->pick(home_.numSets()));
        std::uint8_t hway = static_cast<std::uint8_t>(
            fault_->pick(home_.numWays()));
        home_ht_.insert(sig, LineID(hset, hway));
        stats_.add("meta_faults_ht", 1);
        traceControl(TraceEvent::Type::MetaFault, 0, false,
                     /*aux=*/2);
    }
}

bool
CableChannel::syncMessageLost()
{
    bool lost = fault_ && fault_->dropSyncMessage();
    if (lost)
        traceControl(TraceEvent::Type::SyncDrop, 0, false, 0);
    return lost;
}

unsigned
CableChannel::auditInvariant()
{
    stats_.add("audits", 1);
    unsigned mismatches = 0;
    for (std::uint32_t set = 0; set < remote_.numSets(); ++set) {
        for (unsigned way = 0; way < remote_.numWays(); ++way) {
            std::uint8_t w = static_cast<std::uint8_t>(way);
            auto hlid = wmt_.occupantHomeLID(set, w);
            if (!hlid)
                continue;
            const Cache::Entry &re = remote_.entryAt(LineID(set, w));
            const Cache::Entry &he = home_.entryAt(*hlid);
            // §III-F invariant for a tracked pair: both resident and
            // clean, same address, bit-identical data.
            bool ok = re.valid() && he.valid() && !re.dirty()
                      && !he.dirty() && he.tag == re.tag
                      && !(he.data != re.data);
            if (!ok)
                ++mismatches;
        }
    }
    traceControl(TraceEvent::Type::Audit, 0, false, mismatches);
    if (mismatches > 0) {
        stats_.add("audit_failures", 1);
        stats_.add("audit_mismatched_slots", mismatches);
        recoverFromDesync();
    }
    return mismatches;
}

StatSet
CableChannel::snapshotStructures()
{
    StatSet out;
    home_ht_.snapshot(out, "home_ht_");
    remote_ht_.snapshot(out, "remote_ht_");
    wmt_.snapshot(out, "wmt_");
    evbuf_.snapshot(out, "evbuf_");
    // Channel-level stale-candidate counters, mirrored under the
    // same prefixes so the structures block is self-contained.
    out.add("home_ht_stale_hits", stats_.get("home_ht_stale_hits"));
    out.add("remote_ht_stale_hits",
            stats_.get("remote_ht_stale_hits"));
    traceControl(TraceEvent::Type::StructSnapshot, 0, false,
                 out.get("home_ht_occupancy")
                     + out.get("remote_ht_occupancy"));
    return out;
}

void
CableChannel::flushMetadata()
{
    home_ht_.clear();
    remote_ht_.clear();
    wmt_.clearAll();
}

unsigned
CableChannel::resynchronize()
{
    return resynchronizeRange(0, remote_.numSets());
}

unsigned
CableChannel::resynchronizeRange(std::uint32_t set_lo,
                                 std::uint32_t set_hi)
{
    if (set_hi > remote_.numSets())
        set_hi = remote_.numSets();
    unsigned relinked = 0;
    for (std::uint32_t set = set_lo; set < set_hi; ++set) {
        for (unsigned way = 0; way < remote_.numWays(); ++way) {
            LineID rlid(set, static_cast<std::uint8_t>(way));
            const Cache::Entry &re = remote_.entryAt(rlid);
            if (!re.valid() || re.dirty())
                continue;
            Addr vaddr = re.tag << kLineShift;
            LineID hlid = home_.find(vaddr);
            if (!hlid.valid)
                continue;
            const Cache::Entry &he = home_.entryAt(hlid);
            if (he.dirty() || he.data != re.data)
                continue;
            wmt_.set(set, static_cast<std::uint8_t>(way), hlid);
            addSignatures(home_ht_, he.data, hlid);
            addSignatures(remote_ht_, re.data, rlid);
            ++relinked;
        }
    }
    return relinked;
}

// ---------------------------------------------------------------------
// Crash/restart & incremental resync (DESIGN.md §12)
// ---------------------------------------------------------------------

void
CableChannel::crashMetadata()
{
    // Endpoint crash model: the link-encoder metadata (hash tables,
    // WMT, eviction-buffer entries) is volatile and lost; the cache
    // data arrays survive (CXL-style link reset, coherence state
    // intact). Sequence clocks keep counting so post-crash EvictSeqs
    // stay monotone.
    flushMetadata();
    evbuf_.clearAll();
    stats_.add("endpoint_crashes", 1);
    bool was_degraded = health_ == Health::Degraded;
    const RecoveryStep &step =
        recoveryAdvance(health_, RecoveryEvent::CrashRestart);
    health_ = step.to;
    epoch_ += step.epoch_delta;
    if (!was_degraded)
        stats_.add("degraded_entries", 1);
    healthy_streak_ = 0;
    traceControl(TraceEvent::Type::Crash, 0, false, epoch_);
}

namespace
{

/** FNV-1a 64-bit fold, the resync digest primitive. */
inline std::uint64_t
fnv1a64(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i) {
        h ^= (v >> (i * 8)) & 0xff;
        h *= 0x100000001b3ull;
    }
    return h;
}

inline constexpr std::uint64_t kFnvBasis = 0xcbf29ce484222325ull;

} // namespace

std::uint64_t
CableChannel::metadataDigest(std::uint32_t set_lo,
                             std::uint32_t set_hi) const
{
    // Digest of the home side's residency picture over a remote-set
    // range: folds (set, way, normalized HomeLID) of every valid WMT
    // slot. Cheap to compute, exchanged during resync to locate
    // mismatched ranges.
    std::uint64_t h = kFnvBasis;
    std::uint32_t hi = std::min(set_hi, wmt_.config().remote_sets);
    for (std::uint32_t set = set_lo; set < hi; ++set) {
        for (unsigned way = 0; way < wmt_.config().remote_ways;
             ++way) {
            auto norm =
                wmt_.occupant(set, static_cast<std::uint8_t>(way));
            if (!norm)
                continue;
            h = fnv1a64(h, set);
            h = fnv1a64(h, way);
            h = fnv1a64(h, *norm);
        }
    }
    return h;
}

std::uint64_t
CableChannel::referenceDigest(std::uint32_t set_lo,
                              std::uint32_t set_hi) const
{
    // Ground-truth twin of metadataDigest: folds the same tuple for
    // every remote slot that *should* be tracked — resident, clean,
    // and bit-identical on both sides (the resynchronize() criteria).
    // A range whose two digests differ holds stale or missing WMT
    // state and needs repair.
    std::uint64_t h = kFnvBasis;
    std::uint32_t hi = std::min(set_hi, remote_.numSets());
    for (std::uint32_t set = set_lo; set < hi; ++set) {
        for (unsigned way = 0; way < remote_.numWays(); ++way) {
            LineID rlid(set, static_cast<std::uint8_t>(way));
            const Cache::Entry &re = remote_.entryAt(rlid);
            if (!re.valid() || re.dirty())
                continue;
            Addr vaddr = re.tag << kLineShift;
            LineID hlid = home_.find(vaddr);
            if (!hlid.valid)
                continue;
            const Cache::Entry &he = home_.entryAt(hlid);
            if (he.dirty() || he.data != re.data)
                continue;
            h = fnv1a64(h, set);
            h = fnv1a64(h, way);
            h = fnv1a64(h, wmt_.normalize(hlid));
        }
    }
    return h;
}

unsigned
CableChannel::dropMetadataRange(std::uint32_t set_lo,
                                std::uint32_t set_hi)
{
    unsigned dropped = 0;
    std::uint32_t hi = std::min(set_hi, wmt_.config().remote_sets);
    for (std::uint32_t set = set_lo; set < hi; ++set) {
        for (unsigned way = 0; way < wmt_.config().remote_ways;
             ++way) {
            std::uint8_t w = static_cast<std::uint8_t>(way);
            if (!wmt_.occupant(set, w))
                continue;
            wmt_.clear(set, w);
            ++dropped;
        }
    }
    return dropped;
}

void
CableChannel::beginResync()
{
    // Healthy → ResyncHealthy / Degraded → ResyncDegraded: the two
    // transient session states exist so an incomplete session can
    // fall back to exactly the steady state it started from.
    health_ =
        recoveryAdvance(health_, RecoveryEvent::ResyncStart).to;
}

void
CableChannel::resyncRoundRepaired()
{
    // Self-loop; routed through the table so an undeclared state
    // (e.g. a session that was never begun) panics here.
    health_ =
        recoveryAdvance(health_, RecoveryEvent::DigestMismatch).to;
}

void
CableChannel::resyncFaultTorn()
{
    health_ =
        recoveryAdvance(health_, RecoveryEvent::MetadataFault).to;
}

void
CableChannel::completeResync()
{
    // A verified resync re-armed every mismatched range, so the
    // rearm_window probation that follows an in-band desync recovery
    // is unnecessary: return to Healthy immediately (the bounded
    // re-warm the protocol pays for).
    health_ =
        recoveryAdvance(health_, RecoveryEvent::DigestClean).to;
    healthy_streak_ = 0;
    stats_.add("resync_completions", 1);
}

void
CableChannel::abandonResync()
{
    health_ =
        recoveryAdvance(health_, RecoveryEvent::RoundsExhausted).to;
}

// ---------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------

HomeInstallResult
CableChannel::homeInstall(Addr addr, const CacheLine &data, bool dirty)
{
    HomeInstallResult result;
    if (home_.probe(addr)) {
        home_.writeLine(addr, data, dirty);
        return result;
    }

    std::uint8_t vway = home_.victimWay(addr);
    // Inspect the victim before overwriting it so CABLE metadata and
    // inclusivity bookkeeping use the pre-install contents.
    std::uint32_t hset = home_.setOf(addr);
    LineID victim_lid(hset, vway);
    const Cache::Entry &victim = home_.entryAt(victim_lid);
    if (victim.valid()) {
        Addr vaddr = victim.tag << kLineShift;
        // Let the system flush newer private-cache copies into the
        // remote cache before we tear the line down.
        if (backinval_hook_ && remote_.probe(vaddr))
            backinval_hook_(vaddr);
        dropSignatures(home_ht_, victim.data, victim_lid);

        Eviction mem_wb;
        mem_wb.valid = true;
        mem_wb.addr = vaddr;
        mem_wb.data = victim.data;
        mem_wb.dirty = victim.dirty();
        mem_wb.lid = victim_lid;

        // Back-invalidate the remote copy, if any, to preserve
        // inclusivity. In non-inclusive mode the remote keeps its
        // copy (the directory still tracks it); only CABLE's
        // metadata is detached, so the line simply stops serving as
        // a reference.
        LineID rlid = remote_.find(vaddr);
        if (rlid.valid && !cfg_.inclusive) {
            const Cache::Entry &re = remote_.entryAt(rlid);
            if (!re.dirty())
                dropSignatures(remote_ht_, re.data, rlid);
            wmt_.clear(rlid.set, rlid.way);
            stats_.add("noninclusive_detaches", 1);
            if (victim.dirty()) {
                Eviction mem_only = mem_wb;
                result.memory_writeback = mem_only;
            }
            stats_.add("home_evictions", 1);
            home_.install(addr, data,
                          dirty ? CoherenceState::Modified
                                : CoherenceState::Shared,
                          vway);
            return result;
        }
        if (rlid.valid) {
            const Cache::Entry &re = remote_.entryAt(rlid);
            if (re.dirty()) {
                // Flush the newer remote data over the link first.
                result.backinval_writeback = encodeAndTransmit(
                    Direction::kWriteBack, re.data, rlid, vaddr);
                mem_wb.data = re.data;
                mem_wb.dirty = true;
            } else {
                dropSignatures(remote_ht_, re.data, rlid);
            }
            wmt_.clear(rlid.set, rlid.way);
            evbuf_.push(rlid, remote_.entryAt(rlid).data);
            remote_.invalidate(vaddr);
            evbuf_.acknowledge(evbuf_.lastSeq());
            stats_.add("back_invalidations", 1);
        }
        if (mem_wb.dirty)
            result.memory_writeback = mem_wb;
        stats_.add("home_evictions", 1);
    }

    home_.install(addr, data,
                  dirty ? CoherenceState::Modified
                        : CoherenceState::Shared,
                  vway);
    return result;
}

std::optional<Transfer>
CableChannel::remoteEvictSlot(LineID rlid)
{
    const Cache::Entry &e = remote_.entryAt(rlid);
    if (!e.valid())
        return std::nullopt;

    Addr vaddr = e.tag << kLineShift;
    CacheLine vdata = e.data;
    bool was_dirty = e.dirty();

    evbuf_.push(rlid, vdata);
    if (!was_dirty) {
        // Shared line: remove its signatures on both sides and its
        // WMT entry (home data still equals remote data). The
        // remote-side removal is local; the home-side cleanup rides
        // on the eviction notice, which the fault model may drop —
        // leaving stale home metadata for the audit/verify to catch.
        dropSignatures(remote_ht_, vdata, rlid);
        if (syncMessageLost()) {
            stats_.add("sync_drops_evict", 1);
        } else {
            auto hlid = wmt_.occupantHomeLID(rlid.set, rlid.way);
            if (hlid)
                dropSignatures(home_ht_, home_.entryAt(*hlid).data,
                               *hlid);
            wmt_.clear(rlid.set, rlid.way);
        }
    }

    std::optional<Transfer> out;
    if (was_dirty) {
        // Dirty victim: compressed write-back (§III-G). Metadata was
        // already detached at upgrade time.
        out = encodeAndTransmit(Direction::kWriteBack, vdata, rlid,
                                vaddr);
        if (!home_.probe(vaddr)) {
            if (cfg_.inclusive)
                panic("inclusivity violated: dirty remote line %llx "
                      "not resident at home",
                      static_cast<unsigned long long>(vaddr));
            // Non-inclusive: the home agent re-allocates the line.
            (void)homeInstall(vaddr, vdata, /*dirty=*/true);
        } else {
            home_.writeLine(vaddr, vdata, true);
        }
    }

    remote_.invalidate(vaddr);
    evbuf_.acknowledge(evbuf_.lastSeq());
    stats_.add(was_dirty ? "remote_evict_dirty" : "remote_evict_clean",
               1);
    return out;
}

Transfer
CableChannel::respondAndInstall(Addr addr, std::uint8_t vway,
                                bool store)
{
    LineID home_lid = home_.find(addr);
    if (!home_lid.valid)
        panic("respondAndInstall: %llx not resident at home",
              static_cast<unsigned long long>(addr));
    const CacheLine data = home_.entryAt(home_lid).data;

    Transfer t =
        encodeAndTransmit(Direction::kResponse, data, home_lid, addr);

    std::uint32_t rset = remote_.setOf(addr);
    if (remote_.entryAt(LineID(rset, vway)).valid())
        panic("respondAndInstall: remote slot (%u,%u) not vacated",
              rset, vway);
    remote_.install(addr, data,
                    store ? CoherenceState::Modified
                          : CoherenceState::Shared,
                    vway);

    if (store) {
        // The remote copy will diverge silently; the home copy is
        // stale and must not serve as reference data.
        home_.markDirty(addr);
    } else {
        addSignatures(home_ht_, data, home_lid);
        addSignatures(remote_ht_, data, LineID(rset, vway));
        wmt_.set(rset, vway, home_lid);
    }

    stats_.add("responses", 1);
    stats_.add(std::string("refs_") + std::to_string(t.nrefs), 1);
    if (t.self_only)
        stats_.add("self_only", 1);
    if (t.raw)
        stats_.add("raw_sends", 1);
    return t;
}

FetchResult
CableChannel::remoteFetch(Addr addr, bool store)
{
    if (remote_.probe(addr))
        panic("remoteFetch: %llx already resident at remote",
              static_cast<unsigned long long>(addr));

    FetchResult result;
    std::uint32_t rset = remote_.setOf(addr);
    std::uint8_t vway = remote_.victimWay(addr);
    LineID victim_lid(rset, vway);
    bool victim_valid = remote_.entryAt(victim_lid).valid();
    bool victim_dirty =
        victim_valid && remote_.entryAt(victim_lid).dirty();
    auto wb = remoteEvictSlot(victim_lid);
    result.victim_writeback = wb;
    result.evicted_clean = victim_valid && !victim_dirty;
    result.response = respondAndInstall(addr, vway, store);
    return result;
}

void
CableChannel::remoteUpgrade(Addr addr)
{
    LineID rlid = remote_.find(addr);
    if (!rlid.valid)
        panic("remoteUpgrade: %llx not resident at remote",
              static_cast<unsigned long long>(addr));
    const Cache::Entry &e = remote_.entryAt(rlid);
    if (e.dirty())
        return; // already Modified
    dropSignatures(remote_ht_, e.data, rlid);
    // The home-side metadata cleanup rides on CABLE's upgrade notice
    // (§III-F); if the fault model drops it, stale home signatures
    // and a stale WMT entry survive while the remote copy silently
    // diverges — the desync the audit/verify paths must catch. The
    // coherence-protocol upgrade itself travels reliably, so the
    // cache states below stay correct either way.
    if (syncMessageLost()) {
        stats_.add("sync_drops_upgrade", 1);
    } else {
        auto hlid = wmt_.occupantHomeLID(rlid.set, rlid.way);
        if (hlid)
            dropSignatures(home_ht_, home_.entryAt(*hlid).data, *hlid);
        wmt_.clear(rlid.set, rlid.way);
    }
    remote_.markDirty(addr);
    // The home copy is now stale and must stop serving as reference
    // data. In non-inclusive mode the home may have already dropped
    // the line entirely.
    if (home_.probe(addr))
        home_.markDirty(addr);
    else if (cfg_.inclusive)
        panic("remoteUpgrade: inclusivity violated for %llx",
              static_cast<unsigned long long>(addr));
    stats_.add("upgrades", 1);
}

std::optional<Transfer>
CableChannel::remoteInvalidate(Addr addr)
{
    LineID rlid = remote_.find(addr);
    if (!rlid.valid)
        return std::nullopt;
    stats_.add("snoop_invalidations", 1);
    return remoteEvictSlot(rlid);
}

Transfer
CableChannel::writeBack(Addr addr, const CacheLine &data)
{
    LineID rlid = remote_.find(addr);
    if (!rlid.valid)
        panic("writeBack: %llx not resident at remote",
              static_cast<unsigned long long>(addr));
    Transfer t =
        encodeAndTransmit(Direction::kWriteBack, data, rlid, addr);
    if (!home_.probe(addr)) {
        if (cfg_.inclusive)
            panic("writeBack: inclusivity violated for %llx",
                  static_cast<unsigned long long>(addr));
        (void)homeInstall(addr, data, /*dirty=*/true);
    } else {
        home_.writeLine(addr, data, true);
    }
    stats_.add("explicit_writebacks", 1);
    return t;
}

} // namespace cable
