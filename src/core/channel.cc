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

namespace
{

CompressorPtr
perLineLzss()
{
    Lzss::Config cfg;
    cfg.persistent = false;
    return std::make_unique<Lzss>(cfg);
}

/** One row per delegate engine: makeDelegateEngine and
 *  delegateEngineNames read the same table. */
const struct
{
    const char *name;
    CompressorPtr (*make)();
} kDelegateEngines[] = {
    {"lbe", [] { return CompressorPtr(std::make_unique<Lbe>()); }},
    {"cpack", [] { return CompressorPtr(std::make_unique<Cpack>()); }},
    {"cpack128",
     [] {
         Cpack::Config cfg;
         cfg.dict_entries = 32;
         cfg.persistent = false;
         return CompressorPtr(std::make_unique<Cpack>(cfg));
     }},
    {"gzip", perLineLzss},
    {"lzss", perLineLzss},
    {"oracle", [] { return CompressorPtr(std::make_unique<Oracle>()); }},
    {"bdi", [] { return CompressorPtr(std::make_unique<Bdi>()); }},
};

} // namespace

CompressorPtr
makeDelegateEngine(const std::string &name)
{
    for (const auto &e : kDelegateEngines)
        if (name == e.name)
            return e.make();
    fatal("unknown CABLE delegate engine '%s'", name.c_str());
}

std::vector<std::string>
delegateEngineNames()
{
    std::vector<std::string> names;
    for (const auto &e : kDelegateEngines)
        names.push_back(e.name);
    return names;
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
 * Adds the heap allocations this thread makes during the tally's
 * lifetime to a counter. Runtime twin of lint rule R001: test
 * binaries that link the counting hooks assert the counter stops
 * growing once the scratch arena is warm. Without the hooks the
 * destructor is one predictable branch.
 */
class AllocTally
{
  public:
    AllocTally(StatSet &stats, CounterId id) : stats_(stats), id_(id) {}
    AllocTally(const AllocTally &) = delete;
    AllocTally &operator=(const AllocTally &) = delete;

    ~AllocTally()
    {
        if (alloc_guard::hooksInstalled())
            stats_.add(id_, scope_.allocations());
    }

  private:
    alloc_guard::Scope scope_;
    StatSet &stats_;
    CounterId id_;
};

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

TransferStats::TransferStats(StatSet &stats)
    :
#define CABLE_COUNTER(name) name(stats.counterId(#name)),
      CABLE_TRANSFER_COUNTERS(CABLE_COUNTER)
#undef CABLE_COUNTER
      line_wire_bits(stats.histId("line_wire_bits",
                                  Histogram::Scale::Linear, 32, 20))
{
}

void
TransferStats::account(StatSet &stats, const Transfer &t,
                       bool framed) const
{
    stats.add(transfers, 1);
    stats.add(raw_bits, t.raw_bits);
    stats.add(wire_bits, t.bits);
    // Integrity framing and recovery overhead, kept out of the
    // payload counters so compression ratios stay comparable to a
    // CRC-less link while the wire-level cost stays visible.
    if (framed) {
        stats.add(crc_overhead_bits, t.crc_bits);
        stats.add(retrans_bits, t.retrans_bits);
        stats.add(retry_backoff_cycles, t.retry_cycles);
    }
    // 16-bit-link flit quantization, for effective-ratio reporting.
    stats.add(raw_flits16, ceilDiv(t.raw_bits, 16));
    stats.add(wire_flits16, ceilDiv(t.bits, 16));
    if (t.writeback) {
        stats.add(wb_transfers, 1);
        stats.add(wb_raw_bits, t.raw_bits);
        stats.add(wb_wire_bits, t.bits);
    } else {
        stats.add(resp_raw_bits, t.raw_bits);
        stats.add(resp_wire_bits, t.bits);
    }
    stats.hist(line_wire_bits).record(t.bits);
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
      evbuf_(16), engine_(makeDelegateEngine(cfg.engine)),
      rlid_fmt_(remote.numSets(), remote.numWays())
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
    // Pre-size the search arena to its architectural worst case so
    // the encode search path never allocates — not even while
    // warming toward a high-water mark: a line yields at most
    // SigList::kCapacity search signatures, each hash-table probe
    // appends at most ht_bucket LIDs, and the candidate lists are
    // clipped to data_accesses entries before the data reads. A
    // DIFF only wins while it is cheaper than the raw frame.
    std::size_t max_hits =
        std::size_t{SigList::kCapacity} * cfg_.ht_bucket;
    scratch_.hits.reserve(max_hits);
    scratch_.ranked.reserve(max_hits);
    scratch_.cand_rlids.reserve(cfg_.data_accesses);
    scratch_.cand_data.reserve(cfg_.data_accesses);
    scratch_.cbvs.reserve(cfg_.data_accesses);
    scratch_.engine_refs.reserve(kMaxRefsCap);
    scratch_.diff.reserveBits(kWireRawFrameBits);

    for (unsigned n = 0; n <= kMaxRefsCap; ++n)
        refs_ctr_[n] = stats_.counterId("refs_" + std::to_string(n));
    using Scale = Histogram::Scale;
    const unsigned word_buckets = kWordsPerLine + 2;
    ht_hits_hist_ = stats_.histId("ht_hits_per_search");
    ranked_hist_ = stats_.histId("ranked_candidates", Scale::Linear, 1,
                                 kWordsPerLine * 4 + 2);
    covered_hist_ = stats_.histId("cbv_covered_words", Scale::Linear, 1,
                                  word_buckets);
    refs_hist_ = stats_.histId("refs_per_line", Scale::Linear, 1, 8);
    auto dirStats = [&](const std::string &pre, const char *stale) {
        return DirStats{stats_.counterId(pre + "searches"),
                        stats_.counterId(pre + "data_reads"),
                        stats_.counterId(stale),
                        stats_.histId(pre + "sigs_per_search",
                                      Scale::Linear, 1, word_buckets)};
    };
    resp_stats_ = dirStats("", "home_ht_stale_hits");
    wb_stats_ = dirStats("wb_", "remote_ht_stale_hits");
    spans_.bind(stats_);
}

SigList
CableChannel::insertSignatures(const CacheLine &data) const
{
    SigList sigs;
    extractInsertSignaturesInto(data, cfg_.sig, sigs);
    return sigs;
}

void
CableChannel::dropSignatures(SignatureHashTable &table,
                             const SigList &sigs, LineID lid)
{
    for (std::uint32_t sig : sigs)
        table.remove(sig, lid);
}

void
CableChannel::addSignatures(SignatureHashTable &table,
                            const SigList &sigs, LineID lid)
{
    for (std::uint32_t sig : sigs)
        table.insert(sig, lid);
}

// ---------------------------------------------------------------------
// Search + compress, both directions (Fig 8, §III-E, §III-G)
// ---------------------------------------------------------------------

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
        spans_.recordControl(ev, Stage::Resync, *resync_begin_ns);
    trace_->emit(ev);
}

const CableChannel::Direction CableChannel::Direction::kResponse = {
    .writeback = false,
    .table = &CableChannel::home_ht_,
    .self_ratio_early_out = true,
    .writeback_gates = false,
    .counts_ht_hits = true,
    .stats = &CableChannel::resp_stats_,
};

const CableChannel::Direction CableChannel::Direction::kWriteBack = {
    .writeback = true,
    .table = &CableChannel::remote_ht_,
    .self_ratio_early_out = false,
    .writeback_gates = true,
    .counts_ht_hits = false,
    .stats = &CableChannel::wb_stats_,
};

// cable-lint: no-alloc (steady-state: the scratch arena retains its
// high-water capacity, so the search pipeline and the engine drafts
// stop allocating after warm-up)
CableChannel::Chosen
CableChannel::searchAndCompress(const Direction &dir,
                                const CacheLine &data, LineID self_lid)
{
    maybeCorruptMetadata();
    Chosen chosen; // raw until a representation wins
    // Span sampling decision for this transfer ordinal; unsampled
    // transfers (and every transfer when sampling is off) pay this
    // branch and nothing else.
    if (trace_)
        (void)spans_.arm(trace_seq_);
    if (!cfg_.compression_enabled
        || (dir.writeback_gates && !cfg_.writeback_compression))
        return chosen;

    const std::size_t raw_cost = kWireRawFrameBits;
    // Counts every allocation from here to the return: the self
    // draft, the whole search pipeline (extract -> probe -> rank ->
    // CBV -> select) and the refs draft. Drafts only cost a
    // representation; packageTransfer emits the winner.
    AllocTally encode_allocs(stats_, ctr_.search_allocs);
    int sp_line = spans_.open(Stage::Line, -1);
    if (trace_)
        chosen.trivial_words = popcount32(trivialMask16(
            data.data(), cfg_.sig.trivial_threshold));
    // Self-compression runs concurrently with the search (§III-E).
    int sp_self = spans_.handoff(sp_line, Stage::Serialize);
    const std::size_t self_bits = engine_->draft(data, {}, kSelfDraft);
    spans_.close(sp_self);
    const std::size_t self_cost = kWireCompressedHeaderBits + self_bits;
    // The fallback whenever references are skipped or lose.
    auto takeSelfOrRaw = [&] {
        if (self_cost <= raw_cost) {
            chosen.frame.compressed = true;
            chosen.draft = kSelfDraft;
            chosen.self_only = true;
        }
    };

    // A high enough self ratio skips the reference path entirely,
    // unless self would still lose to raw.
    bool search = true;
    if (dir.self_ratio_early_out && self_bits > 0
        && static_cast<double>(kLineBytes * 8)
                   / static_cast<double>(self_bits)
               >= cfg_.self_ratio_threshold) {
        stats_.add(ctr_.self_threshold_hits, 1);
        search = self_cost > raw_cost;
    }
    // Degraded mode: the metadata just resynchronized after a
    // desync; hold off on reference compression until a healthy
    // window passes (health-state machine, DESIGN.md).
    if (search && health_ == Health::Degraded) {
        stats_.add(ctr_.degraded_self_only, 1);
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
    const DirStats &ds = this->*dir.stats;
    stats_.add(ds.searches, 1);
    SearchScratch &s = scratch_;
    // The search branch forks off the Line span, parallel to the
    // self-compress Serialize span (§III-E concurrency) — the
    // critpath analyzer sees a genuine two-branch DAG.
    int sp_sig = spans_.open(Stage::Signature, sp_line);
    extractSearchSignaturesInto(data, cfg_.sig, s.sigs);
    int sp_probe = spans_.handoff(sp_sig, Stage::Probe);
    const SignatureHashTable &table = this->*dir.table;
    s.hits.clear();
    for (std::uint32_t sig : s.sigs)
        table.lookup(sig, s.hits);
    chosen.sigs_used = s.sigs.size();
    chosen.ht_hits = static_cast<unsigned>(s.hits.size());
    if (dir.counts_ht_hits)
        stats_.add(ctr_.ht_hits, s.hits.size());

    // (3) pre-rank by duplication count (first-seen order breaks
    // ties), keep the top data_accesses candidates.
    int sp_score = spans_.handoff(sp_probe, Stage::Score);
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
            stats_.add(ds.stale_hits, 1);
            continue;
        }
        stats_.add(ds.data_reads, 1);
        s.cand_rlids.push_back(rlid);
        s.cand_data.push_back(ref);
        s.cbvs.push_back(coverageVector(data, *ref));
    }
    const unsigned npicks = selectByCoverageInto(
        s.cbvs.data(), static_cast<unsigned>(s.cbvs.size()),
        cfg_.max_refs, s.picks.data());
    chosen.ranked = static_cast<unsigned>(s.cand_rlids.size());
    s.engine_refs.clear();
    for (unsigned p = 0; p < npicks; ++p) {
        unsigned c = s.picks[p];
        chosen.cbv_union |= s.cbvs[c];
        chosen.frame.refs[chosen.frame.nrefs++] = s.cand_rlids[c];
        s.engine_refs.push_back(s.cand_data[c]);
    }
    chosen.covered_words = popcount32(chosen.cbv_union);

    std::size_t refs_cost = raw_cost + 1;
    if (chosen.frame.nrefs > 0) {
        int sp_refs = spans_.handoff(sp_score, Stage::Serialize);
        refs_cost = kWireCompressedHeaderBits
                    + chosen.frame.nrefs * rlid_fmt_.bits()
                    + engine_->draft(data, s.engine_refs, kRefsDraft);
        spans_.close(sp_refs,
                     static_cast<std::uint16_t>(chosen.frame.nrefs));
    } else {
        spans_.close(sp_score);
    }
    // Candidate-depth and coverage distributions (Figs 5/9 shape):
    // recorded once per reference search, whether or not the
    // reference representation ultimately wins the cost comparison.
    stats_.hist(ht_hits_hist_).record(chosen.ht_hits);
    stats_.hist(ranked_hist_).record(chosen.ranked);
    stats_.hist(covered_hist_).record(chosen.covered_words);
    stats_.hist(ds.sigs_hist).record(chosen.sigs_used);

    // (5) pick the cheapest representation.
    if (refs_cost < self_cost && refs_cost < raw_cost) {
        chosen.frame.compressed = true;
        chosen.draft = kRefsDraft;
        return chosen;
    }
    chosen.frame.nrefs = 0;
    takeSelfOrRaw();
    return chosen;
}

const CacheLine *
CableChannel::resolveCandidate(const Direction &dir, LineID lid,
                               LineID &rlid) const
{
    if (!dir.writeback) {
        if (!home_.validAt(lid))
            return nullptr;
        std::uint32_t rset = remote_.setOf(home_.addrAt(lid));
        auto rway = wmt_.lookupRemoteWay(rset, lid);
        if (!rway)
            return nullptr;
        rlid = LineID(rset, *rway);
        return &home_.lineAt(lid);
    }
    if (remote_.stateAt(lid) != CoherenceState::Shared
        || !wmt_.occupant(lid.set, lid.way))
        return nullptr;
    rlid = lid;
    return &remote_.lineAt(lid);
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
    // One allocation per frame: a raw frame is the largest, since a
    // DIFF is only sent while it costs less.
    bw.reserveBits(kWireRawFrameBits + cfg_.frame_crc_bits);
    if (!chosen.frame.compressed) {
        writeRawFrame(bw, original);
        t.raw = true;
    } else {
        // The transfer's one engine emission: raw frames and the
        // losing draft never write bits.
        {
            AllocTally emit_allocs(stats_, ctr_.search_allocs);
            engine_->emit(chosen.draft, scratch_.diff);
        }
        putFrameHeader(bw, chosen.frame, rlid_fmt_);
        bw.appendBits(scratch_.diff);
        t.nrefs = chosen.frame.nrefs;
        t.self_only = chosen.self_only;
    }
    // The payload counter excludes the CRC so compression ratios stay
    // comparable to a CRC-less link; the framing cost rides in
    // crc_bits and shows up in wireBits().
    std::size_t payload_bits = bw.sizeBits();
    if (cfg_.frame_crc_bits > 0) {
        int sp_frame = spans_.handoff(sp_ser, Stage::Frame);
        appendFrameCrc(bw, cfg_.frame_crc_bits);
        t.crc_bits = cfg_.frame_crc_bits;
        spans_.close(sp_frame);
    } else {
        spans_.close(sp_ser);
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

FrameDecode
CableChannel::decodeFrame(const BitVec &image, std::size_t payload_bits,
                          bool writeback)
{
    FrameDecode out;
    BitReader br(image);
    br.limit(payload_bits);
    out.error = getFrameHeader(br, out.header, rlid_fmt_);
    if (!out.ok())
        return out;
    if (!out.header.compressed) {
        out.line = getLine(br);
        if (br.overrun())
            out.error = FrameError::Truncated;
        return out;
    }
    // The references come from the receiver's own data array. The
    // list is scratch, reused across transfers.
    RefList &refs = scratch_.verify_refs;
    refs.clear();
    for (unsigned i = 0; i < out.header.nrefs; ++i) {
        LineID rlid = out.header.refs[i];
        if (!writeback) {
            refs.push_back(&remote_.lineAt(rlid));
            continue;
        }
        // The home translates each RemoteLID through its WMT.
        auto hlid = wmt_.occupantHomeLID(rlid.set, rlid.way);
        if (!hlid) {
            out.error = FrameError::UntrackedRef;
            return out;
        }
        refs.push_back(&home_.lineAt(*hlid));
    }
    const DecodeResult diff = engine_->decode(br, refs);
    out.line = diff.line;
    out.diff = diff.error;
    if (!diff.ok())
        out.error = FrameError::BadDiff;
    return out;
}

void
CableChannel::checkDecode(const Direction &dir, const BitVec &image,
                          std::size_t payload_bits,
                          const CacheLine &original, Addr addr)
{
    const FrameDecode out = decodeFrame(image, payload_bits, dir.writeback);
    if (out.ok() && out.line == original)
        return;
    const FrameHeader &h = out.header;
    std::vector<LineID> refs(h.refs.begin(), h.refs.begin() + h.nrefs);
    if (!out.ok())
        throw CableDesyncError(
            addr, dir.writeback, std::move(refs), CableDesyncError::kNoWord,
            out.error == FrameError::BadDiff
                ? std::string("decode failed: ") + decodeErrorName(out.diff)
                : frameErrorName(out.error));
    throw CableDesyncError(addr, dir.writeback, std::move(refs),
                           firstMismatchWord(out.line, original),
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
    deliver(t, dir, addr, data);
    int sp_ack = spans_.open(Stage::Ack);
    ctr_.account(stats_, t, /*framed=*/true);
    trackHealth(t);
    spans_.close(sp_ack);

    // Per-line distributions: the wire cost and reference-selection
    // quality of every transfer, the paper's Figs 5/9/20 material.
    stats_.hist(refs_hist_).record(t.nrefs);

    // Tail sketches (bounded-error quantiles; DESIGN.md §14): off
    // unless setSketchesEnabled(true), so the disabled path is one
    // predictable branch.
    if (sketches_on_) {
        stats_.sketch(sk_frame_bits_).record(t.bits);
        stats_.sketch(sk_arq_rounds_).record(t.retries);
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
        spans_.drainTo(ev);
        // Encode wall-time tail: summed stage spans of the sampled
        // transfers (the same measurements the t_stage_* histograms
        // hold, reduced to one per-transfer latency).
        if (sketches_on_ && ev.nspans > 0) {
            std::uint64_t ns = 0;
            for (unsigned i = 0; i < ev.nspans; ++i)
                ns += ev.spans[i].durationNs();
            stats_.sketch(sk_encode_ns_).record(ns);
        }
        trace_->emit(ev);
    } else {
        spans_.disarm();
    }
    ++trace_seq_;
    return t;
}

void
CableChannel::deliver(Transfer &t, const Direction &dir, Addr addr,
                      const CacheLine &original)
{
    // The image the receiver decodes: the copy the ARQ loop accepted,
    // or the sent image on a link without one.
    const BitVec *image = &t.wire;
    BitVec received;
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
            received = t.wire;
            unsigned flips = fault_->corruptPacket(received);
            bool crc_ok = checkFrameCrc(received, cfg_.frame_crc_bits);
            spans_.close(sp_rx,
                         static_cast<std::uint16_t>(attempt));
            if (flips == 0 && crc_ok) {
                image = &received;
                break;
            }
            if (crc_ok) {
                // Corruption the CRC cannot see (aliased syndrome).
                // The damaged image is not decoded: it is counted and
                // forced through the uncompressed escape hatch.
                stats_.add("crc_undetected", 1);
                rawFallbackResend(t, original, addr,
                                  RawFallbackReason::CrcMiss);
                return;
            }
            stats_.add("crc_detected", 1);
            if (attempt >= cfg_.max_retries) {
                // Retry budget exhausted: stop resending the fragile
                // compressed frame and fall back to raw.
                rawFallbackResend(t, original, addr,
                                  RawFallbackReason::RetriesExhausted);
                return;
            }
            ++attempt;
            t.retries += 1;
            stats_.add("retransmits", 1);
            traceControl(TraceEvent::Type::Retransmit, addr,
                         dir.writeback, attempt);
            t.retrans_bits += t.bits + t.crc_bits;
            t.retry_cycles += kRetryBackoffCycles
                              << std::min(attempt - 1, 16u);
            checkArqWatchdog(t, addr);
        }
    }

    if (t.raw)
        return;
    int sp_link = spans_.open(Stage::Link);
    try {
        checkDecode(dir, *image, t.bits, original, addr);
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
                     t.nrefs);
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
        rawFallbackResend(t, original, addr, RawFallbackReason::Desync);
    }
}

void
CableChannel::checkArqWatchdog(const Transfer &t, Addr addr)
{
    if (cfg_.arq_watchdog_cycles == 0
        || t.retry_cycles <= cfg_.arq_watchdog_cycles)
        return;
    stats_.add("arq_timeouts", 1);
    traceControl(TraceEvent::Type::Timeout, addr, t.writeback,
                 t.retry_cycles);
    // Spec tie: every steady state maps WatchdogExceeded to the
    // typed TimeoutRaised terminal.
    if (!recoveryRaises(health_, RecoveryEvent::WatchdogExceeded,
                        Health::TimeoutRaised))
        panic("recovery FSM: WatchdogExceeded from %s must target "
              "TimeoutRaised",
              recoveryStateName(health_));
    throw CableTimeoutError(addr, t.writeback, t.retry_cycles,
                            cfg_.arq_watchdog_cycles);
}

void
CableChannel::writeRawFrame(BitWriter &bw, const CacheLine &data) const
{
    // A baseline link (compression off) carries data only.
    if (cfg_.compression_enabled)
        putRawFrame(bw, data);
    else
        putLine(bw, data);
}

void
CableChannel::rawFallbackResend(Transfer &t, const CacheLine &original,
                                Addr addr, RawFallbackReason reason)
{
    traceControl(TraceEvent::Type::RawFallback, addr, t.writeback,
                 static_cast<std::uint64_t>(reason));
    int sp = spans_.open(Stage::Retransmit);
    t.raw_fallback = true;
    stats_.add("raw_fallbacks", 1);

    BitWriter bw;
    writeRawFrame(bw, original);
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
        t.retry_cycles += kRetryBackoffCycles
                          << std::min(attempt, 16u);
    }
    spans_.close(sp, static_cast<std::uint16_t>(
                         std::min(t.retries, 0xffffu)));
    checkArqWatchdog(t, addr);
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
    advance(RecoveryEvent::DesyncDetected);
    flushMetadata();
    unsigned relinked = resynchronize();
    stats_.add("resync_lines", relinked);
    // Re-arming a reference costs a RemoteLID plus a line digest per
    // relinked pair on a real link. Charged to the recovery counters
    // — never to the payload counters — so compression ratios stay
    // untouched while the wire-level recovery cost stays honest.
    std::uint64_t rearm_bits =
        std::uint64_t{relinked}
        * (rlid_fmt_.bits() + kWireResyncLineDigestBits);
    stats_.add("resync_rearm_bits", rearm_bits);
    stats_.add("recovery_bits", rearm_bits);
    advance(RecoveryEvent::RecoverEngage);
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
            advance(RecoveryEvent::StreakComplete);
            healthy_streak_ = 0;
            stats_.add("rearms", 1);
        }
    } else {
        healthy_streak_ = 0;
    }
}

void
CableChannel::advance(RecoveryEvent ev)
{
    const RecoveryStep &step = recoveryAdvance(health_, ev);
    health_ = step.to;
    epoch_ += step.epoch_delta;
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

// ---------------------------------------------------------------------
// §III-F pair rules
// ---------------------------------------------------------------------

void
CableChannel::linkPair(LineID rlid, LineID hlid, const CacheLine &data)
{
    SigList sigs = insertSignatures(data);
    addSignatures(home_ht_, sigs, hlid);
    addSignatures(remote_ht_, sigs, rlid);
    wmt_.set(rlid.set, rlid.way, hlid);
}

void
CableChannel::unlinkOnNotice(LineID rlid, const CacheLine &rdata,
                             const char *drop_counter)
{
    SigList sigs = insertSignatures(rdata);
    dropSignatures(remote_ht_, sigs, rlid);
    if (fault_ && fault_->dropSyncMessage()) {
        traceControl(TraceEvent::Type::SyncDrop, 0, false, 0);
        stats_.add(drop_counter, 1);
        return;
    }
    auto hlid = wmt_.occupantHomeLID(rlid.set, rlid.way);
    if (hlid) {
        // The home copy's signatures are the remote copy's unless a
        // fault let the two diverge.
        const CacheLine &hdata = home_.lineAt(*hlid);
        if (hdata != rdata)
            sigs = insertSignatures(hdata);
        dropSignatures(home_ht_, sigs, *hlid);
    }
    wmt_.clear(rlid.set, rlid.way);
}

bool
CableChannel::cleanPair(LineID rlid, LineID hlid) const
{
    return remote_.stateAt(rlid) == CoherenceState::Shared
           && home_.stateAt(hlid) == CoherenceState::Shared
           && home_.addrAt(hlid) == remote_.addrAt(rlid)
           && !(home_.lineAt(hlid) != remote_.lineAt(rlid));
}

template <typename Fn>
void
CableChannel::forEachTracked(std::uint32_t set_lo, std::uint32_t set_hi,
                             Fn &&fn) const
{
    const std::uint32_t hi = std::min(set_hi, remote_.numSets());
    for (std::uint32_t set = set_lo; set < hi; ++set) {
        for (unsigned way = 0; way < remote_.numWays(); ++way) {
            LineID rlid(set, static_cast<std::uint8_t>(way));
            if (auto norm = wmt_.occupant(set, rlid.way))
                fn(rlid, *norm);
        }
    }
}

template <typename Fn>
void
CableChannel::forEachCleanPair(std::uint32_t set_lo,
                               std::uint32_t set_hi, Fn &&fn) const
{
    const std::uint32_t hi = std::min(set_hi, remote_.numSets());
    for (std::uint32_t set = set_lo; set < hi; ++set) {
        for (unsigned way = 0; way < remote_.numWays(); ++way) {
            LineID rlid(set, static_cast<std::uint8_t>(way));
            if (remote_.stateAt(rlid) != CoherenceState::Shared)
                continue;
            LineID hlid = home_.find(remote_.addrAt(rlid));
            if (hlid.valid && cleanPair(rlid, hlid))
                fn(rlid, hlid);
        }
    }
}

void
CableChannel::landWriteBack(Addr addr, const CacheLine &data)
{
    if (home_.probe(addr)) {
        home_.writeLine(addr, data, true);
        return;
    }
    if (cfg_.inclusive)
        panic("inclusivity violated: dirty remote line %llx not "
              "resident at home",
              static_cast<unsigned long long>(addr));
    // Non-inclusive: the home agent re-allocates the line.
    (void)homeInstall(addr, data, /*dirty=*/true);
}

unsigned
CableChannel::auditInvariant()
{
    stats_.add("audits", 1);
    unsigned mismatches = 0;
    // §III-F invariant for every tracked pair.
    forEachTracked(0, remote_.numSets(),
                   [&](LineID rlid, std::uint32_t norm) {
                       if (!cleanPair(rlid,
                                      wmt_.denormalize(rlid.set, norm)))
                           ++mismatches;
                   });
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
    unsigned relinked = 0;
    forEachCleanPair(set_lo, set_hi, [&](LineID rlid, LineID hlid) {
        linkPair(rlid, hlid, home_.lineAt(hlid));
        ++relinked;
    });
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
    advance(RecoveryEvent::CrashRestart);
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
    forEachTracked(set_lo, set_hi, [&](LineID rlid, std::uint32_t norm) {
        h = fnv1a64(h, rlid.set);
        h = fnv1a64(h, rlid.way);
        h = fnv1a64(h, norm);
    });
    return h;
}

std::uint64_t
CableChannel::referenceDigest(std::uint32_t set_lo,
                              std::uint32_t set_hi) const
{
    // Ground-truth twin of metadataDigest: folds the same tuple for
    // every clean pair, the pairs resynchronize() links. A range
    // whose two digests differ holds stale or missing WMT state and
    // needs repair.
    std::uint64_t h = kFnvBasis;
    forEachCleanPair(set_lo, set_hi, [&](LineID rlid, LineID hlid) {
        h = fnv1a64(h, rlid.set);
        h = fnv1a64(h, rlid.way);
        h = fnv1a64(h, wmt_.normalize(hlid));
    });
    return h;
}

unsigned
CableChannel::dropMetadataRange(std::uint32_t set_lo,
                                std::uint32_t set_hi)
{
    unsigned dropped = 0;
    forEachTracked(set_lo, set_hi, [&](LineID rlid, std::uint32_t) {
        wmt_.clear(rlid.set, rlid.way);
        ++dropped;
    });
    return dropped;
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
    if (home_.validAt(victim_lid)) {
        Addr vaddr = home_.addrAt(victim_lid);
        // Let the system flush newer private-cache copies into the
        // remote cache before we tear the line down.
        if (backinval_hook_ && remote_.probe(vaddr))
            backinval_hook_(vaddr);
        const CacheLine &vdata = home_.lineAt(victim_lid);
        SigList sigs = insertSignatures(vdata);
        dropSignatures(home_ht_, sigs, victim_lid);

        Eviction mem_wb;
        mem_wb.valid = true;
        mem_wb.addr = vaddr;
        mem_wb.data = vdata;
        mem_wb.dirty = home_.dirtyAt(victim_lid);
        mem_wb.lid = victim_lid;

        // Back-invalidate the remote copy, if any, to preserve
        // inclusivity. In non-inclusive mode the remote keeps its
        // copy (the directory still tracks it); only CABLE's
        // metadata is detached, so the line simply stops serving as
        // a reference.
        LineID rlid = remote_.find(vaddr);
        if (rlid.valid && !remote_.dirtyAt(rlid)) {
            // A clean remote copy's signatures are the home copy's
            // unless a fault let the two diverge.
            const CacheLine &rdata = remote_.lineAt(rlid);
            if (rdata != vdata)
                sigs = insertSignatures(rdata);
            dropSignatures(remote_ht_, sigs, rlid);
        }
        if (rlid.valid && !cfg_.inclusive) {
            wmt_.clear(rlid.set, rlid.way);
            stats_.add(ctr_.noninclusive_detaches, 1);
        } else if (rlid.valid) {
            const CacheLine &rdata = remote_.lineAt(rlid);
            if (remote_.dirtyAt(rlid)) {
                // Flush the newer remote data over the link first.
                result.backinval_writeback = encodeAndTransmit(
                    Direction::kWriteBack, rdata, rlid, vaddr);
                mem_wb.data = rdata;
                mem_wb.dirty = true;
            }
            wmt_.clear(rlid.set, rlid.way);
            evbuf_.push(rlid, rdata);
            remote_.invalidate(vaddr);
            evbuf_.acknowledge(evbuf_.lastSeq());
            stats_.add(ctr_.back_invalidations, 1);
        }
        if (mem_wb.dirty)
            result.memory_writeback = mem_wb;
        stats_.add(ctr_.home_evictions, 1);
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
    if (!remote_.validAt(rlid))
        return std::nullopt;

    Addr vaddr = remote_.addrAt(rlid);
    CacheLine vdata = remote_.lineAt(rlid);
    bool was_dirty = remote_.dirtyAt(rlid);

    evbuf_.push(rlid, vdata);
    std::optional<Transfer> out;
    if (!was_dirty) {
        // Shared line: the eviction notice unlinks it.
        unlinkOnNotice(rlid, vdata, "sync_drops_evict");
    } else {
        // Dirty victim: compressed write-back (§III-G). Metadata was
        // already detached at upgrade time.
        out = encodeAndTransmit(Direction::kWriteBack, vdata, rlid,
                                vaddr);
        landWriteBack(vaddr, vdata);
    }

    remote_.invalidate(vaddr);
    evbuf_.acknowledge(evbuf_.lastSeq());
    stats_.add(was_dirty ? ctr_.remote_evict_dirty : ctr_.remote_evict_clean,
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
    const CacheLine data = home_.lineAt(home_lid);

    Transfer t =
        encodeAndTransmit(Direction::kResponse, data, home_lid, addr);

    std::uint32_t rset = remote_.setOf(addr);
    if (remote_.validAt(LineID(rset, vway)))
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
        linkPair(LineID(rset, vway), home_lid, data);
    }

    stats_.add(ctr_.responses, 1);
    stats_.add(refs_ctr_[t.nrefs], 1);
    if (t.self_only)
        stats_.add(ctr_.self_only, 1);
    if (t.raw)
        stats_.add(ctr_.raw_sends, 1);
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
    bool victim_valid = remote_.validAt(victim_lid);
    bool victim_dirty = remote_.dirtyAt(victim_lid);
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
    if (remote_.dirtyAt(rlid))
        return; // already Modified
    // CABLE's upgrade notice unlinks the line (§III-F); a lost notice
    // leaves the remote copy silently diverging from stale home
    // metadata. The coherence-protocol upgrade itself travels
    // reliably, so the cache states below stay correct either way.
    unlinkOnNotice(rlid, remote_.lineAt(rlid), "sync_drops_upgrade");
    remote_.markDirty(addr);
    // The home copy is now stale and must stop serving as reference
    // data. In non-inclusive mode the home may have already dropped
    // the line entirely.
    if (home_.probe(addr))
        home_.markDirty(addr);
    else if (cfg_.inclusive)
        panic("remoteUpgrade: inclusivity violated for %llx",
              static_cast<unsigned long long>(addr));
    stats_.add(ctr_.upgrades, 1);
}

std::optional<Transfer>
CableChannel::remoteInvalidate(Addr addr)
{
    LineID rlid = remote_.find(addr);
    if (!rlid.valid)
        return std::nullopt;
    stats_.add(ctr_.snoop_invalidations, 1);
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
    landWriteBack(addr, data);
    stats_.add(ctr_.explicit_writebacks, 1);
    return t;
}

} // namespace cable
