/**
 * @file
 * CableChannel: one CABLE-compressed point-to-point link between a
 * *home* cache (the larger cache that services and compresses
 * requests — e.g. the off-chip L4/DRAM buffer, or the home node's
 * LLC in a multi-chip system) and a *remote* cache (the smaller
 * cache that receives and decompresses — e.g. the on-chip LLC).
 *
 * The channel owns all CABLE metadata for the pair:
 *
 *  - the home-side signature hash table (request compression),
 *  - the remote-side signature hash table (write-back compression),
 *  - the Way-Map Table (HomeLID → RemoteLID translation), and
 *  - the remote-side eviction buffer (race closure, §IV-A),
 *
 * and performs the paper's synchronization rules (§III-F): shared
 * sends insert signatures on both sides and set the WMT; remote
 * displacements, snoop invalidations, upgrades and home evictions
 * remove them. Every compressed transfer is decoded from the frame
 * image the receiver accepted, against that side's own data, and
 * verified against the original — the end-to-end correctness check
 * runs in every simulation, not just in tests.
 *
 * The channel mutates both caches (installs, invalidations) because
 * inclusivity and metadata synchronization must stay atomic with
 * respect to cache state; callers orchestrate *when* lines move and
 * provide DRAM-side data, the channel enforces *how*.
 */

#ifndef CABLE_CORE_CHANNEL_H
#define CABLE_CORE_CHANNEL_H

#include <array>
#include <cstdint>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cache/cache.h"
#include "common/stats.h"
#include "compress/compressor.h"
#include "core/eviction_buffer.h"
#include "core/fault_model.h"
#include "core/frame.h"
#include "core/hash_table.h"
#include "core/recovery_fsm.h"
#include "core/wmt.h"
#include "telemetry/spans.h"
#include "telemetry/trace.h"

namespace cable
{

/** Per-channel configuration (defaults follow Table IV / §VI-A). */
struct CableConfig
{
    /** Delegate engine: one of delegateEngineNames(). */
    std::string engine = "lbe";
    /** Candidates surviving pre-rank → data-array reads (§III-C). */
    unsigned data_accesses = 6;
    /** Maximum references per DIFF. */
    unsigned max_refs = 3;
    /** Home hash table entries / home cache lines ("half-sized"). */
    double home_ht_factor = 0.5;
    /** Remote hash table entries / remote cache lines. */
    double remote_ht_factor = 1.0;
    /** LineIDs per hash bucket. */
    unsigned ht_bucket = 2;
    /** Self-compression ratio that skips the reference search. */
    double self_ratio_threshold = 16.0;
    /** Signature extraction parameters. */
    SignatureConfig sig;
    /** Compress remote→home write-backs too (§III-G). */
    bool writeback_compression = true;
    /**
     * Inclusive hierarchy (§II-C default). When false, the §IV-C
     * non-inclusive extension applies: home evictions do not back-
     * invalidate the remote copy (a directory keeps tracking it, as
     * in Haswell-EP's home agents); response compression still uses
     * shared lines opportunistically, but write-back compression is
     * disabled because a remote line is no longer guaranteed to
     * exist at the home (the paper's suggested solution).
     */
    bool inclusive = true;
    /** Disable all compression (uncompressed baseline). */
    bool compression_enabled = true;
    /** H3 seed; vary per channel instance. */
    std::uint64_t hash_seed = 0xcab1e;

    // ---- integrity framing & recovery (fault model) -----------------
    /**
     * CRC appended to every frame: 0 (off), 8, or 16 bits. The
     * overhead is accounted separately from the compressed payload
     * (Transfer::crc_bits) so compression ratios stay comparable to
     * a CRC-less link while the wire-level cost stays honest.
     */
    unsigned frame_crc_bits = 16;
    /** Compressed retransmits before the uncompressed escape hatch. */
    unsigned max_retries = 3;
    /** Clean transfers in degraded mode before re-arming references. */
    unsigned rearm_window = 256;
    /**
     * ARQ watchdog: cumulative backoff cycles one transfer may spend
     * in retries before the channel gives up with a typed
     * CableTimeoutError (a pathological fault schedule must reach a
     * terminal state instead of spinning). 0 disables the watchdog,
     * preserving the historical unbounded-retry behaviour.
     */
    Cycles arq_watchdog_cycles = 0;
    /**
     * Surface CableDesyncError to the caller even with a fault model
     * attached (it is still counted and traced first). Off, the
     * historical behaviour: detected desyncs are absorbed by the
     * flush + resynchronize + degrade recovery path.
     */
    bool strict_desync = false;
};

/** Raw-fallback ARQ attempts before assuming link-layer recovery. */
constexpr unsigned kRawResendCap = 8;

/** Base NACK backoff in link cycles; doubles per retry. */
constexpr Cycles kRetryBackoffCycles = 8;

/** One data movement over the link. */
struct Transfer
{
    std::size_t bits = 0;      ///< wire payload bits (after CABLE)
    std::size_t raw_bits = 0;  ///< uncompressed payload bits (512)
    unsigned nrefs = 0;        ///< references carried
    unsigned sigs = 0;         ///< search signatures extracted
    bool self_only = false;    ///< compressed without references
    bool raw = false;          ///< sent uncompressed
    bool writeback = false;    ///< direction: remote → home
    BitVec wire;               ///< exact wire image (toggle studies)

    // ---- integrity & recovery accounting ----------------------------
    std::size_t crc_bits = 0;     ///< frame CRC overhead bits
    std::size_t retrans_bits = 0; ///< extra bits spent on resends
    unsigned retries = 0;         ///< NACK-triggered resends
    Cycles retry_cycles = 0;      ///< backoff latency (link cycles)
    bool raw_fallback = false;    ///< ended as an uncompressed resend

    /** Total wire occupancy: payload + CRC + every retransmission. */
    std::size_t
    wireBits() const
    {
        return bits + crc_bits + retrans_bits;
    }
};

/** The per-transfer counters of a link, each registered under its
 *  own name; TransferStats holds their handles. */
#define CABLE_TRANSFER_COUNTERS(X)                                    \
    X(transfers) X(raw_bits) X(wire_bits) X(crc_overhead_bits)        \
    X(retrans_bits) X(retry_backoff_cycles) X(raw_flits16)            \
    X(wire_flits16) X(wb_transfers) X(wb_raw_bits) X(wb_wire_bits)    \
    X(resp_raw_bits) X(resp_wire_bits) X(self_threshold_hits)         \
    X(degraded_self_only) X(ht_hits) X(search_allocs) X(responses)    \
    X(self_only) X(raw_sends) X(home_evictions)                       \
    X(back_invalidations) X(noninclusive_detaches)                    \
    X(remote_evict_dirty) X(remote_evict_clean) X(upgrades)           \
    X(snoop_invalidations) X(explicit_writebacks)

/** Handles of CABLE_TRANSFER_COUNTERS and the `line_wire_bits`
 *  histogram in one StatSet. Registering them shows nothing
 *  (common/stats.h), so the stream baselines reuse the set for the
 *  subset they touch. */
struct TransferStats
{
    explicit TransferStats(StatSet &stats);

    /** Per-transfer volume counters and wire-size histogram;
     *  @p framed adds the CRC and retransmission overhead only a
     *  CABLE link carries. */
    void account(StatSet &stats, const Transfer &t, bool framed) const;

#define CABLE_COUNTER(name) CounterId name;
    CABLE_TRANSFER_COUNTERS(CABLE_COUNTER)
#undef CABLE_COUNTER
    HistId line_wire_bits;
};

/**
 * The pairwise metadata invariant broke: a frame decoded from
 * receiver-side reference data did not reproduce the original line,
 * or could not be decoded (a FrameError: a reference out of range or
 * pointing at an untracked slot, or a DIFF the engine rejected).
 * Carries enough structure for the recovery path to log and for
 * tests to assert on. When no fault model is attached this propagates — a genuine
 * bug — instead of being absorbed by recovery.
 */
class CableDesyncError : public std::exception
{
  public:
    /** mismatch_word value when decode could not even start. */
    static constexpr unsigned kNoWord = ~0u;

    CableDesyncError(Addr addr, bool writeback,
                     std::vector<LineID> refs, unsigned mismatch_word,
                     const std::string &detail);

    const char *what() const noexcept override { return what_.c_str(); }

    Addr addr = 0;               ///< line being transferred
    bool writeback = false;      ///< direction: remote → home
    std::vector<LineID> refs;    ///< reference LIDs on the wire
    unsigned mismatch_word = kNoWord; ///< first differing 32b word

  private:
    std::string what_;
};

/**
 * The ARQ watchdog fired: one transfer exhausted its cumulative
 * retry-cycle budget (CableConfig::arq_watchdog_cycles) without a
 * clean delivery. The transfer is abandoned; callers treat this as
 * an endpoint stall and run crash recovery (crashMetadata + resync)
 * instead of waiting on a link that is not making progress.
 */
class CableTimeoutError : public std::exception
{
  public:
    CableTimeoutError(Addr addr, bool writeback, Cycles waited,
                      Cycles budget);

    const char *what() const noexcept override { return what_.c_str(); }

    Addr addr = 0;          ///< line whose transfer stalled
    bool writeback = false; ///< direction: remote → home
    Cycles waited = 0;      ///< retry cycles actually spent
    Cycles budget = 0;      ///< configured watchdog budget

  private:
    std::string what_;
};

/** Outcome of a full remote fetch (victim + response). */
struct FetchResult
{
    Transfer response;
    std::optional<Transfer> victim_writeback;
    bool evicted_clean = false;
};

/** Outcome of a home-side install (inclusivity enforcement). */
struct HomeInstallResult
{
    /** Home victim whose dirty data must go to memory. */
    std::optional<Eviction> memory_writeback;
    /** Dirty data flushed from the remote by back-invalidation. */
    std::optional<Transfer> backinval_writeback;
};

/** Outcome of one resync session (CableChannel::resync). */
struct ResyncResult
{
    bool completed = false;  ///< a full digest round verified clean
    std::uint64_t epoch = 0; ///< channel generation after the session
    unsigned rounds = 0;     ///< digest rounds actually run
    std::uint32_t ranges_total = 0;    ///< ranges per digest round
    std::uint32_t ranges_repaired = 0; ///< repair operations (all rounds)
    unsigned lines_relinked = 0;       ///< pairs re-armed (all rounds)
    std::uint64_t handshake_bits = 0;  ///< hello + digest exchange bits
    std::uint64_t rearm_bits = 0;      ///< incremental re-arm bits
    unsigned faults_hit = 0;           ///< mid-resync faults injected
};

class CableChannel
{
  public:
    CableChannel(Cache &home, Cache &remote, const CableConfig &cfg);

    // ---- orchestration API ------------------------------------------

    /**
     * Installs @p data for @p addr into the home cache (e.g. a DRAM
     * fill at the L4), back-invalidating the remote copy of any
     * displaced line to preserve inclusivity and cleaning up CABLE
     * metadata for both the displaced home line and its remote copy.
     */
    [[nodiscard]] HomeInstallResult
    homeInstall(Addr addr, const CacheLine &data, bool dirty = false);

    /**
     * Full remote fetch: evicts the victim of @p addr's remote set
     * (compressed write-back if dirty), then compresses and sends
     * the home copy of @p addr, installing it at the remote. The
     * home cache must already hold @p addr — and in non-inclusive
     * mode a dirty victim's write-back may allocate at the home and
     * displace it, so non-inclusive callers should sequence
     * remoteEvictSlot / home fill / respondAndInstall themselves
     * (as the simulators do).
     *
     * @param store install Modified (store miss); the line is then
     *              excluded from reference tracking.
     */
    [[nodiscard]] FetchResult remoteFetch(Addr addr, bool store);

    /**
     * Evicts the occupant of remote slot @p rlid (if any): removes
     * its signatures from both tables, clears the WMT entry, pushes
     * the data into the eviction buffer, and returns the compressed
     * write-back transfer when it was dirty. Used directly by
     * multi-cache systems that pick victims across channels.
     */
    [[nodiscard]] std::optional<Transfer> remoteEvictSlot(LineID rlid);

    /**
     * Compresses and sends the home copy of @p addr into the free
     * remote way @p vway. Precondition: the slot was vacated.
     */
    [[nodiscard]] Transfer respondAndInstall(Addr addr,
                                             std::uint8_t vway,
                                             bool store);

    /** Store hit on a Shared remote line: S→M upgrade (§III-F). */
    void remoteUpgrade(Addr addr);

    /**
     * Snoop invalidation of the remote copy of @p addr (coherence
     * traffic from another sharer). Returns the write-back transfer
     * if the copy was dirty.
     */
    [[nodiscard]] std::optional<Transfer> remoteInvalidate(Addr addr);

    /**
     * Remote-initiated write-back of a dirty line that stays
     * resident (e.g. periodic cleaning). Compresses remote→home.
     */
    [[nodiscard]] Transfer writeBack(Addr addr, const CacheLine &data);

    // ---- introspection ----------------------------------------------

    [[nodiscard]] Cache &home() { return home_; }
    [[nodiscard]] Cache &remote() { return remote_; }
    const WayMapTable &wmt() const { return wmt_; }
    const SignatureHashTable &homeTable() const { return home_ht_; }
    const SignatureHashTable &remoteTable() const { return remote_ht_; }
    [[nodiscard]] EvictionBuffer &evictionBuffer() { return evbuf_; }
    [[nodiscard]] StatSet &stats() { return stats_; }
    const StatSet &stats() const { return stats_; }
    const CableConfig &config() const { return cfg_; }

    /**
     * Structure introspection (Fig 21 material): one StatSet holding
     * the probes of every CABLE metadata structure on this channel,
     * prefixed `home_ht_`, `remote_ht_`, `wmt_` and `evbuf_`, plus
     * the channel-level stale-candidate counters
     * (`home_ht_stale_hits` / `remote_ht_stale_hits`: hash-table
     * candidates that failed cache-validity or WMT translation).
     * Emits a StructSnapshot trace event (aux = combined hash-table
     * occupancy) when a sink is attached, so snapshots interleave
     * with the encode stream.
     */
    [[nodiscard]] StatSet snapshotStructures();

    /** Runtime on/off switch; metadata tracking continues. */
    void setCompressionEnabled(bool on) { cfg_.compression_enabled = on; }

    /**
     * Attaches (or detaches, with nullptr) a structured trace sink.
     * With a sink attached the channel emits one Encode event per
     * transfer (the full decision record: signatures, candidates,
     * refs, CBV coverage, in/out bits) plus desync/ARQ/audit
     * events. Without one, the hot path pays a single pointer test.
     */
    void setTraceSink(TraceSink *sink) { trace_ = sink; }

    /**
     * Critical-path span sampling: 1-in-@p period transfers record
     * causal stage spans onto their Encode trace event (DESIGN.md
     * §13). 0 (the default) disables recording entirely; spans are
     * only captured when a trace sink is also attached, so the
     * unsampled hot path pays a single branch.
     */
    void setSpanSampling(std::uint64_t period)
    {
        spans_.configure(period);
    }
    /** Recorder counters for the measured-overhead self-report. */
    const SpanRecorder &spanRecorder() const { return spans_; }

    /**
     * Tail-quantile sketches (DESIGN.md §14): when enabled, every
     * transfer records frame bits and ARQ round trips — and, on
     * span-sampled transfers, encode nanoseconds — into fixed-
     * capacity QuantileSketches ("frame_bits", "arq_rounds",
     * "encode_ns") in stats(). Enabling shows them, empty; while
     * disabled the hot path pays one flag test per transfer.
     */
    void
    setSketchesEnabled(bool on)
    {
        sketches_on_ = on;
        if (!on)
            return;
        // Registered on first enable, since each holds a fixed bucket
        // array; touching shows them, empty.
        sk_frame_bits_ = stats_.sketchId("frame_bits");
        sk_arq_rounds_ = stats_.sketchId("arq_rounds");
        sk_encode_ns_ = stats_.sketchId("encode_ns");
        for (SketchId id : {sk_frame_bits_, sk_arq_rounds_, sk_encode_ns_})
            (void)stats_.sketch(id);
    }
    bool sketchesEnabled() const { return sketches_on_; }

    // ---- fault tolerance --------------------------------------------

    /**
     * Channel health: Healthy uses the full reference search;
     * Degraded (entered after a detected desync) sends
     * self-compressed or raw only, while metadata rebuilds, and
     * re-arms after `rearm_window` clean transfers — the §VI-D
     * on/off controller generalized into a health-state machine.
     *
     * The enum (and every transition the channel may take) is
     * generated from core/recovery_fsm.def — see recovery_fsm.h.
     * Callers only ever observe the steady states Healthy and
     * Degraded; the transient states live inside single recovery
     * actions.
     */
    using Health = cable::Health;

    /**
     * Attaches (or detaches, with nullptr) a fault model. With a
     * model attached, wire corruption, lost sync messages and
     * metadata soft errors are injected, and the detect → NACK →
     * retransmit → raw-fallback and desync-recovery paths engage
     * instead of aborting.
     */
    void setFaultModel(LinkFaultModel *fm) { fault_ = fm; }

    Health health() const { return health_; }
    bool degraded() const { return health_ == Health::Degraded; }

    /**
     * Periodic integrity sweep: checks every WMT-tracked pair for
     * the §III-F invariant (both valid, remote clean, same tag,
     * bit-identical data). Any mismatch triggers full desync
     * recovery (flush + resynchronize + degrade). Returns the
     * number of mismatched slots found.
     */
    [[nodiscard]] unsigned auditInvariant();

    /** Clears both hash tables and the WMT. */
    void flushMetadata();

    // ---- crash recovery & resync protocol (DESIGN.md §12) -----------

    /**
     * Channel generation number: bumped on every crash, checkpoint
     * restore and desync recovery. The resync handshake exchanges
     * epochs first, so a restarted endpoint and its survivor agree
     * on which generation's dictionaries they are reconciling.
     */
    std::uint64_t epoch() const { return epoch_; }

    /**
     * Simulated endpoint crash: every piece of link-encoder state —
     * both hash tables, the WMT, the eviction buffer — is lost, the
     * epoch advances and the channel enters Degraded. Cache contents
     * survive (a link reset does not lose memory); only the
     * dictionaries must be rebuilt, by checkpoint restore and/or
     * resync().
     */
    void crashMetadata();

    /**
     * Order-independent digest of the current WMT tracking state for
     * remote sets [set_lo, set_hi); one side of the resync protocol's
     * per-range digest exchange.
     */
    std::uint64_t metadataDigest(std::uint32_t set_lo,
                                 std::uint32_t set_hi) const;

    /**
     * Digest of what the WMT *should* track for remote sets
     * [set_lo, set_hi): the clean identical pairs resynchronizeRange
     * would link, computed from cache ground truth. A range whose
     * metadataDigest matches needs no re-warm traffic.
     */
    std::uint64_t referenceDigest(std::uint32_t set_lo,
                                  std::uint32_t set_hi) const;

    /**
     * The dictionary reconciliation handshake (core/resync.cc),
     * run after a crash or a restore from a stale image:
     *
     *   1. Hello: both sides exchange epochs (kWireResyncEpochBits
     *      each), so a restarted peer is detected.
     *   2. Digest rounds: per range of remote sets each side sends
     *      one digest (kWireResyncDigestBits); a range whose
     *      metadataDigest matches its referenceDigest needs no
     *      further traffic.
     *   3. Repair: each mismatched range is dropped and re-armed from
     *      cache ground truth; one RemoteLID plus a line digest per
     *      re-linked pair.
     *   4. Verify: the session completes when a full digest round is
     *      clean, and the channel returns to Healthy at once — no
     *      rearm_window probation.
     *
     * With a fault model attached, a repair round may re-tear a
     * repaired range; injection stops before the last round, so a
     * fault schedule can delay convergence but never prevent it.
     * Both endpoints share this object, so the session models the
     * protocol's traffic and repair without a message layer; every
     * handshake and re-arm bit lands in the recovery counters
     * (`resync_handshake_bits`, `resync_rearm_bits`,
     * `recovery_bits`), never in the payload counters.
     */
    [[nodiscard]] ResyncResult resync();

    /**
     * Invoked with the victim's address just before a home eviction
     * back-invalidates the remote copy, so the surrounding system
     * can flush dirtier private-cache copies into the remote cache
     * first (the inclusive-hierarchy merge).
     */
    void
    setBackinvalHook(std::function<void(Addr)> hook)
    {
        backinval_hook_ = std::move(hook);
    }

    /**
     * The receiver's decode of one frame of this link: the first
     * @p payload_bits bits of @p image (a CRC after them is not
     * read). Parses the header, checks each RemoteLID against the
     * remote cache's geometry, resolves the references from the
     * receiving side's own data — the remote cache for a response,
     * the home cache through the WMT for a write-back — and hands
     * the engine the same reader for the DIFF. A raw frame yields
     * its payload. Never aborts: a cut or damaged frame gets a
     * typed FrameError.
     */
    [[nodiscard]] FrameDecode decodeFrame(const BitVec &image,
                                          std::size_t payload_bits,
                                          bool writeback);

    /** uncompressed / compressed payload bits so far. */
    double
    compressionRatio() const
    {
        return stats_.ratio("raw_bits", "wire_bits");
    }

  private:
    /** Serializes/restores the full private state (checkpoint.h). */
    friend class ChannelCheckpoint;

    /** Hard cap on references per DIFF, fixed by the 2-bit wire
     *  ref-count field (core/wire_format.h). */
    static constexpr unsigned kMaxRefsCap = kWireMaxRefs;

    /** Engine draft slots of a line's two representations. */
    static constexpr unsigned kSelfDraft = 0;
    static constexpr unsigned kRefsDraft = 1;

    struct Chosen
    {
        /** The header packageTransfer writes: raw until a DIFF wins,
         *  then the RemoteLIDs on the wire. Its fixed capacity
         *  (kMaxRefsCap) keeps the steady-state encode path
         *  allocation-free. */
        FrameHeader frame;
        /** Draft slot of the winning DIFF; packageTransfer emits it
         *  unless the line goes raw. */
        unsigned draft = kSelfDraft;
        unsigned sigs_used = 0; // search signatures extracted
        bool self_only = false;
        // ---- telemetry decision record ------------------------------
        unsigned trivial_words = 0; // trivial words skipped (§III-B)
        unsigned ht_hits = 0;       // hash-table hits before pre-rank
        unsigned ranked = 0;        // candidates surviving pre-rank
        std::uint32_t cbv_union = 0; // union CBV of selected refs
        unsigned covered_words = 0;  // popcount of cbv_union
    };

    /**
     * Reusable arena for the per-transfer encode (draft → extract →
     * probe → pre-rank → CBV → select → draft → emit → verify). Every
     * container is either fixed-capacity or a vector that is
     * clear()ed per transfer and so retains its capacity: after
     * warm-up the encode performs zero heap allocations. (The wire
     * image and the raw payload still allocate; see DESIGN.md
     * "Encode kernels & the allocation-free search path".)
     */
    struct SearchScratch
    {
        SigList sigs;              // search signatures of the line
        std::vector<LineID> hits;  // raw hash-table hits
        /** Pre-rank accumulator: (candidate, duplication count). */
        std::vector<std::pair<LineID, unsigned>> ranked;
        std::vector<LineID> cand_rlids; // surviving candidates
        RefList cand_data;              // parallel data pointers
        std::vector<std::uint32_t> cbvs; // parallel coverage vectors
        std::array<unsigned, kMaxRefsCap> picks; // greedy selection
        RefList engine_refs; // reused argument for engine calls
        RefList verify_refs; // reused receiver-side reference list
        BitVec diff; // the winner's DIFF, emitted by packageTransfer
    };

    /** One direction's search stats: searches, candidate data
     *  reads, stale candidates, signatures per search. */
    struct DirStats
    {
        CounterId searches, data_reads, stale_hits;
        HistId sigs_hist;
    };

    /**
     * One transfer direction. Responses (home → remote, Fig 8) and
     * write-backs (remote → home, §III-G) share one search; what
     * differs between them is data here (DESIGN.md §9).
     */
    struct Direction
    {
        bool writeback; ///< remote → home
        /** The sender's table, probed for candidates. */
        SignatureHashTable CableChannel::*table;
        /** Skip the search at self_ratio_threshold (responses). */
        bool self_ratio_early_out;
        /** Needs writeback_compression, and searches only when
         *  inclusive (§IV-C; write-backs). */
        bool writeback_gates;
        bool counts_ht_hits; ///< probe hits feed `ht_hits`
        /** This direction's search stats (the channel owns them). */
        DirStats CableChannel::*stats;

        static const Direction kResponse;
        static const Direction kWriteBack;
    };

    /** Signature search + engine delegation (§III-E) for one line;
     *  @p self_lid (its own slot at the sender) is never a candidate. */
    Chosen searchAndCompress(const Direction &dir,
                             const CacheLine &data, LineID self_lid);
    /**
     * Sender-side data of candidate @p lid, or nullptr when stale;
     * sets @p rlid to the RemoteLID the wire carries. The receiver
     * decodes from its own copy, so a response candidate must be
     * valid at the home and still translate through the WMT. A
     * write-back candidate must be a valid, clean remote line (the
     * home holds identical data) that the home's WMT tracks.
     */
    const CacheLine *resolveCandidate(const Direction &dir, LineID lid,
                                      LineID &rlid) const;

    /** Frames @p chosen, emitting its DIFF into the scratch arena;
     *  raw frames serialize @p original. */
    Transfer packageTransfer(const Chosen &chosen, bool writeback,
                             const CacheLine &original);
    /** Decodes the received frame @p image (decodeFrame) and
     *  compares it with @p original; throws CableDesyncError on a
     *  frame error or a mismatch. */
    void checkDecode(const Direction &dir, const BitVec &image,
                     std::size_t payload_bits, const CacheLine &original,
                     Addr addr);

    /**
     * Full send: search + compress → package → (under a fault model)
     * corrupt / CRC-check / NACK-retransmit / raw-fallback → decode-
     * verify → account. The single entry point every transfer goes
     * through.
     */
    Transfer encodeAndTransmit(const Direction &dir,
                               const CacheLine &data, LineID self_lid,
                               Addr addr);
    /** Receiver-side ARQ + end-to-end decode verification of the
     *  accepted image. */
    void deliver(Transfer &t, const Direction &dir, Addr addr,
                 const CacheLine &original);
    /** Why a transfer left the compressed path (RawFallback aux). */
    enum class RawFallbackReason : std::uint8_t
    {
        CrcMiss = 1,          ///< corruption the CRC could not see
        RetriesExhausted = 2, ///< max_retries compressed resends
        Desync = 3,           ///< decode verify failed; recovered
    };
    /** Writes the raw frame of @p data: the flag bit (a compressing
     *  link only) and the 512 payload bits. */
    void writeRawFrame(BitWriter &bw, const CacheLine &data) const;
    /** Uncompressed escape hatch for @p reason, resent until it is
     *  received clean; then the ARQ watchdog check. */
    void rawFallbackResend(Transfer &t, const CacheLine &original,
                           Addr addr, RawFallbackReason reason);
    /** Flush + resynchronize + enter degraded mode. */
    void recoverFromDesync();
    /** Throws CableTimeoutError when the retry budget is blown. */
    void checkArqWatchdog(const Transfer &t, Addr addr);
    /** Healthy-window bookkeeping after each delivered transfer. */
    void trackHealth(const Transfer &t);
    /** Injects one metadata soft error, if the model says so. */
    void maybeCorruptMetadata();
    /** Takes the recovery_fsm.def row for (health_, @p ev): applies
     *  its `to` state and its epoch delta. */
    void advance(RecoveryEvent ev);

    // ---- §III-F pair rules -------------------------------------------

    /** Links a shared pair: remote slot @p rlid holds the same line
     *  and @p data as home slot @p hlid. Both tables learn the
     *  line's signatures and the WMT maps @p rlid to @p hlid. */
    void linkPair(LineID rlid, LineID hlid, const CacheLine &data);
    /**
     * Unlinks the clean remote line @p rlid (data @p rdata) as it
     * leaves Shared. The remote-side signature drop is local; the
     * home side learns through a sync notice, the one place the
     * fault model may drop it (counted under @p drop_counter and
     * traced as SyncDrop), leaving stale home metadata for the
     * audit or the decode verify to catch.
     */
    void unlinkOnNotice(LineID rlid, const CacheLine &rdata,
                        const char *drop_counter);
    /** The pair invariant: both slots Shared, holding the same line
     *  with bit-identical data. */
    bool cleanPair(LineID rlid, LineID hlid) const;
    /** Calls @p fn(rlid, norm) for each WMT-tracked remote slot of
     *  sets [set_lo, set_hi); norm is the normalized HomeLID. */
    template <typename Fn>
    void forEachTracked(std::uint32_t set_lo, std::uint32_t set_hi,
                        Fn &&fn) const;
    /** Calls @p fn(rlid, hlid) for each clean pair (cleanPair) whose
     *  remote slot lies in sets [set_lo, set_hi). */
    template <typename Fn>
    void forEachCleanPair(std::uint32_t set_lo, std::uint32_t set_hi,
                          Fn &&fn) const;
    /** Lands a write-back of @p data at the home copy of @p addr; a
     *  non-inclusive home re-allocates a line it dropped. */
    void landWriteBack(Addr addr, const CacheLine &data);

    /** Re-links every clean pair (resynchronizeRange over all sets);
     *  returns lines re-linked. */
    unsigned resynchronize();
    /** Re-links the clean pairs whose remote set lies in
     *  [set_lo, set_hi); returns lines re-linked. */
    unsigned resynchronizeRange(std::uint32_t set_lo,
                                std::uint32_t set_hi);
    /** Drops WMT tracking for remote sets [set_lo, set_hi) ahead of
     *  a range repair; returns the number of slots cleared. */
    unsigned dropMetadataRange(std::uint32_t set_lo,
                               std::uint32_t set_hi);

    /** The insert-signatures of @p data, extracted once per insert
     *  or evict event and applied to every table the event touches
     *  (again only for a line whose data differs). */
    SigList insertSignatures(const CacheLine &data) const;
    /** Removes / adds the mappings @p sigs → @p lid in @p table. */
    static void dropSignatures(SignatureHashTable &table,
                               const SigList &sigs, LineID lid);
    static void addSignatures(SignatureHashTable &table,
                              const SigList &sigs, LineID lid);

    /**
     * Emits a non-encode (control) trace event, if tracing is on.
     * Given @p resync_begin_ns (a recorder stamp), the event carries
     * the Resync span from then to now, recorded into its stage
     * histogram like encode spans (SpanRecorder::recordControl).
     */
    void traceControl(TraceEvent::Type type, Addr addr, bool writeback,
                      std::uint64_t aux,
                      std::optional<std::uint64_t> resync_begin_ns =
                          std::nullopt);

    Cache &home_;
    Cache &remote_;
    CableConfig cfg_;
    SearchScratch scratch_;
    WayMapTable wmt_;
    SignatureHashTable home_ht_;
    SignatureHashTable remote_ht_;
    EvictionBuffer evbuf_;
    CompressorPtr engine_;
    StatSet stats_;
    RlidFormat rlid_fmt_; ///< the remote cache's RemoteLID fields
    std::function<void(Addr)> backinval_hook_;
    LinkFaultModel *fault_ = nullptr;
    Health health_ = Health::Healthy;
    unsigned healthy_streak_ = 0;
    std::uint64_t epoch_ = 0;
    TraceSink *trace_ = nullptr;
    std::uint64_t trace_seq_ = 0;
    TraceEvent encode_ev_; ///< reused by every traced transfer
    SpanRecorder spans_;

    // Handles of every stat a fault-free transfer touches, registered
    // in stats_ at construction (common/stats.h).
    TransferStats ctr_{stats_};
    std::array<CounterId, kMaxRefsCap + 1> refs_ctr_; ///< refs_<n>
    HistId ht_hits_hist_, ranked_hist_, covered_hist_, refs_hist_;
    DirStats resp_stats_, wb_stats_;
    SketchId sk_frame_bits_{}, sk_arq_rounds_{}, sk_encode_ns_{};
    bool sketches_on_ = false;
};

/** Delegate-engine factory: per-line variants. CPACK128 and LZSS
 *  drop the persistent dictionary of their makeCompressor forms;
 *  fatal() on a name delegateEngineNames() does not list. */
CompressorPtr makeDelegateEngine(const std::string &name);

/** Every name makeDelegateEngine accepts, in its table order. */
std::vector<std::string> delegateEngineNames();

} // namespace cable

#endif // CABLE_CORE_CHANNEL_H
