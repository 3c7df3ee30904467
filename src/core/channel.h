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
 * remove them. Every compressed transfer is decompressed at the
 * receiving side from that side's own data and verified against the
 * original — the end-to-end correctness check runs in every
 * simulation, not just in tests.
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
#include "core/hash_table.h"
#include "core/recovery_fsm.h"
#include "core/wire_format.h"
#include "core/wmt.h"
#include "telemetry/spans.h"
#include "telemetry/trace.h"

namespace cable
{

/** Per-channel configuration (defaults follow Table IV / §VI-A). */
struct CableConfig
{
    /** Delegate engine: "lbe", "cpack128", "gzip", "oracle". */
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
    /** Decompress-and-compare every transfer (cheap; keep on). */
    bool verify_roundtrip = true;
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
    /** Base NACK backoff in link cycles; doubles per retry. */
    Cycles retry_backoff_cycles = 8;
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

/**
 * The pairwise metadata invariant broke: a transfer decoded from
 * receiver-side reference data did not reproduce the original line
 * (or a reference pointed at an untracked slot). Carries enough
 * structure for the recovery path to log and for tests to assert
 * on. When no fault model is attached this propagates — a genuine
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
    TraceSink *traceSink() const { return trace_; }

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
    /** The resync protocol (sim layer) times its session with the
     *  channel's recorder, so its span lands in the same stage
     *  histograms and overhead self-report. */
    [[nodiscard]] SpanRecorder &spanRecorder() { return spans_; }

    /**
     * Tail-quantile sketches (DESIGN.md §14): when enabled, every
     * transfer records frame bits and ARQ round trips — and, on
     * span-sampled transfers, encode nanoseconds — into fixed-
     * capacity QuantileSketches ("frame_bits", "arq_rounds",
     * "encode_ns") in stats(). The sketch references are cached at
     * enable time (map nodes are pointer-stable), so the disabled
     * hot path pays one null-pointer test per transfer and the
     * enabled path three branch-free bucket increments.
     */
    void
    setSketchesEnabled(bool on)
    {
        if (on) {
            q_frame_bits_ = &stats_.sketch("frame_bits");
            q_arq_rounds_ = &stats_.sketch("arq_rounds");
            q_encode_ns_ = &stats_.sketch("encode_ns");
        } else {
            q_frame_bits_ = nullptr;
            q_arq_rounds_ = nullptr;
            q_encode_ns_ = nullptr;
        }
    }
    bool sketchesEnabled() const { return q_frame_bits_ != nullptr; }

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

    /**
     * Rebuilds metadata from scratch: every clean shared line
     * resident on both sides with identical data is re-linked
     * (WMT + both signature tables). Returns lines re-linked.
     */
    unsigned resynchronize(); // cable-lint: allow(R004) re-link
                              // count is advisory; recovery paths
                              // resynchronize for the side effect

    // ---- crash recovery & resync protocol (DESIGN.md §12) -----------

    /**
     * Channel generation number: bumped on every crash, checkpoint
     * restore and desync recovery. The resync handshake exchanges
     * epochs first, so a restarted endpoint and its survivor agree
     * on which generation's dictionaries they are reconciling.
     */
    std::uint64_t epoch() const { return epoch_; }

    /** The attached fault model (nullptr when none). */
    LinkFaultModel *faultModel() const { return fault_; }

    /**
     * Simulated endpoint crash: every piece of link-encoder state —
     * both hash tables, the WMT, the eviction buffer — is lost, the
     * epoch advances and the channel enters Degraded. Cache contents
     * survive (a link reset does not lose memory); only the
     * dictionaries must be rebuilt, by checkpoint restore and/or the
     * resync protocol.
     */
    void crashMetadata();

    /**
     * Bounded resynchronize: re-links clean identical pairs whose
     * remote set index lies in [set_lo, set_hi). The incremental
     * re-arm step of the resync protocol; resynchronize() is the
     * whole-cache special case.
     */
    // cable-lint: allow(R004) same advisory-count contract as
    // resynchronize()
    unsigned resynchronizeRange(std::uint32_t set_lo,
                                std::uint32_t set_hi);

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
     * Drops WMT tracking for remote sets [set_lo, set_hi) ahead of a
     * range repair (stale entries must not survive a re-link).
     * Returns the number of slots cleared.
     */
    // cable-lint: allow(R004) cleared-slot count is advisory
    unsigned dropMetadataRange(std::uint32_t set_lo,
                               std::uint32_t set_hi);

    /**
     * Resync-session entry (the epoch hello): moves the machine into
     * the transient ResyncHealthy/ResyncDegraded state for the
     * duration of one ResyncSession::run(). Every exit path of the
     * session must leave through completeResync() (digests verified)
     * or abandonResync() (rounds exhausted); the session runs
     * synchronously, so callers never observe the transient state.
     */
    void beginResync();

    /**
     * Resync-session round event: a range digest pair disagreed and
     * the range was dropped + re-armed (spec DigestMismatch
     * self-loop). Keeps the code path on the generated table even
     * though the state does not change.
     */
    void resyncRoundRepaired();

    /**
     * Resync-session fault event: the injector re-tore a repaired
     * range mid-session (spec MetadataFault self-loop).
     */
    void resyncFaultTorn();

    /**
     * Resync-protocol completion: the digests verified clean, so the
     * channel returns to Healthy immediately instead of waiting out
     * the rearm_window (the protocol's bounded re-warm guarantee).
     */
    void completeResync();

    /**
     * Resync-session exit without a clean digest pass (max_rounds
     * exhausted): the channel falls back to the steady state it
     * entered the session from.
     */
    void abandonResync();

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

    /** RemoteLID width on the wire (17b in the paper's configs). */
    unsigned remoteLidBits() const { return rlid_bits_; }

    /** Serializes a line into a 512-bit payload image; built only
     *  when a raw frame is emitted. */
    static BitVec bitsOf(const CacheLine &data);

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

    struct Chosen
    {
        BitVec diff;
        unsigned sigs_used = 0; // search signatures extracted
        unsigned nrefs = 0;     // references on the wire
        /** Remote LIDs on the wire; fixed capacity (kMaxRefsCap)
         *  keeps the steady-state encode path allocation-free. The
         *  array is value-initialized: a Chosen is moved whole before
         *  all slots are filled, and copying indeterminate bytes is
         *  undefined behaviour (-Wmaybe-uninitialized flagged it). */
        std::array<LineID, kMaxRefsCap> ref_rlids{};
        bool self_only = false;
        bool raw = false;
        // ---- telemetry decision record ------------------------------
        unsigned trivial_words = 0; // trivial words skipped (§III-B)
        unsigned ht_hits = 0;       // hash-table hits before pre-rank
        unsigned ranked = 0;        // candidates surviving pre-rank
        std::uint32_t cbv_union = 0; // union CBV of selected refs
        unsigned covered_words = 0;  // popcount of cbv_union

        /** Cold-path copy of the wire LIDs (desync diagnostics). */
        std::vector<LineID>
        refVector() const
        {
            return std::vector<LineID>(ref_rlids.begin(),
                                       ref_rlids.begin() + nrefs);
        }
    };

    /**
     * Reusable arena for the per-transfer search pipeline (extract →
     * probe → pre-rank → CBV → select → verify). Every container is
     * either fixed-capacity or a vector that is clear()ed per
     * transfer and so retains its capacity: after warm-up the encode
     * search path performs zero heap allocations. (The compressed
     * bitstreams themselves — Chosen::diff, the raw image and the
     * engine's internals — still allocate; see DESIGN.md "Encode
     * kernels & the allocation-free search path".)
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
        bool counts_ht_hits;    ///< probe hits feed `ht_hits`
        const char *searches;   ///< counter: searches run
        const char *data_reads; ///< counter: candidate data reads
        const char *stale_hits; ///< counter: stale candidates
        const char *sigs_hist;  ///< histogram: signatures per search

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

    /** Frames @p chosen; raw frames serialize @p original. */
    Transfer packageTransfer(const Chosen &chosen, bool writeback,
                             const CacheLine &original);
    void accountTransfer(const Transfer &t);
    /** Decodes @p chosen from the receiver's own data and compares
     *  it with @p original; throws CableDesyncError on a mismatch or
     *  an untracked reference. */
    void checkDecode(const Direction &dir, const Chosen &chosen,
                     const CacheLine &original, Addr addr);

    /**
     * Full send: search + compress → package → (under a fault model)
     * corrupt / CRC-check / NACK-retransmit / raw-fallback → decode-
     * verify → account. The single entry point every transfer goes
     * through.
     */
    Transfer encodeAndTransmit(const Direction &dir,
                               const CacheLine &data, LineID self_lid,
                               Addr addr);
    /** Receiver-side ARQ + end-to-end decode verification. */
    void deliver(Transfer &t, const Chosen &chosen,
                 const Direction &dir, Addr addr,
                 const CacheLine &original);
    /** Uncompressed escape hatch, resent until verified clean. */
    void rawFallbackResend(Transfer &t, const CacheLine &original);
    /** Flush + resynchronize + enter degraded mode. */
    void recoverFromDesync();
    /** Throws CableTimeoutError when the retry budget is blown. */
    void checkArqWatchdog(const Transfer &t, Addr addr,
                          bool writeback);
    /** Healthy-window bookkeeping after each delivered transfer. */
    void trackHealth(const Transfer &t);
    /** Injects one metadata soft error, if the model says so. */
    void maybeCorruptMetadata();
    /** True when a sync message to the home side was lost. */
    bool syncMessageLost();

    /** Removes the insert-signatures of (data→lid) from @p table. */
    void dropSignatures(SignatureHashTable &table,
                        const CacheLine &data, LineID lid);
    void addSignatures(SignatureHashTable &table, const CacheLine &data,
                       LineID lid);

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
    /** Empties stats() and re-resolves the pointers cached into it
     *  (span stage histograms, tail sketches), which a bare clear()
     *  would leave dangling. Checkpoint restore calls this. */
    void resetStats();

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
    unsigned rlid_bits_;
    std::function<void(Addr)> backinval_hook_;
    LinkFaultModel *fault_ = nullptr;
    Health health_ = Health::Healthy;
    unsigned healthy_streak_ = 0;
    std::uint64_t epoch_ = 0;
    TraceSink *trace_ = nullptr;
    std::uint64_t trace_seq_ = 0;
    TraceEvent encode_ev_; ///< reused by every traced transfer
    SpanRecorder spans_;
    // Cached sketch pointers (null = disabled); see
    // setSketchesEnabled().
    QuantileSketch *q_frame_bits_ = nullptr;
    QuantileSketch *q_arq_rounds_ = nullptr;
    QuantileSketch *q_encode_ns_ = nullptr;
};

/** Delegate-engine factory: per-line (non-persistent) variants. */
CompressorPtr makeDelegateEngine(const std::string &name);

} // namespace cable

#endif // CABLE_CORE_CHANNEL_H
