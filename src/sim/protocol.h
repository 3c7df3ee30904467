/**
 * @file
 * LinkProtocol: the abstraction the simulators drive one compressed
 * home↔remote link through. Two implementations:
 *
 *  - CableLinkProtocol wraps core::CableChannel (the paper's
 *    contribution: reference search, WMT, hash tables, DIFFs);
 *  - StreamLinkProtocol models every baseline scheme: per-line
 *    engines (CPACK, BDI), persistent-FIFO dictionary engines
 *    (CPACK128, LBE256), streaming-window gzip, or no compression
 *    at all ("raw").
 *
 * Both enforce the same inclusive hierarchy and move the same data;
 * only the wire encoding differs, so scheme comparisons are
 * apples-to-apples.
 *
 * Per-scheme compression/decompression latencies follow Table IV.
 */

#ifndef CABLE_SIM_PROTOCOL_H
#define CABLE_SIM_PROTOCOL_H

#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cache/cache.h"
#include "common/stats.h"
#include "compress/compressor.h"
#include "core/channel.h"

namespace cable
{

/** Table IV compression latencies (core cycles). */
struct SchemeLatency
{
    unsigned comp = 0;
    unsigned decomp = 0;
};

/** Latency entry for a scheme name; fatal() if unknown. */
SchemeLatency schemeLatency(const std::string &scheme);

/** Every link scheme name, in Table IV order: "cable" plus the
 *  baseline engines a StreamLinkProtocol runs. */
std::vector<std::string> schemeNames();

class LinkProtocol
{
  public:
    LinkProtocol(Cache &home, Cache &remote)
        : home_(home), remote_(remote)
    {
    }
    virtual ~LinkProtocol() = default;

    /** Vacates remote slot @p rlid; write-back transfer if dirty. */
    virtual std::optional<Transfer> evictRemoteSlot(LineID rlid) = 0;

    /** Sends the home copy of @p addr into vacated way @p vway. */
    virtual Transfer respond(Addr addr, std::uint8_t vway) = 0;

    /** Dirty data lands in the remote cache (on-chip write). */
    virtual void dirtyUpdate(Addr addr, const CacheLine &data) = 0;

    /** DRAM fill into the home cache; enforces inclusivity. */
    virtual HomeInstallResult homeFill(Addr addr,
                                       const CacheLine &data) = 0;

    /** Runtime on/off switch (the §VI-D control scheme). */
    virtual void setCompressionEnabled(bool on) = 0;

    /**
     * Attaches a structured trace sink (nullptr detaches). Every
     * implementation emits one Encode event per transfer so per-line
     * input/output bits reconcile with the aggregate counters for
     * any scheme; CABLE additionally emits its decision record and
     * desync/ARQ events.
     */
    virtual void
    setTraceSink(TraceSink *sink)
    {
        trace_ = sink;
    }

    /**
     * Critical-path span sampling: 1-in-@p period transfers record
     * causal stage spans onto their Encode event (DESIGN.md §13);
     * 0 disables. Spans are captured only when a trace sink is also
     * attached.
     */
    virtual void
    setSpanSampling(std::uint64_t period)
    {
        spans_.configure(period);
    }

    /**
     * The recorder behind this protocol's spans (overhead
     * self-report); never null — CABLE redirects to its channel's
     * recorder, the stream baselines own one directly.
     */
    virtual const SpanRecorder &spanRecorder() const { return spans_; }

    /**
     * Hook invoked with a line address just before homeFill()
     * back-invalidates that line's remote copy; the system flushes
     * dirtier private-cache copies into the remote cache here.
     */
    virtual void
    setBackinvalHook(std::function<void(Addr)> hook)
    {
        backinval_hook_ = std::move(hook);
    }

    virtual StatSet &stats() = 0;

    virtual std::string schemeName() const = 0;

    /**
     * The underlying CableChannel, when this protocol has one
     * (fault injection and desync recovery are CABLE machinery);
     * nullptr for the stream baselines.
     */
    virtual CableChannel *cableChannel() { return nullptr; }

    // ---- crash recovery (DESIGN.md §12) -----------------------------

    /**
     * Simulated endpoint crash: volatile link-encoder state (CABLE
     * dictionaries, persistent baseline dictionaries) is lost; cache
     * contents survive. The default is a no-op — a stateless link has
     * nothing to lose.
     */
    virtual void
    crashEndpoint()
    {
    }

    /**
     * Post-restart reconciliation. CABLE runs the full resync
     * handshake; stateless baselines complete trivially (their
     * dictionaries rebuild inline, so restart needs no protocol).
     */
    virtual ResyncResult
    restartAndResync()
    {
        ResyncResult r;
        r.completed = true;
        return r;
    }

    SchemeLatency latency() const { return schemeLatency(schemeName()); }

    Cache &home() { return home_; }
    Cache &remote() { return remote_; }

    /** uncompressed / wire payload bits (bit-level, pre-flit). */
    double
    bitRatio()
    {
        return stats().ratio("raw_bits", "wire_bits");
    }

  protected:
    Cache &home_;
    Cache &remote_;
    std::function<void(Addr)> backinval_hook_;
    TraceSink *trace_ = nullptr;
    SpanRecorder spans_;
};

using LinkProtocolPtr = std::unique_ptr<LinkProtocol>;

/** CABLE protocol wrapping a CableChannel. */
class CableLinkProtocol : public LinkProtocol
{
  public:
    CableLinkProtocol(Cache &home, Cache &remote,
                      const CableConfig &cfg);

    std::optional<Transfer> evictRemoteSlot(LineID rlid) override;
    Transfer respond(Addr addr, std::uint8_t vway) override;
    void dirtyUpdate(Addr addr, const CacheLine &data) override;
    HomeInstallResult homeFill(Addr addr,
                               const CacheLine &data) override;
    void setCompressionEnabled(bool on) override;
    void
    setBackinvalHook(std::function<void(Addr)> hook) override
    {
        channel_.setBackinvalHook(std::move(hook));
    }
    void
    setTraceSink(TraceSink *sink) override
    {
        channel_.setTraceSink(sink);
    }
    void
    setSpanSampling(std::uint64_t period) override
    {
        channel_.setSpanSampling(period);
    }
    const SpanRecorder &
    spanRecorder() const override
    {
        return channel_.spanRecorder();
    }
    StatSet &stats() override { return channel_.stats(); }
    std::string schemeName() const override { return "cable"; }
    CableChannel *cableChannel() override { return &channel_; }

    void crashEndpoint() override { channel_.crashMetadata(); }
    ResyncResult restartAndResync() override { return channel_.resync(); }

    CableChannel &channel() { return channel_; }

  private:
    CableChannel channel_;
};

/** Baseline protocols: one engine instance per direction. */
class StreamLinkProtocol : public LinkProtocol
{
  public:
    /** @param scheme any schemeNames() entry but "cable". */
    StreamLinkProtocol(Cache &home, Cache &remote,
                       const std::string &scheme);

    std::optional<Transfer> evictRemoteSlot(LineID rlid) override;
    Transfer respond(Addr addr, std::uint8_t vway) override;
    void dirtyUpdate(Addr addr, const CacheLine &data) override;
    HomeInstallResult homeFill(Addr addr,
                               const CacheLine &data) override;
    void setCompressionEnabled(bool on) override;
    StatSet &stats() override { return stats_; }
    std::string schemeName() const override { return scheme_; }

    /**
     * Crash model for the baselines: per-line engines hold no state,
     * but persistent-dictionary engines (cpack128, lbe256, gzip
     * windows) lose their dictionaries — both directions restart
     * cold, exactly like a power-cycled link PHY.
     */
    void crashEndpoint() override;

  private:
    Transfer encode(const CacheLine &data, Compressor *engine,
                    bool writeback);

    std::string scheme_;
    CompressorPtr resp_engine_; // null for "raw"
    CompressorPtr wb_engine_;
    bool enabled_ = true;
    StatSet stats_;
    TransferStats ctr_{stats_};
};

/** Factory: "cable" → CableLinkProtocol, else StreamLinkProtocol. */
LinkProtocolPtr makeLinkProtocol(const std::string &scheme, Cache &home,
                                 Cache &remote, const CableConfig &cfg);

} // namespace cable

#endif // CABLE_SIM_PROTOCOL_H
