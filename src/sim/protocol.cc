#include "sim/protocol.h"

#include "common/bitops.h"
#include "common/log.h"
#include "compress/factory.h"

namespace cable
{

SchemeLatency
schemeLatency(const std::string &scheme)
{
    // Table IV (comp/decomp core cycles). CABLE's figure includes
    // its worst-case 16-cycle search in the compression number.
    if (scheme == "raw")
        return {0, 0};
    if (scheme == "zero")
        return {1, 1};
    if (scheme == "bdi" || scheme == "fpc")
        return {2, 1};
    if (scheme == "cpack" || scheme == "cpack128"
        || scheme == "lbe256")
        return {8, 8};
    if (scheme == "gzip" || scheme == "lzss")
        return {64, 32};
    if (scheme == "cable")
        return {32, 16};
    fatal("schemeLatency: unknown scheme '%s'", scheme.c_str());
}

// ---------------------------------------------------------------------
// CableLinkProtocol
// ---------------------------------------------------------------------

CableLinkProtocol::CableLinkProtocol(Cache &home, Cache &remote,
                                     const CableConfig &cfg)
    : LinkProtocol(home, remote), channel_(home, remote, cfg)
{
}

std::optional<Transfer>
CableLinkProtocol::evictRemoteSlot(LineID rlid)
{
    return channel_.remoteEvictSlot(rlid);
}

Transfer
CableLinkProtocol::respond(Addr addr, std::uint8_t vway)
{
    return channel_.respondAndInstall(addr, vway, false);
}

void
CableLinkProtocol::dirtyUpdate(Addr addr, const CacheLine &data)
{
    // A store became visible at the remote cache: S→M upgrade, then
    // the new data lands in the (now untracked) remote line.
    channel_.remoteUpgrade(addr);
    remote_.writeLine(addr, data, true);
}

HomeInstallResult
CableLinkProtocol::homeFill(Addr addr, const CacheLine &data)
{
    return channel_.homeInstall(addr, data, false);
}

void
CableLinkProtocol::setCompressionEnabled(bool on)
{
    // Metadata maintenance continues either way; only the wire
    // encoding changes, so re-enabling is instantaneous.
    channel_.setCompressionEnabled(on);
}

ResyncResult
CableLinkProtocol::restartAndResync()
{
    return ResyncSession(channel_).run();
}

// ---------------------------------------------------------------------
// StreamLinkProtocol
// ---------------------------------------------------------------------

StreamLinkProtocol::StreamLinkProtocol(Cache &home, Cache &remote,
                                       const std::string &scheme)
    : LinkProtocol(home, remote), scheme_(scheme)
{
    if (scheme_ != "raw") {
        resp_engine_ = makeCompressor(scheme_);
        wb_engine_ = makeCompressor(scheme_);
    }
}

Transfer
StreamLinkProtocol::encode(const CacheLine &data, Compressor *engine,
                           bool writeback)
{
    Transfer t;
    t.writeback = writeback;
    t.raw_bits = kLineBytes * 8;

    // Baselines record a two-span chain (Line setup → Serialize)
    // so critpath reports compare across schemes; the same 1-in-N
    // arming discipline as CableChannel keeps the unsampled path to
    // a single branch.
    if (trace_)
        (void)spans_.arm(stats_.get("transfers"));
    int sp_line = spans_.open(Stage::Line, -1);
    spans_.close(sp_line);

    if (!engine || !enabled_) {
        int sp_raw = spans_.open(Stage::Serialize, sp_line);
        t.raw = true;
        t.wire = CableChannel::bitsOf(data);
        t.bits = t.wire.sizeBits();
        spans_.close(sp_raw);
    } else {
        int sp_ser = spans_.open(Stage::Serialize, sp_line);
        BitVec enc = engine->compress(data, {});
        BitWriter bw;
        if (enc.sizeBits() + 1 < kLineBytes * 8 + 1) {
            // cable-wire: frame.stream flag kWireFlagBits
            bw.put(1, kWireFlagBits);
            bw.appendBits(enc);
        } else {
            // cable-wire: frame.stream flag kWireFlagBits
            bw.put(0, kWireFlagBits);
            bw.appendBits(CableChannel::bitsOf(data));
            t.raw = true;
        }
        t.wire = bw.take();
        t.bits = t.wire.sizeBits();
        spans_.close(sp_ser);
    }

    stats_.add("transfers", 1);
    stats_.add("raw_bits", t.raw_bits);
    stats_.add("wire_bits", t.bits);
    stats_.add("raw_flits16", ceilDiv(t.raw_bits, 16));
    stats_.add("wire_flits16", ceilDiv(t.bits, 16));
    if (writeback) {
        stats_.add("wb_transfers", 1);
        stats_.add("wb_raw_bits", t.raw_bits);
        stats_.add("wb_wire_bits", t.bits);
    } else {
        stats_.add("resp_raw_bits", t.raw_bits);
        stats_.add("resp_wire_bits", t.bits);
    }
    stats_.hist("line_wire_bits", Histogram::Scale::Linear, 32, 20)
        .record(t.bits);
    if (trace_) {
        TraceEvent ev;
        ev.type = TraceEvent::Type::Encode;
        ev.when = stats_.get("transfers") - 1;
        ev.writeback = writeback;
        ev.engine = scheme_.c_str();
        ev.mode = t.raw ? "raw" : "self";
        ev.in_bits = t.raw_bits;
        ev.out_bits = t.bits;
        spans_.drainTo(ev, stats_);
        trace_->emit(ev);
    } else {
        spans_.disarm();
    }
    return t;
}

std::optional<Transfer>
StreamLinkProtocol::evictRemoteSlot(LineID rlid)
{
    const Cache::Entry &e = remote_.entryAt(rlid);
    if (!e.valid())
        return std::nullopt;
    Addr vaddr = e.tag << kLineShift;
    std::optional<Transfer> out;
    if (e.dirty()) {
        Transfer t = encode(e.data, wb_engine_.get(), true);
        if (!home_.probe(vaddr))
            panic("StreamLinkProtocol: inclusivity violated for %llx",
                  static_cast<unsigned long long>(vaddr));
        home_.writeLine(vaddr, e.data, true);
        out = t;
        stats_.add("remote_evict_dirty", 1);
    } else {
        stats_.add("remote_evict_clean", 1);
    }
    remote_.invalidate(vaddr);
    return out;
}

Transfer
StreamLinkProtocol::respond(Addr addr, std::uint8_t vway)
{
    LineID hlid = home_.find(addr);
    if (!hlid.valid)
        panic("StreamLinkProtocol::respond: %llx not at home",
              static_cast<unsigned long long>(addr));
    const CacheLine data = home_.entryAt(hlid).data;
    Transfer t = encode(data, resp_engine_.get(), false);
    remote_.install(addr, data, CoherenceState::Shared, vway);
    stats_.add("responses", 1);
    return t;
}

void
StreamLinkProtocol::dirtyUpdate(Addr addr, const CacheLine &data)
{
    remote_.writeLine(addr, data, true);
    home_.markDirty(addr); // home copy is stale until write-back
}

HomeInstallResult
StreamLinkProtocol::homeFill(Addr addr, const CacheLine &data)
{
    HomeInstallResult result;
    if (home_.probe(addr)) {
        home_.writeLine(addr, data, false);
        return result;
    }
    std::uint8_t vway = home_.victimWay(addr);
    LineID victim_lid(home_.setOf(addr), vway);
    const Cache::Entry &victim = home_.entryAt(victim_lid);
    if (victim.valid()) {
        Addr vaddr = victim.tag << kLineShift;
        if (backinval_hook_ && remote_.probe(vaddr))
            backinval_hook_(vaddr);

        Eviction mem_wb;
        mem_wb.valid = true;
        mem_wb.addr = vaddr;
        mem_wb.data = victim.data;
        mem_wb.dirty = victim.dirty();
        mem_wb.lid = victim_lid;

        LineID rlid = remote_.find(vaddr);
        if (rlid.valid) {
            const Cache::Entry &re = remote_.entryAt(rlid);
            if (re.dirty()) {
                Transfer t = encode(re.data, wb_engine_.get(), true);
                mem_wb.data = re.data;
                mem_wb.dirty = true;
                result.backinval_writeback = t;
            }
            remote_.invalidate(vaddr);
            stats_.add("back_invalidations", 1);
        }
        if (mem_wb.dirty)
            result.memory_writeback = mem_wb;
        stats_.add("home_evictions", 1);
    }
    home_.install(addr, data, CoherenceState::Shared, vway);
    return result;
}

void
StreamLinkProtocol::setCompressionEnabled(bool on)
{
    enabled_ = on;
}

void
StreamLinkProtocol::crashEndpoint()
{
    // Fresh engine instances: any persistent dictionary or streaming
    // window restarts cold. "raw" keeps its null engines.
    if (scheme_ != "raw") {
        resp_engine_ = makeCompressor(scheme_);
        wb_engine_ = makeCompressor(scheme_);
    }
    stats_.add("endpoint_crashes", 1);
}

LinkProtocolPtr
makeLinkProtocol(const std::string &scheme, Cache &home, Cache &remote,
                 const CableConfig &cfg)
{
    if (scheme == "cable")
        return std::make_unique<CableLinkProtocol>(home, remote, cfg);
    return std::make_unique<StreamLinkProtocol>(home, remote, scheme);
}

} // namespace cable
