#include "sim/protocol.h"

#include "common/log.h"
#include "compress/factory.h"

namespace cable
{

namespace
{

/** Table IV (comp/decomp core cycles), one row per link scheme.
 *  CABLE's figure includes its worst-case 16-cycle search in the
 *  compression number. */
const struct
{
    const char *name;
    SchemeLatency lat;
} kSchemes[] = {
    {"raw", {0, 0}},      {"zero", {1, 1}},     {"bdi", {2, 1}},
    {"fpc", {2, 1}},      {"cpack", {8, 8}},    {"cpack128", {8, 8}},
    {"lbe256", {8, 8}},   {"gzip", {64, 32}},   {"lzss", {64, 32}},
    {"cable", {32, 16}},
};

} // namespace

SchemeLatency
schemeLatency(const std::string &scheme)
{
    for (const auto &s : kSchemes)
        if (scheme == s.name)
            return s.lat;
    fatal("schemeLatency: unknown scheme '%s'", scheme.c_str());
}

std::vector<std::string>
schemeNames()
{
    std::vector<std::string> names;
    for (const auto &s : kSchemes)
        names.push_back(s.name);
    return names;
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

// ---------------------------------------------------------------------
// StreamLinkProtocol
// ---------------------------------------------------------------------

StreamLinkProtocol::StreamLinkProtocol(Cache &home, Cache &remote,
                                       const std::string &scheme)
    : LinkProtocol(home, remote), scheme_(scheme)
{
    spans_.bind(stats_);
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
        (void)spans_.arm(stats_.value(ctr_.transfers));
    int sp_line = spans_.open(Stage::Line, -1);
    int sp_ser = spans_.handoff(sp_line, Stage::Serialize);

    BitWriter bw;
    if (!engine || !enabled_) {
        t.raw = true;
        putLine(bw, data);
    } else {
        BitVec enc = engine->compress(data, {});
        if (kWireFlagBits + enc.sizeBits() < kWireRawFrameBits) {
            putFrameFlag(bw, true);
            bw.appendBits(enc);
        } else {
            putRawFrame(bw, data);
            t.raw = true;
        }
    }
    t.wire = bw.take();
    t.bits = t.wire.sizeBits();
    spans_.close(sp_ser);

    ctr_.account(stats_, t, /*framed=*/false);
    if (trace_) {
        TraceEvent ev;
        ev.type = TraceEvent::Type::Encode;
        ev.when = stats_.value(ctr_.transfers) - 1;
        ev.writeback = writeback;
        ev.engine = scheme_.c_str();
        ev.mode = t.raw ? "raw" : "self";
        ev.in_bits = t.raw_bits;
        ev.out_bits = t.bits;
        spans_.drainTo(ev);
        trace_->emit(ev);
    } else {
        spans_.disarm();
    }
    return t;
}

std::optional<Transfer>
StreamLinkProtocol::evictRemoteSlot(LineID rlid)
{
    if (!remote_.validAt(rlid))
        return std::nullopt;
    Addr vaddr = remote_.addrAt(rlid);
    std::optional<Transfer> out;
    if (remote_.dirtyAt(rlid)) {
        const CacheLine &data = remote_.lineAt(rlid);
        Transfer t = encode(data, wb_engine_.get(), true);
        if (!home_.probe(vaddr))
            panic("StreamLinkProtocol: inclusivity violated for %llx",
                  static_cast<unsigned long long>(vaddr));
        home_.writeLine(vaddr, data, true);
        out = t;
        stats_.add(ctr_.remote_evict_dirty, 1);
    } else {
        stats_.add(ctr_.remote_evict_clean, 1);
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
    const CacheLine data = home_.lineAt(hlid);
    Transfer t = encode(data, resp_engine_.get(), false);
    remote_.install(addr, data, CoherenceState::Shared, vway);
    stats_.add(ctr_.responses, 1);
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
    if (home_.validAt(victim_lid)) {
        Addr vaddr = home_.addrAt(victim_lid);
        if (backinval_hook_ && remote_.probe(vaddr))
            backinval_hook_(vaddr);

        Eviction mem_wb;
        mem_wb.valid = true;
        mem_wb.addr = vaddr;
        mem_wb.data = home_.lineAt(victim_lid);
        mem_wb.dirty = home_.dirtyAt(victim_lid);
        mem_wb.lid = victim_lid;

        LineID rlid = remote_.find(vaddr);
        if (rlid.valid) {
            if (remote_.dirtyAt(rlid)) {
                const CacheLine &rdata = remote_.lineAt(rlid);
                Transfer t = encode(rdata, wb_engine_.get(), true);
                mem_wb.data = rdata;
                mem_wb.dirty = true;
                result.backinval_writeback = t;
            }
            remote_.invalidate(vaddr);
            stats_.add(ctr_.back_invalidations, 1);
        }
        if (mem_wb.dirty)
            result.memory_writeback = mem_wb;
        stats_.add(ctr_.home_evictions, 1);
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
