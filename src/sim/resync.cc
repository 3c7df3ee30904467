#include "sim/resync.h"

#include <utility>
#include <vector>

#include "core/channel.h"
#include "core/fault_model.h"
#include "core/wire_format.h"

namespace cable
{

ResyncSession::ResyncSession(CableChannel &ch, ResyncConfig cfg)
    : ch_(ch), cfg_(cfg)
{
}

ResyncResult
ResyncSession::run()
{
    ResyncResult res;
    StatSet &stats = ch_.stats();
    stats.add("resync_sessions", 1);

    // A resync session is rare and heavyweight: when span sampling
    // is on it is always timed (no 1-in-N) and its cost rides the
    // Resync trace event, stamped with the channel recorder's clock
    // so it lands in the same overhead self-report.
    SpanRecorder &spans = ch_.spanRecorder();
    bool timed = spans.enabled() && ch_.traceSink() != nullptr;
    std::uint64_t span_begin = timed ? spans.nowNs() : 0;

    // Hello: both sides announce their channel epoch. A survivor
    // seeing a lower epoch than its own knows the peer restarted.
    // Spec: ResyncStart moves the machine into the transient
    // ResyncHealthy/ResyncDegraded state for the session.
    ch_.beginResync();
    // cable-wire-write: resync.hello epoch kWireResyncEpochBits*2
    res.handshake_bits += 2ull * kWireResyncEpochBits;

    std::uint32_t nsets = ch_.remote().numSets();
    std::uint32_t step =
        cfg_.range_sets ? cfg_.range_sets : nsets;
    res.ranges_total = (nsets + step - 1) / step;
    // cable-wire-write: resync.rearm rlid remoteLidBits*relinked
    // cable-wire-write: resync.rearm line_digest kWireResyncLineDigestBits*relinked
    const std::uint64_t rearm_per_line =
        ch_.remoteLidBits() + kWireResyncLineDigestBits;

    std::vector<std::pair<std::uint32_t, std::uint32_t>> dirty;
    for (unsigned round = 0; round < cfg_.max_rounds; ++round) {
        ++res.rounds;

        // Digest round: each side sends one digest per range; a
        // matching pair certifies the range without further traffic.
        dirty.clear();
        for (std::uint32_t lo = 0; lo < nsets; lo += step) {
            std::uint32_t hi =
                lo + step < nsets ? lo + step : nsets;
            // cable-wire-write: resync.digest digest kWireResyncDigestBits*2
            res.handshake_bits += 2ull * kWireResyncDigestBits;
            if (ch_.metadataDigest(lo, hi)
                != ch_.referenceDigest(lo, hi))
                dirty.emplace_back(lo, hi);
        }
        if (dirty.empty()) {
            res.completed = true;
            break;
        }

        // Repair: drop stale tracking for each mismatched range and
        // incrementally re-arm it from cache ground truth.
        ch_.resyncRoundRepaired();
        for (const auto &[lo, hi] : dirty) {
            (void)ch_.dropMetadataRange(lo, hi);
            unsigned relinked = ch_.resynchronizeRange(lo, hi);
            res.lines_relinked += relinked;
            res.rearm_bits += relinked * rearm_per_line;
            ++res.ranges_repaired;
        }

        // Mid-resync fault: the injector may re-tear a range repaired
        // this very round. Only injected while a full repair + verify
        // round still remains, so a fault schedule can delay but
        // never prevent convergence.
        LinkFaultModel *fm = ch_.faultModel();
        if (round + 2 < cfg_.max_rounds && fm
            && fm->corruptMetadata()) {
            const auto &victim = dirty[static_cast<std::size_t>(
                fm->pick(dirty.size()))];
            (void)ch_.dropMetadataRange(victim.first, victim.second);
            ch_.resyncFaultTorn();
            ++res.faults_hit;
        }
    }

    if (res.completed)
        ch_.completeResync();
    else
        ch_.abandonResync();
    res.epoch = ch_.epoch();

    // Honest accounting: every handshake and re-arm bit lands in the
    // recovery counters, never in the payload counters.
    stats.add("resync_handshake_bits", res.handshake_bits);
    stats.add("resync_rearm_bits", res.rearm_bits);
    stats.add("recovery_bits", res.handshake_bits + res.rearm_bits);
    stats.add("resync_lines", res.lines_relinked);
    stats.add("resync_ranges_repaired", res.ranges_repaired);
    stats.add("resync_faults", res.faults_hit);

    if (TraceSink *ts = ch_.traceSink()) {
        TraceEvent ev;
        ev.type = TraceEvent::Type::Resync;
        ev.when = res.epoch;
        ev.aux = res.lines_relinked;
        if (timed)
            spans.recordControl(
                ev, Stage::Resync, span_begin,
                static_cast<std::uint16_t>(
                    res.rounds < 0xffff ? res.rounds : 0xffff));
        ts->emit(ev);
    }
    return res;
}

} // namespace cable
