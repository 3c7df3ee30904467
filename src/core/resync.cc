// The dictionary resync session (DESIGN.md §12); the protocol is
// described at CableChannel::resync() in core/channel.h.

#include "core/channel.h"

#include <algorithm>
#include <utility>
#include <vector>

namespace cable
{

namespace
{

/** Remote sets per digest range (the granularity of repair). */
constexpr std::uint32_t kResyncRangeSets = 64;
/** Digest/repair rounds before the session gives up (faults can
 *  re-tear repaired ranges). */
constexpr unsigned kResyncMaxRounds = 4;

} // namespace

ResyncResult
CableChannel::resync()
{
    ResyncResult res;
    stats_.add("resync_sessions", 1);

    // A resync session is rare and heavyweight: when span sampling
    // is on it is always timed (no 1-in-N) and its cost rides the
    // Resync trace event, stamped with the channel recorder's clock
    // so it lands in the same overhead self-report.
    bool timed = spans_.enabled() && trace_ != nullptr;
    std::uint64_t span_begin = timed ? spans_.nowNs() : 0;

    // Hello: both sides announce their channel epoch. A survivor
    // seeing a lower epoch than its own knows the peer restarted.
    // Spec: ResyncStart moves the machine into the transient
    // ResyncHealthy/ResyncDegraded state for the session, so an
    // incomplete session falls back to the state it started from.
    advance(RecoveryEvent::ResyncStart);
    res.handshake_bits += 2ull * kWireResyncEpochBits;

    const std::uint32_t nsets = remote_.numSets();
    res.ranges_total = (nsets + kResyncRangeSets - 1) / kResyncRangeSets;
    const std::uint64_t rearm_per_line =
        rlid_fmt_.bits() + kWireResyncLineDigestBits;

    std::vector<std::pair<std::uint32_t, std::uint32_t>> dirty;
    for (unsigned round = 0; round < kResyncMaxRounds; ++round) {
        ++res.rounds;

        // Digest round: each side sends one digest per range; a
        // matching pair certifies the range without further traffic.
        dirty.clear();
        for (std::uint32_t lo = 0; lo < nsets; lo += kResyncRangeSets) {
            std::uint32_t hi = std::min(lo + kResyncRangeSets, nsets);
            res.handshake_bits += 2ull * kWireResyncDigestBits;
            if (metadataDigest(lo, hi) != referenceDigest(lo, hi))
                dirty.emplace_back(lo, hi);
        }
        if (dirty.empty()) {
            res.completed = true;
            break;
        }

        // Repair: drop stale tracking for each mismatched range and
        // incrementally re-arm it from cache ground truth. The
        // DigestMismatch self-loop keeps the step on the spec table.
        advance(RecoveryEvent::DigestMismatch);
        for (const auto &[lo, hi] : dirty) {
            (void)dropMetadataRange(lo, hi);
            unsigned relinked = resynchronizeRange(lo, hi);
            res.lines_relinked += relinked;
            res.rearm_bits += relinked * rearm_per_line;
            ++res.ranges_repaired;
        }

        // Mid-resync fault: the injector may re-tear a range repaired
        // this very round. Only injected while a full repair + verify
        // round still remains, so a fault schedule can delay but
        // never prevent convergence.
        if (round + 2 < kResyncMaxRounds && fault_
            && fault_->corruptMetadata()) {
            const auto &victim = dirty[static_cast<std::size_t>(
                fault_->pick(dirty.size()))];
            (void)dropMetadataRange(victim.first, victim.second);
            advance(RecoveryEvent::MetadataFault);
            ++res.faults_hit;
        }
    }

    if (res.completed) {
        // A verified session re-armed every mismatched range, so it
        // skips the rearm_window probation an in-band desync recovery
        // serves: Healthy at once (the bounded re-warm guarantee).
        advance(RecoveryEvent::DigestClean);
        healthy_streak_ = 0;
        stats_.add("resync_completions", 1);
    } else {
        advance(RecoveryEvent::RoundsExhausted);
    }
    res.epoch = epoch_;

    // Every handshake and re-arm bit lands in the recovery counters,
    // never in the payload counters.
    stats_.add("resync_handshake_bits", res.handshake_bits);
    stats_.add("resync_rearm_bits", res.rearm_bits);
    stats_.add("recovery_bits", res.handshake_bits + res.rearm_bits);
    stats_.add("resync_lines", res.lines_relinked);
    stats_.add("resync_ranges_repaired", res.ranges_repaired);
    stats_.add("resync_faults", res.faults_hit);

    if (trace_) {
        TraceEvent ev;
        ev.type = TraceEvent::Type::Resync;
        ev.when = res.epoch;
        ev.aux = res.lines_relinked;
        if (timed)
            spans_.recordControl(
                ev, Stage::Resync, span_begin,
                static_cast<std::uint16_t>(
                    res.rounds < 0xffff ? res.rounds : 0xffff));
        trace_->emit(ev);
    }
    return res;
}

} // namespace cable
