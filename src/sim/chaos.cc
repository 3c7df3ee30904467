#include "sim/chaos.h"

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/channel.h"
#include "core/checkpoint.h"
#include "workload/profile.h"
#include "workload/value_model.h"

namespace cable
{

namespace
{

/** The four image-damage modes the schedule rotates through, each
 *  expected to surface as a distinct CableCheckpointError kind. */
enum class Damage
{
    BodyFlip,    // flip a bit past the header → CrcMismatch
    Truncate,    // drop the tail → Truncated
    MagicFlip,   // flip a magic bit → BadMagic
    VersionFlip, // flip a version bit → VersionSkew
};

constexpr unsigned kDamageKinds = 4;

CableCheckpointError::Kind
expectedKind(Damage d)
{
    switch (d) {
    case Damage::BodyFlip:
        return CableCheckpointError::Kind::CrcMismatch;
    case Damage::Truncate:
        return CableCheckpointError::Kind::Truncated;
    case Damage::MagicFlip:
        return CableCheckpointError::Kind::BadMagic;
    case Damage::VersionFlip:
        return CableCheckpointError::Kind::VersionSkew;
    }
    return CableCheckpointError::Kind::BadSection; // unreachable
}

BitVec
truncated(const BitVec &image, std::size_t keep_bits)
{
    BitVec out;
    for (std::size_t i = 0; i < keep_bits && i < image.sizeBits(); ++i)
        out.pushBit(image.bit(i));
    return out;
}

/** Damages a copy of @p image; all draws come from @p rng so the
 *  whole chaos schedule replays from one seed. */
BitVec
corruptImage(const BitVec &image, Damage d, Rng &rng)
{
    BitVec bad = image;
    switch (d) {
    case Damage::BodyFlip: {
        std::size_t span = bad.sizeBits() - kCkptHeaderBits;
        bad.flipBit(kCkptHeaderBits + rng.below(span));
        break;
    }
    case Damage::Truncate:
        // Cut inside the body: shorter than the declared size but
        // (possibly) still longer than the header.
        bad = truncated(bad, kCkptHeaderBits
                                 + rng.below(bad.sizeBits()
                                             - kCkptHeaderBits));
        break;
    case Damage::MagicFlip:
        bad.flipBit(rng.below(kCkptMagicBits));
        break;
    case Damage::VersionFlip:
        bad.flipBit(kCkptMagicBits + rng.below(kCkptVersionBits));
        break;
    }
    return bad;
}

/** Watchdog scenario fault model: every packet arrives damaged, so
 *  ARQ can never succeed and the watchdog must end the stall. */
struct AlwaysCorrupt : LinkFaultModel
{
    unsigned
    corruptPacket(BitVec &wire) override
    {
        if (wire.sizeBits() == 0)
            return 0;
        wire.flipBit(0);
        return 1;
    }

    bool dropSyncMessage() override { return false; }
    bool corruptMetadata() override { return false; }
    std::uint64_t pick(std::uint64_t) override { return 0; }
};

/** Bit-exact comparison of two same-geometry caches; returns "" when
 *  identical, else a description of the first divergent slot. */
std::string
diffCaches(const char *label, Cache &a, Cache &b)
{
    if (a.numSets() != b.numSets() || a.numWays() != b.numWays())
        return std::string(label) + ": geometry mismatch";
    for (std::uint32_t set = 0; set < a.numSets(); ++set) {
        for (std::uint8_t way = 0; way < a.numWays(); ++way) {
            LineID lid(set, way);
            bool valid = a.validAt(lid);
            if (valid != b.validAt(lid))
                return std::string(label) + " set "
                       + std::to_string(set) + " way "
                       + std::to_string(way) + ": validity differs";
            if (!valid)
                continue;
            if (a.addrAt(lid) != b.addrAt(lid)
                || a.stateAt(lid) != b.stateAt(lid)
                || !(a.lineAt(lid) == b.lineAt(lid)))
                return std::string(label) + " set "
                       + std::to_string(set) + " way "
                       + std::to_string(way)
                       + ": tag/state/data differ";
        }
    }
    return "";
}

/**
 * The differential oracle: the subject survived faults, crashes and
 * resyncs only if it moved exactly the lines the fault-free twin
 * moved (wire encodings may differ — degraded mode changes the
 * *encoding*, never the data) and both hierarchies hold bit-exact
 * contents.
 */
std::string
oracleCheck(MemLinkSystem &subject, MemLinkSystem &twin)
{
    StatSet &ss = subject.protocol().stats();
    StatSet &ts = twin.protocol().stats();
    if (ss.get("transfers") != ts.get("transfers"))
        return "transfer counts diverged: subject "
               + std::to_string(ss.get("transfers")) + " twin "
               + std::to_string(ts.get("transfers"));
    if (ss.get("raw_bits") != ts.get("raw_bits"))
        return "raw payload bits diverged: subject "
               + std::to_string(ss.get("raw_bits")) + " twin "
               + std::to_string(ts.get("raw_bits"));
    std::string d = diffCaches("LLC", subject.llc(), twin.llc());
    if (!d.empty())
        return d;
    return diffCaches("L4", subject.l4(), twin.l4());
}

/**
 * ARQ-watchdog scenario (standalone channel, not the lockstep pair:
 * an aborted transfer legitimately diverges subject and twin). A
 * permanently hostile link stalls a fetch until CableTimeoutError
 * fires; crash + resync then heals the channel and the retried
 * fetch must deliver correct data.
 */
std::string
watchdogScenario(const ChaosConfig &cfg, ChaosReport &report)
{
    CableConfig ccfg = cfg.mem.cable;
    ccfg.arq_watchdog_cycles = 100;
    Cache home({"home", 1u << 20, 8});
    Cache remote({"remote", 256u << 10, 8});
    CableChannel ch(home, remote, ccfg);

    const WorkloadProfile &prof = benchmarkProfile(cfg.benchmark);
    SyntheticMemory mem(prof.value, 0, cfg.seed);
    const Addr addr = 0x1040;
    (void)ch.homeInstall(addr, mem.lineAt(addr), false);

    AlwaysCorrupt hostile;
    ch.setFaultModel(&hostile);
    bool fired = false;
    try {
        (void)ch.remoteFetch(addr, false);
    } catch (const CableTimeoutError &) {
        fired = true;
        ++report.watchdog_timeouts;
    }
    if (!fired)
        return "watchdog: ARQ stall never raised CableTimeoutError";
    if (ch.stats().get("arq_timeouts") == 0)
        return "watchdog: arq_timeouts counter not incremented";

    // The link heals; the endpoint restarts cold and resyncs.
    ch.setFaultModel(nullptr);
    ch.crashMetadata();
    ResyncResult r = ch.resync();
    if (!r.completed)
        return "watchdog: post-timeout resync did not complete";
    if (ch.health() != CableChannel::Health::Healthy)
        return "watchdog: channel not Healthy after resync";
    ++report.resyncs_completed;

    FetchResult fr = ch.remoteFetch(addr, false);
    (void)fr;
    LineID rlid = remote.find(addr);
    if (!rlid.valid)
        return "watchdog: retried fetch did not install the line";
    if (!(remote.lineAt(rlid) == mem.lineAt(addr)))
        return "watchdog: retried fetch delivered wrong data";
    return "";
}

} // namespace

ChaosReport
runChaos(const ChaosConfig &cfg)
{
    ChaosReport report;
    auto fail = [&report](std::string why) {
        report.ok = false;
        report.failure = std::move(why);
        return report;
    };

    // Lockstep pair. Single thread: the oracle requires an identical
    // access interleave, and retry timing would otherwise perturb the
    // earliest-thread schedule. The subject keeps its fault knobs but
    // runs with the watchdog off (a timeout aborts a transfer, which
    // would legitimately diverge the pair — exercised separately).
    MemSystemConfig subj_cfg = cfg.mem;
    subj_cfg.scheme = "cable";
    subj_cfg.cable.arq_watchdog_cycles = 0;
    MemSystemConfig twin_cfg = subj_cfg;
    twin_cfg.fault = FaultConfig{};
    twin_cfg.fault.bit_error_rate = 0.0;

    std::vector<WorkloadProfile> progs{benchmarkProfile(cfg.benchmark)};
    MemLinkSystem subject(subj_cfg, progs);
    MemLinkSystem twin(twin_cfg, progs);

    // Seed-derived crash schedule: distinct steps, first 10% of the
    // run excluded so the dictionaries have state worth losing.
    Rng rng(splitMix64(cfg.seed) ^ 0xc4a05ull);
    const std::uint64_t lo = cfg.ops / 10 + 1;
    std::set<std::uint64_t> steps;
    while (cfg.ops > lo + 1
           && steps.size() < cfg.crashes
           && steps.size() < cfg.ops - lo - 1)
        steps.insert(lo + rng.below(cfg.ops - lo - 1));
    report.crash_steps.assign(steps.begin(), steps.end());

    CableChannel *ch = subject.protocol().cableChannel();
    if (!ch)
        return fail("chaos: subject has no CableChannel");

    unsigned damage_rotation = 0;
    for (std::uint64_t step = 0;
         step < cfg.ops && !subject.allThreadsReached(cfg.ops);
         ++step) {
        subject.stepOnce();
        twin.stepOnce();
        if (!steps.count(step))
            continue;

        // --- scheduled endpoint crash --------------------------------
        BitVec image = ChannelCheckpoint::capture(*ch);
        ++report.checkpoints_saved;
        if (!cfg.ckpt_dir.empty()) {
            std::string path = cfg.ckpt_dir + "/chaos-"
                               + std::to_string(report.crashes)
                               + ".ckpt";
            ChannelCheckpoint::writeImage(image, path);
            image = ChannelCheckpoint::readImage(path);
        }

        subject.protocol().crashEndpoint();
        ++report.crashes;

        if (rng.chance(cfg.corrupt_prob)) {
            // Damaged image: the load must be rejected with the
            // *right* typed error and the endpoint restarts cold.
            Damage d = static_cast<Damage>(damage_rotation++
                                           % kDamageKinds);
            BitVec bad = corruptImage(image, d, rng);
            ++report.corrupt_images;
            try {
                ChannelCheckpoint::restore(*ch, bad);
                return fail("corrupt checkpoint (damage "
                            + std::to_string(static_cast<int>(d))
                            + ") was accepted at step "
                            + std::to_string(step));
            } catch (const CableCheckpointError &e) {
                if (e.kind() != expectedKind(d))
                    return fail(
                        std::string("corrupt checkpoint rejected "
                                    "with wrong kind: got ")
                        + e.kindName() + " at step "
                        + std::to_string(step));
                ++report.corrupt_rejected;
            }
        } else {
            ChannelCheckpoint::restore(*ch, image);
            ++report.restores_ok;
        }

        ResyncResult r = subject.protocol().restartAndResync();
        if (!r.completed)
            return fail("resync did not complete at step "
                        + std::to_string(step));
        if (ch->health() != CableChannel::Health::Healthy)
            return fail("channel not Healthy after resync at step "
                        + std::to_string(step));
        ++report.resyncs_completed;

        std::string why = oracleCheck(subject, twin);
        if (!why.empty())
            return fail("post-recovery oracle: " + why + " (step "
                        + std::to_string(step) + ")");
    }

    // Drain both systems to the full op count, then final oracle.
    while (!subject.allThreadsReached(cfg.ops))
        subject.stepOnce();
    while (!twin.allThreadsReached(cfg.ops))
        twin.stepOnce();
    std::string why = oracleCheck(subject, twin);
    if (!why.empty())
        return fail("end-of-run oracle: " + why);

    if (cfg.watchdog_scenario) {
        std::string wfail = watchdogScenario(cfg, report);
        if (!wfail.empty())
            return fail(wfail);
    }

    report.recovery_bits = ch->stats().get("recovery_bits");
    report.transfers = ch->stats().get("transfers");
    report.subject_stats = ch->stats();
    report.ok = true;
    return report;
}

} // namespace cable
