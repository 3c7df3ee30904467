/**
 * @file
 * SpanRecorder: the simulator's one host-time stage probe
 * (DESIGN.md §13). The encode hot path opens and closes causal
 * stage spans (line → signature → probe → score → serialize →
 * frame → link → ack, plus retransmit on fault paths); the recorder
 * stamps them with a monotonic nanosecond clock and fixed-capacity
 * storage, then drains them onto the transfer's TraceEvent and into
 * the per-stage duration histograms (`t_stage_<name>_ns`). Control
 * paths (resync sessions, desync recovery) close a single Resync
 * span onto their own event through recordControl(). Every
 * `t_stage_*_ns` sample is written here and nowhere else.
 *
 * Cost contract:
 *
 *  - disabled (period 0) or no sink attached: callers never arm the
 *    recorder, so a transfer pays a single branch;
 *  - enabled: only 1-in-`period` transfers are armed
 *    (deterministically, by transfer ordinal), and only armed
 *    transfers read the clock — two reads per span; control spans
 *    are rare and always timed while recording is enabled;
 *  - the overhead is self-reported: the recorder counts its clock
 *    reads and multiplies by a once-calibrated per-read cost, so
 *    every critpath report carries an honest estimate of what the
 *    measurement itself cost (`span_overhead_ns_est`).
 *
 * Storage is a fixed array (TraceEvent::kMaxSpans); recording never
 * allocates, keeping the `// cable-lint: no-alloc` contract of the
 * search pipeline intact. These are host wall-clock measurements of
 * the simulator's own stages — profiling data for "make the hot
 * path faster" PRs — not simulated link cycles (core/pipeline.h
 * covers those).
 */

#ifndef CABLE_TELEMETRY_SPANS_H
#define CABLE_TELEMETRY_SPANS_H

#include <chrono>
#include <cstdint>

#include "common/stats.h"
#include "telemetry/trace.h"

namespace cable
{

/** Histogram name a stage's span durations are recorded under
 *  (`t_stage_<name>_ns`); string literals with static storage. */
const char *stageHistName(Stage s);

class SpanRecorder
{
  public:
    /** 1-in-@p period transfers record spans; 0 disables. */
    void
    configure(std::uint64_t period)
    {
        period_ = period;
        // Power-of-two periods (the default 64 among them) sample by
        // mask, keeping a 64-bit division off every transfer.
        mask_ = period != 0 && (period & (period - 1)) == 0
                    ? period - 1
                    : 0;
        active_ = false;
        n_ = 0;
    }

    std::uint64_t period() const { return period_; }
    bool enabled() const { return period_ != 0; }
    bool active() const { return active_; }

    /**
     * Starts a new transfer with ordinal @p seq; returns true when
     * this transfer is sampled (the deterministic 1-in-period
     * decision, so a fixed seed and workload reproduce the
     * identical span stream).
     */
    bool
    arm(std::uint64_t seq)
    {
        n_ = 0;
        last_ = -1;
        active_ = period_ != 0
                  && (mask_ != 0 ? (seq & mask_) : (seq % period_)) == 0;
        if (active_)
            ++sampled_;
        return active_;
    }

    /** Abandons the current transfer's spans (exception paths). */
    void
    disarm()
    {
        active_ = false;
        n_ = 0;
        last_ = -1;
    }

    /** Monotonic nanoseconds since recorder construction. */
    std::uint64_t
    nowNs()
    {
        ++clock_reads_;
        auto d = std::chrono::steady_clock::now() - origin_;
        auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                      d)
                      .count();
        return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
    }

    /**
     * Opens a span of @p stage depending on span index @p dep
     * (-1 = root). Returns the span index, or -1 when the recorder
     * is inactive or full — close(-1) is a no-op, so call sites
     * never branch on the result.
     */
    int
    open(Stage stage, int dep)
    {
        if (!active_ || n_ >= TraceEvent::kMaxSpans)
            return -1;
        StageSpan &s = spans_[n_];
        s.stage = stage;
        s.dep = static_cast<std::int8_t>(dep);
        s.aux = 0;
        s.begin_ns = nowNs();
        s.end_ns = s.begin_ns;
        return static_cast<int>(n_++);
    }

    /** Opens a span chained onto the most recent span (linear
     *  pipeline order — the common case). */
    int
    open(Stage stage)
    {
        return open(stage, last_);
    }

    void
    close(int idx, std::uint16_t aux = 0)
    {
        if (idx < 0 || !active_)
            return;
        StageSpan &s = spans_[static_cast<unsigned>(idx)];
        s.end_ns = nowNs();
        s.aux = aux;
        last_ = idx;
    }

    /**
     * Copies the recorded spans onto @p ev, records each duration
     * into @p stats under its stage histogram (t_stage_<name>_ns —
     * the aggregate timers the critpath report reconciles against,
     * both sides derive from the same measurements), then disarms.
     * No-op when the current transfer was not sampled.
     */
    // cable-lint: no-alloc (fixed-capacity copy; stage histograms
    // come from the stageHist() cache)
    void
    drainTo(TraceEvent &ev, StatSet &stats)
    {
        if (!active_) {
            ev.nspans = 0;
            return;
        }
        ev.nspans = static_cast<std::uint8_t>(n_);
        for (unsigned i = 0; i < n_; ++i) {
            ev.spans[i] = spans_[i];
            stageHist(stats, spans_[i].stage)
                .record(spans_[i].durationNs());
        }
        disarm();
    }

    /**
     * Closes a control-path span (resync session, desync recovery)
     * that began at @p begin_ns (a nowNs() stamp): stamps the end
     * now, makes it the single, root span of @p ev and records its
     * duration under the @p stage histogram. Control work is rare,
     * so callers time every occurrence while recording is enabled
     * rather than 1-in-period, and need not arm the recorder.
     */
    void
    recordControl(TraceEvent &ev, StatSet &stats, Stage stage,
                  std::uint64_t begin_ns, std::uint16_t aux = 0)
    {
        StageSpan &s = ev.spans[0];
        s.stage = stage;
        s.dep = -1;
        s.aux = aux;
        s.begin_ns = begin_ns;
        s.end_ns = nowNs();
        ev.nspans = 1;
        stageHist(stats, stage).record(s.durationNs());
    }

    /** Forgets the cached stage histograms; call when the StatSet
     *  they live in is cleared (its address stays the same). */
    void
    dropHistCache()
    {
        hist_stats_ = nullptr;
    }

    // ---- measured-overhead self-report ------------------------------

    /** Transfers that recorded spans. */
    std::uint64_t sampledTransfers() const { return sampled_; }
    /** Clock reads taken by span recording. */
    std::uint64_t clockReads() const { return clock_reads_; }
    /** Estimated total recording cost: reads × calibrated cost. */
    std::uint64_t
    overheadNsEstimate() const
    {
        return clock_reads_ * clockReadCostNs();
    }

    /**
     * Per-read cost of the steady clock, calibrated once per
     * process (median-free mean over a short burst; a few tens of
     * nanoseconds on current hardware).
     */
    static std::uint64_t
    clockReadCostNs()
    {
        static const std::uint64_t cost = [] {
            constexpr int kReads = 4096;
            auto t0 = std::chrono::steady_clock::now();
            auto last = t0;
            for (int i = 0; i < kReads; ++i)
                last = std::chrono::steady_clock::now();
            auto ns =
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    last - t0)
                    .count();
            std::uint64_t per =
                ns > 0 ? static_cast<std::uint64_t>(ns) / kReads : 0;
            return per > 0 ? per : 1;
        }();
        return cost;
    }

  private:
    /**
     * @p stage's duration histogram in @p stats, resolved by name
     * once per StatSet (std::map nodes are pointer-stable) and
     * through the cached pointer afterwards, so the steady state
     * never builds a key string.
     */
    Histogram &
    stageHist(StatSet &stats, Stage stage)
    {
        if (&stats != hist_stats_) {
            hist_stats_ = &stats;
            for (Histogram *&h : hists_)
                h = nullptr;
        }
        Histogram *&h = hists_[static_cast<unsigned>(stage)];
        if (h == nullptr)
            h = &stats.hist(stageHistName(stage));
        return *h;
    }

    StageSpan spans_[TraceEvent::kMaxSpans] = {};
    unsigned n_ = 0;
    int last_ = -1;
    bool active_ = false;
    std::uint64_t period_ = 0;
    std::uint64_t mask_ = 0; ///< period_ - 1 for powers of two, else 0
    std::uint64_t sampled_ = 0;
    std::uint64_t clock_reads_ = 0;
    /** Per-stage histogram cache for stageHist (keyed by StatSet). */
    StatSet *hist_stats_ = nullptr;
    Histogram *hists_[kStageCount] = {};
    std::chrono::steady_clock::time_point origin_ =
        std::chrono::steady_clock::now();
};

} // namespace cable

#endif // CABLE_TELEMETRY_SPANS_H
