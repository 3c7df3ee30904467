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
 *    transfers read the clock — two reads per span, or one where
 *    handoff() closes a span and opens the next on the same
 *    stamp; control spans are rare and always timed while
 *    recording is enabled;
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

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#include <cpuid.h>
#include <x86intrin.h>
#define CABLE_SPAN_TSC 1
#endif

#include "common/stats.h"
#include "telemetry/trace.h"

namespace cable
{

/**
 * The recorder's clock: monotonic nanoseconds since an origin. Where
 * the x86-64 time-stamp counter is invariant (CPUID 0x80000007 EDX
 * bit 8: one rate in every P- and C-state), a read is one RDTSC
 * scaled by a rate calibrated once per process against steady_clock
 * over 100 µs. A steady_clock read goes through the vDSO, whose
 * ordered counter read fences the pipeline: inside the encode path
 * it costs about 55 ns on a 4-core x86-64 VM, against about 35 ns in
 * a tight loop. Elsewhere the clock is steady_clock.
 */
class SpanClock
{
  public:
    /** The point reads measure from; cheap to take (no calibration). */
    struct Origin
    {
        std::chrono::steady_clock::time_point steady =
            std::chrono::steady_clock::now();
#ifdef CABLE_SPAN_TSC
        std::uint64_t tsc = __rdtsc();
#endif
    };

    /** Nanoseconds since @p origin (0 if the clock reads earlier). */
    static std::uint64_t
    sinceNs(const Origin &origin)
    {
#ifdef CABLE_SPAN_TSC
        if (const double scale = nsPerTick(); scale > 0.0) {
            const std::uint64_t now = __rdtsc();
            return now > origin.tsc
                       ? static_cast<std::uint64_t>(
                             static_cast<double>(now - origin.tsc)
                             * scale)
                       : 0;
        }
#endif
        const auto ns = std::chrono::duration_cast<
                            std::chrono::nanoseconds>(
                            std::chrono::steady_clock::now()
                            - origin.steady)
                            .count();
        return ns > 0 ? static_cast<std::uint64_t>(ns) : 0;
    }

  private:
#ifdef CABLE_SPAN_TSC
    /** Nanoseconds per counter tick; 0 when the counter is not
     *  invariant, which selects steady_clock. */
    static double
    nsPerTick()
    {
        static const double scale = [] {
            unsigned a = 0, b = 0, c = 0, d = 0;
            if (!__get_cpuid(0x80000007u, &a, &b, &c, &d)
                || (d & (1u << 8)) == 0)
                return 0.0;
            const auto s0 = std::chrono::steady_clock::now();
            const std::uint64_t t0 = __rdtsc();
            auto s1 = s0;
            while (s1 - s0 < std::chrono::microseconds(100))
                s1 = std::chrono::steady_clock::now();
            const std::uint64_t t1 = __rdtsc();
            return t1 > t0 ? std::chrono::duration<double, std::nano>(
                                 s1 - s0)
                                     .count()
                                 / static_cast<double>(t1 - t0)
                           : 0.0;
        }();
        return scale;
    }
#endif
};

/** Histogram name a stage's span durations are recorded under
 *  (`t_stage_<name>_ns`); string literals with static storage. */
const char *stageHistName(Stage s);

class SpanRecorder
{
  public:
    SpanRecorder() = default;
    // Holds a pointer to its owner's StatSet: never copied along.
    SpanRecorder(const SpanRecorder &) = delete;
    SpanRecorder &operator=(const SpanRecorder &) = delete;

    /** Registers the `t_stage_*_ns` histograms in @p stats, which
     *  drainTo() and recordControl() then record into. Call once,
     *  with the StatSet of the recorder's owner. */
    void
    bind(StatSet &stats)
    {
        stats_ = &stats;
        for (unsigned s = 0; s < kStageCount; ++s)
            stage_hists_[s] =
                stats.histId(stageHistName(static_cast<Stage>(s)));
    }

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
        return SpanClock::sinceNs(origin_);
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
        return begin(stage, dep, nowNs());
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
        end(idx, nowNs(), aux);
    }

    /**
     * close(@p idx) then open(@p stage) on one clock read, for call
     * sites where one stage ends exactly where the next begins: the
     * closed span's end stamp is the new span's begin stamp, and the
     * new span depends on the closed one.
     */
    int
    handoff(int idx, Stage stage)
    {
        if (idx < 0 || !active_)
            return open(stage);
        const std::uint64_t now = nowNs();
        end(idx, now, 0);
        if (n_ >= TraceEvent::kMaxSpans)
            return -1;
        return begin(stage, idx, now);
    }

    /**
     * Copies the recorded spans onto @p ev, records each duration
     * under its stage histogram (t_stage_<name>_ns — the aggregate
     * timers the critpath report reconciles against, both sides
     * derive from the same measurements), then disarms. No-op when
     * the current transfer was not sampled.
     */
    // cable-lint: no-alloc (fixed-capacity copy; stage histograms
    // are updated through their bind() handles)
    void
    drainTo(TraceEvent &ev)
    {
        if (!active_) {
            ev.nspans = 0;
            return;
        }
        ev.nspans = static_cast<std::uint8_t>(n_);
        for (unsigned i = 0; i < n_; ++i) {
            ev.spans[i] = spans_[i];
            stageHist(spans_[i].stage).record(spans_[i].durationNs());
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
    recordControl(TraceEvent &ev, Stage stage, std::uint64_t begin_ns,
                  std::uint16_t aux = 0)
    {
        StageSpan &s = ev.spans[0];
        s.stage = stage;
        s.dep = -1;
        s.aux = aux;
        s.begin_ns = begin_ns;
        s.end_ns = nowNs();
        ev.nspans = 1;
        stageHist(stage).record(s.durationNs());
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
     * Per-read cost of the span clock, calibrated once per process
     * (mean over a short burst of back-to-back reads; at least 1).
     */
    static std::uint64_t
    clockReadCostNs()
    {
        static const std::uint64_t cost = [] {
            constexpr int kReads = 4096;
            const SpanClock::Origin origin;
            std::uint64_t last = SpanClock::sinceNs(origin);
            const std::uint64_t first = last;
            for (int i = 0; i < kReads; ++i)
                last = SpanClock::sinceNs(origin);
            const std::uint64_t per = (last - first) / kReads;
            return per > 0 ? per : 1;
        }();
        return cost;
    }

  private:
    int
    begin(Stage stage, int dep, std::uint64_t now)
    {
        StageSpan &s = spans_[n_];
        s.stage = stage;
        s.dep = static_cast<std::int8_t>(dep);
        s.aux = 0;
        s.begin_ns = now;
        s.end_ns = now;
        return static_cast<int>(n_++);
    }

    void
    end(int idx, std::uint64_t now, std::uint16_t aux)
    {
        StageSpan &s = spans_[static_cast<unsigned>(idx)];
        s.end_ns = now;
        s.aux = aux;
        last_ = idx;
    }

    Histogram &
    stageHist(Stage stage)
    {
        return stats_->hist(stage_hists_[static_cast<unsigned>(stage)]);
    }

    StageSpan spans_[TraceEvent::kMaxSpans] = {};
    unsigned n_ = 0;
    int last_ = -1;
    bool active_ = false;
    std::uint64_t period_ = 0;
    std::uint64_t mask_ = 0; ///< period_ - 1 for powers of two, else 0
    std::uint64_t sampled_ = 0;
    std::uint64_t clock_reads_ = 0;
    StatSet *stats_ = nullptr; ///< the owner's, set by bind()
    HistId stage_hists_[kStageCount] = {};
    SpanClock::Origin origin_;
};

} // namespace cable

#endif // CABLE_TELEMETRY_SPANS_H
