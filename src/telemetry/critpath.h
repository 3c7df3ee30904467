/**
 * @file
 * Critical-path analyzer over the stage-span trace stream
 * (DESIGN.md §13). Each span-carrying TraceEvent is a small DAG:
 * spans are nodes weighted by duration, `dep` edges point at the
 * parent span. The analyzer computes, per event,
 *
 *  - the critical path: the dependency chain with the largest total
 *    duration (the time the transfer could not have gone faster
 *    than, given its recorded causality), and
 *  - per-span slack: how much a span could grow before it joins the
 *    critical path (slack = critical_len - longest path through the
 *    span; critical spans have zero slack),
 *
 * and aggregates both per stage across the run. The binding stage —
 * the stage contributing the most critical-path time — is the
 * workload's bottleneck attribution: the stage a perf PR should
 * attack first.
 *
 * The same aggregation is implemented in tools/critpath.py; the two
 * cross-check each other through the `cable-critpath-v1` schema and
 * tools/check_metrics.py. Per-stage totals reconcile by construction
 * with the t_stage_*_ns histograms (SpanRecorder records both from
 * the same measurements).
 */

#ifndef CABLE_TELEMETRY_CRITPATH_H
#define CABLE_TELEMETRY_CRITPATH_H

#include <cstdint>

#include "common/json.h"
#include "telemetry/trace.h"

namespace cable
{

/** Per-stage aggregate over every analyzed event. */
struct StageAgg
{
    std::uint64_t count = 0;       ///< spans with this stage label
    std::uint64_t total_ns = 0;    ///< sum of span durations
    std::uint64_t critical_ns = 0; ///< duration on critical paths
    std::uint64_t slack_ns = 0;    ///< summed slack of these spans
};

/** Self-reported measurement cost (SpanRecorder counters). */
struct CritPathOverhead
{
    std::uint64_t sampled_transfers = 0;
    std::uint64_t clock_reads = 0;
    std::uint64_t clock_cost_ns = 0;
    std::uint64_t estimated_ns = 0;
};

class CritPathAnalyzer
{
  public:
    /** Consumes one trace event; events without spans only count.
     *  Inline, so the unsampled majority costs no call. */
    void
    addEvent(const TraceEvent &ev)
    {
        ++events_;
        if (ev.nspans != 0)
            addSpans(ev);
    }

    std::uint64_t events() const { return events_; }
    std::uint64_t spannedEvents() const { return spanned_; }
    std::uint64_t spanCount() const { return spans_; }
    /** Sum of per-event critical-path lengths. */
    std::uint64_t criticalNsTotal() const { return critical_ns_; }
    /** Sum of every span duration. */
    std::uint64_t totalNs() const { return total_ns_; }

    const StageAgg &stage(Stage s) const
    {
        return stages_[static_cast<unsigned>(s)];
    }

    /**
     * The stage with the largest critical-path contribution (ties
     * break toward the earlier pipeline stage, deterministically).
     * Meaningless when spannedEvents() == 0 — callers check first.
     */
    Stage bindingStage() const;
    /** bindingStage's fraction of all critical-path nanoseconds. */
    double bindingShare() const;

    /**
     * Emits the analyzer's report as one JSON object (the value for
     * a pending key): event/span counts, the per-stage table, the
     * binding attribution and, when @p overhead is non-null, the
     * measurement-cost self-report.
     */
    void writeReport(JsonWriter &jw,
                     const CritPathOverhead *overhead) const;

  private:
    /** The critical-path walk over a spanned event. */
    void addSpans(const TraceEvent &ev);

    StageAgg stages_[kStageCount];
    std::uint64_t events_ = 0;
    std::uint64_t spanned_ = 0;
    std::uint64_t spans_ = 0;
    std::uint64_t critical_ns_ = 0;
    std::uint64_t total_ns_ = 0;
};

} // namespace cable

#endif // CABLE_TELEMETRY_CRITPATH_H
