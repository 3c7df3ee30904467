#include "telemetry/critpath.h"

namespace cable
{

void
CritPathAnalyzer::addSpans(const TraceEvent &ev)
{
    unsigned n = ev.nspans;
    if (n > TraceEvent::kMaxSpans)
        n = TraceEvent::kMaxSpans;
    ++spanned_;
    spans_ += n;

    // The recorder appends spans in causal order, so a valid parent
    // index is always smaller than its child's. A malformed forward
    // or self edge (hand-built streams) degrades to a root rather
    // than corrupting the longest-path scan.
    std::uint64_t dur[TraceEvent::kMaxSpans];
    std::uint64_t up[TraceEvent::kMaxSpans];   // longest path ending
    std::uint64_t down[TraceEvent::kMaxSpans]; // longest path starting
    for (unsigned i = 0; i < n; ++i) {
        const StageSpan &s = ev.spans[i];
        dur[i] = s.durationNs();
        int dep = s.dep;
        bool linked = dep >= 0 && static_cast<unsigned>(dep) < i;
        up[i] = dur[i]
                + (linked ? up[static_cast<unsigned>(dep)] : 0);
    }
    for (unsigned ri = n; ri > 0; --ri) {
        unsigned i = ri - 1;
        down[i] = dur[i];
    }
    for (unsigned ri = n; ri > 0; --ri) {
        unsigned i = ri - 1;
        int dep = ev.spans[i].dep;
        if (dep >= 0 && static_cast<unsigned>(dep) < i) {
            unsigned p = static_cast<unsigned>(dep);
            std::uint64_t through = dur[p] + down[i];
            if (through > down[p])
                down[p] = through;
        }
    }

    // Critical path: the chain behind the largest `up`; first index
    // wins ties so identical streams attribute identically.
    unsigned tail = 0;
    for (unsigned i = 1; i < n; ++i)
        if (up[i] > up[tail])
            tail = i;
    std::uint64_t crit_len = up[tail];
    critical_ns_ += crit_len;

    bool critical[TraceEvent::kMaxSpans] = {};
    for (int i = static_cast<int>(tail); i >= 0;) {
        critical[i] = true;
        int dep = ev.spans[static_cast<unsigned>(i)].dep;
        i = (dep >= 0 && dep < i) ? dep : -1;
    }

    for (unsigned i = 0; i < n; ++i) {
        const StageSpan &s = ev.spans[i];
        unsigned si = static_cast<unsigned>(s.stage);
        if (si >= kStageCount)
            continue;
        StageAgg &agg = stages_[si];
        ++agg.count;
        agg.total_ns += dur[i];
        total_ns_ += dur[i];
        if (critical[i]) {
            agg.critical_ns += dur[i];
        } else {
            std::uint64_t through = up[i] + down[i] - dur[i];
            agg.slack_ns +=
                crit_len > through ? crit_len - through : 0;
        }
    }
}

Stage
CritPathAnalyzer::bindingStage() const
{
    unsigned best = 0;
    for (unsigned i = 1; i < kStageCount; ++i)
        if (stages_[i].critical_ns > stages_[best].critical_ns)
            best = i;
    return static_cast<Stage>(best);
}

double
CritPathAnalyzer::bindingShare() const
{
    if (critical_ns_ == 0)
        return 0.0;
    const StageAgg &b = stages_[static_cast<unsigned>(bindingStage())];
    return static_cast<double>(b.critical_ns)
           / static_cast<double>(critical_ns_);
}

void
CritPathAnalyzer::writeReport(JsonWriter &jw,
                              const CritPathOverhead *overhead) const
{
    jw.beginObject();
    jw.field("events", events_);
    jw.field("spanned_events", spanned_);
    jw.field("spans", spans_);
    jw.field("critical_ns", critical_ns_);
    jw.field("total_ns", total_ns_);

    jw.key("stages");
    jw.beginArray();
    for (unsigned i = 0; i < kStageCount; ++i) {
        const StageAgg &a = stages_[i];
        jw.beginObject();
        jw.field("stage", stageName(static_cast<Stage>(i)));
        jw.field("count", a.count);
        jw.field("total_ns", a.total_ns);
        jw.field("critical_ns", a.critical_ns);
        jw.field("slack_ns", a.slack_ns);
        jw.field("critical_share",
                 critical_ns_ > 0
                     ? static_cast<double>(a.critical_ns)
                           / static_cast<double>(critical_ns_)
                     : 0.0);
        jw.endObject();
    }
    jw.endArray();

    if (spanned_ > 0) {
        jw.field("binding_stage", stageName(bindingStage()));
        jw.field("binding_share", bindingShare());
    } else {
        jw.nullField("binding_stage");
        jw.field("binding_share", 0.0);
    }

    if (overhead) {
        jw.key("overhead");
        jw.beginObject();
        jw.field("sampled_transfers", overhead->sampled_transfers);
        jw.field("clock_reads", overhead->clock_reads);
        jw.field("clock_cost_ns", overhead->clock_cost_ns);
        jw.field("estimated_ns", overhead->estimated_ns);
        jw.endObject();
    } else {
        jw.nullField("overhead");
    }
    jw.endObject();
}

} // namespace cable
