/**
 * @file
 * Statistics package: named counters, bucketed histograms and
 * quantile sketches with merge, epoch-delta and dump facilities, in
 * the spirit of gem5's stats but minimal.
 *
 * Hot paths register a name once (counterId(), histId(), ...) and
 * update through the returned handle, an index: no key string, no
 * map search. A handle is valid for the life of its StatSet and of
 * every copy. Registration alone shows nothing; a stat stays absent
 * from dump(), dumpJson(), counters(), has(), find*(), merge() and
 * delta() until an update touches it. clear() zeroes values and
 * touched bits in place, keeping registrations (and histogram
 * scale/width), so no handle can dangle. Cold paths and tests use
 * the by-name API — `stats.add("transfers", 1)` — which registers
 * and touches on first use.
 */

#ifndef CABLE_COMMON_STATS_H
#define CABLE_COMMON_STATS_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <optional>
#include <ostream>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/sketch.h"

namespace cable
{

/**
 * A bucketed histogram over unsigned 64-bit samples. Two bucketing
 * schemes:
 *
 *  - Log2 (default): bucket 0 holds the value 0; bucket i >= 1 holds
 *    [2^(i-1), 2^i).  65 buckets cover the whole u64 range, so
 *    recording max-u64 is safe.
 *  - Linear: bucket i holds [i*width, (i+1)*width), clamped to a
 *    fixed bucket count with a terminal overflow bucket — right for
 *    small enumerable quantities (refs per line: 0..3, covered
 *    words: 0..16).
 *
 * Exact min/max/sum ride alongside the buckets, so mean() is exact
 * and only percentiles are bucket-interpolated.
 */
class Histogram
{
  public:
    enum class Scale
    {
        Log2,
        Linear
    };

    explicit Histogram(Scale scale = Scale::Log2,
                       std::uint64_t bucket_width = 1,
                       unsigned linear_buckets = 64)
        : scale_(scale), width_(bucket_width ? bucket_width : 1),
          nlinear_(linear_buckets ? linear_buckets : 1)
    {
    }

    void
    record(std::uint64_t v, std::uint64_t n = 1)
    {
        if (!n)
            return;
        unsigned b = bucketOf(v);
        if (b >= buckets_.size())
            buckets_.resize(b + 1, 0);
        buckets_[b] += n;
        count_ += n;
        sum_ += v * n;
        min_ = std::min(min_, v);
        max_ = std::max(max_, v);
    }

    std::uint64_t samples() const { return count_; }
    std::uint64_t sum() const { return sum_; }

    std::uint64_t
    min() const
    {
        return count_ ? min_ : 0;
    }

    std::uint64_t
    max() const
    {
        return count_ ? max_ : 0;
    }

    double
    mean() const
    {
        return count_ ? static_cast<double>(sum_)
                            / static_cast<double>(count_)
                      : 0.0;
    }

    /**
     * Bucket-interpolated percentile, @p p in [0, 100]. Exact when
     * every sample in the chosen bucket shares one value (always
     * true for Linear width 1); otherwise linear within the bucket,
     * clamped to the observed min/max.
     */
    double
    percentile(double p) const
    {
        if (!count_)
            return 0.0;
        if (p <= 0.0)
            return static_cast<double>(min_);
        if (p >= 100.0)
            return static_cast<double>(max_);
        // Rank of the target sample (1-based, nearest-rank).
        double target = p / 100.0 * static_cast<double>(count_);
        std::uint64_t rank = static_cast<std::uint64_t>(target);
        if (static_cast<double>(rank) < target || rank == 0)
            ++rank;
        std::uint64_t seen = 0;
        for (unsigned b = 0; b < buckets_.size(); ++b) {
            if (!buckets_[b])
                continue;
            if (seen + buckets_[b] >= rank) {
                auto [lo, hi] = bucketRange(b);
                double frac =
                    static_cast<double>(rank - seen)
                    / static_cast<double>(buckets_[b]);
                double v = static_cast<double>(lo)
                           + frac
                                 * (static_cast<double>(hi)
                                    - static_cast<double>(lo));
                v = std::max(v, static_cast<double>(min_));
                v = std::min(v, static_cast<double>(max_));
                return v;
            }
            seen += buckets_[b];
        }
        return static_cast<double>(max_);
    }

    void
    merge(const Histogram &other)
    {
        if (!other.count_)
            return;
        if (other.buckets_.size() > buckets_.size())
            buckets_.resize(other.buckets_.size(), 0);
        for (unsigned b = 0; b < other.buckets_.size(); ++b)
            buckets_[b] += other.buckets_[b];
        count_ += other.count_;
        sum_ += other.sum_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

    /**
     * Bucket-wise difference since @p earlier (an epoch snapshot of
     * this same histogram). min/max cannot be un-merged, so the
     * delta keeps the cumulative extrema — documented behaviour for
     * interval reporting.
     */
    Histogram
    delta(const Histogram &earlier) const
    {
        Histogram d(scale_, width_, nlinear_);
        d.buckets_.assign(buckets_.begin(), buckets_.end());
        for (unsigned b = 0; b < earlier.buckets_.size()
                             && b < d.buckets_.size();
             ++b)
            d.buckets_[b] -= std::min(earlier.buckets_[b],
                                      d.buckets_[b]);
        d.count_ = count_ - std::min(earlier.count_, count_);
        d.sum_ = sum_ - std::min(earlier.sum_, sum_);
        d.min_ = min_;
        d.max_ = max_;
        return d;
    }

    void
    clear()
    {
        buckets_.clear();
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
    }


    /** [lo, hi] inclusive value range of bucket @p b. */
    std::pair<std::uint64_t, std::uint64_t>
    bucketRange(unsigned b) const
    {
        if (scale_ == Scale::Linear) {
            std::uint64_t lo = static_cast<std::uint64_t>(b) * width_;
            if (b + 1 >= nlinear_) // overflow bucket
                return {lo,
                        std::numeric_limits<std::uint64_t>::max()};
            return {lo, lo + width_ - 1};
        }
        if (b == 0)
            return {0, 0};
        std::uint64_t lo = 1ull << (b - 1);
        std::uint64_t hi = b >= 64
                               ? std::numeric_limits<
                                     std::uint64_t>::max()
                               : (1ull << b) - 1;
        return {lo, hi};
    }

    const std::vector<std::uint64_t> &buckets() const
    {
        return buckets_;
    }

    void
    dumpJson(JsonWriter &jw) const
    {
        jw.beginObject();
        jw.field("scale",
                 scale_ == Scale::Log2 ? "log2" : "linear");
        if (scale_ == Scale::Linear)
            jw.field("bucket_width", width_);
        jw.field("count", count_);
        jw.field("sum", sum_);
        jw.field("min", min());
        jw.field("max", max());
        jw.field("mean", mean());
        jw.field("p50", percentile(50));
        jw.field("p90", percentile(90));
        jw.field("p99", percentile(99));
        jw.key("buckets");
        jw.beginArray();
        for (unsigned b = 0; b < buckets_.size(); ++b) {
            if (!buckets_[b])
                continue;
            auto [lo, hi] = bucketRange(b);
            jw.beginObject();
            jw.field("lo", lo);
            jw.field("hi", hi);
            jw.field("count", buckets_[b]);
            jw.endObject();
        }
        jw.endArray();
        jw.endObject();
    }

    /** The one-line form StatSet::dump() prints after the name. */
    void
    dumpText(std::ostream &os) const
    {
        os << " n=" << count_ << " min=" << min() << " max=" << max()
           << " mean=" << mean() << " p50=" << percentile(50)
           << " p99=" << percentile(99);
    }

  private:
    unsigned
    bucketOf(std::uint64_t v) const
    {
        if (scale_ == Scale::Linear) {
            std::uint64_t b = v / width_;
            std::uint64_t cap = nlinear_ - 1;
            return static_cast<unsigned>(std::min(b, cap));
        }
        if (v == 0)
            return 0;
        unsigned log2floor =
            63 - static_cast<unsigned>(__builtin_clzll(v));
        return log2floor + 1;
    }

    Scale scale_;
    std::uint64_t width_;
    unsigned nlinear_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

/** A counter as a stat kind, with the operations every kind of
 *  StatTable value provides. Deltas clamp: a counter that ran
 *  backwards reads 0. */
struct Counter
{
    std::uint64_t v = 0;

    void merge(const Counter &o) { v += o.v; }
    Counter delta(const Counter &e) const { return {v - std::min(e.v, v)}; }
    void clear() { v = 0; }
    void dumpJson(JsonWriter &jw) const { jw.value(v); }
    void dumpText(std::ostream &os) const { os << " " << v; }
};

/** A registered stat: an index into its StatSet's table of that
 *  kind, valid for the life of the StatSet and of its copies. */
template <typename T>
struct StatId
{
    std::uint32_t index;
};
using CounterId = StatId<Counter>;
using HistId = StatId<Histogram>;
using SketchId = StatId<QuantileSketch>;

/**
 * One stat kind: a flat vector of values with a touched bit per
 * slot, and a sorted name→slot map read only at registration and by
 * the by-name API. Everything a table exposes skips untouched slots.
 */
template <typename T>
class StatTable
{
  public:
    /** Slot of @p name, registering T(@p args...) there if new. */
    template <typename... Args>
    std::uint32_t
    slot(const std::string &name, Args &&...args)
    {
        auto [it, fresh] = index_.try_emplace(
            name, static_cast<std::uint32_t>(vals_.size()));
        if (fresh) {
            vals_.emplace_back(std::forward<Args>(args)...);
            touched_.push_back(0);
        }
        return it->second;
    }

    const T &at(std::uint32_t i) const { return vals_[i]; }
    T &
    touch(std::uint32_t i)
    {
        touched_[i] = 1;
        return vals_[i];
    }

    const T *
    find(const std::string &name) const
    {
        auto it = index_.find(name);
        return it != index_.end() && touched_[it->second]
                   ? &vals_[it->second]
                   : nullptr;
    }

    /** @p f(name, value) for every touched slot, in name order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (const auto &[name, i] : index_)
            if (touched_[i])
                f(name, vals_[i]);
    }

    void
    clear()
    {
        for (T &v : vals_)
            v.clear();
        std::fill(touched_.begin(), touched_.end(), 0);
    }

    /** A slot untouched here takes the other value whole. */
    void
    merge(const StatTable &other)
    {
        other.forEach([&](const std::string &name, const T &v) {
            std::uint32_t i = slot(name, v);
            if (touched_[i])
                vals_[i].merge(v);
            else
                vals_[i] = v;
            touched_[i] = 1;
        });
    }

    StatTable
    delta(const StatTable &earlier) const
    {
        StatTable d = *this;
        for (const auto &[name, i] : index_)
            if (const T *e = touched_[i] ? earlier.find(name) : nullptr)
                d.vals_[i] = vals_[i].delta(*e);
        return d;
    }

    void
    dump(std::ostream &os, const std::string &prefix) const
    {
        // A name needing JSON escaping (or holding a space) prints
        // quoted, so it cannot corrupt line-oriented consumers.
        forEach([&](const std::string &name, const T &v) {
            std::string esc = jsonEscape(name);
            if (esc == name && name.find(' ') == std::string::npos)
                os << prefix << name;
            else
                os << prefix << "\"" << esc << "\"";
            v.dumpText(os);
            os << "\n";
        });
    }

    void
    dumpJson(JsonWriter &jw, const char *section) const
    {
        jw.key(section);
        jw.beginObject();
        forEach([&](const std::string &name, const T &v) {
            jw.key(name);
            v.dumpJson(jw);
        });
        jw.endObject();
    }

  private:
    std::vector<T> vals_;
    std::vector<std::uint8_t> touched_; // a byte each: plain stores
    std::map<std::string, std::uint32_t> index_;
};

/** Named counters, histograms and quantile sketches; see the file
 *  comment for the handle contract. */
class StatSet
{
  public:
    // Registration: returns the handle; does not touch.
    CounterId
    counterId(const std::string &n)
    {
        return {counters_.slot(n)};
    }
    HistId
    histId(const std::string &n,
           Histogram::Scale scale = Histogram::Scale::Log2,
           std::uint64_t bucket_width = 1, unsigned linear_buckets = 64)
    {
        return {hists_.slot(n, scale, bucket_width, linear_buckets)};
    }
    SketchId
    sketchId(const std::string &n)
    {
        return {sketches_.slot(n)};
    }

    // Access by handle: touches (value() reads, 0 while untouched).
    void add(CounterId c, std::uint64_t d) { counters_.touch(c.index).v += d; }
    std::uint64_t value(CounterId c) const { return counters_.at(c.index).v; }
    Histogram &hist(HistId id) { return hists_.touch(id.index); }
    QuantileSketch &
    sketch(SketchId id)
    {
        return sketches_.touch(id.index);
    }

    // Access by name: registers if needed, touches. hist() takes
    // histId()'s bucketing arguments, used only on registration.
    void add(const std::string &n, std::uint64_t d) { add(counterId(n), d); }
    template <typename... Bucketing>
    Histogram &
    hist(const std::string &n, Bucketing... b)
    {
        return hist(histId(n, b...));
    }
    QuantileSketch &
    sketch(const std::string &n)
    {
        return sketch(sketchId(n));
    }

    /** Returns the counter value, or 0 if never touched. */
    std::uint64_t
    get(const std::string &name) const
    {
        const Counter *c = counters_.find(name);
        return c ? c->v : 0;
    }

    /** True when the counter has been touched at least once. */
    bool
    has(const std::string &name) const
    {
        return counters_.find(name) != nullptr;
    }

    /** num/den, 0.0 where ratioOpt() says n/a. */
    double
    ratio(const std::string &num, const std::string &den) const
    {
        return ratioOpt(num, den).value_or(0.0);
    }

    /**
     * num/den, or nullopt when the denominator was never recorded
     * or recorded as zero — the "n/a" the JSON export emits as null
     * instead of a misleading 0.0.
     */
    std::optional<double>
    ratioOpt(const std::string &num, const std::string &den) const
    {
        std::uint64_t d = get(den);
        if (d == 0)
            return std::nullopt;
        return static_cast<double>(get(num)) / static_cast<double>(d);
    }

    // Lookups without creation: nullptr unless touched.
    const Histogram *
    findHist(const std::string &n) const
    {
        return hists_.find(n);
    }
    const QuantileSketch *
    findSketch(const std::string &n) const
    {
        return sketches_.find(n);
    }

    void
    clear()
    {
        counters_.clear();
        hists_.clear();
        sketches_.clear();
    }

    /** Plain-text dump, each kind sorted by name. */
    void
    dump(std::ostream &os, const std::string &prefix = "") const
    {
        counters_.dump(os, prefix);
        hists_.dump(os, prefix);
        sketches_.dump(os, prefix);
    }

    /** One JSON object: "counters", "histograms" and "sketches"
     *  sub-objects. */
    void
    dumpJson(JsonWriter &jw) const
    {
        jw.beginObject();
        counters_.dumpJson(jw, "counters");
        hists_.dumpJson(jw, "histograms");
        sketches_.dumpJson(jw, "sketches");
        jw.endObject();
    }

    /** Merge-adds every stat of @p other, matched by name. */
    void
    merge(const StatSet &other)
    {
        counters_.merge(other.counters_);
        hists_.merge(other.hists_);
        sketches_.merge(other.sketches_);
    }

    /**
     * Interval (epoch) snapshot: everything accumulated since
     * @p earlier, as a new StatSet. Counters and histogram and
     * sketch buckets subtract.
     */
    StatSet
    delta(const StatSet &earlier) const
    {
        StatSet d;
        d.counters_ = counters_.delta(earlier.counters_);
        d.hists_ = hists_.delta(earlier.hists_);
        d.sketches_ = sketches_.delta(earlier.sketches_);
        return d;
    }

    /** Touched counters, sorted by name (a copy). */
    std::map<std::string, std::uint64_t>
    counters() const
    {
        std::map<std::string, std::uint64_t> out;
        counters_.forEach([&](const std::string &n, const Counter &c) {
            out.emplace(n, c.v);
        });
        return out;
    }

  private:
    StatTable<Counter> counters_;
    StatTable<Histogram> hists_;
    StatTable<QuantileSketch> sketches_;
};

} // namespace cable

#endif // CABLE_COMMON_STATS_H
