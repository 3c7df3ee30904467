/**
 * @file
 * Fixed-capacity mergeable quantile sketch over unsigned 64-bit
 * samples, in the DDSketch/HDR-histogram family: log-linear buckets
 * with a *named* relative-error bound instead of the unbounded
 * per-bucket error of a plain Log2 histogram. Where Histogram's log2
 * buckets smear a p99 across a whole power of two, the sketch pins
 * every quantile to within kRelativeError (2^-6 ≈ 1.56%) of the true
 * sample value — tight enough for tail reporting (encode ns, frame
 * bits, ARQ round trips) at a fixed 15 KiB footprint.
 *
 * Layout: values below 2^kSubBits index exactly (one value per
 * bucket); a larger value with log2-floor e lands in one of
 * kSubBuckets equal-width sub-buckets of [2^e, 2^(e+1)), so bucket
 * width is 2^(e-kSubBits) and the midpoint estimate is within
 * 2^-(kSubBits+1) of the sample, relatively. The bucket array is
 * sized once at construction; record() is a clz, a shift and an
 * increment — allocation-free and integer-only, so identical inputs
 * produce identical sketches on every host (the determinism contract
 * DESIGN.md §14 documents).
 *
 * merge() is element-wise add (sketches are CRDT-style mergeable:
 * merge(a, b) == sketch of concat(a, b), exactly). delta() mirrors
 * Histogram::delta — clamped bucket subtraction with cumulative
 * extrema — so epoch reporting works the same way for all three
 * container kinds.
 */

#ifndef CABLE_COMMON_SKETCH_H
#define CABLE_COMMON_SKETCH_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <ostream>
#include <vector>

#include "common/json.h"

namespace cable
{

class QuantileSketch
{
  public:
    /** Sub-bucket resolution: kSubBuckets = 2^kSubBits equal-width
     *  slices per power of two. */
    static constexpr unsigned kSubBits = 5;
    static constexpr unsigned kSubBuckets = 1u << kSubBits;

    /** Indices [0, kSubBuckets) are exact; each of the 64-kSubBits
     *  remaining octaves contributes kSubBuckets buckets. */
    static constexpr unsigned kBucketCount =
        kSubBuckets + (64 - kSubBits) * kSubBuckets;

    /** Guaranteed bound on |estimate - sample| / sample for any
     *  quantile estimate: half a sub-bucket, 2^-(kSubBits+1). */
    static constexpr double kRelativeError =
        1.0 / static_cast<double>(2u << kSubBits);

    QuantileSketch() : buckets_(kBucketCount, 0) {}

    /** Records @p n occurrences of @p v. Allocation-free. */
    void
    record(std::uint64_t v, std::uint64_t n = 1)
    {
        if (!n)
            return;
        buckets_[bucketOf(v)] += n;
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
     * Quantile estimate, @p q in [0, 1]: nearest-rank bucket walk,
     * bucket-midpoint estimate clamped to the exact [min, max].
     * Within kRelativeError of the true sample at that rank.
     */
    double
    quantile(double q) const
    {
        if (!count_)
            return 0.0;
        if (q <= 0.0)
            return static_cast<double>(min_);
        if (q >= 1.0)
            return static_cast<double>(max_);
        double target = q * static_cast<double>(count_);
        std::uint64_t rank = static_cast<std::uint64_t>(target);
        if (static_cast<double>(rank) < target || rank == 0)
            ++rank;
        std::uint64_t seen = 0;
        for (unsigned b = 0; b < kBucketCount; ++b) {
            if (!buckets_[b])
                continue;
            seen += buckets_[b];
            if (seen >= rank) {
                auto [lo, hi] = bucketRange(b);
                double mid =
                    static_cast<double>(lo)
                    + (static_cast<double>(hi)
                       - static_cast<double>(lo))
                          / 2.0;
                mid = std::max(mid, static_cast<double>(min_));
                mid = std::min(mid, static_cast<double>(max_));
                return mid;
            }
        }
        return static_cast<double>(max_);
    }

    /** Element-wise add: exactly the sketch of the concatenated
     *  sample streams. */
    void
    merge(const QuantileSketch &other)
    {
        if (!other.count_)
            return;
        for (unsigned b = 0; b < kBucketCount; ++b)
            buckets_[b] += other.buckets_[b];
        count_ += other.count_;
        sum_ += other.sum_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

    /**
     * Bucket-wise difference since @p earlier (an epoch snapshot of
     * this same sketch). Extrema cannot be un-merged, so the delta
     * keeps the cumulative min/max — same contract as
     * Histogram::delta.
     */
    QuantileSketch
    delta(const QuantileSketch &earlier) const
    {
        QuantileSketch d;
        for (unsigned b = 0; b < kBucketCount; ++b)
            d.buckets_[b] =
                buckets_[b]
                - std::min(earlier.buckets_[b], buckets_[b]);
        d.count_ = count_ - std::min(earlier.count_, count_);
        d.sum_ = sum_ - std::min(earlier.sum_, sum_);
        d.min_ = min_;
        d.max_ = max_;
        return d;
    }

    void
    clear()
    {
        std::fill(buckets_.begin(), buckets_.end(), 0);
        count_ = 0;
        sum_ = 0;
        min_ = std::numeric_limits<std::uint64_t>::max();
        max_ = 0;
    }

    /** [lo, hi] inclusive value range of bucket @p b. */
    std::pair<std::uint64_t, std::uint64_t>
    bucketRange(unsigned b) const
    {
        if (b < kSubBuckets)
            return {b, b};
        unsigned e = kSubBits + (b - kSubBuckets) / kSubBuckets;
        std::uint64_t sub = (b - kSubBuckets) % kSubBuckets;
        std::uint64_t lo =
            (1ull << e) | (sub << (e - kSubBits));
        std::uint64_t width = 1ull << (e - kSubBits);
        // The top octave's last bucket ends at max-u64; elsewhere
        // hi = lo + width - 1 cannot wrap.
        std::uint64_t hi = lo + (width - 1);
        if (hi < lo)
            hi = std::numeric_limits<std::uint64_t>::max();
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
        jw.field("rel_error", kRelativeError);
        jw.field("count", count_);
        jw.field("sum", sum_);
        jw.field("min", min());
        jw.field("max", max());
        jw.field("mean", mean());
        jw.field("p50", quantile(0.50));
        jw.field("p90", quantile(0.90));
        jw.field("p99", quantile(0.99));
        jw.field("p999", quantile(0.999));
        jw.key("buckets");
        jw.beginArray();
        for (unsigned b = 0; b < kBucketCount; ++b) {
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
           << " mean=" << mean() << " p50=" << quantile(0.50)
           << " p99=" << quantile(0.99);
    }

  private:
    static unsigned
    bucketOf(std::uint64_t v)
    {
        if (v < kSubBuckets)
            return static_cast<unsigned>(v);
        unsigned e =
            63 - static_cast<unsigned>(__builtin_clzll(v));
        unsigned sub = static_cast<unsigned>(
            (v >> (e - kSubBits)) & (kSubBuckets - 1));
        return kSubBuckets + (e - kSubBits) * kSubBuckets + sub;
    }

    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = std::numeric_limits<std::uint64_t>::max();
    std::uint64_t max_ = 0;
};

} // namespace cable

#endif // CABLE_COMMON_SKETCH_H
