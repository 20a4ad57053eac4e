/**
 * @file
 * Log2-bucketed latency histogram for the observability layer.
 *
 * The paper's headline claims are about the *shape* of translation
 * latency (Figure 3's distributions, Figure 9's per-level breakdowns);
 * `SampleStat` reduces a run to count/sum/min/max and loses exactly
 * that shape. This histogram keeps it, cheaply and deterministically:
 *
 *  - Log-linear integer buckets ("HDR style"): values below
 *    `linearBuckets` are counted exactly; above, each power of two is
 *    split into `subBuckets` linear sub-buckets, bounding the relative
 *    bucket width to 1/subBuckets. No floats anywhere on the recording
 *    path — one CLZ, one shift, one increment — so recording into it
 *    cannot perturb determinism and is cheap enough for the measure
 *    loop.
 *  - Fixed-size storage (no allocation): a RunStats stays trivially
 *    copyable/mergeable across sweep threads.
 *  - merge() folds another histogram in bucket-by-bucket, exactly like
 *    SampleStat::merge — cross-cell aggregation is associative and
 *    thread-count-invariant.
 *  - percentile(q) returns the *upper bound* of the bucket holding the
 *    q-quantile sample: a deterministic integer, conservative by at
 *    most one bucket width (≤ 1/subBuckets relative).
 */

#ifndef ASAP_OBS_HISTOGRAM_HH
#define ASAP_OBS_HISTOGRAM_HH

#include <array>
#include <cstdint>
#include <string>

namespace asap::obs
{

class Histogram
{
  public:
    /** Values below this are counted exactly (one bucket per value). */
    static constexpr unsigned linearBuckets = 16;
    /** Sub-buckets per power of two above the linear range. */
    static constexpr unsigned subBuckets = 8;
    /** Log2 of the linear range / sub-bucket count. */
    static constexpr unsigned linearShift = 4;   // log2(linearBuckets)
    static constexpr unsigned subShift = 3;      // log2(subBuckets)
    /** Bucket count covering the full uint64 range:
     *  16 exact + 8 per octave for octaves 4..63. */
    static constexpr std::size_t numBuckets =
        linearBuckets + (64 - linearShift) * subBuckets;

    /** Bucket index of @p value (branch-light: CLZ + shift + mask). */
    static constexpr std::size_t
    bucketOf(std::uint64_t value)
    {
        if (value < linearBuckets)
            return static_cast<std::size_t>(value);
        const unsigned msb = 63u - static_cast<unsigned>(
                                       __builtin_clzll(value));
        const unsigned sub = static_cast<unsigned>(
            (value >> (msb - subShift)) & (subBuckets - 1));
        return linearBuckets + (msb - linearShift) * subBuckets + sub;
    }

    /** Inclusive lower bound of bucket @p index. */
    static constexpr std::uint64_t
    bucketLow(std::size_t index)
    {
        if (index < linearBuckets)
            return index;
        const std::size_t rel = index - linearBuckets;
        const unsigned msb =
            linearShift + static_cast<unsigned>(rel / subBuckets);
        const std::uint64_t sub = rel % subBuckets;
        return (std::uint64_t{1} << msb) +
               (sub << (msb - subShift));
    }

    /** Inclusive upper bound of bucket @p index. */
    static constexpr std::uint64_t
    bucketHigh(std::size_t index)
    {
        if (index < linearBuckets)
            return index;
        const std::size_t rel = index - linearBuckets;
        const unsigned msb =
            linearShift + static_cast<unsigned>(rel / subBuckets);
        return bucketLow(index) +
               ((std::uint64_t{1} << (msb - subShift)) - 1);
    }

    void
    sample(std::uint64_t value)
    {
        ++buckets_[bucketOf(value)];
        ++count_;
        sum_ += value;
    }

    void
    reset()
    {
        buckets_.fill(0);
        count_ = 0;
        sum_ = 0;
    }

    /** Fold another histogram in (cross-cell / cross-thread
     *  aggregation; associative and commutative). */
    void
    merge(const Histogram &other)
    {
        for (std::size_t i = 0; i < numBuckets; ++i)
            buckets_[i] += other.buckets_[i];
        count_ += other.count_;
        sum_ += other.sum_;
    }

    bool
    operator==(const Histogram &other) const
    {
        return buckets_ == other.buckets_ && count_ == other.count_ &&
               sum_ == other.sum_;
    }

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    std::uint64_t bucketCount(std::size_t i) const { return buckets_[i]; }

    /** Rebuild from serialized buckets (sweep-journal resume): set one
     *  bucket's raw count, then the totals. */
    void setBucketCount(std::size_t i, std::uint64_t n) { buckets_[i] = n; }
    void
    setTotals(std::uint64_t count, std::uint64_t sum)
    {
        count_ = count;
        sum_ = sum;
    }

    double
    mean() const
    {
        return count_ == 0 ? 0.0
                           : static_cast<double>(sum_) /
                                 static_cast<double>(count_);
    }

    /**
     * The value at quantile @p q in [0, 1]: the upper bound of the
     * bucket containing the ceil(q * count)-th sample (0 for an empty
     * histogram; q <= 0 gives the lowest occupied bucket, q >= 1 the
     * highest). Deterministic: integer rank arithmetic, no
     * interpolation.
     */
    std::uint64_t percentile(double q) const;

    /** Shorthands for the reported tail columns. */
    std::uint64_t p50() const { return percentile(0.50); }
    std::uint64_t p90() const { return percentile(0.90); }
    std::uint64_t p99() const { return percentile(0.99); }
    std::uint64_t p999() const { return percentile(0.999); }

    /** One line per occupied bucket: "[low,high] count" (tools). */
    std::string format() const;

  private:
    std::array<std::uint64_t, numBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

} // namespace asap::obs

#endif // ASAP_OBS_HISTOGRAM_HH
