/**
 * @file
 * Fixed-bucket histogram for latency distributions.  The metric
 * tables of obs/metrics.hh name each one the run report shows.
 */

#ifndef PRISM_SIM_STATS_HH
#define PRISM_SIM_STATS_HH

#include <cstdint>
#include <vector>

namespace prism {

/** Fixed-bucket histogram for latency distributions. */
class Histogram
{
  public:
    /** Buckets: [0,b0), [b0,b1), ..., [b_{n-1}, inf). */
    explicit Histogram(std::vector<std::uint64_t> bounds)
        : bounds_(std::move(bounds)), counts_(bounds_.size() + 1, 0)
    {
    }

    void
    sample(std::uint64_t v)
    {
        std::size_t i = 0;
        while (i < bounds_.size() && v >= bounds_[i])
            ++i;
        ++counts_[i];
        sum_ += v;
        ++n_;
        if (v > max_)
            max_ = v;
        if (n_ == 1 || v < min_)
            min_ = v;
    }

    std::uint64_t count() const { return n_; }
    std::uint64_t max() const { return max_; }
    /** Smallest observed sample; 0 when empty. */
    std::uint64_t min() const { return n_ ? min_ : 0; }

    double
    mean() const
    {
        return n_ ? static_cast<double>(sum_) / static_cast<double>(n_) : 0.0;
    }

    /**
     * Approximate @p q quantile (q in [0, 1]) by linear interpolation
     * inside the bucket holding the q-th sample.  With fixed buckets
     * the answer is exact only at bucket boundaries; the error is
     * bounded by the width of that bucket (for the power-of-two bounds
     * used for latency histograms, at most a factor of two).  The
     * result is clamped to [min(), max()], so a single-sample
     * histogram reports that sample exactly at every quantile and no
     * quantile can exceed the largest observed value.  Returns 0 when
     * empty (never NaN).
     */
    double quantile(double q) const;

    /**
     * Accumulate @p other into this histogram.  Bucket bounds must be
     * identical (merging histograms of different shapes is a caller
     * bug), except that an *empty* histogram on either side is always
     * a safe no-op / wholesale adoption regardless of shape: empty
     * op-type histograms are legitimate (an open-loop mix with 0%
     * scans never touches the scan histogram) and must not abort the
     * report.
     */
    void merge(const Histogram &other);

    const std::vector<std::uint64_t> &bounds() const { return bounds_; }
    const std::vector<std::uint64_t> &counts() const { return counts_; }

  private:
    std::vector<std::uint64_t> bounds_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t sum_ = 0;
    std::uint64_t n_ = 0;
    std::uint64_t max_ = 0;
    std::uint64_t min_ = 0;
};

} // namespace prism

#endif // PRISM_SIM_STATS_HH
