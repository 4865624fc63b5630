// Small statistics helpers used by the Monte-Carlo harness and the DTA
// post-processing: streaming mean/variance, order statistics, histograms
// and empirical CDFs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace sfi {

class ByteReader;
class ByteWriter;

/// Streaming mean / variance / min / max accumulator (Welford's algorithm).
class RunningStats {
public:
    void add(double x);
    void merge(const RunningStats& other);
    void reset();

    std::size_t count() const { return n_; }
    double mean() const { return n_ ? mean_ : 0.0; }
    /// Unbiased sample variance (0 for fewer than two samples).
    double variance() const;
    double stddev() const;
    double min() const { return n_ ? min_ : 0.0; }
    double max() const { return n_ ? max_ : 0.0; }
    double sum() const { return mean_ * static_cast<double>(n_); }

    /// Binary persistence of the exact accumulator state (u64 count +
    /// raw mean/M2/min/max doubles, util/bytes.hpp). A loaded instance is
    /// bit-identical to the saved one — the campaign point store relies
    /// on this so a warm re-run reproduces cold-run output byte for byte.
    void save(ByteWriter& out) const;
    static RunningStats load(ByteReader& in);

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double m2_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Returns the q-quantile (q in [0,1]) of `values` using linear
/// interpolation between order statistics. `values` is copied and sorted.
double quantile(std::vector<double> values, double q);

/// Wilson score interval for a binomial proportion: the uncertainty of
/// Monte-Carlo "finished" / "correct" fractions at small trial counts.
/// `z` is the normal quantile (1.96 = 95 % confidence).
struct Interval {
    double lo = 0.0;
    double hi = 0.0;
};
Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z = 1.96);

/// Mean of a vector (0 for empty input).
double mean_of(const std::vector<double>& values);

/// Fixed-range histogram with uniform bins; values outside [lo, hi) are
/// clamped into the first / last bin so no sample is ever dropped.
class Histogram {
public:
    Histogram(double lo, double hi, std::size_t bins);

    void add(double x);
    std::size_t bin_count() const { return counts_.size(); }
    std::uint64_t count(std::size_t bin) const { return counts_.at(bin); }
    std::uint64_t total() const { return total_; }
    double bin_low(std::size_t bin) const;
    double bin_high(std::size_t bin) const;
    double lo() const { return lo_; }
    double hi() const { return hi_; }

private:
    double lo_;
    double hi_;
    double width_;
    std::vector<std::uint64_t> counts_;
    std::uint64_t total_ = 0;
};

/// Empirical CDF over a sample of doubles. After `finalize()`,
/// `fraction_at_most(x)` returns P[X <= x] in O(log n).
class EmpiricalCdf {
public:
    void add(double x) { samples_.push_back(x); finalized_ = false; }
    void add_all(const std::vector<double>& xs);
    void finalize();

    bool empty() const { return samples_.empty(); }
    std::size_t size() const { return samples_.size(); }

    /// P[X <= x]; requires finalize() first (asserted in debug builds).
    double fraction_at_most(double x) const;
    /// P[X > x] = 1 - fraction_at_most(x).
    double fraction_above(double x) const { return 1.0 - fraction_at_most(x); }
    /// Smallest sample value (requires non-empty, finalized).
    double min() const;
    double max() const;
    /// q-quantile of the sample.
    double quantile(double q) const;
    const std::vector<double>& sorted_samples() const { return samples_; }

private:
    std::vector<double> samples_;
    bool finalized_ = false;
};

}  // namespace sfi
