// Summary statistics of the benchmark's samples.
//
// Every timing is reported as its median plus the highest percentile that
// still has at least kTailBeyond samples above it, together with the
// sample count — a p99 over 30 samples is one sample, not a tail. Every
// ratio is reported together with its numerator and denominator.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// Samples that must lie strictly above a reported tail percentile.
inline constexpr std::size_t kTailBeyond = 10;

/// Conventional median (mean of the two middle values for even counts);
/// 0 for an empty sample.
double median(std::vector<double> samples);

/// Nearest-rank percentile of an ascending-sorted sample: the value of
/// rank ceil(pct/100 * n) (1-based), clamped to [1, n].
double percentile_sorted(const std::vector<double>& sorted, double pct);

/// The highest percentile of the ladder {99.9, 99, 95, 90, 75, 50} whose
/// nearest-rank value leaves at least kTailBeyond of `n` samples above its
/// rank; 100 (the maximum) when no ladder entry qualifies (n < 20).
double tail_percentile(std::size_t n);

struct Distribution {
    std::size_t n = 0;
    double p50 = 0.0;
    double tail = 0.0;
    double tail_pct = 100.0;  ///< which percentile `tail` is
};

Distribution summarize(std::vector<double> samples);

/// "p50 1.23 / p90 4.56 (n=100)" — the text-report form of a Distribution.
std::string describe(const Distribution& d, double scale, const char* unit);

struct Ratio {
    double num = 0.0;
    double den = 0.0;
    double value() const { return den != 0.0 ? num / den : 0.0; }
};

}  // namespace perfbench
