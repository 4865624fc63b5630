#include "stats.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

namespace perfbench {

double median(std::vector<double> samples) {
    if (samples.empty()) return 0.0;
    std::sort(samples.begin(), samples.end());
    const std::size_t n = samples.size();
    return n % 2 ? samples[n / 2]
                 : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

namespace {

/// 1-based nearest rank of percentile `pct` in a sample of `n`.
std::size_t nearest_rank(std::size_t n, double pct) {
    const auto rank = static_cast<std::size_t>(
        std::ceil(pct / 100.0 * static_cast<double>(n) - 1e-9));
    return std::clamp<std::size_t>(rank, 1, n);
}

}  // namespace

double percentile_sorted(const std::vector<double>& sorted, double pct) {
    if (sorted.empty()) return 0.0;
    return sorted[nearest_rank(sorted.size(), pct) - 1];
}

double tail_percentile(std::size_t n) {
    for (const double pct : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0})
        if (n > 0 && n - nearest_rank(n, pct) >= kTailBeyond) return pct;
    return 100.0;
}

Distribution summarize(std::vector<double> samples) {
    Distribution d;
    d.n = samples.size();
    if (samples.empty()) return d;
    std::sort(samples.begin(), samples.end());
    d.p50 = median(samples);
    d.tail_pct = tail_percentile(d.n);
    d.tail = percentile_sorted(samples, d.tail_pct);
    return d;
}

std::string describe(const Distribution& d, double scale, const char* unit) {
    char buf[160];
    if (d.tail_pct >= 100.0)
        std::snprintf(buf, sizeof buf, "p50 %.6g %s / max %.6g %s (n=%zu)",
                      d.p50 * scale, unit, d.tail * scale, unit, d.n);
    else
        std::snprintf(buf, sizeof buf, "p50 %.6g %s / p%g %.6g %s (n=%zu)",
                      d.p50 * scale, unit, d.tail_pct, d.tail * scale, unit,
                      d.n);
    return buf;
}

}  // namespace perfbench
