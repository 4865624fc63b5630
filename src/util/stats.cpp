#include "util/stats.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "util/bytes.hpp"

namespace sfi {

void RunningStats::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

void RunningStats::merge(const RunningStats& other) {
    if (other.n_ == 0) return;
    if (n_ == 0) {
        *this = other;
        return;
    }
    const auto na = static_cast<double>(n_);
    const auto nb = static_cast<double>(other.n_);
    const double delta = other.mean_ - mean_;
    const double total = na + nb;
    mean_ += delta * nb / total;
    m2_ += other.m2_ + delta * delta * na * nb / total;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
    n_ += other.n_;
}

void RunningStats::reset() { *this = RunningStats{}; }

void RunningStats::save(ByteWriter& out) const {
    out.put(static_cast<std::uint64_t>(n_)).put(mean_).put(m2_).put(min_).put(max_);
}

RunningStats RunningStats::load(ByteReader& in) {
    RunningStats stats;
    stats.n_ = static_cast<std::size_t>(in.get<std::uint64_t>());
    for (double* v : {&stats.mean_, &stats.m2_, &stats.min_, &stats.max_})
        *v = in.get<double>();
    return stats;
}

double RunningStats::variance() const {
    if (n_ < 2) return 0.0;
    return m2_ / static_cast<double>(n_ - 1);
}

double RunningStats::stddev() const { return std::sqrt(variance()); }

double quantile(std::vector<double> values, double q) {
    if (values.empty()) throw std::invalid_argument("quantile of empty sample");
    q = std::clamp(q, 0.0, 1.0);
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const auto idx = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(idx);
    if (idx + 1 >= values.size()) return values.back();
    return values[idx] * (1.0 - frac) + values[idx + 1] * frac;
}

Interval wilson_interval(std::uint64_t successes, std::uint64_t trials,
                         double z) {
    if (trials == 0) return {0.0, 1.0};
    if (successes > trials)
        throw std::invalid_argument("wilson_interval: successes > trials");
    const double n = static_cast<double>(trials);
    const double p = static_cast<double>(successes) / n;
    const double z2 = z * z;
    const double denom = 1.0 + z2 / n;
    const double center = (p + z2 / (2.0 * n)) / denom;
    const double half =
        z * std::sqrt(p * (1.0 - p) / n + z2 / (4.0 * n * n)) / denom;
    return {std::max(0.0, center - half), std::min(1.0, center + half)};
}

double mean_of(const std::vector<double>& values) {
    if (values.empty()) return 0.0;
    double sum = 0.0;
    for (double v : values) sum += v;
    return sum / static_cast<double>(values.size());
}

Histogram::Histogram(double lo, double hi, std::size_t bins)
    : lo_(lo), hi_(hi), width_((hi - lo) / static_cast<double>(bins)), counts_(bins, 0) {
    if (bins == 0) throw std::invalid_argument("Histogram needs at least one bin");
    if (!(hi > lo)) throw std::invalid_argument("Histogram range must be non-empty");
}

void Histogram::add(double x) {
    auto bin = static_cast<std::ptrdiff_t>((x - lo_) / width_);
    bin = std::clamp<std::ptrdiff_t>(bin, 0, static_cast<std::ptrdiff_t>(counts_.size()) - 1);
    ++counts_[static_cast<std::size_t>(bin)];
    ++total_;
}

double Histogram::bin_low(std::size_t bin) const {
    return lo_ + width_ * static_cast<double>(bin);
}

double Histogram::bin_high(std::size_t bin) const {
    return lo_ + width_ * static_cast<double>(bin + 1);
}

void EmpiricalCdf::add_all(const std::vector<double>& xs) {
    samples_.insert(samples_.end(), xs.begin(), xs.end());
    finalized_ = false;
}

void EmpiricalCdf::finalize() {
    std::sort(samples_.begin(), samples_.end());
    finalized_ = true;
}

double EmpiricalCdf::fraction_at_most(double x) const {
    assert(finalized_ && "EmpiricalCdf::finalize() must be called first");
    if (samples_.empty()) return 0.0;
    const auto it = std::upper_bound(samples_.begin(), samples_.end(), x);
    return static_cast<double>(it - samples_.begin()) /
           static_cast<double>(samples_.size());
}

double EmpiricalCdf::min() const {
    assert(finalized_ && !samples_.empty());
    return samples_.front();
}

double EmpiricalCdf::max() const {
    assert(finalized_ && !samples_.empty());
    return samples_.back();
}

double EmpiricalCdf::quantile(double q) const {
    assert(finalized_ && !samples_.empty());
    q = std::clamp(q, 0.0, 1.0);
    const double pos = q * static_cast<double>(samples_.size() - 1);
    const auto idx = static_cast<std::size_t>(pos);
    const double frac = pos - static_cast<double>(idx);
    if (idx + 1 >= samples_.size()) return samples_.back();
    return samples_[idx] * (1.0 - frac) + samples_[idx + 1] * frac;
}

}  // namespace sfi
