#include "fi/cdf.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <numeric>
#include <stdexcept>

#include "util/bytes.hpp"

namespace sfi {

namespace {
constexpr std::uint32_t kMagic = 0x53464943;  // "SFIC"
constexpr std::uint32_t kVersion = 1;

/// True when `arrivals` ascends and holds no NaN or infinity. A NaN fails
/// its neighbour comparison and a sorted run can hold infinities only at
/// its ends. OR-ing the comparisons instead of branching lets the loop
/// vectorize, which keeps the check cheap next to the read itself.
bool sorted_and_finite(const std::vector<float>& arrivals) {
    if (arrivals.empty()) return true;
    const float* a = arrivals.data();
    std::uint32_t descent = 0;
    for (std::size_t k = 1; k < arrivals.size(); ++k)
        descent |= !(a[k - 1] <= a[k]);
    return descent == 0 && std::isfinite(arrivals.front()) &&
           std::isfinite(arrivals.back());
}
}  // namespace

TimingErrorCdfs TimingErrorCdfs::from_dta(const DtaResult& dta) {
    TimingErrorCdfs store;
    store.setup_ps_ = dta.setup_ps;
    store.samples_ = dta.cycles;
    for (const DtaClassResult& cls_result : dta.classes) {
        PerClass& pc = store.classes_.at(static_cast<std::size_t>(cls_result.cls));
        pc.present = true;
        pc.sorted_arrivals = cls_result.arrivals_ps;
        for (auto& samples : pc.sorted_arrivals)
            std::sort(samples.begin(), samples.end());
        store.endpoints_ =
            std::max(store.endpoints_, pc.sorted_arrivals.size());
    }
    store.rebuild_derived();
    return store;
}

void TimingErrorCdfs::rebuild_derived() {
    for (PerClass& pc : classes_) {
        if (!pc.present) continue;
        const std::size_t n = pc.sorted_arrivals.size();
        pc.max_window_ps.assign(n, 0.0);
        for (std::size_t e = 0; e < n; ++e)
            if (!pc.sorted_arrivals[e].empty())
                pc.max_window_ps[e] =
                    static_cast<double>(pc.sorted_arrivals[e].back()) + setup_ps_;
        pc.order.resize(n);
        std::iota(pc.order.begin(), pc.order.end(), 0u);
        std::sort(pc.order.begin(), pc.order.end(),
                  [&](std::uint32_t lhs, std::uint32_t rhs) {
                      return pc.max_window_ps[lhs] > pc.max_window_ps[rhs];
                  });
        pc.class_max_window_ps =
            n ? *std::max_element(pc.max_window_ps.begin(), pc.max_window_ps.end())
              : 0.0;
    }
}

const TimingErrorCdfs::PerClass& TimingErrorCdfs::per_class(ExClass cls) const {
    const PerClass& pc = classes_.at(static_cast<std::size_t>(cls));
    if (!pc.present)
        throw std::out_of_range(std::string("TimingErrorCdfs: class not characterized: ") +
                                ex_class_name(cls));
    return pc;
}

bool TimingErrorCdfs::has_class(ExClass cls) const {
    return classes_.at(static_cast<std::size_t>(cls)).present;
}

double TimingErrorCdfs::violation_prob(ExClass cls, std::size_t endpoint,
                                       double capture_window_ps) const {
    const std::size_t samples = endpoint_sample_count(cls, endpoint);
    if (samples == 0) return 0.0;
    // Model C's memoized walk (fi/models.cpp) divides the same two
    // integers, so both paths compare rng_.chance against the same double.
    return static_cast<double>(violation_count(cls, endpoint, capture_window_ps)) /
           static_cast<double>(samples);
}

std::size_t TimingErrorCdfs::violation_count(ExClass cls, std::size_t endpoint,
                                             double capture_window_ps) const {
    const auto& samples = per_class(cls).sorted_arrivals.at(endpoint);
    const double threshold = capture_window_ps - setup_ps_;
    // Violated samples are those with arrival > threshold.
    const auto it = std::upper_bound(samples.begin(), samples.end(), threshold,
                                     [](double t, float s) {
                                         return t < static_cast<double>(s);
                                     });
    return static_cast<std::size_t>(samples.end() - it);
}

std::size_t TimingErrorCdfs::endpoint_sample_count(ExClass cls,
                                                   std::size_t endpoint) const {
    return per_class(cls).sorted_arrivals.at(endpoint).size();
}

double TimingErrorCdfs::class_max_window_ps(ExClass cls) const {
    return per_class(cls).class_max_window_ps;
}

double TimingErrorCdfs::endpoint_max_window_ps(ExClass cls,
                                               std::size_t endpoint) const {
    return per_class(cls).max_window_ps.at(endpoint);
}

double TimingErrorCdfs::max_window_ps() const {
    double worst = 0.0;
    for (const PerClass& pc : classes_)
        if (pc.present) worst = std::max(worst, pc.class_max_window_ps);
    return worst;
}

const std::vector<std::uint32_t>& TimingErrorCdfs::endpoints_by_criticality(
    ExClass cls) const {
    return per_class(cls).order;
}

void TimingErrorCdfs::save(std::ostream& os) const {
    ByteWriter header;
    header.put(kMagic).put(kVersion).put(setup_ps_);
    header.put(static_cast<std::uint64_t>(endpoints_));
    header.put(static_cast<std::uint64_t>(samples_));
    header.write_to(os);
    // One buffer per class: a whole cache is megabytes, and buffering it
    // at once would raise a cold characterization's peak memory.
    for (const PerClass& pc : classes_) {
        ByteWriter out;
        out.put(static_cast<std::uint8_t>(pc.present));
        if (pc.present) {
            out.put(static_cast<std::uint64_t>(pc.sorted_arrivals.size()));
            for (const auto& samples : pc.sorted_arrivals)
                out.put(static_cast<std::uint64_t>(samples.size()))
                    .put_bytes(samples.data(), samples.size() * sizeof(float));
        }
        out.write_to(os);
    }
}

TimingErrorCdfs TimingErrorCdfs::load(std::istream& is) {
    ByteReader in(is, "TimingErrorCdfs");
    if (in.get<std::uint32_t>() != kMagic) in.fail("bad magic");
    if (in.get<std::uint32_t>() != kVersion) in.fail("unsupported version");
    TimingErrorCdfs store;
    store.setup_ps_ = in.get<double>();
    if (!std::isfinite(store.setup_ps_)) in.fail("non-finite setup time");
    // Every endpoint needs its 8-byte count and `samples` floats, so no
    // valid count exceeds what is left of the stream; a flipped count
    // fails here instead of zero-filling gigabytes first. The per-class
    // and per-endpoint counts below must then match these two.
    const auto endpoints_max = in.get<std::uint64_t>();
    const auto samples = in.get<std::uint64_t>();
    in.bound(endpoints_max, sizeof(std::uint64_t));
    in.bound(samples, sizeof(float));
    std::uint64_t endpoints_seen = 0;
    for (PerClass& pc : store.classes_) {
        const auto present = in.get<std::uint8_t>();
        if (present > 1) in.fail("bad class flag");
        pc.present = present != 0;
        if (!pc.present) continue;
        const auto endpoints = in.get<std::uint64_t>();
        if (endpoints > endpoints_max) in.fail("bad endpoint count");
        endpoints_seen = std::max(endpoints_seen, endpoints);
        pc.sorted_arrivals.reserve(in.bound(endpoints, sizeof(std::uint64_t)));
        for (std::uint64_t e = 0; e < endpoints; ++e) {
            if (in.get<std::uint64_t>() != samples) in.fail("bad sample count");
            auto& arrivals = pc.sorted_arrivals.emplace_back();
            in.get_array(arrivals, samples);
            if (!sorted_and_finite(arrivals))
                in.fail("unsorted or non-finite arrivals");
        }
    }
    if (endpoints_seen != endpoints_max) in.fail("header endpoint count mismatch");
    store.endpoints_ = static_cast<std::size_t>(endpoints_max);
    store.samples_ = static_cast<std::size_t>(samples);
    store.rebuild_derived();
    return store;
}

void TimingErrorCdfs::save_file(const std::string& path) const {
    std::ofstream os(path, std::ios::binary);
    if (!os) throw std::runtime_error("TimingErrorCdfs: cannot write " + path);
    save(os);
}

TimingErrorCdfs TimingErrorCdfs::load_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("TimingErrorCdfs: cannot read " + path);
    return load(is);
}

bool TimingErrorCdfs::operator==(const TimingErrorCdfs& other) const {
    if (setup_ps_ != other.setup_ps_ || endpoints_ != other.endpoints_ ||
        samples_ != other.samples_)
        return false;
    for (std::size_t c = 0; c < classes_.size(); ++c) {
        if (classes_[c].present != other.classes_[c].present) return false;
        if (classes_[c].present &&
            classes_[c].sorted_arrivals != other.classes_[c].sorted_arrivals)
            return false;
    }
    return true;
}

}  // namespace sfi
