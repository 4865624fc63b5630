#include "spans.hpp"

#include <algorithm>
#include <fstream>
#include <stdexcept>
#include <utility>

namespace perfbench {

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now()) {}

double SpanRecorder::now() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         epoch_)
        .count();
}

int SpanRecorder::begin(const char* name, std::int64_t point) {
    const int parent = open_.empty() ? -1 : open_.back();
    const double t = now();
    spans_.push_back({name, t, t, parent, point});
    open_.push_back(static_cast<int>(spans_.size() - 1));
    return open_.back();
}

void SpanRecorder::end(int id) {
    if (open_.empty() || open_.back() != id)
        throw std::logic_error("SpanRecorder: spans must close innermost first");
    spans_[static_cast<std::size_t>(id)].end_s = now();
    open_.pop_back();
}

int SpanRecorder::record(const char* name, double start_s, double end_s,
                         int parent, std::int64_t point) {
    spans_.push_back({name, start_s, end_s, parent, point});
    return static_cast<int>(spans_.size() - 1);
}

std::vector<double> SpanRecorder::self_times() const {
    std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
    for (const Span& s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_s,
                                                                      s.end_s);
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        // Union of the child intervals clipped to the parent's interval.
        double covered = 0.0;
        double reach = s.start_s;
        for (const auto& [lo, hi] : kids) {
            const double a = std::max(lo, reach);
            const double b = std::min(hi, s.end_s);
            if (b > a) covered += b - a;
            reach = std::max(reach, std::min(hi, s.end_s));
        }
        self[i] = s.duration() - covered;
    }
    return self;
}

std::vector<double> SpanRecorder::durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_)
        if (name == s.name) out.push_back(s.duration());
    return out;
}

void SpanRecorder::write_chrome_trace(const std::string& path) const {
    std::ofstream os(path);
    if (!os) throw std::runtime_error("cannot write span trace " + path);
    const std::vector<double> self = self_times();
    os.setf(std::ios::fixed);
    os.precision(3);  // µs with ns resolution
    os << "{\"traceEvents\": [\n";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span& s = spans_[i];
        os << (i ? ",\n" : "") << "{\"name\": \"" << s.name
           << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": "
           << s.start_s * 1e6 << ", \"dur\": " << s.duration() * 1e6
           << ", \"args\": {\"id\": " << i << ", \"parent\": " << s.parent
           << ", \"point\": " << s.point << ", \"self_us\": " << self[i] * 1e6
           << "}}";
    }
    os << "\n]}\n";
    if (!os.flush()) throw std::runtime_error("write to " + path + " failed");
}

}  // namespace perfbench
