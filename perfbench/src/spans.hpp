// In-memory span recorder for the traced benchmark run.
//
// Spans are recorded around the benchmark's calls into the library (the
// library itself is not instrumented), kept in memory while the campaign
// runs and written out once at the end, so recording costs a clock read
// and a vector push per boundary. Each span has a name (a string literal
// naming the layer call), start and end, the span that was open when it
// began (its parent) and the campaign point it belongs to.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline constexpr std::int64_t kNoPoint = -1;

struct Span {
    const char* name = "";
    double start_s = 0.0;  ///< seconds since the recorder was created
    double end_s = 0.0;
    int parent = -1;       ///< index into spans(), -1 for a root span
    std::int64_t point = kNoPoint;  ///< campaign point the span serves
    double duration() const { return end_s - start_s; }
};

class SpanRecorder {
public:
    SpanRecorder();

    /// Opens a span under the innermost open span; returns its index.
    int begin(const char* name, std::int64_t point = kNoPoint);
    void end(int id);

    /// Records a finished span with explicit times (tests, replays).
    int record(const char* name, double start_s, double end_s, int parent,
               std::int64_t point = kNoPoint);

    /// RAII form of begin/end.
    class Scope {
    public:
        Scope(SpanRecorder& recorder, const char* name,
              std::int64_t point = kNoPoint)
            : recorder_(recorder), id_(recorder.begin(name, point)) {}
        ~Scope() { recorder_.end(id_); }
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanRecorder& recorder_;
        int id_;
    };

    const std::vector<Span>& spans() const { return spans_; }

    /// Self time of every span: its duration minus the part of its
    /// interval covered by its direct children (overlapping children are
    /// counted once; child time outside the parent is ignored).
    std::vector<double> self_times() const;

    /// Durations of all spans named `name`, in recording order.
    std::vector<double> durations(const std::string& name) const;

    /// Writes the spans as Chrome trace-event JSON ("X" events, µs), with
    /// parent, point and self time in each event's args.
    void write_chrome_trace(const std::string& path) const;

private:
    double now() const;

    std::chrono::steady_clock::time_point epoch_;
    std::vector<Span> spans_;
    std::vector<int> open_;  ///< stack of open span indices
};

}  // namespace perfbench
