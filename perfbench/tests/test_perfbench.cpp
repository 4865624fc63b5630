// Unit tests of the benchmark's own arithmetic: the tail-percentile rule
// and span self time. Run with `ctest --test-dir .bench_build/perfbench`.
#include <cmath>
#include <cstdio>
#include <vector>

#include "spans.hpp"
#include "stats.hpp"

namespace {

int failures = 0;

void check(bool ok, const char* what, int line) {
    if (!ok) {
        std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
        ++failures;
    }
}
#define CHECK(cond) check((cond), #cond, __LINE__)

bool near(double a, double b) { return std::fabs(a - b) < 1e-12; }

std::vector<double> one_to(int n) {
    std::vector<double> v;
    for (int i = 1; i <= n; ++i) v.push_back(i);
    return v;
}

void test_tail_percentile_rule() {
    using perfbench::tail_percentile;
    // Fewer than 20 samples: even the median leaves < 10 above it.
    CHECK(tail_percentile(0) == 100.0);
    CHECK(tail_percentile(19) == 100.0);
    CHECK(tail_percentile(20) == 50.0);   // rank 10, 10 above
    CHECK(tail_percentile(39) == 50.0);   // p75 rank 30 leaves 9
    CHECK(tail_percentile(40) == 75.0);   // rank 30, 10 above
    CHECK(tail_percentile(99) == 75.0);   // p90 rank 90 leaves 9
    CHECK(tail_percentile(100) == 90.0);
    CHECK(tail_percentile(200) == 95.0);
    CHECK(tail_percentile(999) == 95.0);  // p99 rank 990 leaves 9
    CHECK(tail_percentile(1000) == 99.0);
    CHECK(tail_percentile(10000) == 99.9);
    // The rule itself: every reported tail leaves >= 10 samples above it.
    for (std::size_t n = 20; n < 3000; ++n) {
        const double pct = tail_percentile(n);
        const std::vector<double> v = one_to(static_cast<int>(n));
        const double value = perfbench::percentile_sorted(v, pct);
        std::size_t above = 0;
        for (double x : v) above += x > value;
        CHECK(above >= perfbench::kTailBeyond);
    }
}

void test_summarize() {
    const perfbench::Distribution d = perfbench::summarize(one_to(100));
    CHECK(d.n == 100);
    CHECK(near(d.p50, 50.5));
    CHECK(d.tail_pct == 90.0);
    CHECK(near(d.tail, 90.0));
    const perfbench::Distribution small =
        perfbench::summarize(std::vector<double>{3.0, 1.0, 2.0});
    CHECK(near(small.p50, 2.0));
    CHECK(small.tail_pct == 100.0);
    CHECK(near(small.tail, 3.0));  // the maximum
    CHECK(perfbench::summarize(std::vector<double>{}).n == 0);
    CHECK(near(perfbench::median(std::vector<double>{4.0, 1.0, 3.0, 2.0}), 2.5));
    const perfbench::Ratio quarter{3.0, 4.0};
    const perfbench::Ratio no_base{3.0, 0.0};
    CHECK(near(quarter.value(), 0.75));
    CHECK(no_base.value() == 0.0);
}

void test_self_time() {
    perfbench::SpanRecorder r;
    const int root = r.record("root", 0.0, 10.0, -1);
    r.record("a", 1.0, 3.0, root);
    r.record("b", 2.0, 5.0, root);   // overlaps a: union [1, 5] = 4
    r.record("c", 9.0, 12.0, root);  // sticks out: only [9, 10] counts
    const int d = r.record("d", 6.0, 8.0, root);
    r.record("e", 6.5, 7.0, d, 42);  // grandchild: charged to d, not root
    const std::vector<double> self = r.self_times();
    CHECK(near(self[0], 10.0 - (4.0 + 1.0 + 2.0)));
    CHECK(near(self[1], 2.0));
    CHECK(near(self[4], 1.5));
    CHECK(near(self[5], 0.5));
    CHECK(r.spans()[5].point == 42);
    CHECK(r.durations("b").size() == 1 && near(r.durations("b")[0], 3.0));
}

void test_live_spans_nest() {
    perfbench::SpanRecorder r;
    {
        const perfbench::SpanRecorder::Scope outer(r, "outer", 7);
        const perfbench::SpanRecorder::Scope inner(r, "inner", 7);
    }
    CHECK(r.spans().size() == 2);
    CHECK(r.spans()[0].parent == -1);
    CHECK(r.spans()[1].parent == 0);
    CHECK(r.spans()[1].start_s >= r.spans()[0].start_s);
    CHECK(r.spans()[1].end_s <= r.spans()[0].end_s);
    CHECK(r.self_times()[0] >= 0.0);
}

}  // namespace

int main() {
    test_tail_percentile_rule();
    test_summarize();
    test_self_time();
    test_live_spans_nest();
    if (failures == 0) std::puts("perfbench_tests: all passed");
    return failures == 0 ? 0 : 1;
}
