// Contracts of the perf instrumentation subsystem (src/perf/):
//  * Stopwatch is monotonic (steady clock, never negative, never
//    decreasing);
//  * PhaseProfile counters are deterministic and merge exactly — the
//    counter columns of BENCH_core.json must not depend on scheduling;
//  * the JSON emitter is stable (same input -> identical bytes) and
//    produces well-formed JSON: a minimal recursive-descent parser here
//    round-trips a full PerfReport and checks the schema keys.
#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "perf/json_writer.hpp"
#include "perf/perf.hpp"
#include "perf/report.hpp"

namespace sfi::perf {
namespace {

// ---------------------------------------------------------------------------
// Stopwatch / ScopedPhaseTimer
// ---------------------------------------------------------------------------

TEST(Stopwatch, Monotonic) {
    Stopwatch watch;
    double last = watch.seconds();
    EXPECT_GE(last, 0.0);
    for (int i = 0; i < 1000; ++i) {
        const double now = watch.seconds();
        EXPECT_GE(now, last) << "steady clock went backwards";
        last = now;
    }
}

TEST(Stopwatch, RestartRearms) {
    // Scheduling-proof formulation: after restart(), `watch`'s interval is
    // a strict subset of `reference`'s (started earlier, read later), so
    // watch.seconds() <= reference.seconds() holds on a steady clock no
    // matter how the thread is preempted between the calls.
    Stopwatch watch;
    Stopwatch reference;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    watch.restart();
    const double restarted = watch.seconds();
    const double elapsed = reference.seconds();
    EXPECT_LE(restarted, elapsed);
    EXPECT_GE(restarted, 0.0);
}

TEST(ScopedPhaseTimer, ChargesPhaseOnDestruction) {
    PhaseProfile profile;
    {
        ScopedPhaseTimer timer(&profile, Phase::TrialRun, 42);
    }
    EXPECT_EQ(profile.stats(Phase::TrialRun).calls, 1u);
    EXPECT_EQ(profile.stats(Phase::TrialRun).items, 42u);
    EXPECT_GE(profile.stats(Phase::TrialRun).seconds, 0.0);
    EXPECT_EQ(profile.stats(Phase::Aggregation).calls, 0u);
}

TEST(ScopedPhaseTimer, NullProfileIsNoOp) {
    ScopedPhaseTimer timer(nullptr, Phase::DtaEval, 7);  // must not crash
}

// ---------------------------------------------------------------------------
// PhaseProfile determinism
// ---------------------------------------------------------------------------

TEST(PhaseProfile, CountersAccumulateExactly) {
    PhaseProfile profile;
    for (std::uint64_t i = 0; i < 100; ++i)
        profile.add(Phase::FaultSampling, 0.001, i);
    EXPECT_EQ(profile.stats(Phase::FaultSampling).calls, 100u);
    EXPECT_EQ(profile.stats(Phase::FaultSampling).items, 99u * 100u / 2u);
}

// The supported concurrent pattern: one profile per worker, merged on the
// dispatch thread. The merged counter columns must equal a serial run's
// regardless of how the threads interleaved.
TEST(PhaseProfile, PerWorkerMergeIsDeterministicAcrossThreads) {
    constexpr std::size_t kWorkers = 8;
    constexpr std::uint64_t kAddsPerWorker = 1000;

    std::vector<PhaseProfile> profiles(kWorkers);
    std::vector<std::thread> pool;
    for (std::size_t w = 0; w < kWorkers; ++w)
        pool.emplace_back([&profiles, w] {
            for (std::uint64_t i = 0; i < kAddsPerWorker; ++i)
                profiles[w].add(Phase::TrialRun, 1e-9, /*items=*/3);
        });
    for (std::thread& t : pool) t.join();

    PhaseProfile merged;
    for (const PhaseProfile& p : profiles) merged.merge(p);

    PhaseProfile serial;
    for (std::size_t w = 0; w < kWorkers; ++w)
        for (std::uint64_t i = 0; i < kAddsPerWorker; ++i)
            serial.add(Phase::TrialRun, 1e-9, 3);

    EXPECT_EQ(merged.stats(Phase::TrialRun).calls,
              serial.stats(Phase::TrialRun).calls);
    EXPECT_EQ(merged.stats(Phase::TrialRun).items,
              serial.stats(Phase::TrialRun).items);
}

TEST(PhaseProfile, PhaseNamesAreStableIdentifiers) {
    EXPECT_STREQ(phase_name(Phase::DtaEval), "dta_eval");
    EXPECT_STREQ(phase_name(Phase::EventSimSettle), "event_sim_settle");
    EXPECT_STREQ(phase_name(Phase::FaultSampling), "fault_sampling");
    EXPECT_STREQ(phase_name(Phase::Decode), "decode");
    EXPECT_STREQ(phase_name(Phase::TrialRun), "trial_run");
    EXPECT_STREQ(phase_name(Phase::Aggregation), "aggregation");
    EXPECT_STREQ(phase_name(Phase::FaultSamplingBatch),
                 "fault_sampling_batch");
    EXPECT_STREQ(phase_name(Phase::Forensics), "forensics");
}

// ---------------------------------------------------------------------------
// Minimal JSON parser (tests only): enough of RFC 8259 to round-trip
// BENCH_core.json — objects, arrays, strings, numbers, booleans, null.
// ---------------------------------------------------------------------------

struct JsonValue {
    enum class Kind { Object, Array, String, Number, Bool, Null } kind;
    std::map<std::string, std::shared_ptr<JsonValue>> object;
    std::vector<std::shared_ptr<JsonValue>> array;
    std::vector<std::string> object_key_order;
    std::string string;
    double number = 0.0;
    bool boolean = false;

    const JsonValue& at(const std::string& key) const {
        const auto it = object.find(key);
        if (it == object.end()) throw std::out_of_range("no key: " + key);
        return *it->second;
    }
};

class JsonParser {
public:
    explicit JsonParser(std::string_view text) : text_(text) {}

    std::shared_ptr<JsonValue> parse() {
        auto v = parse_value();
        skip_ws();
        if (pos_ != text_.size()) throw std::runtime_error("trailing data");
        return v;
    }

private:
    void skip_ws() {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }
    char peek() {
        skip_ws();
        if (pos_ >= text_.size()) throw std::runtime_error("unexpected end");
        return text_[pos_];
    }
    void expect(char c) {
        if (peek() != c)
            throw std::runtime_error(std::string("expected ") + c);
        ++pos_;
    }
    bool consume(std::string_view word) {
        skip_ws();
        if (text_.substr(pos_, word.size()) != word) return false;
        pos_ += word.size();
        return true;
    }

    std::string parse_string() {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size()) throw std::runtime_error("bad string");
            const char c = text_[pos_++];
            if (c == '"') break;
            if (c == '\\') {
                const char esc = text_[pos_++];
                switch (esc) {
                    case '"': out += '"'; break;
                    case '\\': out += '\\'; break;
                    case '/': out += '/'; break;
                    case 'n': out += '\n'; break;
                    case 'r': out += '\r'; break;
                    case 't': out += '\t'; break;
                    case 'u': {
                        const unsigned code = static_cast<unsigned>(
                            std::stoul(std::string(text_.substr(pos_, 4)),
                                       nullptr, 16));
                        pos_ += 4;
                        out += static_cast<char>(code);  // ASCII range only
                        break;
                    }
                    default: throw std::runtime_error("bad escape");
                }
            } else {
                out += c;
            }
        }
        return out;
    }

    std::shared_ptr<JsonValue> parse_value() {
        auto value = std::make_shared<JsonValue>();
        const char c = peek();
        if (c == '{') {
            value->kind = JsonValue::Kind::Object;
            expect('{');
            if (peek() != '}') {
                while (true) {
                    std::string key = parse_string();
                    expect(':');
                    value->object_key_order.push_back(key);
                    value->object[key] = parse_value();
                    if (peek() == ',') { expect(','); continue; }
                    break;
                }
            }
            expect('}');
        } else if (c == '[') {
            value->kind = JsonValue::Kind::Array;
            expect('[');
            if (peek() != ']') {
                while (true) {
                    value->array.push_back(parse_value());
                    if (peek() == ',') { expect(','); continue; }
                    break;
                }
            }
            expect(']');
        } else if (c == '"') {
            value->kind = JsonValue::Kind::String;
            value->string = parse_string();
        } else if (consume("true")) {
            value->kind = JsonValue::Kind::Bool;
            value->boolean = true;
        } else if (consume("false")) {
            value->kind = JsonValue::Kind::Bool;
            value->boolean = false;
        } else if (consume("null")) {
            value->kind = JsonValue::Kind::Null;
        } else {
            value->kind = JsonValue::Kind::Number;
            skip_ws();
            std::size_t end = pos_;
            while (end < text_.size() &&
                   (std::isdigit(static_cast<unsigned char>(text_[end])) ||
                    text_[end] == '-' || text_[end] == '+' ||
                    text_[end] == '.' || text_[end] == 'e' || text_[end] == 'E'))
                ++end;
            if (end == pos_) throw std::runtime_error("bad number");
            value->number = std::stod(std::string(text_.substr(pos_, end - pos_)));
            pos_ = end;
        }
        return value;
    }

    std::string_view text_;
    std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------------

TEST(JsonWriter, EscapesControlCharactersAndQuotes) {
    EXPECT_EQ(JsonWriter::escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(JsonWriter::escape(std::string_view("\x01", 1)), "\\u0001");
}

TEST(JsonWriter, RoundTripsScalars) {
    std::ostringstream os;
    JsonWriter json(os);
    json.begin_object();
    json.field("text", "hi \"there\"");
    json.field("pi", 3.141592653589793);
    json.field("count", std::uint64_t{18446744073709551615ULL});
    json.field("negative", std::int64_t{-42});
    json.field("yes", true);
    json.null_field("nothing");
    json.end_object();

    const auto doc = JsonParser(os.str()).parse();
    EXPECT_EQ(doc->at("text").string, "hi \"there\"");
    EXPECT_DOUBLE_EQ(doc->at("pi").number, 3.141592653589793);
    EXPECT_EQ(doc->at("negative").number, -42.0);
    EXPECT_TRUE(doc->at("yes").boolean);
    EXPECT_EQ(doc->at("nothing").kind, JsonValue::Kind::Null);
}

TEST(JsonWriter, NonFiniteDoublesBecomeNull) {
    std::ostringstream os;
    JsonWriter json(os);
    json.begin_object();
    json.field("nan", std::nan(""));
    json.field("inf", std::numeric_limits<double>::infinity());
    json.end_object();
    const auto doc = JsonParser(os.str()).parse();
    EXPECT_EQ(doc->at("nan").kind, JsonValue::Kind::Null);
    EXPECT_EQ(doc->at("inf").kind, JsonValue::Kind::Null);
}

// ---------------------------------------------------------------------------
// BENCH_core.json schema stability
// ---------------------------------------------------------------------------

PerfReport make_report() {
    PerfReport report;
    report.seed = 7;
    report.dta_cycles = 1024;
    report.trials = 256;
    report.benchmark = "median";
    report.phases.add(Phase::DtaEval, 1.25, 10240);
    report.phases.add(Phase::EventSimSettle, 1.125, 10240);
    report.phases.add(Phase::Decode, 0.0625, 512);
    report.phases.add(Phase::TrialRun, 0.5, 2560);
    KernelBench kernel;
    kernel.label = "fig1-modelB-fault";
    kernel.model = "B";
    kernel.benchmark = "median";
    kernel.freq_mhz = 708.5;
    kernel.vdd = 0.7;
    kernel.sigma_mv = 0.0;
    kernel.trials = 256;
    kernel.fast_path = true;
    kernel.scaling.push_back({1, 0.25, 1024.0});
    kernel.scaling.push_back({4, 0.0625, 4096.0});
    report.kernels.push_back(kernel);
    report.fast_path = {700.0, 42000.0, 60.0};
    report.fault_sampling = {2.9e7, 4.3e7, 8.9e7, 1.48};
    report.campaign = CampaignSample{"fig1", 1.5, 330};
    report.metrics.add("campaign.points", 33);
    report.metrics.add("campaign.trials_spent", 330);
    report.metrics.add("run.store_misses", 33);
    report.metrics.set_gauge("example.gauge", 2.5);
    report.wall_clock_s = 5.75;
    return report;
}

TEST(BenchCoreJson, EmissionIsByteStable) {
    const PerfReport report = make_report();
    std::ostringstream first, second;
    write_bench_core_json(first, report);
    write_bench_core_json(second, report);
    EXPECT_EQ(first.str(), second.str());
}

TEST(BenchCoreJson, RoundTripParseMatchesSchema) {
    const PerfReport report = make_report();
    std::ostringstream os;
    write_bench_core_json(os, report);
    const auto doc = JsonParser(os.str()).parse();

    // Top-level schema: exact keys in exact order (the stability contract
    // scripts/check_perf_regression.py and artifact diffs rely on).
    // Schema v4 inserted "metrics" (campaign counters/gauges) before
    // "campaign".
    const std::vector<std::string> expected_keys = {
        "schema",    "schema_version", "config",  "phases",
        "kernels",   "fast_path",      "fault_sampling",
        "metrics",   "campaign",       "wall_clock_s"};
    EXPECT_EQ(doc->object_key_order, expected_keys);
    EXPECT_EQ(doc->at("schema").string, "sfi-bench-core");
    EXPECT_EQ(doc->at("schema_version").number, kSchemaVersion);

    EXPECT_EQ(doc->at("config").at("seed").number, 7.0);
    EXPECT_EQ(doc->at("config").at("benchmark").string, "median");

    // One phase row per taxonomy entry, in enum order, values preserved —
    // except "forensics", which is emitted only when it ran (calls > 0):
    // make_report never touches it, so exactly kPhaseCount - 1 rows here.
    // Schema v2 inserted "decode" (micro-op lowering) before "trial_run".
    const auto& phases = doc->at("phases").array;
    ASSERT_EQ(phases.size(), kPhaseCount - 1);
    EXPECT_EQ(phases[0]->at("phase").string, "dta_eval");
    EXPECT_DOUBLE_EQ(phases[0]->at("seconds").number, 1.25);
    EXPECT_EQ(phases[0]->at("items").number, 10240.0);
    EXPECT_EQ(phases[3]->at("phase").string, "decode");
    EXPECT_EQ(phases[3]->at("items").number, 512.0);
    EXPECT_EQ(phases[4]->at("phase").string, "trial_run");
    EXPECT_EQ(phases[5]->at("phase").string, "aggregation");
    EXPECT_EQ(phases[5]->at("calls").number, 0.0);
    // Schema v3 appended "fault_sampling_batch" (block-prefetched draws).
    EXPECT_EQ(phases[6]->at("phase").string, "fault_sampling_batch");

    const auto& kernels = doc->at("kernels").array;
    ASSERT_EQ(kernels.size(), 1u);
    EXPECT_EQ(kernels[0]->at("label").string, "fig1-modelB-fault");
    EXPECT_TRUE(kernels[0]->at("fast_path").boolean);
    ASSERT_EQ(kernels[0]->at("scaling").array.size(), 2u);
    EXPECT_EQ(kernels[0]->at("scaling").array[1]->at("threads").number, 4.0);
    EXPECT_DOUBLE_EQ(
        kernels[0]->at("scaling").array[1]->at("trials_per_sec").number,
        4096.0);

    EXPECT_DOUBLE_EQ(doc->at("fast_path").at("speedup").number, 60.0);
    // Schema v3: the within-run fault-sampling comparison the perf gate
    // reads (batched_speedup is its machine-independent floor metric).
    EXPECT_DOUBLE_EQ(doc->at("fault_sampling").at("scalar_ops_per_sec").number,
                     2.9e7);
    EXPECT_DOUBLE_EQ(
        doc->at("fault_sampling").at("batched_ops_per_sec").number, 4.3e7);
    EXPECT_DOUBLE_EQ(
        doc->at("fault_sampling").at("quantized_ops_per_sec").number, 8.9e7);
    EXPECT_DOUBLE_EQ(doc->at("fault_sampling").at("batched_speedup").number,
                     1.48);
    EXPECT_FALSE(doc->at("fault_sampling").at("avx2").boolean);
    EXPECT_EQ(doc->at("campaign").at("figure").string, "fig1");
    EXPECT_EQ(doc->at("campaign").at("trials_spent").number, 330.0);

    // Schema v4: counters in sorted name order, gauges likewise.
    const auto& counters = doc->at("metrics").at("counters").array;
    ASSERT_EQ(counters.size(), 3u);
    EXPECT_EQ(counters[0]->at("name").string, "campaign.points");
    EXPECT_EQ(counters[0]->at("value").number, 33.0);
    EXPECT_EQ(counters[1]->at("name").string, "campaign.trials_spent");
    EXPECT_EQ(counters[2]->at("name").string, "run.store_misses");
    const auto& gauges = doc->at("metrics").at("gauges").array;
    ASSERT_EQ(gauges.size(), 1u);
    EXPECT_EQ(gauges[0]->at("name").string, "example.gauge");
    EXPECT_DOUBLE_EQ(gauges[0]->at("value").number, 2.5);

    EXPECT_DOUBLE_EQ(doc->at("wall_clock_s").number, 5.75);
}

TEST(BenchCoreJson, ForensicsPhaseRowOnlyWhenRun) {
    PerfReport report = make_report();
    report.phases.add(Phase::Forensics, 0.25, 64);
    std::ostringstream os;
    write_bench_core_json(os, report);
    const auto doc = JsonParser(os.str()).parse();
    const auto& phases = doc->at("phases").array;
    ASSERT_EQ(phases.size(), kPhaseCount);
    EXPECT_EQ(phases[7]->at("phase").string, "forensics");
    EXPECT_DOUBLE_EQ(phases[7]->at("seconds").number, 0.25);
    EXPECT_EQ(phases[7]->at("items").number, 64.0);
}

TEST(BenchCoreJson, AbsentCampaignIsNull) {
    PerfReport report = make_report();
    report.campaign.reset();
    std::ostringstream os;
    write_bench_core_json(os, report);
    const auto doc = JsonParser(os.str()).parse();
    EXPECT_EQ(doc->at("campaign").kind, JsonValue::Kind::Null);
}

}  // namespace
}  // namespace sfi::perf
