#include "fi/cdf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "util/rng.hpp"

namespace sfi {
namespace {

/// Builds a tiny synthetic DTA result: two classes, 4 endpoints.
DtaResult synthetic_dta() {
    DtaResult dta;
    dta.setup_ps = 10.0;
    dta.cycles = 4;
    DtaClassResult add;
    add.cls = ExClass::Add;
    add.arrivals_ps = {
        {0.0f, 100.0f, 200.0f, 300.0f},  // endpoint 0
        {0.0f, 0.0f, 0.0f, 0.0f},        // endpoint 1: never toggles
        {50.0f, 50.0f, 50.0f, 50.0f},    // endpoint 2
        {400.0f, 100.0f, 0.0f, 200.0f},  // endpoint 3 (unsorted on purpose)
    };
    add.max_arrival_ps = 400.0;
    DtaClassResult mul;
    mul.cls = ExClass::Mul;
    mul.arrivals_ps = {
        {500.0f, 500.0f, 500.0f, 500.0f},
        {0.0f, 0.0f, 0.0f, 600.0f},
        {0.0f, 0.0f, 0.0f, 0.0f},
        {100.0f, 100.0f, 100.0f, 100.0f},
    };
    mul.max_arrival_ps = 600.0;
    dta.classes = {add, mul};
    dta.worst_arrival_ps = 600.0;
    return dta;
}

TEST(TimingErrorCdfs, ViolationProbabilityFromSortedSamples) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    // Endpoint 0 of add: arrivals {0,100,200,300}, setup 10.
    // window 320 -> threshold 310 -> 0 violations.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 0, 320.0), 0.0);
    // window 250 -> threshold 240 -> one sample (300) above.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 0, 250.0), 0.25);
    // window 60 -> threshold 50 -> samples 100,200,300 above.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 0, 60.0), 0.75);
    // window 5 -> threshold -5 -> everything (incl. zero arrivals) above.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 0, 5.0), 1.0);
}

TEST(TimingErrorCdfs, BoundaryIsExclusive) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    // threshold exactly at a sample value: violation requires arrival >
    // threshold, so the sample at 50 does not count.
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 2, 60.0), 0.0);
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 2, 59.999), 1.0);
}

TEST(TimingErrorCdfs, NonTogglingEndpointNeverViolates) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    EXPECT_DOUBLE_EQ(cdfs.violation_prob(ExClass::Add, 1, 15.0), 0.0);
    EXPECT_DOUBLE_EQ(cdfs.endpoint_max_window_ps(ExClass::Add, 1), 10.0);
}

TEST(TimingErrorCdfs, MaxWindows) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    EXPECT_DOUBLE_EQ(cdfs.class_max_window_ps(ExClass::Add), 410.0);
    EXPECT_DOUBLE_EQ(cdfs.class_max_window_ps(ExClass::Mul), 610.0);
    EXPECT_DOUBLE_EQ(cdfs.max_window_ps(), 610.0);
    EXPECT_DOUBLE_EQ(cdfs.endpoint_max_window_ps(ExClass::Mul, 3), 110.0);
}

TEST(TimingErrorCdfs, CriticalityOrderSortsByMaxWindow) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    const auto& order = cdfs.endpoints_by_criticality(ExClass::Mul);
    ASSERT_EQ(order.size(), 4u);
    EXPECT_EQ(order[0], 1u);  // 610
    EXPECT_EQ(order[1], 0u);  // 510
    EXPECT_EQ(order[2], 3u);  // 110
    EXPECT_EQ(order[3], 2u);  // 10 (never toggles)
}

TEST(TimingErrorCdfs, MissingClassThrows) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    EXPECT_TRUE(cdfs.has_class(ExClass::Add));
    EXPECT_FALSE(cdfs.has_class(ExClass::Xor));
    EXPECT_THROW(cdfs.violation_prob(ExClass::Xor, 0, 100.0), std::out_of_range);
}

TEST(TimingErrorCdfs, SaveLoadRoundTrip) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    std::stringstream buffer;
    cdfs.save(buffer);
    const auto loaded = TimingErrorCdfs::load(buffer);
    EXPECT_TRUE(loaded == cdfs);
    EXPECT_DOUBLE_EQ(loaded.violation_prob(ExClass::Add, 0, 250.0), 0.25);
    EXPECT_DOUBLE_EQ(loaded.setup_ps(), 10.0);
    EXPECT_EQ(loaded.samples_per_endpoint(), 4u);
}

TEST(TimingErrorCdfs, LoadRejectsGarbage) {
    std::stringstream buffer("not a cdf store at all");
    EXPECT_THROW(TimingErrorCdfs::load(buffer), std::runtime_error);
}

TEST(TimingErrorCdfs, LoadRejectsTruncated) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    std::stringstream buffer;
    cdfs.save(buffer);
    std::string bytes = buffer.str();
    bytes.resize(bytes.size() / 2);
    std::stringstream half(bytes);
    EXPECT_THROW(TimingErrorCdfs::load(half), std::runtime_error);
}

TEST(TimingErrorCdfs, FileRoundTrip) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    const std::string path = std::string(::testing::TempDir()) + "cdfs.bin";
    cdfs.save_file(path);
    const auto loaded = TimingErrorCdfs::load_file(path);
    EXPECT_TRUE(loaded == cdfs);
    std::remove(path.c_str());
}

TEST(TimingErrorCdfs, MonotoneInWindow) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    double prev = 1.0;
    for (double window = 0.0; window <= 700.0; window += 13.0) {
        const double p = cdfs.violation_prob(ExClass::Mul, 0, window);
        EXPECT_LE(p, prev + 1e-12);
        prev = p;
    }
}

// ---------------------------------------------------------------------------
// Hostile cache files: load() accepts exactly the stores save() can write.
// ---------------------------------------------------------------------------

std::string saved_bytes(const TimingErrorCdfs& cdfs) {
    std::stringstream buffer;
    cdfs.save(buffer);
    return buffer.str();
}

/// Byte offsets of the fields of a saved store (the layout save() writes).
struct SavedLayout {
    std::vector<std::size_t> counts;  // u64: header endpoints/samples, per-class and per-endpoint counts
    std::vector<std::size_t> floats;  // every arrival sample
    std::vector<std::size_t> flags;   // per-class presence bytes
    std::size_t size = 0;
};

SavedLayout saved_layout(const TimingErrorCdfs& cdfs) {
    SavedLayout layout;
    std::size_t at = 4 + 4 + 8;  // magic, version, setup
    layout.counts = {at, at + 8};
    at += 16;
    for (std::size_t c = 0; c < kExClassCount; ++c) {
        const auto cls = static_cast<ExClass>(c);
        layout.flags.push_back(at++);
        if (!cdfs.has_class(cls)) continue;
        layout.counts.push_back(at);
        at += 8;
        const std::size_t endpoints = cdfs.endpoints_by_criticality(cls).size();
        for (std::size_t e = 0; e < endpoints; ++e) {
            layout.counts.push_back(at);
            at += 8;
            for (std::size_t k = 0; k < cdfs.endpoint_sample_count(cls, e); ++k) {
                layout.floats.push_back(at);
                at += 4;
            }
        }
    }
    layout.size = at;
    return layout;
}

/// A random valid store: three classes, 6 endpoints, 12 samples each, with
/// ties and never-toggling endpoints.
TimingErrorCdfs random_store(std::uint64_t seed) {
    Rng rng(seed);
    DtaResult dta;
    dta.setup_ps = 5.0 + rng.uniform(0.0, 10.0);
    dta.cycles = 12;
    for (const ExClass cls : {ExClass::Add, ExClass::Mul, ExClass::Sll}) {
        DtaClassResult result;
        result.cls = cls;
        result.arrivals_ps.resize(6);
        for (auto& samples : result.arrivals_ps)
            for (std::size_t k = 0; k < dta.cycles; ++k)
                samples.push_back(rng.chance(0.3) ? 0.0f
                                                  : static_cast<float>(rng.bounded(40) * 25));
        dta.classes.push_back(std::move(result));
    }
    return TimingErrorCdfs::from_dta(dta);
}

/// The invariants model C's memoized walk assumes, plus a byte-exact
/// save/load round trip: what "a valid store" means below.
void expect_valid(const TimingErrorCdfs& cdfs, const std::string& what) {
    ASSERT_TRUE(std::isfinite(cdfs.setup_ps())) << what;
    std::size_t widest = 0;
    for (std::size_t c = 0; c < kExClassCount; ++c) {
        const auto cls = static_cast<ExClass>(c);
        if (!cdfs.has_class(cls)) continue;
        const std::size_t endpoints = cdfs.endpoints_by_criticality(cls).size();
        widest = std::max(widest, endpoints);
        ASSERT_TRUE(std::isfinite(cdfs.class_max_window_ps(cls))) << what;
        for (std::size_t e = 0; e < endpoints; ++e) {
            ASSERT_EQ(cdfs.endpoint_sample_count(cls, e), cdfs.samples_per_endpoint())
                << what;
            double prev = 1.0;
            for (double window = -50.0; window < 1100.0; window += 37.0) {
                const double p = cdfs.violation_prob(cls, e, window);
                ASSERT_GE(p, 0.0) << what;
                ASSERT_LE(p, prev) << what;
                prev = p;
            }
        }
    }
    ASSERT_EQ(widest, cdfs.endpoint_count()) << what;
    std::stringstream again(saved_bytes(cdfs));
    ASSERT_TRUE(TimingErrorCdfs::load(again) == cdfs) << what;
}

/// Loads `bytes`: a rejection must be std::runtime_error (never
/// bad_alloc/length_error from sizing a container off a hostile count,
/// and never a crash); an accepted store must be valid. Returns whether
/// it loaded.
bool load_or_reject(const std::string& bytes, const std::string& what) {
    std::stringstream stream(bytes);
    try {
        const TimingErrorCdfs loaded = TimingErrorCdfs::load(stream);
        expect_valid(loaded, what);
        return true;
    } catch (const std::runtime_error&) {
        return false;
    }
}

void put_u64(std::string& bytes, std::size_t at, std::uint64_t value) {
    std::memcpy(bytes.data() + at, &value, sizeof value);
}

void put_float(std::string& bytes, std::size_t at, float value) {
    std::memcpy(bytes.data() + at, &value, sizeof value);
}

TEST(TimingErrorCdfsLoad, RejectsASampleCountOtherThanTheHeaders) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    const SavedLayout layout = saved_layout(cdfs);
    std::string bytes = saved_bytes(cdfs);
    // The first endpoint claims 3 samples (header: 4); the stream still
    // holds enough bytes, so only the header check can catch it.
    put_u64(bytes, layout.counts[3], 3);
    EXPECT_FALSE(load_or_reject(bytes, "short endpoint"));
}

TEST(TimingErrorCdfsLoad, RejectsCountsBeyondTheStreamBeforeSizing) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    const SavedLayout layout = saved_layout(cdfs);
    for (const std::uint64_t huge :
         {std::uint64_t{1} << 40, std::uint64_t{1} << 61, ~std::uint64_t{0}}) {
        // Header and endpoint agree on a count no stream of this size can
        // hold: resize() must never see it.
        std::string samples = saved_bytes(cdfs);
        put_u64(samples, layout.counts[1], huge);
        put_u64(samples, layout.counts[3], huge);
        EXPECT_FALSE(load_or_reject(samples, "huge sample count"));
        std::string endpoints = saved_bytes(cdfs);
        put_u64(endpoints, layout.counts[0], huge);
        put_u64(endpoints, layout.counts[2], huge);
        EXPECT_FALSE(load_or_reject(endpoints, "huge endpoint count"));
    }
}

TEST(TimingErrorCdfsLoad, RejectsUnsortedAndNonFiniteArrivals) {
    const auto cdfs = TimingErrorCdfs::from_dta(synthetic_dta());
    const SavedLayout layout = saved_layout(cdfs);
    // Endpoint 0 of Add holds {0, 100, 200, 300}.
    std::string unsorted = saved_bytes(cdfs);
    put_float(unsorted, layout.floats[0], 150.0f);
    EXPECT_FALSE(load_or_reject(unsorted, "unsorted"));
    for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity()}) {
        std::string bytes = saved_bytes(cdfs);
        put_float(bytes, layout.floats[3], bad);
        EXPECT_FALSE(load_or_reject(bytes, "non-finite"));
    }
    // A sorted, finite edit is a different but valid store.
    std::string edited = saved_bytes(cdfs);
    put_float(edited, layout.floats[3], 350.0f);
    EXPECT_TRUE(load_or_reject(edited, "sorted edit"));
}

TEST(TimingErrorCdfsLoad, SeededMutantsThrowOrLoadValid) {
    // Each mutant is one random edit of a valid store's bytes: a bit flip
    // anywhere, a hostile value in a count field, a non-finite or swapped
    // sample, a bad presence flag, or a truncation. A given seed always
    // builds the same mutants.
    const std::uint64_t hostile[] = {0, 1, 2, 5, 6, 11, 12, 13, 1u << 20,
                                     std::uint64_t{1} << 32, std::uint64_t{1} << 62,
                                     ~std::uint64_t{0}};
    std::size_t loaded = 0;
    std::size_t rejected = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        const TimingErrorCdfs store = random_store(seed);
        const std::string valid = saved_bytes(store);
        const SavedLayout layout = saved_layout(store);
        ASSERT_EQ(layout.size, valid.size());
        Rng rng(seed * 7919);
        for (int m = 0; m < 600; ++m) {
            std::string bytes = valid;
            const std::uint64_t kind = rng.bounded(6);
            switch (kind) {
                case 0:  // one flipped bit anywhere
                    bytes[rng.bounded(bytes.size())] ^=
                        static_cast<char>(1u << rng.bounded(8));
                    break;
                case 1:  // a hostile count
                    put_u64(bytes, layout.counts[rng.bounded(layout.counts.size())],
                            hostile[rng.bounded(std::size(hostile))]);
                    break;
                case 2: {  // a non-finite or out-of-range sample
                    const float bad[] = {std::numeric_limits<float>::quiet_NaN(),
                                         std::numeric_limits<float>::infinity(),
                                         -std::numeric_limits<float>::infinity(),
                                         -1.0f, 1e30f};
                    put_float(bytes, layout.floats[rng.bounded(layout.floats.size())],
                              bad[rng.bounded(std::size(bad))]);
                    break;
                }
                case 3: {  // two neighbouring samples swapped
                    const std::size_t k = rng.bounded(layout.floats.size() - 1);
                    std::swap_ranges(bytes.begin() + layout.floats[k],
                                     bytes.begin() + layout.floats[k] + 4,
                                     bytes.begin() + layout.floats[k + 1]);
                    break;
                }
                case 4:  // a presence flag set to any byte
                    bytes[layout.flags[rng.bounded(layout.flags.size())]] =
                        static_cast<char>(rng.bounded(256));
                    break;
                default:  // truncated anywhere
                    bytes.resize(rng.bounded(bytes.size()));
                    break;
            }
            const std::string what = "seed " + std::to_string(seed) + " mutant " +
                                     std::to_string(m) + " kind " + std::to_string(kind);
            if (load_or_reject(bytes, what))
                ++loaded;
            else
                ++rejected;
            if (::testing::Test::HasFatalFailure()) return;
        }
    }
    // Both outcomes must actually occur, or the mutator is not probing the
    // boundary.
    EXPECT_GT(loaded, 100u);
    EXPECT_GT(rejected, 100u);
}

}  // namespace
}  // namespace sfi
