// Point-store mechanics: bit-exact PointSummary round-trips, persistence
// across reopen, duplicate-insert idempotence, and the corrupt-entry
// fallback (truncated tail, bit rot, foreign file) that underwrites the
// campaign resume guarantee.
#include "campaign/point_store.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include "campaign/figures.hpp"
#include "campaign/spec.hpp"
#include "fi/core_model.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

namespace sfi::campaign {
namespace {

namespace fs = std::filesystem;

PointSummary sample_summary(double freq_mhz, std::size_t trials = 40) {
    PointSummary s;
    s.point.freq_mhz = freq_mhz;
    s.point.vdd = 0.713;
    s.point.noise.sigma_mv = 10.5;
    s.point.noise.clip_sigmas = 2.25;
    s.trials = trials;
    s.finished_count = trials - 3;
    s.correct_count = trials - 7;
    for (std::size_t i = 0; i < s.finished_count; ++i)
        s.error_stats.add(0.01 * static_cast<double>(i) + freq_mhz * 1e-5);
    for (std::size_t i = 0; i < trials; ++i)
        s.fi_rate_stats.add(0.3 * static_cast<double>(i % 7));
    s.fi_rate = s.fi_rate_stats.mean();
    s.mean_error = s.error_stats.mean();
    return s;
}

void expect_identical(const PointSummary& a, const PointSummary& b) {
    EXPECT_EQ(a.point.freq_mhz, b.point.freq_mhz);
    EXPECT_EQ(a.point.vdd, b.point.vdd);
    EXPECT_EQ(a.point.noise.sigma_mv, b.point.noise.sigma_mv);
    EXPECT_EQ(a.point.noise.clip_sigmas, b.point.noise.clip_sigmas);
    EXPECT_EQ(a.trials, b.trials);
    EXPECT_EQ(a.finished_count, b.finished_count);
    EXPECT_EQ(a.correct_count, b.correct_count);
    // Bitwise double comparisons: the store must reproduce the exact
    // accumulator state, not merely a close value.
    EXPECT_EQ(a.fi_rate, b.fi_rate);
    EXPECT_EQ(a.mean_error, b.mean_error);
    EXPECT_EQ(a.error_stats.count(), b.error_stats.count());
    EXPECT_EQ(a.error_stats.mean(), b.error_stats.mean());
    EXPECT_EQ(a.error_stats.variance(), b.error_stats.variance());
    EXPECT_EQ(a.error_stats.min(), b.error_stats.min());
    EXPECT_EQ(a.error_stats.max(), b.error_stats.max());
    EXPECT_EQ(a.fi_rate_stats.count(), b.fi_rate_stats.count());
    EXPECT_EQ(a.fi_rate_stats.mean(), b.fi_rate_stats.mean());
    EXPECT_EQ(a.fi_rate_stats.variance(), b.fi_rate_stats.variance());
}

std::string summary_bytes(const PointSummary& summary) {
    std::ostringstream os(std::ios::binary);
    save_point_summary(os, summary);
    return os.str();
}

std::string read_bytes(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const std::string& bytes) {
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

template <typename T>
void poke(std::string& bytes, std::size_t at, T value) {
    std::memcpy(bytes.data() + at, &value, sizeof value);
}

// The store layout (point_store.hpp): a 12-byte header, then records of
// u64 key, u32 size, a 152-byte payload and its u64 FNV-1a.
constexpr std::size_t kHeaderBytes = 12;
constexpr std::size_t kPayloadBytes = 152;
constexpr std::size_t kRecordBytes = 8 + 4 + kPayloadBytes + 8;
constexpr std::uint32_t kMaxPayload = 1u << 20;

/// `bytes` with `junk` appended to record `r`'s payload, and the record's
/// size field and hash rewritten to match, as a consistent writer of a
/// longer payload would have left them.
std::string with_payload_junk(const std::string& bytes, std::size_t r,
                              const std::string& junk) {
    const std::size_t at = kHeaderBytes + r * kRecordBytes;
    const std::string payload = bytes.substr(at + 12, kPayloadBytes) + junk;
    std::string record = bytes.substr(at, 12) + payload + std::string(8, '\0');
    poke(record, 8, static_cast<std::uint32_t>(payload.size()));
    poke(record, 12 + payload.size(),
         Fingerprint().bytes(payload.data(), payload.size()).value());
    return bytes.substr(0, at) + record + bytes.substr(at + kRecordBytes);
}

class PointStoreTest : public ::testing::Test {
protected:
    void SetUp() override {
        path_ = (fs::path(::testing::TempDir()) /
                 ("sfi_point_store_test_" + std::to_string(::getpid()) + ".bin"))
                    .string();
        fs::remove(path_);
    }
    void TearDown() override { fs::remove(path_); }

    std::string path_;
};

TEST(PointSummarySerialization, RoundTripIsBitExact) {
    const PointSummary original = sample_summary(750.5);
    std::stringstream buffer(std::ios::in | std::ios::out | std::ios::binary);
    save_point_summary(buffer, original);
    const PointSummary loaded = load_point_summary(buffer);
    expect_identical(original, loaded);
}

TEST(PointSummarySerialization, TruncatedStreamThrows) {
    const PointSummary original = sample_summary(750.5);
    std::ostringstream os(std::ios::binary);
    save_point_summary(os, original);
    const std::string bytes = os.str();
    std::istringstream is(bytes.substr(0, bytes.size() / 2));
    EXPECT_THROW(load_point_summary(is), std::runtime_error);
}

TEST_F(PointStoreTest, InMemoryStoreWithoutPath) {
    PointStore store;
    EXPECT_FALSE(store.lookup(1).has_value());
    store.insert(1, sample_summary(700.0));
    ASSERT_TRUE(store.lookup(1).has_value());
    EXPECT_EQ(store.size(), 1u);
}

TEST_F(PointStoreTest, PersistsAcrossReopen) {
    {
        PointStore store(path_);
        store.insert(0xAAA, sample_summary(700.0));
        store.insert(0xBBB, sample_summary(710.0, 25));
    }
    PointStore reopened(path_);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(reopened.recovered_bytes(), 0u);
    ASSERT_TRUE(reopened.lookup(0xAAA).has_value());
    ASSERT_TRUE(reopened.lookup(0xBBB).has_value());
    expect_identical(sample_summary(700.0), *reopened.lookup(0xAAA));
    expect_identical(sample_summary(710.0, 25), *reopened.lookup(0xBBB));
}

TEST_F(PointStoreTest, DuplicateInsertIsIdempotent) {
    PointStore store(path_);
    store.insert(7, sample_summary(700.0));
    const auto size_after_first = fs::file_size(path_);
    store.insert(7, sample_summary(700.0));
    EXPECT_EQ(store.size(), 1u);
    EXPECT_EQ(fs::file_size(path_), size_after_first);
}

TEST_F(PointStoreTest, TruncatedTailIsDroppedAndOverwritten) {
    {
        PointStore store(path_);
        store.insert(1, sample_summary(700.0));
        store.insert(2, sample_summary(710.0));
    }
    // Tear the second record, as a kill mid-write would.
    fs::resize_file(path_, fs::file_size(path_) - 5);
    {
        PointStore store(path_);
        EXPECT_EQ(store.size(), 1u);
        EXPECT_GT(store.recovered_bytes(), 0u);
        EXPECT_TRUE(store.lookup(1).has_value());
        EXPECT_FALSE(store.lookup(2).has_value());
        // Appending after recovery lands where the torn record began.
        store.insert(3, sample_summary(720.0));
    }
    PointStore reopened(path_);
    EXPECT_EQ(reopened.size(), 2u);
    EXPECT_EQ(reopened.recovered_bytes(), 0u);
    EXPECT_TRUE(reopened.lookup(1).has_value());
    EXPECT_TRUE(reopened.lookup(3).has_value());
}

TEST_F(PointStoreTest, BitRotInPayloadDropsTheRecord) {
    {
        PointStore store(path_);
        store.insert(1, sample_summary(700.0));
        store.insert(2, sample_summary(710.0));
    }
    // Flip one byte inside the second record's payload.
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-20, std::ios::end);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(-20, std::ios::end);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
    file.close();

    PointStore store(path_);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.lookup(1).has_value());
    EXPECT_FALSE(store.lookup(2).has_value());
    EXPECT_GT(store.recovered_bytes(), 0u);
}

TEST_F(PointStoreTest, ForeignFileIsTreatedAsEmptyAndRewritten) {
    std::ofstream(path_) << "this is not a point store\n";
    {
        PointStore store(path_);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_GT(store.recovered_bytes(), 0u);
        store.insert(9, sample_summary(730.0));
    }
    PointStore reopened(path_);
    EXPECT_EQ(reopened.size(), 1u);
    EXPECT_TRUE(reopened.lookup(9).has_value());
}

TEST_F(PointStoreTest, HealthyStoreReportsNoDiagnostics) {
    {
        PointStore store(path_);
        store.insert(1, sample_summary(700.0));
    }
    testing::internal::CaptureStderr();
    PointStore reopened(path_);
    EXPECT_TRUE(reopened.diagnostics().empty());
    EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
}

TEST_F(PointStoreTest, CorruptTailEmitsStderrWarningWithoutLedger) {
    {
        PointStore store(path_);
        store.insert(1, sample_summary(700.0));
        store.insert(2, sample_summary(710.0));
    }
    fs::resize_file(path_, fs::file_size(path_) - 5);

    testing::internal::CaptureStderr();
    PointStore store(path_);
    const std::string warning = testing::internal::GetCapturedStderr();

    ASSERT_EQ(store.diagnostics().size(), 1u);
    const StoreDiagnostic& diag = store.diagnostics().front();
    EXPECT_EQ(diag.kind, StoreDiagnostic::Kind::CorruptTail);
    EXPECT_GT(diag.dropped_bytes, 0u);
    EXPECT_EQ(diag.records_loaded, 1u);
    EXPECT_NE(warning.find("corrupt-tail"), std::string::npos);
    EXPECT_NE(warning.find(path_), std::string::npos);
}

TEST_F(PointStoreTest, CorruptTailEmitsLedgerWarningInBothModes) {
    {
        PointStore store(path_);
        store.insert(1, sample_summary(700.0));
        store.insert(2, sample_summary(710.0));
    }
    fs::resize_file(path_, fs::file_size(path_) - 5);

    for (const obs::TraceMode mode :
         {obs::TraceMode::Logical, obs::TraceMode::Wall}) {
        std::ostringstream os;
        testing::internal::CaptureStderr();
        {
            obs::Ledger ledger(os, mode);
            PointStore store(path_, &ledger);
            EXPECT_EQ(store.size(), 1u);
        }
        // With a ledger attached, the warning goes there, not to stderr.
        EXPECT_EQ(testing::internal::GetCapturedStderr(), "");
        std::istringstream is(os.str());
        const obs::LedgerFile file = obs::read_ledger(is);
        ASSERT_EQ(file.events.size(), 1u) << obs::trace_mode_name(mode);
        const obs::LedgerEvent& ev = file.events.front();
        EXPECT_EQ(ev.name, "store_warning");
        EXPECT_EQ(ev.ph, 'i');
        EXPECT_EQ(ev.arg_string("kind"), "corrupt-tail");
        EXPECT_EQ(ev.arg_string("path"), path_);
        EXPECT_GT(ev.arg_uint("dropped_bytes"), 0u);
        EXPECT_EQ(ev.arg_uint("records_loaded"), 1u);
    }
}

TEST_F(PointStoreTest, ForeignFileAndBitRotDiagnosticKinds) {
    std::ofstream(path_) << "this is not a point store\n";
    testing::internal::CaptureStderr();
    {
        PointStore store(path_);
        ASSERT_EQ(store.diagnostics().size(), 1u);
        EXPECT_EQ(store.diagnostics().front().kind,
                  StoreDiagnostic::Kind::ForeignFile);
        EXPECT_EQ(store.diagnostics().front().records_loaded, 0u);
    }
    EXPECT_NE(testing::internal::GetCapturedStderr().find("foreign-file"),
              std::string::npos);

    fs::remove(path_);
    {
        PointStore store(path_);
        store.insert(1, sample_summary(700.0));
        store.insert(2, sample_summary(710.0));
    }
    std::fstream file(path_, std::ios::in | std::ios::out | std::ios::binary);
    file.seekp(-20, std::ios::end);
    char byte = 0;
    file.read(&byte, 1);
    file.seekp(-20, std::ios::end);
    byte = static_cast<char>(byte ^ 0x40);
    file.write(&byte, 1);
    file.close();

    testing::internal::CaptureStderr();
    {
        PointStore store(path_);
        ASSERT_EQ(store.diagnostics().size(), 1u);
        EXPECT_EQ(store.diagnostics().front().kind,
                  StoreDiagnostic::Kind::BitRot);
        EXPECT_EQ(store.diagnostics().front().records_loaded, 1u);
    }
    EXPECT_NE(testing::internal::GetCapturedStderr().find("bit-rot"),
              std::string::npos);
}

TEST_F(PointStoreTest, EmptyFileIsAnEmptyStore) {
    // Nothing is dropped, so nothing is reported; the first insert
    // writes the header.
    write_bytes(path_, "");
    {
        PointStore store(path_);
        EXPECT_EQ(store.size(), 0u);
        EXPECT_TRUE(store.diagnostics().empty());
        store.insert(9, sample_summary(730.0));
    }
    PointStore reopened(path_);
    EXPECT_TRUE(reopened.diagnostics().empty());
    EXPECT_TRUE(reopened.lookup(9).has_value());
}

TEST_F(PointStoreTest, PayloadWithTrailingBytesIsDropped) {
    {
        PointStore store(path_);
        store.insert(1, sample_summary(700.0));
        store.insert(2, sample_summary(710.0));
    }
    // A payload of one summary plus junk, under a matching hash, is no
    // summary: the record and the tail go, as for a torn record.
    write_bytes(path_, with_payload_junk(read_bytes(path_), 1, "junk"));
    testing::internal::CaptureStderr();
    PointStore store(path_);
    EXPECT_NE(testing::internal::GetCapturedStderr().find("corrupt-tail"),
              std::string::npos);
    EXPECT_EQ(store.size(), 1u);
    EXPECT_TRUE(store.lookup(1).has_value());
    EXPECT_FALSE(store.lookup(2).has_value());
    ASSERT_EQ(store.diagnostics().size(), 1u);
    EXPECT_EQ(store.diagnostics().front().kind, StoreDiagnostic::Kind::CorruptTail);
    EXPECT_EQ(store.recovered_bytes(), kRecordBytes + 4);
}

TEST_F(PointStoreTest, SeededMutantsLoadAnIntactPrefix) {
    // Each mutant is one random edit of a valid 4-record store: a bit
    // flip, a hostile size field, a truncation, or junk appended to a
    // payload under a recomputed hash. Opening never throws and loads
    // the records before the edit, bit for bit; the next insert then
    // leaves a healthy file.
    const std::vector<std::uint64_t> keys = {0x1111, 0x2222, 0x3333, 0x4444};
    std::vector<std::string> originals;
    {
        PointStore store(path_);
        for (std::size_t r = 0; r < keys.size(); ++r) {
            const PointSummary summary = sample_summary(700.0 + 10.0 * r, 40 + r);
            store.insert(keys[r], summary);
            originals.push_back(summary_bytes(summary));
        }
    }
    const std::string valid = read_bytes(path_);
    ASSERT_EQ(valid.size(), kHeaderBytes + keys.size() * kRecordBytes);
    const std::uint32_t hostile[] = {0,           1,           151, 153, kMaxPayload,
                                     kMaxPayload + 1, 0xFFFFFFFFu};
    Rng rng(2025);
    for (int m = 0; m < 1500; ++m) {
        std::string bytes = valid;
        std::vector<std::uint64_t> expected_keys = keys;
        std::size_t intact = keys.size();  // records expected to load
        bool damaged = true;               // a diagnostic is expected
        const std::uint64_t kind = rng.bounded(4);
        const std::size_t r = rng.bounded(keys.size());
        switch (kind) {
            case 0: {  // one flipped bit anywhere
                const std::size_t at = rng.bounded(bytes.size());
                const unsigned bit = static_cast<unsigned>(rng.bounded(8));
                bytes[at] = static_cast<char>(bytes[at] ^ (1u << bit));
                if (at < kHeaderBytes) {
                    intact = 0;
                    break;
                }
                const std::size_t record = (at - kHeaderBytes) / kRecordBytes;
                const std::size_t offset = (at - kHeaderBytes) % kRecordBytes;
                if (offset < 8) {
                    // The hash covers the payload, not the key: the record
                    // loads intact under a key no campaign asks for.
                    expected_keys[record] ^= std::uint64_t{1} << (8 * offset + bit);
                    damaged = false;
                } else {
                    intact = record;
                }
                break;
            }
            case 1:  // a hostile size field
                poke(bytes, kHeaderBytes + r * kRecordBytes + 8,
                     hostile[rng.bounded(std::size(hostile))]);
                intact = r;
                break;
            case 2: {  // truncated anywhere
                const std::size_t size = rng.bounded(bytes.size());
                bytes.resize(size);
                intact = size < kHeaderBytes ? 0 : (size - kHeaderBytes) / kRecordBytes;
                damaged = size > 0 && (size < kHeaderBytes ||
                                       (size - kHeaderBytes) % kRecordBytes != 0);
                break;
            }
            default:  // junk after a payload, under a recomputed hash
                bytes = with_payload_junk(bytes, r, std::string(1 + rng.bounded(16), 'j'));
                intact = r;
                break;
        }
        SCOPED_TRACE("mutant " + std::to_string(m) + " kind " + std::to_string(kind));
        write_bytes(path_, bytes);
        std::ostringstream warnings;
        obs::Ledger ledger(warnings, obs::TraceMode::Logical);
        {
            std::optional<PointStore> store;
            ASSERT_NO_THROW(store.emplace(path_, &ledger));
            EXPECT_EQ(store->size(), intact);
            for (std::size_t j = 0; j < keys.size(); ++j) {
                const auto loaded = store->lookup(expected_keys[j]);
                ASSERT_EQ(loaded.has_value(), j < intact) << "record " << j;
                if (loaded) {
                    EXPECT_EQ(summary_bytes(*loaded), originals[j]) << j;
                }
            }
            EXPECT_EQ(store->diagnostics().empty(), !damaged);
            EXPECT_EQ(store->recovered_bytes() > 0, !store->diagnostics().empty());
            store->insert(0x5555, sample_summary(800.0));
        }
        PointStore reopened(path_, &ledger);
        EXPECT_TRUE(reopened.diagnostics().empty());
        EXPECT_EQ(reopened.size(), intact + 1);
        if (HasFailure()) return;
    }
}

TEST(StoreDiagnosticNames, AreStable) {
    EXPECT_STREQ(store_diagnostic_name(StoreDiagnostic::Kind::ForeignFile),
                 "foreign-file");
    EXPECT_STREQ(store_diagnostic_name(StoreDiagnostic::Kind::CorruptTail),
                 "corrupt-tail");
    EXPECT_STREQ(store_diagnostic_name(StoreDiagnostic::Kind::BitRot),
                 "bit-rot");
}

TEST_F(PointStoreTest, QuantizedSamplingNeverHitsBatchedEntries) {
    // "B-q" (alias-sampled noise) changes the statistics of every
    // faulting point, so its results must live under different store
    // keys than Scalar/Batched runs — while Scalar and Batched, being
    // bit-identical, must share keys so a batched rollout still hits
    // every summary a scalar campaign wrote.
    CampaignSpec spec;
    spec.name = "modes";
    spec.trials = 12;
    spec.seed = 5;
    PanelSpec panel;
    panel.name = "panel_a";
    panel.kernel = KernelSpec::bench(BenchmarkId::Median);
    panel.model = ModelSpec::c();
    panel.base.vdd = 0.7;
    panel.base.noise.sigma_mv = 10.0;
    panel.grid = GridSpec::explicit_values({700.0, 720.0});
    spec.panels.push_back(panel);

    OperatingPoint point;
    point.freq_mhz = 715.0;
    point.vdd = 0.7;
    point.noise.sigma_mv = 10.0;

    CoreModelConfig config;
    config.fault_sampling = FaultSamplingMode::Scalar;
    const std::uint64_t fp_scalar = core_config_fingerprint(config);
    config.fault_sampling = FaultSamplingMode::Batched;
    const std::uint64_t fp_batched = core_config_fingerprint(config);
    config.fault_sampling = FaultSamplingMode::Quantized;
    const std::uint64_t fp_quantized = core_config_fingerprint(config);
    ASSERT_EQ(fp_scalar, fp_batched);
    ASSERT_NE(fp_quantized, fp_batched);

    const std::uint64_t key_batched =
        point_key(spec, spec.panels[0], fp_batched, point);
    const std::uint64_t key_quantized =
        point_key(spec, spec.panels[0], fp_quantized, point);
    EXPECT_EQ(key_batched, point_key(spec, spec.panels[0], fp_scalar, point));
    ASSERT_NE(key_batched, key_quantized);

    PointStore store(path_);
    store.insert(key_batched, sample_summary(715.0));
    EXPECT_TRUE(store.lookup(key_batched).has_value());
    EXPECT_FALSE(store.lookup(key_quantized).has_value());
}

}  // namespace
}  // namespace sfi::campaign
