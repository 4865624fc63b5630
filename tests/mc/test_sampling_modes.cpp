// Scalar-vs-batched differential suite at the Monte-Carlo level: the
// FaultSamplingMode::Batched pipeline must produce byte-identical
// PointSummaries (accumulator state included) to the Scalar reference,
// for every noise-modulated model, serial and threaded, with and without
// the mitigation decorator. This is the end-to-end form of the
// bit-identity contract pinned per-draw in tests/fi/test_sampling_batch.cpp
// — figure CSVs are a pure function of these summaries, so equality here
// is what keeps batched campaign artifacts byte-identical to scalar ones.
#include "mc/montecarlo.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>

#include "campaign/figures.hpp"
#include "campaign/point_store.hpp"
#include "fi/mitigation.hpp"
#include "testing/shared_core.hpp"

namespace sfi {
namespace {

using testing::shared_core;

std::size_t max_threads() {
    if (const char* env = std::getenv("SFI_TEST_THREADS")) {
        const int cap = std::atoi(env);
        if (cap > 0) return static_cast<std::size_t>(cap);
    }
    return 8;
}

OperatingPoint noisy_point(double freq_mhz, double sigma_mv = 10.0) {
    OperatingPoint p;
    p.freq_mhz = freq_mhz;
    p.vdd = 0.7;
    p.noise.sigma_mv = sigma_mv;
    return p;
}

std::string bytes_of(const PointSummary& summary) {
    std::ostringstream os;
    campaign::save_point_summary(os, summary);
    return os.str();
}

McConfig config_for(FaultSamplingMode mode, std::size_t threads,
                    std::size_t trials = 24) {
    McConfig config;
    config.trials = trials;
    config.seed = 77;
    config.threads = threads;
    config.fault_sampling = mode;
    return config;
}

/// Runs one point under `mode` at `threads` on a fresh model from
/// `make_model` and returns the summary's exact bytes.
template <typename MakeModel>
std::string run_bytes(const Benchmark& bench, MakeModel make_model,
                      const OperatingPoint& point, FaultSamplingMode mode,
                      std::size_t threads) {
    auto model = make_model();
    MonteCarloRunner runner(bench, *model, config_for(mode, threads));
    return bytes_of(runner.run_point(point));
}

template <typename MakeModel>
void expect_modes_identical(MakeModel make_model, const OperatingPoint& point,
                            const char* label) {
    const auto bench = make_benchmark(BenchmarkId::Median);
    const std::string reference =
        run_bytes(*bench, make_model, point, FaultSamplingMode::Scalar, 1);
    for (const std::size_t threads : {std::size_t{1}, max_threads()}) {
        EXPECT_EQ(run_bytes(*bench, make_model, point,
                            FaultSamplingMode::Batched, threads),
                  reference)
            << label << ": batched diverged at threads=" << threads;
        if (threads != 1) {
            EXPECT_EQ(run_bytes(*bench, make_model, point,
                                FaultSamplingMode::Scalar, threads),
                      reference)
                << label << ": scalar not thread-count independent";
        }
    }
}

TEST(SamplingModeEquivalence, ModelBPlusSummariesAreByteIdentical) {
    // Transition region of B+ (noise straddles the STA limit): outcomes
    // mix, so the draw stream fully determines the summary.
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    expect_modes_identical([] { return shared_core().make_model_b(); },
                           noisy_point(fsta * 0.995), "model B+");
}

TEST(SamplingModeEquivalence, ModelCSummariesAreByteIdentical) {
    auto probe = shared_core().make_model_c();
    const double f0 = probe->first_fault_frequency_mhz(ExClass::Mul);
    expect_modes_identical([] { return shared_core().make_model_c(); },
                           noisy_point(f0 * 1.02), "model C");
}

TEST(SamplingModeEquivalence, RazorDecoratedModelIsByteIdentical) {
    // The mitigation decorator adds a second consumer of the trial's Rng
    // stream (detection draws) around the inner model's noise draws.
    auto probe = shared_core().make_model_c();
    const double f0 = probe->first_fault_frequency_mhz(ExClass::Mul);
    const auto make_razor = [] {
        RazorConfig razor;
        razor.detection_coverage = 0.7;
        return std::make_unique<ErrorDetectionModel>(
            shared_core().make_model_c(), razor);
    };
    expect_modes_identical(make_razor, noisy_point(f0 * 1.02), "razor(C)");
}

TEST(SamplingModeEquivalence, QuantizedIsDeterministicButItsOwnStream) {
    // "B-q" has no bit-identity contract with Scalar — only per-seed
    // determinism and thread-count independence.
    const double fsta = shared_core().sta_fmax_mhz(0.7);
    const auto bench = make_benchmark(BenchmarkId::Median);
    const OperatingPoint point = noisy_point(fsta * 0.995);
    const auto make_model = [] { return shared_core().make_model_b(); };
    const std::string serial = run_bytes(*bench, make_model, point,
                                         FaultSamplingMode::Quantized, 1);
    EXPECT_EQ(run_bytes(*bench, make_model, point,
                        FaultSamplingMode::Quantized, 1),
              serial);
    EXPECT_EQ(run_bytes(*bench, make_model, point,
                        FaultSamplingMode::Quantized, max_threads()),
              serial);
}

/// CSVs one figure campaign writes under `mode` at `threads`, by file
/// name. Tiny trial count, no point store.
std::map<std::string, std::string> figure_csvs(const std::string& figure,
                                               FaultSamplingMode mode,
                                               std::size_t threads,
                                               const std::filesystem::path& dir) {
    CoreModelConfig core;
    core.dta.cycles = testing::kTestDtaCycles;
    core.cdf_cache_path = "/tmp/sfi_test_cdf_cache.bin";
    core.fault_sampling = mode;
    campaign::RunOptions options;
    options.csv_dir = dir.string();
    options.threads = threads;
    campaign::CampaignRunner runner(
        campaign::figures::make_figure(figure, core, /*trials=*/4), options);
    EXPECT_TRUE(runner.run().completed) << figure;
    std::map<std::string, std::string> csvs;
    for (const auto& entry : std::filesystem::directory_iterator(dir)) {
        if (entry.path().extension() != ".csv") continue;
        std::ifstream is(entry.path(), std::ios::binary);
        csvs[entry.path().filename().string()] = {
            std::istreambuf_iterator<char>(is), std::istreambuf_iterator<char>()};
    }
    return csvs;
}

TEST(SamplingModeEquivalence, FigureCampaignCsvsAreByteIdentical) {
    // The contract on the real figure campaigns: fig1 (model B/B+ windows),
    // fig4 (op streams through model C) and fig5 (model C over frequency),
    // serial and threaded.
    namespace fs = std::filesystem;
    const fs::path root = fs::path(::testing::TempDir()) /
                          ("sfi_sampling_csvs_" + std::to_string(::getpid()));
    fs::remove_all(root);
    for (const char* figure : {"fig1", "fig4", "fig5"}) {
        for (const std::size_t threads : {std::size_t{1}, max_threads()}) {
            const std::string tag =
                std::string(figure) + "_t" + std::to_string(threads);
            const auto scalar = figure_csvs(figure, FaultSamplingMode::Scalar,
                                            threads, root / (tag + "_scalar"));
            ASSERT_FALSE(scalar.empty()) << tag;
            EXPECT_EQ(figure_csvs(figure, FaultSamplingMode::Batched, threads,
                                  root / (tag + "_batched")),
                      scalar)
                << tag << ": batched CSVs differ from scalar";
        }
    }
    fs::remove_all(root);
}

}  // namespace
}  // namespace sfi
