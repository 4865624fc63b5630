// End-to-end campaign engine contract:
//  * a warm re-run is served 100 % from the point store and its CSV
//    artifacts are byte-identical to the cold run's;
//  * a campaign cancelled mid-sweep resumes from the store and the
//    resumed artifacts are byte-identical to an uninterrupted run;
//  * point keys are content-addressed (renamed panels still hit);
//  * the declarative grids resolve to the historical sweep values and
//    the campaign path reproduces the hand-rolled fig1-style sweep
//    byte for byte.
#include "campaign/runner.hpp"

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "mc/report.hpp"
#include "mc/sweep.hpp"

namespace sfi::campaign {
namespace {

namespace fs = std::filesystem;

// Mirrors tests/testing/shared_core.hpp so every campaign test reuses
// the process-shared CDF cache instead of re-running DTA.
CoreModelConfig test_core_config() {
    CoreModelConfig config;
    config.dta.cycles = 1024;
    config.cdf_cache_path = "/tmp/sfi_test_cdf_cache.bin";
    return config;
}

CampaignSpec tiny_campaign() {
    CampaignSpec spec;
    spec.name = "tiny";
    spec.core = test_core_config();
    spec.trials = 5;
    spec.seed = 11;

    PanelSpec mc;
    mc.name = "tiny_median";
    mc.kernel = KernelSpec::bench(BenchmarkId::Median);
    mc.model = ModelSpec::c();
    mc.base.vdd = 0.7;
    mc.base.noise.sigma_mv = 10.0;
    // One safe and one faulting frequency (f_STA(0.7 V) is ~707 MHz).
    mc.grid = GridSpec::explicit_values({500.0, 745.0});
    spec.panels.push_back(mc);

    PanelSpec stream;
    stream.name = "tiny_stream";
    stream.kernel = KernelSpec::op_stream(ExClass::Add, 16, 256, 0xF00D);
    stream.model = ModelSpec::c();
    stream.dta_operand_bits = 16;
    stream.seed_offset = 1;
    stream.base.vdd = 0.7;
    stream.base.noise.sigma_mv = 10.0;
    stream.grid = GridSpec::explicit_values({700.0, 900.0});
    spec.panels.push_back(stream);
    return spec;
}

std::string read_file(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(is),
            std::istreambuf_iterator<char>()};
}

// The manifest minus its volatile single-line "run" object (hit/miss
// split, wall clock, machine paths) — the stable description that must
// not depend on how the points were obtained.
std::string manifest_stable_part(const std::string& path) {
    std::istringstream is(read_file(path));
    std::string out, line;
    while (std::getline(is, line))
        if (line.find("\"run\":") == std::string::npos) out += line + "\n";
    return out;
}

class CampaignTest : public ::testing::Test {
protected:
    void SetUp() override {
        dir_ = (fs::path(::testing::TempDir()) /
                ("sfi_campaign_test_" + std::to_string(::getpid())))
                   .string();
        fs::remove_all(dir_);
        fs::create_directories(dir_);
    }
    void TearDown() override { fs::remove_all(dir_); }

    RunOptions options(const std::string& workspace) const {
        RunOptions o;
        o.store_path = dir_ + "/" + workspace + "/store.bin";
        o.csv_dir = dir_ + "/" + workspace + "/csv";
        o.threads = 2;  // exercise the trial-level pool under the runner
        return o;
    }

    std::vector<std::string> csv_files(const std::string& workspace) const {
        std::vector<std::string> names;
        for (const auto& entry :
             fs::directory_iterator(dir_ + "/" + workspace + "/csv"))
            if (entry.path().extension() == ".csv")
                names.push_back(entry.path().filename().string());
        std::sort(names.begin(), names.end());
        return names;
    }

    std::string dir_;
};

TEST_F(CampaignTest, WarmRerunIsAllHitsAndByteIdentical) {
    const CampaignSpec spec = tiny_campaign();
    const std::size_t total_points = 4;

    CampaignRunner cold(spec, options("w"));
    const CampaignResult first = cold.run();
    EXPECT_TRUE(first.completed);
    EXPECT_EQ(first.store_hits, 0u);
    EXPECT_EQ(first.store_misses, total_points);
    ASSERT_EQ(first.panels.size(), 2u);
    EXPECT_EQ(first.panel("tiny_median").sweep.size(), 2u);
    ASSERT_FALSE(first.manifest_path.empty());

    const auto files = csv_files("w");
    ASSERT_EQ(files.size(), 2u);
    std::vector<std::string> cold_bytes;
    for (const auto& f : files)
        cold_bytes.push_back(read_file(dir_ + "/w/csv/" + f));
    const std::string cold_manifest =
        manifest_stable_part(first.manifest_path);

    CampaignRunner warm(spec, options("w"));
    const CampaignResult second = warm.run();
    EXPECT_TRUE(second.completed);
    EXPECT_EQ(second.store_hits, total_points);
    EXPECT_EQ(second.store_misses, 0u);
    for (std::size_t i = 0; i < files.size(); ++i)
        EXPECT_EQ(read_file(dir_ + "/w/csv/" + files[i]), cold_bytes[i])
            << files[i] << " changed across a warm re-run";
    EXPECT_EQ(manifest_stable_part(second.manifest_path), cold_manifest);
}

TEST_F(CampaignTest, InterruptedCampaignResumesByteIdentical) {
    const CampaignSpec spec = tiny_campaign();
    const std::size_t total_points = 4;

    // "Kill" the campaign after two cancellation checks: the hook fires
    // between points, exactly like a signal-triggered stop, so the run
    // ends with some points persisted and the rest never attempted.
    std::size_t budget = 2;
    RunOptions countdown = options("i");
    countdown.cancelled = [&budget] {
        if (budget == 0) return true;
        --budget;
        return false;
    };
    CampaignRunner first(spec, std::move(countdown));
    const CampaignResult partial = first.run();
    EXPECT_FALSE(partial.completed);
    const std::size_t done = partial.store_misses;
    EXPECT_GT(done, 0u);
    EXPECT_LT(done, total_points);
    ASSERT_FALSE(partial.manifest_path.empty());
    EXPECT_NE(read_file(partial.manifest_path).find("\"completed\": false"),
              std::string::npos);

    // Resume: completed points come from the store, the rest compute.
    CampaignRunner second(spec, options("i"));
    const CampaignResult resumed = second.run();
    EXPECT_TRUE(resumed.completed);
    EXPECT_EQ(resumed.store_hits, done);
    EXPECT_EQ(resumed.store_misses, total_points - done);

    // Reference: an uninterrupted run in a fresh workspace.
    CampaignRunner reference(spec, options("ref"));
    const CampaignResult ref = reference.run();
    EXPECT_TRUE(ref.completed);

    const auto files = csv_files("i");
    ASSERT_EQ(files, csv_files("ref"));
    ASSERT_FALSE(files.empty());
    for (const auto& f : files)
        EXPECT_EQ(read_file(dir_ + "/i/csv/" + f),
                  read_file(dir_ + "/ref/csv/" + f))
            << f << " differs between resumed and uninterrupted runs";
    EXPECT_EQ(manifest_stable_part(resumed.manifest_path),
              manifest_stable_part(ref.manifest_path));
}

TEST_F(CampaignTest, RenamedPanelsStillHitTheStore) {
    CampaignSpec spec = tiny_campaign();
    CampaignRunner cold(spec, options("n"));
    const CampaignResult first = cold.run();
    EXPECT_EQ(first.store_misses, 4u);

    // Same physics, different presentation: every point must hit.
    spec.name = "renamed_campaign";
    for (PanelSpec& panel : spec.panels) {
        panel.name += "_v2";
        panel.title = "new title";
    }
    CampaignRunner warm(spec, options("n"));
    const CampaignResult second = warm.run();
    EXPECT_EQ(second.store_hits, 4u);
    EXPECT_EQ(second.store_misses, 0u);
}

TEST_F(CampaignTest, GridsResolveAgainstTheCore) {
    CampaignSpec spec = tiny_campaign();
    PanelSpec sta_panel;
    sta_panel.name = "sta";
    sta_panel.model = ModelSpec::c();
    sta_panel.base.vdd = 0.7;
    sta_panel.grid = GridSpec::sta_linspace(1.0, 1.2, 3);
    PanelSpec window_panel;
    window_panel.name = "window";
    window_panel.model = ModelSpec::b();
    window_panel.base.vdd = 0.7;
    window_panel.base.noise.sigma_mv = 10.0;
    window_panel.grid = GridSpec::first_fault_window(1.0, 2.0, 0.5);
    spec.panels = {sta_panel, window_panel};

    CampaignRunner runner(spec, RunOptions{});
    const double fsta = runner.core().sta_fmax_mhz(0.7);
    const auto sta_values = runner.resolve_grid(spec.panels[0]);
    EXPECT_EQ(sta_values, linspace(fsta, 1.2 * fsta, 3));

    const double f0 =
        first_fault_mhz(runner.core(), window_panel.model, window_panel.base);
    const auto window_values = runner.resolve_grid(spec.panels[1]);
    EXPECT_EQ(window_values, arange(f0 - 1.0, f0 + 2.0, 0.5));
    EXPECT_LT(f0, fsta);  // sigma = 10 mV noise pulls B+ below the STA limit

    // FirstFaultWindow is only defined for model B/B+.
    spec.panels[1].model = ModelSpec::c();
    EXPECT_THROW(runner.resolve_grid(spec.panels[1]), std::invalid_argument);
}

TEST_F(CampaignTest, CampaignPathMatchesHandRolledSweepByteForByte) {
    // The fig1 acceptance contract in miniature: the declarative campaign
    // must reproduce the historical make-model/frequency_sweep/CSV path
    // byte for byte at a fixed seed.
    CampaignSpec spec = tiny_campaign();
    PanelSpec panel;
    panel.name = "b_window";
    panel.kernel = KernelSpec::bench(BenchmarkId::Median);
    panel.model = ModelSpec::b();
    panel.base.vdd = 0.7;
    panel.base.noise.sigma_mv = 10.0;
    panel.grid = GridSpec::first_fault_window(0.5, 1.5, 0.5);
    spec.panels = {panel};
    spec.trials = 6;
    spec.seed = 42;

    CampaignRunner runner(spec, options("c"));
    const CampaignResult result = runner.run();
    ASSERT_TRUE(result.completed);
    const std::string campaign_csv =
        read_file(dir_ + "/c/csv/b_window.csv");
    ASSERT_FALSE(campaign_csv.empty());

    // Hand-rolled legacy path on an independently characterized core.
    const CharacterizedCore core(test_core_config());
    const auto bench = make_benchmark(BenchmarkId::Median);
    auto model = core.make_model_b();
    OperatingPoint base;
    base.vdd = 0.7;
    base.noise.sigma_mv = 10.0;
    model->set_operating_point(base);
    const double f0 = model->first_fault_frequency_mhz();
    McConfig config;
    config.trials = 6;
    config.seed = 42;
    config.threads = 2;
    MonteCarloRunner mc(*bench, *model, config);
    const auto sweep =
        frequency_sweep(mc, base, arange(f0 - 0.5, f0 + 1.5, 0.5));
    const std::string legacy_path = dir_ + "/c/legacy.csv";
    write_sweep_csv(legacy_path, sweep);
    EXPECT_EQ(campaign_csv, read_file(legacy_path));
}

TEST_F(CampaignTest, ManifestEscapesControlCharactersInNames) {
    // A tab in a panel name is written as \t, not dropped, and a quote
    // is escaped: the manifest stays valid JSON that names the panel.
    CampaignSpec spec = tiny_campaign();
    spec.panels.erase(spec.panels.begin());  // keep the op-stream panel
    spec.panels[0].name = "a\tb\"c";
    spec.panels[0].grid = GridSpec::explicit_values({700.0});
    CampaignRunner runner(spec, options("e"));
    const CampaignResult result = runner.run();
    ASSERT_TRUE(result.completed);
    const std::string manifest = read_file(result.manifest_path);
    EXPECT_NE(manifest.find(R"({"name": "a\tb\"c")"), std::string::npos)
        << manifest;
}

}  // namespace
}  // namespace sfi::campaign
