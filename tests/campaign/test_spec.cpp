// CampaignSpec / point-key fingerprint semantics: equal descriptions
// hash equal, every physics-relevant knob changes the key, and
// presentation details (panel names, titles) do not — the content
// addressing that lets re-described campaigns hit the store.
#include "campaign/spec.hpp"

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "campaign/figures.hpp"

namespace sfi::campaign {
namespace {

CampaignSpec tiny_spec() {
    CampaignSpec spec;
    spec.name = "tiny";
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
    return spec;
}

OperatingPoint sample_point() {
    OperatingPoint point;
    point.freq_mhz = 715.0;
    point.vdd = 0.7;
    point.noise.sigma_mv = 10.0;
    return point;
}

TEST(CampaignFingerprint, EqualSpecsHashEqual) {
    EXPECT_EQ(tiny_spec().fingerprint(), tiny_spec().fingerprint());
}

TEST(CampaignFingerprint, SimKnobsChangeTheFingerprint) {
    const std::uint64_t base = tiny_spec().fingerprint();

    CampaignSpec trials = tiny_spec();
    trials.trials = 13;
    EXPECT_NE(trials.fingerprint(), base);

    CampaignSpec seed = tiny_spec();
    seed.seed = 6;
    EXPECT_NE(seed.fingerprint(), base);

    CampaignSpec grid = tiny_spec();
    grid.panels[0].grid = GridSpec::explicit_values({700.0, 721.0});
    EXPECT_NE(grid.fingerprint(), base);

    CampaignSpec core = tiny_spec();
    core.core.dta.cycles = 2048;
    EXPECT_NE(core.fingerprint(), base);
}

TEST(PointKey, StableForEqualInputs) {
    const CampaignSpec spec = tiny_spec();
    EXPECT_EQ(point_key(spec, spec.panels[0], 0x123, sample_point()),
              point_key(spec, spec.panels[0], 0x123, sample_point()));
}

TEST(PointKey, IndependentOfPresentation) {
    const CampaignSpec spec = tiny_spec();
    const std::uint64_t base =
        point_key(spec, spec.panels[0], 0x123, sample_point());

    // Renaming / retitling the panel or re-describing the grid must not
    // orphan stored points.
    CampaignSpec renamed = tiny_spec();
    renamed.panels[0].name = "renamed";
    renamed.panels[0].title = "whole new title";
    renamed.panels[0].grid = GridSpec::linspace(700.0, 730.0, 4);
    EXPECT_EQ(point_key(renamed, renamed.panels[0], 0x123, sample_point()),
              base);
}

TEST(PointKey, PhysicsKnobsChangeTheKey) {
    const CampaignSpec spec = tiny_spec();
    const std::uint64_t base =
        point_key(spec, spec.panels[0], 0x123, sample_point());

    EXPECT_NE(point_key(spec, spec.panels[0], 0x124, sample_point()), base)
        << "core fingerprint must be part of the key";

    OperatingPoint moved = sample_point();
    moved.freq_mhz += 0.5;
    EXPECT_NE(point_key(spec, spec.panels[0], 0x123, moved), base);

    OperatingPoint noisier = sample_point();
    noisier.noise.sigma_mv = 25.0;
    EXPECT_NE(point_key(spec, spec.panels[0], 0x123, noisier), base);

    CampaignSpec trials = tiny_spec();
    trials.trials = 13;
    EXPECT_NE(point_key(trials, trials.panels[0], 0x123, sample_point()), base);

    CampaignSpec offset = tiny_spec();
    offset.panels[0].seed_offset = 1;
    EXPECT_NE(point_key(offset, offset.panels[0], 0x123, sample_point()), base);

    CampaignSpec model = tiny_spec();
    model.panels[0].model = ModelSpec::b();
    EXPECT_NE(point_key(model, model.panels[0], 0x123, sample_point()), base);

    CampaignSpec policy = tiny_spec();
    policy.panels[0].model.policy = FaultPolicy::StaleCapture;
    EXPECT_NE(point_key(policy, policy.panels[0], 0x123, sample_point()), base);

    CampaignSpec kernel = tiny_spec();
    kernel.panels[0].kernel = KernelSpec::bench(BenchmarkId::KMeans);
    EXPECT_NE(point_key(kernel, kernel.panels[0], 0x123, sample_point()), base);

    CampaignSpec conditioned = tiny_spec();
    conditioned.panels[0].dta_operand_bits = 16;
    EXPECT_NE(
        point_key(conditioned, conditioned.panels[0], 0x123, sample_point()),
        base);
}

TEST(PointKey, UnusedModelKnobsDoNotChangeTheKey) {
    // flip_probability only matters for model A.
    CampaignSpec spec = tiny_spec();
    const std::uint64_t base =
        point_key(spec, spec.panels[0], 0x123, sample_point());
    spec.panels[0].model.flip_probability = 0.5;
    EXPECT_EQ(point_key(spec, spec.panels[0], 0x123, sample_point()), base);

    CampaignSpec model_a = tiny_spec();
    model_a.panels[0].model = ModelSpec::a(1e-4);
    const std::uint64_t a_base =
        point_key(model_a, model_a.panels[0], 0x123, sample_point());
    model_a.panels[0].model.flip_probability = 1e-3;
    EXPECT_NE(point_key(model_a, model_a.panels[0], 0x123, sample_point()),
              a_base);
}

TEST(FigureFactories, DescribeTheHistoricalPanels) {
    const CoreModelConfig core;
    const CampaignSpec fig1 = figures::fig1(core);
    ASSERT_EQ(fig1.panels.size(), 3u);
    EXPECT_EQ(fig1.trials, 100u);
    EXPECT_EQ(fig1.panels[0].name, "fig1_sigma0");
    EXPECT_EQ(fig1.panels[2].name, "fig1_sigma25");
    EXPECT_EQ(fig1.panels[1].model.kind, ModelSpec::Kind::B);
    EXPECT_EQ(fig1.panels[1].grid.kind, GridSpec::Kind::FirstFaultWindow);

    const CampaignSpec fig4 = figures::fig4(core);
    ASSERT_EQ(fig4.panels.size(), 3u);
    EXPECT_EQ(fig4.panels[0].kernel.kind, KernelSpec::Kind::OpStream);
    EXPECT_EQ(fig4.panels[0].dta_operand_bits, 16u);
    EXPECT_EQ(fig4.panels[1].dta_operand_bits, 32u);
    EXPECT_EQ(fig4.panels[2].kernel.cls, ExClass::Mul);
    EXPECT_NE(fig4.panels[0].seed_offset, fig4.panels[1].seed_offset);

    const CampaignSpec fig5 = figures::fig5(core);
    EXPECT_EQ(fig5.panels.size(), 6u);
    EXPECT_EQ(fig5.panels[0].grid.kind, GridSpec::Kind::StaLinspace);

    const CampaignSpec fig7 = figures::fig7(core);
    ASSERT_EQ(fig7.panels.size(), 3u);
    EXPECT_EQ(fig7.panels[0].axis, Axis::Voltage);
    EXPECT_EQ(fig7.panels[0].base_freq_sta_factor, 1.0);

    const CampaignSpec fig2 = figures::fig2(core);
    EXPECT_TRUE(fig2.panels.empty());
    ASSERT_EQ(fig2.cdf_panels.size(), 1u);
    EXPECT_EQ(fig2.cdf_panels[0].curves.size(), 8u);

    const CampaignSpec adder = figures::ablation_adder(core);
    ASSERT_EQ(adder.panels.size(), 2u);
    ASSERT_TRUE(adder.panels[1].core_override.has_value());
    EXPECT_EQ(adder.panels[1].core_override->alu.adder, AdderKind::RippleCarry);

    // The figure table: unique names, each building a spec of that name,
    // and console presentation wherever the runner prints nothing itself —
    // panels with print_table off (and CDF panels) need a report, untitled
    // panels need a header.
    const std::vector<figures::Figure>& table = figures::figure_table();
    EXPECT_EQ(table.size(), 10u);
    std::set<std::string> names;
    for (const figures::Figure& figure : table) {
        EXPECT_TRUE(names.insert(figure.name).second) << figure.name;
        EXPECT_EQ(figures::find_figure(figure.name), &figure);
        EXPECT_TRUE(figure.header != nullptr || figure.report != nullptr)
            << figure.name;
        CampaignSpec spec;
        ASSERT_NO_THROW(spec = figures::make_figure(figure.name, core))
            << figure.name;
        EXPECT_EQ(spec.name, figure.name);
        if (!spec.cdf_panels.empty()) {
            EXPECT_NE(figure.report, nullptr) << figure.name;
        }
        for (const PanelSpec& panel : spec.panels) {
            if (!panel.print_table) {
                EXPECT_NE(figure.report, nullptr) << panel.name;
            } else if (panel.title.empty()) {
                EXPECT_NE(figure.header, nullptr) << panel.name;
            }
        }
    }
    EXPECT_EQ(figures::find_figure("fig99"), nullptr);
    EXPECT_THROW(figures::make_figure("fig99", core), std::invalid_argument);
}

// A cancelled campaign may hold partial panels, which a report would
// index past; run_figure must print reports only for completed runs.
TEST(FigureFactories, ReportsRunOnlyOnCompletedCampaigns) {
    static int reports = 0;
    const figures::Figure figure = {
        "probe", nullptr, nullptr,
        [](std::ostream&, CampaignRunner&, const CampaignResult&) {
            ++reports;
        }};
    std::ostringstream console;

    RunOptions cancelled;
    cancelled.console = &console;
    cancelled.cancelled = [] { return true; };
    EXPECT_FALSE(figures::run_figure(figure, tiny_spec(), cancelled).completed);
    EXPECT_EQ(reports, 0);

    // Control: a campaign with nothing to run completes and reports.
    RunOptions plain;
    plain.console = &console;
    CampaignSpec empty = tiny_spec();
    empty.panels.clear();
    EXPECT_TRUE(figures::run_figure(figure, empty, plain).completed);
    EXPECT_EQ(reports, 1);
}

}  // namespace
}  // namespace sfi::campaign
