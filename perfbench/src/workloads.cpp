#include "workloads.hpp"

#include <stdexcept>

#include "campaign/figures.hpp"

namespace perfbench {

using sfi::campaign::CampaignSpec;
using sfi::campaign::ModelSpec;

const std::vector<WorkloadInfo>& workloads() {
    static const std::vector<WorkloadInfo> all = {
        {Workload::Fig5Cold, "fig5_cold", true, false, false},
        {Workload::Fig1Cheap, "fig1_cheap", false, false, true},
        {Workload::Fig4Opstream, "fig4_opstream", false, false, false},
        {Workload::MitigationAll, "mitigation_all", false, true, false},
    };
    return all;
}

const WorkloadInfo& find_workload(const std::string& name) {
    std::string known;
    for (const WorkloadInfo& w : workloads()) {
        if (name == w.name) return w;
        known += std::string(known.empty() ? "" : ", ") + w.name;
    }
    throw std::invalid_argument("unknown workload '" + name +
                                "' (expected one of " + known + ")");
}

sfi::CoreModelConfig bench_core(const std::string& cdf_cache_path) {
    sfi::CoreModelConfig core;
    core.dta.cycles = kDtaCycles;
    core.cdf_cache_path = cdf_cache_path;
    return core;
}

namespace {

/// The mitigation comparison campaign (bench_cwc_compare's shape) over
/// every app kernel: bare models A/B+/C plus Razor and CWC around C.
CampaignSpec mitigation_all(const sfi::CoreModelConfig& core,
                            std::uint64_t seed) {
    CampaignSpec spec;
    spec.name = "mitigation_all";
    spec.core = core;
    spec.trials = kMitigationTrials;
    spec.seed = seed;
    std::uint64_t offset = 0;
    for (const sfi::BenchmarkId kernel : sfi::all_benchmarks())
        for (const ModelSpec& model : mitigation_detectors()) {
            sfi::campaign::PanelSpec panel;
            panel.name = std::string("mit_") + sfi::benchmark_name(kernel) +
                         "_" + detector_tag(model);
            panel.kernel = sfi::campaign::KernelSpec::bench(kernel);
            panel.model = model;
            panel.base.vdd = 0.7;
            panel.base.noise.sigma_mv = 10.0;
            panel.grid = sfi::campaign::GridSpec::sta_linspace(0.94, 1.12, 7);
            panel.seed_offset = offset++;
            spec.panels.push_back(std::move(panel));
        }
    return spec;
}

}  // namespace

CampaignSpec make_spec(const WorkloadInfo& workload,
                       const sfi::CoreModelConfig& core, std::uint64_t seed) {
    namespace figures = sfi::campaign::figures;
    switch (workload.id) {
        case Workload::Fig5Cold: return figures::fig5(core, 0, seed);
        case Workload::Fig1Cheap: return figures::fig1(core, 0, seed);
        case Workload::Fig4Opstream:
            return figures::fig4(core, kOpstreamTrials, seed);
        case Workload::MitigationAll: return mitigation_all(core, seed);
    }
    throw std::logic_error("make_spec: unknown workload");
}

std::string detector_tag(const ModelSpec& model) {
    switch (model.mitigation) {
        case ModelSpec::Mitigation::Razor: return "razor";
        case ModelSpec::Mitigation::Cwc:
            return "cwc" + std::to_string(model.cwc_block_bits);
        case ModelSpec::Mitigation::None: break;
    }
    switch (model.kind) {
        case ModelSpec::Kind::A: return "bareA";
        case ModelSpec::Kind::B: return "bareB";
        case ModelSpec::Kind::C: return "bareC";
    }
    throw std::logic_error("detector_tag: unknown model kind");
}

const std::vector<ModelSpec>& mitigation_detectors() {
    static const std::vector<ModelSpec> detectors = {
        ModelSpec::a(1e-4),
        ModelSpec::b(),
        ModelSpec::c(),
        ModelSpec::c().with_razor(),
        ModelSpec::c().with_cwc(8, 2),
    };
    return detectors;
}

}  // namespace perfbench
