// The benchmark's four campaign workloads (why each exists: README.md).
//
// Every workload is a CampaignSpec built from the library's public
// factories, run at one characterization configuration so the warm
// workloads share one pre-built CDF cache.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "campaign/spec.hpp"

namespace perfbench {

enum class Workload { Fig5Cold, Fig1Cheap, Fig4Opstream, MitigationAll };

struct WorkloadInfo {
    Workload id;
    const char* name;
    /// The campaign starts without a CDF cache: set-up is a full DTA.
    bool cold_cdf;
    /// Forensic re-runs of every Benchmark point (RunOptions::forensics_dir).
    bool forensics;
    /// Runs on one MC thread unless --threads says otherwise. At one worker
    /// per CPU its milliseconds-long trial blocks time the VM's cross-vCPU
    /// thread wake-ups, whose cost doubles and halves with the host's load
    /// for minutes at a time (README.md, "Noise").
    bool serial;
};

const std::vector<WorkloadInfo>& workloads();
/// Throws std::invalid_argument naming the accepted workloads.
const WorkloadInfo& find_workload(const std::string& name);

/// DTA kernel length of the benchmark core: a quarter of the paper's 8 k
/// cycles, so the cold workload can characterize several times per run
/// (DTA cost is linear in the kernel length).
inline constexpr std::size_t kDtaCycles = 2048;
/// Trials per point of fig4_opstream and mitigation_all (fig5_cold and
/// fig1_cheap keep the figures' own 100).
inline constexpr std::size_t kOpstreamTrials = 10;
inline constexpr std::size_t kMitigationTrials = 10;
/// Forensic re-runs per mitigation_all point.
inline constexpr std::size_t kForensicsTrials = 4;
/// The campaign seed the recorded CSV digests belong to (the figure
/// factories' default).
inline constexpr std::uint64_t kDefaultSeed = 1;

sfi::CoreModelConfig bench_core(const std::string& cdf_cache_path);

sfi::campaign::CampaignSpec make_spec(const WorkloadInfo& workload,
                                      const sfi::CoreModelConfig& core,
                                      std::uint64_t seed);

/// Detector label of a panel model: "bareA", "bareB", "bareC", "razor",
/// "cwc8" (block bits appended).
std::string detector_tag(const sfi::campaign::ModelSpec& model);

/// The detectors mitigation_all runs on every kernel, in panel order.
const std::vector<sfi::campaign::ModelSpec>& mitigation_detectors();

}  // namespace perfbench
