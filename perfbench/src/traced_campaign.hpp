// The traced campaign: CampaignRunner::run()'s point loop re-driven from
// the benchmark through the library's public calls, with a span around
// each call into a layer.
//
// The untraced end-to-end run uses CampaignRunner::run() itself. The
// traced run cannot, because run() hides its layer boundaries, so it
// walks the same sequence the runner walks:
//
//   CampaignRunner::core_for / resolve_grid        (campaign, timing)
//   point_key, PointStore::lookup / insert         (point_store)
//   run_dta_class for conditioned panels           (timing)
//   MonteCarloRunner ctor = golden run             (cpu)
//   make_trial_contexts = BatchedExecutor ctor     (sampling)
//   run_trial_block + accumulate_trials            (mc) — the two halves of
//                                                  BatchedExecutor::run_batch
//   run_forensic_block = BatchedExecutor::run_forensics   (fi forensics)
//   FaultModel::on_ex_result op loop               (fi, OpStream kernels)
//
// and must reproduce run()'s PointSummaries bit for bit — main.cpp checks
// that on every traced campaign, so the trace describes the program that
// was timed. Only fixed-N grid panels are supported (every workload's
// panels are); anything else throws.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "campaign/point_store.hpp"
#include "campaign/runner.hpp"
#include "spans.hpp"
#include "stats.hpp"

namespace perfbench {

struct CpuTimes {
    double user_s = 0.0;
    double sys_s = 0.0;
    double total() const { return user_s + sys_s; }
};

/// User and system CPU time of this process, every thread included
/// (getrusage RUSAGE_SELF; worker threads count once joined).
CpuTimes process_cpu();

/// Counts taken at the layer boundaries, summed over traced campaigns.
struct LayerCounters {
    double block_wall_s = 0.0;  ///< run_trial_block wall time
    double block_cpu_s = 0.0;   ///< process user+sys CPU during blocks
    double block_sys_s = 0.0;
    std::uint64_t block_trials = 0;
    std::uint64_t sim_cycles = 0;   ///< Σ TrialOutcome::cycles
    std::uint64_t mc_points = 0;    ///< Benchmark points computed
    std::uint64_t fastpath_points = 0;
    std::uint64_t alu_ops = 0;      ///< FiStats over every computed trial
    std::uint64_t injections = 0;
    double op_loop_s = 0.0;         ///< OpStream on_ex_result loops
    std::uint64_t stream_ops = 0;
    double campaign_wall_s = 0.0;   ///< traced campaigns, end to end
    /// Block CPU seconds (num) over trials (den) per detector_tag().
    std::map<std::string, Ratio> cpu_per_trial;
};

struct TraceState {
    SpanRecorder spans;
    LayerCounters counters;
    std::int64_t next_point = 0;  ///< point ids shared by a point's spans
};

/// Summaries per panel, in spec and grid order.
using Sweeps = std::vector<std::vector<sfi::PointSummary>>;

/// Runs every panel of runner.spec() against `store` like
/// CampaignRunner::run() does (without CSV, manifest or forensic
/// artifacts). `forensics_trials` = 0 turns the forensic pass off.
Sweeps run_traced_campaign(sfi::campaign::CampaignRunner& runner,
                           sfi::campaign::PointStore& store,
                           std::size_t threads, std::size_t forensics_trials,
                           TraceState& state);

/// The warm path: every point of runner.spec() looked up in `store`.
/// Throws if a point is missing.
Sweeps lookup_traced_campaign(sfi::campaign::CampaignRunner& runner,
                              const sfi::campaign::PointStore& store,
                              TraceState& state);

}  // namespace perfbench
