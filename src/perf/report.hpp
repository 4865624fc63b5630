// The BENCH_core.json report: the repo's core perf trajectory artifact,
// produced by bench/sfi_perf.cpp and gated in CI by
// scripts/check_perf_regression.py against scripts/perf_baseline.json.
//
// Schema (stable; bump kSchemaVersion on breaking change):
//
//   {
//     "schema": "sfi-bench-core",
//     "schema_version": 3,
//     "config":   { seed, dta_cycles, trials, benchmark, dispatch },
//                 (v2: "dispatch" records the ISS execution engine the
//                  kernels ran under; always "threaded" since the
//                  threaded interpreter became the only production
//                  engine, and the regression gate still checks it)
//     "phases":   [ { phase, seconds, calls, items } x kPhaseCount ],
//                 (v2: the phase list gained "decode" — micro-op lowering
//                  for the threaded-dispatch interpreter; v3: it gained
//                  "fault_sampling_batch" — block-prefetched draw
//                  sampling, fi/sampling_batch.hpp)
//     "kernels":  [ { label, model, benchmark, freq_mhz, vdd, sigma_mv,
//                     trials, fast_path,
//                     scaling: [ { threads, seconds, trials_per_sec } ] } ],
//     "fast_path": { sim_trials_per_sec, fastpath_trials_per_sec, speedup },
//     "fault_sampling": { scalar_ops_per_sec, batched_ops_per_sec,
//                         quantized_ops_per_sec, batched_speedup, avx2 },
//                 (v3: within-run comparison of the draw->index sampling
//                  kernels; batched_speedup is machine-independent like
//                  fast_path.speedup and is held to a baseline floor;
//                  "avx2" is always false since the AVX2 conversion
//                  kernel was removed, and the regression gate prints it)
//     "campaign": { figure, seconds, trials_spent } | null,
//     "metrics":  { counters: [ { name, value } ],
//                   gauges:   [ { name, value } ] },
//                 (v4: the obs::MetricsRegistry the report's campaign
//                  sample accumulated into — named counters in sorted
//                  order, so the block is deterministic for equal work)
//     "wall_clock_s": ...
//   }
//
// "kernels" carries the machine-dependent absolute throughputs (compared
// against the checked-in baseline with a noise margin); "fast_path" is a
// within-run ratio and therefore machine-independent — the regression
// gate holds it to a hard floor.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "perf/perf.hpp"

namespace sfi::perf {

inline constexpr int kSchemaVersion = 4;

/// One (thread count, duration) sample of a kernel bench.
struct ThreadSample {
    std::size_t threads = 1;
    double seconds = 0.0;
    double trials_per_sec = 0.0;
};

/// Trial-kernel throughput for one fault model at one operating point.
struct KernelBench {
    std::string label;      ///< stable identifier, the baseline join key
    std::string model;      ///< FaultModel::name() ("A", "B", "B+", "C")
    std::string benchmark;  ///< application kernel (e.g. "median")
    double freq_mhz = 0.0;
    double vdd = 0.0;
    double sigma_mv = 0.0;
    std::size_t trials = 0;         ///< trials per sample
    bool fast_path = true;          ///< zero-fault fast path enabled?
    std::vector<ThreadSample> scaling;
};

/// Within-run effect of the zero-fault trial fast path at a sub-threshold
/// operating point: same trials, fast path off vs. on.
struct FastPathResult {
    double sim_trials_per_sec = 0.0;       ///< fast path disabled
    double fastpath_trials_per_sec = 0.0;  ///< fast path enabled
    double speedup = 0.0;                  ///< fastpath / sim
};

/// Within-run throughput of the draw -> table-index sampling paths
/// (bench_fault_sampling in bench/sfi_perf.cpp): synthetic ALU-op streams
/// through model B+ under each FaultSamplingMode. batched_speedup
/// (batched / scalar) is machine-independent, like FastPathResult's
/// ratio, so the regression gate holds it to a hard floor.
struct FaultSamplingResult {
    double scalar_ops_per_sec = 0.0;
    double batched_ops_per_sec = 0.0;
    double quantized_ops_per_sec = 0.0;
    double batched_speedup = 0.0;  ///< batched / scalar
};

/// Wall clock of a small end-to-end figure campaign (store disabled, so
/// every point is computed).
struct CampaignSample {
    std::string figure;
    double seconds = 0.0;
    std::uint64_t trials_spent = 0;
};

struct PerfReport {
    std::uint64_t seed = 1;
    std::size_t dta_cycles = 0;
    std::size_t trials = 0;
    std::string benchmark;
    PhaseProfile phases;
    std::vector<KernelBench> kernels;
    FastPathResult fast_path;
    FaultSamplingResult fault_sampling;
    std::optional<CampaignSample> campaign;
    /// Campaign counters/gauges (v4) — what the report's campaign sample
    /// accumulated through obs::MetricsRegistry; empty when no campaign
    /// figure was run.
    obs::MetricsRegistry metrics;
    double wall_clock_s = 0.0;
};

/// Emits the report in the schema above (stable key order, deterministic
/// number formatting — see json_writer.hpp).
void write_bench_core_json(std::ostream& os, const PerfReport& report);

}  // namespace sfi::perf
