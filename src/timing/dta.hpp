// Dynamic timing analysis of the ALU (paper §3.4, method of [14]).
//
// For every ALU instruction class, an N-cycle characterization kernel
// applies fresh uniformly random operands each cycle and records the
// event-driven arrival time at each of the 32 endpoints. The resulting
// per-(instruction, endpoint) arrival-time samples are the raw material
// for the timing-error-probability CDFs of fault model C:
//     P_{E,V,I}(f) = v_f / n_I
// with v_f the number of cycles whose arrival (+ setup) exceeds 1/f.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "circuits/alu.hpp"
#include "perf/perf.hpp"
#include "timing/event_sim.hpp"
#include "timing/timing_lib.hpp"

namespace sfi {

struct DtaConfig {
    std::size_t cycles = 8192;  ///< characterization kernel length (paper: 8 k)
    std::uint64_t seed = 0xD7A0C0DEULL;
    double clk_to_q_ps = -1.0;  ///< negative: use the library's clk->Q
    /// Restrict operands to this many low bits (32 = full range). Used by
    /// the instruction-characterization experiment (16-bit adds, Fig. 4).
    unsigned operand_bits = 32;
};

struct DtaClassResult {
    ExClass cls = ExClass::None;
    /// arrivals_ps[endpoint][cycle], ps at Vref; 0 when the endpoint did
    /// not toggle that cycle (cannot mis-capture).
    std::vector<std::vector<float>> arrivals_ps;
    double max_arrival_ps = 0.0;   ///< worst observed arrival (dynamic slack)
    std::size_t active_cells = 0;  ///< size of the instruction's logic cone
    std::uint64_t events = 0;      ///< simulation effort, for reports
};

struct DtaResult {
    std::vector<DtaClassResult> classes;  ///< in Alu::instruction_classes() order
    double setup_ps = 0.0;
    std::size_t cycles = 0;
    double worst_arrival_ps = 0.0;  ///< max over classes
};

/// Cycles per DTA task. Each class's kernel is cut into chunks of this
/// many cycles; a chunk starts from a fresh initialize() at the operands
/// of the cycle just before it, which reproduces the uninterrupted kernel
/// exactly (the EventSim restart invariant), so results do not depend on
/// the chunk size or on how many workers run the chunks.
inline constexpr std::size_t kDtaChunkCycles = 256;

/// Characterizes `classes` (results in the same order) on `workers`
/// threads; 0 = one per CPU in the caller's affinity mask
/// (resolve_thread_count). Operands are drawn up front per class, in the
/// serial kernel's RNG order; (class, chunk) tasks then run largest cone
/// first. Results are bit-identical for every worker count. When
/// `profile` is non-null it receives, from the calling thread only, one
/// Phase::DtaEval and one Phase::EventSimSettle record per class (items =
/// kernel cycles, seconds summed over that class's chunks).
std::vector<DtaClassResult> run_dta_classes(const Alu& alu,
                                            const InstanceTiming& timing,
                                            const std::vector<ExClass>& classes,
                                            const DtaConfig& config = {},
                                            std::size_t workers = 0,
                                            perf::PhaseProfile* profile = nullptr);

/// Characterizes every instruction class of `alu` with the automatic
/// worker count (see run_dta_classes for the profile records).
DtaResult run_dta(const Alu& alu, const InstanceTiming& timing,
                  const DtaConfig& config = {},
                  perf::PhaseProfile* profile = nullptr);

/// Characterizes a single class (used by tests and focused experiments).
DtaClassResult run_dta_class(const Alu& alu, const InstanceTiming& timing,
                             ExClass cls, const DtaConfig& config = {},
                             perf::PhaseProfile* profile = nullptr);

}  // namespace sfi
