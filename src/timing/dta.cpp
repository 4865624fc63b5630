#include "timing/dta.hpp"

#include <algorithm>
#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "timing/const_prop.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

/// One class's kernel: every operand pair, drawn up front.
struct ClassKernel {
    ExClass cls;
    /// a/b pairs: pair 0 initializes, pair c + 1 drives cycle c.
    std::vector<std::uint32_t> operands;
};

struct ChunkTask {
    std::size_t kernel;
    std::size_t first_cycle;
};

struct ChunkStats {
    double max_arrival_ps = 0.0;
    std::uint64_t events = 0;
    double settle_s = 0.0;
    double task_s = 0.0;
};

/// A worker's simulator, rebuilt only when the worker moves to another
/// class (building one costs well under a millisecond).
struct WorkerSim {
    std::size_t kernel = SIZE_MAX;
    std::optional<EventSim> sim;
    EventSim::BusHandle a = 0;
    EventSim::BusHandle b = 0;
};

ClassKernel draw_operands(ExClass cls, const DtaConfig& config) {
    ClassKernel kernel{cls, std::vector<std::uint32_t>(2 * (config.cycles + 1))};
    // Seed per class so adding classes never perturbs existing statistics.
    Rng rng(config.seed ^ (static_cast<std::uint64_t>(cls) * 0x9e3779b97f4a7c15ULL));
    const std::uint32_t mask =
        config.operand_bits >= 32 ? 0xffffffffu
                                  : ((1u << config.operand_bits) - 1u);
    for (std::uint32_t& operand : kernel.operands) operand = rng.u32() & mask;
    return kernel;
}

}  // namespace

std::vector<DtaClassResult> run_dta_classes(const Alu& alu,
                                            const InstanceTiming& timing,
                                            const std::vector<ExClass>& classes,
                                            const DtaConfig& config,
                                            std::size_t workers,
                                            perf::PhaseProfile* profile) {
    const std::size_t cycles = config.cycles;
    const std::size_t width = alu.netlist.output_bus("y").size();
    std::vector<ClassKernel> kernels;
    std::vector<DtaClassResult> results(classes.size());
    kernels.reserve(classes.size());
    for (std::size_t k = 0; k < classes.size(); ++k) {
        kernels.push_back(draw_operands(classes[k], config));
        DtaClassResult& result = results[k];
        result.cls = classes[k];
        // The cone EventSim simulates: every net the op code leaves variable.
        result.active_cells = count_variable(propagate_constants(
            alu.netlist, {{"op", Alu::op_code(classes[k])}}));
        result.arrivals_ps.assign(width, std::vector<float>(cycles, 0.0f));
    }

    // Largest cone first (Mul dominates), so the long tasks do not start
    // last; within a class, chunks run in cycle order.
    std::vector<ChunkTask> tasks;
    for (std::size_t k = 0; k < kernels.size(); ++k)
        for (std::size_t first = 0; first < cycles; first += kDtaChunkCycles)
            tasks.push_back({k, first});
    std::stable_sort(tasks.begin(), tasks.end(),
                     [&](const ChunkTask& x, const ChunkTask& y) {
                         return results[x.kernel].active_cells >
                                results[y.kernel].active_cells;
                     });

    // Workers write disjoint cycles of the arrival tables and their own
    // task's stats; the profile is touched below, after the join, from
    // this thread only.
    EventSimConfig sim_config;
    sim_config.clk_to_q_ps = config.clk_to_q_ps;
    std::vector<WorkerSim> sims(resolve_thread_count(workers));
    std::vector<ChunkStats> stats(tasks.size());
    for_each_trial(tasks.size(), sims.size(), 1,
                   [&](std::size_t worker, std::uint64_t index) {
        const perf::Stopwatch task_watch;
        const ChunkTask& task = tasks[index];
        const ClassKernel& kernel = kernels[task.kernel];
        WorkerSim& w = sims[worker];
        if (w.kernel != task.kernel) {
            w.sim.reset();  // free the old cone before building the next
            w.sim.emplace(alu.netlist, timing,
                          std::map<std::string, std::uint64_t>{
                              {"op", Alu::op_code(kernel.cls)}},
                          "y", sim_config);
            w.a = w.sim->input_handle("a");
            w.b = w.sim->input_handle("b");
            w.kernel = task.kernel;
        }
        EventSim& sim = *w.sim;
        const std::uint32_t* operands = kernel.operands.data();
        sim.set_input(w.a, operands[2 * task.first_cycle]);
        sim.set_input(w.b, operands[2 * task.first_cycle + 1]);
        sim.initialize();
        const std::uint64_t events_before = sim.total_events();

        ChunkStats& out = stats[index];
        std::vector<std::vector<float>>& arrivals_ps =
            results[task.kernel].arrivals_ps;
        const std::size_t end =
            std::min(task.first_cycle + kDtaChunkCycles, cycles);
        const perf::Stopwatch settle_watch;
        for (std::size_t cycle = task.first_cycle; cycle < end; ++cycle) {
            sim.set_input(w.a, operands[2 * cycle + 2]);
            sim.set_input(w.b, operands[2 * cycle + 3]);
            const std::vector<double>& arrivals = sim.settle();
            for (std::size_t bit = 0; bit < arrivals.size(); ++bit) {
                const double a = arrivals[bit];
                arrivals_ps[bit][cycle] = static_cast<float>(a);
                out.max_arrival_ps = std::max(out.max_arrival_ps, a);
            }
        }
        out.settle_s = settle_watch.seconds();
        out.events = sim.total_events() - events_before;
        out.task_s = task_watch.seconds();
    });

    std::vector<double> eval_s(kernels.size()), settle_s(kernels.size());
    for (std::size_t index = 0; index < tasks.size(); ++index) {
        const std::size_t k = tasks[index].kernel;
        const ChunkStats& s = stats[index];
        results[k].max_arrival_ps = std::max(results[k].max_arrival_ps,
                                             s.max_arrival_ps);
        results[k].events += s.events;
        eval_s[k] += s.task_s;
        settle_s[k] += s.settle_s;
    }
    if (profile)
        for (std::size_t k = 0; k < kernels.size(); ++k) {
            profile->add(perf::Phase::EventSimSettle, settle_s[k], cycles);
            profile->add(perf::Phase::DtaEval, eval_s[k], cycles);
        }
    return results;
}

DtaClassResult run_dta_class(const Alu& alu, const InstanceTiming& timing,
                             ExClass cls, const DtaConfig& config,
                             perf::PhaseProfile* profile) {
    return std::move(
        run_dta_classes(alu, timing, {cls}, config, 0, profile).front());
}

DtaResult run_dta(const Alu& alu, const InstanceTiming& timing,
                  const DtaConfig& config, perf::PhaseProfile* profile) {
    DtaResult result;
    result.setup_ps = timing.setup_ps();
    result.cycles = config.cycles;
    result.classes = run_dta_classes(alu, timing, Alu::instruction_classes(),
                                     config, 0, profile);
    for (const DtaClassResult& cls : result.classes)
        result.worst_arrival_ps =
            std::max(result.worst_arrival_ps, cls.max_arrival_ps);
    return result;
}

}  // namespace sfi
