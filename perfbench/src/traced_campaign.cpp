#include "traced_campaign.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "apps/benchmark.hpp"
#include "fi/cwc.hpp"
#include "fi/mitigation.hpp"
#include "isa/isa.hpp"
#include "mc/parallel.hpp"
#include "timing/dta.hpp"
#include "util/rng.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using sfi::campaign::CampaignRunner;
using sfi::campaign::CampaignSpec;
using sfi::campaign::KernelSpec;
using sfi::campaign::ModelSpec;
using sfi::campaign::PanelSpec;
using sfi::campaign::PointStore;
using Scope = SpanRecorder::Scope;

void check_supported(const CampaignSpec& spec, const PanelSpec& panel) {
    if (panel.poff || sfi::campaign::effective_sampling(spec, panel).adaptive())
        throw std::invalid_argument("traced campaign: panel '" + panel.name +
                                    "' is not a fixed-N grid panel");
}

/// The panel's base point and grid, as CampaignRunner::resolve_panel
/// resolves them.
struct Resolved {
    sfi::OperatingPoint base;
    std::vector<double> axis;
};

Resolved resolve(CampaignRunner& runner, const PanelSpec& panel,
                 SpanRecorder& spans) {
    const Scope scope(spans, "campaign.resolve");
    Resolved r{panel.base, runner.resolve_grid(panel)};
    if (panel.base_freq_sta_factor)
        r.base.freq_mhz = *panel.base_freq_sta_factor *
                          runner.core_for(panel).sta_fmax_mhz(r.base.vdd);
    return r;
}

sfi::OperatingPoint at(const Resolved& r, const PanelSpec& panel,
                       double value) {
    sfi::OperatingPoint point = r.base;
    if (panel.axis == sfi::campaign::Axis::Frequency)
        point.freq_mhz = value;
    else
        point.vdd = value;
    return point;
}

struct ConditionedKey {
    std::uint64_t core;
    sfi::ExClass cls;
    unsigned bits;
    bool operator<(const ConditionedKey& o) const {
        if (core != o.core) return core < o.core;
        if (cls != o.cls) return cls < o.cls;
        return bits < o.bits;
    }
};
using ConditionedStores =
    std::map<ConditionedKey, std::shared_ptr<const sfi::TimingErrorCdfs>>;

/// CampaignRunner::make_model: bare model, sampling mode and policy, then
/// the detection decorator.
std::unique_ptr<sfi::FaultModel> make_model(const PanelSpec& panel,
                                            const sfi::CharacterizedCore& core,
                                            ConditionedStores& conditioned,
                                            SpanRecorder& spans, std::int64_t id) {
    std::unique_ptr<sfi::FaultModel> model;
    switch (panel.model.kind) {
        case ModelSpec::Kind::A:
            model = core.make_model_a(panel.model.flip_probability);
            break;
        case ModelSpec::Kind::B: model = core.make_model_b(); break;
        case ModelSpec::Kind::C: {
            if (!panel.dta_operand_bits) {
                model = core.make_model_c();
                break;
            }
            const ConditionedKey key{core.fingerprint(), panel.kernel.cls,
                                     *panel.dta_operand_bits};
            auto it = conditioned.find(key);
            if (it == conditioned.end()) {
                sfi::DtaConfig dta = core.config().dta;
                dta.operand_bits = *panel.dta_operand_bits;
                sfi::DtaResult result;
                result.setup_ps = core.timing().setup_ps();
                result.cycles = dta.cycles;
                {
                    const Scope scope(spans, "timing.conditioned_dta", id);
                    result.classes = {sfi::run_dta_class(
                        core.alu(), core.timing(), panel.kernel.cls, dta)};
                }
                result.worst_arrival_ps = result.classes[0].max_arrival_ps;
                it = conditioned
                         .emplace(key, std::make_shared<sfi::TimingErrorCdfs>(
                                           sfi::TimingErrorCdfs::from_dta(result)))
                         .first;
            }
            model = std::make_unique<sfi::ModelC>(it->second, core.lib().fit());
            break;
        }
    }
    model->set_sampling_mode(core.config().fault_sampling);
    model->set_policy(panel.model.policy);
    switch (panel.model.mitigation) {
        case ModelSpec::Mitigation::None: break;
        case ModelSpec::Mitigation::Razor:
            model = std::make_unique<sfi::ErrorDetectionModel>(
                std::move(model), sfi::RazorConfig{panel.model.razor_coverage,
                                                   panel.model.razor_replay_cycles});
            model->set_sampling_mode(core.config().fault_sampling);
            break;
        case ModelSpec::Mitigation::Cwc: {
            sfi::CwcConfig config;
            config.block_bits = panel.model.cwc_block_bits;
            config.recovery_penalty_cycles = panel.model.cwc_recovery_cycles;
            model = std::make_unique<sfi::CwcDetectionModel>(std::move(model),
                                                             config);
            model->set_sampling_mode(core.config().fault_sampling);
            break;
        }
    }
    return model;
}

/// One panel's lazily built executor state (CampaignRunner::run_panel's
/// ensure_executor).
struct PanelExecutor {
    std::unique_ptr<sfi::Benchmark> bench;
    std::unique_ptr<sfi::FaultModel> model;
    std::unique_ptr<sfi::MonteCarloRunner> mc;
    std::vector<std::unique_ptr<sfi::TrialContext>> contexts;
};

/// BatchedExecutor::run_fixed under the fixed-N policy: trial blocks of
/// SamplingPolicy::batch_size, each folded in trial order.
sfi::PointSummary run_fixed_blocks(PanelExecutor& ex,
                                   const sfi::OperatingPoint& point,
                                   std::size_t trials, const std::string& tag,
                                   std::int64_t id, TraceState& state) {
    const std::size_t batch =
        sfi::sampling::SamplingPolicy::fixed_n().batch_size;
    LayerCounters& c = state.counters;
    sfi::PointSummary summary;
    summary.point = point;
    while (summary.trials < trials) {
        const std::size_t count = std::min(batch, trials - summary.trials);
        const bool first_block = summary.trials == 0;
        const CpuTimes cpu0 = process_cpu();
        const int block = state.spans.begin("mc.block", id);
        const std::vector<sfi::TrialOutcome> outcomes = sfi::run_trial_block(
            *ex.mc, point, summary.trials, count, ex.contexts);
        state.spans.end(block);
        const CpuTimes cpu1 = process_cpu();
        {
            const Scope scope(state.spans, "mc.aggregate", id);
            sfi::accumulate_trials(summary, outcomes);
        }
        const double cpu_s = cpu1.total() - cpu0.total();
        c.block_wall_s += state.spans.spans()[static_cast<std::size_t>(block)]
                              .duration();
        c.block_cpu_s += cpu_s;
        c.block_sys_s += cpu1.sys_s - cpu0.sys_s;
        c.block_trials += count;
        Ratio& per_trial = c.cpu_per_trial[tag];
        per_trial.num += cpu_s;
        per_trial.den += static_cast<double>(count);
        for (const sfi::TrialOutcome& o : outcomes) {
            c.sim_cycles += o.cycles;
            c.alu_ops += o.fi.alu_ops;
            c.injections += o.fi.injections;
        }
        // BatchedExecutor::run_batch probes the fast path after the first
        // block; the probe stamps the point on a context model, so the
        // mirror makes the same call at the same moment.
        if (first_block && !ex.contexts.empty() &&
            ex.mc->fast_path_active(*ex.contexts.front()->model, point))
            ++c.fastpath_points;
    }
    ++c.mc_points;
    return summary;
}

/// CampaignRunner::compute_op_stream_point with a span per trial's
/// on_ex_result loop.
sfi::PointSummary run_op_stream(const CampaignSpec& spec,
                                const PanelSpec& panel, sfi::FaultModel& model,
                                const sfi::OperatingPoint& point,
                                std::int64_t id, TraceState& state) {
    const KernelSpec& kernel = panel.kernel;
    model.set_operating_point(point);
    model.reseed(spec.seed + panel.seed_offset);
    sfi::Rng operands(kernel.operand_seed);
    const std::uint32_t mask = kernel.operand_bits >= 32
                                   ? 0xffffffffu
                                   : ((1u << kernel.operand_bits) - 1);
    sfi::PointSummary summary;
    summary.point = point;
    summary.trials = spec.trials;
    for (std::size_t trial = 0; trial < spec.trials; ++trial) {
        model.reset_stats();
        double sum_sq = 0.0;
        const int loop = state.spans.begin("fi.op_stream", id);
        for (std::size_t i = 0; i < kernel.ops_per_trial; ++i) {
            model.on_cycle(true);
            sfi::ExEvent ev;
            ev.cls = kernel.cls;
            ev.operand_a = operands.u32() & mask;
            ev.operand_b = operands.u32() & mask;
            const std::uint32_t correct =
                sfi::alu_result(ev.cls, ev.operand_a, ev.operand_b);
            const std::uint32_t got = model.on_ex_result(ev, correct);
            const double diff =
                static_cast<double>(got) - static_cast<double>(correct);
            sum_sq += diff * diff;
        }
        state.spans.end(loop);
        state.counters.op_loop_s +=
            state.spans.spans()[static_cast<std::size_t>(loop)].duration();
        state.counters.stream_ops += kernel.ops_per_trial;
        state.counters.alu_ops += model.stats().alu_ops;
        state.counters.injections += model.stats().injections;
        ++summary.finished_count;
        if (sum_sq == 0.0) ++summary.correct_count;
        summary.error_stats.add(sum_sq /
                                static_cast<double>(kernel.ops_per_trial));
        summary.fi_rate_stats.add(model.stats().fi_per_kcycle());
    }
    summary.fi_rate = summary.fi_rate_stats.mean();
    summary.mean_error = summary.error_stats.mean();
    return summary;
}

}  // namespace

CpuTimes process_cpu() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    const auto secs = [](const timeval& tv) {
        return static_cast<double>(tv.tv_sec) +
               1e-6 * static_cast<double>(tv.tv_usec);
    };
    return {secs(ru.ru_utime), secs(ru.ru_stime)};
}

Sweeps run_traced_campaign(CampaignRunner& runner, PointStore& store,
                           std::size_t threads, std::size_t forensics_trials,
                           TraceState& state) {
    const CampaignSpec& spec = runner.spec();
    SpanRecorder& spans = state.spans;
    const int campaign = spans.begin("campaign.run");
    ConditionedStores conditioned;
    Sweeps sweeps;
    for (const PanelSpec& panel : spec.panels) {
        check_supported(spec, panel);
        const Scope panel_scope(spans, "campaign.panel");
        const bool is_bench = panel.kernel.kind == KernelSpec::Kind::Benchmark;
        const sfi::CharacterizedCore& core = runner.core_for(panel);
        const Resolved resolved = resolve(runner, panel, spans);
        const std::string tag = detector_tag(panel.model);

        PanelExecutor ex;
        // Built by the first point that needs it, whose id its spans carry.
        const auto ensure_executor = [&](std::int64_t id) {
            if (ex.model) return;
            ex.model = make_model(panel, core, conditioned, spans, id);
            ex.model->set_operating_point(resolved.base);
            if (!is_bench) return;
            ex.bench = sfi::make_benchmark(panel.kernel.benchmark);
            sfi::McConfig config;
            config.trials = spec.trials;
            config.seed = spec.seed + panel.seed_offset;
            config.watchdog_factor = spec.watchdog_factor;
            config.threads = threads;
            config.fault_sampling = core.config().fault_sampling;
            {
                const Scope scope(spans, "cpu.golden_run", id);
                ex.mc = std::make_unique<sfi::MonteCarloRunner>(
                    *ex.bench, *ex.model, config);
            }
            const Scope scope(spans, "sampling.executor_build", id);
            ex.contexts = sfi::make_trial_contexts(*ex.mc, threads);
        };

        std::vector<sfi::PointSummary>& sweep = sweeps.emplace_back();
        for (const double value : resolved.axis) {
            const sfi::OperatingPoint point = at(resolved, panel, value);
            const std::int64_t id = state.next_point++;
            const Scope point_scope(spans, "campaign.point", id);
            std::uint64_t key = 0;
            {
                const Scope scope(spans, "campaign.point_key", id);
                key = sfi::campaign::point_key(spec, panel, core.fingerprint(),
                                               point);
            }
            std::optional<sfi::PointSummary> stored;
            {
                const Scope scope(spans, "point_store.lookup", id);
                stored = store.lookup(key);
            }
            sfi::PointSummary summary;
            if (stored) {
                summary = std::move(*stored);
            } else {
                ensure_executor(id);
                summary = is_bench ? run_fixed_blocks(ex, point, spec.trials,
                                                      tag, id, state)
                                   : run_op_stream(spec, panel, *ex.model,
                                                   point, id, state);
                const Scope scope(spans, "point_store.insert", id);
                store.insert(key, summary);
            }
            if (forensics_trials > 0 && is_bench) {
                ensure_executor(id);
                const std::size_t sample =
                    std::min(forensics_trials, summary.trials);
                const Scope scope(spans, "fi.forensics", id);
                sfi::run_forensic_block(*ex.mc, point, 0, sample, ex.contexts);
            }
            sweep.push_back(std::move(summary));
        }
    }
    spans.end(campaign);
    state.counters.campaign_wall_s +=
        spans.spans()[static_cast<std::size_t>(campaign)].duration();
    return sweeps;
}

Sweeps lookup_traced_campaign(CampaignRunner& runner, const PointStore& store,
                              TraceState& state) {
    const CampaignSpec& spec = runner.spec();
    SpanRecorder& spans = state.spans;
    const Scope campaign(spans, "campaign.warm");
    Sweeps sweeps;
    for (const PanelSpec& panel : spec.panels) {
        check_supported(spec, panel);
        const std::uint64_t core_fp = runner.core_for(panel).fingerprint();
        const Resolved resolved = resolve(runner, panel, spans);
        std::vector<sfi::PointSummary>& sweep = sweeps.emplace_back();
        for (const double value : resolved.axis) {
            const sfi::OperatingPoint point = at(resolved, panel, value);
            const std::int64_t id = state.next_point++;
            const std::uint64_t key =
                sfi::campaign::point_key(spec, panel, core_fp, point);
            std::optional<sfi::PointSummary> stored;
            {
                const Scope scope(spans, "point_store.warm_lookup", id);
                stored = store.lookup(key);
            }
            if (!stored)
                throw std::runtime_error("warm pass: point missing from the "
                                         "store in panel " + panel.name);
            sweep.push_back(std::move(*stored));
        }
    }
    return sweeps;
}

}  // namespace perfbench
