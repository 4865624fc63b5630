// sfi_perfbench — the repository's campaign benchmark (README.md).
//
//   sfi_perfbench run --workload NAME --seed N --seconds S --trace 0|1
//                     --work-dir DIR --cdf-cache FILE --digests FILE
//                     [--git-sha SHA] [--threads N]
//   sfi_perfbench prepare-cache --cdf-cache FILE
//   sfi_perfbench digests --workload NAME --work-dir DIR --cdf-cache FILE
//
// `run` measures one workload for S seconds and prints, as its last line,
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. perfbench/run.py
// builds this binary and calls it; use that instead of calling it by hand.
#include <malloc.h>
#include <sched.h>
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "campaign/point_store.hpp"
#include "campaign/runner.hpp"
#include "mc/parallel.hpp"
#include "stats.hpp"
#include "traced_campaign.hpp"
#include "util/fingerprint.hpp"
#include "workloads.hpp"

namespace fs = std::filesystem;
using namespace perfbench;
using sfi::campaign::CampaignResult;
using sfi::campaign::CampaignRunner;
using sfi::campaign::CampaignSpec;
using sfi::campaign::RunOptions;

namespace {

/// Repetitions every run makes at least, however short --seconds is.
constexpr std::size_t kMinReps = 3;

struct Args {
    std::string mode;
    std::string workload;
    std::uint64_t seed = kDefaultSeed;
    double seconds = 10.0;
    bool trace = false;
    std::string work_dir = ".bench_work";
    std::string cdf_cache;
    std::string digests;
    std::string git_sha = "unknown";
    std::size_t threads = 0;  ///< MC worker threads; 0 = the workload's default
};

Args parse_args(int argc, char** argv) {
    if (argc < 2) throw std::invalid_argument("missing mode (run, prepare-cache, digests)");
    Args a;
    a.mode = argv[1];
    for (int i = 2; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc) throw std::invalid_argument(flag + " needs a value");
        const std::string value = argv[++i];
        if (flag == "--workload") a.workload = value;
        else if (flag == "--seed") a.seed = std::stoull(value);
        else if (flag == "--seconds") a.seconds = std::stod(value);
        else if (flag == "--trace") {
            if (value != "0" && value != "1")
                throw std::invalid_argument("--trace must be 0 or 1");
            a.trace = value == "1";
        } else if (flag == "--work-dir") a.work_dir = value;
        else if (flag == "--cdf-cache") a.cdf_cache = value;
        else if (flag == "--digests") a.digests = value;
        else if (flag == "--git-sha") a.git_sha = value;
        else if (flag == "--threads") a.threads = std::stoull(value);
        else throw std::invalid_argument("unknown flag " + flag);
    }
    if (!(a.seconds > 0.0 && a.seconds <= 600.0))
        throw std::invalid_argument("--seconds must be in (0, 600]");
    if (a.cdf_cache.empty()) throw std::invalid_argument("--cdf-cache is required");
    return a;
}

using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double peak_rss_mb() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// CPU time the hypervisor took from this machine's vCPUs (the "steal"
/// column of /proc/stat), summed over CPUs; 0 where it is not reported.
/// Printed next to the results because it explains run-to-run drift.
double steal_s() {
    std::ifstream is("/proc/stat");
    std::string cpu;
    double field = 0.0, steal = 0.0;
    if (!(is >> cpu) || cpu != "cpu") return 0.0;
    for (int i = 0; i < 8 && is >> field; ++i) steal = field;
    return steal / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// The CPUs this process may run on. On a VM the vCPUs run at different
/// speeds (whatever shares their host cores), and a thread tends to stay
/// where it started, so an unpinned run measures one vCPU's luck. The
/// benchmark therefore spreads its serial samples over every CPU.
class CpuSet {
public:
    CpuSet() {
        CPU_ZERO(&all_);
        if (sched_getaffinity(0, sizeof all_, &all_) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &all_)) cpus_.push_back(cpu);
    }
    std::size_t size() const { return std::max<std::size_t>(cpus_.size(), 1); }

    /// Pins the calling thread to CPU k (mod size) for the guard's
    /// lifetime. Released, the thread stays there until the scheduler
    /// moves it; threads it spawns while pinned would inherit the pin, so
    /// campaigns always run released.
    class Pin {
    public:
        Pin(const CpuSet& set, std::size_t k) : set_(set) {
            if (set.cpus_.empty()) return;
            cpu_set_t one;
            CPU_ZERO(&one);
            CPU_SET(set.cpus_[k % set.cpus_.size()], &one);
            sched_setaffinity(0, sizeof one, &one);
        }
        ~Pin() {
            if (!set_.cpus_.empty()) sched_setaffinity(0, sizeof set_.all_, &set_.all_);
        }
        Pin(const Pin&) = delete;
        Pin& operator=(const Pin&) = delete;

    private:
        const CpuSet& set_;
    };

private:
    cpu_set_t all_;
    std::vector<int> cpus_;
};

std::string read_file(const fs::path& path) {
    std::ifstream is(path, std::ios::binary);
    if (!is) throw std::runtime_error("cannot read " + path.string());
    std::ostringstream ss;
    ss << is.rdbuf();
    return ss.str();
}

std::string digest(const std::string& bytes) {
    char buf[20];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(
                      sfi::Fingerprint().bytes(bytes.data(), bytes.size()).value()));
    return buf;
}

/// The stable part of a campaign manifest: everything but the "run" line.
std::string manifest_stable(const fs::path& path) {
    std::istringstream is(read_file(path));
    std::string out, line;
    while (std::getline(is, line))
        if (line.find("\"run\":") == std::string::npos) out += line + "\n";
    return out;
}

std::string summary_bytes(const sfi::PointSummary& s) {
    std::ostringstream os;
    sfi::campaign::save_point_summary(os, s);
    return os.str();
}

/// Points attempted and failed, plus why.
struct Gate {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> notes;
    void fail(std::uint64_t points, const std::string& why) {
        failed += points;
        if (notes.size() < 20) notes.push_back(why);
    }
};

/// workload -> panel -> CSV digest at kDefaultSeed.
using Digests = std::map<std::string, std::map<std::string, std::string>>;

Digests load_digests(const std::string& path) {
    Digests out;
    if (path.empty()) return out;
    std::istringstream is(read_file(path));
    std::string line;
    while (std::getline(is, line)) {
        if (line.empty() || line[0] == '#') continue;
        std::istringstream ls(line);
        std::string workload, panel, hex;
        if (!(ls >> workload >> panel >> hex))
            throw std::runtime_error("malformed digest line: " + line);
        out[workload][panel] = hex;
    }
    return out;
}

struct Ctx {
    const WorkloadInfo* workload = nullptr;
    CpuSet cpus;
    std::size_t threads = 1;
    std::string cdf_cache;  ///< pre-built cache of the warm workloads
    Digests digests;
};

std::size_t count_points(CampaignRunner& runner) {
    std::size_t points = 0;
    for (const auto& panel : runner.spec().panels)
        points += runner.resolve_grid(panel).size();
    return points;
}

/// Per-point sanity of a finished summary.
bool plausible(const sfi::PointSummary& s, std::size_t trials) {
    return s.trials == trials && s.finished_count <= s.trials &&
           s.correct_count <= s.finished_count && std::isfinite(s.fi_rate);
}

RunOptions campaign_options(const Ctx& ctx, const fs::path& dir,
                            const std::string& pass) {
    RunOptions o;
    o.store_path = (dir / "store.bin").string();
    o.csv_dir = (dir / pass).string();
    o.threads = ctx.threads;
    // The warm re-plot reads the store only; a forensic pass there would
    // re-run trials and turn warm_s into a second campaign.
    if (ctx.workload->forensics && pass != "warm") {
        o.forensics_dir = (dir / (pass + "_forensics")).string();
        o.forensics_trials = kForensicsTrials;
    }
    return o;
}

CampaignSpec rep_spec(const Ctx& ctx, const fs::path& dir, std::uint64_t seed) {
    fs::remove_all(dir);
    fs::create_directories(dir);
    const std::string cache = ctx.workload->cold_cdf
                                  ? (dir / "cdf_cache.bin").string()
                                  : ctx.cdf_cache;
    return make_spec(*ctx.workload, bench_core(cache), seed);
}

// ---------------------------------------------------------------------------
// End-to-end repetition: cold campaign through CampaignRunner::run(), then
// the warm re-plot on the cache and store it wrote.
// ---------------------------------------------------------------------------

struct E2eSamples {
    std::vector<double> setup_s, campaign_s, trials, cpu_s, warm_s;
};

/// One repetition: set-up samples, the cold campaign, then one warm
/// re-plot per CPU. Warm-CDF workloads take one cache-load set-up per CPU
/// too (each is milliseconds); the cold workload's single set-up, and the
/// campaign, start on CPU `rep`.
void e2e_rep(const Ctx& ctx, const fs::path& dir, std::uint64_t seed,
             std::size_t rep, E2eSamples& out, Gate& gate) {
    const CampaignSpec spec = rep_spec(ctx, dir, seed);
    CampaignRunner cold(spec, campaign_options(ctx, dir, "cold"));
    const std::size_t setups = ctx.workload->cold_cdf ? 1 : ctx.cpus.size();
    for (std::size_t k = 0; k < setups; ++k) {
        const CpuSet::Pin pin(ctx.cpus, rep + k);
        std::optional<CampaignRunner> fresh;
        CampaignRunner& runner = k + 1 == setups ? cold : fresh.emplace(spec, RunOptions{});
        const auto t0 = Clock::now();
        runner.core();
        out.setup_s.push_back(since(t0));
    }
    const std::size_t points = count_points(cold);
    gate.attempted += points;
    { const CpuSet::Pin pin(ctx.cpus, rep); }  // the campaign starts on CPU `rep`
    try {
        const double cpu0 = process_cpu().total();
        auto t0 = Clock::now();
        const CampaignResult result = cold.run();
        const double wall = since(t0);
        out.cpu_s.push_back(process_cpu().total() - cpu0);
        out.campaign_s.push_back(wall);
        out.trials.push_back(static_cast<double>(result.trials_spent));

        if (!result.completed || result.store_misses != points)
            gate.fail(points, "cold run did not compute every point");
        const auto recorded = ctx.digests.find(ctx.workload->name);
        std::vector<std::string> csvs;
        for (const auto& panel : result.panels) {
            std::size_t bad = 0;
            for (const auto& s : panel.sweep) bad += !plausible(s, spec.trials);
            if (bad) gate.fail(bad, panel.name + ": implausible summaries");
            csvs.push_back(read_file(panel.csv_path));
            if (seed != kDefaultSeed) continue;
            const std::string expected =
                recorded == ctx.digests.end() || !recorded->second.count(panel.name)
                    ? "none"
                    : recorded->second.at(panel.name);
            if (expected != digest(csvs.back()))
                gate.fail(panel.sweep.size(), panel.name + ": CSV digest " +
                                                  digest(csvs.back()) + " != recorded " +
                                                  expected);
        }

        for (std::size_t pass = 0; pass < ctx.cpus.size(); ++pass) {
            const CpuSet::Pin pin(ctx.cpus, pass);
            t0 = Clock::now();
            CampaignResult warm;
            {
                CampaignRunner runner(spec, campaign_options(ctx, dir, "warm"));
                warm = runner.run();
            }
            out.warm_s.push_back(since(t0));
            if (warm.store_misses != 0 || warm.store_hits != points)
                gate.fail(points, "warm run missed the store");
            if (manifest_stable(result.manifest_path) !=
                manifest_stable(warm.manifest_path))
                gate.fail(points, "cold and warm manifests differ");
            for (std::size_t p = 0; p < warm.panels.size(); ++p)
                if (read_file(warm.panels[p].csv_path) != csvs.at(p))
                    gate.fail(warm.panels[p].sweep.size(),
                              warm.panels[p].name + ": cold/warm CSV differ");
        }
    } catch (const std::exception& e) {
        gate.fail(points, std::string("campaign threw: ") + e.what());
    }
}

// ---------------------------------------------------------------------------
// Traced repetition: the traced campaign (cold store), its warm lookups,
// then the untraced CampaignRunner::run() it must reproduce bit for bit.
// ---------------------------------------------------------------------------

struct TraceSamples {
    std::size_t campaigns = 0;
    double traced_wall_s = 0.0;
    double untraced_wall_s = 0.0;
};

void trace_rep(const Ctx& ctx, const fs::path& dir, std::uint64_t seed,
               std::size_t rep, TraceState& state, TraceSamples& out, Gate& gate) {
    const CampaignSpec spec = rep_spec(ctx, dir, seed);
    CampaignRunner traced_runner(spec, RunOptions{});
    {
        const SpanRecorder::Scope scope(state.spans, "timing.core_build");
        traced_runner.core();
    }
    const std::size_t points = count_points(traced_runner);
    gate.attempted += points;
    try {
        const std::string store_path = (dir / "traced_store.bin").string();
        Sweeps traced;
        double traced_wall = 0.0;
        const auto run_traced = [&] {
            const double wall_before = state.counters.campaign_wall_s;
            sfi::campaign::PointStore store(store_path);
            traced = run_traced_campaign(traced_runner, store, ctx.threads,
                                         ctx.workload->forensics ? kForensicsTrials : 0,
                                         state);
            traced_wall = state.counters.campaign_wall_s - wall_before;
        };
        RunOptions options = campaign_options(ctx, dir, "untraced");
        options.csv_dir.clear();
        CampaignRunner untraced(spec, options);
        untraced.core();
        CampaignResult result;
        double untraced_wall = 0.0;
        const auto run_untraced = [&] {
            const auto t0 = Clock::now();
            result = untraced.run();
            untraced_wall = since(t0);
        };
        // Alternate which campaign runs first, so warm-up effects do not
        // bias the overhead estimate.
        if (rep % 2 == 0) {
            run_traced();
            run_untraced();
        } else {
            run_untraced();
            run_traced();
        }
        ++out.campaigns;
        out.traced_wall_s += traced_wall;
        out.untraced_wall_s += untraced_wall;

        std::optional<sfi::campaign::PointStore> warm_store;
        {
            const SpanRecorder::Scope scope(state.spans, "point_store.open");
            warm_store.emplace(store_path);
        }
        const Sweeps warm = lookup_traced_campaign(traced_runner, *warm_store, state);

        if (result.panels.size() != traced.size())
            throw std::runtime_error("traced run produced a different panel count");
        for (std::size_t p = 0; p < traced.size(); ++p) {
            const auto& sweep = result.panels[p].sweep;
            if (sweep.size() != traced[p].size() || warm[p].size() != traced[p].size()) {
                gate.fail(sweep.size(), result.panels[p].name + ": point count differs");
                continue;
            }
            std::size_t bad = 0;
            for (std::size_t i = 0; i < sweep.size(); ++i) {
                const std::string bytes = summary_bytes(traced[p][i]);
                bad += bytes != summary_bytes(sweep[i]) ||
                       bytes != summary_bytes(warm[p][i]) ||
                       !plausible(sweep[i], spec.trials);
            }
            if (bad)
                gate.fail(bad, result.panels[p].name +
                                   ": traced summaries differ from untraced");
        }
    } catch (const std::exception& e) {
        gate.fail(points, std::string("traced campaign threw: ") + e.what());
    }
}

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
    std::string name;
    double value;
    std::string unit;
    std::string detail;  ///< sample count, percentile or ratio base
};

std::string fmt(const char* format, double a, double b = 0.0) {
    char buf[128];
    std::snprintf(buf, sizeof buf, format, a, b);
    return buf;
}

Metric timing_metric(const std::string& name, const std::vector<double>& samples,
                     const char* unit, double scale) {
    const Distribution d = summarize(samples);
    return {name, d.p50 * scale, unit, describe(d, scale, unit)};
}

/// End-to-end timings report the mean of their samples. On a shared VM
/// the samples are bimodal: each lands on a vCPU that runs at full speed
/// or at about two thirds of it, in a mix that changes from run to run. A
/// quantile jumps between the two modes as the mix shifts; the mean moves
/// only in proportion (README.md, "Noise"). The text report keeps the
/// median and the tail.
Metric mean_metric(const std::string& name, const std::vector<double>& samples,
                   const char* unit) {
    const double mean =
        samples.empty() ? 0.0
                        : std::accumulate(samples.begin(), samples.end(), 0.0) /
                              static_cast<double>(samples.size());
    return {name, mean, unit,
            fmt("mean %.6g ", mean) + unit + " / " + describe(summarize(samples), 1.0, unit)};
}

Metric ratio_metric(const std::string& name, Ratio r, double scale,
                    const char* unit, const char* base) {
    return {name, r.value() * scale, unit,
            fmt("%.6g / %.6g ", r.num, r.den) + base};
}

std::vector<Metric> end_to_end_metrics(const E2eSamples& s) {
    const auto sum = [](const std::vector<double>& v) {
        return std::accumulate(v.begin(), v.end(), 0.0);
    };
    return {
        mean_metric("setup_s", s.setup_s, "s"),
        mean_metric("campaign_s", s.campaign_s, "s"),
        ratio_metric("trials_per_s", {sum(s.trials), sum(s.campaign_s)}, 1.0, "1/s",
                     "trials / campaign wall-s over all repetitions"),
        mean_metric("campaign_cpu_s", s.cpu_s, "s"),
        mean_metric("warm_s", s.warm_s, "s"),
        {"peak_rss_mb", peak_rss_mb(), "MB", "getrusage ru_maxrss"},
    };
}

std::vector<Metric> per_layer_metrics(const TraceState& st, const TraceSamples& ts,
                                      std::size_t threads) {
    const SpanRecorder& sp = st.spans;
    const LayerCounters& c = st.counters;
    const auto dist = [&](const std::string& name, const char* span, double scale,
                          const char* unit) {
        return timing_metric(name, sp.durations(span), unit, scale);
    };
    const auto tail = [&](const std::string& name, const char* span, double scale,
                          const char* unit) {
        const Distribution d = summarize(sp.durations(span));
        return Metric{name, d.tail * scale, unit, describe(d, scale, unit)};
    };
    const auto d = [](std::uint64_t v) { return static_cast<double>(v); };
    const std::vector<double> dta = sp.durations("timing.conditioned_dta");
    std::vector<Metric> m = {
        dist("timing.core_build_s", "timing.core_build", 1.0, "s"),
        ratio_metric("timing.conditioned_dta_s",
                     {std::accumulate(dta.begin(), dta.end(), 0.0), d(ts.campaigns)}, 1.0,
                     "s", "DTA seconds / campaigns"),
        dist("cpu.golden_run_ms", "cpu.golden_run", 1e3, "ms"),
        ratio_metric("cpu.sim_mcycles_per_s", {d(c.sim_cycles), c.block_cpu_s}, 1e-6,
                     "Mcycles/s", "simulated cycles / block CPU-s"),
        ratio_metric("cpu.cycles_per_trial", {d(c.sim_cycles), d(c.block_trials)}, 1.0,
                     "cycles", "simulated cycles / trials"),
        ratio_metric("fi.op_ns", {c.op_loop_s, d(c.stream_ops)}, 1e9, "ns",
                     "op-loop seconds / ops"),
        ratio_metric("fi.injections_per_kop", {d(c.injections), d(c.alu_ops)}, 1e3,
                     "1/kop", "injections / ALU ops"),
    };
    for (const auto& model : mitigation_detectors()) {
        const std::string tag = detector_tag(model);
        const auto it = c.cpu_per_trial.find(tag);
        m.push_back(ratio_metric("fi.us_per_trial." + tag,
                                 it == c.cpu_per_trial.end() ? Ratio{} : it->second,
                                 1e6, "us", "block CPU-s / trials"));
    }
    const std::vector<Metric> rest = {
        dist("fi.forensics_ms_per_point", "fi.forensics", 1e3, "ms"),
        dist("sampling.executor_build_ms", "sampling.executor_build", 1e3, "ms"),
        dist("mc.block_ms.p50", "mc.block", 1e3, "ms"),
        tail("mc.block_ms.tail", "mc.block", 1e3, "ms"),
        ratio_metric("mc.cpu_util", {c.block_cpu_s, c.block_wall_s * d(threads)}, 1.0,
                     "ratio", "block CPU-s / (block wall-s x threads)"),
        ratio_metric("mc.sys_frac", {c.block_sys_s, c.block_cpu_s}, 1.0, "ratio",
                     "block sys CPU-s / block CPU-s"),
        ratio_metric("mc.fastpath_point_frac", {d(c.fastpath_points), d(c.mc_points)},
                     1.0, "ratio", "fast-path points / computed points"),
        dist("mc.aggregate_us", "mc.aggregate", 1e6, "us"),
        dist("campaign.resolve_ms", "campaign.resolve", 1e3, "ms"),
        dist("campaign.point_ms.p50", "campaign.point", 1e3, "ms"),
        tail("campaign.point_ms.tail", "campaign.point", 1e3, "ms"),
        ratio_metric("campaign.outside_trials_frac",
                     {c.campaign_wall_s - c.block_wall_s, c.campaign_wall_s}, 1.0,
                     "ratio", "(campaign wall - block wall) / campaign wall"),
        dist("point_store.insert_us", "point_store.insert", 1e6, "us"),
        dist("point_store.open_ms", "point_store.open", 1e3, "ms"),
        dist("point_store.lookup_us", "point_store.warm_lookup", 1e6, "us"),
        ratio_metric("trace.overhead_frac",
                     {ts.traced_wall_s - ts.untraced_wall_s, ts.untraced_wall_s}, 1.0,
                     "ratio", "(traced - untraced campaign wall) / untraced"),
    };
    m.insert(m.end(), rest.begin(), rest.end());
    return m;
}

/// Span self time by name: the text report's "where did the time go".
void print_self_times(const SpanRecorder& spans) {
    const std::vector<double> self = spans.self_times();
    std::map<std::string, std::array<double, 3>> by_name;  // count, total, self
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
        auto& row = by_name[spans.spans()[i].name];
        row[0] += 1;
        row[1] += spans.spans()[i].duration();
        row[2] += self[i];
    }
    std::printf("%-28s %10s %12s %12s\n", "span", "count", "total_s", "self_s");
    for (const auto& [name, row] : by_name)
        std::printf("%-28s %10.0f %12.6f %12.6f\n", name.c_str(), row[0], row[1],
                    row[2]);
}

std::string json_number(double v) {
    if (!std::isfinite(v)) v = 0.0;
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string json_array(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        out += (i ? ", " : "") + json_number(values[i]);
    return out + "]";
}

std::string json_escape(const std::string& s) {
    std::string out;
    for (const char ch : s) {
        if (ch == '"' || ch == '\\') out += '\\';
        if (static_cast<unsigned char>(ch) >= 0x20) out += ch;
    }
    return out;
}

std::string result_json(const Gate& gate, const std::vector<Metric>& metrics) {
    std::string out = std::string("{\"correct\": ") +
                      (gate.failed == 0 ? "true" : "false") +
                      ", \"attempted\": " + std::to_string(gate.attempted) +
                      ", \"failed\": " + std::to_string(gate.failed) +
                      ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i)
        out += std::string(i ? ", " : "") + "\"" + metrics[i].name +
               "\": {\"value\": " + json_number(metrics[i].value) +
               ", \"unit\": \"" + metrics[i].unit + "\"}";
    return out + "}}";
}

int run(const Args& args) {
    Ctx ctx;
    ctx.workload = &find_workload(args.workload);
    ctx.threads = args.threads == 0 && ctx.workload->serial
                      ? 1
                      : sfi::resolve_thread_count(args.threads);
    ctx.cdf_cache = args.cdf_cache;
    ctx.digests = load_digests(args.digests);
    if (!ctx.workload->cold_cdf && !fs::exists(ctx.cdf_cache))
        throw std::runtime_error("pre-built CDF cache missing: " + ctx.cdf_cache +
                                 " (run prepare-cache first)");

    const std::string tag = std::string(ctx.workload->name) + "-s" +
                            std::to_string(args.seed) + (args.trace ? "-trace" : "");
    // The scratch path has one length whatever the seed, so the seed's digit
    // count cannot shift the heap layout of the run (fix_heap_policy).
    char padded_seed[24];
    std::snprintf(padded_seed, sizeof padded_seed, "%020llu",
                  static_cast<unsigned long long>(args.seed));
    const fs::path work = fs::path(args.work_dir) /
                          ("run-" + std::string(ctx.workload->name) + "-s" +
                           padded_seed + (args.trace ? "-trace" : ""));
    const fs::path results = fs::path(args.work_dir) / "results";
    fs::create_directories(results);

    const std::string stamp =
        std::string("{\"workload\": \"") + ctx.workload->name +
        "\", \"git_sha\": \"" + json_escape(args.git_sha) +
        "\", \"nproc\": " + std::to_string(std::thread::hardware_concurrency()) +
        ", \"compiler\": \"" + json_escape(PERFBENCH_COMPILER) +
        "\", \"build_type\": \"" + PERFBENCH_BUILD_TYPE +
        "\", \"threads\": " + std::to_string(ctx.threads) +
        ", \"seed\": " + std::to_string(args.seed) +
        ", \"cdf_cache\": \"" + (ctx.workload->cold_cdf ? "cold" : "warm") +
        "\", \"trace\": " + (args.trace ? "1" : "0") +
        ", \"seconds\": " + json_number(args.seconds) + "}";
    std::printf("stamp %s\n", stamp.c_str());

    Gate gate;
    TraceState state;
    TraceSamples trace_samples;
    E2eSamples e2e;
    const double steal0 = steal_s();
    const auto t0 = Clock::now();
    // Another repetition starts while it would end, on average, by the
    // deadline or less than half a repetition past it, so a run lasts about
    // --seconds however long one repetition takes.
    const auto another = [&](std::size_t done) {
        if (done < kMinReps) return true;
        const double elapsed = since(t0);
        return elapsed + 0.5 * elapsed / static_cast<double>(done) < args.seconds;
    };
    for (std::size_t rep = 0; another(rep); ++rep) {
        // Rep 0 runs at the run's own seed (so --seed 1 checks the
        // recorded digests); later reps key fresh store entries.
        const std::uint64_t seed = args.seed + rep * 1000003ULL;
        const fs::path dir = work / ("rep" + std::to_string(rep));
        if (args.trace)
            trace_rep(ctx, dir, seed, rep, state, trace_samples, gate);
        else
            e2e_rep(ctx, dir, seed, rep, e2e, gate);
        fs::remove_all(dir);
    }
    const double measured_s = since(t0);
    const double steal = steal_s() - steal0;

    const std::vector<Metric> metrics =
        args.trace ? per_layer_metrics(state, trace_samples, ctx.threads)
                   : end_to_end_metrics(e2e);
    std::printf("workload %s: %.1f s measured, threads %zu, vCPU steal %.2f s\n",
                ctx.workload->name, measured_s, ctx.threads, steal);
    for (const Metric& m : metrics)
        std::printf("  %-32s %14.6g %-10s %s\n", m.name.c_str(), m.value,
                    m.unit.c_str(), m.detail.c_str());
    std::printf("  %-32s %14.6g %-10s %llu failed / %llu points attempted\n",
                "failed_frac",
                gate.attempted ? static_cast<double>(gate.failed) /
                                     static_cast<double>(gate.attempted)
                               : 0.0,
                "ratio", static_cast<unsigned long long>(gate.failed),
                static_cast<unsigned long long>(gate.attempted));
    for (const std::string& note : gate.notes) std::printf("  FAILED: %s\n", note.c_str());
    if (args.trace) {
        print_self_times(state.spans);
        const fs::path trace_path = results / (tag + "-spans.json");
        state.spans.write_chrome_trace(trace_path.string());
        std::printf("spans written to %s\n", trace_path.string().c_str());
    }
    fs::remove_all(work);

    const std::string line = result_json(gate, metrics);
    {
        // The per-repetition samples behind each median, for offline spread
        // analysis.
        std::ofstream os(results / (tag + ".json"));
        os << "{\"stamp\": " << stamp << ",\n \"steal_s\": " << json_number(steal)
           << ",\n \"samples\": {"
           << "\"setup_s\": " << json_array(e2e.setup_s)
           << ", \"campaign_s\": " << json_array(e2e.campaign_s)
           << ", \"trials\": " << json_array(e2e.trials)
           << ", \"campaign_cpu_s\": " << json_array(e2e.cpu_s)
           << ", \"warm_s\": " << json_array(e2e.warm_s) << "},\n \"result\": " << line
           << "}\n";
    }
    std::printf("%s\n", line.c_str());
    return 0;
}

int prepare_cache(const Args& args) {
    // Characterize into a temporary file, then rename, so an interrupted
    // build never leaves a half-written cache behind.
    const std::string tmp = args.cdf_cache + ".tmp";
    fs::remove(tmp);
    { const sfi::CharacterizedCore core(bench_core(tmp)); }
    fs::rename(tmp, args.cdf_cache);
    return 0;
}

/// Prints the per-panel CSV digests of one cold campaign at kDefaultSeed —
/// the reference lines of perfbench/digests.txt.
int print_digests(const Args& args) {
    Ctx ctx;
    ctx.workload = &find_workload(args.workload);
    ctx.threads = sfi::resolve_thread_count(0);
    ctx.cdf_cache = args.cdf_cache;
    const fs::path dir = fs::path(args.work_dir) / "digests";
    const CampaignSpec spec = rep_spec(ctx, dir, kDefaultSeed);
    CampaignRunner runner(spec, campaign_options(ctx, dir, "cold"));
    const CampaignResult result = runner.run();
    for (const auto& panel : result.panels)
        std::printf("%s %s %s\n", ctx.workload->name, panel.name.c_str(),
                    digest(read_file(panel.csv_path)).c_str());
    fs::remove_all(dir);
    return 0;
}

/// Fixes glibc's heap policy for the whole run. By default glibc moves its
/// mmap threshold as blocks are freed, and gives the top of the heap back
/// to the kernel whenever nothing live sits above it. Whether each point's
/// 1-MiB simulated memories then reuse retained pages or fault in fresh
/// zeroed ones depends on where the benchmark's own small allocations land
/// (work-directory paths grow by a character with the seed's digits): a
/// 1.6x swing of fig1_cheap's campaign_s between seeds 9 and 10 (README.md,
/// "Noise"). Fixed thresholds keep freed memory in the process every run.
void fix_heap_policy() {
    mallopt(M_MMAP_THRESHOLD, 32 << 20);  // glibc's largest allowed value
    mallopt(M_TRIM_THRESHOLD, 1 << 30);
}

}  // namespace

int main(int argc, char** argv) {
    fix_heap_policy();
    try {
        const Args args = parse_args(argc, argv);
        if (args.mode == "run") return run(args);
        if (args.mode == "prepare-cache") return prepare_cache(args);
        if (args.mode == "digests") return print_digests(args);
        throw std::invalid_argument("unknown mode " + args.mode);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "sfi_perfbench: %s\n", e.what());
        return 1;
    }
}
