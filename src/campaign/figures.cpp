#include "campaign/figures.hpp"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <ostream>
#include <stdexcept>

#include "power/power_model.hpp"
#include "util/table.hpp"

namespace sfi::campaign::figures {

namespace {

std::string fmt(const char* format, double value) {
    char buf[64];
    std::snprintf(buf, sizeof buf, format, value);
    return buf;
}

CampaignSpec base_spec(std::string name, const CoreModelConfig& core,
                       std::size_t trials, std::size_t default_trials,
                       std::uint64_t seed) {
    CampaignSpec spec;
    spec.name = std::move(name);
    spec.core = core;
    spec.trials = trials ? trials : default_trials;
    spec.seed = seed;
    return spec;
}

/// The ablation studies characterize variant cores with a clamped DTA
/// kernel (full-length re-characterization per variant would dominate).
CoreModelConfig ablation_core(CoreModelConfig config) {
    config.dta.cycles = std::min<std::size_t>(config.dta.cycles, 4096);
    return config;
}

/// Gives a variant core its own CDF cache file, derived from the base
/// cache path and the config fingerprint. The historical benches simply
/// cleared the path (distinct configs would thrash one file), which made
/// every warm ablation re-run pay full DTA again; per-fingerprint names
/// keep warm campaigns warm. Apply this AFTER all config overrides.
CoreModelConfig with_fingerprint_cache(CoreModelConfig config) {
    if (config.cdf_cache_path.empty()) return config;
    char suffix[20];
    std::snprintf(suffix, sizeof suffix, "_%016llx",
                  static_cast<unsigned long long>(
                      core_config_fingerprint(config)));
    // Suffix the file *stem* only — a dot in a directory component
    // ("caches/v1.0/cdf.bin") must not be touched.
    std::filesystem::path path(config.cdf_cache_path);
    std::filesystem::path name = path.stem();
    name += suffix;
    name += path.extension();
    config.cdf_cache_path = (path.parent_path() / name).string();
    return config;
}

}  // namespace

// Fig. 1: performance and fault-injection rate of the median benchmark
// under model B (STA-based) and model B+ (STA + supply noise), in narrow
// frequency windows around each model's failure threshold.
//
// Expected shapes (paper §3.2/3.3): FI onset exactly at the threshold,
// FI rate jumping to 10^2..10^4 per kCycle within ~1 MHz, and the
// finished/correct probabilities collapsing from 100 % to 0 % with almost
// no transition region. With noise the threshold moves well below the
// STA limit (paper: 707 -> 661 -> 588 MHz for sigma = 0/10/25 mV) and the
// onset rate drops to ~10 FI/kCycle.
CampaignSpec fig1(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig1", core, trials, 100, seed);
    for (const double sigma : {0.0, 10.0, 25.0}) {
        PanelSpec panel;
        panel.name = "fig1_sigma" + fmt("%.0f", sigma);
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::b();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = sigma;
        panel.grid = GridSpec::first_fault_window(1.5, 3.5, 0.5);
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

// Fig. 2: cumulative distribution functions of the timing error
// probabilities extracted by DTA, for the l.add and l.mul instructions,
// endpoints bit[3] and bit[24], at 0.7 V and 0.8 V.
//
// Expected shapes: mul starts failing at lower frequency than add for the
// same endpoint/voltage; higher-significance bits fail earlier than
// lower-significance ones; a higher supply voltage shifts every CDF to
// the right.
CampaignSpec fig2(const CoreModelConfig& core) {
    CampaignSpec spec = base_spec("fig2", core, 1, 1, 1);
    CdfPanelSpec panel;
    panel.name = "fig2_cdfs";
    panel.title = "Fig. 2: timing-error-probability CDFs from DTA";
    for (const ExClass cls : {ExClass::Add, ExClass::Mul})
        for (const std::size_t bit : {std::size_t{3}, std::size_t{24}})
            for (const double vdd : {0.7, 0.8})
                panel.curves.push_back({cls, bit, vdd});
    panel.grid = GridSpec::linspace(600.0, 2400.0, 37);
    spec.cdf_panels.push_back(std::move(panel));
    return spec;
}

// Fig. 4: MSE vs. clock frequency for isolated addition and
// multiplication instruction streams at Vdd = 0.7 V with sigma = 10 mV
// supply noise (model C).
//
// Three series, as in the paper (§4.1):
//   l.add 16-bit : operands with a 16-bit value range (16-bit result)
//   l.add 32-bit : full-range operands
//   l.mul 32-bit : operands with a 16-bit value range, 32-bit result
// The 16-bit series use DTA characterizations with matching operand
// profiles — this is what exposes the single-bit granularity of the model
// (high endpoints never toggle for narrow operands, so the PoFF moves up).
//
// Expected shape: PoFF ordering mul < add32 < add16 (paper: 685 / 746 /
// 877 MHz), and MSE saturating near the operand-width maximum within
// ~15 % above the PoFF. One standard sweep CSV per series; the console
// shows the combined three-column table instead of per-panel tables.
CampaignSpec fig4(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig4", core, trials, 100, seed);
    struct Series {
        const char* name;
        ExClass cls;
        unsigned operand_bits;
    };
    const Series series[] = {
        {"fig4_add16", ExClass::Add, 16},
        {"fig4_add32", ExClass::Add, 32},
        {"fig4_mul32", ExClass::Mul, 16},
    };
    std::uint64_t index = 0;
    for (const Series& s : series) {
        PanelSpec panel;
        panel.name = s.name;
        // The paper's isolated instruction streams: raw ALU operations
        // through model C, with an operand-profile-conditioned DTA
        // characterization per series.
        panel.kernel = KernelSpec::op_stream(s.cls, s.operand_bits, 2048,
                                             0xF164000ULL + index);
        panel.model = ModelSpec::c();
        panel.dta_operand_bits = s.operand_bits;
        panel.seed_offset = index;
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = 10.0;
        panel.grid = GridSpec::linspace(650.0, 1250.0, 25);
        panel.print_table = false;
        spec.panels.push_back(std::move(panel));
        ++index;
    }
    return spec;
}

// Fig. 5: program performance of the median benchmark under model C
// across the reliable->unreliable transition region, for Vdd in
// {0.7, 0.8} V and supply-noise sigma in {0, 10, 25} mV (six panels, four
// metrics each: probability to finish, probability of a correct result,
// FI rate, relative output error), plus the PoFF and its frequency gain
// over the STA limit.
//
// Expected shapes (paper §4.2): PoFF displaced above the pessimistic STA
// limit at low noise, the gain shrinking with sigma and vanishing at
// 25 mV; noise smoothening all transitions; higher Vdd giving sharper
// transitions (faster error explosion beyond the PoFF).
CampaignSpec fig5(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig5", core, trials, 100, seed);
    for (const double vdd : {0.7, 0.8}) {
        for (const double sigma : {0.0, 10.0, 25.0}) {
            PanelSpec panel;
            panel.name =
                "fig5_v" + fmt("%.1f", vdd) + "_s" + fmt("%.0f", sigma);
            panel.kernel = KernelSpec::bench(BenchmarkId::Median);
            panel.model = ModelSpec::c();
            panel.base.vdd = vdd;
            panel.base.noise.sigma_mv = sigma;
            // The reliable->unreliable transition region: from below the
            // noisy first-fault point to well past total failure.
            panel.grid = GridSpec::sta_linspace(0.92, 1.45, 22);
            spec.panels.push_back(std::move(panel));
        }
    }
    return spec;
}

// Fig. 6: program performance of mat_mult (8- and 16-bit), k-means and
// dijkstra under model C at Vdd = 0.7 V, sigma = 10 mV, with the model B+
// hard threshold shown for contrast in each panel header.
//
// Expected shapes (paper §4.3):
//  * mat_mult 8/16-bit behave alike, with the lower bit-width keeping
//    more runs fully correct below the STA limit; the MSE magnitudes
//    differ by a large constant factor (operand/result ranges);
//  * k-means sees a far lower FI rate than mat_mult at equal frequency
//    yet still loses 30-40 % of its quality metric while finishing;
//  * dijkstra has a very narrow transition: small PoFF gain, then a few
//    percent more frequency kill it completely at < 1 FI/kCycle;
//  * model B+ fails all benchmarks identically at its threshold,
//    providing none of this per-application detail.
CampaignSpec fig6(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig6", core, trials, 100, seed);
    struct Panel {
        BenchmarkId id;
        double lo, hi;
        std::size_t points;
    };
    const Panel panels[] = {
        {BenchmarkId::MatMult8, 0.97, 1.30, 18},
        {BenchmarkId::MatMult16, 0.97, 1.30, 18},
        {BenchmarkId::KMeans, 0.97, 1.35, 18},
        {BenchmarkId::Dijkstra, 0.99, 1.22, 20},  // narrow: higher resolution
    };
    for (const Panel& p : panels) {
        PanelSpec panel;
        panel.name = std::string("fig6_") + benchmark_name(p.id);
        panel.kernel = KernelSpec::bench(p.id);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = 10.0;
        panel.grid = GridSpec::sta_linspace(p.lo, p.hi, p.points);
        panel.error_label = make_benchmark(p.id)->error_unit();
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

// Fig. 7: relative output error vs. normalized core power for the median
// benchmark under model C, trading supply voltage against quality at the
// fixed nominal frequency of 707 MHz (the STA limit at 0.7 V). Three
// noise levels as in the paper.
//
// Expected shape: error-free at nominal power; the PoFF near 0.93x power
// (~0.667 V); graceful error growth below (paper: 22 % error at 0.88x /
// 0.657 V); at sigma = 25 mV the error rises much earlier, leaving only
// marginal savings. One standard sweep CSV per sigma; the console shows
// the power-normalized view of the paper's y-axis instead.
CampaignSpec fig7(const CoreModelConfig& core, std::size_t trials,
                  std::uint64_t seed) {
    CampaignSpec spec = base_spec("fig7", core, trials, 100, seed);
    for (const double sigma : {0.0, 10.0, 25.0}) {
        PanelSpec panel;
        panel.name = "fig7_s" + fmt("%.0f", sigma);
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = sigma;
        panel.base_freq_sta_factor = 1.0;  // pinned to the nominal STA limit
        panel.axis = Axis::Voltage;
        panel.grid = GridSpec::linspace(0.640, 0.7, 16);
        panel.print_table = false;
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

// Ablation: adder topology (Kogge-Stone default vs. ripple-carry).
//
// The paper's synthesized core shows small dynamic slack on the adder
// (PoFF gains of a few to ~11 %). A parallel-prefix adder reproduces
// that; a ripple-carry adder's data-dependent carry chains leave huge
// dynamic slack (random operands rarely excite the full chain), inflating
// the apparent PoFF gain far beyond the paper's. One core override per
// adder kind; each panel header prints the variant's DTA statistics.
CampaignSpec ablation_adder(const CoreModelConfig& core, std::size_t trials,
                            std::uint64_t seed) {
    CampaignSpec spec = base_spec("ablation_adder", core, trials, 60, seed);
    spec.core = with_fingerprint_cache(ablation_core(core));
    for (const AdderKind kind : {AdderKind::KoggeStone, AdderKind::RippleCarry}) {
        const char* name =
            kind == AdderKind::KoggeStone ? "kogge_stone" : "ripple_carry";
        PanelSpec panel;
        panel.name = std::string("ablation_adder_") + name;
        panel.title = std::string("median under model C, adder = ") + name;
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        CoreModelConfig override_config = ablation_core(core);
        override_config.alu.adder = kind;
        panel.core_override = with_fingerprint_cache(override_config);
        panel.grid = GridSpec::sta_linspace(1.0, 1.6, 14);
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

// Ablation: synthesis slack-compression emulation (calibration stage).
//
// compression = 0   : raw structural delays — wide per-bit spread, large
//                     dynamic slack, PoFF gains well above the paper's;
// compression = 0.35: default — per-bit spread and PoFF gains in the
//                     paper's range;
// compression = 0.8 : near-full timing wall — every instruction fails at
//                     its block constraint, transition regions collapse
//                     (model C degenerates toward model B behaviour).
//
// One core override per compression level; each panel header prints the
// characterization spread and the report the transition widths.
CampaignSpec ablation_compression(const CoreModelConfig& core,
                                  std::size_t trials, std::uint64_t seed) {
    CampaignSpec spec =
        base_spec("ablation_compression", core, trials, 60, seed);
    spec.core = with_fingerprint_cache(ablation_core(core));
    for (const double kappa : {0.0, 0.35, 0.8}) {
        PanelSpec panel;
        panel.name = "ablation_compression_k" + fmt("%.2f", kappa);
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = 10.0;
        CoreModelConfig override_config = ablation_core(core);
        override_config.calibration.compression = kappa;
        panel.core_override = with_fingerprint_cache(override_config);
        panel.grid = GridSpec::sta_linspace(0.98, 1.35, 10);
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

// Ablation: supply-noise clipping. The paper saturates the Gaussian noise
// at 2 sigma "to avoid the occurrence of large, physically unrealistic,
// spikes due to the tails of the distribution". This shows what the clip
// level does to the model B+ first-fault frequency (deterministic, computed
// from the core by the report) and to model C application behaviour at
// the STA limit (one single-point panel per clip level).
CampaignSpec ablation_noise_clip(const CoreModelConfig& core,
                                 std::size_t trials, std::uint64_t seed) {
    CampaignSpec spec =
        base_spec("ablation_noise_clip", core, trials, 80, seed);
    for (const double clip : {1.0, 2.0, 3.0, 4.0}) {
        PanelSpec panel;
        panel.name = "ablation_noise_clip_c" + fmt("%.0f", clip);
        panel.kernel = KernelSpec::bench(BenchmarkId::Median);
        panel.model = ModelSpec::c();
        panel.base.vdd = 0.7;
        panel.base.noise.sigma_mv = 25.0;
        panel.base.noise.clip_sigmas = clip;
        panel.grid = GridSpec::sta_linspace(1.0, 1.0, 1);  // single point
        panel.print_table = false;
        spec.panels.push_back(std::move(panel));
    }
    return spec;
}

// Ablation: fault policy at a violated endpoint — bit-flip (the paper's
// choice) vs. stale capture (the flip-flop keeps its previous value).
//
// Stale capture corrupts only when the previous latched bit differs from
// the correct one (~50 % of violations), so its effective error rate and
// application impact sit visibly below bit-flip at the same operating
// point. One panel per (benchmark, policy); the report interleaves the
// two policies per frequency.
CampaignSpec ablation_policy(const CoreModelConfig& core, std::size_t trials,
                             std::uint64_t seed) {
    CampaignSpec spec = base_spec("ablation_policy", core, trials, 80, seed);
    for (const BenchmarkId id : {BenchmarkId::KMeans, BenchmarkId::Median}) {
        for (const FaultPolicy policy :
             {FaultPolicy::BitFlip, FaultPolicy::StaleCapture}) {
            const char* policy_name =
                policy == FaultPolicy::BitFlip ? "bitflip" : "stale";
            PanelSpec panel;
            panel.name = std::string("ablation_policy_") + benchmark_name(id) +
                         "_" + policy_name;
            panel.kernel = KernelSpec::bench(id);
            panel.model = ModelSpec::c();
            panel.model.policy = policy;
            panel.base.vdd = 0.7;
            panel.base.noise.sigma_mv = 10.0;
            panel.grid = GridSpec::sta_linspace(1.00, 1.15, 4);
            panel.print_table = false;
            spec.panels.push_back(std::move(panel));
        }
    }
    return spec;
}

// Console presentation of the figure table: panel headers and reports.
namespace {

void fig1_header(std::ostream& os, const PanelSpec& panel,
                 const CharacterizedCore& core) {
    const double sigma = panel.base.noise.sigma_mv;
    const double f0 = first_fault_mhz(core, panel.model, panel.base);
    char title[160];
    std::snprintf(title, sizeof title,
                  "Fig. 1 model %s  (Vdd = 0.7 V, sigma = %.0f mV, "
                  "threshold %.1f MHz, STA limit %.1f MHz)",
                  sigma > 0.0 ? "B+" : "B", sigma, f0, core.sta_fmax_mhz(0.7));
    os << title << "\n";
}

/// The CDF matrix in percent, then the onset summary.
void fig2_report(std::ostream& os, CampaignRunner& runner,
                 const CampaignResult& result) {
    const CharacterizedCore& core = runner.core();
    const CdfPanelSpec& spec = runner.spec().cdf_panels.at(0);
    const CdfPanelResult& panel = result.cdf_panels.at(0);

    TextTable table(panel.columns);
    for (const std::vector<double>& row : panel.rows) {
        std::vector<std::string> cells = {fmt_fixed(row[0], 0)};
        for (std::size_t i = 1; i < row.size(); ++i)
            cells.push_back(fmt_fixed(100.0 * row[i], 1) + "%");
        table.add_row(cells);
    }
    os << spec.title << "\n\n";
    table.print(os);

    // Onset summary: frequency of first non-zero error probability.
    const TimingErrorCdfs& cdfs = *core.cdfs();
    os << "\nfirst-failure frequencies (P > 0):\n";
    for (const CdfCurveSpec& c : spec.curves) {
        const double window = cdfs.endpoint_max_window_ps(c.cls, c.bit);
        const double f0 = 1.0e6 / (window * core.lib().fit().factor(c.vdd));
        os << "  " << ex_class_name(c.cls) << " bit[" << c.bit << "] @ "
           << fmt_fixed(c.vdd, 1) << " V : " << fmt_fixed(f0, 0) << " MHz\n";
    }
}

void fig4_report(std::ostream& os, CampaignRunner&,
                 const CampaignResult& result) {
    const std::vector<std::string> labels = {"l.add 16-bit", "l.add 32-bit",
                                             "l.mul 32-bit"};
    os << "Fig. 4: MSE vs frequency for add/mul instruction streams "
          "(Vdd = 0.7 V, sigma = 10 mV)\n\n";
    TextTable table({"f [MHz]", labels[0], labels[1], labels[2]});

    // All three series share the frequency grid; walk them in lock-step.
    const std::size_t points = result.panels.at(0).sweep.size();
    std::vector<double> poff(result.panels.size(), 0.0);
    for (std::size_t i = 0; i < points; ++i) {
        const double f = result.panels[0].sweep[i].point.freq_mhz;
        std::vector<std::string> row = {fmt_fixed(f, 0)};
        for (std::size_t si = 0; si < result.panels.size(); ++si) {
            const double mse = result.panels[si].sweep[i].mean_error;
            if (mse > 0.0 && poff[si] == 0.0) poff[si] = f;
            row.push_back(mse > 0.0 ? fmt_sci(mse, 3) : "0");
        }
        table.add_row(row);
    }
    table.print(os);

    os << "\npoints of first calculation error (MSE > 0):\n";
    for (std::size_t si = 0; si < result.panels.size(); ++si)
        os << "  " << labels[si] << " : "
           << (poff[si] > 0.0 ? fmt_fixed(poff[si], 0) + " MHz"
                              : std::string("none in range"))
           << "\n";
    os << "paper: 877 MHz (add16), 746 MHz (add32), 685 MHz (mul32)\n";
}

void fig5_header(std::ostream& os, const PanelSpec& panel,
                 const CharacterizedCore& core) {
    char title[160];
    std::snprintf(title, sizeof title,
                  "Fig. 5  Vdd = %.1f V  noise sigma = %.0f mV   "
                  "(STA limit %.1f MHz)",
                  panel.base.vdd, panel.base.noise.sigma_mv,
                  core.sta_fmax_mhz(panel.base.vdd));
    os << title << "\n";
}

void fig5_report(std::ostream& os, CampaignRunner&, const CampaignResult&) {
    os << "paper PoFF gains: +11.4% (0.7V/0), +3.3% (0.7V/10), none "
          "(0.7V/25), +10.1% (0.8V/0), +6.9% (0.8V/10), +0.1% "
          "(0.8V/25)\n";
}

void fig6_header(std::ostream& os, const PanelSpec& panel,
                 const CharacterizedCore& core) {
    // Model B+ threshold for contrast (same base operating point).
    const double bplus = first_fault_mhz(core, ModelSpec::b(), panel.base);
    os << "Fig. 6  " << benchmark_name(panel.kernel.benchmark)
       << "  (Vdd = 0.7 V, sigma = 10 mV; STA "
       << fmt_fixed(core.sta_fmax_mhz(panel.base.vdd), 1)
       << " MHz; model B+ fails all benchmarks at " << fmt_fixed(bplus, 1)
       << " MHz)\n";
}

void fig7_report(std::ostream& os, CampaignRunner& runner,
                 const CampaignResult& result) {
    const PowerModel power;
    const double v_nom = 0.7;
    os << "Fig. 7: relative error vs core power, median @ "
       << fmt_fixed(runner.core().sta_fmax_mhz(v_nom), 1) << " MHz fixed\n\n";

    for (const PanelResult& panel : result.panels) {
        const double sigma = panel.sweep.empty()
                                 ? 0.0
                                 : panel.sweep.front().point.noise.sigma_mv;
        os << "sigma = " << fmt_fixed(sigma, 0) << " mV\n";
        TextTable table({"Vdd [V]", "norm. power", "finished", "correct",
                         "avg rel. error %"});
        std::optional<double> poff_vdd;
        for (const PointSummary& p : panel.sweep) {
            const double np = power.normalized_power(p.point.vdd, v_nom);
            table.add_row({fmt_fixed(p.point.vdd, 3), fmt_fixed(np, 3),
                           fmt_pct(p.finished_frac()), fmt_pct(p.correct_frac()),
                           fmt_fixed(p.mean_error, 2)});
            // The sweep is ordered by increasing vdd: remember the
            // highest voltage that is NOT fully correct.
            if (p.correct_count != p.trials) poff_vdd = p.point.vdd;
        }
        table.print(os);
        if (poff_vdd)
            os << "first-failure voltage ~" << fmt_fixed(*poff_vdd, 3)
               << " V ("
               << fmt_fixed(100.0 * power.normalized_power(*poff_vdd, v_nom), 1)
               << "% of nominal power)\n";
        os << "\n";
    }
    os << "paper anchors: PoFF ~0 % error at 0.93x power (0.667 V); "
          "22 % error at 0.88x power (0.657 V); sigma = 25 mV erodes "
          "most of the saving\n";
}

void ablation_adder_header(std::ostream& os, const PanelSpec& panel,
                           const CharacterizedCore& core) {
    const bool kogge = core.config().alu.adder == AdderKind::KoggeStone;
    os << "=== adder = " << (kogge ? "kogge-stone" : "ripple-carry")
       << " ===\n";
    std::size_t adder_cells = 0;
    for (const AluUnit unit : core.alu().unit_of)
        if (unit == AluUnit::Adder) ++adder_cells;
    os << "  adder cells: " << adder_cells
       << ", ALU depth: " << core.alu().netlist.logic_depth() << "\n";

    const double fsta = core.sta_fmax_mhz(panel.base.vdd);
    os << "  f_STA(0.7V) = " << fmt_fixed(fsta, 1) << " MHz\n";
    for (const ExClass cls : {ExClass::Add, ExClass::Sub, ExClass::Cmp}) {
        const double dyn = core.dynamic_fmax_mhz(cls, panel.base.vdd);
        os << "  " << ex_class_name(cls)
           << ": dynamic fmax = " << fmt_fixed(dyn, 1)
           << " MHz (dynamic slack "
           << fmt_fixed(100.0 * (dyn / fsta - 1.0), 1) << "% vs STA)\n";
    }

    // Per-bit spread of the add CDF (Fig. 2 structure).
    const auto& cdfs = *core.cdfs();
    os << "  add endpoint max windows [ps @ Vref]: bit3="
       << fmt_fixed(cdfs.endpoint_max_window_ps(ExClass::Add, 3), 1)
       << " bit15="
       << fmt_fixed(cdfs.endpoint_max_window_ps(ExClass::Add, 15), 1)
       << " bit24="
       << fmt_fixed(cdfs.endpoint_max_window_ps(ExClass::Add, 24), 1)
       << " bit31="
       << fmt_fixed(cdfs.endpoint_max_window_ps(ExClass::Add, 31), 1) << "\n";
    os << "  (paper median PoFF gain at sigma=0: +11.4%)\n";
}

void ablation_compression_header(std::ostream& os, const PanelSpec& panel,
                                 const CharacterizedCore& core) {
    const double vdd = panel.base.vdd;
    os << "=== compression = "
       << fmt_fixed(core.config().calibration.compression, 2) << " (f_STA "
       << fmt_fixed(core.sta_fmax_mhz(vdd), 1) << " MHz) ===\n";
    const auto& cdfs = *core.cdfs();
    os << "  mul endpoint max windows [ps @ Vref]: bit3="
       << fmt_fixed(cdfs.endpoint_max_window_ps(ExClass::Mul, 3), 0)
       << " bit15="
       << fmt_fixed(cdfs.endpoint_max_window_ps(ExClass::Mul, 15), 0)
       << " bit24="
       << fmt_fixed(cdfs.endpoint_max_window_ps(ExClass::Mul, 24), 0)
       << " bit31="
       << fmt_fixed(cdfs.endpoint_max_window_ps(ExClass::Mul, 31), 0) << "\n";
    os << "  dynamic fmax [MHz]: mul "
       << fmt_fixed(core.dynamic_fmax_mhz(ExClass::Mul, vdd), 0) << ", add "
       << fmt_fixed(core.dynamic_fmax_mhz(ExClass::Add, vdd), 0) << ", cmp "
       << fmt_fixed(core.dynamic_fmax_mhz(ExClass::Cmp, vdd), 0)
       << "  (paper median PoFF gain at sigma=10mV: +3.3%)\n";
}

void ablation_compression_report(std::ostream& os, CampaignRunner&,
                                 const CampaignResult& result) {
    os << "transition widths (last fully-correct to first fully-dead "
          "point):\n";
    for (const PanelResult& panel : result.panels) {
        double f_last_ok = 0.0, f_first_dead = 0.0;
        for (const PointSummary& p : panel.sweep) {
            if (p.correct_count == p.trials) f_last_ok = p.point.freq_mhz;
            if (f_first_dead == 0.0 && p.finished_count == 0)
                f_first_dead = p.point.freq_mhz;
        }
        os << "  " << panel.name << ": ";
        if (f_last_ok > 0.0 && f_first_dead > 0.0)
            os << fmt_fixed(f_first_dead - f_last_ok, 1) << " MHz\n";
        else
            os << "outside swept range\n";
    }
}

void ablation_noise_clip_report(std::ostream& os, CampaignRunner& runner,
                                const CampaignResult& result) {
    const CharacterizedCore& core = runner.core();
    const double fsta = core.sta_fmax_mhz(0.7);
    os << "model B+ first-fault frequency vs clip level "
          "(Vdd = 0.7 V, sigma = 10 mV)\n\n";
    TextTable threshold_table({"clip [sigma]", "first fault [MHz]",
                               "shift vs STA"});
    for (const double clip : {1.0, 2.0, 3.0, 4.0}) {
        OperatingPoint point;
        point.vdd = 0.7;
        point.noise.sigma_mv = 10.0;
        point.noise.clip_sigmas = clip;
        const double f0 = first_fault_mhz(core, ModelSpec::b(), point);
        threshold_table.add_row({fmt_fixed(clip, 1), fmt_fixed(f0, 1),
                                 fmt_fixed(100.0 * (f0 / fsta - 1.0), 1) + "%"});
    }
    threshold_table.print(os);

    os << "\nmodel C on median at f = STA limit (" << fmt_fixed(fsta, 1)
       << " MHz), sigma = 25 mV\n\n";
    TextTable app_table({"clip [sigma]", "finished", "correct", "FI/kCycle"});
    for (const PanelResult& panel : result.panels) {
        const PointSummary& s = panel.sweep.at(0);
        app_table.add_row({fmt_fixed(s.point.noise.clip_sigmas, 1),
                           fmt_pct(s.finished_frac()),
                           fmt_pct(s.correct_frac()), fmt_sci(s.fi_rate, 3)});
    }
    app_table.print(os);
}

void ablation_policy_report(std::ostream& os, CampaignRunner&,
                            const CampaignResult& result) {
    for (const BenchmarkId id : {BenchmarkId::KMeans, BenchmarkId::Median}) {
        const auto bench = make_benchmark(id);
        os << "=== " << bench->name() << " ===\n";
        TextTable table({"f [MHz]", "policy", "finished", "correct",
                         "FI/kCycle", bench->error_unit()});
        const PanelResult& flips = result.panel(
            std::string("ablation_policy_") + benchmark_name(id) + "_bitflip");
        const PanelResult& stale = result.panel(
            std::string("ablation_policy_") + benchmark_name(id) + "_stale");
        for (std::size_t i = 0; i < flips.sweep.size(); ++i) {
            for (const auto* panel : {&flips, &stale}) {
                const PointSummary& s = panel->sweep.at(i);
                table.add_row({fmt_fixed(s.point.freq_mhz, 1),
                               panel == &flips ? "bit-flip" : "stale-capture",
                               fmt_pct(s.finished_frac()),
                               fmt_pct(s.correct_frac()), fmt_sci(s.fi_rate, 3),
                               fmt_sci(s.mean_error, 3)});
            }
        }
        table.print(os);
        os << "\n";
    }
}

}  // namespace

const std::vector<Figure>& figure_table() {
    static const std::vector<Figure> table = {
        {"fig1", fig1, fig1_header, nullptr},
        {"fig2",
         [](const CoreModelConfig& core, std::size_t, std::uint64_t) {
             return fig2(core);
         },
         nullptr, fig2_report},
        {"fig4", fig4, nullptr, fig4_report},
        {"fig5", fig5, fig5_header, fig5_report},
        {"fig6", fig6, fig6_header, nullptr},
        {"fig7", fig7, nullptr, fig7_report},
        {"ablation_adder", ablation_adder, ablation_adder_header, nullptr},
        {"ablation_compression", ablation_compression,
         ablation_compression_header, ablation_compression_report},
        {"ablation_noise_clip", ablation_noise_clip, nullptr,
         ablation_noise_clip_report},
        {"ablation_policy", ablation_policy, nullptr, ablation_policy_report},
    };
    return table;
}

const Figure* find_figure(const std::string& name) {
    for (const Figure& figure : figure_table())
        if (name == figure.name) return &figure;
    return nullptr;
}

CampaignSpec make_figure(const std::string& name, const CoreModelConfig& core,
                         std::size_t trials, std::uint64_t seed) {
    const Figure* figure = find_figure(name);
    if (figure == nullptr)
        throw std::invalid_argument("unknown figure campaign: " + name);
    return figure->make(core, trials, seed);
}

CampaignResult run_figure(const Figure& figure, CampaignSpec spec,
                          RunOptions options) {
    std::ostream* const console = options.console;
    if (console != nullptr && figure.header != nullptr)
        options.on_panel_start = [console, header = figure.header](
                                     const PanelSpec& panel,
                                     const CharacterizedCore& core) {
            header(*console, panel, core);
        };
    CampaignRunner runner(std::move(spec), std::move(options));
    const CampaignResult result = runner.run();
    if (console != nullptr && figure.report != nullptr && result.completed)
        figure.report(*console, runner, result);
    return result;
}

}  // namespace sfi::campaign::figures
