// Engine-differential fuzz harness: Cpu::run(), the decode-once
// threaded-dispatch interpreter (src/cpu/interp.cpp), must be observably
// indistinguishable from Cpu::run_reference(), the per-instruction
// fetch/decode/execute loop over Cpu::step() (src/cpu/cpu.cpp).
//
// Thousands of seeded ISA-complete programs (tests/testing/
// program_gen.hpp), and every application kernel of all_benchmarks(), run
// through BOTH paths; after each run every observable is compared field
// by field:
//
//   * the full RunResult (stop reason, exit code, cycle/instruction and
//     kernel counters, fault address),
//   * architectural state: all 32 registers, pc, compare flag, the FI
//     window flag, and the complete memory image (self-modifying stores
//     included),
//   * fault-model state: FiStats for models A / A-clean / B / B+ / C,
//     razor detection/escape/inner counters,
//   * the raw hook trace: the exact sequence of on_cycles groups and
//     on_ex_result events a generic (non-FaultModel) hook observes,
//     including deterministic corruption fed back into the pipeline.
//
// The one permitted divergence is RNG *consumption* on clean runs (the
// threaded clean-model shortcut counts provably-clean ops without
// drawing), which is unobservable under the Monte-Carlo contract of one
// reseed per trial — exactly how these runs reseed.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "apps/benchmark.hpp"
#include "cpu/cpu.hpp"
#include "fi/cdf.hpp"
#include "fi/mitigation.hpp"
#include "fi/models.hpp"
#include "isa/encoding.hpp"
#include "testing/program_gen.hpp"
#include "timing/dta.hpp"
#include "timing/sta.hpp"
#include "timing/vdd_model.hpp"

namespace sfi {
namespace {

constexpr std::uint32_t kMemBytes = 1u << 16;
// Generous enough that loop-free programs always halt, small enough that
// the backward-branch loops the generator emits terminate the test
// quickly via Watchdog — itself a compared outcome.
constexpr std::uint64_t kMaxCycles = 20000;

// ---------------------------------------------------------------------------
// Synthetic fault-model prototypes. Built from hand-written timing data
// (not the expensive CharacterizedCore fixture) so the suite fits the
// 120 s unit-test tier; the models exercise the exact same hook paths.
// ---------------------------------------------------------------------------

const VddDelayFit& fit() {
    static const VddDelayFit f({0.5, 0.6, 0.7, 0.8, 0.9},
                               {2.0, 1.6, 1.3, 1.1, 1.0});
    return f;
}

StaResult synthetic_sta() {
    StaResult sta;
    sta.endpoint_ps.resize(32);
    for (std::size_t i = 0; i < 32; ++i)
        sta.endpoint_ps[i] = 500.0 + 30.0 * static_cast<double>(i);
    sta.worst_ps = sta.endpoint_ps.back();
    sta.setup_ps = 50.0;
    return sta;
}

std::shared_ptr<const TimingErrorCdfs> synthetic_cdfs() {
    DtaResult dta;
    dta.setup_ps = 50.0;
    dta.cycles = 64;
    for (std::size_t c = 1; c < kExClassCount; ++c) {  // skip None
        DtaClassResult cls;
        cls.cls = static_cast<ExClass>(c);
        cls.arrivals_ps.resize(32);
        const double base = 600.0 + 40.0 * static_cast<double>(c);
        for (std::size_t e = 0; e < 32; ++e) {
            cls.arrivals_ps[e].resize(dta.cycles);
            for (std::size_t k = 0; k < dta.cycles; ++k) {
                // Deterministic spread; a few zero samples model cycles
                // where the endpoint did not toggle.
                if ((e + k) % 13 == 0) continue;
                const double a = base + 20.0 * static_cast<double>(e) +
                                 static_cast<double>((k * 37) % 120);
                cls.arrivals_ps[e][k] = static_cast<float>(a);
                cls.max_arrival_ps = std::max(cls.max_arrival_ps, a);
            }
        }
        dta.worst_arrival_ps = std::max(dta.worst_arrival_ps, cls.max_arrival_ps);
        dta.classes.push_back(std::move(cls));
    }
    return std::make_shared<const TimingErrorCdfs>(TimingErrorCdfs::from_dta(dta));
}

// 549 MHz @ 0.7 V: capture window ~1401 ps @ Vref — the three most
// critical STA endpoints violate deterministically (model B), the
// near-threshold ones flip in and out under noise (B+), and the per-class
// CDFs yield mid-range probabilities (C).
OperatingPoint op_point(double sigma_mv = 0.0) {
    OperatingPoint point;
    point.freq_mhz = 549.0;
    point.vdd = 0.7;
    point.noise.sigma_mv = sigma_mv;
    return point;
}

struct ModelConfig {
    std::string label;
    std::unique_ptr<FaultModel> prototype;  // null = no hook installed
};

std::vector<ModelConfig> make_model_configs() {
    std::vector<ModelConfig> configs;
    configs.push_back({"no-hook", nullptr});

    auto a = std::make_unique<ModelA>(1e-3);
    a->set_operating_point(op_point());
    configs.push_back({"modelA", std::move(a)});

    // can_inject() == false: the reference loop still drives corrupt() per
    // op while run() takes the clean-model shortcut — stats must still
    // agree.
    auto a0 = std::make_unique<ModelA>(0.0);
    a0->set_operating_point(op_point());
    configs.push_back({"modelA-clean", std::move(a0)});

    auto b = std::make_unique<ModelB>(synthetic_sta(), fit());
    b->set_operating_point(op_point());
    configs.push_back({"modelB", std::move(b)});

    auto bplus = std::make_unique<ModelB>(synthetic_sta(), fit());
    bplus->set_operating_point(op_point(10.0));
    configs.push_back({"modelB+", std::move(bplus)});

    auto c = std::make_unique<ModelC>(synthetic_cdfs(), fit());
    c->set_operating_point(op_point(10.0));
    configs.push_back({"modelC", std::move(c)});

    auto razor_inner = std::make_unique<ModelB>(synthetic_sta(), fit());
    razor_inner->set_operating_point(op_point(10.0));
    auto razor = std::make_unique<ErrorDetectionModel>(
        std::move(razor_inner), RazorConfig{0.8, 11});
    configs.push_back({"razor(modelB+)", std::move(razor)});

    // Razor over a provably clean inner model: the threaded shortcut must
    // keep BOTH counter sets (outer and inner) in lock-step via the
    // count_clean_ops forwarding chain.
    auto razor_clean = std::make_unique<ErrorDetectionModel>(
        std::make_unique<ModelA>(0.0), RazorConfig{0.8, 11});
    razor_clean->set_operating_point(op_point());
    configs.push_back({"razor(modelA-clean)", std::move(razor_clean)});

    return configs;
}

// ---------------------------------------------------------------------------
// One run -> everything observable.
// ---------------------------------------------------------------------------

/// One of the two execution paths under comparison; callers pick the
/// reference semantics by calling Cpu::run_reference.
struct Engine {
    const char* name;
    RunResult (Cpu::*run)(std::uint64_t);
};
constexpr Engine kReference{"reference", &Cpu::run_reference};
constexpr Engine kThreaded{"threaded", &Cpu::run};

struct Observation {
    RunResult run;
    std::array<std::uint32_t, 32> regs{};
    std::uint32_t pc = 0;
    bool flag = false;
    bool fi_active = false;
    std::uint64_t cycles = 0;
    std::uint64_t instructions = 0;
    std::vector<std::uint32_t> mem;
    FiStats stats{};
    std::uint64_t detected = 0;
    std::uint64_t escaped = 0;
    FiStats inner_stats{};
};

Observation run_one(const Program& program, const Engine& engine,
                    const FaultModel* prototype, std::uint64_t seed,
                    std::uint32_t mem_bytes = kMemBytes,
                    std::uint64_t max_cycles = kMaxCycles) {
    Memory mem(mem_bytes);
    Cpu cpu(mem);
    std::unique_ptr<FaultModel> model;
    if (prototype) {
        model = prototype->clone();
        model->reseed(seed * 0x9e3779b97f4a7c15ULL + 1);
        cpu.set_fault_hook(model.get());
    }
    cpu.reset(program);

    Observation ob;
    ob.run = (cpu.*engine.run)(max_cycles);
    for (std::uint8_t r = 0; r < 32; ++r) ob.regs[r] = cpu.reg(r);
    ob.pc = cpu.pc();
    ob.flag = cpu.flag();
    ob.fi_active = cpu.fi_active();
    ob.cycles = cpu.cycles();
    ob.instructions = cpu.instructions();
    // The whole image, read through Memory's invariant that every byte
    // outside the dirty range is zero (keeps 1 MiB snapshots cheap).
    ob.mem.assign(mem_bytes / 4, 0);
    const std::uint32_t hi_word = std::min(mem_bytes / 4, (mem.dirty_hi() + 3) / 4);
    for (std::uint32_t w = mem.dirty_lo() / 4; w < hi_word; ++w)
        ob.mem[w] = mem.read_u32_unchecked(w * 4);
    if (model) {
        ob.stats = model->stats();
        if (const auto* razor =
                dynamic_cast<const ErrorDetectionModel*>(model.get())) {
            ob.detected = razor->detected();
            ob.escaped = razor->escaped();
            ob.inner_stats = razor->inner().stats();
        }
    }
    return ob;
}

void expect_equal(const Observation& reference, const Observation& threaded,
                  const std::string& ctx) {
    EXPECT_EQ(int(reference.run.stop), int(threaded.run.stop)) << ctx;
    EXPECT_EQ(reference.run.exit_code, threaded.run.exit_code) << ctx;
    EXPECT_EQ(reference.run.cycles, threaded.run.cycles) << ctx;
    EXPECT_EQ(reference.run.instructions, threaded.run.instructions) << ctx;
    EXPECT_EQ(reference.run.kernel_cycles, threaded.run.kernel_cycles) << ctx;
    EXPECT_EQ(reference.run.kernel_instructions, threaded.run.kernel_instructions)
        << ctx;
    EXPECT_EQ(reference.run.fault_addr, threaded.run.fault_addr) << ctx;

    for (std::uint8_t r = 0; r < 32; ++r)
        if (reference.regs[r] != threaded.regs[r])
            ADD_FAILURE() << ctx << ": r" << int(r) << " reference=0x" << std::hex
                          << reference.regs[r] << " threaded=0x" << threaded.regs[r];
    EXPECT_EQ(reference.pc, threaded.pc) << ctx;
    EXPECT_EQ(reference.flag, threaded.flag) << ctx;
    EXPECT_EQ(reference.fi_active, threaded.fi_active) << ctx;
    EXPECT_EQ(reference.cycles, threaded.cycles) << ctx;
    EXPECT_EQ(reference.instructions, threaded.instructions) << ctx;

    ASSERT_EQ(reference.mem.size(), threaded.mem.size()) << ctx;
    if (reference.mem != threaded.mem) {
        // The first divergence is the informative one.
        std::size_t w = 0;
        while (reference.mem[w] == threaded.mem[w]) ++w;
        ADD_FAILURE() << ctx << ": mem word 0x" << std::hex << w * 4
                      << " reference=0x" << reference.mem[w] << " threaded=0x"
                      << threaded.mem[w];
    }

    EXPECT_EQ(reference.stats.fi_cycles, threaded.stats.fi_cycles) << ctx;
    EXPECT_EQ(reference.stats.alu_ops, threaded.stats.alu_ops) << ctx;
    EXPECT_EQ(reference.stats.injections, threaded.stats.injections) << ctx;
    EXPECT_EQ(reference.stats.corrupted_ops, threaded.stats.corrupted_ops) << ctx;
    EXPECT_EQ(reference.detected, threaded.detected) << ctx;
    EXPECT_EQ(reference.escaped, threaded.escaped) << ctx;
    EXPECT_EQ(reference.inner_stats.alu_ops, threaded.inner_stats.alu_ops) << ctx;
    EXPECT_EQ(reference.inner_stats.injections, threaded.inner_stats.injections)
        << ctx;
    EXPECT_EQ(reference.inner_stats.corrupted_ops,
              threaded.inner_stats.corrupted_ops)
        << ctx;
}

// ---------------------------------------------------------------------------
// The harness's "undecodable word" claim must hold or IllegalInstr
// coverage silently evaporates.
// ---------------------------------------------------------------------------

TEST(DispatchDifferential, FuzzFillerWordIsUndecodable) {
    EXPECT_FALSE(decode(0xffffffffu).has_value());
    EXPECT_FALSE(decode(0xfc000000u).has_value());
}

// ---------------------------------------------------------------------------
// No-fault sweep: thousands of seeds, plus a stop-reason coverage audit
// so generator drift cannot quietly shrink what "ISA-complete" means.
// ---------------------------------------------------------------------------

TEST(DispatchDifferential, NoFaultThousandsOfSeeds) {
    std::map<StopReason, std::size_t> reasons;
    for (std::uint64_t seed = 1; seed <= 2000; ++seed) {
        const Program program = testgen::generate_fuzz_program(seed);
        const Observation reference =
            run_one(program, kReference, nullptr, seed);
        const Observation threaded =
            run_one(program, kThreaded, nullptr, seed);
        expect_equal(reference, threaded, "seed " + std::to_string(seed));
        ++reasons[reference.run.stop];
        if (HasFailure()) break;  // one seed's dump is enough to debug
    }
    // The sweep must exercise every termination path the generator is
    // designed to reach (FetchFault needs self-modified code to fabricate
    // a wild jump, so it is reported but not required).
    EXPECT_GT(reasons[StopReason::Halted], 0u);
    EXPECT_GT(reasons[StopReason::Watchdog], 0u);
    EXPECT_GT(reasons[StopReason::SelfLoop], 0u);
    EXPECT_GT(reasons[StopReason::MemFault], 0u);
    EXPECT_GT(reasons[StopReason::IllegalInstr], 0u);
    for (const auto& [reason, count] : reasons)
        std::cout << "[coverage] " << stop_reason_name(reason) << ": " << count
                  << "\n";
}

// Longer bodies shift the instruction mix toward deep loops and more
// self-modification; a smaller seed sweep keeps the runtime bounded.
TEST(DispatchDifferential, NoFaultLongPrograms) {
    testgen::FuzzConfig cfg;
    cfg.body_length = 256;
    for (std::uint64_t seed = 1; seed <= 200; ++seed) {
        const Program program = testgen::generate_fuzz_program(seed, cfg);
        const Observation reference =
            run_one(program, kReference, nullptr, seed);
        const Observation threaded =
            run_one(program, kThreaded, nullptr, seed);
        expect_equal(reference, threaded, "long seed " + std::to_string(seed));
        if (HasFailure()) break;
    }
}

// ---------------------------------------------------------------------------
// Fault-model sweep: models A / A-clean / B / B+ / C and razor
// decorations, several hundred seeds each.
// ---------------------------------------------------------------------------

TEST(DispatchDifferential, FaultModelsSeveralHundredSeedsEach) {
    const std::vector<ModelConfig> configs = make_model_configs();
    for (const ModelConfig& config : configs) {
        if (!config.prototype) continue;  // covered by the sweeps above
        std::uint64_t injections = 0;
        for (std::uint64_t seed = 1; seed <= 300; ++seed) {
            const Program program = testgen::generate_fuzz_program(seed);
            const Observation reference = run_one(program, kReference,
                                               config.prototype.get(), seed);
            const Observation threaded = run_one(
                program, kThreaded, config.prototype.get(), seed);
            expect_equal(reference, threaded,
                         config.label + " seed " + std::to_string(seed));
            injections += reference.stats.injections;
            if (HasFailure()) break;
        }
        // The injecting configurations must actually inject, or the
        // ModelPolicy path was never really exercised.
        if (config.prototype->can_inject())
            EXPECT_GT(injections, 0u) << config.label;
        else
            EXPECT_EQ(injections, 0u) << config.label;
    }
}

// ---------------------------------------------------------------------------
// The paper's application kernels: every benchmark of all_benchmarks()
// under each synthetic prototype, in the default memory and with the
// Monte-Carlo watchdog (8x the fault-free run). Unlike the generated
// programs these run the real workloads end to end — deep loops,
// kernel-window markers, output buffers — which the figure campaigns run
// through run() alone. The prototypes are re-pointed over a frequency
// sweep, because the suite's 549 MHz point crashes every kernel within a
// few cycles: on the synthetic timing 420 MHz is fault-free for B/B+ (the
// clean-model shortcut on real code) and sparse for C, 460-520 MHz are
// transitions where faulty kernels halt, hang or crash late, and 549 MHz
// is the collapse. Every (frequency, seed) pair reseeds differently, so
// frequency-blind model A sees distinct streams too.
// ---------------------------------------------------------------------------

TEST(DispatchDifferential, ApplicationKernelsUnderEveryModel) {
    constexpr double kFreqsMhz[] = {420.0, 460.0, 500.0, 520.0, 549.0};
    constexpr std::uint64_t kSeedsPerFreq = 2;
    const std::vector<ModelConfig> configs = make_model_configs();
    std::map<std::string, std::uint64_t> injections;
    std::map<StopReason, std::size_t> reasons;
    for (const BenchmarkId id : all_benchmarks()) {
        const auto benchmark = make_benchmark(id);
        const Program& program = benchmark->program();
        const auto compare = [&](const FaultModel* prototype,
                                 std::uint64_t seed, std::uint64_t watchdog,
                                 const std::string& ctx) {
            const Observation reference = run_one(
                program, kReference, prototype, seed, Memory::kDefaultSize, watchdog);
            const Observation threaded = run_one(
                program, kThreaded, prototype, seed, Memory::kDefaultSize, watchdog);
            expect_equal(reference, threaded, benchmark->name() + " " + ctx);
            ++reasons[reference.run.stop];
            return reference;
        };
        const Observation golden = compare(nullptr, 0, 0, "no-hook");
        ASSERT_EQ(int(golden.run.stop), int(StopReason::Halted))
            << benchmark->name();
        const std::uint64_t watchdog = 8 * golden.run.cycles;
        for (const ModelConfig& config : configs) {
            if (!config.prototype) continue;
            std::uint64_t seed = 0;
            bool clean_run_done = false;
            for (const double f : kFreqsMhz) {
                const std::unique_ptr<FaultModel> model = config.prototype->clone();
                OperatingPoint point = model->operating_point();
                point.freq_mhz = f;
                model->set_operating_point(point);
                // A model that cannot inject runs the same way at every
                // such point and seed: once per kernel is enough.
                if (!model->can_inject() && std::exchange(clean_run_done, true))
                    continue;
                const std::uint64_t seeds = model->can_inject() ? kSeedsPerFreq : 1;
                for (std::uint64_t s = 0; s < seeds; ++s) {
                    ++seed;
                    const Observation reference = compare(
                        model.get(), seed, watchdog,
                        config.label + " " + std::to_string(f) + " MHz seed " +
                            std::to_string(seed));
                    injections[config.label] += reference.stats.injections;
                    if (HasFailure()) return;
                }
            }
        }
    }
    // Every injecting prototype must corrupt some kernel run, or its
    // per-op hook path was not compared on real code; faulty kernels must
    // reach more than one ending.
    for (const ModelConfig& config : configs) {
        if (config.prototype && config.prototype->can_inject()) {
            EXPECT_GT(injections[config.label], 0u) << config.label;
        }
    }
    EXPECT_GT(reasons[StopReason::Halted], 0u);
    EXPECT_GT(reasons[StopReason::Watchdog], 0u);
    EXPECT_GT(reasons[StopReason::MemFault], 0u);
    for (const auto& [reason, count] : reasons)
        std::cout << "[coverage] " << stop_reason_name(reason) << ": " << count
                  << "\n";
}

// ---------------------------------------------------------------------------
// Raw hook-trace identity: a generic (non-FaultModel) hook must observe
// the exact same call sequence from both engines — same on_cycles
// grouping (stall bubbles with their instruction, branch flushes as a
// separate group), same FI-window flags, same EX events in the same
// order. The hook corrupts deterministically so wrong results feed back
// into flags/branches identically on both sides.
// ---------------------------------------------------------------------------

class RecordingHook final : public ExFaultHook {
public:
    struct CycleGroup {
        std::uint64_t n;
        bool fi;
        bool operator==(const CycleGroup&) const = default;
    };
    struct Ex {
        Op op;
        ExClass cls;
        std::uint32_t a, b, prev, correct, returned;
        std::uint64_t cycle;
        bool operator==(const Ex&) const = default;
    };

    void on_cycle(bool fi_active) override { groups.push_back({1, fi_active}); }
    void on_cycles(std::uint64_t n, bool fi_active) override {
        groups.push_back({n, fi_active});
    }
    std::uint32_t on_ex_result(const ExEvent& ev, std::uint32_t correct) override {
        // Every 7th EX result gets a deterministic single-bit corruption.
        std::uint32_t returned = correct;
        if (events.size() % 7 == 3)
            returned = correct ^ (1u << (events.size() % 32));
        events.push_back({ev.op, ev.cls, ev.operand_a, ev.operand_b,
                          ev.prev_result, correct, returned, ev.cycle});
        return returned;
    }

    std::vector<CycleGroup> groups;
    std::vector<Ex> events;
};

TEST(DispatchDifferential, GenericHookSeesIdenticalCallSequence) {
    for (std::uint64_t seed = 1; seed <= 60; ++seed) {
        const Program program = testgen::generate_fuzz_program(seed);
        RecordingHook reference_hook, threaded_hook;
        RunResult reference_run, threaded_run;
        std::array<std::uint32_t, 32> reference_regs{}, threaded_regs{};
        {
            Memory mem(kMemBytes);
            Cpu cpu(mem);
            cpu.set_fault_hook(&reference_hook);
            cpu.reset(program);
            reference_run = cpu.run_reference(kMaxCycles);
            for (std::uint8_t r = 0; r < 32; ++r) reference_regs[r] = cpu.reg(r);
        }
        {
            Memory mem(kMemBytes);
            Cpu cpu(mem);
            cpu.set_fault_hook(&threaded_hook);
            cpu.reset(program);
            threaded_run = cpu.run(kMaxCycles);
            for (std::uint8_t r = 0; r < 32; ++r) threaded_regs[r] = cpu.reg(r);
        }
        const std::string ctx = "seed " + std::to_string(seed);
        EXPECT_EQ(int(reference_run.stop), int(threaded_run.stop)) << ctx;
        EXPECT_EQ(reference_run.cycles, threaded_run.cycles) << ctx;
        EXPECT_EQ(reference_regs, threaded_regs) << ctx;

        ASSERT_EQ(reference_hook.groups.size(), threaded_hook.groups.size()) << ctx;
        for (std::size_t i = 0; i < reference_hook.groups.size(); ++i)
            if (!(reference_hook.groups[i] == threaded_hook.groups[i])) {
                ADD_FAILURE() << ctx << ": cycle group " << i << " reference=("
                              << reference_hook.groups[i].n << ","
                              << reference_hook.groups[i].fi << ") threaded=("
                              << threaded_hook.groups[i].n << ","
                              << threaded_hook.groups[i].fi << ")";
                break;
            }
        ASSERT_EQ(reference_hook.events.size(), threaded_hook.events.size()) << ctx;
        for (std::size_t i = 0; i < reference_hook.events.size(); ++i)
            if (!(reference_hook.events[i] == threaded_hook.events[i])) {
                ADD_FAILURE() << ctx << ": EX event " << i << " diverged";
                break;
            }
        if (HasFailure()) break;
    }
}

// ---------------------------------------------------------------------------
// Path switching on one Cpu instance: alternating run() and
// run_reference() on the same object (micro-op stream warm, hazard state
// carried through reset) must not leak state from one path into the
// other.
// ---------------------------------------------------------------------------

TEST(DispatchDifferential, AlternatingDispatchOnOneCpuMatchesFreshRuns) {
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        const Program program = testgen::generate_fuzz_program(seed);
        const Observation fresh_reference =
            run_one(program, kReference, nullptr, seed);
        const Observation fresh_threaded =
            run_one(program, kThreaded, nullptr, seed);

        Memory mem(kMemBytes);
        Cpu cpu(mem);
        for (int round = 0; round < 2; ++round) {
            for (const Engine& engine : {kThreaded, kReference}) {
                cpu.reset(program);
                const RunResult run = (cpu.*engine.run)(kMaxCycles);
                const RunResult& want = engine.run == kReference.run
                                            ? fresh_reference.run
                                            : fresh_threaded.run;
                const std::string ctx = "seed " + std::to_string(seed) +
                                        " round " + std::to_string(round) +
                                        " " + engine.name;
                EXPECT_EQ(int(run.stop), int(want.stop)) << ctx;
                EXPECT_EQ(run.cycles, want.cycles) << ctx;
                EXPECT_EQ(run.instructions, want.instructions) << ctx;
                EXPECT_EQ(run.kernel_cycles, want.kernel_cycles) << ctx;
                EXPECT_EQ(run.exit_code, want.exit_code) << ctx;
                EXPECT_EQ(run.fault_addr, want.fault_addr) << ctx;
            }
        }
        if (HasFailure()) break;
    }
}

}  // namespace
}  // namespace sfi
