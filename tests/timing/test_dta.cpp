#include "timing/dta.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>

#include "fi/cdf.hpp"
#include "timing/calibration.hpp"
#include "timing/sta.hpp"
#include "util/fingerprint.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

struct DtaTest : ::testing::Test {
    static const Alu& alu() {
        static const Alu instance = build_alu();
        return instance;
    }
    static const InstanceTiming& timing() {
        static const InstanceTiming instance = [] {
            const TimingLib& lib = shared_lib();
            InstanceTiming t(alu().netlist, lib);
            calibrate_alu(alu(), t);
            return t;
        }();
        return instance;
    }
    static const TimingLib& shared_lib() {
        static const TimingLib lib;
        return lib;
    }
    static DtaConfig small_config() {
        DtaConfig config;
        config.cycles = 512;
        return config;
    }
};

/// FNV-1a digest of the CDF-cache serialization of `dta`.
std::uint64_t cdf_digest(const DtaResult& dta) {
    std::ostringstream os;
    TimingErrorCdfs::from_dta(dta).save(os);
    const std::string bytes = os.str();
    return Fingerprint().bytes(bytes.data(), bytes.size()).value();
}

/// A one-class DtaResult, as the operand-conditioned Fig. 4 panels build it.
DtaResult single_class(const InstanceTiming& timing, DtaClassResult cls,
                       std::size_t cycles) {
    DtaResult result;
    result.setup_ps = timing.setup_ps();
    result.cycles = cycles;
    result.worst_arrival_ps = cls.max_arrival_ps;
    result.classes = {std::move(cls)};
    return result;
}

/// The uninterrupted serial kernel: one simulator, one settle() per cycle,
/// operands drawn in the documented per-class RNG order. Chunked DTA must
/// reproduce it exactly.
DtaClassResult serial_reference(const Alu& alu, const InstanceTiming& timing,
                                ExClass cls, const DtaConfig& config) {
    EventSimConfig sim_config;
    sim_config.clk_to_q_ps = config.clk_to_q_ps;
    EventSim sim(alu.netlist, timing, {{"op", Alu::op_code(cls)}}, "y",
                 sim_config);
    DtaClassResult result;
    result.cls = cls;
    result.active_cells = sim.active_cell_count();
    result.arrivals_ps.assign(sim.watch_width(), {});
    Rng rng(config.seed ^ (static_cast<std::uint64_t>(cls) * 0x9e3779b97f4a7c15ULL));
    const std::uint32_t mask =
        config.operand_bits >= 32 ? 0xffffffffu
                                  : ((1u << config.operand_bits) - 1u);
    sim.set_input("a", rng.u32() & mask);
    sim.set_input("b", rng.u32() & mask);
    sim.initialize();
    for (std::size_t cycle = 0; cycle < config.cycles; ++cycle) {
        sim.set_input("a", rng.u32() & mask);
        sim.set_input("b", rng.u32() & mask);
        const std::vector<double>& arrivals = sim.settle();
        for (std::size_t bit = 0; bit < arrivals.size(); ++bit) {
            result.arrivals_ps[bit].push_back(static_cast<float>(arrivals[bit]));
            result.max_arrival_ps = std::max(result.max_arrival_ps, arrivals[bit]);
        }
    }
    result.events = sim.total_events();
    return result;
}

TEST_F(DtaTest, ProducesOneSamplePerEndpointPerCycle) {
    const DtaClassResult result =
        run_dta_class(alu(), timing(), ExClass::Add, small_config());
    ASSERT_EQ(result.arrivals_ps.size(), 32u);
    for (const auto& samples : result.arrivals_ps)
        EXPECT_EQ(samples.size(), 512u);
    EXPECT_GT(result.events, 0u);
    EXPECT_GT(result.active_cells, 0u);
}

TEST_F(DtaTest, Deterministic) {
    const DtaClassResult a =
        run_dta_class(alu(), timing(), ExClass::Sub, small_config());
    const DtaClassResult b =
        run_dta_class(alu(), timing(), ExClass::Sub, small_config());
    EXPECT_EQ(a.arrivals_ps, b.arrivals_ps);
}

TEST_F(DtaTest, SeedsDifferPerClassButResultsBounded) {
    const DtaClassResult add =
        run_dta_class(alu(), timing(), ExClass::Add, small_config());
    const StaResult sta = run_sta(alu().netlist, timing(),
                                  {{"op", Alu::op_code(ExClass::Add)}});
    for (std::size_t bit = 0; bit < 32; ++bit)
        for (const float arr : add.arrivals_ps[bit])
            EXPECT_LE(arr, sta.endpoint_ps[bit] + 1e-3) << bit;
}

TEST_F(DtaTest, MulArrivalsDominateAddArrivals) {
    const DtaClassResult add =
        run_dta_class(alu(), timing(), ExClass::Add, small_config());
    const DtaClassResult mul =
        run_dta_class(alu(), timing(), ExClass::Mul, small_config());
    EXPECT_GT(mul.max_arrival_ps, add.max_arrival_ps);
}

TEST_F(DtaTest, HighBitsFailBeforeLowBitsForMul) {
    const DtaClassResult mul =
        run_dta_class(alu(), timing(), ExClass::Mul, small_config());
    auto max_of = [&](std::size_t bit) {
        float worst = 0.0f;
        for (const float a : mul.arrivals_ps[bit]) worst = std::max(worst, a);
        return worst;
    };
    EXPECT_GT(max_of(24), max_of(3));
    EXPECT_GT(max_of(31), max_of(8));
}

TEST_F(DtaTest, RestrictedOperandBitsLowerHighEndpointActivity) {
    DtaConfig narrow = small_config();
    narrow.operand_bits = 16;
    const DtaClassResult full =
        run_dta_class(alu(), timing(), ExClass::Add, small_config());
    const DtaClassResult halfw =
        run_dta_class(alu(), timing(), ExClass::Add, narrow);
    // 16-bit operands: sums fit in 17 bits, so endpoints 18..31 never
    // toggle and their arrivals stay 0 (the add16 vs add32 PoFF spread of
    // the paper's Fig. 4).
    float max_high = 0.0f;
    for (std::size_t bit = 18; bit < 32; ++bit)
        for (const float a : halfw.arrivals_ps[bit])
            max_high = std::max(max_high, a);
    EXPECT_EQ(max_high, 0.0f);
    EXPECT_LT(halfw.max_arrival_ps, full.max_arrival_ps);
}

TEST_F(DtaTest, FullRunCoversAllClasses) {
    DtaConfig config = small_config();
    config.cycles = 128;
    const DtaResult result = run_dta(alu(), timing(), config);
    EXPECT_EQ(result.classes.size(), Alu::instruction_classes().size());
    EXPECT_EQ(result.cycles, 128u);
    EXPECT_DOUBLE_EQ(result.setup_ps, timing().setup_ps());
    double worst = 0.0;
    for (const auto& cls : result.classes)
        worst = std::max(worst, cls.max_arrival_ps);
    EXPECT_DOUBLE_EQ(result.worst_arrival_ps, worst);
    // Dynamic slack: the observed worst arrival can never exceed the
    // design STA bound.
    const StaResult sta = endpoint_worst_sta(alu(), timing());
    EXPECT_LE(result.worst_arrival_ps, sta.worst_ps + 1e-3);
}

TEST_F(DtaTest, MulDynamicSlackIsSmall) {
    // Random operands excite near-critical multiplier paths easily: the
    // dynamic limit sits within a few percent of the static one. This is
    // why mul-heavy kernels show no PoFF gain in the paper.
    const DtaClassResult mul =
        run_dta_class(alu(), timing(), ExClass::Mul, small_config());
    const StaResult sta = run_sta(alu().netlist, timing(),
                                  {{"op", Alu::op_code(ExClass::Mul)}});
    EXPECT_GT(mul.max_arrival_ps, 0.9 * sta.worst_ps);
}

TEST_F(DtaTest, CdfBytesArePinned) {
    // Digests of TimingErrorCdfs::save() for the default core, recorded
    // before the event simulator's hot loop and the chunked, parallel
    // characterization were rewritten. Any change to event order, operand
    // draws or chunk stitching moves them.
    EXPECT_EQ(cdf_digest(run_dta(alu(), timing(), small_config())),
              0x306cfd80b70bbafdULL);
    DtaConfig narrow = small_config();
    narrow.operand_bits = 16;
    EXPECT_EQ(cdf_digest(single_class(
                  timing(), run_dta_class(alu(), timing(), ExClass::Add, narrow),
                  narrow.cycles)),
              0x5663e15bcaef99bfULL);
    EXPECT_EQ(cdf_digest(single_class(
                  timing(), run_dta_class(alu(), timing(), ExClass::Mul, narrow),
                  narrow.cycles)),
              0xd8d0ab227c20d478ULL);
}

TEST_F(DtaTest, ChunkedMatchesSerialAtEveryWorkerCount) {
    // Chunk bookkeeping (a lone cycle, a partial chunk, one cycle past a
    // boundary, several chunks) on the cheap Add cone; the tie-heavy Mul
    // cone across one chunk boundary, run together with Add so four
    // tasks race.
    struct Case {
        std::vector<ExClass> classes;
        std::size_t cycles;
    };
    const std::vector<Case> cases = {
        {{ExClass::Add}, 1},
        {{ExClass::Add}, kDtaChunkCycles - 1},
        {{ExClass::Add, ExClass::Mul}, kDtaChunkCycles + 1},
        {{ExClass::Add}, 1000},
    };
    for (const Case& c : cases) {
        DtaConfig config = small_config();
        config.cycles = c.cycles;
        std::vector<DtaClassResult> serial;
        for (const ExClass cls : c.classes)
            serial.push_back(serial_reference(alu(), timing(), cls, config));
        for (std::size_t workers = 1; workers <= 4; ++workers) {
            SCOPED_TRACE("cycles " + std::to_string(c.cycles) + " classes " +
                         std::to_string(c.classes.size()) + " workers " +
                         std::to_string(workers));
            const std::vector<DtaClassResult> chunked =
                run_dta_classes(alu(), timing(), c.classes, config, workers);
            ASSERT_EQ(chunked.size(), c.classes.size());
            for (std::size_t k = 0; k < c.classes.size(); ++k) {
                EXPECT_EQ(chunked[k].cls, c.classes[k]);
                EXPECT_EQ(chunked[k].arrivals_ps, serial[k].arrivals_ps);
                EXPECT_EQ(chunked[k].max_arrival_ps, serial[k].max_arrival_ps);
                EXPECT_EQ(chunked[k].events, serial[k].events);
                EXPECT_EQ(chunked[k].active_cells, serial[k].active_cells);
            }
        }
    }
}

TEST_F(DtaTest, ZeroCyclesStillReportsTheCone) {
    DtaConfig config = small_config();
    config.cycles = 0;
    const DtaClassResult mul =
        run_dta_class(alu(), timing(), ExClass::Mul, config);
    EXPECT_EQ(mul.arrivals_ps.size(), 32u);
    for (const auto& samples : mul.arrivals_ps) EXPECT_TRUE(samples.empty());
    EXPECT_GT(mul.active_cells, 0u);
    EXPECT_EQ(mul.events, 0u);
}

TEST_F(DtaTest, ProfileRecordsOneCallPerClass) {
    // The profile is filled from the dispatching thread after the chunk
    // tasks join: one dta_eval and one event_sim_settle record per class,
    // each with items = kernel cycles, whatever the worker count.
    DtaConfig config = small_config();
    config.cycles = 64;
    perf::PhaseProfile profile;
    run_dta(alu(), timing(), config, &profile);
    const std::size_t classes = Alu::instruction_classes().size();
    ASSERT_EQ(classes, 10u);
    for (const perf::Phase phase :
         {perf::Phase::DtaEval, perf::Phase::EventSimSettle}) {
        const perf::PhaseStats& stats = profile.stats(phase);
        EXPECT_EQ(stats.calls, classes) << perf::phase_name(phase);
        EXPECT_EQ(stats.items, classes * config.cycles) << perf::phase_name(phase);
        EXPECT_GT(stats.seconds, 0.0) << perf::phase_name(phase);
    }
    EXPECT_GE(profile.stats(perf::Phase::DtaEval).seconds,
              profile.stats(perf::Phase::EventSimSettle).seconds);
}

}  // namespace
}  // namespace sfi
