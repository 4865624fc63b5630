#include "timing/event_sim.hpp"

#include <gtest/gtest.h>

#include "circuits/alu.hpp"
#include "timing/sta.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

TimingLib flat_lib(double clk_to_q = 0.0) {
    TimingLibConfig config;
    config.process_sigma = 0.0;
    config.load_per_fanout = 0.0;
    config.clk_to_q_ps = clk_to_q;
    return TimingLib(config);
}

TEST(EventSim, FinalValuesMatchFunctionalEval) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    for (const ExClass cls : {ExClass::Add, ExClass::Mul, ExClass::Xor,
                              ExClass::Srl, ExClass::Cmp}) {
        EventSim sim(alu.netlist, timing, {{"op", Alu::op_code(cls)}});
        Rng rng(static_cast<std::uint64_t>(cls) + 50);
        sim.set_input("a", rng.u32());
        sim.set_input("b", rng.u32());
        sim.initialize();
        for (int i = 0; i < 50; ++i) {
            const std::uint32_t a = rng.u32(), b = rng.u32();
            sim.set_input("a", a);
            sim.set_input("b", b);
            sim.settle();
            std::uint32_t got = 0;
            for (std::size_t bit = 0; bit < 32; ++bit)
                if (sim.watched_value(bit)) got |= 1u << bit;
            EXPECT_EQ(got, alu_result(cls, a, b))
                << ex_class_name(cls) << " a=" << a << " b=" << b;
        }
    }
}

TEST(EventSim, ArrivalsNeverExceedStaBound) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    for (const ExClass cls : {ExClass::Add, ExClass::Mul}) {
        const StaResult sta =
            run_sta(alu.netlist, timing, {{"op", Alu::op_code(cls)}});
        EventSim sim(alu.netlist, timing, {{"op", Alu::op_code(cls)}});
        Rng rng(3);
        sim.set_input("a", rng.u32());
        sim.set_input("b", rng.u32());
        sim.initialize();
        for (int i = 0; i < 100; ++i) {
            sim.set_input("a", rng.u32());
            sim.set_input("b", rng.u32());
            const auto& arrivals = sim.settle();
            // 0.05 ps slack: the event engine quantizes each cell delay to
            // integer femtoseconds, STA sums doubles.
            for (std::size_t bit = 0; bit < arrivals.size(); ++bit)
                EXPECT_LE(arrivals[bit], sta.endpoint_ps[bit] + 0.05)
                    << ex_class_name(cls) << " bit " << bit;
        }
    }
}

TEST(EventSim, NoChangeNoEvents) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    EventSim sim(alu.netlist, timing, {{"op", Alu::op_code(ExClass::Add)}});
    sim.set_input("a", 123);
    sim.set_input("b", 456);
    sim.initialize();
    sim.settle();  // first settle from the initialized state: no changes
    const std::uint64_t events_before = sim.total_events();
    sim.set_input("a", 123);  // identical values
    sim.set_input("b", 456);
    const auto& arrivals = sim.settle();
    EXPECT_EQ(sim.total_events(), events_before);
    for (const double a : arrivals) EXPECT_EQ(a, 0.0);
}

TEST(EventSim, RestartAtAnyCycleReproducesTheUninterruptedRun) {
    // settle() runs to quiescence, so a fresh simulator initialize()d at
    // cycle k's operands is in the same state as one that simulated
    // cycles 0..k: arrivals, final values and event counts of every later
    // cycle match bit for bit. Chunked DTA relies on this.
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    const std::map<std::string, std::uint64_t> op = {
        {"op", Alu::op_code(ExClass::Mul)}};
    constexpr std::size_t kCycles = 40;
    Rng rng(11);
    std::vector<std::pair<std::uint32_t, std::uint32_t>> operands(kCycles + 1);
    for (auto& [a, b] : operands) {
        a = rng.u32();
        b = rng.u32();
    }

    EventSim whole(alu.netlist, timing, op);
    whole.set_input("a", operands[0].first);
    whole.set_input("b", operands[0].second);
    whole.initialize();
    std::vector<std::vector<double>> arrivals;
    std::vector<std::uint64_t> events = {0};
    for (std::size_t cycle = 1; cycle <= kCycles; ++cycle) {
        whole.set_input("a", operands[cycle].first);
        whole.set_input("b", operands[cycle].second);
        arrivals.push_back(whole.settle());
        events.push_back(whole.total_events());
    }

    for (const std::size_t k : {std::size_t{1}, std::size_t{7}, std::size_t{23},
                                kCycles - 1}) {
        SCOPED_TRACE("restart after cycle " + std::to_string(k));
        EventSim fresh(alu.netlist, timing, op);
        const EventSim::BusHandle a = fresh.input_handle("a");
        const EventSim::BusHandle b = fresh.input_handle("b");
        fresh.set_input(a, operands[k].first);
        fresh.set_input(b, operands[k].second);
        fresh.initialize();
        for (std::size_t cycle = k + 1; cycle <= kCycles; ++cycle) {
            fresh.set_input(a, operands[cycle].first);
            fresh.set_input(b, operands[cycle].second);
            ASSERT_EQ(fresh.settle(), arrivals[cycle - 1]) << "cycle " << cycle;
            ASSERT_EQ(fresh.total_events(), events[cycle] - events[k])
                << "cycle " << cycle;
        }
        for (std::size_t bit = 0; bit < fresh.watch_width(); ++bit)
            EXPECT_EQ(fresh.watched_value(bit), whole.watched_value(bit));
    }
}

TEST(EventSim, SingleInverterTiming) {
    Netlist n;
    const NetId a = n.add_input("a", 0);
    n.set_output("y", 0, n.inv(a));
    const TimingLib lib = flat_lib(0.0);
    const InstanceTiming timing(n, lib);
    EventSim sim(n, timing, {});
    sim.set_input("a", 0);
    sim.initialize();
    sim.set_input("a", 1);
    const auto& arrivals = sim.settle();
    // 0 -> 1 on input means the inverter output falls.
    EXPECT_DOUBLE_EQ(arrivals[0], lib.intrinsic_fall_ps(CellType::Inv));
    sim.set_input("a", 0);
    const auto& arrivals2 = sim.settle();
    EXPECT_DOUBLE_EQ(arrivals2[0], lib.intrinsic_rise_ps(CellType::Inv));
}

TEST(EventSim, ClkToQShiftsArrivals) {
    Netlist n;
    const NetId a = n.add_input("a", 0);
    n.set_output("y", 0, n.inv(a));
    const TimingLib lib = flat_lib(40.0);
    const InstanceTiming timing(n, lib);
    EventSim sim(n, timing, {});
    sim.set_input("a", 0);
    sim.initialize();
    sim.set_input("a", 1);
    EXPECT_DOUBLE_EQ(sim.settle()[0],
                     40.0 + lib.intrinsic_fall_ps(CellType::Inv));
}

TEST(EventSim, GlitchProducesLateArrival) {
    // y = a XOR delayed(a): a change produces a pulse whose trailing edge
    // arrives after the reconvergent path settles.
    Netlist n;
    const NetId a = n.add_input("a", 0);
    NetId delayed = a;
    for (int i = 0; i < 4; ++i) delayed = n.inv(n.inv(delayed));
    n.set_output("y", 0, n.xor2(a, delayed));
    const TimingLib lib = flat_lib(0.0);
    const InstanceTiming timing(n, lib);
    EventSim sim(n, timing, {});
    sim.set_input("a", 0);
    sim.initialize();
    sim.set_input("a", 1);
    const auto& arrivals = sim.settle();
    // The final value is 0 (a==delayed(a)) but the last transition lands
    // after the 8-inverter chain plus the xor.
    EXPECT_FALSE(sim.watched_value(0));
    const double chain =
        4 * (lib.intrinsic_rise_ps(CellType::Inv) +
             lib.intrinsic_fall_ps(CellType::Inv));
    EXPECT_GT(arrivals[0], chain);
}

TEST(EventSim, InertialFilteringSuppressesShortPulse) {
    // A one-inverter skew feeding an AND whose delay exceeds the pulse
    // width: the pulse must be swallowed (no event on y).
    Netlist n;
    const NetId a = n.add_input("a", 0);
    const NetId na = n.inv(a);
    // and2(a, inv(a)): 0 except during the short overlap pulse.
    n.set_output("y", 0, n.and2(a, na));
    TimingLibConfig config;
    config.process_sigma = 0.0;
    config.load_per_fanout = 0.0;
    config.clk_to_q_ps = 0.0;
    const TimingLib lib(config);
    const InstanceTiming timing(n, lib);
    // Pulse width = inv delay (~7-9 ps) < and2 delay (~16-18 ps): filtered.
    EventSim sim(n, timing, {});
    sim.set_input("a", 0);
    sim.initialize();
    sim.set_input("a", 1);
    const auto& arrivals = sim.settle();
    EXPECT_EQ(arrivals[0], 0.0);
    EXPECT_FALSE(sim.watched_value(0));
}

TEST(EventSim, PrunedConeExcludesOtherUnits) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    EventSim add_sim(alu.netlist, timing, {{"op", Alu::op_code(ExClass::Add)}});
    EventSim mul_sim(alu.netlist, timing, {{"op", Alu::op_code(ExClass::Mul)}});
    EXPECT_LT(add_sim.active_cell_count(), mul_sim.active_cell_count() / 2);
}

TEST(EventSim, UnknownInputBusThrows) {
    Netlist n;
    n.set_output("y", 0, n.inv(n.add_input("a", 0)));
    const TimingLib lib;
    const InstanceTiming timing(n, lib);
    EventSim sim(n, timing, {});
    EXPECT_THROW(sim.set_input("nope", 1), std::invalid_argument);
    EXPECT_THROW(sim.input_handle("nope"), std::invalid_argument);
}

TEST(EventSim, FixedBusNotSettable) {
    const Alu alu = build_alu();
    const TimingLib lib;
    const InstanceTiming timing(alu.netlist, lib);
    EventSim sim(alu.netlist, timing, {{"op", 0}});
    EXPECT_THROW(sim.set_input("op", 1), std::invalid_argument);
    EXPECT_THROW(sim.input_handle("op"), std::invalid_argument);
}

}  // namespace
}  // namespace sfi
