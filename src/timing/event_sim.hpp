// Event-driven gate-level timing simulation with inertial delays.
//
// This is the "dynamic timing analysis" engine (paper §3.4, following
// [14]): for each simulated cycle the operand inputs switch from their
// previous values to new values at the clock edge (plus clk->q), events
// propagate through the netlist with per-cell rise/fall delays, and the
// *last* transition time observed at each endpoint is its data arrival
// time for that cycle. Glitches propagate (inertial filtering only
// suppresses pulses shorter than a cell's own delay, as real gates do).
//
// Inputs fixed at construction (the ALU "op" bus) are constant-propagated
// first; only the variable cone is simulated, so characterizing e.g. the
// add instruction never touches the multiplier array.
//
// Restart invariant: settle() runs until the event queue is empty, so
// after it returns nothing is pending and every net equals the functional
// evaluation of the current inputs. A fresh simulator initialize()d at
// those inputs is therefore in the same state (sequence numbers aside,
// which only ever compare for equality), and reproduces every later
// cycle bit for bit. Chunked DTA (dta.hpp) rests on this.
#pragma once

#include <array>
#include <cassert>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "netlist/netlist.hpp"
#include "timing/timing_lib.hpp"

namespace sfi {

struct EventSimConfig {
    /// Launch delay of the operand registers; negative = use the value
    /// annotated in the timing library (the default, keeps STA and event
    /// simulation in the same time reference).
    double clk_to_q_ps = -1.0;
};

class EventSim {
public:
    /// Pre-resolved handle of a variable input bus (see input_handle()).
    using BusHandle = std::size_t;

    /// `fixed_inputs` pins buses for the lifetime of the simulator.
    /// `watch_bus` names the output bus whose arrival times are recorded.
    EventSim(const Netlist& netlist, const InstanceTiming& timing,
             std::map<std::string, std::uint64_t> fixed_inputs,
             std::string watch_bus = "y", EventSimConfig config = {});

    /// Resolves a variable input bus name once, for set_input(BusHandle)
    /// in per-cycle loops. Throws std::invalid_argument for unknown or
    /// fixed buses.
    BusHandle input_handle(const std::string& bus) const;

    /// Stages a new value for a variable input bus (applied by settle()).
    void set_input(BusHandle bus, std::uint64_t value) {
        assert(bus < inputs_.size() && "handle from another netlist");
        inputs_[bus].value = value;
    }
    void set_input(const std::string& bus, std::uint64_t value) {
        set_input(input_handle(bus), value);
    }

    /// Establishes a known steady state from the staged inputs without
    /// timing (functional evaluation). Call once before the first settle();
    /// calling it again restarts from the staged inputs.
    void initialize();

    /// Simulates one cycle: staged input changes switch at clk->q, events
    /// propagate to quiescence. Returns per-watched-bit arrival times in
    /// ps (0.0 for bits that did not toggle, i.e. cannot mis-capture).
    const std::vector<double>& settle();

    /// Current logic value of watched bit `bit`.
    bool watched_value(std::size_t bit) const;

    std::size_t active_cell_count() const { return active_cells_; }
    std::uint64_t total_events() const { return total_events_; }
    std::size_t watch_width() const { return arrival_ps_.size(); }

private:
    // The event carries no value: every (re)schedule or cancellation of a
    // net bumps its sequence number, so a live event (seq matches) always
    // targets the net's pending value.
    struct Event {
        std::int64_t time_fs;
        NetId net;
        std::uint32_t seq;
    };
    // Min-heap on time only. Equal-time events pop in the order the heap
    // layout dictates, which inertial cancellation makes observable, so
    // the push/pop sequence and this comparator are part of the results.
    struct Later {
        bool operator()(const Event& x, const Event& y) const {
            return x.time_fs > y.time_fs;
        }
    };

    // Flattened cell: unused pins point at the sentinel net (always 0),
    // and the function is an 8-entry truth table indexed by
    // in0 | in1 << 1 | in2 << 2. Input cells are set, never evaluated.
    struct Gate {
        std::array<NetId, 3> fanin;
        std::uint8_t table;
        bool input;
    };
    struct NetState {
        std::uint32_t seq;
        std::uint8_t value;
        std::uint8_t pending;
        std::uint8_t pending_value;
    };
    struct InputBus {
        std::string name;
        std::vector<NetId> nets;  // bit order; kNoNet for absent bits
        std::uint64_t value;
    };

    std::uint8_t eval(const Gate& gate) const;  // from the current net values
    void schedule(NetId net, std::uint8_t value, std::int64_t time_fs);
    void propagate(NetId net, std::int64_t now_fs);

    std::vector<Gate> gates_;
    std::vector<NetState> nets_;  // cell_count() + 1: the last is the sentinel
    std::vector<std::array<std::int64_t, 2>> delay_fs_;  // {fall, rise}

    // Active-cone fanout adjacency (CSR layout).
    std::vector<std::uint32_t> fanout_offset_;
    std::vector<NetId> fanout_edges_;

    std::vector<Event> heap_;  // std::push_heap/pop_heap min-heap
    std::vector<std::int32_t> watch_index_;
    std::vector<double> arrival_ps_;
    std::vector<NetId> watch_nets_;

    // Variable input buses (staged values) in bus-name order, which is
    // the order settle() schedules their changes, and the fixed buses.
    std::vector<InputBus> inputs_;
    std::vector<InputBus> fixed_;

    std::int64_t clk_to_q_fs_;
    std::size_t active_cells_ = 0;
    std::uint64_t total_events_ = 0;
    bool initialized_ = false;
};

}  // namespace sfi
