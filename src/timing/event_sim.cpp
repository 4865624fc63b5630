#include "timing/event_sim.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

#include "timing/const_prop.hpp"

namespace sfi {

EventSim::EventSim(const Netlist& netlist, const InstanceTiming& timing,
                   std::map<std::string, std::uint64_t> fixed_inputs,
                   std::string watch_bus, EventSimConfig config) {
    const std::size_t count = netlist.cell_count();
    const NetId sentinel = static_cast<NetId>(count);
    gates_.resize(count);
    delay_fs_.resize(count);
    for (NetId id = 0; id < count; ++id) {
        const Cell& cell = netlist.cell(id);
        Gate& gate = gates_[id];
        for (std::size_t pin = 0; pin < 3; ++pin)
            gate.fanin[pin] = cell.fanin[pin] == kNoNet ? sentinel : cell.fanin[pin];
        gate.table = 0;
        for (unsigned row = 0; row < 8; ++row)
            if (cell_eval(cell.type, row & 1u, row & 2u, row & 4u))
                gate.table |= static_cast<std::uint8_t>(1u << row);
        gate.input = cell.type == CellType::Input;
        delay_fs_[id] = {std::llround(timing.fall_ps(id) * 1000.0),
                         std::llround(timing.rise_ps(id) * 1000.0)};
    }
    nets_.assign(count + 1, NetState{0, 0, 0, 0});
    clk_to_q_fs_ = std::llround(
        (config.clk_to_q_ps < 0.0 ? timing.clk_to_q_ps() : config.clk_to_q_ps) *
        1000.0);

    // Constant-propagate the fixed inputs; only variable cells are active.
    const auto constants = propagate_constants(netlist, fixed_inputs);
    std::vector<std::uint8_t> is_active(count, 0);
    for (NetId id = 0; id < count; ++id)
        is_active[id] = constants[id] == NetConst::Variable;
    active_cells_ = static_cast<std::size_t>(
        std::count(is_active.begin(), is_active.end(), std::uint8_t{1}));
    // One live pending event per active cell is the steady-state load
    // (cancelled entries linger until popped, so the true peak can exceed
    // it); reserving that much up front makes settle() growth-free in the
    // common case.
    heap_.reserve(active_cells_ + 1);

    // CSR fanout adjacency restricted to active sinks. Edge order (sinks
    // in id order) fixes the order propagate() schedules events in.
    std::vector<std::uint32_t> degree(count, 0);
    for (NetId id = 0; id < count; ++id) {
        if (!is_active[id]) continue;
        const Cell& cell = netlist.cell(id);
        const unsigned n = cell_fanin_count(cell.type);
        for (unsigned i = 0; i < n; ++i) ++degree[cell.fanin[i]];
    }
    fanout_offset_.assign(count + 1, 0);
    for (NetId id = 0; id < count; ++id)
        fanout_offset_[id + 1] = fanout_offset_[id] + degree[id];
    fanout_edges_.resize(fanout_offset_[count]);
    std::vector<std::uint32_t> cursor(fanout_offset_.begin(),
                                      fanout_offset_.end() - 1);
    for (NetId id = 0; id < count; ++id) {
        if (!is_active[id]) continue;
        const Cell& cell = netlist.cell(id);
        const unsigned n = cell_fanin_count(cell.type);
        for (unsigned i = 0; i < n; ++i)
            fanout_edges_[cursor[cell.fanin[i]]++] = id;
    }

    // Watch list.
    watch_nets_ = netlist.output_bus(watch_bus);
    watch_index_.assign(count, -1);
    for (std::size_t bit = 0; bit < watch_nets_.size(); ++bit)
        if (watch_nets_[bit] != kNoNet)
            watch_index_[watch_nets_[bit]] = static_cast<std::int32_t>(bit);
    arrival_ps_.assign(watch_nets_.size(), 0.0);

    // Split the input buses into fixed and variable (everything else).
    for (const auto& [bus, value] : fixed_inputs)
        fixed_.push_back({bus, netlist.input_bus(bus), value});
    for (const auto& [bus, nets] : netlist.input_buses())
        if (!fixed_inputs.count(bus)) inputs_.push_back({bus, nets, 0});
}

EventSim::BusHandle EventSim::input_handle(const std::string& bus) const {
    for (BusHandle handle = 0; handle < inputs_.size(); ++handle)
        if (inputs_[handle].name == bus) return handle;
    throw std::invalid_argument("EventSim: unknown or fixed input bus " + bus);
}

std::uint8_t EventSim::eval(const Gate& gate) const {
    const unsigned row = nets_[gate.fanin[0]].value |
                         nets_[gate.fanin[1]].value << 1 |
                         nets_[gate.fanin[2]].value << 2;
    return (gate.table >> row) & 1u;
}

void EventSim::initialize() {
    // Re-establish the steady state in the persistent net buffer — no
    // per-call allocation, so re-initializing a simulator (chunked DTA,
    // multi-seed characterization) reuses the settle buffers.
    std::fill(nets_.begin(), nets_.end(), NetState{0, 0, 0, 0});
    for (const auto* buses : {&fixed_, &inputs_})
        for (const InputBus& bus : *buses)
            for (std::size_t bit = 0; bit < bus.nets.size(); ++bit)
                if (bus.nets[bit] != kNoNet)
                    nets_[bus.nets[bit]].value = (bus.value >> bit) & 1u;
    for (NetId id = 0; id < gates_.size(); ++id)
        if (!gates_[id].input) nets_[id].value = eval(gates_[id]);
    heap_.clear();
    initialized_ = true;
}

void EventSim::schedule(NetId net, std::uint8_t value, std::int64_t time_fs) {
    NetState& state = nets_[net];
    ++state.seq;
    state.pending = 1;
    state.pending_value = value;
    heap_.push_back(Event{time_fs, net, state.seq});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
}

void EventSim::propagate(NetId net, std::int64_t now_fs) {
    for (std::uint32_t e = fanout_offset_[net]; e < fanout_offset_[net + 1]; ++e) {
        const NetId id = fanout_edges_[e];
        const std::uint8_t target = eval(gates_[id]);
        NetState& state = nets_[id];
        const std::uint8_t effective =
            state.pending ? state.pending_value : state.value;
        if (target == effective) continue;
        if (target == state.value) {
            // Inertial cancellation: the pending pulse never happens.
            ++state.seq;
            state.pending = 0;
            continue;
        }
        schedule(id, target, now_fs + delay_fs_[id][target]);
    }
}

const std::vector<double>& EventSim::settle() {
    assert(initialized_ && "EventSim::initialize() must be called first");
    std::fill(arrival_ps_.begin(), arrival_ps_.end(), 0.0);
    for (const InputBus& bus : inputs_)
        for (std::size_t bit = 0; bit < bus.nets.size(); ++bit) {
            const NetId net = bus.nets[bit];
            if (net == kNoNet) continue;
            const std::uint8_t value = (bus.value >> bit) & 1u;
            if (nets_[net].value != value) schedule(net, value, clk_to_q_fs_);
        }
    while (!heap_.empty()) {
        std::pop_heap(heap_.begin(), heap_.end(), Later{});
        const Event ev = heap_.back();
        heap_.pop_back();
        NetState& state = nets_[ev.net];
        if (ev.seq != state.seq) continue;  // cancelled
        state.pending = 0;
        if (state.value == state.pending_value) continue;
        state.value = state.pending_value;
        ++total_events_;
        const std::int32_t w = watch_index_[ev.net];
        if (w >= 0)
            arrival_ps_[static_cast<std::size_t>(w)] =
                static_cast<double>(ev.time_fs) / 1000.0;
        propagate(ev.net, ev.time_fs);
    }
    return arrival_ps_;
}

bool EventSim::watched_value(std::size_t bit) const {
    const NetId net = watch_nets_.at(bit);
    return net != kNoNet && nets_[net].value;
}

}  // namespace sfi
