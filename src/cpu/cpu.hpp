// Cycle-accurate instruction-set simulator of the case-study core:
// a 32-bit OpenRISC-style 6-stage in-order pipeline (IF1/IF2/ID/EX/MEM/WB)
// with single-cycle multiplication and single-cycle SRAMs (paper §2.1/2.2).
//
// Execution is functional (one instruction retired per step) with an exact
// pipeline *timing* model layered on top: load-use hazards stall one
// cycle, taken branches flush the three fetch/decode stages. This yields
// the same per-cycle EX-stage occupancy as a stage-by-stage simulation —
// which is all the fault-injection models observe — at interpreter speed.
//
// Fault injection (paper §2.2): an ExFaultHook receives one callback per
// simulated clock cycle plus one callback per ALU operation that computes
// in the EX stage while the benchmark kernel is active. The hook may
// corrupt the 32-bit EX result; corrupted compare results propagate into
// the flag via the same downstream logic as the hardware
// (compare_flag_from_diff), so wrong branching behaviour emerges naturally.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>

#include "cpu/interp.hpp"
#include "cpu/memory.hpp"
#include "isa/isa.hpp"

namespace sfi {

namespace perf {
class PhaseProfile;  // perf/perf.hpp
}

/// One EX-stage ALU computation offered to the fault-injection hook.
struct ExEvent {
    Op op = Op::NOP;
    ExClass cls = ExClass::None;
    std::uint32_t operand_a = 0;
    std::uint32_t operand_b = 0;   ///< post-mux operand (immediate already selected)
    std::uint32_t prev_result = 0; ///< value latched at the ALU endpoints last time
    std::uint64_t cycle = 0;       ///< absolute cycle index of the EX computation
    std::uint32_t pc = 0;          ///< address of the computing instruction
    std::uint32_t window = 0;      ///< FI-window ordinal (Cpu::fi_windows())
};

/// Receives per-cycle and per-ALU-operation callbacks from the ISS.
class ExFaultHook {
public:
    virtual ~ExFaultHook() = default;

    /// Called once per simulated clock cycle (including stall/flush
    /// bubbles). `fi_active` is true inside the benchmark kernel window.
    virtual void on_cycle(bool fi_active) = 0;

    /// Batched form: must behave exactly like calling on_cycle(fi_active)
    /// `n` times, which is what the default does. Hooks whose per-cycle
    /// behavior is a pure accumulation (FaultModel, the golden-run
    /// counter) override it with O(1) arithmetic so the ISS can hand over
    /// a whole stall/flush group — or, in the threaded interpreter, an
    /// entire run's kernel window — in one virtual call.
    virtual void on_cycles(std::uint64_t n, bool fi_active) {
        for (std::uint64_t i = 0; i < n; ++i) on_cycle(fi_active);
    }

    /// Called for every ALU-class instruction computing in EX during an
    /// FI-active cycle. Returns the (possibly corrupted) 32-bit result.
    virtual std::uint32_t on_ex_result(const ExEvent& ev,
                                       std::uint32_t correct) = 0;

protected:
    ExFaultHook() = default;
    // Copyable only through derived classes (FaultModel::clone()).
    ExFaultHook(const ExFaultHook&) = default;
    ExFaultHook& operator=(const ExFaultHook&) = default;
};

/// Why a run stopped.
enum class StopReason : std::uint8_t {
    Halted,        ///< l.nop 0x1 executed
    Watchdog,      ///< cycle limit exceeded (infinite-loop safeguard)
    SelfLoop,      ///< obvious fatal error: unconditional jump-to-self
    MemFault,      ///< out-of-range / misaligned data access
    FetchFault,    ///< PC left the memory image or was misaligned
    IllegalInstr,  ///< undecodable instruction word reached EX
};

const char* stop_reason_name(StopReason reason);

struct RunResult {
    StopReason stop = StopReason::Halted;
    std::uint32_t exit_code = 0;      ///< r3 at l.nop 0x1
    std::uint64_t cycles = 0;         ///< total simulated clock cycles
    std::uint64_t instructions = 0;   ///< retired instructions
    std::uint64_t kernel_cycles = 0;  ///< cycles inside the FI window
    std::uint64_t kernel_instructions = 0;
    std::uint32_t fault_addr = 0;     ///< for MemFault / FetchFault

    bool finished() const { return stop == StopReason::Halted; }
    double ipc() const {
        return cycles ? static_cast<double>(instructions) /
                            static_cast<double>(cycles)
                      : 0.0;
    }
};

/// Pipeline timing parameters (defaults model the case-study core).
struct PipelineTiming {
    unsigned load_use_stall = 1;   ///< bubbles between a load and a dependent use
    unsigned taken_branch_flush = 3;  ///< bubbles after a taken branch / jump
};

class Cpu {
public:
    explicit Cpu(Memory& memory, PipelineTiming timing = {});
    ~Cpu();  // out-of-line: InterpState is incomplete here

    /// Resets architectural state and loads `program` (entry -> PC).
    void reset(const Program& program);

    /// Installs / removes the fault-injection hook (may be null).
    void set_fault_hook(ExFaultHook* hook) { hook_ = hook; }

    /// Eagerly lowers every word of `program`'s sections into the
    /// micro-op stream (a no-op when the stream already matches the
    /// program's content hash). Returns the number of words lowered — the
    /// Phase::Decode item count. Safe to call before reset(): the stream
    /// is not trusted until a reset synchronizes memory with the program
    /// image.
    std::size_t prime_decode(const Program& program);

    /// Attaches a perf profile (null detaches); threaded runs charge lazy
    /// micro-op lowering to Phase::Decode. Dispatch-thread only — give
    /// each worker Cpu its own profile (or none), never a shared one.
    void set_perf_profile(perf::PhaseProfile* profile) { profile_ = profile; }

    /// Runs until halt / fault / watchdog on the threaded interpreter
    /// (src/cpu/interp.hpp). `max_cycles` bounds total simulated cycles
    /// (0 means the built-in default of 100M). While a trace callback is
    /// installed it runs run_reference() instead, the one loop that
    /// reports every instruction.
    RunResult run(std::uint64_t max_cycles = 0);

    /// The reference semantics: the same run as run(), one step() per
    /// instruction. Bit-identical to run() in every observable
    /// (tests/cpu/test_differential.cpp); it serves tracing and tests.
    RunResult run_reference(std::uint64_t max_cycles = 0);

    /// Executes exactly one instruction, decoded straight from memory
    /// (so self-modifying stores are visible to the next fetch); returns
    /// the stop reason if the program terminated on this step.
    std::optional<StopReason> step();

    // Architectural state access (tests, benchmark result extraction).
    std::uint32_t reg(std::uint8_t index) const { return regs_[index]; }
    void set_reg(std::uint8_t index, std::uint32_t value);
    std::uint32_t pc() const { return pc_; }
    void set_pc(std::uint32_t pc) { pc_ = pc; }
    bool flag() const { return flag_; }
    std::uint64_t cycles() const { return cycles_; }
    std::uint64_t instructions() const { return instructions_; }
    bool fi_active() const { return fi_active_; }
    /// FI windows entered since reset (kernel-begin markers that actually
    /// opened a window); the ordinal stamped into ExEvent::window.
    std::uint64_t fi_windows() const { return fi_windows_; }
    Memory& memory() { return mem_; }
    const Memory& memory() const { return mem_; }

    /// Enables an instruction trace (disassembly + state) to the given
    /// callback; pass nullptr to disable.
    using TraceFn = std::function<void(std::uint32_t pc, const Instr&,
                                       const std::string& disasm)>;
    void set_trace(TraceFn fn) { trace_ = std::move(fn); }

    // Generation-stamp debug hooks for the rollover test
    // (tests/cpu/test_decode_cache.cpp): the micro-op stream marks
    // validity with a monotone stamp and must survive it wrapping to 0,
    // which no realistic run reaches — the test fast-forwards it here.
    std::uint32_t debug_interp_generation() const;  // 0: no stream yet
    void debug_set_interp_generation(std::uint32_t gen);

private:
    static constexpr std::uint64_t kDefaultMaxCycles = 100'000'000ULL;

    /// The RunResult of a run that stopped for `stop`, from the state.
    RunResult run_result(StopReason stop) const;
    void spend_cycles(std::uint64_t n);
    std::uint32_t exec_alu(const Instr& instr, std::uint32_t a, std::uint32_t b);

    // Threaded-dispatch engine (src/cpu/interp.cpp). The impl is a
    // template over the hook policy (null / clean fault model / injecting
    // fault model / generic hook) so the dispatch loop specializes away
    // hook branches; all instantiations live in interp.cpp.
    RunResult run_threaded(std::uint64_t max_cycles);
    template <typename Policy>
    RunResult run_threaded_impl(std::uint64_t max_cycles, Policy policy);
    InterpState& ensure_interp();
    void sync_interp_on_reset(const Program& program,
                              std::uint64_t program_hash);

    Memory& mem_;
    PipelineTiming timing_;
    ExFaultHook* hook_ = nullptr;
    TraceFn trace_;
    perf::PhaseProfile* profile_ = nullptr;
    std::unique_ptr<InterpState> interp_;  // lazily allocated by the first run

    std::array<std::uint32_t, 32> regs_{};
    std::uint32_t pc_ = 0;
    bool flag_ = false;
    std::uint32_t prev_ex_result_ = 0;

    std::uint64_t cycles_ = 0;
    std::uint64_t instructions_ = 0;
    std::uint64_t kernel_cycles_ = 0;
    std::uint64_t kernel_instructions_ = 0;
    bool fi_active_ = false;
    std::uint64_t fi_windows_ = 0;

    // Exit bookkeeping for the current run.
    std::uint32_t exit_code_ = 0;
    std::uint32_t fault_addr_ = 0;

    // Load-use hazard tracking: destination of a load in the previous step.
    std::uint8_t last_load_dest_ = 0;
    bool last_was_load_ = false;

    // reset() fast-path cache: the program of the previous reset, its
    // content hash (so the threaded stream's coherence check skips
    // re-hashing every trial) and an identity signature over the entry
    // point and every section's (addr, size, data pointer). A repeat
    // reset of the same program restores the checkpointed memory image
    // instead of clear+load. A rebuilt Program fails the signature (fresh
    // byte buffers give fresh data pointers) even at a reused object
    // address; the one uncovered case is overwriting section bytes in
    // place without reallocating — contract: don't mutate a Program's
    // bytes between resets (no in-tree caller does).
    std::uint64_t reset_identity_sig(const Program& program) const;
    const Program* reset_program_ = nullptr;
    std::uint64_t reset_program_hash_ = 0;
    std::uint64_t reset_program_sig_ = 0;

    // Inline: sits on the store path of both run() and step(), where an
    // out-of-line call per store is measurable.
    void invalidate_decode(std::uint32_t addr) {
        if (!interp_) return;
        InterpState& state = *interp_;
        // Only words lowered at the *current* generation can hold a
        // trusted micro-op. Data stores — the overwhelming majority — land
        // outside that live span and skip the array entirely, instead of
        // dirtying a random cache line of a multi-MB vector on every store.
        // (An empty span has lo > hi, so the guarded indexing is always in
        // bounds.)
        const std::uint32_t word = addr / 4;
        if (word >= state.live_lo && word <= state.live_hi)
            state.uops[word].gen = 0;
        // Track the store for the stream's coherence protocol:
        // expected_write_gen mirrors the one write-generation tick this
        // store produced, and store_seen arms the relower_risk check (a
        // word lowered from post-store content must not survive reset).
        state.store_seen = true;
        ++state.expected_write_gen;
    }
};

}  // namespace sfi
