// Decode-once threaded-dispatch interpreter for the ISS (ROADMAP:
// "threaded-dispatch interpreter" — the next hardware-limit step after the
// zero-fault trial fast path made faulting trials ~100x cheaper than full
// simulation, leaving golden runs and clean-sim trials as the wall-clock
// floor of every campaign).
//
// The idea (classic bytecode-VM technique): lower each fetched memory word
// ONCE into a dense micro-op — operand register indices pre-resolved,
// immediates sign-extended, branch targets pre-computed as absolute byte
// PCs, the r0 write sink pre-applied — and run trials over that stream via
// a kernel table (computed goto under GCC/Clang, a switch elsewhere)
// instead of re-walking decode() + op_info() per retired instruction.
//
// Equality contract: Cpu::run() is bit-identical to the per-instruction
// reference loop Cpu::run_reference() in everything observable —
// architectural state, RunResult (cycles included), FiStats, fault-
// injection hook call sequences, and therefore every PointSummary, CSV and
// campaign store key. tests/cpu/test_differential.cpp fuzzes that contract
// with thousands of generated programs per fault model and runs every
// application kernel through both.
//
// The micro-op stream persists across Cpu::reset() with the *same*
// program (content-hashed), so a Monte-Carlo operating point pays decode
// once, not once per trial. Self-modifying stores invalidate per word and
// additionally flag the stream for wholesale invalidation at the next
// reset when a word was re-lowered after a store (the re-lowered entry
// describes the modified byte content, which reset reverts).
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "isa/isa.hpp"

namespace sfi {

struct Program;  // isa/assembler.hpp

/// Micro-op kinds: one kernel per kind, in UopKind order. This list
/// generates both UopKind and the interpreter's computed-goto table.
///   Illegal    the word does not decode; must stay kind 0, because fresh
///              slots are zero-initialized
///   Nop        plain l.nop and l.nop 0x2 (report)
///   *SelfLoop  l.j/l.bf/l.bnf with offset 0, a statically known
///              self-loop, lowered to a dedicated stop kernel
///   ALU kinds  one per ExClass and operand form, so each kernel body is
///              a single expression; they follow the ExClass order from
///              Add, which lower_uop relies on (static_asserts in
///              interp.cpp)
///   Cmp*       generic over the ten l.sf* predicates; MicroOp::aux
///              carries the predicate for compare_flag_from_diff_kind
#define SFI_FORALL_UOP_KINDS(X)                                        \
    X(Illegal) X(Nop) X(NopExit) X(NopKernelBegin) X(NopKernelEnd)     \
    X(Movhi) X(J) X(JSelfLoop) X(Jal) X(Jr) X(Jalr)                    \
    X(Bf) X(BfSelfLoop) X(Bnf) X(BnfSelfLoop)                          \
    X(Lwz) X(Lbz) X(Lhz) X(Sw) X(Sb) X(Sh)                             \
    X(AddReg) X(SubReg) X(AndReg) X(OrReg) X(XorReg)                   \
    X(SllReg) X(SrlReg) X(SraReg) X(MulReg)                            \
    X(AddImm) X(SubImm) X(AndImm) X(OrImm) X(XorImm)                   \
    X(SllImm) X(SrlImm) X(SraImm) X(MulImm)                            \
    X(CmpReg) X(CmpImm)

enum class UopKind : std::uint8_t {
#define SFI_UOP_ENUM(name) name,
    SFI_FORALL_UOP_KINDS(SFI_UOP_ENUM)
#undef SFI_UOP_ENUM
    kCount,
};

inline constexpr std::size_t kUopKindCount =
    static_cast<std::size_t>(UopKind::kCount);

/// Hazard metadata bits (MicroOp::flags): which register operands the
/// instruction reads, pre-resolved from OpInfo so the load-use check in
/// the dispatch loop is two ANDs instead of an op_info() lookup.
inline constexpr std::uint8_t kUopReadsRa = 1u << 0;
inline constexpr std::uint8_t kUopReadsRb = 1u << 1;

/// Index of the r0 write sink in the interpreter's 33-slot register file:
/// writes with rd == 0 are re-pointed here at lowering time, so kernels
/// store unconditionally and slot 0 stays hardwired to zero.
inline constexpr std::uint8_t kUopRegSink = 32;

/// One lowered instruction word. Fixed 20-byte layout, one per memory
/// word; valid iff gen == InterpState::gen.
struct MicroOp {
    UopKind kind = UopKind::Illegal;
    std::uint8_t rd = 0;     ///< destination, r0 remapped to kUopRegSink
    std::uint8_t ra = 0;     ///< raw source index (0..31)
    std::uint8_t rb = 0;     ///< raw source index (0..31)
    std::uint8_t flags = 0;  ///< kUopReadsRa | kUopReadsRb
    Op op = Op::NOP;         ///< original opcode (ExEvent)
    ExClass cls = ExClass::None;  ///< timing class tag (ExEvent)
    std::uint8_t aux = 0;    ///< CmpKind for compare kinds (pre-resolved)
    std::int32_t imm = 0;         ///< sign-extended immediate / b operand
    std::uint32_t target = 0;     ///< absolute branch target (byte PC)
    std::uint32_t gen = 0;        ///< validity stamp (0 = never valid)
};

/// Lowers one decoded instruction at byte address `pc` into `out`
/// (everything except the validity stamp). Exposed for the lowering-table
/// unit tests; the interpreter calls it through Cpu's lazy/prime paths.
void lower_uop(const Instr& instr, std::uint32_t pc, MicroOp& out);

/// Per-Cpu state of the threaded interpreter: the micro-op stream plus
/// the bookkeeping that decides when it may persist across resets.
struct InterpState {
    std::vector<MicroOp> uops;  ///< one per memory word

    /// Entries are valid iff entry.gen == gen. Starts at 1 (0 is the
    /// permanent "invalid" stamp fresh entries carry); bump_gen() handles
    /// wraparound by wiping every entry back to 0 — exercised by
    /// tests/cpu/test_decode_cache.cpp via the Cpu debug hooks.
    std::uint32_t gen = 1;

    /// Content hash (FNV-1a over entry point + sections) of the program
    /// the stream was lowered against; 0 means "unknown" and forces a
    /// wholesale invalidation at the next reset.
    std::uint64_t program_hash = 0;

    /// True once reset() has synchronized memory with the hashed program;
    /// false after prime_decode() on a not-yet-reset Cpu, which makes
    /// run_threaded() distrust the stream until a reset happens.
    bool synced = false;

    /// Memory::write_generation() value expected if every write since the
    /// last sync went through this Cpu (reset + one bump per executed
    /// store). A mismatch at run entry means some external writer touched
    /// memory behind our back: the stream is invalidated wholesale, which
    /// restores the reference loop's semantics for that (test-only)
    /// pattern.
    std::uint64_t expected_write_gen = 0;

    /// A store executed since the last reset. Only relevant combined with
    /// re-lowering: see relower_risk.
    bool store_seen = false;

    /// A word was lowered *after* a store in the current reset epoch. Such
    /// an entry describes post-store byte content; reset() reverts memory
    /// to the pristine program image, so the stream must not survive it.
    bool relower_risk = false;

    /// Inclusive word span holding micro-ops stamped at the current gen
    /// (empty when live_lo > live_hi). The store path consults it to skip
    /// the uop array entirely for data stores — see
    /// Cpu::invalidate_decode().
    std::uint32_t live_lo = ~std::uint32_t{0};
    std::uint32_t live_hi = 0;

    void note_lowered(std::uint32_t word) {
        if (word < live_lo) live_lo = word;
        if (word > live_hi) live_hi = word;
    }

    void bump_gen() {
        if (++gen == 0) {
            for (MicroOp& uop : uops) uop.gen = 0;
            gen = 1;
        }
        live_lo = ~std::uint32_t{0};
        live_hi = 0;
    }
};

/// FNV-1a content hash of a program image (entry + section layout +
/// bytes); the identity test that lets the micro-op stream survive
/// Cpu::reset() with the same program. Never returns 0 (the "unknown"
/// sentinel in InterpState::program_hash).
std::uint64_t hash_program(const Program& program);

}  // namespace sfi
