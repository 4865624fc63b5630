// ORBIS32-subset instruction set used by the cycle-accurate ISS.
//
// The subset covers everything the four paper benchmarks need: integer
// ALU (add/sub/logic/shift/mul, register and immediate forms), set-flag
// compares, conditional/unconditional branches, loads/stores and l.nop
// control codes. Encodings follow the OpenRISC 1000 architecture manual
// (ORBIS32) so that binaries round-trip through encoder and decoder.
//
// Deviation from ORBIS32 documented in DESIGN.md: branches have NO delay
// slot (mor1kx "no-delay" variant); this affects cycle counts only, not
// fault-injection behaviour. Full subset reference: docs/ISA.md.
#pragma once

#include <array>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

namespace sfi {

/// Functional unit exercised in the EX stage. This is the granularity at
/// which dynamic timing analysis conditions the arrival-time statistics
/// (paper §3.4: "characterization is performed independently for different
/// instructions, even if they affect the same pipeline stage").
enum class ExClass : std::uint8_t {
    None,   ///< no EX-stage ALU activity (branches, loads, stores, nop)
    Add,    ///< adder, A + B
    Sub,    ///< adder in subtract mode, A - B
    And, Or, Xor,
    Sll, Srl, Sra,
    Mul,    ///< 32x32 -> low-32 multiplier
    Cmp,    ///< set-flag compares (subtract path + flag logic)
    kCount
};

constexpr std::size_t kExClassCount = static_cast<std::size_t>(ExClass::kCount);

/// Operand and encoding format. It fixes where the operand fields sit in
/// the word and how the instruction is written in assembler syntax, so
/// encode, decode, disassemble and the assembler switch on the format
/// instead of on the opcode.
enum class Format : std::uint8_t {
    N26,         ///< l.j N: 26-bit word offset in [25:0]
    JumpReg,     ///< l.jr rB
    Nop,         ///< l.nop K: [25:24] = 01, K in [15:0]
    Movhi,       ///< l.movhi rD,K: bit 16 = 0 (1 is l.macrc, unsupported)
    Load,        ///< l.lwz rD,I(rA)
    Store,       ///< l.sw I(rA),rB: I split across [25:21] and [10:0]
    AluReg,      ///< l.add rD,rA,rB: group 0x38, sub-op in [9:8], [7:6], [3:0]
    AluImm,      ///< l.addi rD,rA,I
    ShiftImm,    ///< l.slli rD,rA,L: group 0x2e, kind in [7:6], L in [5:0]
    SetFlagReg,  ///< l.sfeq rA,rB: condition in [25:21]
    SetFlagImm,  ///< l.sfeqi rA,I: condition in [25:21]
};

/// How an immediate is range-checked on encode and extended on decode.
enum class ImmKind : std::uint8_t {
    None,        ///< no immediate operand
    Signed16,    ///< sign-extended 16-bit
    Unsigned16,  ///< zero-extended 16-bit
    Shamt,       ///< shift amount, 0..31
    Offset26,    ///< signed 26-bit branch offset in instruction words
};

/// OpInfo flag bits as the opcode list spells them, in OpInfo field
/// order: writes_rd, reads_ra, reads_rb, has_imm, is_branch, is_load,
/// is_store, sets_flag, reads_flag.
namespace op_flags {
enum : std::uint16_t {
    WD = 1u << 0, RA = 1u << 1, RB = 1u << 2, IMM = 1u << 3, BR = 1u << 4,
    LD = 1u << 5, ST = 1u << 6, SETF = 1u << 7, RDF = 1u << 8,
};
}  // namespace op_flags

/// The ORBIS32 subset, one row per opcode in `Op` order. This list is the
/// only place an opcode is spelled out: `Op`, `op_info`, `cmp_kind` and
/// the encoder, decoder, disassembler and assembler all derive from it.
/// records.bin stores the raw `Op` value, so rows are appended, never
/// reordered (tests/isa/test_isa.cpp pins every value).
///
/// Columns: enum name, mnemonic, ExClass, op_flags, Format, primary
/// opcode (bits [31:26]), sub-field, ImmKind. The sub-field depends on
/// the format:
///   AluReg      0x<op2><op3><low>: bits [9:8], [7:6] and [3:0]. Bits
///               [7:6] are decoded only in the shift group (low = 0x8)
///               and are ignored elsewhere, as in mor1kx.
///   ShiftImm    shift kind, bits [7:6]
///   SetFlag*    condition code, bits [25:21]; it is the CmpKind value
///   others      0
/// Quirk kept from the ISA manual: l.xori sign-extends its immediate while
/// l.andi and l.ori zero-extend theirs.
#define SFI_FORALL_OPS(X)                                                          \
    /* Control */                                                                  \
    X(J,      "l.j",      None, BR | IMM,           N26,        0x00, 0x0,   Offset26)   \
    X(JAL,    "l.jal",    None, WD | BR | IMM,      N26,        0x01, 0x0,   Offset26)   \
    X(JR,     "l.jr",     None, RB | BR,            JumpReg,    0x11, 0x0,   None)       \
    X(JALR,   "l.jalr",   None, WD | RB | BR,       JumpReg,    0x12, 0x0,   None)       \
    X(BF,     "l.bf",     None, BR | IMM | RDF,     N26,        0x04, 0x0,   Offset26)   \
    X(BNF,    "l.bnf",    None, BR | IMM | RDF,     N26,        0x03, 0x0,   Offset26)   \
    X(NOP,    "l.nop",    None, IMM,                Nop,        0x05, 0x0,   Unsigned16) \
    X(MOVHI,  "l.movhi",  None, WD | IMM,           Movhi,      0x06, 0x0,   Unsigned16) \
    /* Memory */                                                                   \
    X(LWZ,    "l.lwz",    None, WD | RA | IMM | LD, Load,       0x21, 0x0,   Signed16)   \
    X(LBZ,    "l.lbz",    None, WD | RA | IMM | LD, Load,       0x23, 0x0,   Signed16)   \
    X(LHZ,    "l.lhz",    None, WD | RA | IMM | LD, Load,       0x25, 0x0,   Signed16)   \
    X(SW,     "l.sw",     None, RA | RB | IMM | ST, Store,      0x35, 0x0,   Signed16)   \
    X(SB,     "l.sb",     None, RA | RB | IMM | ST, Store,      0x36, 0x0,   Signed16)   \
    X(SH,     "l.sh",     None, RA | RB | IMM | ST, Store,      0x37, 0x0,   Signed16)   \
    /* ALU register-register */                                                    \
    X(ADD,    "l.add",    Add,  WD | RA | RB,       AluReg,     0x38, 0x000, None)       \
    X(SUB,    "l.sub",    Sub,  WD | RA | RB,       AluReg,     0x38, 0x002, None)       \
    X(AND,    "l.and",    And,  WD | RA | RB,       AluReg,     0x38, 0x003, None)       \
    X(OR,     "l.or",     Or,   WD | RA | RB,       AluReg,     0x38, 0x004, None)       \
    X(XOR,    "l.xor",    Xor,  WD | RA | RB,       AluReg,     0x38, 0x005, None)       \
    X(MUL,    "l.mul",    Mul,  WD | RA | RB,       AluReg,     0x38, 0x306, None)       \
    X(SLL,    "l.sll",    Sll,  WD | RA | RB,       AluReg,     0x38, 0x008, None)       \
    X(SRL,    "l.srl",    Srl,  WD | RA | RB,       AluReg,     0x38, 0x018, None)       \
    X(SRA,    "l.sra",    Sra,  WD | RA | RB,       AluReg,     0x38, 0x028, None)       \
    /* ALU register-immediate */                                                   \
    X(ADDI,   "l.addi",   Add,  WD | RA | IMM,      AluImm,     0x27, 0x0,   Signed16)   \
    X(ANDI,   "l.andi",   And,  WD | RA | IMM,      AluImm,     0x29, 0x0,   Unsigned16) \
    X(ORI,    "l.ori",    Or,   WD | RA | IMM,      AluImm,     0x2a, 0x0,   Unsigned16) \
    X(XORI,   "l.xori",   Xor,  WD | RA | IMM,      AluImm,     0x2b, 0x0,   Signed16)   \
    X(MULI,   "l.muli",   Mul,  WD | RA | IMM,      AluImm,     0x2c, 0x0,   Signed16)   \
    X(SLLI,   "l.slli",   Sll,  WD | RA | IMM,      ShiftImm,   0x2e, 0x0,   Shamt)      \
    X(SRLI,   "l.srli",   Srl,  WD | RA | IMM,      ShiftImm,   0x2e, 0x1,   Shamt)      \
    X(SRAI,   "l.srai",   Sra,  WD | RA | IMM,      ShiftImm,   0x2e, 0x2,   Shamt)      \
    /* Set-flag register-register */                                               \
    X(SFEQ,   "l.sfeq",   Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0x0,   None)       \
    X(SFNE,   "l.sfne",   Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0x1,   None)       \
    X(SFGTU,  "l.sfgtu",  Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0x2,   None)       \
    X(SFGEU,  "l.sfgeu",  Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0x3,   None)       \
    X(SFLTU,  "l.sfltu",  Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0x4,   None)       \
    X(SFLEU,  "l.sfleu",  Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0x5,   None)       \
    X(SFGTS,  "l.sfgts",  Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0xa,   None)       \
    X(SFGES,  "l.sfges",  Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0xb,   None)       \
    X(SFLTS,  "l.sflts",  Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0xc,   None)       \
    X(SFLES,  "l.sfles",  Cmp,  RA | RB | SETF,     SetFlagReg, 0x39, 0xd,   None)       \
    /* Set-flag register-immediate */                                              \
    X(SFEQI,  "l.sfeqi",  Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0x0,   Signed16)   \
    X(SFNEI,  "l.sfnei",  Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0x1,   Signed16)   \
    X(SFGTUI, "l.sfgtui", Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0x2,   Signed16)   \
    X(SFGEUI, "l.sfgeui", Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0x3,   Signed16)   \
    X(SFLTUI, "l.sfltui", Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0x4,   Signed16)   \
    X(SFLEUI, "l.sfleui", Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0x5,   Signed16)   \
    X(SFGTSI, "l.sfgtsi", Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0xa,   Signed16)   \
    X(SFGESI, "l.sfgesi", Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0xb,   Signed16)   \
    X(SFLTSI, "l.sfltsi", Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0xc,   Signed16)   \
    X(SFLESI, "l.sflesi", Cmp,  RA | IMM | SETF,    SetFlagImm, 0x2f, 0xd,   Signed16)

/// Mnemonic-level opcode. Immediate and register forms are distinct
/// because they decode from different primary opcodes.
enum class Op : std::uint8_t {
#define SFI_OP_ENUM(name, ...) name,
    SFI_FORALL_OPS(SFI_OP_ENUM)
#undef SFI_OP_ENUM
    kCount
};

constexpr std::size_t kOpCount = static_cast<std::size_t>(Op::kCount);

/// l.nop control codes (or1ksim conventions plus two kernel markers used
/// by the FI framework to delimit the benchmark kernel, paper §2.2).
enum NopCode : std::uint16_t {
    kNopNop = 0x0000,          ///< plain no-operation
    kNopExit = 0x0001,         ///< terminate simulation, r3 = exit code
    kNopReport = 0x0002,       ///< report r3 to the simulator log
    kNopKernelBegin = 0x0010,  ///< enable fault injection (kernel entry)
    kNopKernelEnd = 0x0011,    ///< disable fault injection (kernel exit)
};

/// One decoded instruction. `imm` is stored sign- or zero-extended to
/// 32 bits exactly as the execution semantics consume it.
struct Instr {
    Op op = Op::NOP;
    std::uint8_t rd = 0;   ///< destination register (0..31)
    std::uint8_t ra = 0;   ///< source register A
    std::uint8_t rb = 0;   ///< source register B
    std::int32_t imm = 0;  ///< extended immediate / branch word-offset / nop code

    bool operator==(const Instr&) const = default;
};

/// Static properties of an opcode, used by the decoder, the pipeline model
/// and the fault-injection engine.
struct OpInfo {
    const char* mnemonic;
    ExClass ex_class;
    bool writes_rd;     ///< produces a GPR result
    bool reads_ra;
    bool reads_rb;
    bool has_imm;
    bool is_branch;     ///< changes control flow (incl. jumps)
    bool is_load;
    bool is_store;
    bool sets_flag;     ///< set-flag compare
    bool reads_flag;    ///< l.bf / l.bnf
    Format format;
    std::uint8_t opcode;  ///< primary opcode, bits [31:26]
    std::uint16_t sub;    ///< format-specific sub-field (see SFI_FORALL_OPS)
    ImmKind imm;
};

/// OpInfo for every opcode, indexed by Op.
inline constexpr std::array<OpInfo, kOpCount> kOpTable = [] {
    using namespace op_flags;
    auto has = [](unsigned flags, unsigned bit) { return (flags & bit) != 0; };
    return std::array<OpInfo, kOpCount>{{
#define SFI_OP_INFO(name, mnemonic, cls, flags, fmt, opc, sub, imm)            \
    {mnemonic, ExClass::cls, has(flags, WD), has(flags, RA), has(flags, RB), \
     has(flags, IMM), has(flags, BR), has(flags, LD), has(flags, ST),        \
     has(flags, SETF), has(flags, RDF), Format::fmt, opc, sub, ImmKind::imm},
        SFI_FORALL_OPS(SFI_OP_INFO)
#undef SFI_OP_INFO
    }};
}();

/// Property lookup; total over all Op values.
constexpr const OpInfo& op_info(Op op) {
    const auto idx = static_cast<std::size_t>(op);
    assert(idx < kOpCount);
    return kOpTable[idx];
}

/// True when the EX stage latches a 32-bit ALU result for this opcode and
/// the instruction is therefore a fault-injection target (paper §2.1:
/// only the 32 ALU endpoints of the execution stage are ever at risk).
bool is_alu_fi_target(Op op);

/// Human-readable ExClass name ("add", "mul", ...).
const char* ex_class_name(ExClass c);

/// Parses an ExClass name; returns std::nullopt for unknown names.
std::optional<ExClass> ex_class_from_name(const std::string& name);

/// Register name "r0".."r31".
std::string reg_name(std::uint8_t r);

// ---------------------------------------------------------------------------
// ALU reference semantics. These are the *functional* results; the
// gate-level netlist in src/circuits must agree bit-exactly (checked by
// equivalence tests), and the ISS uses them for golden execution.
// ---------------------------------------------------------------------------

/// Computes the 32-bit EX-stage result for an ALU-class operation.
/// For compares the result is the subtraction A - B (the value latched at
/// the ALU endpoints); the flag is derived separately via `compare_flag`.
std::uint32_t alu_result(ExClass c, std::uint32_t a, std::uint32_t b);

/// Compare predicate of a set-flag opcode, resolved once (the threaded
/// interpreter bakes it into the micro-op at lowering time so the hot
/// kernel never re-derives it from the opcode). Each value is the
/// ORBIS32 condition code the set-flag rows of SFI_FORALL_OPS carry.
enum class CmpKind : std::uint8_t {
    Eq = 0x0, Ne = 0x1, Gtu = 0x2, Geu = 0x3, Ltu = 0x4, Leu = 0x5,
    Gts = 0xa, Ges = 0xb, Lts = 0xc, Les = 0xd
};

/// Maps a set-flag opcode to its predicate.
CmpKind cmp_kind(Op op);

/// Evaluates a predicate from the primitive comparison outcomes.
inline bool flag_from(CmpKind k, bool eq, bool lt_s, bool lt_u) {
    switch (k) {
        case CmpKind::Eq: return eq;
        case CmpKind::Ne: return !eq;
        case CmpKind::Gtu: return !lt_u && !eq;
        case CmpKind::Geu: return !lt_u;
        case CmpKind::Ltu: return lt_u;
        case CmpKind::Leu: return lt_u || eq;
        case CmpKind::Gts: return !lt_s && !eq;
        case CmpKind::Ges: return !lt_s;
        case CmpKind::Lts: return lt_s;
        case CmpKind::Les: return lt_s || eq;
    }
    return false;
}

/// Kind-resolved form of compare_flag_from_diff (inline: it sits in the
/// interpreter's compare kernel). The flag logic consumes the latched
/// difference plus the operand sign bits, so a corrupted diff yields
/// exactly the flag the hardware would compute from corrupted endpoints.
inline bool compare_flag_from_diff_kind(CmpKind k, std::uint32_t a,
                                        std::uint32_t b, std::uint32_t diff) {
    const bool eq = diff == 0;
    // Unsigned borrow reconstruction: for diff = a - b (mod 2^32) the
    // borrow occurred iff diff > a (wrap-around), which holds for the
    // correct diff and degrades consistently for a corrupted one.
    const bool lt_u = diff > a;
    const bool sign_a = (a >> 31) & 1u;
    const bool sign_b = (b >> 31) & 1u;
    const bool sign_d = (diff >> 31) & 1u;
    const bool overflow = (sign_a != sign_b) && (sign_d != sign_a);
    const bool lt_s = sign_d != overflow;
    return flag_from(k, eq, lt_s, lt_u);
}

/// Derives the compare flag for a set-flag opcode from operands.
bool compare_flag(Op op, std::uint32_t a, std::uint32_t b);

/// Derives the compare flag from the (possibly FI-corrupted) subtract
/// result plus the operand sign bits, mirroring how the flag logic sits
/// downstream of the ALU endpoints in the real datapath.
bool compare_flag_from_diff(Op op, std::uint32_t a, std::uint32_t b,
                            std::uint32_t diff);

}  // namespace sfi
