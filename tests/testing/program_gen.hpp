// Shared random-program generators for the CPU test suites.
//
// Two generators live here:
//
//  * generate_alu_program / alu_to_program — the straight-line ALU
//    property-test generator historically private to
//    tests/cpu/test_random_programs.cpp, extracted verbatim (identical
//    RNG consumption, so a given seed yields the exact program it always
//    did) together with its independent reference interpreter;
//
//  * generate_fuzz_program — an ISA-complete generator for the
//    dispatch-differential harness (tests/cpu/test_differential.cpp):
//    every opcode of the subset, forward/backward branches including
//    statically-known self-loops, register-indirect jumps with controlled
//    targets (bounded so the u32 pc arithmetic of either engine never
//    wraps), loads/stores including self-modifying stores into the code
//    image, kernel FI markers, edge-case immediates, and occasional
//    undecodable words. Programs terminate via an exit nop, a fault, a
//    self-loop, or the caller's cycle cap — whichever a run reaches.
#pragma once

#include <array>
#include <cstdint>
#include <vector>

#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "isa/isa.hpp"
#include "util/rng.hpp"

namespace sfi::testgen {

// ---------------------------------------------------------------------------
// Straight-line ALU generator (property tests against the reference
// architectural interpreter).
// ---------------------------------------------------------------------------

struct RandomProgram {
    std::vector<Instr> instrs;
    std::array<std::uint32_t, 32> expected{};  // architectural registers
    bool expected_flag = false;
};

inline RandomProgram generate_alu_program(std::uint64_t seed,
                                          std::size_t length) {
    Rng rng(seed);
    RandomProgram p;
    // Seed some registers with known constants via movhi/ori pairs.
    auto emit = [&](Instr i) { p.instrs.push_back(i); };
    for (std::uint8_t r = 2; r < 8; ++r) {
        const std::uint32_t v = rng.u32();
        emit({Op::MOVHI, r, 0, 0, static_cast<std::int32_t>(v >> 16)});
        emit({Op::ORI, r, r, 0, static_cast<std::int32_t>(v & 0xffffu)});
    }
    const Op alu_ops[] = {Op::ADD,  Op::SUB,  Op::AND,  Op::OR,   Op::XOR,
                          Op::MUL,  Op::SLL,  Op::SRL,  Op::SRA,  Op::ADDI,
                          Op::ANDI, Op::ORI,  Op::XORI, Op::MULI, Op::SLLI,
                          Op::SRLI, Op::SRAI, Op::SFEQ, Op::SFNE, Op::SFGTU,
                          Op::SFLTS, Op::SFGESI, Op::SFLEUI, Op::MOVHI};
    for (std::size_t i = 0; i < length; ++i) {
        const Op op = alu_ops[rng.bounded(std::size(alu_ops))];
        const OpInfo& info = op_info(op);
        Instr instr;
        instr.op = op;
        auto reg = [&] { return static_cast<std::uint8_t>(rng.bounded(30) + 2); };
        if (info.writes_rd) instr.rd = reg();
        if (info.reads_ra) instr.ra = reg();
        if (info.reads_rb) instr.rb = reg();
        if (op == Op::MOVHI || op == Op::ANDI || op == Op::ORI)
            instr.imm = static_cast<std::int32_t>(rng.bounded(0x10000));
        else if (op == Op::SLLI || op == Op::SRLI || op == Op::SRAI)
            instr.imm = static_cast<std::int32_t>(rng.bounded(32));
        else if (info.has_imm)
            instr.imm = static_cast<std::int32_t>(rng.bounded(0x10000)) - 0x8000;
        emit(instr);
    }
    // Independent architectural interpreter (reference semantics only).
    std::array<std::uint32_t, 32> regs{};
    bool flag = false;
    for (const Instr& instr : p.instrs) {
        const OpInfo& info = op_info(instr.op);
        if (instr.op == Op::MOVHI) {
            if (instr.rd != 0)
                regs[instr.rd] = static_cast<std::uint32_t>(instr.imm) << 16;
            continue;
        }
        const std::uint32_t a = regs[instr.ra];
        const std::uint32_t b = info.has_imm
                                    ? static_cast<std::uint32_t>(instr.imm)
                                    : regs[instr.rb];
        if (info.sets_flag) {
            flag = compare_flag(instr.op, a, b);
        } else if (info.writes_rd && instr.rd != 0) {
            regs[instr.rd] = alu_result(info.ex_class, a, b);
        }
    }
    p.expected = regs;
    p.expected_flag = flag;
    return p;
}

inline Program alu_to_program(const RandomProgram& rp) {
    Program::Section code;
    code.addr = 0;
    auto push_word = [&](std::uint32_t w) {
        code.bytes.push_back(static_cast<std::uint8_t>(w));
        code.bytes.push_back(static_cast<std::uint8_t>(w >> 8));
        code.bytes.push_back(static_cast<std::uint8_t>(w >> 16));
        code.bytes.push_back(static_cast<std::uint8_t>(w >> 24));
    };
    for (const Instr& i : rp.instrs) push_word(encode(i));
    push_word(encode({Op::NOP, 0, 0, 0, kNopExit}));
    Program p;
    p.sections.push_back(std::move(code));
    return p;
}

// ---------------------------------------------------------------------------
// ISA-complete fuzz generator (dispatch differential).
// ---------------------------------------------------------------------------

struct FuzzConfig {
    /// Random instructions between prologue and the exit epilogue.
    std::size_t body_length = 96;
    /// Memory image size the program targets; data accesses stay inside
    /// [data_base, memory_bytes) except for rare deliberate faults.
    std::uint32_t memory_bytes = 1u << 16;
    std::uint32_t data_base = 0x8000;
};

/// Generates one fuzz program. Register roles (so register-indirect jumps
/// stay inside the code image and the data base survives the body):
///   r2..r19  scratch — ALU/compare/load destinations
///   r9       link register (written by l.jal / l.jalr, readable)
///   r20..r23 jump targets — preloaded with body instruction addresses,
///            never written again
///   r26      data-region base pointer
///   r0       hardwired zero (also used as the store-to-code base)
inline Program generate_fuzz_program(std::uint64_t seed,
                                     const FuzzConfig& cfg = {}) {
    Rng rng(seed);
    std::vector<std::uint32_t> words;
    auto raw = [&](std::uint32_t w) { words.push_back(w); };
    auto emit = [&](Instr i) { raw(encode(i)); };

    // Prologue: seed scratch registers with random constants.
    for (std::uint8_t r = 2; r < 9; ++r) {
        const std::uint32_t v = rng.u32();
        emit({Op::MOVHI, r, 0, 0, static_cast<std::int32_t>(v >> 16)});
        emit({Op::ORI, r, r, 0, static_cast<std::int32_t>(v & 0xffffu)});
    }
    // Fixed prologue shape: 14 seeding words + 4 jump targets + data base
    // + kernel-begin marker. Body word index range is known from here.
    const std::uint32_t prologue_words =
        static_cast<std::uint32_t>(words.size()) + 4 + 1 + 1;
    const std::uint32_t body_words =
        static_cast<std::uint32_t>(cfg.body_length);
    auto body_addr = [&] {
        return static_cast<std::int32_t>(
            (prologue_words + rng.bounded(body_words)) * 4);
    };
    for (std::uint8_t r = 20; r < 24; ++r)
        emit({Op::ORI, r, 0, 0, body_addr()});
    emit({Op::ORI, 26, 0, 0, static_cast<std::int32_t>(cfg.data_base)});
    emit({Op::NOP, 0, 0, 0, kNopKernelBegin});

    const Op alu_ops[] = {
        Op::ADD,   Op::SUB,   Op::AND,    Op::OR,     Op::XOR,   Op::MUL,
        Op::SLL,   Op::SRL,   Op::SRA,    Op::ADDI,   Op::ANDI,  Op::ORI,
        Op::XORI,  Op::MULI,  Op::SLLI,   Op::SRLI,   Op::SRAI,  Op::MOVHI,
        Op::SFEQ,  Op::SFNE,  Op::SFGTU,  Op::SFGEU,  Op::SFLTU, Op::SFLEU,
        Op::SFGTS, Op::SFGES, Op::SFLTS,  Op::SFLES,  Op::SFEQI, Op::SFNEI,
        Op::SFGTUI, Op::SFGEUI, Op::SFLTUI, Op::SFLEUI, Op::SFGTSI,
        Op::SFGESI, Op::SFLTSI, Op::SFLESI};
    auto scratch = [&] { return static_cast<std::uint8_t>(2 + rng.bounded(18)); };
    auto any_src = [&] { return static_cast<std::uint8_t>(rng.bounded(32)); };
    auto jump_reg = [&] { return static_cast<std::uint8_t>(20 + rng.bounded(4)); };

    for (std::size_t i = 0; i < cfg.body_length; ++i) {
        const std::uint64_t pick = rng.bounded(100);
        if (pick < 50) {
            // ALU / compare, all forms; edge immediates ~20% of the time.
            const Op op = alu_ops[rng.bounded(std::size(alu_ops))];
            const OpInfo& info = op_info(op);
            Instr instr;
            instr.op = op;
            if (info.writes_rd) instr.rd = scratch();
            if (info.reads_ra) instr.ra = any_src();
            if (info.reads_rb) instr.rb = any_src();
            const bool edge = rng.bounded(5) == 0;
            if (op == Op::MOVHI || op == Op::ANDI || op == Op::ORI) {
                const std::int32_t edges[] = {0, 1, 0x7fff, 0x8000, 0xffff};
                instr.imm = edge ? edges[rng.bounded(std::size(edges))]
                                 : static_cast<std::int32_t>(rng.bounded(0x10000));
            } else if (op == Op::SLLI || op == Op::SRLI || op == Op::SRAI) {
                const std::int32_t edges[] = {0, 1, 31};
                instr.imm = edge ? edges[rng.bounded(std::size(edges))]
                                 : static_cast<std::int32_t>(rng.bounded(32));
            } else if (info.has_imm) {
                const std::int32_t edges[] = {0, 1, -1, 0x7fff, -0x8000};
                instr.imm = edge ? edges[rng.bounded(std::size(edges))]
                                 : static_cast<std::int32_t>(rng.bounded(0x10000)) -
                                       0x8000;
            }
            emit(instr);
        } else if (pick < 64) {
            // Load from the data region (occasionally misaligned or past
            // the end of memory — MemFault coverage).
            const Op ops[] = {Op::LWZ, Op::LBZ, Op::LHZ};
            const Op op = ops[rng.bounded(3)];
            const std::uint32_t align =
                op == Op::LWZ ? 4 : (op == Op::LHZ ? 2 : 1);
            std::int32_t imm = static_cast<std::int32_t>(
                rng.bounded((cfg.memory_bytes - cfg.data_base) / align) * align);
            if (rng.bounded(50) == 0) imm = 0x7ffd;  // misaligned / off the end
            emit({op, scratch(), 26, 0, imm});
        } else if (pick < 74) {
            // Store. Mostly to the data region; sometimes (off r0) into the
            // code image — self-modifying coverage for the decode caches.
            const Op ops[] = {Op::SW, Op::SB, Op::SH};
            const Op op = ops[rng.bounded(3)];
            const std::uint32_t align =
                op == Op::SW ? 4 : (op == Op::SH ? 2 : 1);
            Instr instr{op, 0, 26, scratch(), 0};
            if (rng.bounded(5) == 0) {
                instr.ra = 0;  // code image: words [prologue, prologue+body)
                instr.imm = static_cast<std::int32_t>(
                    (prologue_words + rng.bounded(body_words)) * 4);
                instr.imm &= ~static_cast<std::int32_t>(align - 1);
            } else {
                instr.imm = static_cast<std::int32_t>(
                    rng.bounded((cfg.memory_bytes - cfg.data_base) / align) *
                    align);
            }
            emit(instr);
        } else if (pick < 84) {
            // Conditional branch: mostly forward, sometimes backward (loop
            // coverage; the caller's cycle cap bounds runaways), rarely the
            // statically-known self-loop (imm == 0).
            const Op op = rng.bounded(2) ? Op::BF : Op::BNF;
            std::int32_t off = static_cast<std::int32_t>(rng.bounded(6)) + 1;
            if (rng.bounded(5) == 0)
                off = -(static_cast<std::int32_t>(rng.bounded(4)) + 1);
            if (rng.bounded(33) == 0) off = 0;
            emit({op, 0, 0, 0, off});
        } else if (pick < 89) {
            // Unconditional jump, same offset policy.
            const Op op = rng.bounded(3) ? Op::J : Op::JAL;
            std::int32_t off = static_cast<std::int32_t>(rng.bounded(4)) + 1;
            if (rng.bounded(25) == 0) off = 0;
            emit({op, 0, 0, 0, off});
        } else if (pick < 93) {
            // Register-indirect jump to a preloaded body address.
            emit({rng.bounded(2) ? Op::JR : Op::JALR, 0, 0, jump_reg(), 0});
        } else if (pick < 97) {
            // l.nop control codes, kernel markers included (FI window
            // toggling mid-body).
            const std::int32_t codes[] = {kNopNop, kNopReport,
                                          kNopKernelBegin, kNopKernelEnd};
            emit({Op::NOP, 0, 0, 0, codes[rng.bounded(std::size(codes))]});
        } else {
            // Undecodable word (IllegalInstr coverage; opcode 0x3f).
            raw(0xffffffffu);
        }
    }
    emit({Op::NOP, 0, 0, 0, kNopKernelEnd});
    emit({Op::NOP, 0, 0, 0, kNopExit});
    // Anything that jumps past the exit lands in zeroed memory, which
    // decodes as l.j 0 — an immediate SelfLoop stop on both engines.

    Program::Section code;
    code.addr = 0;
    for (const std::uint32_t w : words) {
        code.bytes.push_back(static_cast<std::uint8_t>(w));
        code.bytes.push_back(static_cast<std::uint8_t>(w >> 8));
        code.bytes.push_back(static_cast<std::uint8_t>(w >> 16));
        code.bytes.push_back(static_cast<std::uint8_t>(w >> 24));
    }
    Program p;
    p.sections.push_back(std::move(code));
    return p;
}

}  // namespace sfi::testgen
