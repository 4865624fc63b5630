// Micro-op stream coherence edge cases. Each behavioural case runs on
// both paths: Cpu::run() (the threaded interpreter and its decode-once
// stream) and Cpu::run_reference() (step(), which decodes straight from
// memory and so is the expected behaviour):
//
//   * generation-stamp rollover — the micro-op stream marks validity
//     with a monotone stamp and must survive it wrapping (fast-forwarded
//     via the Cpu debug hooks; unreachable in real runs),
//   * self-modifying code — a store into the executed image must be
//     visible to the very next fetch of that word,
//   * external memory mutation between reset() and run() — writes and
//     Memory::clear() bypass the Cpu entirely and must still invalidate
//     the stream (write-generation coherence guard),
//   * prime_decode() — priming is idempotent and never makes a stale
//     stream trusted before a reset.
#include <gtest/gtest.h>

#include <iterator>
#include <vector>

#include "cpu/cpu.hpp"
#include "cpu/interp.hpp"
#include "isa/encoding.hpp"
#include "isa/isa.hpp"

namespace sfi {
namespace {

TEST(MicroOpKinds, EveryKindValueIsPinned) {
    // Kind 0 must stay Illegal (fresh slots are zero-initialized); the
    // dispatch table is generated from the same SFI_FORALL_UOP_KINDS list.
    struct Pin {
        UopKind kind;
        int value;
    };
    const Pin pins[] = {
        {UopKind::Illegal, 0}, {UopKind::Nop, 1}, {UopKind::NopExit, 2},
        {UopKind::NopKernelBegin, 3}, {UopKind::NopKernelEnd, 4},
        {UopKind::Movhi, 5}, {UopKind::J, 6}, {UopKind::JSelfLoop, 7},
        {UopKind::Jal, 8}, {UopKind::Jr, 9}, {UopKind::Jalr, 10},
        {UopKind::Bf, 11}, {UopKind::BfSelfLoop, 12}, {UopKind::Bnf, 13},
        {UopKind::BnfSelfLoop, 14}, {UopKind::Lwz, 15}, {UopKind::Lbz, 16},
        {UopKind::Lhz, 17}, {UopKind::Sw, 18}, {UopKind::Sb, 19},
        {UopKind::Sh, 20}, {UopKind::AddReg, 21}, {UopKind::SubReg, 22},
        {UopKind::AndReg, 23}, {UopKind::OrReg, 24}, {UopKind::XorReg, 25},
        {UopKind::SllReg, 26}, {UopKind::SrlReg, 27}, {UopKind::SraReg, 28},
        {UopKind::MulReg, 29}, {UopKind::AddImm, 30}, {UopKind::SubImm, 31},
        {UopKind::AndImm, 32}, {UopKind::OrImm, 33}, {UopKind::XorImm, 34},
        {UopKind::SllImm, 35}, {UopKind::SrlImm, 36}, {UopKind::SraImm, 37},
        {UopKind::MulImm, 38}, {UopKind::CmpReg, 39}, {UopKind::CmpImm, 40}};
    ASSERT_EQ(std::size(pins), kUopKindCount);
    for (const Pin& pin : pins) EXPECT_EQ(static_cast<int>(pin.kind), pin.value);
}

/// One of the two execution paths, chosen by calling it.
struct Engine {
    const char* name;
    RunResult (Cpu::*run)(std::uint64_t);
};
constexpr Engine kEngines[] = {{"reference", &Cpu::run_reference},
                               {"threaded", &Cpu::run}};

Program words_to_program(const std::vector<std::uint32_t>& words) {
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

/// `ori r3, r0, value; l.nop exit` — exits with `value`.
Program exit_with(std::uint32_t value) {
    return words_to_program({
        encode({Op::ORI, 3, 0, 0, static_cast<std::int32_t>(value)}),
        encode({Op::NOP, 0, 0, 0, kNopExit}),
    });
}

// ---------------------------------------------------------------------------
// Generation-stamp rollover.
// ---------------------------------------------------------------------------

TEST(DecodeCache, ThreadedGenerationRolloverWipesStaleUops) {
    Memory mem(1 << 12);
    Cpu cpu(mem);

    cpu.reset(exit_with(7));
    EXPECT_EQ(cpu.run().exit_code, 7u);
    ASSERT_NE(cpu.debug_interp_generation(), 0u);

    // Stamp the lowered stream at the wrap boundary, then force a
    // wholesale invalidation (different program hash): bump_gen() must
    // wipe every micro-op back to the permanent-invalid stamp and restart
    // at 1 instead of letting stale uops alias the new program.
    cpu.debug_set_interp_generation(0xffffffffu);
    cpu.reset(exit_with(9));
    EXPECT_EQ(cpu.debug_interp_generation(), 1u);
    EXPECT_EQ(cpu.run().exit_code, 9u);

    cpu.reset(exit_with(11));
    EXPECT_EQ(cpu.run().exit_code, 11u);
}

// ---------------------------------------------------------------------------
// Self-modifying code: patch an already-executed instruction and loop
// back over it. A stale decode on either engine exits with the old value.
// ---------------------------------------------------------------------------

Program self_patching_program() {
    const std::uint32_t patch = encode({Op::ORI, 3, 0, 0, 5});
    return words_to_program({
        /*0*/ encode({Op::MOVHI, 4, 0, 0, static_cast<std::int32_t>(patch >> 16)}),
        /*1*/ encode({Op::ORI, 4, 4, 0, static_cast<std::int32_t>(patch & 0xffffu)}),
        /*2*/ encode({Op::ORI, 3, 0, 0, 1}),     // patched to ori r3,r0,5
        /*3*/ encode({Op::SFEQI, 0, 5, 0, 0}),   // pass 1: r5==0 -> flag set
        /*4*/ encode({Op::BNF, 0, 0, 0, 4}),     // pass 2: exit
        /*5*/ encode({Op::ORI, 5, 0, 0, 1}),
        /*6*/ encode({Op::SW, 0, 0, 4, 8}),      // mem[8] = r4 (patch word 2)
        /*7*/ encode({Op::J, 0, 0, 0, -5}),      // back to word 2
        /*8*/ encode({Op::NOP, 0, 0, 0, kNopExit}),
    });
}

TEST(DecodeCache, StoreToExecutedCodeIsVisibleOnBothEngines) {
    for (const Engine& engine : kEngines) {
        Memory mem(1 << 12);
        Cpu cpu(mem);
        cpu.reset(self_patching_program());
        const RunResult run = (cpu.*engine.run)(1000);
        EXPECT_EQ(int(run.stop), int(StopReason::Halted)) << engine.name;
        EXPECT_EQ(run.exit_code, 5u) << engine.name;

        // reset() reverts memory to the pristine image; a micro-op
        // lowered from the patched bytes must not survive into the next
        // run (relower_risk protocol). The re-run must patch again, not
        // start from the patched decode.
        cpu.reset(self_patching_program());
        EXPECT_EQ(cpu.memory().read_u32(8), encode({Op::ORI, 3, 0, 0, 1}))
            << engine.name;
        EXPECT_EQ((cpu.*engine.run)(1000).exit_code, 5u) << engine.name;
    }
}

// ---------------------------------------------------------------------------
// External mutation between reset() and run(): the coherence guard keys
// on Memory's write generation, which every external write and clear()
// bumps.
// ---------------------------------------------------------------------------

TEST(DecodeCache, ExternalWriteAfterResetIsPickedUp) {
    for (const Engine& engine : kEngines) {
        Memory mem(1 << 12);
        Cpu cpu(mem);

        // Warm the stream with the original word first.
        cpu.reset(exit_with(1));
        EXPECT_EQ((cpu.*engine.run)(0).exit_code, 1u) << engine.name;

        // Patch word 0 behind the Cpu's back, post-reset.
        cpu.reset(exit_with(1));
        mem.write_u32(0, encode({Op::ORI, 3, 0, 0, 9}));
        EXPECT_EQ((cpu.*engine.run)(0).exit_code, 9u) << engine.name;
    }
}

TEST(DecodeCache, ExternalClearAfterResetIsPickedUp) {
    for (const Engine& engine : kEngines) {
        Memory mem(1 << 12);
        Cpu cpu(mem);
        cpu.reset(exit_with(1));
        EXPECT_EQ((cpu.*engine.run)(0).exit_code, 1u) << engine.name;

        // A cleared image is all zeroes, which decode as `l.j 0`: the run
        // must stop immediately as a self-loop at pc 0, not replay the
        // cached program.
        cpu.reset(exit_with(1));
        mem.clear();
        const RunResult run = (cpu.*engine.run)(100);
        EXPECT_EQ(int(run.stop), int(StopReason::SelfLoop)) << engine.name;
        EXPECT_EQ(run.instructions, 0u) << engine.name;
    }
}

// ---------------------------------------------------------------------------
// prime_decode(): idempotent, and never trusts the stream before a reset.
// ---------------------------------------------------------------------------

TEST(DecodeCache, PrimeDecodeIsIdempotentAndUntrustedUntilReset) {
    const Program program = exit_with(3);
    for (const Engine& engine : kEngines) {
        Memory mem(1 << 12);
        Cpu cpu(mem);
        EXPECT_EQ(cpu.prime_decode(program), 2u) << engine.name;  // both words
        EXPECT_EQ(cpu.prime_decode(program), 0u) << engine.name;  // hash match

        // Priming must not let a run execute before any reset loaded
        // memory: the image is still all zeroes here, so a trusted-but-
        // stale stream would wrongly exit with 3.
        const RunResult unloaded = (cpu.*engine.run)(100);
        EXPECT_EQ(int(unloaded.stop), int(StopReason::SelfLoop)) << engine.name;

        cpu.reset(program);
        EXPECT_EQ((cpu.*engine.run)(0).exit_code, 3u) << engine.name;
        EXPECT_EQ(cpu.prime_decode(program), 0u) << engine.name;  // still current

        // A different program re-primes in full.
        EXPECT_EQ(cpu.prime_decode(exit_with(4)), 2u) << engine.name;
        cpu.reset(exit_with(4));
        EXPECT_EQ((cpu.*engine.run)(0).exit_code, 4u) << engine.name;
    }
}

TEST(DecodeCache, ReferenceRunBeforeAnyResetDecodesTheImage) {
    // With the program stored by hand and no reset, the reference loop
    // fetches the real words, and so does run() (its stream is not yet
    // synchronized, so it lowers from memory).
    for (const Engine& engine : kEngines) {
        Memory mem(1 << 12);
        mem.load(exit_with(6));
        Cpu cpu(mem);
        EXPECT_EQ((cpu.*engine.run)(0).exit_code, 6u) << engine.name;
    }
}

}  // namespace
}  // namespace sfi
