#include "isa/isa.hpp"

#include <gtest/gtest.h>

#include <iterator>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "util/rng.hpp"

namespace sfi {
namespace {

TEST(OpTable, EveryOpcodeValueIsPinned) {
    // records.bin stores the raw Op byte, so reordering SFI_FORALL_OPS
    // must fail here; a new row is appended and adds its pin.
    struct Pin {
        Op op;
        int value;
        const char* mnemonic;
    };
    const Pin pins[] = {
        {Op::J, 0, "l.j"}, {Op::JAL, 1, "l.jal"}, {Op::JR, 2, "l.jr"},
        {Op::JALR, 3, "l.jalr"}, {Op::BF, 4, "l.bf"}, {Op::BNF, 5, "l.bnf"},
        {Op::NOP, 6, "l.nop"}, {Op::MOVHI, 7, "l.movhi"}, {Op::LWZ, 8, "l.lwz"},
        {Op::LBZ, 9, "l.lbz"}, {Op::LHZ, 10, "l.lhz"}, {Op::SW, 11, "l.sw"},
        {Op::SB, 12, "l.sb"}, {Op::SH, 13, "l.sh"}, {Op::ADD, 14, "l.add"},
        {Op::SUB, 15, "l.sub"}, {Op::AND, 16, "l.and"}, {Op::OR, 17, "l.or"},
        {Op::XOR, 18, "l.xor"}, {Op::MUL, 19, "l.mul"}, {Op::SLL, 20, "l.sll"},
        {Op::SRL, 21, "l.srl"}, {Op::SRA, 22, "l.sra"},
        {Op::ADDI, 23, "l.addi"}, {Op::ANDI, 24, "l.andi"},
        {Op::ORI, 25, "l.ori"}, {Op::XORI, 26, "l.xori"},
        {Op::MULI, 27, "l.muli"}, {Op::SLLI, 28, "l.slli"},
        {Op::SRLI, 29, "l.srli"}, {Op::SRAI, 30, "l.srai"},
        {Op::SFEQ, 31, "l.sfeq"}, {Op::SFNE, 32, "l.sfne"},
        {Op::SFGTU, 33, "l.sfgtu"}, {Op::SFGEU, 34, "l.sfgeu"},
        {Op::SFLTU, 35, "l.sfltu"}, {Op::SFLEU, 36, "l.sfleu"},
        {Op::SFGTS, 37, "l.sfgts"}, {Op::SFGES, 38, "l.sfges"},
        {Op::SFLTS, 39, "l.sflts"}, {Op::SFLES, 40, "l.sfles"},
        {Op::SFEQI, 41, "l.sfeqi"}, {Op::SFNEI, 42, "l.sfnei"},
        {Op::SFGTUI, 43, "l.sfgtui"}, {Op::SFGEUI, 44, "l.sfgeui"},
        {Op::SFLTUI, 45, "l.sfltui"}, {Op::SFLEUI, 46, "l.sfleui"},
        {Op::SFGTSI, 47, "l.sfgtsi"}, {Op::SFGESI, 48, "l.sfgesi"},
        {Op::SFLTSI, 49, "l.sfltsi"}, {Op::SFLESI, 50, "l.sflesi"}};
    ASSERT_EQ(std::size(pins), kOpCount);
    for (const Pin& pin : pins) {
        EXPECT_EQ(static_cast<int>(pin.op), pin.value) << pin.mnemonic;
        EXPECT_STREQ(op_info(pin.op).mnemonic, pin.mnemonic);
    }
}

TEST(OpTable, FlagsAgreeWithTheFormat) {
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const OpInfo& info = op_info(static_cast<Op>(i));
        const Format f = info.format;
        const bool set_flag = f == Format::SetFlagReg || f == Format::SetFlagImm;
        EXPECT_EQ(info.is_load, f == Format::Load) << info.mnemonic;
        EXPECT_EQ(info.is_store, f == Format::Store) << info.mnemonic;
        EXPECT_EQ(info.sets_flag, set_flag) << info.mnemonic;
        EXPECT_EQ(info.is_branch, f == Format::N26 || f == Format::JumpReg)
            << info.mnemonic;
        EXPECT_EQ(info.has_imm, info.imm != ImmKind::None) << info.mnemonic;
        EXPECT_EQ(info.reads_rb, f == Format::JumpReg || f == Format::Store ||
                                     f == Format::AluReg || f == Format::SetFlagReg)
            << info.mnemonic;
        EXPECT_EQ(info.reads_ra, f == Format::Load || f == Format::Store ||
                                     f == Format::AluReg || f == Format::AluImm ||
                                     f == Format::ShiftImm || set_flag)
            << info.mnemonic;
        EXPECT_EQ(info.ex_class == ExClass::Cmp, set_flag) << info.mnemonic;
    }
}

TEST(OpInfo, MnemonicsAreUniqueAndPrefixed) {
    std::set<std::string> seen;
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const OpInfo& info = op_info(static_cast<Op>(i));
        EXPECT_TRUE(std::string(info.mnemonic).rfind("l.", 0) == 0)
            << info.mnemonic;
        EXPECT_TRUE(seen.insert(info.mnemonic).second) << info.mnemonic;
    }
}

TEST(OpInfo, AluClassesWriteRdExceptCompares) {
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const auto op = static_cast<Op>(i);
        const OpInfo& info = op_info(op);
        if (info.ex_class == ExClass::None) continue;
        if (info.sets_flag)
            EXPECT_FALSE(info.writes_rd) << info.mnemonic;
        else
            EXPECT_TRUE(info.writes_rd) << info.mnemonic;
    }
}

TEST(OpInfo, BranchesAreNotFiTargets) {
    for (const Op op : {Op::J, Op::JAL, Op::JR, Op::JALR, Op::BF, Op::BNF,
                        Op::LWZ, Op::SW, Op::NOP, Op::MOVHI}) {
        EXPECT_FALSE(is_alu_fi_target(op)) << op_info(op).mnemonic;
    }
}

TEST(OpInfo, AluOpsAreFiTargets) {
    for (const Op op : {Op::ADD, Op::ADDI, Op::SUB, Op::MUL, Op::MULI, Op::AND,
                        Op::SLL, Op::SRAI, Op::SFEQ, Op::SFLTSI}) {
        EXPECT_TRUE(is_alu_fi_target(op)) << op_info(op).mnemonic;
    }
}

TEST(ExClassNames, RoundTrip) {
    for (std::size_t i = 0; i < kExClassCount; ++i) {
        const auto cls = static_cast<ExClass>(i);
        const auto back = ex_class_from_name(ex_class_name(cls));
        ASSERT_TRUE(back.has_value()) << ex_class_name(cls);
        EXPECT_EQ(*back, cls);
    }
    EXPECT_FALSE(ex_class_from_name("bogus").has_value());
}

TEST(AluResult, MatchesReferenceSemantics) {
    Rng rng(1);
    for (int i = 0; i < 1000; ++i) {
        const std::uint32_t a = rng.u32(), b = rng.u32();
        EXPECT_EQ(alu_result(ExClass::Add, a, b), a + b);
        EXPECT_EQ(alu_result(ExClass::Sub, a, b), a - b);
        EXPECT_EQ(alu_result(ExClass::Cmp, a, b), a - b);
        EXPECT_EQ(alu_result(ExClass::And, a, b), a & b);
        EXPECT_EQ(alu_result(ExClass::Or, a, b), a | b);
        EXPECT_EQ(alu_result(ExClass::Xor, a, b), a ^ b);
        EXPECT_EQ(alu_result(ExClass::Mul, a, b), a * b);
        EXPECT_EQ(alu_result(ExClass::Sll, a, b), a << (b & 31));
        EXPECT_EQ(alu_result(ExClass::Srl, a, b), a >> (b & 31));
        EXPECT_EQ(alu_result(ExClass::Sra, a, b),
                  static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                             (b & 31)));
    }
}

TEST(CompareFlag, AllConditionsAgainstNative) {
    Rng rng(2);
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> edge = {
        {0, 0},
        {1, 0},
        {0, 1},
        {0x7fffffffu, 0x80000000u},
        {0x80000000u, 0x7fffffffu},
        {0xffffffffu, 0},
        {0xffffffffu, 0xffffffffu},
    };
    auto check = [](std::uint32_t a, std::uint32_t b) {
        const auto sa = static_cast<std::int32_t>(a);
        const auto sb = static_cast<std::int32_t>(b);
        EXPECT_EQ(compare_flag(Op::SFEQ, a, b), a == b);
        EXPECT_EQ(compare_flag(Op::SFNE, a, b), a != b);
        EXPECT_EQ(compare_flag(Op::SFGTU, a, b), a > b);
        EXPECT_EQ(compare_flag(Op::SFGEU, a, b), a >= b);
        EXPECT_EQ(compare_flag(Op::SFLTU, a, b), a < b);
        EXPECT_EQ(compare_flag(Op::SFLEU, a, b), a <= b);
        EXPECT_EQ(compare_flag(Op::SFGTS, a, b), sa > sb);
        EXPECT_EQ(compare_flag(Op::SFGES, a, b), sa >= sb);
        EXPECT_EQ(compare_flag(Op::SFLTS, a, b), sa < sb);
        EXPECT_EQ(compare_flag(Op::SFLES, a, b), sa <= sb);
    };
    for (const auto& [a, b] : edge) check(a, b);
    for (int i = 0; i < 2000; ++i) check(rng.u32(), rng.u32());
}

TEST(CompareFlagFromDiff, AgreesWithDirectFlagForCorrectDiff) {
    Rng rng(3);
    const Op ops[] = {Op::SFEQ, Op::SFNE, Op::SFGTU, Op::SFGEU, Op::SFLTU,
                      Op::SFLEU, Op::SFGTS, Op::SFGES, Op::SFLTS, Op::SFLES};
    for (int i = 0; i < 5000; ++i) {
        const std::uint32_t a = rng.u32(), b = rng.u32();
        const std::uint32_t diff = a - b;
        for (const Op op : ops)
            EXPECT_EQ(compare_flag_from_diff(op, a, b, diff),
                      compare_flag(op, a, b))
                << op_info(op).mnemonic << " a=" << a << " b=" << b;
    }
}

TEST(CompareFlagFromDiff, CorruptedDiffChangesEquality) {
    // A flipped bit in the difference must flip sfeq when a == b.
    const std::uint32_t a = 77, b = 77;
    EXPECT_TRUE(compare_flag_from_diff(Op::SFEQ, a, b, 0));
    EXPECT_FALSE(compare_flag_from_diff(Op::SFEQ, a, b, 1u << 13));
}

TEST(RegName, Format) {
    EXPECT_EQ(reg_name(0), "r0");
    EXPECT_EQ(reg_name(31), "r31");
}

}  // namespace
}  // namespace sfi
