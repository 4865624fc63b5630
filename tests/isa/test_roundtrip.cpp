// Property test, for every row of the opcode table: encode -> decode ->
// disassemble -> assemble reproduces the instruction and its word (the
// assembler accepts exactly the disassembler's syntax).
#include <gtest/gtest.h>

#include "isa/assembler.hpp"
#include "isa/encoding.hpp"
#include "util/rng.hpp"

namespace sfi {
namespace {

std::uint32_t first_word(const Program& p) {
    for (const auto& s : p.sections)
        if (s.addr == 0 && s.bytes.size() >= 4)
            return static_cast<std::uint32_t>(s.bytes[0]) |
                   (static_cast<std::uint32_t>(s.bytes[1]) << 8) |
                   (static_cast<std::uint32_t>(s.bytes[2]) << 16) |
                   (static_cast<std::uint32_t>(s.bytes[3]) << 24);
    throw std::runtime_error("no code at address 0");
}

class DisasmRoundTrip : public ::testing::TestWithParam<std::size_t> {};

TEST_P(DisasmRoundTrip, AssemblingDisassemblyReproducesTheWord) {
    const auto op = static_cast<Op>(GetParam());
    const OpInfo& info = op_info(op);
    Rng rng(GetParam() * 17 + 5);
    auto reg = [&] { return static_cast<std::uint8_t>(rng.bounded(32)); };
    for (int trial = 0; trial < 64; ++trial) {
        Instr instr;
        instr.op = op;
        if (info.writes_rd && op != Op::JAL && op != Op::JALR) instr.rd = reg();
        if (info.reads_ra) instr.ra = reg();
        if (info.reads_rb) instr.rb = reg();
        switch (info.imm) {
            case ImmKind::None: break;
            case ImmKind::Unsigned16:
                instr.imm = static_cast<std::int32_t>(rng.bounded(0x10000));
                break;
            case ImmKind::Shamt:
                instr.imm = static_cast<std::int32_t>(rng.bounded(32));
                break;
            case ImmKind::Offset26:
                // Literal word offsets round-trip through the assembler.
                instr.imm =
                    static_cast<std::int32_t>(rng.bounded(1u << 20)) - (1 << 19);
                break;
            case ImmKind::Signed16:
                instr.imm =
                    static_cast<std::int32_t>(rng.bounded(0x10000)) - 0x8000;
                break;
        }
        const std::uint32_t word = encode(instr);
        const auto decoded = decode(word);
        ASSERT_TRUE(decoded.has_value()) << disassemble(instr);
        EXPECT_EQ(*decoded, instr) << disassemble(instr);
        const std::string text = disassemble(*decoded) + "\n";
        const Program p = assemble(text);
        EXPECT_EQ(first_word(p), word) << text;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllOpcodes, DisasmRoundTrip, ::testing::Range<std::size_t>(0, kOpCount),
    [](const ::testing::TestParamInfo<std::size_t>& info) {
        std::string name = op_info(static_cast<Op>(info.param)).mnemonic;
        for (char& c : name)
            if (c == '.') c = '_';
        return name;
    });

}  // namespace
}  // namespace sfi
