#include "isa/encoding.hpp"

#include <array>
#include <stdexcept>

namespace sfi {

namespace {

constexpr Op kNoOp = Op::kCount;  // decode-table hole: the word is illegal

/// AluReg sub-operation index: bits [9:8], [7:6] and [3:0] of the word.
constexpr std::uint32_t alu_index(std::uint32_t op2, std::uint32_t op3,
                                  std::uint32_t low) {
    return (op2 << 6) | (op3 << 4) | low;
}

/// Decode lookups, built at compile time from SFI_FORALL_OPS.
struct DecodeTables {
    std::array<Op, 64> primary{};  ///< a row with this primary opcode
    std::array<Op, 256> alu{};     ///< AluReg, by alu_index
    std::array<Op, 4> shift{};     ///< ShiftImm, by shift kind
    std::array<Op, 32> sf{};       ///< SetFlagReg, by condition code
    std::array<Op, 32> sfi{};      ///< SetFlagImm, by condition code
};

constexpr DecodeTables make_decode_tables() {
    DecodeTables t;
    t.primary.fill(kNoOp);
    t.alu.fill(kNoOp);
    t.shift.fill(kNoOp);
    t.sf.fill(kNoOp);
    t.sfi.fill(kNoOp);
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const auto op = static_cast<Op>(i);
        const OpInfo& info = kOpTable[i];
        t.primary[info.opcode] = op;
        switch (info.format) {
            case Format::AluReg: {
                const std::uint32_t op3 = (info.sub >> 4) & 0xfu;
                const std::uint32_t low = info.sub & 0xfu;
                // Bits [7:6] select the shift kind in the shift group and
                // are reserved (ignored) everywhere else.
                for (std::uint32_t bits = 0; bits < 4; ++bits)
                    if (low != 0x8 || bits == op3)
                        t.alu[alu_index(info.sub >> 8, bits, low)] = op;
                break;
            }
            case Format::ShiftImm: t.shift[info.sub] = op; break;
            case Format::SetFlagReg: t.sf[info.sub] = op; break;
            case Format::SetFlagImm: t.sfi[info.sub] = op; break;
            default: break;
        }
    }
    return t;
}

constexpr DecodeTables kDecode = make_decode_tables();

std::uint32_t field_d(const Instr& i) { return (i.rd & 0x1fu) << 21; }
std::uint32_t field_a(const Instr& i) { return (i.ra & 0x1fu) << 16; }
std::uint32_t field_b(const Instr& i) { return (i.rb & 0x1fu) << 11; }

void check_imm(const OpInfo& info, std::int32_t v) {
    const char* problem = nullptr;
    switch (info.imm) {
        case ImmKind::None: break;
        case ImmKind::Signed16:
            if (v < -32768 || v > 32767) problem = "signed 16-bit immediate overflow";
            break;
        case ImmKind::Unsigned16:
            if (v < 0 || v > 0xffff) problem = "unsigned 16-bit immediate overflow";
            break;
        case ImmKind::Shamt:
            if (v < 0 || v > 31) problem = "shift amount out of range";
            break;
        case ImmKind::Offset26:
            if (v < -(1 << 25) || v >= (1 << 25)) problem = "26-bit branch offset overflow";
            break;
    }
    if (problem != nullptr)
        throw std::out_of_range(std::string(info.mnemonic) + ": " + problem);
}

std::int32_t sext16(std::uint32_t v) {
    return static_cast<std::int32_t>(static_cast<std::int16_t>(v & 0xffffu));
}

std::int32_t sext26(std::uint32_t v) {
    v &= 0x03ffffffu;
    if (v & 0x02000000u) v |= 0xfc000000u;
    return static_cast<std::int32_t>(v);
}

/// The 16-bit immediate in [15:0], extended as the opcode's ImmKind says.
std::int32_t imm16(Op op, std::uint32_t word) {
    return op_info(op).imm == ImmKind::Signed16
               ? sext16(word)
               : static_cast<std::int32_t>(word & 0xffffu);
}

}  // namespace

std::uint32_t encode(const Instr& i) {
    if (static_cast<std::size_t>(i.op) >= kOpCount)
        throw std::logic_error("encode: invalid opcode");
    const OpInfo& info = op_info(i.op);
    check_imm(info, i.imm);
    const std::uint32_t opc = std::uint32_t{info.opcode} << 26;
    const auto imm = static_cast<std::uint32_t>(i.imm);
    switch (info.format) {
        case Format::N26: return opc | (imm & 0x03ffffffu);
        case Format::JumpReg: return opc | field_b(i);
        case Format::Nop: return opc | (0x01u << 24) | (imm & 0xffffu);
        case Format::Movhi: return opc | field_d(i) | (imm & 0xffffu);
        case Format::Load:
        case Format::AluImm:
            return opc | field_d(i) | field_a(i) | (imm & 0xffffu);
        case Format::Store:
            return opc | ((imm >> 11) & 0x1fu) << 21 | field_a(i) | field_b(i) |
                   (imm & 0x7ffu);
        case Format::AluReg:
            return opc | field_d(i) | field_a(i) | field_b(i) |
                   (info.sub & 0x300u) | ((info.sub >> 4) & 0x3u) << 6 |
                   (info.sub & 0xfu);
        case Format::ShiftImm:
            return opc | field_d(i) | field_a(i) | std::uint32_t{info.sub} << 6 |
                   imm;
        case Format::SetFlagReg:
            return opc | std::uint32_t{info.sub} << 21 | field_a(i) | field_b(i);
        case Format::SetFlagImm:
            return opc | std::uint32_t{info.sub} << 21 | field_a(i) |
                   (imm & 0xffffu);
    }
    throw std::logic_error("encode: invalid format");
}

std::optional<Instr> decode(std::uint32_t word) {
    const Op op = kDecode.primary[word >> 26];
    if (op == kNoOp) return std::nullopt;
    const auto rd = static_cast<std::uint8_t>((word >> 21) & 0x1f);
    const auto ra = static_cast<std::uint8_t>((word >> 16) & 0x1f);
    const auto rb = static_cast<std::uint8_t>((word >> 11) & 0x1f);
    // Grouped formats pick the row by their sub-field.
    auto grouped = [](Op sub_op, Instr instr) -> std::optional<Instr> {
        if (sub_op == kNoOp) return std::nullopt;
        instr.op = sub_op;
        return instr;
    };
    switch (op_info(op).format) {
        case Format::N26: return Instr{op, 0, 0, 0, sext26(word)};
        case Format::JumpReg: return Instr{op, 0, 0, rb, 0};
        case Format::Nop:
            if (((word >> 24) & 0x3u) != 0x1u) return std::nullopt;
            return Instr{op, 0, 0, 0, imm16(op, word)};
        case Format::Movhi:
            if ((word >> 16) & 0x1u) return std::nullopt;  // l.macrc unsupported
            return Instr{op, rd, 0, 0, imm16(op, word)};
        case Format::Load:
        case Format::AluImm: return Instr{op, rd, ra, 0, imm16(op, word)};
        case Format::Store:
            return Instr{op, 0, ra, rb,
                         sext16((((word >> 21) & 0x1fu) << 11) | (word & 0x7ffu))};
        case Format::AluReg:
            return grouped(kDecode.alu[alu_index((word >> 8) & 0x3u,
                                                 (word >> 6) & 0x3u, word & 0xfu)],
                           Instr{op, rd, ra, rb, 0});
        case Format::ShiftImm: {
            const std::uint32_t shamt = word & 0x3fu;
            if (shamt > 31) return std::nullopt;
            return grouped(kDecode.shift[(word >> 6) & 0x3u],
                           Instr{op, rd, ra, 0, static_cast<std::int32_t>(shamt)});
        }
        case Format::SetFlagReg:
            return grouped(kDecode.sf[(word >> 21) & 0x1f], Instr{op, 0, ra, rb, 0});
        case Format::SetFlagImm:
            return grouped(kDecode.sfi[(word >> 21) & 0x1f],
                           Instr{op, 0, ra, 0, sext16(word)});
    }
    return std::nullopt;
}

std::string disassemble(const Instr& i) {
    const OpInfo& info = op_info(i.op);
    const std::string out = std::string(info.mnemonic) + " ";
    auto imm = [&] { return std::to_string(i.imm); };
    switch (info.format) {
        case Format::N26: return out + imm();
        case Format::JumpReg: return out + reg_name(i.rb);
        case Format::Nop: return i.imm == 0 ? info.mnemonic : out + imm();
        case Format::Movhi: return out + reg_name(i.rd) + "," + imm();
        case Format::Load:
            return out + reg_name(i.rd) + "," + imm() + "(" + reg_name(i.ra) + ")";
        case Format::Store:
            return out + imm() + "(" + reg_name(i.ra) + ")," + reg_name(i.rb);
        case Format::AluReg:
            return out + reg_name(i.rd) + "," + reg_name(i.ra) + "," + reg_name(i.rb);
        case Format::AluImm:
        case Format::ShiftImm:
            return out + reg_name(i.rd) + "," + reg_name(i.ra) + "," + imm();
        case Format::SetFlagReg: return out + reg_name(i.ra) + "," + reg_name(i.rb);
        case Format::SetFlagImm: return out + reg_name(i.ra) + "," + imm();
    }
    return info.mnemonic;
}

}  // namespace sfi
