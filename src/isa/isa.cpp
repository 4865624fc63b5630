#include "isa/isa.hpp"

#include <cassert>

namespace sfi {

bool is_alu_fi_target(Op op) { return op_info(op).ex_class != ExClass::None; }

const char* ex_class_name(ExClass c) {
    switch (c) {
        case ExClass::None: return "none";
        case ExClass::Add: return "add";
        case ExClass::Sub: return "sub";
        case ExClass::And: return "and";
        case ExClass::Or: return "or";
        case ExClass::Xor: return "xor";
        case ExClass::Sll: return "sll";
        case ExClass::Srl: return "srl";
        case ExClass::Sra: return "sra";
        case ExClass::Mul: return "mul";
        case ExClass::Cmp: return "cmp";
        case ExClass::kCount: break;
    }
    return "?";
}

std::optional<ExClass> ex_class_from_name(const std::string& name) {
    for (std::size_t i = 0; i < kExClassCount; ++i) {
        const auto c = static_cast<ExClass>(i);
        if (name == ex_class_name(c)) return c;
    }
    return std::nullopt;
}

std::string reg_name(std::uint8_t r) { return "r" + std::to_string(r); }

std::uint32_t alu_result(ExClass c, std::uint32_t a, std::uint32_t b) {
    switch (c) {
        case ExClass::Add: return a + b;
        case ExClass::Sub: return a - b;
        case ExClass::Cmp: return a - b;  // compare latches the difference
        case ExClass::And: return a & b;
        case ExClass::Or: return a | b;
        case ExClass::Xor: return a ^ b;
        case ExClass::Sll: return a << (b & 31u);
        case ExClass::Srl: return a >> (b & 31u);
        case ExClass::Sra:
            return static_cast<std::uint32_t>(static_cast<std::int32_t>(a) >>
                                              (b & 31u));
        case ExClass::Mul: return a * b;
        case ExClass::None:
        case ExClass::kCount: break;
    }
    assert(false && "alu_result called for non-ALU class");
    return 0;
}

CmpKind cmp_kind(Op op) {
    const OpInfo& info = op_info(op);
    assert(info.sets_flag && "not a set-flag opcode");
    return info.sets_flag ? static_cast<CmpKind>(info.sub) : CmpKind::Eq;
}

bool compare_flag(Op op, std::uint32_t a, std::uint32_t b) {
    const bool eq = a == b;
    const bool lt_u = a < b;
    const bool lt_s = static_cast<std::int32_t>(a) < static_cast<std::int32_t>(b);
    return flag_from(cmp_kind(op), eq, lt_s, lt_u);
}

bool compare_flag_from_diff(Op op, std::uint32_t a, std::uint32_t b,
                            std::uint32_t diff) {
    return compare_flag_from_diff_kind(cmp_kind(op), a, b, diff);
}

}  // namespace sfi
