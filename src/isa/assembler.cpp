#include "isa/assembler.hpp"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "isa/encoding.hpp"

namespace sfi {

std::size_t Program::byte_size() const {
    std::size_t total = 0;
    for (const auto& s : sections) total += s.bytes.size();
    return total;
}

std::uint32_t Program::symbol(const std::string& name) const {
    const auto it = symbols.find(name);
    if (it == symbols.end())
        throw std::out_of_range("undefined symbol: " + name);
    return it->second;
}

AsmError::AsmError(std::size_t line_no, const std::string& message)
    : std::runtime_error("line " + std::to_string(line_no) + ": " + message),
      line(line_no) {}

std::optional<Op> op_from_mnemonic(const std::string& mnemonic) {
    for (std::size_t i = 0; i < kOpCount; ++i) {
        const auto op = static_cast<Op>(i);
        if (mnemonic == op_info(op).mnemonic) return op;
    }
    return std::nullopt;
}

namespace {

std::string strip(const std::string& s) {
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

std::string lower(std::string s) {
    std::transform(s.begin(), s.end(), s.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    return s;
}

/// Splits a comma-separated operand list, honoring parentheses so that
/// "0(r4),r5" splits into {"0(r4)", "r5"}.
std::vector<std::string> split_operands(const std::string& s) {
    std::vector<std::string> out;
    std::string cur;
    int depth = 0;
    for (char c : s) {
        if (c == '(') ++depth;
        if (c == ')') --depth;
        if (c == ',' && depth == 0) {
            out.push_back(strip(cur));
            cur.clear();
        } else {
            cur += c;
        }
    }
    cur = strip(cur);
    if (!cur.empty()) out.push_back(cur);
    return out;
}

bool is_ident_start(char c) {
    return std::isalpha(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

bool is_ident_char(char c) {
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_' || c == '.';
}

struct Statement {
    std::size_t line = 0;
    std::vector<std::string> labels;
    std::string head;                 // mnemonic or directive (lowercased)
    std::vector<std::string> operands;
};

std::vector<Statement> tokenize(const std::string& source) {
    std::vector<Statement> out;
    std::istringstream in(source);
    std::string raw;
    std::size_t line_no = 0;
    std::vector<std::string> pending_labels;
    while (std::getline(in, raw)) {
        ++line_no;
        const auto hash = raw.find_first_of("#;");
        if (hash != std::string::npos) raw.resize(hash);
        std::string line = strip(raw);
        // Peel off any leading "label:" prefixes.
        while (!line.empty()) {
            const auto colon = line.find(':');
            if (colon == std::string::npos) break;
            const std::string candidate = strip(line.substr(0, colon));
            if (candidate.empty() || !is_ident_start(candidate[0]) ||
                !std::all_of(candidate.begin(), candidate.end(), is_ident_char))
                break;
            pending_labels.push_back(candidate);
            line = strip(line.substr(colon + 1));
        }
        if (line.empty()) continue;
        Statement st;
        st.line = line_no;
        st.labels = std::move(pending_labels);
        pending_labels.clear();
        const auto space = line.find_first_of(" \t");
        st.head = lower(line.substr(0, space));
        if (space != std::string::npos)
            st.operands = split_operands(strip(line.substr(space + 1)));
        out.push_back(std::move(st));
    }
    if (!pending_labels.empty()) {
        // Trailing labels attach to an empty end-of-program statement.
        Statement st;
        st.line = line_no;
        st.labels = std::move(pending_labels);
        st.head = ".end-labels";
        out.push_back(std::move(st));
    }
    return out;
}

class AssemblerImpl {
public:
    Program run(const std::string& source) {
        statements_ = tokenize(source);
        pass(/*emit=*/false);
        pass(/*emit=*/true);
        finish_section();
        prog_.symbols = symbols_;
        if (!entry_symbol_.empty()) prog_.entry = resolve_symbol(entry_symbol_, entry_line_);
        return std::move(prog_);
    }

private:
    // ---- expression evaluation ------------------------------------------
    // expr := term (('+'|'-') term)*
    // term := number | symbol | hi(expr) | lo(expr)
    std::int64_t eval(const std::string& text, std::size_t line, bool allow_undef) {
        std::size_t pos = 0;
        const std::int64_t v = eval_expr(text, pos, line, allow_undef);
        skip_ws(text, pos);
        if (pos != text.size())
            throw AsmError(line, "trailing characters in expression: '" + text + "'");
        return v;
    }

    static void skip_ws(const std::string& s, std::size_t& pos) {
        while (pos < s.size() && std::isspace(static_cast<unsigned char>(s[pos]))) ++pos;
    }

    std::int64_t eval_expr(const std::string& s, std::size_t& pos,
                           std::size_t line, bool allow_undef) {
        std::int64_t v = eval_term(s, pos, line, allow_undef);
        for (;;) {
            skip_ws(s, pos);
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-')) {
                const char op = s[pos++];
                const std::int64_t rhs = eval_term(s, pos, line, allow_undef);
                v = op == '+' ? v + rhs : v - rhs;
            } else {
                return v;
            }
        }
    }

    std::int64_t eval_term(const std::string& s, std::size_t& pos,
                           std::size_t line, bool allow_undef) {
        skip_ws(s, pos);
        if (pos >= s.size()) throw AsmError(line, "expected expression");
        if (s[pos] == '-') {
            ++pos;
            return -eval_term(s, pos, line, allow_undef);
        }
        if (std::isdigit(static_cast<unsigned char>(s[pos]))) {
            char* end = nullptr;
            const std::int64_t v =
                std::strtoll(s.c_str() + pos, &end, 0);
            pos = static_cast<std::size_t>(end - s.c_str());
            return v;
        }
        if (is_ident_start(s[pos])) {
            std::size_t b = pos;
            while (pos < s.size() && is_ident_char(s[pos])) ++pos;
            std::string name = s.substr(b, pos - b);
            skip_ws(s, pos);
            const std::string fn = lower(name);
            if ((fn == "hi" || fn == "lo") && pos < s.size() && s[pos] == '(') {
                ++pos;
                const std::int64_t inner = eval_expr(s, pos, line, allow_undef);
                skip_ws(s, pos);
                if (pos >= s.size() || s[pos] != ')')
                    throw AsmError(line, "missing ')' in " + fn + "()");
                ++pos;
                const auto u = static_cast<std::uint32_t>(inner);
                return fn == "hi" ? (u >> 16) : (u & 0xffffu);
            }
            if (allow_undef && !symbols_.count(name) && !equates_.count(name))
                return 0;  // pass 1: size does not depend on the value
            return resolve_symbol(name, line);
        }
        throw AsmError(line, std::string("unexpected character '") + s[pos] + "'");
    }

    std::int64_t resolve_symbol(const std::string& name, std::size_t line) {
        if (const auto it = equates_.find(name); it != equates_.end())
            return it->second;
        if (const auto it = symbols_.find(name); it != symbols_.end())
            return it->second;
        throw AsmError(line, "undefined symbol: " + name);
    }

    // ---- operand parsing --------------------------------------------------
    std::uint8_t parse_reg(const std::string& text, std::size_t line) {
        const std::string t = lower(strip(text));
        if (t.size() < 2 || t[0] != 'r')
            throw AsmError(line, "expected register, got '" + text + "'");
        char* end = nullptr;
        const long v = std::strtol(t.c_str() + 1, &end, 10);
        if (*end != '\0' || v < 0 || v > 31)
            throw AsmError(line, "bad register '" + text + "'");
        return static_cast<std::uint8_t>(v);
    }

    /// Parses "imm(rA)" used by loads and stores.
    std::pair<std::int32_t, std::uint8_t> parse_mem(const std::string& text,
                                                    std::size_t line, bool emit) {
        const auto open = text.rfind('(');
        const auto close = text.rfind(')');
        if (open == std::string::npos || close == std::string::npos || close < open)
            throw AsmError(line, "expected mem operand imm(rA), got '" + text + "'");
        const std::string imm_text = strip(text.substr(0, open));
        const std::uint8_t ra = parse_reg(text.substr(open + 1, close - open - 1), line);
        const std::int64_t imm =
            imm_text.empty() ? 0 : eval(imm_text, line, /*allow_undef=*/!emit);
        return {static_cast<std::int32_t>(imm), ra};
    }

    /// Branch target: label (-> relative word offset) or literal offset.
    std::int32_t parse_branch_target(const std::string& text, std::size_t line,
                                     bool emit) {
        const std::string t = strip(text);
        const bool literal = !t.empty() && (std::isdigit(static_cast<unsigned char>(t[0])) ||
                                            t[0] == '-' || t[0] == '+');
        if (literal) return static_cast<std::int32_t>(eval(t, line, !emit));
        if (!emit) return 0;
        const std::int64_t target = resolve_symbol(t, line);
        const std::int64_t delta = target - static_cast<std::int64_t>(pc_);
        if (delta % 4 != 0) throw AsmError(line, "misaligned branch target " + t);
        return static_cast<std::int32_t>(delta / 4);
    }

    // ---- emission -----------------------------------------------------------
    void finish_section() {
        if (!cur_bytes_.empty()) {
            prog_.sections.push_back({cur_base_, std::move(cur_bytes_)});
            cur_bytes_.clear();
        }
    }

    void set_pc(std::uint32_t addr, std::size_t line) {
        if (addr % 4 != 0) throw AsmError(line, ".org address must be word-aligned");
        finish_section();
        cur_base_ = addr;
        pc_ = addr;
    }

    void emit_bytes(const std::uint8_t* data, std::size_t n, bool emit) {
        if (emit) {
            if (cur_bytes_.empty()) cur_base_ = pc_;
            cur_bytes_.insert(cur_bytes_.end(), data, data + n);
        }
        pc_ += static_cast<std::uint32_t>(n);
    }

    void emit_word(std::uint32_t w, bool emit) {
        const std::uint8_t bytes[4] = {
            static_cast<std::uint8_t>(w), static_cast<std::uint8_t>(w >> 8),
            static_cast<std::uint8_t>(w >> 16), static_cast<std::uint8_t>(w >> 24)};
        emit_bytes(bytes, 4, emit);
    }

    void emit_zero(std::size_t n, bool emit) {
        const std::uint8_t z = 0;
        for (std::size_t i = 0; i < n; ++i) emit_bytes(&z, 1, emit);
    }

    // ---- statement handling ---------------------------------------------
    void pass(bool emit) {
        pc_ = 0;
        cur_base_ = 0;
        cur_bytes_.clear();
        prog_.sections.clear();
        for (const Statement& st : statements_) {
            for (const std::string& label : st.labels) define_label(label, st.line, emit);
            if (st.head == ".end-labels") continue;
            if (st.head[0] == '.')
                directive(st, emit);
            else
                instruction(st, emit);
        }
    }

    void define_label(const std::string& name, std::size_t line, bool emit) {
        if (emit) return;  // defined during pass 1 only
        if (symbols_.count(name) || equates_.count(name))
            throw AsmError(line, "duplicate symbol: " + name);
        symbols_[name] = pc_;
    }

    void directive(const Statement& st, bool emit) {
        const std::string& d = st.head;
        auto need = [&](std::size_t n) {
            if (st.operands.size() != n)
                throw AsmError(st.line, d + " expects " + std::to_string(n) + " operand(s)");
        };
        if (d == ".org") {
            need(1);
            set_pc(static_cast<std::uint32_t>(eval(st.operands[0], st.line, !emit)),
                   st.line);
        } else if (d == ".entry") {
            need(1);
            entry_symbol_ = strip(st.operands[0]);
            entry_line_ = st.line;
        } else if (d == ".equ") {
            need(2);
            if (!emit) {
                const std::string name = strip(st.operands[0]);
                if (symbols_.count(name) || equates_.count(name))
                    throw AsmError(st.line, "duplicate symbol: " + name);
                equates_[name] = eval(st.operands[1], st.line, false);
            }
        } else if (d == ".word") {
            for (const auto& o : st.operands)
                emit_word(static_cast<std::uint32_t>(eval(o, st.line, !emit)), emit);
        } else if (d == ".half") {
            for (const auto& o : st.operands) {
                const auto v = static_cast<std::uint32_t>(eval(o, st.line, !emit));
                const std::uint8_t b[2] = {static_cast<std::uint8_t>(v),
                                           static_cast<std::uint8_t>(v >> 8)};
                emit_bytes(b, 2, emit);
            }
        } else if (d == ".byte") {
            for (const auto& o : st.operands) {
                const auto v = static_cast<std::uint8_t>(eval(o, st.line, !emit));
                emit_bytes(&v, 1, emit);
            }
        } else if (d == ".space") {
            need(1);
            emit_zero(static_cast<std::size_t>(eval(st.operands[0], st.line, false)),
                      emit);
        } else if (d == ".align") {
            need(1);
            const auto a = static_cast<std::uint32_t>(eval(st.operands[0], st.line, false));
            if (a == 0 || (a & (a - 1)) != 0)
                throw AsmError(st.line, ".align must be a power of two");
            emit_zero((a - (pc_ % a)) % a, emit);
        } else {
            throw AsmError(st.line, "unknown directive " + d);
        }
    }

    void instruction(const Statement& st, bool emit) {
        const auto op = op_from_mnemonic(st.head);
        if (!op) throw AsmError(st.line, "unknown mnemonic '" + st.head + "'");
        Instr i;
        i.op = *op;
        const auto& ops = st.operands;
        auto need = [&](std::size_t n) {
            if (ops.size() != n)
                throw AsmError(st.line, st.head + " expects " + std::to_string(n) +
                                            " operand(s), got " +
                                            std::to_string(ops.size()));
        };
        auto imm = [&](const std::string& text) {
            return static_cast<std::int32_t>(eval(text, st.line, /*allow_undef=*/!emit));
        };
        const Format format = op_info(*op).format;
        switch (format) {
            case Format::N26:
                need(1);
                i.imm = parse_branch_target(ops[0], st.line, emit);
                break;
            case Format::JumpReg:
                need(1);
                i.rb = parse_reg(ops[0], st.line);
                break;
            case Format::Nop:
                if (ops.size() > 1) need(1);
                i.imm = ops.empty() ? 0 : imm(ops[0]);
                break;
            case Format::Movhi:
                need(2);
                i.rd = parse_reg(ops[0], st.line);
                i.imm = static_cast<std::int32_t>(
                    static_cast<std::uint32_t>(imm(ops[1])) & 0xffffu);
                break;
            case Format::Load:
                need(2);
                i.rd = parse_reg(ops[0], st.line);
                std::tie(i.imm, i.ra) = parse_mem(ops[1], st.line, emit);
                break;
            case Format::Store:
                need(2);
                std::tie(i.imm, i.ra) = parse_mem(ops[0], st.line, emit);
                i.rb = parse_reg(ops[1], st.line);
                break;
            case Format::AluReg:
            case Format::AluImm:
            case Format::ShiftImm:
                need(3);
                i.rd = parse_reg(ops[0], st.line);
                i.ra = parse_reg(ops[1], st.line);
                if (format == Format::AluReg)
                    i.rb = parse_reg(ops[2], st.line);
                else
                    i.imm = imm(ops[2]);
                break;
            case Format::SetFlagReg:
            case Format::SetFlagImm:
                need(2);
                i.ra = parse_reg(ops[0], st.line);
                if (format == Format::SetFlagReg)
                    i.rb = parse_reg(ops[1], st.line);
                else
                    i.imm = imm(ops[1]);
                break;
        }
        std::uint32_t word = 0;
        if (emit) {
            try {
                word = encode(i);
            } catch (const std::out_of_range& e) {
                throw AsmError(st.line, e.what());
            }
        }
        emit_word(word, emit);
    }

    std::vector<Statement> statements_;
    std::map<std::string, std::uint32_t> symbols_;
    std::map<std::string, std::int64_t> equates_;
    std::string entry_symbol_;
    std::size_t entry_line_ = 0;
    Program prog_;
    std::uint32_t pc_ = 0;
    std::uint32_t cur_base_ = 0;
    std::vector<std::uint8_t> cur_bytes_;
};

}  // namespace

Program assemble(const std::string& source) {
    static std::atomic<std::uint64_t> next_build_id{1};
    AssemblerImpl impl;
    Program program = impl.run(source);
    program.build_id = next_build_id.fetch_add(1, std::memory_order_relaxed);
    return program;
}

}  // namespace sfi
