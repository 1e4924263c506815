// .gkd parsing with positioned errors. Accepts the canonical serializer
// output plus comments and flexible whitespace; every structural rule that
// Program::validate()/KernelInfo::validate() would abort on is caught here
// first and reported as a ParseError with a 1-based line:column.
#include <memory>
#include <optional>
#include <vector>

#include "common/io.h"
#include "isa/text.h"
#include "workloads/format/gkd.h"

namespace grs::workloads::gkd {

ParseError::ParseError(const std::string& file, int line, int col, const std::string& message)
    : std::runtime_error(file + ":" + std::to_string(line) + ":" + std::to_string(col) + ": " +
                         message),
      line_(line),
      col_(col) {}

namespace {

struct Token {
  std::string text;
  int col = 0;  ///< 1-based column of the first character
  bool quoted = false;
};

struct TokenLine {
  int number = 0;  ///< 1-based source line
  std::vector<Token> toks;
};

/// Maximum header values the format accepts; keeps downstream u32 resource
/// arithmetic (regs_per_block = regs * threads) far from overflow.
constexpr std::uint64_t kMaxThreads = 1u << 16;
constexpr std::uint64_t kMaxRegs = 4096;

class Parser {
 public:
  Parser(const std::string& text, const std::string& filename, SourceLines* where)
      : file_(filename), where_(where) {
    split_lines(text);
  }

  KernelInfo run() {
    parse_magic();
    parse_header();
    while (cursor_ < lines_.size()) parse_segment();
    return finish();
  }

 private:
  [[noreturn]] void fail(int line, int col, const std::string& msg) const {
    throw ParseError(file_, line, col, msg);
  }
  [[noreturn]] void fail_at(const TokenLine& l, const Token& t, const std::string& msg) const {
    fail(l.number, t.col, msg);
  }

  void split_lines(const std::string& text) {
    std::string line;
    int number = 0;
    std::size_t pos = 0;
    while (pos <= text.size()) {
      const std::size_t nl = text.find('\n', pos);
      line = text.substr(pos, nl == std::string::npos ? std::string::npos : nl - pos);
      ++number;
      TokenLine tl{number, tokenize(line, number)};
      if (!tl.toks.empty()) lines_.push_back(std::move(tl));
      if (nl == std::string::npos) break;
      pos = nl + 1;
    }
    end_line_ = number + 1;
  }

  std::vector<Token> tokenize(const std::string& line, int number) const {
    std::vector<Token> toks;
    std::size_t i = 0;
    while (i < line.size()) {
      const char c = line[i];
      if (c == ' ' || c == '\t' || c == '\r') {
        ++i;
      } else if (c == '#') {
        break;
      } else if (c == '"') {
        const int col = static_cast<int>(i) + 1;
        std::string value;
        ++i;
        bool closed = false;
        while (i < line.size()) {
          if (line[i] == '\\' && i + 1 < line.size()) {
            value += line[i + 1];
            i += 2;
          } else if (line[i] == '"') {
            ++i;
            closed = true;
            break;
          } else {
            value += line[i];
            ++i;
          }
        }
        if (!closed) fail(number, col, "unterminated string");
        toks.push_back(Token{value, col, true});
      } else if (c == ',' || c == '{' || c == '}') {
        toks.push_back(Token{std::string(1, c), static_cast<int>(i) + 1, false});
        ++i;
      } else {
        const std::size_t start = i;
        while (i < line.size() && line[i] != ' ' && line[i] != '\t' && line[i] != '\r' &&
               line[i] != ',' && line[i] != '{' && line[i] != '}' && line[i] != '"' &&
               line[i] != '#') {
          ++i;
        }
        toks.push_back(
            Token{line.substr(start, i - start), static_cast<int>(start) + 1, false});
      }
    }
    return toks;
  }

  // --- token-level helpers -------------------------------------------------

  std::uint64_t parse_number(const TokenLine& l, const Token& t, const std::string& what) const {
    if (t.quoted || t.text.empty()) fail_at(l, t, "expected a number for " + what);
    std::uint64_t v = 0;
    for (char c : t.text) {
      if (c < '0' || c > '9') {
        fail_at(l, t, "expected a number for " + what + ", got '" + t.text + "'");
      }
      if (v > (UINT64_MAX - static_cast<std::uint64_t>(c - '0')) / 10) {
        fail_at(l, t, what + " is out of range");
      }
      v = v * 10 + static_cast<std::uint64_t>(c - '0');
    }
    return v;
  }

  /// "$rN" or "-"; checks the register number against the declared count.
  RegNum parse_reg(const TokenLine& l, const Token& t) const {
    if (t.text == "-") return kNoReg;
    if (t.text.size() < 3 || t.text[0] != '$' || t.text[1] != 'r') {
      fail_at(l, t, "expected a register operand ($rN or -), got '" + t.text + "'");
    }
    const Token digits{t.text.substr(2), t.col + 2, false};
    const std::uint64_t v = parse_number(l, digits, "register number");
    if (v >= regs_) {
      fail_at(l, t,
              "register $r" + std::to_string(v) + " out of range; kernel declares " +
                  std::to_string(regs_) + " registers");
    }
    return static_cast<RegNum>(v);
  }

  // --- grammar -------------------------------------------------------------

  void parse_magic() {
    if (lines_.empty()) fail(end_line_, 1, "empty document; expected 'gkd 1' magic header");
    const TokenLine& l = lines_[cursor_];
    if (l.toks[0].quoted || l.toks[0].text != "gkd") {
      fail_at(l, l.toks[0], "expected 'gkd 1' magic header");
    }
    if (l.toks.size() != 2) fail_at(l, l.toks[0], "expected 'gkd 1' magic header");
    const std::uint64_t version = parse_number(l, l.toks[1], "gkd version");
    if (version != 1) {
      fail_at(l, l.toks[1],
              "unsupported gkd version " + std::to_string(version) + " (this build reads 1)");
    }
    ++cursor_;
  }

  void header_string(const TokenLine& l, std::optional<std::string>& slot) {
    if (slot.has_value()) fail_at(l, l.toks[0], "duplicate header field '" + l.toks[0].text + "'");
    if (l.toks.size() != 2 || !l.toks[1].quoted) {
      fail_at(l, l.toks[0], "'" + l.toks[0].text + "' expects one quoted string");
    }
    slot = l.toks[1].text;
  }

  void header_number(const TokenLine& l, std::optional<std::uint64_t>& slot) {
    if (slot.has_value()) fail_at(l, l.toks[0], "duplicate header field '" + l.toks[0].text + "'");
    if (l.toks.size() != 2) fail_at(l, l.toks[0], "'" + l.toks[0].text + "' expects one number");
    slot = parse_number(l, l.toks[1], l.toks[0].text);
  }

  void parse_header() {
    std::optional<std::string> name, suite, set;
    std::optional<std::uint64_t> threads, regs, smem, grid, lanes;
    while (cursor_ < lines_.size()) {
      const TokenLine& l = lines_[cursor_];
      const Token& key = l.toks[0];
      if (key.quoted) fail_at(l, key, "expected a header field or 'segment'");
      if (key.text == "segment") break;
      if (key.text == "kernel") {
        header_string(l, name);
      } else if (key.text == "suite") {
        header_string(l, suite);
      } else if (key.text == "set") {
        header_string(l, set);
      } else if (key.text == "threads") {
        header_number(l, threads);
      } else if (key.text == "regs") {
        header_number(l, regs);
      } else if (key.text == "smem") {
        header_number(l, smem);
      } else if (key.text == "grid") {
        header_number(l, grid);
      } else if (key.text == "lanes") {
        header_number(l, lanes);
      } else {
        fail_at(l, key,
                "unknown header field '" + key.text +
                    "' (valid: kernel suite set threads regs smem grid lanes)");
      }
      if (where_ != nullptr) where_->header[key.text] = l.number;
      ++cursor_;
    }
    const int here = cursor_ < lines_.size() ? lines_[cursor_].number : end_line_;
    auto require = [&](const auto& slot, const char* field) {
      if (!slot.has_value()) {
        fail(here, 1, std::string("missing required header field '") + field + "'");
      }
    };
    require(name, "kernel");
    require(threads, "threads");
    require(regs, "regs");
    require(grid, "grid");
    if (name->empty()) fail(here, 1, "kernel name must not be empty");
    if (*threads < 1 || *threads > kMaxThreads) {
      fail(here, 1, "threads must be in [1, " + std::to_string(kMaxThreads) + "]");
    }
    if (*regs < 1 || *regs > kMaxRegs) {
      fail(here, 1, "regs must be in [1, " + std::to_string(kMaxRegs) + "]");
    }
    if (*grid < 1 || *grid > UINT32_MAX) fail(here, 1, "grid must be in [1, 2^32)");
    if (smem.value_or(0) > UINT32_MAX) fail(here, 1, "smem is out of range");
    if (lanes.value_or(32) < 1 || lanes.value_or(32) > 32) {
      fail(here, 1, "lanes must be in [1, 32]");
    }
    kernel_.name = *name;
    kernel_.suite = suite.value_or("");
    kernel_.set = set.value_or("");
    kernel_.resources.threads_per_block = static_cast<std::uint32_t>(*threads);
    kernel_.resources.regs_per_thread = static_cast<std::uint32_t>(*regs);
    kernel_.resources.smem_per_block = static_cast<std::uint32_t>(smem.value_or(0));
    kernel_.grid_blocks = static_cast<std::uint32_t>(*grid);
    kernel_.active_lanes = static_cast<std::uint32_t>(lanes.value_or(32));
    regs_ = static_cast<std::uint32_t>(*regs);
    smem_ = kernel_.resources.smem_per_block;
  }

  void parse_segment() {
    const TokenLine& head = lines_[cursor_];
    if (head.toks[0].quoted || head.toks[0].text != "segment") {
      fail_at(head, head.toks[0], "expected 'segment xN {'");
    }
    if (head.toks.size() != 3 || head.toks[2].text != "{") {
      fail_at(head, head.toks[0], "expected 'segment xN {'");
    }
    const Token& iters_tok = head.toks[1];
    if (iters_tok.quoted || iters_tok.text.size() < 2 || iters_tok.text[0] != 'x') {
      fail_at(head, iters_tok, "expected an iteration count xN");
    }
    const Token digits{iters_tok.text.substr(1), iters_tok.col + 1, false};
    const std::uint64_t iters = parse_number(head, digits, "iteration count");
    if (iters < 1 || iters > UINT32_MAX) {
      fail_at(head, iters_tok, "segment iteration count must be in [1, 2^32)");
    }
    ++cursor_;

    Segment seg;
    seg.iterations = static_cast<std::uint32_t>(iters);
    bool closed = false;
    while (cursor_ < lines_.size()) {
      const TokenLine& l = lines_[cursor_];
      if (l.toks[0].text == "}" && !l.toks[0].quoted) {
        if (l.toks.size() != 1) fail_at(l, l.toks[1], "unexpected token after '}'");
        if (seg.instrs.empty()) fail_at(l, l.toks[0], "empty segment");
        ++cursor_;
        closed = true;
        break;
      }
      seg.instrs.push_back(parse_instruction(l));
      if (where_ != nullptr) where_->instructions.push_back(l.number);
      ++cursor_;
    }
    if (!closed) fail(end_line_, 1, "unterminated segment (missing '}')");
    segments_.push_back(std::move(seg));
  }

  Instruction parse_instruction(const TokenLine& l) {
    const Token& op_tok = l.toks[0];
    if (op_tok.quoted) fail_at(l, op_tok, "expected an opcode");
    const std::optional<Op> op = op_from_string(op_tok.text);
    if (!op.has_value()) {
      fail_at(l, op_tok,
              "unknown opcode '" + op_tok.text + "' (valid: " + all_op_names() + ")");
    }
    Instruction i;
    i.op = *op;
    std::size_t pos = 1;
    auto done = [&]() { return pos >= l.toks.size(); };
    auto cur = [&]() -> const Token& { return l.toks[pos]; };
    auto expect_comma = [&]() {
      if (done() || cur().text != ",") {
        fail(l.number, done() ? last_col(l) : cur().col, "expected ','");
      }
      ++pos;
    };
    auto expect_operand = [&](const char* what) -> const Token& {
      if (done()) fail(l.number, last_col(l), std::string("expected ") + what);
      return l.toks[pos++];
    };

    switch (*op) {
      case Op::kAlu:
      case Op::kSfu: {
        RegNum* slots[3] = {&i.dst, &i.src0, &i.src1};
        for (int k = 0; k < 3 && !done(); ++k) {
          if (k > 0) expect_comma();
          *slots[k] = parse_reg(l, expect_operand("a register operand"));
        }
        break;
      }
      case Op::kLdGlobal:
      case Op::kStGlobal: {
        const Token& reg = expect_operand("a register operand");
        if (*op == Op::kLdGlobal) {
          i.dst = parse_reg(l, reg);
        } else {
          i.src0 = parse_reg(l, reg);
        }
        expect_comma();
        const Token& pat = expect_operand("a memory pattern");
        const std::optional<MemPattern> pattern = mem_pattern_from_string(pat.text);
        if (!pattern.has_value()) {
          fail_at(l, pat,
                  "unknown memory pattern '" + pat.text + "' (valid: " +
                      all_mem_pattern_names() + ")");
        }
        i.pattern = *pattern;
        const Token& loc = expect_operand("a locality");
        const std::optional<Locality> locality = locality_from_string(loc.text);
        if (!locality.has_value()) {
          fail_at(l, loc,
                  "unknown locality '" + loc.text + "' (valid: " + all_locality_names() + ")");
        }
        i.locality = *locality;
        const std::uint64_t region = parse_keyed_number(l, expect_operand("region=N"), "region");
        if (region > 255) fail_at(l, l.toks[pos - 1], "region must be <= 255");
        i.region = static_cast<std::uint8_t>(region);
        const std::uint64_t lines = parse_keyed_number(l, expect_operand("lines=N"), "lines");
        if (lines > UINT32_MAX) fail_at(l, l.toks[pos - 1], "lines is out of range");
        i.footprint_lines = static_cast<std::uint32_t>(lines);
        if (!done() && *op == Op::kLdGlobal && !cur().quoted &&
            cur().text.compare(0, 5, "addr=") == 0) {
          const Token& addr = l.toks[pos++];
          const Token reg_tok{addr.text.substr(5), addr.col + 5, false};
          i.src0 = parse_reg(l, reg_tok);
        }
        if (!done() && !cur().quoted && cur().text == "profile") {
          const Token& kw = l.toks[pos++];
          if (done() || cur().quoted || cur().text != "{") {
            fail(l.number, done() ? last_col(l) : cur().col, "expected '{' after 'profile'");
          }
          ++pos;
          if (!done()) fail_at(l, cur(), "unexpected token after 'profile {'");
          i.profile = parse_profile_block(l, kw);
        }
        break;
      }
      case Op::kLdShared:
      case Op::kStShared: {
        const Token& reg = expect_operand("a register operand");
        if (*op == Op::kLdShared) {
          i.dst = parse_reg(l, reg);
        } else {
          i.src0 = parse_reg(l, reg);
        }
        expect_comma();
        const Token& off = expect_operand("smem[OFFSET]");
        i.smem_offset = parse_smem_offset(l, off);
        break;
      }
      case Op::kBarrier:
        break;
      case Op::kExit:
        if (exit_line_ != 0) {
          fail_at(l, op_tok, "program must contain exactly one exit");
        }
        exit_line_ = l.number;
        exit_col_ = op_tok.col;
        exit_seg_ = segments_.size();  // index of the segment being parsed
        break;
    }
    if (!done()) {
      fail_at(l, cur(), "unexpected token '" + cur().text + "' after '" + op_tok.text + "'");
    }
    if (i.op == Op::kExit) exit_is_last_in_seg_ = true;
    if (i.op != Op::kExit && exit_line_ != 0 && exit_seg_ == segments_.size()) {
      exit_is_last_in_seg_ = false;
    }
    return i;
  }

  /// One `value:weight` histogram entry; `cold` is legal only in `reuse`.
  ProfileBucket parse_bucket(const TokenLine& l, const Token& t, bool allow_cold) {
    const std::size_t colon = t.text.find(':');
    if (t.quoted || colon == std::string::npos || colon == 0 ||
        colon + 1 >= t.text.size()) {
      fail_at(l, t, "expected a VALUE:WEIGHT histogram entry, got '" + t.text + "'");
    }
    ProfileBucket b;
    const std::string value = t.text.substr(0, colon);
    if (value == "cold") {
      if (!allow_cold) fail_at(l, t, "'cold' is only valid in the reuse histogram");
      b.value = MemProfile::kColdReuse;
    } else {
      const bool neg = value[0] == '-';
      const Token digits{value.substr(neg ? 1 : 0), t.col + (neg ? 1 : 0), false};
      const std::uint64_t v = parse_number(l, digits, "histogram value");
      if (v > static_cast<std::uint64_t>(INT64_MAX)) {
        fail_at(l, t, "histogram value is out of range");
      }
      b.value = neg ? -static_cast<std::int64_t>(v) : static_cast<std::int64_t>(v);
    }
    const Token weight{t.text.substr(colon + 1), t.col + static_cast<int>(colon) + 1, false};
    b.weight = parse_number(l, weight, "histogram weight");
    if (b.weight == 0) fail_at(l, weight, "histogram weight must be >= 1");
    return b;
  }

  void parse_profile_hist(const TokenLine& l, std::vector<ProfileBucket>& out, bool& seen,
                          bool allow_cold) {
    if (seen) fail_at(l, l.toks[0], "duplicate profile field '" + l.toks[0].text + "'");
    seen = true;
    if (l.toks.size() < 2) {
      fail(l.number, last_col(l), "'" + l.toks[0].text + "' expects VALUE:WEIGHT entries");
    }
    for (std::size_t k = 1; k < l.toks.size(); ++k) {
      out.push_back(parse_bucket(l, l.toks[k], allow_cold));
    }
  }

  /// The multi-line `profile { ... }` block opened on `head`; consumes lines
  /// up to its closing '}' and leaves cursor_ on that line (the segment loop
  /// steps past it).
  std::shared_ptr<const MemProfile> parse_profile_block(const TokenLine& head,
                                                        const Token& kw) {
    MemProfile p;
    bool coalesce = false, stride = false, reuse = false, footprint = false;
    ++cursor_;
    bool closed = false;
    while (cursor_ < lines_.size()) {
      const TokenLine& l = lines_[cursor_];
      const Token& key = l.toks[0];
      if (!key.quoted && key.text == "}") {
        if (l.toks.size() != 1) fail_at(l, l.toks[1], "unexpected token after '}'");
        closed = true;
        break;
      }
      if (key.quoted) fail_at(l, key, "expected a profile field or '}'");
      if (key.text == "coalesce") {
        parse_profile_hist(l, p.coalesce, coalesce, false);
      } else if (key.text == "stride") {
        parse_profile_hist(l, p.stride, stride, false);
      } else if (key.text == "reuse") {
        parse_profile_hist(l, p.reuse, reuse, true);
      } else if (key.text == "footprint") {
        if (footprint) fail_at(l, key, "duplicate profile field 'footprint'");
        footprint = true;
        if (l.toks.size() != 2) fail_at(l, key, "'footprint' expects one number");
        p.footprint_lines = parse_number(l, l.toks[1], "footprint");
      } else {
        fail_at(l, key,
                "unknown profile field '" + key.text +
                    "' (valid: coalesce stride reuse footprint)");
      }
      ++cursor_;
    }
    if (!closed) fail(end_line_, 1, "unterminated profile block (missing '}')");
    auto require = [&](bool seen, const char* field) {
      if (!seen) {
        fail(lines_[cursor_].number, lines_[cursor_].toks[0].col,
             std::string("profile block is missing the '") + field + "' field");
      }
    };
    require(coalesce, "coalesce");
    require(stride, "stride");
    require(reuse, "reuse");
    require(footprint, "footprint");
    p.canonicalize();
    if (const std::string e = p.check(); !e.empty()) {
      fail_at(head, kw, "invalid profile: " + e);
    }
    return std::make_shared<const MemProfile>(std::move(p));
  }

  std::uint64_t parse_keyed_number(const TokenLine& l, const Token& t, const std::string& key) {
    const std::string prefix = key + "=";
    if (t.quoted || t.text.compare(0, prefix.size(), prefix) != 0) {
      fail_at(l, t, "expected " + key + "=N, got '" + t.text + "'");
    }
    const Token digits{t.text.substr(prefix.size()), t.col + static_cast<int>(prefix.size()),
                       false};
    return parse_number(l, digits, key);
  }

  std::uint32_t parse_smem_offset(const TokenLine& l, const Token& t) const {
    if (t.quoted || t.text.compare(0, 5, "smem[") != 0 || t.text.back() != ']') {
      fail_at(l, t, "expected smem[OFFSET], got '" + t.text + "'");
    }
    const Token digits{t.text.substr(5, t.text.size() - 6), t.col + 5, false};
    const std::uint64_t off = parse_number(l, digits, "scratchpad offset");
    if (smem_ == 0) {
      fail_at(l, t, "scratchpad access in a kernel that declares smem 0");
    }
    if (off >= smem_) {
      fail_at(l, t,
              "scratchpad offset " + std::to_string(off) + " is outside the " +
                  std::to_string(smem_) + "-byte block allocation");
    }
    return static_cast<std::uint32_t>(off);
  }

  int last_col(const TokenLine& l) const {
    const Token& t = l.toks.back();
    return t.col + static_cast<int>(t.text.size());
  }

  KernelInfo finish() {
    if (segments_.empty()) fail(end_line_, 1, "document has no segments");
    if (exit_line_ == 0) fail(end_line_, 1, "program must end with an 'exit' instruction");
    if (exit_seg_ != segments_.size() - 1 || !exit_is_last_in_seg_) {
      fail(exit_line_, exit_col_, "exit must be the last instruction of the last segment");
    }
    if (segments_.back().iterations != 1) {
      fail(exit_line_, exit_col_, "the exit segment must run exactly once (x1)");
    }
    kernel_.program = Program(std::move(segments_), static_cast<RegNum>(regs_));
    // Belt and braces: the checks above are a superset of validate()'s, so a
    // failure here is a loader bug, not bad input.
    kernel_.validate();
    return std::move(kernel_);
  }

  std::string file_;
  SourceLines* where_;
  std::vector<TokenLine> lines_;
  std::size_t cursor_ = 0;
  int end_line_ = 1;  ///< 1-based line just past the document, for EOF errors

  KernelInfo kernel_;
  std::uint32_t regs_ = 0;
  std::uint32_t smem_ = 0;
  std::vector<Segment> segments_;
  int exit_line_ = 0;
  int exit_col_ = 0;
  std::size_t exit_seg_ = 0;
  bool exit_is_last_in_seg_ = false;
};

}  // namespace

KernelInfo parse(const std::string& text, const std::string& filename, SourceLines* lines) {
  return Parser(text, filename, lines).run();
}

KernelInfo load_file(const std::string& path) {
  const std::optional<std::string> text = read_file(path);
  if (!text.has_value()) throw std::runtime_error("cannot open " + path);
  return parse(*text, path);
}

void dump_file(const KernelInfo& k, const std::string& path) { write_file(path, serialize(k)); }

}  // namespace grs::workloads::gkd
