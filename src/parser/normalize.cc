#include "parser/normalize.h"

#include <cctype>

#include "common/string_util.h"

namespace ppp::parser {

namespace {

/// Keywords uppercased in the canonical text. Identifiers (table, column,
/// function names) keep their spelling: the engine treats them
/// case-sensitively, so folding them would merge distinct queries.
bool IsKeyword(const std::string& upper) {
  static const char* kKeywords[] = {
      "SELECT", "DISTINCT", "FROM",  "WHERE", "AND",   "OR",
      "NOT",    "AS",       "GROUP", "BY",    "HAVING", "ORDER",
      "EXPLAIN", "ANALYZE", "ASC",   "DESC",  "NULL",  "TRUE",
      "FALSE",  "IN",       "EXISTS", "LIMIT",
  };
  for (const char* k : kKeywords) {
    if (upper == k) return true;
  }
  return false;
}

std::string ToUpper(const std::string& text) {
  std::string out = text;
  for (char& c : out) c = static_cast<char>(std::toupper(c));
  return out;
}

void AppendToken(std::string* out, const std::string& token) {
  if (!out->empty()) out->push_back(' ');
  out->append(token);
}

/// "$N", the family text's hole for the N-th parameter.
std::string Placeholder(size_t n) {
  std::string out = "$";
  out += std::to_string(n);
  return out;
}

}  // namespace

common::Result<NormalizedQuery> NormalizeSql(const std::string& sql) {
  NormalizedQuery out;
  size_t pos = 0;
  // Mirrors the parser's lexer rules (identifier / number / string /
  // operator) so anything that parses also normalizes.
  while (true) {
    while (pos < sql.size() &&
           std::isspace(static_cast<unsigned char>(sql[pos]))) {
      ++pos;
    }
    if (pos >= sql.size()) break;
    const char c = sql[pos];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      const size_t start = pos;
      while (pos < sql.size() &&
             (std::isalnum(static_cast<unsigned char>(sql[pos])) ||
              sql[pos] == '_')) {
        ++pos;
      }
      std::string word = sql.substr(start, pos - start);
      const std::string upper = ToUpper(word);
      if (IsKeyword(upper)) word = upper;
      AppendToken(&out.text, word);
      AppendToken(&out.family_text, word);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      const size_t start = pos;
      while (pos < sql.size() &&
             (std::isdigit(static_cast<unsigned char>(sql[pos])) ||
              sql[pos] == '.')) {
        ++pos;
      }
      const std::string literal = sql.substr(start, pos - start);
      AppendToken(&out.text, literal);
      out.params.push_back(literal);
      out.param_kinds.push_back(literal.find('.') == std::string::npos
                                    ? ParamKind::kInt
                                    : ParamKind::kFloat);
      AppendToken(&out.family_text, Placeholder(out.params.size()));
      continue;
    }
    if (c == '$') {
      // Explicit placeholder: becomes a hole slot in both texts so that a
      // PREPARE body lands on the same family as the literal-carrying
      // statements it generalizes.
      const size_t start = ++pos;
      while (pos < sql.size() &&
             std::isdigit(static_cast<unsigned char>(sql[pos]))) {
        ++pos;
      }
      if (pos == start) {
        return common::Status::ParseError(
            "'$' must be followed by a parameter number in normalization");
      }
      const std::string digits = sql.substr(start, pos - start);
      const size_t expected = out.params.size() + 1;
      if (digits != std::to_string(expected)) {
        return common::Status::ParseError(common::StringPrintf(
            "placeholder $%s out of order: expected $%zu (slots must be "
            "numbered in order of appearance)",
            digits.c_str(), expected));
      }
      out.params.emplace_back();
      out.param_kinds.push_back(ParamKind::kHole);
      out.has_placeholders = true;
      const std::string token = "$" + digits;
      AppendToken(&out.text, token);
      AppendToken(&out.family_text, token);
      continue;
    }
    if (c == '\'') {
      const size_t start = ++pos;
      while (pos < sql.size() && sql[pos] != '\'') ++pos;
      if (pos >= sql.size()) {
        return common::Status::ParseError(
            "unterminated string literal in normalization");
      }
      const std::string literal = sql.substr(start, pos - start);
      ++pos;
      AppendToken(&out.text, "'" + literal + "'");
      out.params.push_back(literal);
      out.param_kinds.push_back(ParamKind::kString);
      AppendToken(&out.family_text, Placeholder(out.params.size()));
      continue;
    }
    static const char* kTwoChar[] = {"<=", ">=", "<>", "!="};
    bool matched = false;
    for (const char* op : kTwoChar) {
      if (sql.compare(pos, 2, op) == 0) {
        AppendToken(&out.text, op);
        AppendToken(&out.family_text, op);
        pos += 2;
        matched = true;
        break;
      }
    }
    if (matched) continue;
    static const std::string kOneChar = "(),.*=<>+-/;";
    if (kOneChar.find(c) != std::string::npos) {
      // Statement-terminating semicolons are formatting, not identity.
      if (c == ';') {
        ++pos;
        continue;
      }
      const std::string op(1, c);
      AppendToken(&out.text, op);
      AppendToken(&out.family_text, op);
      ++pos;
      continue;
    }
    return common::Status::ParseError(
        common::StringPrintf("unexpected character '%c' at offset %zu in "
                             "normalization",
                             c, pos));
  }
  out.text_hash = common::Fnv1aHash(out.text);
  out.family_hash = common::Fnv1aHash(out.family_text);
  return out;
}

}  // namespace ppp::parser
