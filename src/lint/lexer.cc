#include "lint/lexer.h"

#include <cctype>

namespace tcio::lint {

namespace {

bool identStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool identChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

// Multi-character operators that must stay one token so rules can match
// them (`->`, `::`, `...`). Longest match first.
const char* kOperators[] = {
    "...", "->*", "<<=", ">>=", "<=>", "::", "->", "++", "--", "<<", ">>",
    "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "*=", "/=", "%=",
    "&=", "|=", "^=",
};

/// Appends the header named by `directive` when it is an #include.
void recordInclude(std::string_view directive, int line,
                   std::vector<Include>* out) {
  std::size_t k = directive.find_first_not_of(" \t", 1);  // past the '#'
  if (k == std::string_view::npos ||
      directive.compare(k, 7, "include") != 0) {
    return;
  }
  k = directive.find_first_of("<\"", k + 7);
  if (k == std::string_view::npos) return;
  const std::size_t close = directive.find(directive[k] == '<' ? '>' : '"',
                                           k + 1);
  if (close == std::string_view::npos) return;
  out->push_back({line, std::string(directive.substr(k + 1, close - k - 1))});
}

}  // namespace

LexedFile lex(std::string_view src) {
  LexedFile out;
  std::size_t i = 0;
  int line = 1;
  const std::size_t n = src.size();

  const auto peek = [&](std::size_t ahead) -> char {
    return i + ahead < n ? src[i + ahead] : '\0';
  };

  while (i < n) {
    const char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    // Line comment.
    if (c == '/' && peek(1) == '/') {
      const int at = line;
      i += 2;
      std::size_t begin = i;
      while (i < n && src[i] != '\n') ++i;
      out.comments.push_back({at, std::string(src.substr(begin, i - begin))});
      continue;
    }
    // Block comment (may span lines; line counter must keep up).
    if (c == '/' && peek(1) == '*') {
      const int at = line;
      i += 2;
      std::size_t begin = i;
      while (i < n && !(src[i] == '*' && peek(1) == '/')) {
        if (src[i] == '\n') ++line;
        ++i;
      }
      out.comments.push_back({at, std::string(src.substr(begin, i - begin))});
      if (i < n) i += 2;  // closing */
      continue;
    }
    // Preprocessor directive: skip the whole logical line (continuations
    // included). Rules see source-level uses, not macro definitions, plus
    // the header each #include names. A trailing // comment is left to the
    // comment scanner, so suppressions and fixture annotations work on
    // directive lines too.
    if (c == '#') {
      const int at = line;
      const std::size_t begin = i;
      while (i < n && src[i] != '\n' && !(src[i] == '/' && peek(1) == '/')) {
        if (src[i] == '\\' && peek(1) == '\n') {
          ++line;
          i += 2;
          continue;
        }
        ++i;
      }
      recordInclude(src.substr(begin, i - begin), at, &out.includes);
      continue;
    }
    // Raw string literal R"delim( ... )delim".
    if (c == 'R' && peek(1) == '"') {
      std::size_t d = i + 2;
      std::string delim;
      while (d < n && src[d] != '(' && src[d] != '\n') delim += src[d++];
      const std::string closer = ")" + delim + "\"";
      std::size_t end = src.find(closer, d);
      out.tokens.push_back({Tok::kString, "\"\"", line});
      if (end == std::string_view::npos) {
        i = n;
      } else {
        for (std::size_t k = i; k < end; ++k) {
          if (src[k] == '\n') ++line;
        }
        i = end + closer.size();
      }
      continue;
    }
    // String / char literal. Contents are collapsed so nothing inside a
    // literal can masquerade as a token.
    if (c == '"' || c == '\'') {
      const char quote = c;
      ++i;
      while (i < n && src[i] != quote) {
        if (src[i] == '\\' && i + 1 < n) ++i;
        if (src[i] == '\n') ++line;  // unterminated; keep the count honest
        ++i;
      }
      if (i < n) ++i;  // closing quote
      out.tokens.push_back(
          {quote == '"' ? Tok::kString : Tok::kChar,
           quote == '"' ? std::string("\"\"") : std::string("''"), line});
      continue;
    }
    if (identStart(c)) {
      std::size_t begin = i;
      while (i < n && identChar(src[i])) ++i;
      out.tokens.push_back(
          {Tok::kIdent, std::string(src.substr(begin, i - begin)), line});
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c))) {
      std::size_t begin = i;
      // Good enough for a lint: digits, hex, separators, suffixes, and the
      // exponent sign (1.5e-3).
      while (i < n && (identChar(src[i]) || src[i] == '.' || src[i] == '\'' ||
                       ((src[i] == '+' || src[i] == '-') && i > begin &&
                        (src[i - 1] == 'e' || src[i - 1] == 'E' ||
                         src[i - 1] == 'p' || src[i - 1] == 'P')))) {
        ++i;
      }
      out.tokens.push_back(
          {Tok::kNumber, std::string(src.substr(begin, i - begin)), line});
      continue;
    }
    // Punctuation: longest operator match, else a single character.
    bool matched = false;
    for (const char* op : kOperators) {
      const std::string_view sv(op);
      if (src.substr(i, sv.size()) == sv) {
        out.tokens.push_back({Tok::kPunct, std::string(sv), line});
        i += sv.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      out.tokens.push_back({Tok::kPunct, std::string(1, c), line});
      ++i;
    }
  }
  return out;
}

}  // namespace tcio::lint
