// Token scanner for tcio-lint (DESIGN.md §12).
//
// tcio-lint deliberately does NOT parse C++: a full frontend (libclang)
// would tie the always-on lint tier to a pinned toolchain, which is exactly
// the failure mode that made the clang-tidy leg skippable. Instead the
// rules work over a faithful *token* stream — identifiers, literals,
// punctuation, each with a line number — plus the comment stream (where
// `NOLINT-TCIO(...)` suppressions and `LINT-EXPECT[...]` fixture
// annotations live). The lexer handles everything that would otherwise
// corrupt a token-level view: line/block comments, string/char literals
// (including raw strings), digit separators, and preprocessor directives
// with continuations.
#pragma once

#include <string>
#include <string_view>
#include <vector>

namespace tcio::lint {

enum class Tok {
  kIdent,   // identifiers and keywords (rules tell them apart by text)
  kNumber,  // numeric literal, text preserved
  kString,  // string literal, contents collapsed to ""
  kChar,    // char literal, contents collapsed to ''
  kPunct,   // one multi-char operator or single punctuation character
};

struct Token {
  Tok kind = Tok::kPunct;
  std::string text;
  int line = 0;
};

struct Comment {
  int line = 0;       // line the comment starts on
  std::string text;   // contents without the // or /* */ fencing
};

struct Include {
  int line = 0;        // line of the #include directive
  std::string header;  // name between <> or "", e.g. "immintrin.h"
};

struct LexedFile {
  std::vector<Token> tokens;
  std::vector<Comment> comments;
  std::vector<Include> includes;
};

/// Tokenizes `src`. Never fails: unterminated constructs lex as best-effort
/// up to end of input (a lint over a file that does not even compile should
/// degrade, not crash).
LexedFile lex(std::string_view src);

}  // namespace tcio::lint
