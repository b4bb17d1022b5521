//===- sexpr/Parser.h - S-expression reader ---------------------*- C++ -*-===//
///
/// \file
/// Parses Denali's parenthesized input syntax into SExpr trees, through a
/// tokenizer (Lexer) that other readers share. Comments run
/// from ';' to end of line (as in the paper's Figure 6). Symbols may contain
/// the characters used by Denali forms: backslash-prefixed keywords
/// (\axiom, \procdecl, ...), operators (+, <, :=, ->), and identifiers.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SEXPR_PARSER_H
#define DENALI_SEXPR_PARSER_H

#include "sexpr/SExpr.h"

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace denali {
namespace sexpr {

/// One token of the parenthesized syntax.
struct Token {
  enum class Kind { Open, Close, Integer, Symbol, End };
  Kind TheKind = Kind::End;
  /// The atom's characters (Integer and Symbol), a view into the input.
  std::string_view Text;
  int64_t Int = 0; ///< An Integer's value.
  /// 1-based start position; an End token sits where the input ran out.
  unsigned Line = 1;
  unsigned Col = 1;
  size_t Offset = 0; ///< Byte offset of the start.

  bool is(Kind K) const { return TheKind == K; }
  bool isSymbol(std::string_view S) const {
    return TheKind == Kind::Symbol && Text == S;
  }
};

/// The tokenizer shared by the SExpr reader below and the GMA request
/// reader (verify/GmaText.cpp), which interns terms straight from the
/// tokens. Tokenization is zero-copy: atoms are views into the input, and
/// runs of trivia (whitespace and ';' comments) are skipped in bulk. An
/// atom runs to the next parenthesis, ';' or whitespace; it is an Integer
/// when support's parseIntegerLiteral accepts it, else a Symbol.
class Lexer {
public:
  explicit Lexer(std::string_view Text) : Text(Text) {}

  /// The next token; End (repeatedly) once the input is exhausted.
  Token next();
  /// Byte offset just past the last token returned.
  size_t offset() const { return Pos; }

private:
  void skipTrivia();

  std::string_view Text;
  size_t Pos = 0;
  unsigned Line = 1;
  unsigned Col = 1;
};

/// A parse failure, with 1-based source position.
struct ParseError {
  std::string Message;
  unsigned Line = 0;
  unsigned Col = 0;

  std::string toString() const;
};

/// Result of parsing: either a vector of top-level forms or an error.
struct ParseResult {
  std::vector<SExpr> Forms;
  std::optional<ParseError> Error;

  bool ok() const { return !Error.has_value(); }
};

/// Parses all top-level S-expressions in \p Text.
ParseResult parse(const std::string &Text);

/// Parses exactly one S-expression; fails if there are zero or multiple
/// top-level forms.
ParseResult parseOne(const std::string &Text);

} // namespace sexpr
} // namespace denali

#endif // DENALI_SEXPR_PARSER_H
