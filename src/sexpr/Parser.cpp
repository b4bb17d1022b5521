//===- sexpr/Parser.cpp ---------------------------------------------------===//

#include "sexpr/Parser.h"

#include "obs/Obs.h"
#include "support/StringExtras.h"

#include <string_view>

using namespace denali;
using namespace denali::sexpr;

std::string ParseError::toString() const {
  return strFormat("%u:%u: %s", Line, Col, Message.c_str());
}

namespace {

/// std::isspace in the "C" locale (the only one the tools run in), inline:
/// the lexer tests every input character.
bool isSpace(char C) { return C == ' ' || (C >= '\t' && C <= '\r'); }

} // namespace

void Lexer::skipTrivia() {
  while (Pos < Text.size()) {
    char C = Text[Pos];
    if (isSpace(C)) {
      // Bulk-skip the whitespace run, counting newlines once.
      size_t Start = Pos;
      size_t LastNewline = std::string_view::npos;
      while (Pos < Text.size() && isSpace(Text[Pos])) {
        if (Text[Pos] == '\n') {
          ++Line;
          LastNewline = Pos;
        }
        ++Pos;
      }
      if (LastNewline != std::string_view::npos)
        Col = static_cast<unsigned>(Pos - LastNewline);
      else
        Col += static_cast<unsigned>(Pos - Start);
      continue;
    }
    if (C == ';') {
      // Comment to end of line: one find instead of a char loop.
      size_t Nl = Text.find('\n', Pos);
      if (Nl == std::string_view::npos) {
        Col += static_cast<unsigned>(Text.size() - Pos);
        Pos = Text.size();
      } else {
        Col += static_cast<unsigned>(Nl - Pos);
        Pos = Nl; // The newline itself is whitespace; next iteration.
      }
      continue;
    }
    break;
  }
}

Token Lexer::next() {
  skipTrivia();
  Token T;
  T.Line = Line;
  T.Col = Col;
  T.Offset = Pos;
  if (Pos >= Text.size())
    return T; // End.
  char C = Text[Pos];
  if (C == '(' || C == ')') {
    T.TheKind = C == '(' ? Token::Kind::Open : Token::Kind::Close;
    ++Pos;
    ++Col;
    return T;
  }
  // Atom: scan to the next delimiter. Delimiters include every whitespace
  // character, so a token never contains a newline and the position
  // bookkeeping is a single add.
  size_t Start = Pos;
  while (Pos < Text.size()) {
    char D = Text[Pos];
    if (D == '(' || D == ')' || D == ';' || isSpace(D))
      break;
    ++Pos;
  }
  Col += static_cast<unsigned>(Pos - Start);
  T.Text = Text.substr(Start, Pos - Start);
  T.TheKind = parseIntegerLiteral(T.Text, T.Int) ? Token::Kind::Integer
                                                 : Token::Kind::Symbol;
  return T;
}

namespace {

/// Recursive-descent tree builder over the Lexer's tokens. The only
/// per-token allocation is the std::string a *symbol* atom hands to
/// SExpr::makeSymbol (integer atoms allocate nothing).
class Reader {
public:
  explicit Reader(std::string_view Text) : Lex(Text) {}

  ParseResult readAll() {
    ParseResult Result;
    for (Token T = Lex.next(); !T.is(Token::Kind::End); T = Lex.next()) {
      SExpr E;
      if (!readExpr(T, E, Result))
        return Result;
      Result.Forms.push_back(std::move(E));
    }
    return Result;
  }

private:
  Lexer Lex;

  static bool fail(ParseResult &Result, const Token &At, std::string Msg) {
    Result.Error = ParseError{std::move(Msg), At.Line, At.Col};
    return false;
  }

  bool readExpr(const Token &T, SExpr &Out, ParseResult &Result) {
    switch (T.TheKind) {
    case Token::Kind::End:
      return fail(Result, T, "unexpected end of input");
    case Token::Kind::Close:
      return fail(Result, T, "unexpected ')'");
    case Token::Kind::Integer:
      Out = SExpr::makeInteger(T.Int, T.Line, T.Col);
      return true;
    case Token::Kind::Symbol:
      Out = SExpr::makeSymbol(std::string(T.Text), T.Line, T.Col);
      return true;
    case Token::Kind::Open:
      break;
    }
    std::vector<SExpr> Elems;
    for (;;) {
      Token E = Lex.next();
      if (E.is(Token::Kind::End))
        return fail(Result, E, "unterminated list (missing ')')");
      if (E.is(Token::Kind::Close))
        break;
      SExpr Child;
      if (!readExpr(E, Child, Result))
        return false;
      Elems.push_back(std::move(Child));
    }
    Out = SExpr::makeList(std::move(Elems), T.Line, T.Col);
    return true;
  }
};

} // namespace

ParseResult denali::sexpr::parse(const std::string &Text) {
  obs::ObsSpan Span("sexpr.parse");
  ParseResult Result = Reader(Text).readAll();
  if (Span.active())
    Span.arg("bytes", static_cast<uint64_t>(Text.size()))
        .arg("forms", static_cast<uint64_t>(Result.Forms.size()))
        .arg("ok", Result.ok() ? "yes" : "no");
  return Result;
}

ParseResult denali::sexpr::parseOne(const std::string &Text) {
  ParseResult Result = parse(Text);
  if (!Result.ok())
    return Result;
  if (Result.Forms.size() != 1) {
    Result.Error = ParseError{
        strFormat("expected exactly one form, found %zu", Result.Forms.size()),
        1, 1};
    Result.Forms.clear();
  }
  return Result;
}
