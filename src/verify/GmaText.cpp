//===- verify/GmaText.cpp -------------------------------------------------===//

#include "verify/GmaText.h"

#include "sexpr/Parser.h"
#include "support/StringExtras.h"

#include <span>
#include <string_view>

using namespace denali;
using namespace denali::verify;

std::string denali::verify::printTerm(const ir::Context &Ctx, ir::TermId T) {
  const ir::TermNode &N = Ctx.Terms.node(T);
  const ir::OpInfo &Info = Ctx.Ops.info(N.Op);
  if (Ctx.Ops.isConst(N.Op))
    return strFormat("%llu", (unsigned long long)N.ConstVal);
  if (N.Children.empty())
    return Info.Name;
  std::string Out = "(" + Info.Name;
  for (ir::TermId C : N.Children)
    Out += " " + printTerm(Ctx, C);
  return Out + ")";
}

std::string denali::verify::printGma(const ir::Context &Ctx,
                                     const gma::GMA &G) {
  // Names are concatenated, not formatted with %s: a symbol may hold any
  // byte but a delimiter, NUL included.
  std::string Out =
      "(gma " + (G.Name.empty() ? std::string("unnamed") : G.Name);
  for (size_t I = 0; I < G.Targets.size(); ++I)
    Out += "\n  (assign " + G.Targets[I] + " " +
           printTerm(Ctx, G.NewVals[I]) + ")";
  if (G.Guard)
    Out += "\n  (guard " + printTerm(Ctx, *G.Guard) + ")";
  for (ir::TermId A : G.MissAddrs)
    Out += "\n  (miss " + printTerm(Ctx, A) + ")";
  for (const gma::GMA::Assumption &A : G.Assumptions)
    Out += std::string("\n  (assume ") + (A.IsEq ? "eq " : "neq ") +
           printTerm(Ctx, A.Lhs) + " " + printTerm(Ctx, A.Rhs) + ")";
  return Out + ")";
}

namespace {

using sexpr::Token;
using Kind = sexpr::Token::Kind;

/// Renders the form spelled by \p Span the way an SExpr prints (single
/// spaces, integers in decimal), for the unrecognized-clause message.
std::string renderForm(std::string_view Span) {
  std::string Out;
  sexpr::Lexer Lex(Span);
  bool AfterOpen = true;
  for (Token T = Lex.next(); !T.is(Kind::End); T = Lex.next()) {
    if (!T.is(Kind::Close) && !AfterOpen)
      Out += ' ';
    if (T.is(Kind::Open))
      Out += '(';
    else if (T.is(Kind::Close))
      Out += ')';
    else if (T.is(Kind::Integer))
      Out += std::to_string(T.Int);
    else
      Out += T.Text;
    AfterOpen = T.is(Kind::Open);
  }
  return Out;
}

/// Reads one (gma ...) form, or one term, from the shared Lexer's tokens
/// straight into interned terms; no SExpr tree is built. The errors, and
/// which one wins, are those of a walk over the parsed tree:
///   1. the first syntax error anywhere in the text, else a count of
///      top-level forms other than one;
///   2. else the first failing check in pre-order, where a form's own
///      checks (its head, its size, its arity) come before any error
///      inside its operands.
/// A form's size is known only at its ')', so an operand's error is held
/// until the enclosing form closes. Once a semantic error is held, the
/// rest of the text is only scanned for syntax and nothing more is
/// interned. Terms nest on an explicit stack, not the C++ stack, as deep
/// as the Lexer lets parentheses nest (sexpr::MaxNesting): a deeper one
/// ends the text there, and the syntax error reported is the Lexer's.
class GmaReader {
public:
  GmaReader(ir::Context &Ctx, std::string_view Text)
      : Ctx(Ctx), Text(Text), Lex(Text) {}

  std::optional<gma::GMA> readGma(std::string *ErrorOut) {
    gma::GMA G;
    Token T = Lex.next();
    if (!T.is(Kind::End) && !T.is(Kind::Close)) {
      Forms = 1;
      if (T.is(Kind::Open))
        readGmaBody(G);
      else
        Err = "expected (gma <name> <clause>...)";
      if (Err.empty() && SyntaxErr.empty() && G.Targets.empty())
        Err = "gma has no assign clause";
      T = Lex.next();
    }
    if (!finish(T, ErrorOut))
      return std::nullopt;
    return G;
  }

  std::optional<ir::TermId> readOneTerm(std::string *ErrorOut) {
    ir::TermId Out = 0;
    Token T = Lex.next();
    if (!T.is(Kind::End) && !T.is(Kind::Close)) {
      Forms = 1;
      readTerm(T, Out, Err);
      T = Lex.next();
    }
    if (!finish(T, ErrorOut))
      return std::nullopt;
    return Out;
  }

private:
  /// An operator application whose operands are being read.
  struct Frame {
    ir::OpId Op;
    int Arity;
    size_t Base;      ///< Its operands start at Kids[Base].
    size_t Count = 0; ///< Operands seen, read or skipped.
    std::string Error; ///< The first operand's error; operands after it
                       ///< are skipped.
  };

  ir::Context &Ctx;
  std::string_view Text;
  sexpr::Lexer Lex;
  std::string SyntaxErr; ///< Positioned, as ParseError::toString prints.
  std::string Err;       ///< The first semantic error in walk order.
  size_t Forms = 0;      ///< Top-level forms seen.
  std::vector<Frame> Frames;
  std::vector<ir::TermId> Kids;

  bool syntaxError(const Token &At, const char *Msg) {
    if (SyntaxErr.empty())
      SyntaxErr = sexpr::ParseError{Lex.error().empty() ? Msg : Lex.error(),
                                    At.Line, At.Col}
                      .toString();
    return false;
  }

  /// Consumes the rest of a form whose \p Depth parentheses are open.
  bool skipOpen(int Depth) {
    while (Depth > 0) {
      Token T = Lex.next();
      if (T.is(Kind::End))
        return syntaxError(T, "unterminated list (missing ')')");
      if (T.is(Kind::Open))
        ++Depth;
      else if (T.is(Kind::Close))
        --Depth;
    }
    return true;
  }
  /// Consumes the rest of the form that starts with \p T.
  bool skipForm(const Token &T) { return !T.is(Kind::Open) || skipOpen(1); }

  /// Scans what follows the first form, then reports the error that wins.
  bool finish(Token T, std::string *ErrorOut) {
    for (; SyntaxErr.empty() && !T.is(Kind::End); T = Lex.next()) {
      if (T.is(Kind::Close)) {
        syntaxError(T, "unexpected ')'");
        break;
      }
      ++Forms;
      skipForm(T);
    }
    std::string Msg = SyntaxErr;
    if (Msg.empty() && Forms != 1)
      Msg = sexpr::ParseError{
          strFormat("expected exactly one form, found %zu", Forms), 1, 1}
                .toString();
    if (Msg.empty())
      Msg = Err;
    if (Msg.empty())
      return true;
    if (ErrorOut)
      *ErrorOut = std::move(Msg);
    return false;
  }

  /// Reads (gma <name> <clause>...) after its '('.
  void readGmaBody(gma::GMA &G) {
    Token H = Lex.next();
    if (H.is(Kind::End)) {
      syntaxError(H, "unterminated list (missing ')')");
      return;
    }
    Token N = H.isSymbol("gma") ? Lex.next() : H;
    if (N.is(Kind::End)) {
      syntaxError(N, "unterminated list (missing ')')");
      return;
    }
    if (!H.isSymbol("gma") || !N.is(Kind::Symbol)) {
      Err = "expected (gma <name> <clause>...)";
      if (!N.is(Kind::Close) && skipForm(N))
        skipOpen(1);
      return;
    }
    G.Name = N.Text;
    for (Token C = Lex.next(); !C.is(Kind::Close); C = Lex.next()) {
      if (C.is(Kind::End)) {
        syntaxError(C, "unterminated list (missing ')')");
        return;
      }
      if (!(Err.empty() ? readClause(C, G) : skipForm(C)))
        return;
    }
  }

  /// Reads one clause into \p G. \returns false on a syntax error.
  bool readClause(const Token &First, gma::GMA &G) {
    const size_t Begin = First.Offset;
    auto Unrecognized = [&] {
      Err = strFormat(
          "unrecognized clause: %s",
          renderForm(Text.substr(Begin, Lex.offset() - Begin)).c_str());
      return true;
    };
    if (!First.is(Kind::Open))
      return Unrecognized();
    Token H = Lex.next();
    // Elements after the head: how many, and which are terms.
    enum { Assign, Guard, Miss, Assume, Other } Form = Other;
    size_t Size = 3;
    if (H.isSymbol("assign"))
      Form = Assign;
    else if (H.isSymbol("guard"))
      Form = Guard, Size = 2;
    else if (H.isSymbol("miss"))
      Form = Miss, Size = 2;
    else if (H.isSymbol("assume"))
      Form = Assume, Size = 4;
    if (H.is(Kind::End))
      return syntaxError(H, "unterminated list (missing ')')");
    if (Form == Other) {
      if (!H.is(Kind::Close) && !(skipForm(H) && skipOpen(1)))
        return false;
      return Unrecognized();
    }

    bool ShapeOk = true, KnownKind = true, IsEq = false;
    std::string Name; // The assign target.
    ir::TermId Terms[2] = {0, 0};
    size_t NumTerms = 0;
    std::string TermErr;
    size_t I = 1;
    for (Token E = Lex.next(); !E.is(Kind::Close); E = Lex.next(), ++I) {
      if (E.is(Kind::End))
        return syntaxError(E, "unterminated list (missing ')')");
      bool NamePos = I == 1 && (Form == Assign || Form == Assume);
      if (I >= Size || (NamePos && !E.is(Kind::Symbol)))
        ShapeOk = false;
      if (NamePos && E.is(Kind::Symbol)) {
        if (Form == Assign)
          Name = E.Text;
        else if (E.isSymbol("eq") || E.isSymbol("neq"))
          IsEq = E.isSymbol("eq");
        else
          KnownKind = false;
        continue;
      }
      // A term: read it while its error could still be the clause's.
      if (!ShapeOk || !KnownKind || !TermErr.empty()) {
        if (!skipForm(E))
          return false;
        continue;
      }
      ir::TermId T;
      if (!readTerm(E, T, TermErr))
        return false;
      if (TermErr.empty())
        Terms[NumTerms++] = T;
    }
    if (!ShapeOk || I != Size)
      return Unrecognized();
    if (!KnownKind) {
      Err = "assume clause must be eq or neq";
      return true;
    }
    if (!TermErr.empty()) {
      Err = std::move(TermErr);
      return true;
    }
    switch (Form) {
    case Assign:
      G.Targets.push_back(std::move(Name));
      G.NewVals.push_back(Terms[0]);
      break;
    case Guard:
      G.Guard = Terms[0];
      break;
    case Miss:
      G.MissAddrs.push_back(Terms[0]);
      break;
    case Assume:
      G.Assumptions.push_back({IsEq, Terms[0], Terms[1]});
      break;
    case Other:
      break;
    }
    return true;
  }

  /// A bare symbol: a variable, unless it names a known nullary operator.
  void leaf(const Token &T, ir::TermId &Out, std::string &Error) {
    std::optional<ir::OpId> Op = Ctx.Ops.lookup(T.Text);
    if (!Op)
      Out = Ctx.Terms.makeVar(T.Text);
    else if (Ctx.Ops.info(*Op).Arity != 0)
      Error = strFormat("operator '%.*s' used without arguments",
                        static_cast<int>(T.Text.size()), T.Text.data());
    else if (Ctx.Ops.isConst(*Op))
      Error = strFormat("'%.*s' names an operator, not a variable",
                        static_cast<int>(T.Text.size()), T.Text.data());
    else
      Out = Ctx.Terms.make(*Op, {});
  }

  /// Reads the term that starts with \p First. On a semantic error the
  /// term is consumed and \p Error set. \returns false on a syntax error.
  bool readTerm(Token First, ir::TermId &Out, std::string &Error) {
    Frames.clear();
    Kids.clear();
    for (Token T = First;; T = Lex.next()) {
      ir::TermId Val = 0;
      std::string ValErr;
      if (!Frames.empty() && T.is(Kind::Close)) {
        Frame F = std::move(Frames.back());
        Frames.pop_back();
        if (F.Count != static_cast<size_t>(F.Arity))
          ValErr = strFormat("operator '%s' expects %d argument(s), got %zu",
                             Ctx.Ops.info(F.Op).Name.c_str(), F.Arity,
                             F.Count);
        else if (!F.Error.empty())
          ValErr = std::move(F.Error);
        else
          Val = Ctx.Terms.make(F.Op, std::span<const ir::TermId>(
                                         Kids.data() + F.Base, F.Count));
        Kids.resize(F.Base);
      } else if (T.is(Kind::End)) {
        return syntaxError(T, "unterminated list (missing ')')");
      } else if (!Frames.empty() && !Frames.back().Error.empty()) {
        ++Frames.back().Count; // An operand after a failed one.
        if (!skipForm(T))
          return false;
        continue;
      } else if (T.is(Kind::Integer)) {
        Val = Ctx.Terms.makeConst(static_cast<uint64_t>(T.Int));
      } else if (T.is(Kind::Symbol)) {
        leaf(T, Val, ValErr);
      } else {
        Token H = Lex.next();
        std::optional<ir::OpId> Op;
        if (H.is(Kind::Symbol))
          Op = Ctx.Ops.lookup(H.Text);
        if (H.is(Kind::End))
          return syntaxError(H, "unterminated list (missing ')')");
        if (!H.is(Kind::Symbol))
          ValErr = "term list must start with an operator name";
        else if (!Op || Ctx.Ops.isVariable(*Op))
          ValErr = strFormat("unknown operator '%.*s'",
                             static_cast<int>(H.Text.size()), H.Text.data());
        if (ValErr.empty()) {
          Frames.push_back(
              Frame{*Op, Ctx.Ops.info(*Op).Arity, Kids.size(), 0, {}});
          continue;
        }
        if (!H.is(Kind::Close) && !(skipForm(H) && skipOpen(1)))
          return false;
      }
      // Hand the finished operand to its application, or return it.
      if (Frames.empty()) {
        Out = Val;
        Error = std::move(ValErr);
        return true;
      }
      Frame &P = Frames.back();
      ++P.Count;
      if (!ValErr.empty())
        P.Error = std::move(ValErr);
      else
        Kids.push_back(Val);
    }
  }
};

} // namespace

std::optional<ir::TermId>
denali::verify::parseTerm(ir::Context &Ctx, const std::string &Text,
                          std::string *ErrorOut) {
  return GmaReader(Ctx, Text).readOneTerm(ErrorOut);
}

std::optional<gma::GMA> denali::verify::parseGma(ir::Context &Ctx,
                                                 const std::string &Text,
                                                 std::string *ErrorOut) {
  return GmaReader(Ctx, Text).readGma(ErrorOut);
}
