//===- lang/Surface.cpp ---------------------------------------------------===//

#include "lang/Surface.h"

#include "lang/Parser.h"
#include "sexpr/Parser.h"
#include "support/StringExtras.h"

#include <cassert>
#include <cctype>
#include <unordered_set>

using namespace denali;
using namespace denali::lang;

namespace {

//===----------------------------------------------------------------------===
// Lexer
//===----------------------------------------------------------------------===

enum class TokKind {
  End,
  Ident,   ///< Possibly \-prefixed (keywords and builtin references).
  Number,
  Punct,   ///< One of the operator/punctuation spellings.
};

struct Token {
  TokKind Kind = TokKind::End;
  std::string Text;
  uint64_t Int = 0;
  unsigned Line = 1, Col = 1;

  bool is(const char *P) const {
    return (Kind == TokKind::Punct || Kind == TokKind::Ident) && Text == P;
  }
};

class Lexer {
public:
  explicit Lexer(const std::string &Text) : Text(&Text) { advance(); }
  // Copyable so the parser can backtrack over the `x<3>` / `x < 3`
  // ambiguity.

  const Token &peek() const { return Cur; }
  Token take() {
    Token T = Cur;
    advance();
    return T;
  }

private:
  const std::string *Text;
  size_t Pos = 0;
  unsigned Line = 1, Col = 1;
  Token Cur;

  char at(size_t Off = 0) const {
    return Pos + Off < Text->size() ? (*Text)[Pos + Off] : '\0';
  }

  void bump() {
    if (at() == '\n') {
      ++Line;
      Col = 1;
    } else {
      ++Col;
    }
    ++Pos;
  }

  void skipTrivia() {
    for (;;) {
      if (std::isspace(static_cast<unsigned char>(at()))) {
        bump();
        continue;
      }
      if (at() == '/' && at(1) == '/') {
        while (at() && at() != '\n')
          bump();
        continue;
      }
      break;
    }
  }

  void advance() {
    skipTrivia();
    Cur = Token();
    Cur.Line = Line;
    Cur.Col = Col;
    char C = at();
    if (!C) {
      Cur.Kind = TokKind::End;
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(C))) {
      std::string Num;
      if (C == '0' && (at(1) == 'x' || at(1) == 'X')) {
        Num += at();
        bump();
        Num += at();
        bump();
        while (std::isxdigit(static_cast<unsigned char>(at()))) {
          Num += at();
          bump();
        }
      } else {
        while (std::isdigit(static_cast<unsigned char>(at()))) {
          Num += at();
          bump();
        }
      }
      int64_t V = 0;
      parseIntegerLiteral(Num, V);
      Cur.Kind = TokKind::Number;
      Cur.Int = static_cast<uint64_t>(V);
      Cur.Text = Num;
      return;
    }
    if (C == '\\' || C == '_' ||
        std::isalpha(static_cast<unsigned char>(C))) {
      std::string Id;
      if (C == '\\') {
        Id += C;
        bump();
      }
      while (std::isalnum(static_cast<unsigned char>(at())) || at() == '_') {
        Id += at();
        bump();
      }
      Cur.Kind = TokKind::Ident;
      Cur.Text = std::move(Id);
      return;
    }
    // Punctuation, longest match first.
    static const char *TwoChar[] = {"->", ":=", "<=", ">=", "==", "!=",
                                    "<<", ">>", "**"};
    for (const char *P : TwoChar) {
      if (C == P[0] && at(1) == P[1]) {
        Cur.Kind = TokKind::Punct;
        Cur.Text = P;
        bump();
        bump();
        return;
      }
    }
    Cur.Kind = TokKind::Punct;
    Cur.Text = std::string(1, C);
    bump();
  }
};

//===----------------------------------------------------------------------===
// Parser
//===----------------------------------------------------------------------===

class SurfaceParser {
public:
  SurfaceParser(const std::string &Text, std::string *ErrorOut)
      : Lex(Text), ErrorOut(ErrorOut) {}

  std::optional<Module> run() {
    Module M;
    while (Lex.peek().Kind != TokKind::End) {
      const Token &T = Lex.peek();
      if (T.is("\\op")) {
        if (!parseOpDecl(M))
          return std::nullopt;
      } else if (T.is("\\axiom")) {
        if (!parseAxiom(M))
          return std::nullopt;
      } else if (T.is("\\proc")) {
        if (!parseProc(M))
          return std::nullopt;
      } else {
        fail(T, "expected \\op, \\axiom or \\proc");
        return std::nullopt;
      }
    }
    return M;
  }

private:
  Lexer Lex;
  std::string *ErrorOut;

  bool fail(const Token &T, const std::string &Msg) {
    if (ErrorOut)
      *ErrorOut = strFormat("%u:%u: %s (at '%s')", T.Line, T.Col,
                            Msg.c_str(), T.Text.c_str());
    return false;
  }

  /// Expressions and statements nest by recursion: parentheses
  /// (grouping, calls, \cast and \ite) and unary operators each parse
  /// their operands one level deeper, and \var, \do and \if their
  /// bodies. As in the S-expression reader, a level past
  /// sexpr::MaxNesting is a parse error at its opening token, not a stack
  /// overflow, and no later stage sees a deeper procedure.
  unsigned Depth = 0;

  /// One level of nesting, held while its operands or body parse.
  class Nested {
  public:
    Nested(SurfaceParser &P, const Token &Open,
           const char *What = "expression")
        : P(P), Ok(P.Depth < sexpr::MaxNesting) {
      if (Ok)
        ++P.Depth;
      else
        P.fail(Open, strFormat("%s nested deeper than %u", What,
                               sexpr::MaxNesting));
    }
    ~Nested() {
      if (Ok)
        --P.Depth;
    }
    explicit operator bool() const { return Ok; }

  private:
    SurfaceParser &P;
    bool Ok;
  };

  bool expect(const char *P) {
    if (Lex.peek().is(P)) {
      Lex.take();
      return true;
    }
    return fail(Lex.peek(), strFormat("expected '%s'", P));
  }

  bool expectIdent(std::string &Out) {
    if (Lex.peek().Kind == TokKind::Ident && Lex.peek().Text[0] != '\\') {
      Out = Lex.take().Text;
      return true;
    }
    return fail(Lex.peek(), "expected an identifier");
  }

  std::optional<Type> parseTypeName() {
    const Token &T = Lex.peek();
    Type Out;
    if (T.is("long") || T.is("int"))
      Out.Kind = T.is("long") ? TypeKind::Long : TypeKind::Int;
    else if (T.is("short"))
      Out.Kind = TypeKind::Short;
    else if (T.is("byte"))
      Out.Kind = TypeKind::Byte;
    else {
      fail(T, "expected a type name");
      return std::nullopt;
    }
    Lex.take();
    while (Lex.peek().is("*")) {
      Lex.take();
      Out.Kind = TypeKind::Ptr;
    }
    return Out;
  }

  // \op add : [ long, long ] -> long ;
  bool parseOpDecl(Module &M) {
    Lex.take(); // \op
    OpDecl D;
    if (!expectIdent(D.Name))
      return false;
    if (!expect(":") || !expect("["))
      return false;
    if (!Lex.peek().is("]")) {
      for (;;) {
        if (!parseTypeName())
          return false;
        ++D.Arity;
        if (Lex.peek().is(",")) {
          Lex.take();
          continue;
        }
        break;
      }
    }
    if (!expect("]") || !expect("->"))
      return false;
    if (!parseTypeName())
      return false;
    if (!expect(";"))
      return false;
    M.OpDecls.push_back(std::move(D));
    return true;
  }

  // \axiom \forall [ a, b ] add(a, b) = add(b, a) ;
  // \axiom reg7 = 0 ;
  bool parseAxiom(Module &M) {
    Token Start = Lex.take(); // \axiom
    std::vector<std::string> Vars;
    if (Lex.peek().is("\\forall")) {
      Lex.take();
      if (!expect("["))
        return false;
      for (;;) {
        std::string Name;
        if (!expectIdent(Name))
          return false;
        Vars.push_back(Name);
        if (Lex.peek().is(",")) {
          Lex.take();
          continue;
        }
        break;
      }
      if (!expect("]"))
        return false;
    }
    ExprPtr Lhs = parseExpr();
    if (!Lhs)
      return false;
    bool IsEq;
    if (Lex.peek().is("=") || Lex.peek().is("==")) {
      IsEq = true;
    } else if (Lex.peek().is("!=")) {
      IsEq = false;
    } else {
      return fail(Lex.peek(), "expected '=' or '!=' in axiom");
    }
    Lex.take();
    ExprPtr Rhs = parseExpr();
    if (!Rhs)
      return false;
    if (!expect(";"))
      return false;

    // Assemble the prototype-syntax S-expression the axiom loader eats.
    std::vector<sexpr::SExpr> Lit;
    Lit.push_back(sexpr::SExpr::makeSymbol(IsEq ? "eq" : "neq"));
    std::optional<sexpr::SExpr> L = exprToSExpr(*Lhs);
    std::optional<sexpr::SExpr> R = exprToSExpr(*Rhs);
    if (!L || !R)
      return false;
    Lit.push_back(std::move(*L));
    Lit.push_back(std::move(*R));
    sexpr::SExpr Body = sexpr::SExpr::makeList(std::move(Lit), Start.Line,
                                               Start.Col);
    if (!Vars.empty()) {
      std::vector<sexpr::SExpr> VarList;
      for (const std::string &V : Vars)
        VarList.push_back(sexpr::SExpr::makeSymbol(V));
      std::vector<sexpr::SExpr> Forall;
      Forall.push_back(sexpr::SExpr::makeSymbol("forall"));
      Forall.push_back(sexpr::SExpr::makeList(std::move(VarList)));
      Forall.push_back(std::move(Body));
      Body = sexpr::SExpr::makeList(std::move(Forall), Start.Line,
                                    Start.Col);
    }
    std::vector<sexpr::SExpr> Ax;
    Ax.push_back(sexpr::SExpr::makeSymbol("\\axiom"));
    Ax.push_back(std::move(Body));
    M.Axioms.push_back(
        sexpr::SExpr::makeList(std::move(Ax), Start.Line, Start.Col));
    return true;
  }

  /// Converts a surface expression to the prototype S-expression form
  /// (used for axiom bodies).
  std::optional<sexpr::SExpr> exprToSExpr(const Expr &E) {
    switch (E.TheKind) {
    case Expr::Kind::Number:
      return sexpr::SExpr::makeInteger(static_cast<int64_t>(E.Number),
                                       E.Line);
    case Expr::Kind::Ident:
      return sexpr::SExpr::makeSymbol(E.Name, E.Line);
    case Expr::Kind::Apply: {
      std::vector<sexpr::SExpr> L;
      L.push_back(sexpr::SExpr::makeSymbol(E.Name));
      for (const ExprPtr &A : E.Args) {
        std::optional<sexpr::SExpr> C = exprToSExpr(*A);
        if (!C)
          return std::nullopt;
        L.push_back(std::move(*C));
      }
      return sexpr::SExpr::makeList(std::move(L), E.Line);
    }
    case Expr::Kind::Cast: {
      const char *Op = E.CastType.Kind == TypeKind::Short  ? "zext16"
                       : E.CastType.Kind == TypeKind::Byte ? "zext8"
                       : E.CastType.Kind == TypeKind::Int  ? "sext32"
                                                           : nullptr;
      std::optional<sexpr::SExpr> C = exprToSExpr(*E.Args[0]);
      if (!C)
        return std::nullopt;
      if (!Op)
        return C; // Cast to long/ptr is the identity.
      std::vector<sexpr::SExpr> L;
      L.push_back(sexpr::SExpr::makeSymbol(Op));
      L.push_back(std::move(*C));
      return sexpr::SExpr::makeList(std::move(L), E.Line);
    }
    case Expr::Kind::Ite: {
      std::vector<sexpr::SExpr> L;
      L.push_back(sexpr::SExpr::makeSymbol("cmovne"));
      for (const ExprPtr &A : E.Args) {
        std::optional<sexpr::SExpr> C = exprToSExpr(*A);
        if (!C)
          return std::nullopt;
        L.push_back(std::move(*C));
      }
      return sexpr::SExpr::makeList(std::move(L), E.Line);
    }
    case Expr::Kind::Deref:
      if (ErrorOut)
        *ErrorOut = strFormat("%u: memory dereference is not allowed in "
                              "axioms (quantify over values instead)",
                              E.Line);
      return std::nullopt;
    }
    return std::nullopt;
  }

  //===-------------------------------------------------------------------===
  // Expressions (precedence climbing).
  //===-------------------------------------------------------------------===

  ExprPtr makeApply(const char *Op, std::vector<ExprPtr> Args,
                    unsigned Line) {
    auto E = std::make_unique<Expr>();
    E->TheKind = Expr::Kind::Apply;
    E->Name = Op;
    E->Args = std::move(Args);
    E->Line = Line;
    return E;
  }

  ExprPtr parseExpr() { return parseBinary(0); }

  /// Binary operators of tier \p MinLevel and tighter, by precedence
  /// climbing over the tiers below, loosest first: an operator's right
  /// operand holds only tighter operators, so each is left-associative,
  /// and a nesting level costs one call here rather than one per tier.
  ExprPtr parseBinary(int MinLevel) {
    struct Tier {
      const char *Toks[5];
    };
    static const Tier Tiers[] = {
        {{"|", nullptr}},
        {{"^", nullptr}},
        {{"&", nullptr}},
        {{"==", "!=", nullptr}},
        {{"<", "<=", ">", ">=", nullptr}},
        {{"<<", ">>", nullptr}},
        {{"+", "-", nullptr}},
        {{"*", "**", nullptr}},
    };
    constexpr int NumTiers = static_cast<int>(std::size(Tiers));
    ExprPtr Lhs = parseUnary();
    if (!Lhs)
      return nullptr;
    for (;;) {
      const Token &T = Lex.peek();
      const char *Match = nullptr;
      int Level = MinLevel;
      for (; Level < NumTiers && !Match; ++Level)
        for (const char *P : Tiers[Level].Toks) {
          if (!P)
            break;
          if (T.is(P)) {
            Match = P;
            break;
          }
        }
      if (!Match)
        return Lhs;
      // `x<3>` byte selection is handled in parsePostfix; reaching here
      // with '<' means comparison.
      unsigned Line = T.Line;
      Lex.take();
      ExprPtr Rhs = parseBinary(Level); // Level is one past Match's tier.
      if (!Rhs)
        return nullptr;
      Lhs = applyBinary(Match, std::move(Lhs), std::move(Rhs), Line);
    }
  }

  /// The expression binary operator \p Op makes of its operands. Out of
  /// line, since its temporaries would otherwise sit in the frame that
  /// every nesting level keeps on the stack.
  [[gnu::noinline]] ExprPtr applyBinary(const std::string &Op, ExprPtr Lhs,
                                        ExprPtr Rhs, unsigned Line) {
    if (Op == "|")
      Lhs = makeApply("or64", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == "^")
      Lhs = makeApply("xor64", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == "&")
      Lhs = makeApply("and64", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == "==")
      Lhs = makeApply("cmpeq", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == "!=") {
      // a != b  =  cmpeq(cmpeq(a, b), 0)
      ExprPtr Eq =
          makeApply("cmpeq", vec(std::move(Lhs), std::move(Rhs)), Line);
      auto Zero = std::make_unique<Expr>();
      Zero->TheKind = Expr::Kind::Number;
      Zero->Number = 0;
      Lhs = makeApply("cmpeq", vec(std::move(Eq), std::move(Zero)), Line);
    } else if (Op == "<")
      Lhs = makeApply("cmplt", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == "<=")
      Lhs = makeApply("cmple", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == ">")
      Lhs = makeApply("cmplt", vec(std::move(Rhs), std::move(Lhs)), Line);
    else if (Op == ">=")
      Lhs = makeApply("cmple", vec(std::move(Rhs), std::move(Lhs)), Line);
    else if (Op == "<<")
      Lhs = makeApply("shl64", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == ">>")
      Lhs = makeApply("shr64", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == "+")
      Lhs = makeApply("add64", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == "-")
      Lhs = makeApply("sub64", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == "*")
      Lhs = makeApply("mul64", vec(std::move(Lhs), std::move(Rhs)), Line);
    else if (Op == "**")
      Lhs = makeApply("pow", vec(std::move(Lhs), std::move(Rhs)), Line);
    return Lhs;
  }

  static std::vector<ExprPtr> vec(ExprPtr A, ExprPtr B) {
    std::vector<ExprPtr> V;
    V.push_back(std::move(A));
    V.push_back(std::move(B));
    return V;
  }

  ExprPtr parseUnary() {
    const Token &T = Lex.peek();
    if (T.is("-") || T.is("~")) {
      const Token Op = Lex.take();
      Nested N(*this, Op);
      if (!N)
        return nullptr;
      ExprPtr A = parseUnary();
      if (!A)
        return nullptr;
      std::vector<ExprPtr> V;
      V.push_back(std::move(A));
      return makeApply(Op.is("-") ? "neg64" : "not64", std::move(V), Op.Line);
    }
    if (T.is("*")) {
      // Memory read, optional \miss annotation after the operand.
      const Token Op = Lex.take();
      Nested N(*this, Op);
      if (!N)
        return nullptr;
      ExprPtr Addr = parseUnary();
      if (!Addr)
        return nullptr;
      auto E = std::make_unique<Expr>();
      E->TheKind = Expr::Kind::Deref;
      E->Line = Op.Line;
      E->Args.push_back(std::move(Addr));
      if (Lex.peek().is("\\miss")) {
        Lex.take();
        E->Miss = true;
      }
      return E;
    }
    return parsePostfix();
  }

  ExprPtr parsePostfix() {
    ExprPtr E = parsePrimary();
    if (!E)
      return nullptr;
    for (;;) {
      // Byte selection: expr '<' INT '>' (Figure 3's w<i>).
      if (Lex.peek().is("<")) {
        // Only commit when the lookahead is exactly <INT>.
        Lexer Save = Lex;
        Lex.take();
        if (Lex.peek().Kind == TokKind::Number) {
          Token Num = Lex.take();
          if (Lex.peek().is(">")) {
            Lex.take();
            auto Idx = std::make_unique<Expr>();
            Idx->TheKind = Expr::Kind::Number;
            Idx->Number = Num.Int;
            E = makeApply("selectb", vec(std::move(E), std::move(Idx)),
                          Num.Line);
            continue;
          }
        }
        Lex = Save; // Comparison after all.
        return E;
      }
      return E;
    }
  }

  ExprPtr parsePrimary() {
    Token T = Lex.peek();
    if (T.Kind == TokKind::Number) {
      Lex.take();
      auto E = std::make_unique<Expr>();
      E->TheKind = Expr::Kind::Number;
      E->Number = T.Int;
      E->Line = T.Line;
      return E;
    }
    if (T.is("(")) {
      Lex.take();
      Nested N(*this, T);
      if (!N)
        return nullptr;
      ExprPtr E = parseExpr();
      if (!E)
        return nullptr;
      if (!expect(")"))
        return nullptr;
      return E;
    }
    if (T.is("\\cast")) {
      Lex.take();
      Nested N(*this, T);
      if (!N || !expect("("))
        return nullptr;
      // (expr, type) per Figure 5; also (type, expr).
      auto E = std::make_unique<Expr>();
      E->TheKind = Expr::Kind::Cast;
      E->Line = T.Line;
      if (Lex.peek().is("long") || Lex.peek().is("int") ||
          Lex.peek().is("short") || Lex.peek().is("byte")) {
        std::optional<Type> Ty = parseTypeName();
        if (!Ty || !expect(","))
          return nullptr;
        E->CastType = *Ty;
        ExprPtr V = parseExpr();
        if (!V || !expect(")"))
          return nullptr;
        E->Args.push_back(std::move(V));
        return E;
      }
      ExprPtr V = parseExpr();
      if (!V || !expect(","))
        return nullptr;
      std::optional<Type> Ty = parseTypeName();
      if (!Ty || !expect(")"))
        return nullptr;
      E->CastType = *Ty;
      E->Args.push_back(std::move(V));
      return E;
    }
    if (T.is("\\ite")) {
      Lex.take();
      Nested N(*this, T);
      if (!N || !expect("("))
        return nullptr;
      auto E = std::make_unique<Expr>();
      E->TheKind = Expr::Kind::Ite;
      E->Line = T.Line;
      for (int I = 0; I < 3; ++I) {
        if (I && !expect(","))
          return nullptr;
        ExprPtr A = parseExpr();
        if (!A)
          return nullptr;
        E->Args.push_back(std::move(A));
      }
      if (!expect(")"))
        return nullptr;
      return E;
    }
    if (T.Kind == TokKind::Ident) {
      Lex.take();
      // Call or plain identifier. \-prefixed builtins keep the backslash
      // (the GMA translator strips it).
      if (Lex.peek().is("(")) {
        Nested N(*this, Lex.take());
        if (!N)
          return nullptr;
        auto E = std::make_unique<Expr>();
        E->TheKind = Expr::Kind::Apply;
        E->Name = T.Text;
        E->Line = T.Line;
        if (!Lex.peek().is(")")) {
          for (;;) {
            ExprPtr A = parseExpr();
            if (!A)
              return nullptr;
            E->Args.push_back(std::move(A));
            if (Lex.peek().is(",")) {
              Lex.take();
              continue;
            }
            break;
          }
        }
        if (!expect(")"))
          return nullptr;
        return E;
      }
      if (T.Text[0] == '\\' && !T.is("\\res")) {
        fail(T, "builtin reference used without arguments");
        return nullptr;
      }
      auto E = std::make_unique<Expr>();
      E->TheKind = Expr::Kind::Ident;
      E->Name = T.Text == "\\res" ? "\\res" : T.Text;
      E->Line = T.Line;
      return E;
    }
    fail(T, "expected an expression");
    return nullptr;
  }

  //===-------------------------------------------------------------------===
  // Statements
  //===-------------------------------------------------------------------===

  bool atStmtsEnd() {
    const Token &T = Lex.peek();
    return T.Kind == TokKind::End || T.is("\\end") || T.is("\\od") ||
           T.is("\\else") || T.is("\\fi");
  }

  /// Parses statements up to \end or \od (not consumed). \var consumes the
  /// remaining statements as its scope.
  bool parseStmts(std::vector<StmtPtr> &Out) {
    for (;;) {
      while (Lex.peek().is(";"))
        Lex.take();
      if (atStmtsEnd())
        return true;
      StmtPtr S = parseStmt();
      if (!S)
        return false;
      bool WasVar = S->TheKind == Stmt::Kind::VarDecl;
      Out.push_back(std::move(S));
      if (WasVar)
        return true; // The decl swallowed the rest of the scope.
      if (Lex.peek().is(";")) {
        Lex.take();
        continue;
      }
      return true; // Last statement before \end / \od.
    }
  }

  StmtPtr parseStmt() {
    const Token &T = Lex.peek();
    // \var, \do and \if each parse their body one level deeper.
    std::optional<Nested> Body;
    if (T.is("\\var") || T.is("\\do") || T.is("\\if")) {
      Body.emplace(*this, T, "statement");
      if (!*Body)
        return nullptr;
    }
    if (T.is("\\var")) {
      Lex.take();
      auto S = std::make_unique<Stmt>();
      S->TheKind = Stmt::Kind::VarDecl;
      S->Line = T.Line;
      if (!expectIdent(S->VarName))
        return nullptr;
      if (!expect(":"))
        return nullptr;
      std::optional<Type> Ty = parseTypeName();
      if (!Ty)
        return nullptr;
      S->VarType = *Ty;
      if (Lex.peek().is(":=")) {
        Lex.take();
        S->VarInit = parseExpr();
        if (!S->VarInit)
          return nullptr;
      }
      if (!expect("\\in"))
        return nullptr;
      if (!parseStmts(S->Body))
        return nullptr;
      return S;
    }
    if (T.is("\\do")) {
      Lex.take();
      auto S = std::make_unique<Stmt>();
      S->TheKind = Stmt::Kind::Do;
      S->Line = T.Line;
      while (Lex.peek().is("\\unroll") || Lex.peek().is("\\pipeline")) {
        if (Lex.peek().is("\\pipeline")) {
          Lex.take();
          S->Pipeline = true;
          continue;
        }
        Lex.take();
        if (Lex.peek().Kind != TokKind::Number || Lex.peek().Int < 1) {
          fail(Lex.peek(), "\\unroll takes a positive count");
          return nullptr;
        }
        S->Unroll = static_cast<unsigned>(Lex.take().Int);
      }
      S->Cond = parseExpr();
      if (!S->Cond)
        return nullptr;
      if (!expect("->"))
        return nullptr;
      if (!parseStmts(S->Body))
        return nullptr;
      if (!expect("\\od"))
        return nullptr;
      return S;
    }
    if (T.is("\\assume")) {
      Lex.take();
      auto S = std::make_unique<Stmt>();
      S->TheKind = Stmt::Kind::Assume;
      S->Line = T.Line;
      S->AssumeLhs = parseExpr();
      if (!S->AssumeLhs)
        return nullptr;
      if (Lex.peek().is("=") || Lex.peek().is("==")) {
        S->AssumeEq = true;
      } else if (Lex.peek().is("!=")) {
        S->AssumeEq = false;
      } else {
        fail(Lex.peek(), "expected '=' or '!=' in \\assume");
        return nullptr;
      }
      Lex.take();
      S->AssumeRhs = parseExpr();
      if (!S->AssumeRhs)
        return nullptr;
      return S;
    }
    if (T.is("\\if")) {
      Lex.take();
      auto S = std::make_unique<Stmt>();
      S->TheKind = Stmt::Kind::If;
      S->Line = T.Line;
      S->Cond = parseExpr();
      if (!S->Cond)
        return nullptr;
      if (!expect("->"))
        return nullptr;
      if (!parseStmts(S->Body))
        return nullptr;
      if (Lex.peek().is("\\else")) {
        Lex.take();
        if (!parseStmts(S->ElseBody))
          return nullptr;
      }
      if (!expect("\\fi"))
        return nullptr;
      return S;
    }
    return parseAssign();
  }

  struct ParsedTarget {
    AssignTarget Target;
    std::optional<uint64_t> ByteIndex; ///< Set for r<i> targets.
    unsigned Line = 0;
  };

  std::optional<ParsedTarget> parseTarget() {
    ParsedTarget Out;
    Token T = Lex.peek();
    Out.Line = T.Line;
    if (T.is("*")) {
      Lex.take();
      Out.Target.IsDeref = true;
      Out.Target.Addr = parseUnary();
      if (!Out.Target.Addr)
        return std::nullopt;
      return Out;
    }
    if (T.is("\\res")) {
      Lex.take();
      Out.Target.Var = "\\res";
      return Out;
    }
    if (T.Kind != TokKind::Ident || T.Text[0] == '\\') {
      fail(T, "expected an assignment target");
      return std::nullopt;
    }
    Lex.take();
    Out.Target.Var = T.Text;
    // r<i> byte target.
    if (Lex.peek().is("<")) {
      Lexer Save = Lex;
      Lex.take();
      if (Lex.peek().Kind == TokKind::Number) {
        Token Num = Lex.take();
        if (Lex.peek().is(">")) {
          Lex.take();
          Out.ByteIndex = Num.Int;
          return Out;
        }
      }
      Lex = Save;
    }
    return Out;
  }

  StmtPtr parseAssign() {
    std::vector<ParsedTarget> Targets;
    for (;;) {
      std::optional<ParsedTarget> T = parseTarget();
      if (!T)
        return nullptr;
      Targets.push_back(std::move(*T));
      if (Lex.peek().is(",")) {
        Lex.take();
        continue;
      }
      break;
    }
    if (!expect(":="))
      return nullptr;
    std::vector<ExprPtr> Values;
    for (;;) {
      ExprPtr V = parseExpr();
      if (!V)
        return nullptr;
      Values.push_back(std::move(V));
      if (Lex.peek().is(",")) {
        Lex.take();
        continue;
      }
      break;
    }
    if (Targets.size() != Values.size()) {
      if (ErrorOut)
        *ErrorOut = strFormat("%u: %zu targets but %zu values",
                              Targets[0].Line, Targets.size(),
                              Values.size());
      return nullptr;
    }
    // Byte targets r<i> := v desugar to r := storeb(r, i, v); the
    // simultaneous read of the old r makes two byte writes to one variable
    // in a single statement ambiguous — reject that.
    std::unordered_set<std::string> ByteTargetVars;
    auto S = std::make_unique<Stmt>();
    S->TheKind = Stmt::Kind::Assign;
    S->Line = Targets[0].Line;
    for (size_t I = 0; I < Targets.size(); ++I) {
      ParsedTarget &T = Targets[I];
      if (T.ByteIndex) {
        if (!ByteTargetVars.insert(T.Target.Var).second) {
          if (ErrorOut)
            *ErrorOut = strFormat(
                "%u: two byte-writes to '%s' in one simultaneous "
                "assignment; use separate statements", T.Line,
                T.Target.Var.c_str());
          return nullptr;
        }
        auto Old = std::make_unique<Expr>();
        Old->TheKind = Expr::Kind::Ident;
        Old->Name = T.Target.Var;
        Old->Line = T.Line;
        auto Idx = std::make_unique<Expr>();
        Idx->TheKind = Expr::Kind::Number;
        Idx->Number = *T.ByteIndex;
        std::vector<ExprPtr> Args;
        Args.push_back(std::move(Old));
        Args.push_back(std::move(Idx));
        Args.push_back(std::move(Values[I]));
        Values[I] = makeApply("storeb", std::move(Args), T.Line);
      }
      S->Targets.push_back(std::move(T.Target));
      S->Values.push_back(std::move(Values[I]));
    }
    return S;
  }

  // \proc name : [ params ] -> type = stmts \end
  bool parseProc(Module &M) {
    Lex.take(); // \proc
    Proc P;
    if (!expectIdent(P.Name))
      return false;
    if (!expect(":") || !expect("["))
      return false;
    if (!Lex.peek().is("]")) {
      for (;;) {
        // name (, name)* : type
        std::vector<std::string> Names;
        for (;;) {
          std::string N;
          if (!expectIdent(N))
            return false;
          Names.push_back(N);
          if (Lex.peek().is(",")) {
            Lex.take();
            continue;
          }
          break;
        }
        if (!expect(":"))
          return false;
        std::optional<Type> Ty = parseTypeName();
        if (!Ty)
          return false;
        for (const std::string &N : Names)
          P.Params.emplace_back(N, *Ty);
        if (Lex.peek().is(";") || Lex.peek().is(",")) {
          Lex.take();
          continue;
        }
        break;
      }
    }
    if (!expect("]") || !expect("->"))
      return false;
    std::optional<Type> Ret = parseTypeName();
    if (!Ret)
      return false;
    P.ReturnType = *Ret;
    if (!expect("="))
      return false;
    auto Body = std::make_unique<Stmt>();
    Body->TheKind = Stmt::Kind::Seq;
    if (!parseStmts(Body->Body))
      return false;
    if (!expect("\\end"))
      return false;
    P.Body = std::move(Body);
    M.Procs.push_back(std::move(P));
    return true;
  }
};

} // namespace

std::optional<Module>
denali::lang::parseSurfaceModule(const std::string &Text,
                                 std::string *ErrorOut) {
  return SurfaceParser(Text, ErrorOut).run();
}

std::optional<Module> denali::lang::parseAnyModule(const std::string &Text,
                                                   std::string *ErrorOut) {
  // The prototype syntax begins with '(' (after whitespace and ;-comments);
  // the surface syntax begins with a \keyword.
  size_t Pos = 0;
  while (Pos < Text.size()) {
    char C = Text[Pos];
    if (std::isspace(static_cast<unsigned char>(C))) {
      ++Pos;
      continue;
    }
    if (C == ';') {
      while (Pos < Text.size() && Text[Pos] != '\n')
        ++Pos;
      continue;
    }
    break;
  }
  if (Pos < Text.size() && Text[Pos] == '(')
    return parseModule(Text, ErrorOut);
  return parseSurfaceModule(Text, ErrorOut);
}
