//===- match/Axiom.cpp ----------------------------------------------------===//

#include "match/Axiom.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>
#include <unordered_map>

using namespace denali;
using namespace denali::match;
using denali::sexpr::SExpr;

uint32_t Axiom::patternHeight(PatternId Id) const {
  // By explicit stack: axiom sides can be arbitrarily deep.
  uint32_t Height = 0;
  std::vector<std::pair<PatternId, uint32_t>> Stack{{Id, 1}};
  while (!Stack.empty()) {
    auto [P, Depth] = Stack.back();
    Stack.pop_back();
    const PatternNode &N = Pool[P];
    if (N.TheKind != PatternNode::Kind::App)
      continue;
    Height = std::max(Height, Depth);
    for (PatternId C : N.Children)
      Stack.push_back({C, Depth + 1});
  }
  return Height;
}

uint64_t Axiom::patternVarMask(PatternId Id) const {
  const PatternNode &N = Pool[Id];
  switch (N.TheKind) {
  case PatternNode::Kind::Var:
    return 1ULL << N.VarIndex;
  case PatternNode::Kind::Const:
    return 0;
  case PatternNode::Kind::App: {
    uint64_t Mask = 0;
    for (PatternId C : N.Children)
      Mask |= patternVarMask(C);
    return Mask;
  }
  }
  return 0;
}

std::string Axiom::patternToString(const ir::Context &Ctx,
                                   PatternId Id) const {
  const PatternNode &N = Pool[Id];
  switch (N.TheKind) {
  case PatternNode::Kind::Var:
    return VarNames[N.VarIndex];
  case PatternNode::Kind::Const:
    return formatConstant(N.ConstVal);
  case PatternNode::Kind::App: {
    if (N.Children.empty())
      return Ctx.Ops.info(N.Op).Name;
    std::string Out = "(" + Ctx.Ops.info(N.Op).Name;
    for (PatternId C : N.Children)
      Out += ' ' + patternToString(Ctx, C);
    Out += ')';
    return Out;
  }
  }
  return "?";
}

namespace {

/// Strips the \-prefix used for builtin references in axiom files.
std::string stripBackslash(const std::string &Name) {
  if (!Name.empty() && Name[0] == '\\')
    return Name.substr(1);
  return Name;
}

class AxiomParser {
public:
  AxiomParser(ir::Context &Ctx, std::string *ErrorOut)
      : Ctx(Ctx), ErrorOut(ErrorOut) {}

  std::optional<Axiom> parse(const SExpr &Form) {
    // Unwrap (\axiom BODY) if present.
    const SExpr *Body = &Form;
    if (Form.isForm("\\axiom")) {
      if (Form.size() != 2)
        return fail(Form, "\\axiom takes exactly one body form");
      Body = &Form[1];
    }
    Out.Name = strFormat("axiom@%u:%u", Form.line(), Form.column());

    std::vector<const SExpr *> ExplicitPats;
    const SExpr *LiteralForm = Body;
    if (Body->isForm("forall") || Body->isForm("\\forall")) {
      if (Body->size() < 3)
        return fail(*Body, "forall needs a variable list and a body");
      const SExpr &Vars = (*Body)[1];
      if (!Vars.isList())
        return fail(Vars, "forall variable list must be a list");
      for (const SExpr &V : Vars.list()) {
        if (!V.isSymbol())
          return fail(V, "quantified variable must be a symbol");
        VarIndex[V.symbol()] = static_cast<uint32_t>(Out.VarNames.size());
        Out.VarNames.push_back(V.symbol());
      }
      if (Out.VarNames.size() > 64)
        return fail(Vars, "too many quantified variables (max 64)");
      size_t BodyIdx = 2;
      if (Body->size() > 3 || (*Body)[2].isForm("pats")) {
        const SExpr &Pats = (*Body)[2];
        if (!Pats.isForm("pats"))
          return fail(Pats, "expected (pats ...) before the axiom body");
        for (size_t I = 1; I < Pats.size(); ++I)
          ExplicitPats.push_back(&Pats[I]);
        BodyIdx = 3;
      }
      if (Body->size() != BodyIdx + 1)
        return fail(*Body, "forall needs exactly one body literal/clause");
      LiteralForm = &(*Body)[BodyIdx];
    }

    if (!parseBody(*LiteralForm))
      return std::nullopt;

    // Triggers: explicit pats, else all App literal sides binding all vars.
    uint64_t AllVars =
        Out.VarNames.empty() ? 0 : (~0ULL >> (64 - Out.VarNames.size()));
    if (!ExplicitPats.empty()) {
      for (const SExpr *P : ExplicitPats) {
        std::optional<PatternId> Id = parsePattern(*P);
        if (!Id)
          return std::nullopt;
        if (Out.pattern(*Id).TheKind != PatternNode::Kind::App)
          return fail(*P, "trigger pattern must be an application");
        if (Out.patternVarMask(*Id) != AllVars)
          return fail(*P, "trigger pattern must bind every quantified "
                          "variable");
        Out.Triggers.push_back(*Id);
      }
    } else if (!Out.VarNames.empty()) {
      // Ground axioms keep an empty trigger list: the matcher asserts them
      // unconditionally, once.
      for (const AxiomLiteral &L : Out.Body) {
        for (PatternId Side : {L.Lhs, L.Rhs}) {
          if (Out.pattern(Side).TheKind == PatternNode::Kind::App &&
              Out.patternVarMask(Side) == AllVars)
            Out.Triggers.push_back(Side);
        }
      }
      if (Out.Triggers.empty())
        return fail(*LiteralForm,
                    "no usable trigger: supply explicit (pats ...)");
    }
    for (PatternId T : Out.Triggers) {
      Out.TriggerHeights.push_back(Out.patternHeight(T));
      Out.TriggerPrograms.push_back(compileTrigger(T));
    }
    for (AxiomLiteral &L : Out.Body) {
      L.LhsProgram = compileSide(L.Lhs);
      L.RhsProgram = compileSide(L.Rhs);
    }
    return std::move(Out);
  }

private:
  ir::Context &Ctx;
  std::string *ErrorOut;
  Axiom Out;
  std::unordered_map<std::string, uint32_t> VarIndex;

  std::nullopt_t fail(const SExpr &Where, const std::string &Msg) {
    if (ErrorOut)
      *ErrorOut = strFormat("%u:%u: %s", Where.line(), Where.column(),
                            Msg.c_str());
    return std::nullopt;
  }

  bool parseBody(const SExpr &Form) {
    if (Form.isForm("or")) {
      for (size_t I = 1; I < Form.size(); ++I)
        if (!parseLiteral(Form[I]))
          return false;
      if (Out.Body.empty()) {
        fail(Form, "empty clause");
        return false;
      }
      return true;
    }
    return parseLiteral(Form);
  }

  bool parseLiteral(const SExpr &Form) {
    bool IsEq;
    if (Form.isForm("eq") || Form.isForm("="))
      IsEq = true;
    else if (Form.isForm("neq") || Form.isForm("!=") || Form.isForm("distinct"))
      IsEq = false;
    else {
      fail(Form, "expected (eq ...) or (neq ...) literal");
      return false;
    }
    if (Form.size() != 3) {
      fail(Form, "literal takes exactly two terms");
      return false;
    }
    std::optional<PatternId> L = parsePattern(Form[1]);
    if (!L)
      return false;
    std::optional<PatternId> R = parsePattern(Form[2]);
    if (!R)
      return false;
    AxiomLiteral &Lit = Out.Body.emplace_back();
    Lit.IsEq = IsEq;
    Lit.Lhs = *L;
    Lit.Rhs = *R;
    return true;
  }

  /// The side-program step of pattern node \p N: push its variable, its
  /// constant, or its operator over its operands.
  static PatternStep sideStep(const PatternNode &N) {
    PatternStep S;
    switch (N.TheKind) {
    case PatternNode::Kind::Var:
      S.TheKind = PatternStep::Kind::Var;
      S.Value = N.VarIndex;
      break;
    case PatternNode::Kind::Const:
      S.TheKind = PatternStep::Kind::Const;
      S.Value = N.ConstVal;
      break;
    case PatternNode::Kind::App:
      S.TheKind = PatternStep::Kind::App;
      S.Value = N.Op;
      S.Slot = static_cast<uint32_t>(N.Children.size());
      break;
    }
    return S;
  }

  /// Appends trigger \p Root's match program to Out.Steps: its nodes below
  /// the root in pre-order, left to right, which is the order a
  /// depth-first match meets them in. By explicit stack, as is every walk
  /// over a pattern here: patterns can be as deep as the reader allows.
  PatternProgram compileTrigger(PatternId Root) {
    PatternProgram P{static_cast<uint32_t>(Out.Steps.size()), 0};
    struct Frame {
      PatternId Id;
      uint32_t Node, Slot;
    };
    std::vector<Frame> Stack;
    auto pushChildren = [&](PatternId Id, uint32_t Reg) {
      const std::vector<PatternId> &Kids = Out.pattern(Id).Children;
      for (size_t I = Kids.size(); I-- > 0;)
        Stack.push_back({Kids[I], Reg, static_cast<uint32_t>(I)});
    };
    pushChildren(Root, 0);
    uint64_t Bound = 0; // Variables an earlier step binds.
    while (!Stack.empty()) {
      const Frame F = Stack.back();
      Stack.pop_back();
      const PatternNode &N = Out.pattern(F.Id);
      PatternStep S = sideStep(N);
      S.Node = F.Node;
      S.Slot = F.Slot;
      if (N.TheKind == PatternNode::Kind::App) {
        S.TheKind = PatternStep::Kind::Bind;
        // Step I holds its node in register I + 1.
        pushChildren(F.Id,
                     static_cast<uint32_t>(Out.Steps.size() - P.Begin) + 1);
      } else if (N.TheKind == PatternNode::Kind::Var) {
        S.Repeat = (Bound >> N.VarIndex) & 1;
        Bound |= 1ULL << N.VarIndex;
      }
      Out.Steps.push_back(S);
    }
    P.Size = static_cast<uint32_t>(Out.Steps.size() - P.Begin);
    return P;
  }

  /// Appends literal side \p Root's program to Out.Steps: its nodes in
  /// post-order, left to right.
  PatternProgram compileSide(PatternId Root) {
    PatternProgram P{static_cast<uint32_t>(Out.Steps.size()), 0};
    std::vector<std::pair<PatternId, size_t>> Stack{{Root, 0}};
    while (!Stack.empty()) {
      auto &[Id, NextChild] = Stack.back();
      const PatternNode &N = Out.pattern(Id);
      if (NextChild < N.Children.size()) {
        PatternId Child = N.Children[NextChild++];
        Stack.push_back({Child, 0}); // May invalidate the frame.
        continue;
      }
      Out.Steps.push_back(sideStep(N));
      Stack.pop_back();
    }
    P.Size = static_cast<uint32_t>(Out.Steps.size() - P.Begin);
    return P;
  }

  PatternId addNode(PatternNode N) {
    Out.Pool.push_back(std::move(N));
    return static_cast<PatternId>(Out.Pool.size() - 1);
  }

  std::optional<PatternId> parsePattern(const SExpr &Form) {
    if (Form.isInteger()) {
      PatternNode N;
      N.TheKind = PatternNode::Kind::Const;
      N.ConstVal = static_cast<uint64_t>(Form.integer());
      return addNode(std::move(N));
    }
    if (Form.isSymbol()) {
      auto It = VarIndex.find(Form.symbol());
      if (It != VarIndex.end()) {
        PatternNode N;
        N.TheKind = PatternNode::Kind::Var;
        N.VarIndex = It->second;
        return addNode(std::move(N));
      }
      // A free symbol: a named variable/constant of the program (e.g. a
      // specific register in a program-specific axiom).
      std::string Name = stripBackslash(Form.symbol());
      std::optional<ir::OpId> Op = Ctx.Ops.lookup(Name);
      if (!Op)
        Op = Ctx.Ops.makeVariable(Name);
      if (Ctx.Ops.info(*Op).Arity != 0)
        return fail(Form, strFormat("operator '%s' used without arguments",
                                    Name.c_str()));
      PatternNode N;
      N.TheKind = PatternNode::Kind::App;
      N.Op = *Op;
      return addNode(std::move(N));
    }
    // Application.
    if (!Form.isList() || Form.size() == 0 || !Form[0].isSymbol())
      return fail(Form, "malformed pattern");
    std::string Name = stripBackslash(Form[0].symbol());
    std::optional<ir::OpId> Op = Ctx.Ops.lookup(Name);
    if (!Op)
      return fail(Form,
                  strFormat("unknown operator '%s' (missing \\opdecl?)",
                            Name.c_str()));
    const ir::OpInfo &Info = Ctx.Ops.info(*Op);
    if (static_cast<size_t>(Info.Arity) != Form.size() - 1)
      return fail(Form, strFormat("operator '%s' takes %d arguments, got %zu",
                                  Name.c_str(), Info.Arity, Form.size() - 1));
    PatternNode N;
    N.TheKind = PatternNode::Kind::App;
    N.Op = *Op;
    for (size_t I = 1; I < Form.size(); ++I) {
      std::optional<PatternId> C = parsePattern(Form[I]);
      if (!C)
        return std::nullopt;
      N.Children.push_back(*C);
    }
    return addNode(std::move(N));
  }
};

/// Converts a pattern to an interned term, mapping pattern variables through
/// \p VarTerms.
ir::TermId patternToTerm(ir::Context &Ctx, const Axiom &A, PatternId Id,
                         const std::vector<ir::TermId> &VarTerms) {
  const PatternNode &N = A.pattern(Id);
  switch (N.TheKind) {
  case PatternNode::Kind::Var:
    return VarTerms[N.VarIndex];
  case PatternNode::Kind::Const:
    return Ctx.Terms.makeConst(N.ConstVal);
  case PatternNode::Kind::App: {
    std::vector<ir::TermId> Children;
    Children.reserve(N.Children.size());
    for (PatternId C : N.Children)
      Children.push_back(patternToTerm(Ctx, A, C, VarTerms));
    return Ctx.Terms.make(N.Op, Children);
  }
  }
  return 0;
}

/// True if \p Id mentions operator \p Op (used to reject directly
/// recursive "definitions" like commutativity, add(a,b) = add(b,a)).
bool patternMentionsOp(const Axiom &A, PatternId Id, ir::OpId Op) {
  const PatternNode &N = A.pattern(Id);
  if (N.TheKind != PatternNode::Kind::App)
    return false;
  if (N.Op == Op)
    return true;
  for (PatternId C : N.Children)
    if (patternMentionsOp(A, C, Op))
      return true;
  return false;
}

} // namespace

std::optional<Axiom> denali::match::parseAxiom(ir::Context &Ctx,
                                               const SExpr &Form,
                                               std::string *ErrorOut) {
  return AxiomParser(Ctx, ErrorOut).parse(Form);
}

ir::TermId denali::match::instantiatePatternTerm(
    ir::Context &Ctx, const Axiom &A, PatternId Id,
    const std::vector<ir::TermId> &VarTerms) {
  return patternToTerm(Ctx, A, Id, VarTerms);
}

std::optional<std::pair<ir::OpId, ir::OpDefinition>>
denali::match::extractDefinition(ir::Context &Ctx, const Axiom &A) {
  if (A.Body.size() != 1 || !A.Body[0].IsEq)
    return std::nullopt;
  const PatternNode &Lhs = A.pattern(A.Body[0].Lhs);
  if (Lhs.TheKind != PatternNode::Kind::App ||
      Ctx.Ops.info(Lhs.Op).Kind != ir::OpKind::Declared)
    return std::nullopt;
  // Arguments must be the distinct quantified variables, covering all.
  uint64_t Mask = 0;
  std::vector<uint32_t> ArgVars;
  for (PatternId C : Lhs.Children) {
    const PatternNode &Child = A.pattern(C);
    if (Child.TheKind != PatternNode::Kind::Var)
      return std::nullopt;
    if (Mask & (1ULL << Child.VarIndex))
      return std::nullopt; // Repeated variable.
    Mask |= 1ULL << Child.VarIndex;
    ArgVars.push_back(Child.VarIndex);
  }
  uint64_t AllVars =
      A.VarNames.empty() ? 0 : (~0ULL >> (64 - A.VarNames.size()));
  if (Mask != AllVars)
    return std::nullopt;
  // The body may reference other declared operators (they expand through
  // their own definitions at evaluation time), but not the operator being
  // defined — that would make evaluation loop.
  if (patternMentionsOp(A, A.Body[0].Rhs, Lhs.Op))
    return std::nullopt;

  // Build the body over fresh parameter variables.
  const std::string &FName = Ctx.Ops.info(Lhs.Op).Name;
  std::vector<ir::TermId> VarTerms(A.VarNames.size());
  std::vector<ir::OpId> ParamsByPosition(ArgVars.size());
  for (size_t Pos = 0; Pos < ArgVars.size(); ++Pos) {
    std::string PName = strFormat("%%%s.%zu", FName.c_str(), Pos);
    ir::OpId P = Ctx.Ops.makeVariable(PName);
    ParamsByPosition[Pos] = P;
    VarTerms[ArgVars[Pos]] = Ctx.Terms.makeVar(PName);
  }
  ir::OpDefinition Def;
  Def.Params = std::move(ParamsByPosition);
  Def.Body = patternToTerm(Ctx, A, A.Body[0].Rhs, VarTerms);
  return std::make_pair(Lhs.Op, std::move(Def));
}
