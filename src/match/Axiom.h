//===- match/Axiom.h - Patterns and axioms ----------------------*- C++ -*-===//
///
/// \file
/// Declarative facts in the paper's three forms (section 5): quantified
/// equalities, distinctions, and clauses (disjunctions of literals), with
/// optional explicit trigger patterns (the paper's suppressed "pats").
///
/// Concrete syntax (Figure 6 / section 8):
///
///   (\axiom (forall (a b) (pats (add a b))
///     (eq (add a b) (add b a))))
///   (\axiom (forall (a i j x) (pats (select (store a i x) j))
///     (or (eq i j) (eq (select (store a i x) j) (select a j)))))
///   (\axiom (eq reg7 0))                      ; unquantified
///
/// When (pats ...) is omitted, each App side of each literal that binds all
/// quantified variables is used as a trigger.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_MATCH_AXIOM_H
#define DENALI_MATCH_AXIOM_H

#include "ir/Eval.h"
#include "ir/Term.h"
#include "sexpr/SExpr.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace denali {
namespace match {

using PatternId = uint32_t;

/// One node of a pattern tree (stored in the owning axiom's pool).
struct PatternNode {
  enum class Kind { Var, Const, App };
  Kind TheKind = Kind::App;
  uint32_t VarIndex = 0;              ///< For Var.
  uint64_t ConstVal = 0;              ///< For Const.
  ir::OpId Op = 0;                    ///< For App.
  std::vector<PatternId> Children;    ///< For App.
};

/// One instruction of a compiled pattern (a range of Axiom::Steps).
///
/// A trigger's match program holds one step per pattern node below the
/// trigger's root, in pre-order. Each step reads the class in child slot
/// Slot of the node in register Node (register 0 holds the root, register
/// S + 1 the node step S bound), and then:
///   * Bind walks the class's nodes with operator Value, binding each in
///     turn to register S + 1;
///   * Var binds variable Value to the class, or, when Repeat is set,
///     checks that the class is the one an earlier step bound it to;
///   * Const checks that the class holds the constant Value.
///
/// A literal side's program holds one step per pattern node, in
/// post-order, over a stack of classes: Var pushes variable Value's
/// binding, Const the class of constant Value, and App pops Slot operands
/// and pushes the class of operator Value applied to them.
struct PatternStep {
  enum class Kind : uint8_t { Bind, Var, Const, App };
  Kind TheKind = Kind::App;
  bool Repeat = false;
  uint32_t Slot = 0;
  uint32_t Node = 0;
  uint64_t Value = 0;
};

/// A compiled pattern: Steps[Begin, Begin + Size) of its axiom.
struct PatternProgram {
  uint32_t Begin = 0;
  uint32_t Size = 0;
};

/// A literal of an axiom body: equality or distinction between patterns.
struct AxiomLiteral {
  bool IsEq = true;
  PatternId Lhs = 0;
  PatternId Rhs = 0;
  /// The sides' post-order programs.
  PatternProgram LhsProgram, RhsProgram;
};

/// A parsed axiom, compiled: parseAxiom() builds every program once, so
/// every matcher over the axiom runs them as they are.
struct Axiom {
  std::string Name; ///< For diagnostics ("axiom@line 12").
  std::vector<std::string> VarNames;
  std::vector<PatternNode> Pool;
  std::vector<PatternId> Triggers; ///< Each binds all variables.
  /// Per trigger, its patternHeight(): a semi-naive round matches it from
  /// roots within height - 1 parent steps of a changed node.
  std::vector<uint32_t> TriggerHeights;
  /// Per trigger, its pre-order match program.
  std::vector<PatternProgram> TriggerPrograms;
  std::vector<AxiomLiteral> Body;  ///< Size 1: plain literal; >1: clause.
  /// Every program's steps, one program after another.
  std::vector<PatternStep> Steps;

  const PatternNode &pattern(PatternId Id) const { return Pool[Id]; }
  const PatternStep *steps(PatternProgram P) const {
    return Steps.data() + P.Begin;
  }

  /// Depth of the deepest application in pattern \p Id (a lone
  /// application is 1; a variable or constant is 0).
  uint32_t patternHeight(PatternId Id) const;

  /// Variables mentioned by pattern \p Id (bitmask over VarNames).
  uint64_t patternVarMask(PatternId Id) const;

  /// Renders a pattern for diagnostics.
  std::string patternToString(const ir::Context &Ctx, PatternId Id) const;
};

/// Parses one (\axiom ...) form. \returns std::nullopt and sets \p ErrorOut
/// on malformed input (unknown operator, trigger not binding all vars, ...).
/// Operator names may carry the \-prefix of builtin references (\add64).
std::optional<Axiom> parseAxiom(ir::Context &Ctx, const sexpr::SExpr &Form,
                                std::string *ErrorOut);

/// If \p A is definitional — a single equality f(x1..xn) = rhs with f a
/// declared operator and x1..xn exactly the distinct quantified variables —
/// \returns the operator and an evaluator definition for it.
std::optional<std::pair<ir::OpId, ir::OpDefinition>>
extractDefinition(ir::Context &Ctx, const Axiom &A);

/// Instantiates pattern \p Id of \p A as an interned term, mapping the
/// axiom's variables through \p VarTerms (indexed by variable number).
/// Used by the axiom-soundness tests to evaluate axiom instances directly.
ir::TermId instantiatePatternTerm(ir::Context &Ctx, const Axiom &A,
                                  PatternId Id,
                                  const std::vector<ir::TermId> &VarTerms);

} // namespace match
} // namespace denali

#endif // DENALI_MATCH_AXIOM_H
