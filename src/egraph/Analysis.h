//===- egraph/Analysis.h - E-graph analyses ---------------------*- C++ -*-===//
///
/// \file
/// Read-only analyses over a (saturated) E-graph:
///
///  * countComputations — how many distinct computation trees the graph
///    represents for a class (the paper's "more than a hundred different
///    ways of computing a+b+c+d+e"); cycle-avoiding, capped;
///  * evaluateClasses — assigns every class a value by bottom-up
///    evaluation under an environment, reporting soundness violations
///    (a class whose member nodes disagree proves an unsound axiom).
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_EGRAPH_ANALYSIS_H
#define DENALI_EGRAPH_ANALYSIS_H

#include "egraph/EGraph.h"
#include "ir/Eval.h"
#include "ir/Value.h"

#include <string>
#include <unordered_map>
#include <vector>

namespace denali {
namespace egraph {

/// Counts distinct computation trees for \p Root, treating each choice of
/// node within a class as a distinct way. Trees may not revisit a class on
/// one path (self-referential identities like x+0 = x would otherwise give
/// infinitely many). Saturates at \p Cap.
uint64_t countComputations(const EGraph &G, ClassId Root,
                           uint64_t Cap = 1000000);

/// The result of evaluating all classes under an environment.
struct ClassValuation {
  /// Values per canonical class (classes whose value is underdetermined —
  /// e.g. applications of declared ops without definitions — are absent).
  std::unordered_map<ClassId, ir::Value> Values;
  /// Human-readable descriptions of soundness violations (node evaluated
  /// to a value different from its class's established value).
  std::vector<std::string> Violations;

  bool sound() const { return Violations.empty(); }
};

/// Evaluates every class of \p G bottom-up under \p Bindings (variable
/// operator -> value). \p Defs supplies expansions for declared operators.
ClassValuation evaluateClasses(const EGraph &G, const ir::Env &Bindings,
                               const ir::Definitions *Defs = nullptr);

} // namespace egraph
} // namespace denali

#endif // DENALI_EGRAPH_ANALYSIS_H
