//===- egraph/Analysis.cpp ------------------------------------------------===//

#include "egraph/Analysis.h"

#include "support/StringExtras.h"

#include <unordered_set>

using namespace denali;
using namespace denali::egraph;
using denali::ir::Builtin;

namespace {

class ComputationCounter {
public:
  ComputationCounter(const EGraph &G, uint64_t Cap) : G(G), Cap(Cap) {}

  uint64_t countClass(ClassId C) {
    C = G.find(C);
    if (!OnPath.insert(C).second)
      return 0; // Do not revisit a class on one path.
    uint64_t Total = 0;
    for (ENodeId N : G.classNodes(C)) {
      Total += countNode(N);
      if (Total >= Cap) {
        Total = Cap;
        break;
      }
    }
    OnPath.erase(C);
    return Total;
  }

private:
  const EGraph &G;
  uint64_t Cap;
  std::unordered_set<ClassId> OnPath;

  uint64_t countNode(ENodeId N) {
    const ENode &Node = G.node(N);
    uint64_t Ways = 1;
    for (ClassId C : Node.Children) {
      uint64_t ChildWays = countClass(C);
      if (ChildWays == 0)
        return 0; // Child only computable through the path above us.
      if (ChildWays >= Cap / Ways)
        return Cap;
      Ways *= ChildWays;
    }
    return Ways;
  }
};

} // namespace

uint64_t denali::egraph::countComputations(const EGraph &G, ClassId Root,
                                           uint64_t Cap) {
  return ComputationCounter(G, Cap).countClass(Root);
}

ClassValuation denali::egraph::evaluateClasses(const EGraph &G,
                                               const ir::Env &Bindings,
                                               const ir::Definitions *Defs) {
  ClassValuation Out;
  const ir::Context &Ctx = G.context();

  // Collect live nodes once.
  std::vector<ENodeId> Live;
  for (ClassId C : G.canonicalClasses())
    for (ENodeId N : G.classNodes(C))
      Live.push_back(N);

  auto tryEvalNode = [&](ENodeId NId) -> std::optional<ir::Value> {
    const ENode &N = G.node(NId);
    const ir::OpInfo &Info = Ctx.Ops.info(N.Op);
    if (Info.BuiltinOp == Builtin::Const)
      return ir::Value::makeInt(N.ConstVal);
    if (Info.Kind == ir::OpKind::Variable) {
      auto It = Bindings.find(N.Op);
      if (It == Bindings.end())
        return std::nullopt;
      return It->second;
    }
    std::vector<ir::Value> Args;
    Args.reserve(N.Children.size());
    for (ClassId C : N.Children) {
      auto It = Out.Values.find(G.find(C));
      if (It == Out.Values.end())
        return std::nullopt;
      Args.push_back(It->second);
    }
    if (Info.Kind == ir::OpKind::Builtin)
      return ir::evalBuiltin(Info.BuiltinOp, Args);
    // Declared operator: expand through a registered definition.
    if (!Defs)
      return std::nullopt;
    auto DefIt = Defs->find(N.Op);
    if (DefIt == Defs->end())
      return std::nullopt;
    const ir::OpDefinition &Def = DefIt->second;
    if (Def.Params.size() != Args.size())
      return std::nullopt;
    ir::Env Inner = Bindings;
    for (size_t I = 0; I < Args.size(); ++I)
      Inner[Def.Params[I]] = Args[I];
    return ir::evalTerm(Ctx.Terms, Def.Body, Inner, Defs);
  };

  // Fixpoint: keep sweeping until no class gains a value.
  std::unordered_set<ENodeId> ViolatedNodes;
  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (ENodeId NId : Live) {
      std::optional<ir::Value> V = tryEvalNode(NId);
      if (!V)
        continue;
      ClassId C = G.classOf(NId);
      auto It = Out.Values.find(C);
      if (It == Out.Values.end()) {
        Out.Values.emplace(C, *V);
        Changed = true;
      } else if (!It->second.equals(*V)) {
        std::string Msg = strFormat(
            "class c%u: node %s evaluates to %s but class holds %s", C,
            G.nodeToString(NId).c_str(), V->toString().c_str(),
            It->second.toString().c_str());
        // Record each violating node once.
        if (ViolatedNodes.insert(NId).second)
          Out.Violations.push_back(std::move(Msg));
      }
    }
  }
  return Out;
}
