//===- baseline/EGraphExtract.cpp -----------------------------------------===//

#include "baseline/EGraphExtract.h"

#include "baseline/TreeCodegen.h"
#include "support/StringExtras.h"

#include <functional>
#include <unordered_map>

using namespace denali;
using namespace denali::baseline;
using namespace denali::egraph;

namespace {

constexpr unsigned Infinity = ~0u;

/// Per-node cost under the local model: instruction latency; leaves free
/// (inputs, literal-slot constants); large constants pay the ldiq.
unsigned opCost(const ir::Context &Ctx, const machine::MachineModel &Isa,
                const ENode &N) {
  const ir::OpInfo &Info = Ctx.Ops.info(N.Op);
  if (Info.BuiltinOp == ir::Builtin::Const)
    return N.ConstVal > 255 ? 1 : 0;
  if (Info.Kind == ir::OpKind::Variable)
    return 0;
  const alpha::InstrDesc *Desc = Isa.descFor(N.Op);
  return Desc ? Desc->Latency : Infinity;
}

} // namespace

std::optional<ExtractResult>
denali::baseline::extractBestTerm(const EGraph &G, const machine::MachineModel &Isa,
                                  ClassId Root) {
  const ir::Context &Ctx = G.context();

  // DP to fixpoint: cost[class] = min over nodes of
  // opCost(node) + sum cost[child].
  std::unordered_map<ClassId, unsigned> Cost;
  std::unordered_map<ClassId, ENodeId> Best;
  std::vector<std::pair<ClassId, ENodeId>> Live;
  for (ClassId C : G.canonicalClasses())
    for (ENodeId N : G.classNodes(C))
      Live.emplace_back(C, N);

  bool Changed = true;
  while (Changed) {
    Changed = false;
    for (auto &[C, NId] : Live) {
      const ENode &N = G.node(NId);
      unsigned NodeCost = opCost(Ctx, Isa, N);
      if (NodeCost == Infinity)
        continue;
      uint64_t Total = NodeCost;
      bool Ok = true;
      for (ClassId Child : N.Children) {
        auto It = Cost.find(G.find(Child));
        if (It == Cost.end()) {
          Ok = false;
          break;
        }
        Total += It->second;
      }
      if (!Ok || Total >= Infinity)
        continue;
      auto It = Cost.find(C);
      if (It == Cost.end() || Total < It->second) {
        Cost[C] = static_cast<unsigned>(Total);
        Best[C] = NId;
        Changed = true;
      }
    }
  }

  ClassId R = G.find(Root);
  if (!Cost.count(R))
    return std::nullopt;

  // Build the term for the chosen nodes (costs strictly decrease downward
  // except through zero-cost leaves, so this recursion terminates).
  std::unordered_map<ClassId, ir::TermId> Memo;
  // The context is logically mutable for term interning here; extraction
  // is a builder, not an analysis.
  ir::Context &MutCtx = const_cast<ir::Context &>(Ctx);
  std::function<ir::TermId(ClassId)> Build = [&](ClassId C) -> ir::TermId {
    C = G.find(C);
    auto MIt = Memo.find(C);
    if (MIt != Memo.end())
      return MIt->second;
    const ENode &N = G.node(Best.at(C));
    ir::TermId T;
    if (Ctx.Ops.isConst(N.Op)) {
      T = MutCtx.Terms.makeConst(N.ConstVal);
    } else {
      std::vector<ir::TermId> Children;
      for (ClassId Child : N.Children)
        Children.push_back(Build(Child));
      T = MutCtx.Terms.make(N.Op, Children);
    }
    Memo.emplace(C, T);
    return T;
  };
  ExtractResult Out;
  Out.Term = Build(R);
  Out.Cost = Cost.at(R);
  return Out;
}

std::optional<machine::Program> denali::baseline::extractAndSchedule(
    EGraph &G, const machine::MachineModel &Isa,
    const std::vector<std::pair<std::string, ClassId>> &Goals,
    const std::string &Name, std::string *ErrorOut) {
  std::vector<std::pair<std::string, ir::TermId>> Terms;
  for (const auto &[Target, Class] : Goals) {
    std::optional<ExtractResult> R = extractBestTerm(G, Isa, Class);
    if (!R) {
      if (ErrorOut)
        *ErrorOut = strFormat("class c%u has no machine-term extraction",
                              G.find(Class));
      return std::nullopt;
    }
    Terms.emplace_back(Target, R->Term);
  }
  return naiveCodegen(G.context(), Isa, Terms, Name, ErrorOut);
}
