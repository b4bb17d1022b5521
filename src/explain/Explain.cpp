//===- explain/Explain.cpp ------------------------------------------------===//

#include "explain/Explain.h"

#include "obs/Obs.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <map>
#include <set>
#include <unordered_set>

using namespace denali;
using namespace denali::explain;
using namespace denali::egraph;

const char *
denali::explain::justificationKindName(Justification::Kind K) {
  switch (K) {
  case Justification::Kind::External:
    return "external";
  case Justification::Kind::Axiom:
    return "axiom";
  case Justification::Kind::Congruence:
    return "congruence";
  case Justification::Kind::ConstantFold:
    return "constant-fold";
  case Justification::Kind::ClauseUnit:
    return "clause-unit";
  }
  return "unknown";
}

namespace {

/// Renders one proof step, resolving axiom names and substitutions.
DerivationStep renderStep(const EGraph &G,
                          const std::vector<match::Axiom> &Axioms,
                          const ProofStep &PS) {
  DerivationStep D;
  D.From = PS.From;
  D.To = PS.To;
  D.Kind = PS.J.TheKind;
  D.Forward = PS.Forward;
  if (PS.J.TheKind == Justification::Kind::Axiom) {
    D.AxiomIdx = PS.J.RuleId;
    D.Round = PS.J.Round;
    const match::Axiom *A =
        PS.J.RuleId < Axioms.size() ? &Axioms[PS.J.RuleId] : nullptr;
    D.AxiomName = A ? A->Name : strFormat("axiom#%u", PS.J.RuleId);
    const std::vector<ClassId> &Arena = G.substArena();
    for (uint32_t I = 0; I < PS.J.SubstLen; ++I) {
      if (PS.J.SubstBegin + I >= Arena.size())
        break;
      std::string Var = A && I < A->VarNames.size()
                            ? A->VarNames[I]
                            : strFormat("v%u", I);
      D.Subst.emplace_back(std::move(Var),
                           G.find(Arena[PS.J.SubstBegin + I]));
    }
  }
  return D;
}

} // namespace

ProgramExplanation
denali::explain::explainProgram(const EGraph &G, const codegen::Universe &U,
                                const std::vector<match::Axiom> &Axioms,
                                const machine::Program &P) {
  ProgramExplanation E;
  E.Name = P.Name;
  E.Cycles = P.Cycles;
  const std::vector<codegen::MachineTerm> &Terms = U.terms();
  for (size_t Idx = 0; Idx < P.Instrs.size(); ++Idx) {
    const machine::Instruction &I = P.Instrs[Idx];
    InstructionExplanation IE;
    IE.InstrIndex = Idx;
    IE.Mnemonic = I.Mnemonic;
    IE.Cycle = I.Cycle;
    IE.Unit = P.Model ? P.Model->unitName(I.IssueUnit)
                      : machine::defaultUnitName(I.IssueUnit);
    IE.Latency = I.Latency;
    IE.Term = I.SourceTerm;
    if (I.SourceTerm >= 0 &&
        static_cast<size_t>(I.SourceTerm) < Terms.size()) {
      const codegen::MachineTerm &MT = Terms[I.SourceTerm];
      for (machine::UnitId Un : MT.Units)
        IE.AllowedUnits.push_back(
            U.model() ? U.model()->unitName(Un)
                      : machine::defaultUnitName(Un));
      IE.Class = G.find(MT.Class);
      IE.IsLdiq = MT.IsLdiq;
      if (MT.IsLdiq) {
        // Constant materialization: no e-node, nothing to derive.
        IE.MachineNode = strFormat("(ldiq %llu)",
                                   static_cast<unsigned long long>(
                                       MT.ConstVal));
        IE.DirectlyInSpec = true;
      } else {
        IE.MachineNode = G.nodeToString(MT.Node);
        // Specification-side anchor: the earliest-created live member of
        // the class. Node ids grow monotonically, so the lowest id is the
        // node closest to (usually inside) the original GMA/goal terms;
        // the chain from it to the machine node replays the axioms that
        // made the instruction applicable.
        ENodeId Anchor = ~0u;
        G.forEachClassNode(IE.Class, [&](ENodeId N) {
          if (N < Anchor)
            Anchor = N;
        });
        if (Anchor != ~0u) {
          IE.SpecAnchor = G.nodeToString(Anchor);
          std::vector<ProofStep> Steps =
              G.explain(G.node(Anchor).Class, G.node(MT.Node).Class);
          for (const ProofStep &PS : Steps)
            IE.Chain.push_back(renderStep(G, Axioms, PS));
          IE.DirectlyInSpec = IE.Chain.empty();
        }
      }
    }
    E.Instrs.push_back(std::move(IE));
  }
  return E;
}

std::string denali::explain::explanationToJson(const ProgramExplanation &E) {
  std::string Out;
  Out += strFormat("{\"program\": \"%s\", \"cycles\": %u,\n"
                   " \"instructions\": [",
                   obs::jsonEscape(E.Name).c_str(), E.Cycles);
  for (size_t I = 0; I < E.Instrs.size(); ++I) {
    const InstructionExplanation &IE = E.Instrs[I];
    Out += I ? ",\n  {" : "\n  {";
    Out += strFormat(
        "\"index\": %zu, \"mnemonic\": \"%s\", \"cycle\": %u, "
        "\"unit\": \"%s\", \"latency\": %u, \"term\": %d, \"class\": %u, ",
        IE.InstrIndex, obs::jsonEscape(IE.Mnemonic).c_str(), IE.Cycle,
        obs::jsonEscape(IE.Unit).c_str(), IE.Latency, IE.Term, IE.Class);
    Out += "\"allowed_units\": [";
    for (size_t J = 0; J < IE.AllowedUnits.size(); ++J)
      Out += strFormat("%s\"%s\"", J ? ", " : "",
                       obs::jsonEscape(IE.AllowedUnits[J]).c_str());
    Out += strFormat(
        "], \"machine_node\": \"%s\", \"spec_anchor\": \"%s\", "
        "\"ldiq\": %s, \"directly_in_spec\": %s, \"chain\": [",
        obs::jsonEscape(IE.MachineNode).c_str(),
        obs::jsonEscape(IE.SpecAnchor).c_str(), IE.IsLdiq ? "true" : "false",
        IE.DirectlyInSpec ? "true" : "false");
    for (size_t J = 0; J < IE.Chain.size(); ++J) {
      const DerivationStep &D = IE.Chain[J];
      Out += strFormat("%s\n    {\"from\": %u, \"to\": %u, \"kind\": "
                       "\"%s\", \"forward\": %s",
                       J ? "," : "", D.From, D.To,
                       justificationKindName(D.Kind),
                       D.Forward ? "true" : "false");
      if (D.Kind == Justification::Kind::Axiom) {
        Out += strFormat(", \"axiom\": \"%s\", \"axiom_index\": %u, "
                         "\"round\": %u, \"subst\": {",
                         obs::jsonEscape(D.AxiomName).c_str(), D.AxiomIdx,
                         D.Round);
        for (size_t S = 0; S < D.Subst.size(); ++S)
          Out += strFormat("%s\"%s\": %u, ", S ? "" : "",
                           obs::jsonEscape(D.Subst[S].first).c_str(),
                           D.Subst[S].second);
        if (!D.Subst.empty())
          Out.erase(Out.size() - 2); // Trailing ", ".
        Out += "}";
      }
      Out += "}";
    }
    Out += "]}";
  }
  Out += "\n]}\n";
  return Out;
}

std::string
denali::explain::explanationToListing(const ProgramExplanation &E) {
  std::string Out = strFormat("; %s: %u cycle(s), %zu instruction(s)\n",
                              E.Name.c_str(), E.Cycles, E.Instrs.size());
  for (const InstructionExplanation &IE : E.Instrs) {
    Out += strFormat("%-10s # cycle %u, %s, latency %u", IE.Mnemonic.c_str(),
                     IE.Cycle, IE.Unit.c_str(), IE.Latency);
    if (!IE.AllowedUnits.empty()) {
      Out += " (units:";
      for (const std::string &Un : IE.AllowedUnits)
        Out += " " + Un;
      Out += ")";
    }
    Out += "\n";
    if (IE.IsLdiq) {
      Out += strFormat("    ; t%d %s: constant materialization\n", IE.Term,
                       IE.MachineNode.c_str());
      continue;
    }
    Out += strFormat("    ; t%d in class c%u: %s\n", IE.Term, IE.Class,
                     IE.MachineNode.c_str());
    if (IE.DirectlyInSpec) {
      Out += strFormat("    ; directly present in the specification\n");
      continue;
    }
    Out += strFormat("    ; derived from %s:\n", IE.SpecAnchor.c_str());
    for (const DerivationStep &D : IE.Chain) {
      Out += strFormat("    ;   c%u %s c%u  [%s", D.From,
                       D.Forward ? "->" : "<-", D.To,
                       justificationKindName(D.Kind));
      if (D.Kind == Justification::Kind::Axiom) {
        Out += strFormat(" %s @round %u", D.AxiomName.c_str(), D.Round);
        if (!D.Subst.empty()) {
          Out += " with";
          for (const auto &[Var, C] : D.Subst)
            Out += strFormat(" %s:=c%u", Var.c_str(), C);
        }
      }
      Out += "]\n";
    }
  }
  return Out;
}

std::string
denali::explain::whyUnsatReport(const codegen::SearchResult &R,
                                const codegen::Universe &U,
                                const std::vector<codegen::NamedGoal> &Goals) {
  if (R.WhyUnsatTags.empty() || R.WhyUnsatCycles == 0)
    return std::string();
  using codegen::ClauseFamily;
  struct FamilyAgg {
    std::set<unsigned> Cycles;
    std::set<unsigned> Units;
    std::set<uint32_t> Details;
    size_t Count = 0;
  };
  std::map<ClauseFamily, FamilyAgg> ByFamily;
  for (uint32_t T : R.WhyUnsatTags) {
    FamilyAgg &A = ByFamily[codegen::tagFamily(T)];
    ++A.Count;
    if (codegen::tagHasCycle(T))
      A.Cycles.insert(codegen::tagCycle(T));
    if (codegen::tagHasUnit(T))
      A.Units.insert(codegen::tagUnit(T));
    A.Details.insert(codegen::tagDetail(T));
  }

  // A tag field that overflowed decodes as TagUnknown and prints as "?"
  // (it sorts last, so a span ending in it reads "cycles 3-?").
  auto field = [](unsigned V) {
    return V == codegen::TagUnknown ? std::string("?") : strFormat("%u", V);
  };
  auto cycleSpan = [&field](const std::set<unsigned> &Cs) {
    if (Cs.empty())
      return std::string();
    unsigned Lo = *Cs.begin(), Hi = *Cs.rbegin();
    return Lo == Hi ? " at cycle " + field(Lo)
                    : " at cycles " + field(Lo) + "-" + field(Hi);
  };
  auto unitList = [&U](const std::set<unsigned> &Us) {
    std::string S;
    for (unsigned UIdx : Us) {
      if (!S.empty())
        S += ",";
      if (UIdx == codegen::TagUnknown)
        S += "?";
      else
        S += U.model()
                 ? U.model()->unitName(static_cast<machine::UnitId>(UIdx))
                 : machine::defaultUnitName(UIdx);
    }
    return S;
  };
  auto termList = [&](const std::set<uint32_t> &Ts, size_t Cap) {
    std::string S;
    size_t N = 0;
    for (uint32_t T : Ts) {
      if (N++ == Cap) {
        S += strFormat(", +%zu more", Ts.size() - Cap);
        break;
      }
      if (!S.empty())
        S += ", ";
      const char *Mn = T < U.terms().size() && U.terms()[T].Desc
                           ? U.terms()[T].Desc->Mnemonic.c_str()
                           : "?";
      S += "t" + field(T) + " (" + Mn + ")";
    }
    return S;
  };

  auto goalNames = [&](const std::set<uint32_t> &GIdxs) {
    std::string Names;
    for (uint32_t GIdx : GIdxs) {
      if (!Names.empty())
        Names += ", ";
      Names += GIdx < Goals.size()
                   ? strFormat("'%s'", Goals[GIdx].Target.c_str())
                   : "#" + field(GIdx);
    }
    return Names;
  };

  // Below the critical path a goal's deadline alone refutes the budget:
  // name the bound rather than the one clause.
  if (R.WhyUnsatCycles < R.CriticalPath) {
    auto Deadline = ByFamily.find(ClauseFamily::Deadline);
    std::string Names = Deadline == ByFamily.end()
                            ? std::string()
                            : " (" + goalNames(Deadline->second.Details) + ")";
    return strFormat("K=%u refuted: below the critical-path bound of %u "
                     "cycles%s",
                     R.WhyUnsatCycles, R.CriticalPath, Names.c_str());
  }

  std::string Out =
      strFormat("K=%u refuted:", R.WhyUnsatCycles);
  bool First = true;
  auto item = [&](const std::string &S) {
    Out += First ? " " : "; ";
    Out += S;
    First = false;
  };
  for (const auto &[F, A] : ByFamily) {
    switch (F) {
    case ClauseFamily::Definition:
      item(strFormat("completion linkage of %zu class(es)%s",
                     A.Details.size(), cycleSpan(A.Cycles).c_str()));
      break;
    case ClauseFamily::Operand:
      item(strFormat("operand availability of %s%s",
                     termList(A.Details, 4).c_str(),
                     cycleSpan(A.Cycles).c_str()));
      break;
    case ClauseFamily::Exclusivity:
      item(strFormat("issue-slot capacity on %s%s",
                     unitList(A.Units).c_str(),
                     cycleSpan(A.Cycles).c_str()));
      break;
    case ClauseFamily::Deadline:
      item(strFormat("goal deadline %s%s", goalNames(A.Details).c_str(),
                     cycleSpan(A.Cycles).c_str()));
      break;
    case ClauseFamily::Guard:
      item(strFormat("guard ordering of %s%s",
                     termList(A.Details, 4).c_str(),
                     cycleSpan(A.Cycles).c_str()));
      break;
    case ClauseFamily::Memory:
      item(strFormat("memory discipline of %s",
                     termList(A.Details, 4).c_str()));
      break;
    case ClauseFamily::Gating:
      item(strFormat("budget-ladder gating%s", cycleSpan(A.Cycles).c_str()));
      break;
    case ClauseFamily::None:
      break;
    }
  }
  return Out;
}

namespace {

/// Classes included by the dump filter: all canonical classes, or the
/// child-edge cone of FocusClass up to MaxDepth.
std::vector<ClassId> dumpClasses(const EGraph &G,
                                 const EGraphDumpOptions &Opts) {
  if (!Opts.FocusClass)
    return G.canonicalClasses();
  std::vector<ClassId> Order;
  std::unordered_set<ClassId> Seen;
  std::vector<std::pair<ClassId, unsigned>> Stack{
      {G.find(*Opts.FocusClass), 0}};
  while (!Stack.empty()) {
    auto [C, Depth] = Stack.back();
    Stack.pop_back();
    if (!Seen.insert(C).second)
      continue;
    Order.push_back(C);
    if (Depth >= Opts.MaxDepth)
      continue;
    G.forEachClassNode(C, [&](ENodeId N) {
      for (ClassId Child : G.node(N).Children)
        Stack.push_back({G.find(Child), Depth + 1});
    });
  }
  std::sort(Order.begin(), Order.end());
  return Order;
}

} // namespace

std::string denali::explain::egraphToDot(const EGraph &G,
                                         const EGraphDumpOptions &Opts) {
  const ir::Context &Ctx = G.context();
  std::vector<ClassId> Classes = dumpClasses(G, Opts);
  std::unordered_set<ClassId> Included(Classes.begin(), Classes.end());
  // A representative node per class, for inter-cluster edges.
  std::unordered_map<ClassId, ENodeId> Repr;
  for (ClassId C : Classes)
    G.forEachClassNode(C, [&](ENodeId N) {
      auto It = Repr.find(C);
      if (It == Repr.end() || N < It->second)
        Repr[C] = N;
    });

  std::string Out = "digraph egraph {\n  compound=true;\n"
                    "  node [shape=box, fontname=\"monospace\"];\n";
  for (ClassId C : Classes) {
    std::optional<uint64_t> K = G.classConstant(C);
    Out += strFormat("  subgraph cluster_c%u {\n    label=\"c%u%s\";\n", C, C,
                     K ? strFormat(" = %llu",
                                   static_cast<unsigned long long>(*K))
                             .c_str()
                       : "");
    G.forEachClassNode(C, [&](ENodeId N) {
      const ENode &Node = G.node(N);
      std::string Label = Ctx.Ops.isConst(Node.Op)
                              ? strFormat("%llu",
                                          static_cast<unsigned long long>(
                                              Node.ConstVal))
                              : Ctx.Ops.info(Node.Op).Name;
      Out += strFormat("    n%u [label=\"%s\"];\n", N,
                       obs::jsonEscape(Label).c_str());
    });
    Out += "  }\n";
  }
  for (ClassId C : Classes)
    G.forEachClassNode(C, [&](ENodeId N) {
      const ENode &Node = G.node(N);
      for (size_t I = 0; I < Node.Children.size(); ++I) {
        ClassId Child = G.find(Node.Children[I]);
        auto It = Repr.find(Child);
        if (!Included.count(Child) || It == Repr.end())
          continue;
        Out += strFormat(
            "  n%u -> n%u [lhead=cluster_c%u, label=\"%zu\"];\n", N,
            It->second, Child, I);
      }
    });
  Out += "}\n";
  return Out;
}

std::string denali::explain::egraphToJson(const EGraph &G,
                                          const EGraphDumpOptions &Opts) {
  const ir::Context &Ctx = G.context();
  std::vector<ClassId> Classes = dumpClasses(G, Opts);
  std::string Out = strFormat(
      "{\"classes\": %zu, \"nodes\": %zu,\n \"dump\": [", Classes.size(),
      G.numNodes());
  bool FirstClass = true;
  for (ClassId C : Classes) {
    Out += FirstClass ? "\n  {" : ",\n  {";
    FirstClass = false;
    Out += strFormat("\"class\": %u", C);
    if (std::optional<uint64_t> K = G.classConstant(C))
      Out += strFormat(", \"constant\": %llu",
                       static_cast<unsigned long long>(*K));
    Out += ", \"nodes\": [";
    bool FirstNode = true;
    G.forEachClassNode(C, [&](ENodeId N) {
      const ENode &Node = G.node(N);
      Out += FirstNode ? "" : ", ";
      FirstNode = false;
      Out += strFormat("{\"id\": %u, \"op\": \"%s\"", N,
                       obs::jsonEscape(Ctx.Ops.info(Node.Op).Name).c_str());
      if (Ctx.Ops.isConst(Node.Op))
        Out += strFormat(", \"value\": %llu",
                         static_cast<unsigned long long>(Node.ConstVal));
      if (!Node.Children.empty()) {
        Out += ", \"children\": [";
        for (size_t I = 0; I < Node.Children.size(); ++I)
          Out += strFormat("%s%u", I ? ", " : "", G.find(Node.Children[I]));
        Out += "]";
      }
      Out += "}";
    });
    Out += "]}";
  }
  Out += "\n]}\n";
  return Out;
}
