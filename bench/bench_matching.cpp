//===- bench/bench_matching.cpp - E1/E2/E7: the matching phase ------------===//
//
// Regenerates the section 5 claims about the matcher:
//
//  * E1 (Figure 2): saturating reg6*4 + 1 introduces 4 = 2**2, the shift
//    alternative, and the s4addl alternative;
//  * E2: the matcher finds "more than a hundred different ways" of
//    computing a + b + c + d + e;
//  * E7: the select-store clause gives load/store reordering freedom, and
//    an ablation without that axiom forces serialization through the
//    store (measured in final schedule length).
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "alpha/ISA.h"
#include "axioms/BuiltinAxioms.h"
#include "codegen/Search.h"
#include "egraph/Analysis.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "support/Timer.h"

#include <cstdio>

using namespace denali;
using namespace denali::bench;
using namespace denali::egraph;
using denali::ir::Builtin;

static match::Matcher makeMatcher(const std::vector<match::Axiom> &Axioms) {
  match::Matcher M(Axioms);
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));
  return M;
}

static bool classHasOp(const EGraph &G, ClassId C, Builtin B) {
  for (ENodeId N : G.classNodes(C))
    if (G.node(N).Op == G.context().Ops.builtin(B))
      return true;
  return false;
}

int main() {
  banner("E0", "built-in axiom files (paper: 44 mathematical axioms / 127 "
               "lines, 275 Alpha axioms / 637 lines)");
  {
    ir::Context Ctx;
    std::string Err;
    auto Math = axioms::parseAxiomsText(Ctx, axioms::mathAxiomsText(), &Err);
    auto Alpha = axioms::parseAxiomsText(Ctx, axioms::alphaAxiomsText(),
                                         &Err);
    auto countLines = [](const char *Text) {
      unsigned Lines = 0;
      for (const char *P = Text; *P; ++P)
        Lines += *P == '\n';
      return Lines;
    };
    std::printf("  mathematical: %zu axioms, %u source lines\n",
                Math ? Math->size() : 0, countLines(axioms::mathAxiomsText()));
    std::printf("  alpha EV6:    %zu axioms, %u source lines\n",
                Alpha ? Alpha->size() : 0,
                countLines(axioms::alphaAxiomsText()));
    std::printf("  (a smaller set than the prototype's: enough for every "
                "reproduced experiment; the paper notes its own files "
                "\"will need to grow further\")\n");
  }

  banner("E1", "Figure 2: matching reg6*4 + 1");
  {
    ir::Context Ctx;
    EGraph G(Ctx);
    ClassId Four = G.addConst(4);
    ClassId Mul = G.addNode(Ctx.Ops.builtin(Builtin::Mul64),
                            {G.addNode(Ctx.Ops.makeVariable("reg6"), {}),
                             Four});
    ClassId Goal =
        G.addNode(Ctx.Ops.builtin(Builtin::Add64), {Mul, G.addConst(1)});
    size_t InitialNodes = G.numNodes();
    Timer T;
    const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
    match::Matcher M = makeMatcher(Axioms);
    match::MatchStats Stats = M.saturate(G);
    std::printf("initial term DAG: %zu nodes (Figure 2a)\n", InitialNodes);
    std::printf("quiescent E-graph: %zu nodes, %zu classes, %u rounds, "
                "%.3f s\n", Stats.FinalNodes, Stats.FinalClasses,
                Stats.Rounds, T.seconds());
    std::printf("  4 = 2**2 introduced (Fig 2b):        %s\n",
                classHasOp(G, Four, Builtin::Pow) ? "yes" : "NO");
    std::printf("  reg6 << 2 in multiply class (Fig 2c): %s\n",
                classHasOp(G, Mul, Builtin::Shl64) ? "yes" : "NO");
    std::printf("  s4addl in goal class (Fig 2d):        %s\n",
                classHasOp(G, Goal, Builtin::S4Addl) ? "yes" : "NO");
    std::printf("  ways of computing the goal: %llu\n",
                static_cast<unsigned long long>(countComputations(G, Goal)));
  }

  banner("E2", "ways of computing a + b + ... (paper: >100 for five terms)");
  std::printf("%-8s %-12s %-12s %-14s %-10s\n", "terms", "enodes", "classes",
              "ways", "seconds");
  for (unsigned N = 2; N <= 5; ++N) {
    ir::Context Ctx;
    EGraph G(Ctx);
    ClassId Sum = G.addNode(Ctx.Ops.makeVariable("a0"), {});
    for (unsigned I = 1; I < N; ++I)
      Sum = G.addNode(
          Ctx.Ops.builtin(Builtin::Add64),
          {Sum, G.addNode(Ctx.Ops.makeVariable("a" + std::to_string(I)),
                          {})});
    Timer T;
    const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
    match::Matcher M = makeMatcher(Axioms);
    match::MatchLimits Limits;
    Limits.MaxNodes = 50000;
    match::MatchStats Stats = M.saturate(G, Limits);
    uint64_t Ways = countComputations(G, Sum);
    std::printf("%-8u %-12zu %-12zu %-14llu %-10.3f\n", N, Stats.FinalNodes,
                Stats.FinalClasses, static_cast<unsigned long long>(Ways),
                T.seconds());
  }

  banner("E7", "select-store reordering: with vs without the clause axiom");
  for (bool WithSelectStore : {true, false}) {
    ir::Context Ctx;
    alpha::ISA Isa(Ctx);
    EGraph G(Ctx);
    ClassId MVar = G.addNode(Ctx.Ops.makeVariable("M"), {});
    ClassId P = G.addNode(Ctx.Ops.makeVariable("p"), {});
    ClassId X = G.addNode(Ctx.Ops.makeVariable("x"), {});
    ClassId P8 = G.addNode(Ctx.Ops.builtin(Builtin::Add64),
                           {P, G.addConst(8)});
    ClassId StoreT =
        G.addNode(Ctx.Ops.builtin(Builtin::Store), {MVar, P, X});
    ClassId LoadT =
        G.addNode(Ctx.Ops.builtin(Builtin::Select), {StoreT, P8});

    // Ablation: drop the select-store clause from the axiom set.
    std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
    if (!WithSelectStore) {
      std::vector<match::Axiom> Filtered;
      for (match::Axiom &A : Axioms)
        if (A.Body.size() == 1) // Clauses carry the select-store freedom.
          Filtered.push_back(std::move(A));
      Axioms = std::move(Filtered);
    }
    match::Matcher M(Axioms);
    for (match::Elaborator &E : match::standardElaborators())
      M.addElaborator(std::move(E));
    M.saturate(G);

    codegen::Universe U;
    std::string Err;
    std::vector<codegen::NamedGoal> Goals{{"M", G.find(StoreT), true},
                                          {"r", G.find(LoadT), false}};
    if (!U.build(G, Isa, {G.find(StoreT), G.find(LoadT)},
                 codegen::UniverseOptions(), &Err)) {
      std::printf("universe failed: %s\n", Err.c_str());
      continue;
    }
    codegen::SearchOptions SOpts;
    SOpts.MaxCycles = 12;
    codegen::SearchResult R =
        codegen::searchBudgets(G, Isa, U, Goals, SOpts, "e7");
    std::printf("  %-28s -> %s cycles\n",
                WithSelectStore ? "with select-store clause"
                                : "without (ablation)",
                R.Found ? std::to_string(R.Cycles).c_str() : "??");
  }
  std::printf("(reorder freedom lets the load overlap the store; without "
              "the clause the load must wait for the store's memory "
              "value)\n");
  return 0;
}
