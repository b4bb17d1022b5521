//===- examples/egraph_dump.cpp - Visualizing the Figure 2 E-graph --------===//
//
// Reproduces Figure 2 visually: builds reg6*4 + 1, saturates, and writes
// Graphviz dot for both the initial term DAG (Fig 2a) and the quiescent
// E-graph (Fig 2d) to the current directory. Render with
//
//   dot -Tpdf fig2_initial.dot -o fig2_initial.pdf
//   dot -Tpdf fig2_saturated.dot -o fig2_saturated.pdf
//
//===----------------------------------------------------------------------===//

#include "axioms/BuiltinAxioms.h"
#include "egraph/Analysis.h"
#include "egraph/EGraph.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"

#include <cstdio>

using namespace denali;
using namespace denali::egraph;

static bool writeFile(const char *Path, const std::string &Text) {
  FILE *Out = std::fopen(Path, "w");
  if (!Out)
    return false;
  std::fwrite(Text.data(), 1, Text.size(), Out);
  std::fclose(Out);
  return true;
}

int main() {
  ir::Context Ctx;
  EGraph G(Ctx);

  ClassId Mul = G.addNode(
      Ctx.Ops.builtin(ir::Builtin::Mul64),
      {G.addNode(Ctx.Ops.makeVariable("reg6"), {}), G.addConst(4)});
  ClassId Goal =
      G.addNode(Ctx.Ops.builtin(ir::Builtin::Add64), {Mul, G.addConst(1)});

  if (!writeFile("fig2_initial.dot", toGraphviz(G))) {
    std::printf("cannot write fig2_initial.dot\n");
    return 1;
  }
  std::printf("wrote fig2_initial.dot (%zu nodes, %zu classes)\n",
              G.numNodes(), G.numClasses());

  const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
  match::Matcher M(Axioms);
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));
  match::MatchStats Stats = M.saturate(G);

  if (!writeFile("fig2_saturated.dot", toGraphviz(G))) {
    std::printf("cannot write fig2_saturated.dot\n");
    return 1;
  }
  std::printf("wrote fig2_saturated.dot (%zu nodes, %zu classes, "
              "%u rounds)\n", Stats.FinalNodes, Stats.FinalClasses,
              Stats.Rounds);
  std::printf("the goal class c%u holds %zu alternatives, including "
              "s4addl(reg6, 1)\n", G.find(Goal),
              G.classNodes(G.find(Goal)).size());
  return 0;
}
