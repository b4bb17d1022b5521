//===- bench/bench_egraph.cpp - E-graph microbenchmarks -------------------===//
//
// Microbenchmarks of the E-graph substrate: insertion throughput,
// congruence-closure repair under merges, and e-matching over saturated
// graphs. These justify the engineering choices behind the matcher (the
// paper's note that E-graph matching is costlier than plain term matching
// but worth it).
//
//===----------------------------------------------------------------------===//

#include "axioms/BuiltinAxioms.h"
#include "egraph/EGraph.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"

#include <benchmark/benchmark.h>

using namespace denali;
using namespace denali::egraph;
using denali::ir::Builtin;

static void BM_EGraphInsertChain(benchmark::State &State) {
  for (auto _ : State) {
    ir::Context Ctx;
    EGraph G(Ctx);
    ClassId C = G.addNode(Ctx.Ops.makeVariable("x"), {});
    for (int64_t I = 0; I < State.range(0); ++I)
      C = G.addNode(Ctx.Ops.builtin(Builtin::Add64), {C, G.addConst(1)});
    benchmark::DoNotOptimize(C);
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_EGraphInsertChain)->Arg(100)->Arg(1000)->Arg(10000);

static void BM_EGraphCongruenceCascade(benchmark::State &State) {
  // Merging the leaves of N parallel unary towers forces a full cascade of
  // congruence repairs.
  for (auto _ : State) {
    State.PauseTiming();
    ir::Context Ctx;
    EGraph G(Ctx);
    int64_t Height = State.range(0);
    ClassId A = G.addNode(Ctx.Ops.makeVariable("a"), {});
    ClassId B = G.addNode(Ctx.Ops.makeVariable("b"), {});
    ClassId TA = A, TB = B;
    for (int64_t I = 0; I < Height; ++I) {
      TA = G.addNode(Ctx.Ops.builtin(Builtin::Neg64), {TA});
      TB = G.addNode(Ctx.Ops.builtin(Builtin::Neg64), {TB});
    }
    State.ResumeTiming();
    G.assertEqual(A, B);
    benchmark::DoNotOptimize(G.sameClass(TA, TB));
  }
  State.SetItemsProcessed(State.iterations() * State.range(0));
}
BENCHMARK(BM_EGraphCongruenceCascade)->Arg(100)->Arg(1000)->Arg(5000);

static void BM_SaturateFigure2(benchmark::State &State) {
  for (auto _ : State) {
    ir::Context Ctx;
    EGraph G(Ctx);
    ClassId Mul = G.addNode(
        Ctx.Ops.builtin(Builtin::Mul64),
        {G.addNode(Ctx.Ops.makeVariable("reg6"), {}), G.addConst(4)});
    ClassId Goal =
        G.addNode(Ctx.Ops.builtin(Builtin::Add64), {Mul, G.addConst(1)});
    benchmark::DoNotOptimize(Goal);
    const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
    match::Matcher M(Axioms);
    for (match::Elaborator &E : match::standardElaborators())
      M.addElaborator(std::move(E));
    match::MatchStats Stats = M.saturate(G);
    benchmark::DoNotOptimize(Stats.FinalNodes);
  }
}
BENCHMARK(BM_SaturateFigure2);

static void BM_SaturateAcSum(benchmark::State &State) {
  // AC saturation of a + b + ... (the expensive, exponential case the
  // paper warns about).
  for (auto _ : State) {
    ir::Context Ctx;
    EGraph G(Ctx);
    ClassId Sum = G.addNode(Ctx.Ops.makeVariable("t0"), {});
    for (int64_t I = 1; I < State.range(0); ++I)
      Sum = G.addNode(
          Ctx.Ops.builtin(Builtin::Add64),
          {Sum,
           G.addNode(Ctx.Ops.makeVariable("t" + std::to_string(I)), {})});
    const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
    match::Matcher M(Axioms);
    match::MatchLimits Limits;
    Limits.MaxNodes = 20000;
    match::MatchStats Stats = M.saturate(G, Limits);
    benchmark::DoNotOptimize(Stats.FinalNodes);
  }
}
BENCHMARK(BM_SaturateAcSum)->Arg(3)->Arg(4)->Arg(5);

BENCHMARK_MAIN();
