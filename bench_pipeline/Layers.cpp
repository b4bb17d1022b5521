//===- bench_pipeline/Layers.cpp ------------------------------------------===//

#include "Layers.h"

#include "axioms/BuiltinAxioms.h"
#include "codegen/Universe.h"
#include "egraph/EGraph.h"
#include "ir/Ops.h"
#include "match/Matcher.h"
#include "support/Error.h"
#include "support/Timer.h"

#include <optional>

using namespace denali;
using namespace denali::pipebench;

LayerCounts &LayerCounts::operator+=(const LayerCounts &O) {
  Rounds += O.Rounds;
  Raw += O.Raw;
  Asserted += O.Asserted;
  Merges += O.Merges;
  Rebuilds += O.Rebuilds;
  Nodes += O.Nodes;
  Classes += O.Classes;
  Probes += O.Probes;
  Vars += O.Vars;
  Clauses += O.Clauses;
  ClausesDefinition += O.ClausesDefinition;
  ClausesExclusivity += O.ClausesExclusivity;
  Conflicts += O.Conflicts;
  Propagations += O.Propagations;
  UnsatZeroConflict += O.UnsatZeroConflict;
  return *this;
}

LayerCounts denali::pipebench::countsOf(const match::MatchStats &M,
                                        const codegen::SearchResult &S) {
  LayerCounts C;
  C.Rounds = M.Rounds;
  C.Raw = M.MatchesFound;
  C.Asserted = M.InstancesAsserted;
  C.Merges = M.Merges;
  C.Rebuilds = M.Rebuilds;
  C.Nodes = M.FinalNodes;
  C.Classes = M.FinalClasses;
  C.Probes = S.Probes.size();
  for (const codegen::Probe &P : S.Probes) {
    C.Vars += static_cast<uint64_t>(P.Stats.Vars);
    C.Clauses += P.Stats.Clauses;
    C.ClausesDefinition += P.Stats.DefinitionClauses;
    C.ClausesExclusivity += P.Stats.ExclusivityClauses;
    C.Conflicts += P.Conflicts;
    C.Propagations += P.Propagations;
    if (P.Result == sat::SolveResult::Unsat && P.Conflicts == 0)
      ++C.UnsatZeroConflict;
  }
  return C;
}

std::vector<match::Axiom>
denali::pipebench::pipelineAxioms(driver::Superoptimizer &Opt,
                                  const std::vector<match::Axiom> &Program) {
  std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Opt.context());
  Axioms.insert(Axioms.end(), Program.begin(), Program.end());
  return Axioms;
}

TracedCompile denali::pipebench::tracedCompile(
    const driver::Superoptimizer &Opt, const std::vector<match::Axiom> &Axioms,
    const gma::GMA &G) {
  const driver::Options &O = Opt.options();
  // The layer sequence below is compileGMA's for these options only.
  if (O.Explain || O.EGraphDump || O.WhyUnsat || O.MatchAdaptive ||
      !O.ProfileLedgerPath.empty())
    reportFatalError("tracedCompile: only the default pipeline is traced");
  const ir::Context &Ctx = Opt.context();
  const machine::MachineModel &Model = Opt.isa();

  TracedCompile R;
  Timer Wall;

  // Layer: e-graph seed (saturateGMA's goal, guard, miss and assume terms).
  Timer T;
  std::optional<egraph::EGraph> Storage;
  egraph::EGraph &Graph = Storage.emplace(Ctx);
  std::vector<codegen::NamedGoal> Goals;
  for (size_t I = 0; I < G.Targets.size(); ++I) {
    egraph::ClassId C = Graph.addTerm(G.NewVals[I]);
    bool IsMemory = Ctx.Terms.node(G.NewVals[I]).Op ==
                        Ctx.Ops.builtin(ir::Builtin::Store) ||
                    G.Targets[I] == "M";
    Goals.push_back(codegen::NamedGoal{G.Targets[I], C, IsMemory});
  }
  std::optional<egraph::ClassId> GuardClass;
  if (G.Guard && O.EnforceGuard)
    GuardClass = Graph.addTerm(*G.Guard);
  std::unordered_map<egraph::ClassId, unsigned> MissLatency;
  for (ir::TermId Addr : G.MissAddrs)
    MissLatency[Graph.find(Graph.addTerm(Addr))] = Model.loadMissLatency();
  for (const gma::GMA::Assumption &A : G.Assumptions) {
    egraph::ClassId L = Graph.addTerm(A.Lhs);
    egraph::ClassId Rh = Graph.addTerm(A.Rhs);
    if (A.IsEq)
      Graph.assertEqual(L, Rh);
    else
      Graph.assertDistinct(L, Rh);
  }
  R.Times.Seed = T.seconds();
  if (Graph.isInconsistent()) {
    R.Error = "contradictory \\assume facts";
    R.Times.Wall = Wall.seconds();
    return R;
  }

  // Layer: saturation, from building the Matcher (it copies the axiom list)
  // to freeing its seen-sets.
  T.reset();
  match::MatchStats MS;
  {
    match::Matcher M(Axioms);
    for (match::Elaborator &E : match::standardElaborators())
      M.addElaborator(std::move(E));
    MS = M.saturate(Graph, O.Matching);
  }
  R.Times.Saturate = T.seconds();
  if (Graph.isInconsistent()) {
    R.Error = "E-graph inconsistent";
    R.Times.Wall = Wall.seconds();
    return R;
  }
  codegen::UniverseOptions UOpts = O.Universe;
  UOpts.LoadLatencyByAddr.clear();
  for (auto &[C, L] : MissLatency)
    UOpts.LoadLatencyByAddr[Graph.find(C)] = L;
  for (codegen::NamedGoal &Goal : Goals)
    Goal.Class = Graph.find(Goal.Class);
  if (GuardClass)
    GuardClass = Graph.find(*GuardClass);

  // Layer: freeze.
  T.reset();
  Graph.compressPaths();
  R.Times.Freeze = T.seconds();

  // Layer: universe.
  std::vector<egraph::ClassId> Roots;
  for (const codegen::NamedGoal &Goal : Goals)
    Roots.push_back(Goal.Class);
  if (GuardClass)
    Roots.push_back(*GuardClass);
  T.reset();
  std::optional<codegen::Universe> UStorage;
  codegen::Universe &U = UStorage.emplace();
  std::string Err;
  bool Built = U.build(Graph, Model, Roots, UOpts, &Err);
  R.Times.Universe = T.seconds();
  if (!Built) {
    R.Error = Err;
    R.Times.Wall = Wall.seconds();
    return R;
  }
  R.UniverseTerms = U.terms().size();

  // Layer: budget search; its probes split it into encode and solve.
  codegen::SearchOptions SOpts = O.Search;
  if (GuardClass)
    SOpts.Encoding.GuardClass = *GuardClass;
  T.reset();
  R.Search = codegen::searchBudgets(Graph, Model, U, Goals, SOpts, G.Name);
  R.Times.Search = T.seconds();

  // Freeing the universe and the saturated graph is part of compileGMA's
  // wall time too.
  T.reset();
  UStorage.reset();
  Storage.reset();
  R.Times.Free = T.seconds();
  R.Times.Wall = Wall.seconds();
  for (const codegen::Probe &P : R.Search.Probes) {
    R.Times.Encode += P.EncodeSeconds;
    R.Times.Solve += P.SolveSeconds;
  }
  if (!R.Search.Found)
    R.Error = R.Search.Error;
  R.Counts = countsOf(MS, R.Search);
  return R;
}
