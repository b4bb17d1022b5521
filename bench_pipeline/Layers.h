//===- bench_pipeline/Layers.h - compileGMA, one layer call at a time -----===//
///
/// \file
/// The traced run of the pipeline benchmark. tracedCompile() repeats what
/// Superoptimizer::compileGMA does for the default options, but calls each
/// layer's public entry point itself (seed, saturate, freeze, universe,
/// budget search) and records a span around every call. The benchmark
/// checks that it returns compileGMA's exact answer, so the spans measure
/// the same work as the untraced end-to-end metrics.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_BENCH_PIPELINE_LAYERS_H
#define DENALI_BENCH_PIPELINE_LAYERS_H

#include "codegen/Search.h"
#include "driver/Superoptimizer.h"
#include "match/Axiom.h"

#include <string>
#include <vector>

namespace denali {
namespace pipebench {

/// Deterministic work counters of one compile. Every field is exact: two
/// compiles of one GMA must agree on all of them.
struct LayerCounts {
  uint64_t Rounds = 0, Raw = 0, Asserted = 0, Merges = 0, Rebuilds = 0;
  uint64_t Nodes = 0, Classes = 0;
  uint64_t Probes = 0, Vars = 0, Clauses = 0, ClausesDefinition = 0,
           ClausesExclusivity = 0;
  uint64_t Conflicts = 0, Propagations = 0, UnsatZeroConflict = 0;

  bool operator==(const LayerCounts &O) const = default;
  LayerCounts &operator+=(const LayerCounts &O);
};

/// The counters of a finished compile, read off its match statistics and
/// probe ladder (so untraced GmaResults and traced runs compare directly).
LayerCounts countsOf(const match::MatchStats &M,
                     const codegen::SearchResult &S);

/// Wall-clock seconds of each layer span of one traced compile.
struct LayerTimes {
  double Seed = 0;     ///< EGraph construction, addTerm, assume facts.
  double Saturate = 0; ///< Matcher construction + Matcher::saturate.
  double Freeze = 0;   ///< EGraph::compressPaths.
  double Universe = 0; ///< Universe::build.
  double Search = 0;   ///< searchBudgets (encode + solve + extract).
  double Encode = 0;   ///< Sum of the probes' EncodeSeconds.
  double Solve = 0;    ///< Sum of the probes' SolveSeconds.
  double Free = 0;     ///< Destroying the universe and the e-graph.
  double Wall = 0;     ///< The whole traced compile.

  /// Time outside every layer span: the driver's own glue.
  double glue() const {
    return Wall - (Seed + Saturate + Freeze + Universe + Search + Free);
  }
};

struct TracedCompile {
  LayerTimes Times;
  LayerCounts Counts;
  uint64_t UniverseTerms = 0;
  codegen::SearchResult Search;
  std::string Error; ///< Nonempty when compileGMA would report an error.
};

/// The axiom list compileGMA saturates under: the built-in axioms (loaded
/// into \p Opt's context, where they intern to the terms the constructor
/// already created), then \p ProgramAxioms in program order.
std::vector<match::Axiom>
pipelineAxioms(driver::Superoptimizer &Opt,
               const std::vector<match::Axiom> &ProgramAxioms);

/// compileGMA(\p G) on \p Opt, one layer call at a time.
TracedCompile tracedCompile(const driver::Superoptimizer &Opt,
                            const std::vector<match::Axiom> &Axioms,
                            const gma::GMA &G);

} // namespace pipebench
} // namespace denali

#endif // DENALI_BENCH_PIPELINE_LAYERS_H
