//===- driver/Superoptimizer.h - The Denali pipeline ------------*- C++ -*-===//
///
/// \file
/// The public facade: Figure 1's flow. A Superoptimizer owns the operator
/// and term tables, the EV6 description, and the built-in axiom files; it
/// compiles source modules (or single GMAs, or bare goal terms) to
/// near-optimal scheduled EV6 assembly, and can differentially verify the
/// result against the reference semantics on random inputs.
///
/// Typical use:
/// \code
///   denali::driver::Superoptimizer Opt;
///   auto Result = Opt.compileSource(SourceText);
///   for (auto &G : Result.Gmas)
///     std::puts(G.Search.Program.toString().c_str());
/// \endcode
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_DRIVER_SUPEROPTIMIZER_H
#define DENALI_DRIVER_SUPEROPTIMIZER_H

#include "axioms/BuiltinAxioms.h"
#include "codegen/Search.h"
#include "gma/GMA.h"
#include "lang/Parser.h"
#include "machine/Machine.h"
#include "machine/Sim.h"
#include "match/Matcher.h"
#include "obs/Obs.h"

#include <memory>
#include <optional>
#include <string>
#include <vector>

namespace denali {
namespace driver {

/// Pipeline knobs.
struct Options {
  /// Target machine backend, by registry name ("alpha", "rv64", ...; see
  /// machine::registeredMachines()). The architectural description of
  /// Figure 1 is pluggable: every later pipeline stage reads the chosen
  /// machine::MachineModel, never a hard-coded EV6 table.
  std::string MachineName = "alpha";
  match::MatchLimits Matching;
  codegen::SearchOptions Search;
  /// Universe-construction knobs (displacement folding range, and the
  /// verification harness's latency fault injection). The per-GMA \miss
  /// latency overrides are merged in by compileGMA.
  codegen::UniverseOptions Universe;
  /// Enforce guard-before-memory-operation ordering when a GMA has a
  /// nontrivial guard (paper, section 7).
  bool EnforceGuard = true;
  /// Provenance & explanation (src/explain). Explain switches the e-graph
  /// into provenance mode (proof forest + per-union justifications) and
  /// attaches a per-instruction derivation-chain explanation of the
  /// winning schedule to GmaResult (JSON + annotated listing).
  bool Explain = false;
  /// Dump the quiescent e-graph (DOT + JSON) into GmaResult.
  bool EGraphDump = false;
  /// Run the K-1 explain probe (SearchOptions::ExplainUnsat) and fold its
  /// clause-family attribution core into GmaResult::WhyUnsatText.
  bool WhyUnsat = false;
  /// Observability: when Obs.Enabled the constructor installs this as the
  /// process-wide obs configuration (tracing spans, metric counters, and
  /// leveled logging across the whole pipeline). Left untouched — the
  /// default — the constructor does not reconfigure the obs layer, so a
  /// library user's own obs::configure() call survives embedded
  /// Superoptimizer instances.
  obs::ObsConfig Obs;
  /// Saturation-profile ledger path (`--profile-ledger`): the constructor
  /// merges the file into the in-memory ledger, every saturation records
  /// its per-axiom attribution, and saveProfileLedger() writes the
  /// aggregate back. Empty = no persistence; the in-memory ledger still
  /// accumulates when MatchAdaptive is on, so a long-lived server warms
  /// its own scheduling within the process.
  std::string ProfileLedgerPath;
  /// History-driven saturation scheduling (`--match-adaptive`): seed
  /// per-axiom budgets and phase assignment from the ledger rows recorded
  /// under profileLedgerKey() instead of uniform budgets + blind doubling.
  /// Without matching history this is exactly the default scheduler. Any
  /// run that reaches quiescence reaches the identical closure (held-back
  /// work re-enters via the sit-out/phase machinery); a rounds-bounded
  /// run may stop at a different — equally valid — frontier, exactly as
  /// changing MatchBudget would.
  bool MatchAdaptive = false;
};

/// Checks \p Name against the machine registry, with the built-in backends
/// registered. \returns the command-line diagnostic for an unknown name,
/// "unknown machine 'vax' (known: alpha, rv64)", or std::nullopt.
std::optional<std::string> checkMachineName(const std::string &Name);

/// The profile ledger's graph key for \p Opts: a fingerprint of every
/// option that shapes saturation (match limits, universe knobs, guard
/// enforcement, provenance mode), but not of the adaptive switch, so the
/// cold profiling runs that build a ledger and the adaptive runs it later
/// warms share one row set.
std::string profileLedgerKey(const Options &Opts);

/// The result of compiling one GMA.
struct GmaResult {
  gma::GMA Gma;
  match::MatchStats Matching;
  double MatchSeconds = 0;
  codegen::SearchResult Search;
  std::string Error; ///< Nonempty on failure.
  /// With Options::Explain: the derivation-chain explanation of the
  /// winning schedule, as JSON and as an annotated assembly listing.
  std::string ExplanationJson;
  std::string ExplanationListing;
  /// With Options::EGraphDump: the quiescent e-graph, as Graphviz DOT and
  /// as JSON.
  std::string EGraphDotText;
  std::string EGraphJsonText;
  /// With Options::WhyUnsat: the human-readable bottleneck report of the
  /// K-1 refutation (empty when no explain probe ran, e.g. when the
  /// minimal budget was feasible immediately).
  std::string WhyUnsatText;

  bool ok() const { return Error.empty() && Search.Found; }
};

/// The result of compiling a module.
struct CompileResult {
  std::string Error; ///< Nonempty on front-end failure.
  std::vector<GmaResult> Gmas;

  bool ok() const { return Error.empty(); }
};

/// A quiescent saturated e-graph for one GMA, ready for (repeated)
/// universe construction and budget search. Produced by saturateGMA(),
/// consumed by compileSaturated(). The graph is path-compressed on
/// return, so every subsequent const query is a pure read: one
/// SaturatedGma may serve many concurrent compileSaturated() calls
/// (ServerTest.SaturateOnceCompileManyConcurrently), and a test may
/// saturate once and search many times.
struct SaturatedGma {
  std::shared_ptr<const egraph::EGraph> Graph;
  /// Goal targets (names from the saturating GMA) with classes already
  /// canonicalized against the quiescent graph.
  std::vector<codegen::NamedGoal> Goals;
  std::optional<egraph::ClassId> GuardClass;
  /// Universe options with the per-\miss latency overrides merged in and
  /// re-canonicalized after saturation moved classes.
  codegen::UniverseOptions UOpts;
  match::MatchStats Matching;
  double MatchSeconds = 0;
  std::string Error; ///< Nonempty: contradictory \assume facts or an
                     ///< inconsistent saturation.

  bool ok() const { return Error.empty(); }
};

class Superoptimizer {
public:
  explicit Superoptimizer(Options Opts = Options());

  ir::Context &context() { return Ctx; }
  const ir::Context &context() const { return Ctx; }
  const machine::MachineModel &isa() const { return *Model; }
  Options &options() { return Opts; }
  const Options &options() const { return Opts; }

  /// Compiles Denali source text — either the prototype's parenthesized
  /// syntax (Figure 6) or the envisioned surface syntax (Figures 3/5; see
  /// lang/Surface.h): declares operators, collects program axioms,
  /// translates every procedure to GMAs, and superoptimizes each. This is
  /// the mutable front end: it interns new operators/axioms and must be
  /// serialized by callers that share one instance across threads.
  CompileResult compileSource(const std::string &Source);

  /// Superoptimizes one GMA (the crucial inner subroutine). Const and
  /// re-entrant: compiling touches no pipeline-wide mutable state (the
  /// term/operator tables are only read), so two threads may compile
  /// distinct pre-interned GMAs on one instance concurrently.
  GmaResult compileGMA(const gma::GMA &G) const;

  /// First half of compileGMA: seed the e-graph from \p G, saturate under
  /// the axioms, canonicalize the goal classes, and freeze the graph
  /// (path-compressed). The result can be compiled repeatedly — and
  /// concurrently — via compileSaturated().
  SaturatedGma saturateGMA(const gma::GMA &G) const;

  /// Second half of compileGMA: universe construction + the SAT budget
  /// ladder (+ dump/explain artifacts) against an already-saturated
  /// graph. \p G names the request being served: the GmaResult carries it,
  /// but the emitted program's input/output names come from the GMA that
  /// produced \p S (identical when called via compileGMA).
  GmaResult compileSaturated(const SaturatedGma &S, const gma::GMA &G) const;

  /// Superoptimizes a bare vector of goal terms (library entry point for
  /// the examples): target names are paired with terms.
  GmaResult
  compileGoals(const std::string &Name,
               const std::vector<std::pair<std::string, ir::TermId>> &Goals)
      const;

  /// Registers extra axioms (program-specific facts). \returns false with
  /// \p ErrorOut on parse failure. Definitional axioms also extend the
  /// reference evaluator.
  bool addAxiomsText(const std::string &Text, std::string *ErrorOut);

  /// Differentially verifies a compiled GMA: for \p Trials random input
  /// environments, the simulated program's outputs must equal the GMA's
  /// reference evaluation. \returns an error description or std::nullopt.
  std::optional<std::string> verify(const GmaResult &R, unsigned Trials = 16,
                                    uint64_t Seed = 1) const;

  /// The evaluator definitions harvested from definitional axioms.
  const ir::Definitions &definitions() const { return Defs; }

  /// The in-memory saturation-profile ledger (thread-safe; see
  /// Options::ProfileLedgerPath). Const access pattern mirrors the
  /// compile paths: recording during const compiles is an observability
  /// side effect, not pipeline state.
  obs::ProfileLedger &profileLedger() const { return Ledger; }

  /// Writes the ledger back to Options::ProfileLedgerPath. \returns true
  /// when the path is empty (nothing to persist) or the write succeeded.
  bool saveProfileLedger(std::string *ErrorOut = nullptr) const;

private:
  Options Opts;
  ir::Context Ctx;
  std::unique_ptr<machine::MachineModel> Model;
  std::vector<match::Axiom> Axioms;
  ir::Definitions Defs;
  mutable obs::ProfileLedger Ledger;
};

} // namespace driver
} // namespace denali

#endif // DENALI_DRIVER_SUPEROPTIMIZER_H
