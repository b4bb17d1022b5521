//===- explain/Explain.h - Provenance & explanation layer -------*- C++ -*-===//
///
/// \file
/// The semantic-observability layer: turns the provenance the pipeline
/// records (the E-graph's proof forest, the encoder's clause tags, the
/// extractor's term links) into user-facing artifacts —
///
///  * **program explanations** — per emitted instruction, its e-class and
///    the axiom-level derivation chain from the specification-side term
///    down to the matched architectural instruction, plus the universe
///    latency/unit facts the scheduler used (JSON + annotated listing);
///  * **why-unsat reports** — the clause-family attribution core of the
///    K-1 refutation, folded into a human-readable bottleneck summary
///    ("K=3 refuted: issue-slot capacity on U1 at cycles 1-2, ...");
///  * **e-graph inspectors** — DOT and JSON dumps of the quiescent graph,
///    filterable by e-class and depth.
///
/// Everything here is read-only over the existing structures; nothing in
/// the hot pipeline depends on this library.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_EXPLAIN_EXPLAIN_H
#define DENALI_EXPLAIN_EXPLAIN_H

#include "codegen/Search.h"
#include "codegen/Universe.h"
#include "match/Axiom.h"

#include <optional>
#include <string>
#include <vector>

namespace denali {
namespace explain {

/// One rendered step of a derivation chain: justification J asserted
/// From == To (or To == From when !Forward).
struct DerivationStep {
  egraph::ClassId From = 0;
  egraph::ClassId To = 0;
  egraph::Justification::Kind Kind = egraph::Justification::Kind::External;
  bool Forward = true;
  uint32_t AxiomIdx = ~0u;    ///< Kind::Axiom.
  std::string AxiomName;      ///< Kind::Axiom.
  uint32_t Round = 0;         ///< Matcher round (Kind::Axiom).
  /// Substitution of the axiom instance: variable name -> bound class.
  std::vector<std::pair<std::string, egraph::ClassId>> Subst;
};

/// Human-readable name of a justification kind ("axiom", "congruence", ...).
const char *justificationKindName(egraph::Justification::Kind K);

/// Explanation of one emitted instruction.
struct InstructionExplanation {
  size_t InstrIndex = 0;  ///< Position in Program::Instrs.
  std::string Mnemonic;
  unsigned Cycle = 0;
  std::string Unit;
  unsigned Latency = 1;
  std::vector<std::string> AllowedUnits; ///< Universe unit facts.
  int32_t Term = -1;                     ///< Universe machine-term index.
  egraph::ClassId Class = 0;             ///< Canonical class computed.
  std::string MachineNode; ///< Rendered machine-side e-node.
  std::string SpecAnchor;  ///< Rendered specification-side anchor node.
  bool IsLdiq = false;     ///< Constant materialization (no e-node).
  /// Axiom-level derivation from the anchor down to the machine node.
  /// Empty with DirectlyInSpec set when the machine node *is* the earliest
  /// member of its class (the instruction appears verbatim in the spec).
  std::vector<DerivationStep> Chain;
  bool DirectlyInSpec = false;
};

/// Explanation of a whole winning schedule.
struct ProgramExplanation {
  std::string Name;
  unsigned Cycles = 0;
  std::vector<InstructionExplanation> Instrs;
};

/// Builds the per-instruction derivation chains for \p P. Requires the
/// graph to have recorded provenance (EGraph::enableProvenance before
/// saturation) and the program to carry Instruction::SourceTerm links (set
/// by Encoder::extract).
ProgramExplanation explainProgram(const egraph::EGraph &G,
                                  const codegen::Universe &U,
                                  const std::vector<match::Axiom> &Axioms,
                                  const machine::Program &P);

/// Renders \p E as a JSON document.
std::string explanationToJson(const ProgramExplanation &E);

/// Renders \p E as an annotated assembly listing (the Figure 4 style plus
/// one provenance comment block per instruction).
std::string explanationToListing(const ProgramExplanation &E);

/// Folds SearchResult::WhyUnsatTags into the bottleneck report, e.g.
/// "K=3 refuted: issue-slot capacity on U1 at cycles 1-2; operand
/// latency of t17 (mull); goal deadline 'r'". A budget below the critical
/// path reads "K=6 refuted: below the critical-path bound of 7 cycles
/// ('r')". Empty string when the result carries no why-unsat core.
std::string whyUnsatReport(const codegen::SearchResult &R,
                           const codegen::Universe &U,
                           const std::vector<codegen::NamedGoal> &Goals);

/// Filters for the e-graph dumps.
struct EGraphDumpOptions {
  /// Restrict to the classes reachable from this class's nodes (child
  /// edges), if set.
  std::optional<egraph::ClassId> FocusClass;
  /// With FocusClass: how many child-edge hops to include (~0u = all).
  unsigned MaxDepth = ~0u;
};

/// Renders the quiescent e-graph as Graphviz DOT (one cluster per e-class,
/// child edges between nodes and classes).
std::string egraphToDot(const egraph::EGraph &G,
                        const EGraphDumpOptions &Opts = {});

/// Renders the quiescent e-graph as JSON (classes -> member nodes with
/// operator, children, constants).
std::string egraphToJson(const egraph::EGraph &G,
                         const EGraphDumpOptions &Opts = {});

} // namespace explain
} // namespace denali

#endif // DENALI_EXPLAIN_EXPLAIN_H
