//===- baseline/EGraphExtract.h - Equality-saturation extraction -*- C++ -*-===//
///
/// \file
/// Baseline 4: *modern* equality saturation as practiced after Denali
/// (egg-style): saturate the same E-graph, but instead of handing all
/// alternatives to a SAT scheduler, extract one best term by dynamic
/// programming over a local cost model (latency sum), then list-schedule
/// it. This isolates Denali's distinctive contribution — the *scheduling-
/// aware global selection* — from the E-graph itself: cost-based
/// extraction does not know about issue slots, clusters, or latency
/// overlap, so it ties Denali on expression *size* but loses on schedule
/// length whenever overlap or unit pressure matters.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_BASELINE_EGRAPHEXTRACT_H
#define DENALI_BASELINE_EGRAPHEXTRACT_H

#include "alpha/ISA.h"
#include "machine/Program.h"
#include "egraph/EGraph.h"
#include "ir/Term.h"

#include <optional>
#include <string>

namespace denali {
namespace baseline {

/// DP extraction result for one class.
struct ExtractResult {
  ir::TermId Term = 0;
  unsigned Cost = 0; ///< Latency-sum cost under the model used.
};

/// Extracts the minimum-latency-sum term for \p Root from a saturated
/// E-graph (egg-style). \returns std::nullopt if the class has no term
/// over machine operations (e.g. a declared operator with no axioms).
std::optional<ExtractResult> extractBestTerm(const egraph::EGraph &G,
                                             const machine::MachineModel &Isa,
                                             egraph::ClassId Root);

/// Full pipeline of the equality-saturation baseline: extract best terms
/// for the goals, then list-schedule them with the naive code generator.
std::optional<machine::Program> extractAndSchedule(
    egraph::EGraph &G, const machine::MachineModel &Isa,
    const std::vector<std::pair<std::string, egraph::ClassId>> &Goals,
    const std::string &Name, std::string *ErrorOut);

} // namespace baseline
} // namespace denali

#endif // DENALI_BASELINE_EGRAPHEXTRACT_H
