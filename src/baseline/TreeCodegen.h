//===- baseline/TreeCodegen.h - Conventional code generation ----*- C++ -*-===//
///
/// \file
/// Baseline 3: a straightforward code generator of the kind a conventional
/// compiler back end uses — one instruction per term-DAG node via a fixed
/// lowering table, followed by a greedy critical-path list scheduler over
/// the EV6 unit/latency/cluster model. No search: whatever shape the input
/// expression has is the shape of the code.
///
/// This plays the role of the production C compiler in the paper's
/// byteswap comparisons (section 8): Denali should tie or beat it, by one
/// cycle on byteswap5.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_BASELINE_TREECODEGEN_H
#define DENALI_BASELINE_TREECODEGEN_H

#include "alpha/ISA.h"
#include "machine/Program.h"
#include "ir/Term.h"

#include <optional>
#include <string>
#include <vector>

namespace denali {
namespace baseline {

/// Lowers the goal terms to EV6 code by structural translation and list
/// scheduling. \returns std::nullopt with \p ErrorOut if some operator has
/// no lowering.
std::optional<machine::Program>
naiveCodegen(const ir::Context &Ctx, const machine::MachineModel &Isa,
             const std::vector<std::pair<std::string, ir::TermId>> &Goals,
             const std::string &Name, std::string *ErrorOut);

} // namespace baseline
} // namespace denali

#endif // DENALI_BASELINE_TREECODEGEN_H
