//===- verify/Oracle.h - Differential pipeline oracle -----------*- C++ -*-===//
///
/// \file
/// The judgment side of the harness: push a GMA through the full pipeline
/// and hold the result against every independent checker we have —
///
///   * the reference evaluator (gma::evalGMA) versus the Alpha functional
///     simulator on random input states, plus the shared-memory replay
///     (driver::Superoptimizer::verify);
///   * the annotation-trusting timing check (machine::validateTiming, also
///     inside Superoptimizer::verify);
///   * the independent schedule replay against the ISA tables
///     (verify::validateSchedule), including "simulated cycles stay within
///     the SAT-certified budget".
///
/// A verdict is *benign* when the pipeline either produced a program that
/// survives all of the above or honestly reported that no program fits the
/// budget ceiling; everything else is a bug in some stage, and the status
/// says which checker disagreed.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_VERIFY_ORACLE_H
#define DENALI_VERIFY_ORACLE_H

#include "driver/Superoptimizer.h"

#include <optional>
#include <string>

namespace denali {
namespace verify {

struct OracleOptions {
  /// Random input states per GMA for the functional comparison.
  unsigned Trials = 3;
  /// Seed of the input-state stream (independent of the GMA seed).
  uint64_t InputSeed = 1;
};

enum class OracleStatus : uint8_t {
  Pass,            ///< Compiled and survived every checker.
  BudgetExhausted, ///< "No program within N cycles" — honest, benign.
  CompileError,    ///< Pipeline reported any other error.
  ScheduleBad,     ///< validateSchedule rejected the emitted schedule.
  TimingBad,       ///< validateTiming rejected the annotations.
  FunctionalBad,   ///< Simulator output disagreed with the reference.
};

const char *oracleStatusName(OracleStatus S);

struct OracleVerdict {
  OracleStatus Status = OracleStatus::Pass;
  std::string Detail;  ///< Human explanation for non-Pass statuses.
  unsigned Cycles = 0; ///< Minimal budget when a program was found.

  /// True when nothing is wrong with the pipeline (Pass or the honest
  /// budget-exhausted answer).
  bool benign() const {
    return Status == OracleStatus::Pass ||
           Status == OracleStatus::BudgetExhausted;
  }
  std::string toString() const;
};

/// Judges an already-compiled result.
OracleVerdict checkCompiled(driver::Superoptimizer &Opt,
                            const driver::GmaResult &R,
                            const OracleOptions &O = OracleOptions());

/// Compiles \p G with \p Opt's current options, then judges it.
OracleVerdict compileAndCheck(driver::Superoptimizer &Opt, const gma::GMA &G,
                              const OracleOptions &O = OracleOptions());

/// Compiles \p G on the ladder and again on the fresh per-K reference
/// (SearchOptions::FreshPerK) and requires (a) both verdicts benign, (b)
/// both agreeing on whether a program exists and on the minimal cycle
/// count. \returns a description of the first failure or disagreement, or
/// std::nullopt. Restores the FreshPerK option. On agreement, \p AgreedOut
/// (if non-null) receives the ladder's verdict.
std::optional<std::string>
crossCheckReference(driver::Superoptimizer &Opt, const gma::GMA &G,
                    const OracleOptions &O = OracleOptions(),
                    OracleVerdict *AgreedOut = nullptr);

} // namespace verify
} // namespace denali

#endif // DENALI_VERIFY_ORACLE_H
