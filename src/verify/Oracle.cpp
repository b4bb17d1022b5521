//===- verify/Oracle.cpp --------------------------------------------------===//

#include "verify/Oracle.h"

#include "obs/Obs.h"
#include "support/StringExtras.h"
#include "verify/ScheduleValidator.h"

using namespace denali;
using namespace denali::verify;

const char *denali::verify::oracleStatusName(OracleStatus S) {
  switch (S) {
  case OracleStatus::Pass:
    return "pass";
  case OracleStatus::BudgetExhausted:
    return "budget-exhausted";
  case OracleStatus::CompileError:
    return "compile-error";
  case OracleStatus::ScheduleBad:
    return "schedule-bad";
  case OracleStatus::TimingBad:
    return "timing-bad";
  case OracleStatus::FunctionalBad:
    return "functional-bad";
  }
  return "unknown";
}

std::string OracleVerdict::toString() const {
  std::string Out = oracleStatusName(Status);
  if (Status == OracleStatus::Pass)
    Out += strFormat(" (%u cycles)", Cycles);
  if (!Detail.empty())
    Out += ": " + Detail;
  return Out;
}

OracleVerdict denali::verify::checkCompiled(driver::Superoptimizer &Opt,
                                            const driver::GmaResult &R,
                                            const OracleOptions &O) {
  obs::ObsSpan Span("verify.oracle");
  OracleVerdict V;
  auto record = [&] {
    if (!obs::enabled())
      return;
    auto &Reg = obs::Registry::global();
    Reg.counter("verify.oracle_checks").add(1);
    Reg.counter(strFormat("verify.oracle_%s", oracleStatusName(V.Status)))
        .add(1);
    if (Span.active())
      Span.arg("gma", R.Gma.Name.c_str())
          .arg("status", oracleStatusName(V.Status));
  };
  if (!R.ok()) {
    // The honest "no K-cycle program exists up to the ceiling" answer is
    // not a bug; a generated GMA may simply need more cycles than the
    // smoke ceiling allows.
    bool Exhausted = R.Error.find("no program within") != std::string::npos;
    V.Status = Exhausted ? OracleStatus::BudgetExhausted
                         : OracleStatus::CompileError;
    V.Detail = R.Error;
    record();
    return V;
  }
  V.Cycles = R.Search.Cycles;

  // Independent schedule replay, including the certified budget: the
  // emitted program must fit the cycle count the SAT search claims.
  ScheduleReport SR =
      validateSchedule(Opt.isa(), R.Search.Program, R.Search.Cycles);
  if (!SR.Ok) {
    V.Status = OracleStatus::ScheduleBad;
    V.Detail = SR.toString();
    record();
    return V;
  }

  // Functional differential run (reference evaluator vs simulator vs the
  // shared-memory replay) plus the annotation-trusting timing check.
  if (auto Err = Opt.verify(R, O.Trials, O.InputSeed)) {
    V.Status = Err->rfind("timing:", 0) == 0 ? OracleStatus::TimingBad
                                             : OracleStatus::FunctionalBad;
    V.Detail = *Err;
    record();
    return V;
  }
  record();
  return V;
}

OracleVerdict denali::verify::compileAndCheck(driver::Superoptimizer &Opt,
                                              const gma::GMA &G,
                                              const OracleOptions &O) {
  return checkCompiled(Opt, Opt.compileGMA(G), O);
}

std::optional<std::string> denali::verify::crossCheckReference(
    driver::Superoptimizer &Opt, const gma::GMA &G, const OracleOptions &O,
    OracleVerdict *AgreedOut) {
  bool &FreshPerK = Opt.options().Search.FreshPerK;
  const bool Saved = FreshPerK;
  OracleVerdict V[2];
  std::optional<std::string> Err;
  for (int Fresh = 0; Fresh < 2 && !Err; ++Fresh) {
    FreshPerK = Fresh == 1;
    V[Fresh] = compileAndCheck(Opt, G, O);
    if (!V[Fresh].benign())
      Err = strFormat("%s: %s failed: %s", G.Name.c_str(),
                      Fresh ? "the per-K reference" : "the ladder",
                      V[Fresh].toString().c_str());
  }
  FreshPerK = Saved;
  if (!Err && (V[0].Status != V[1].Status || V[0].Cycles != V[1].Cycles))
    Err = strFormat("%s: the ladder found %s but the per-K reference found %s",
                    G.Name.c_str(), V[0].toString().c_str(),
                    V[1].toString().c_str());
  if (!Err && AgreedOut)
    *AgreedOut = V[0];
  return Err;
}
