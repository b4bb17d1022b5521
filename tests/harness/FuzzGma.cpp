//===- tests/harness/FuzzGma.cpp - GMA request reader fuzz target ---------===//
//
// libFuzzer entry point for the compile server's request reader: arbitrary
// bytes fed to verify::parseGma must give an error message, or a GMA that
// round-trips through printGma (the printed form reads back to the same
// terms and prints the same) — never a crash.
//
// Built with -fsanitize=fuzzer under DENALI_LIBFUZZER=ON; otherwise
// FuzzerMain.cpp links a plain file-replay main around the same entry
// point, and the `fuzz_gma_seeds` ctest replays the seeds (tests/corpus/gma
// and tests/corpus/gma-malformed) on every run.
//
//===----------------------------------------------------------------------===//

#include "ir/Term.h"
#include "verify/GmaText.h"

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>

using namespace denali;

namespace {

[[noreturn]] void fail(const char *Why, const std::string &Text) {
  std::fprintf(stderr, "fuzz_gma: %s\n%s\n", Why, Text.c_str());
  std::abort();
}

bool sameGma(const gma::GMA &A, const gma::GMA &B) {
  if (A.Assumptions.size() != B.Assumptions.size())
    return false;
  for (size_t I = 0; I < A.Assumptions.size(); ++I)
    if (A.Assumptions[I].IsEq != B.Assumptions[I].IsEq ||
        A.Assumptions[I].Lhs != B.Assumptions[I].Lhs ||
        A.Assumptions[I].Rhs != B.Assumptions[I].Rhs)
      return false;
  return A.Name == B.Name && A.Targets == B.Targets &&
         A.NewVals == B.NewVals && A.Guard == B.Guard &&
         A.MissAddrs == B.MissAddrs;
}

} // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t *Data, size_t Size) {
  // A fresh context per input: inputs must not see each other's variables.
  ir::Context Ctx;
  std::string Text(reinterpret_cast<const char *>(Data), Size);
  std::string Err;
  std::optional<gma::GMA> G = verify::parseGma(Ctx, Text, &Err);
  if (!G) {
    if (Err.empty())
      fail("rejected without an error message", Text);
    return 0;
  }
  std::string Printed = verify::printGma(Ctx, *G);
  std::optional<gma::GMA> Again = verify::parseGma(Ctx, Printed, &Err);
  if (!Again)
    fail(("printed form does not read back: " + Err).c_str(), Printed);
  if (!sameGma(*G, *Again) || verify::printGma(Ctx, *Again) != Printed)
    fail("printed form reads back to a different GMA", Printed);
  return 0;
}
