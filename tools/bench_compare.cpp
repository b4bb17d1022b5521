//===- tools/bench_compare.cpp - BENCH_*.json regression gate -------------===//
//
//   bench_compare <fresh.json> <baseline.json> [--tolerance PCT]
//
// Compares a freshly generated BENCH_*.json trend record against a
// committed baseline (bench/baselines/). Records are matched by their
// identity fields (problem/strategy/fault, or the field-name set for the
// e14/e15 overhead records), then compared field by field:
//
//  * structural fields (cycles, lower_bound_proved, failures, compiled,
//    exhausted, gmas, detected_after_gmas) must match exactly — they are
//    deterministic under the benches' fixed seeds, and a drift means the
//    search or the oracle changed behaviour, not just speed;
//  * timing fields (*_s) fail only on regression: fresh may not exceed
//    baseline * (1 + PCT/100); throughput (gma_per_s) may not fall below
//    baseline / (1 + PCT/100). Improvements always pass.
//  * derived percentages (*_pct) are ignored.
//
// The default tolerance is 100% (half speed fails); perf_smoke passes a
// wider one because CI machines are loaded and the committed baselines come
// from a different box. Missing baseline records fail (the baseline is
// stale); extra fresh records are reported but pass (a new bench arm is not
// a regression).
//
//===----------------------------------------------------------------------===//

#include "support/Json.h"
#include "support/StringExtras.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

using namespace denali;
namespace json = denali::support::json;

namespace {

std::unique_ptr<json::Value> readJsonArray(const char *Path) {
  std::ifstream In(Path);
  if (!In) {
    std::fprintf(stderr, "bench_compare: cannot open '%s'\n", Path);
    return nullptr;
  }
  std::ostringstream Buf;
  Buf << In.rdbuf();
  if (Buf.str().empty()) {
    std::fprintf(stderr, "bench_compare: '%s' is empty\n", Path);
    return nullptr;
  }
  std::string Err;
  std::unique_ptr<json::Value> Doc = json::parse(Buf.str(), &Err);
  if (!Doc) {
    std::fprintf(stderr, "bench_compare: %s: invalid JSON: %s\n", Path,
                 Err.c_str());
    return nullptr;
  }
  if (!Doc->isArray()) {
    std::fprintf(stderr, "bench_compare: %s: not a JSON array\n", Path);
    return nullptr;
  }
  return Doc;
}

/// Identity of a record: its string-valued fields, or (for the all-numeric
/// overhead records) its field-name set.
std::string recordKey(const json::Value &R) {
  std::string Key;
  for (const auto &[Name, V] : R.object())
    if (V.isString())
      Key += Name + "=" + V.stringValue() + ";";
  if (Key.empty())
    for (const auto &[Name, V] : R.object())
      Key += Name + ";";
  return Key;
}

bool isTimingField(const std::string &Name) {
  return Name.size() > 2 && Name.compare(Name.size() - 2, 2, "_s") == 0;
}

bool isIgnoredField(const std::string &Name) {
  return Name.size() > 4 && Name.compare(Name.size() - 4, 4, "_pct") == 0;
}

} // namespace

int main(int argc, char **argv) {
  const char *FreshPath = nullptr, *BasePath = nullptr;
  double TolerancePct = 100;
  for (int I = 1; I < argc; ++I) {
    if (!std::strcmp(argv[I], "--tolerance") && I + 1 < argc)
      TolerancePct = std::atof(argv[++I]);
    else if (!FreshPath)
      FreshPath = argv[I];
    else if (!BasePath)
      BasePath = argv[I];
    else {
      std::fprintf(stderr, "bench_compare: unexpected argument '%s'\n",
                   argv[I]);
      return 2;
    }
  }
  if (!FreshPath || !BasePath) {
    std::fprintf(stderr, "usage: bench_compare <fresh.json> <baseline.json> "
                         "[--tolerance PCT]\n");
    return 2;
  }

  std::unique_ptr<json::Value> Fresh = readJsonArray(FreshPath);
  std::unique_ptr<json::Value> Base = readJsonArray(BasePath);
  if (!Fresh || !Base)
    return 1;

  std::map<std::string, const json::Value *> FreshByKey;
  for (const json::Value &R : Fresh->array())
    if (R.isObject())
      FreshByKey[recordKey(R)] = &R;

  const double Slack = 1.0 + TolerancePct / 100.0;
  bool Ok = true;
  size_t Compared = 0;
  for (const json::Value &B : Base->array()) {
    if (!B.isObject())
      continue;
    std::string Key = recordKey(B);
    auto It = FreshByKey.find(Key);
    if (It == FreshByKey.end()) {
      std::fprintf(stderr,
                   "bench_compare: baseline record '%s' missing from %s "
                   "(bench arm removed? regenerate the baseline)\n",
                   Key.c_str(), FreshPath);
      Ok = false;
      continue;
    }
    const json::Value &F = *It->second;
    FreshByKey.erase(It);
    ++Compared;
    for (const auto &[Name, BV] : B.object()) {
      if (BV.isString() || isIgnoredField(Name))
        continue;
      const json::Value *FV = F.field(Name);
      if (!FV) {
        std::fprintf(stderr, "bench_compare: %s: field '%s' missing\n",
                     Key.c_str(), Name.c_str());
        Ok = false;
        continue;
      }
      if (BV.isBool()) {
        if (!FV->isBool() || FV->boolValue() != BV.boolValue()) {
          std::fprintf(stderr,
                       "bench_compare: %s: '%s' changed (baseline %s)\n",
                       Key.c_str(), Name.c_str(),
                       BV.boolValue() ? "true" : "false");
          Ok = false;
        }
        continue;
      }
      if (!BV.isNumber() || !FV->isNumber())
        continue;
      double BN = BV.numberValue(), FN = FV->numberValue();
      if (isTimingField(Name)) {
        bool Throughput = Name.find("per_s") != std::string::npos;
        bool Regressed = Throughput ? FN < BN / Slack : FN > BN * Slack;
        if (Regressed) {
          std::fprintf(stderr,
                       "bench_compare: %s: '%s' regressed: %.4f vs "
                       "baseline %.4f (tolerance %.0f%%)\n",
                       Key.c_str(), Name.c_str(), FN, BN, TolerancePct);
          Ok = false;
        }
      } else if (FN != BN) {
        std::fprintf(stderr,
                     "bench_compare: %s: '%s' changed: %.4f vs baseline "
                     "%.4f (structural fields must match exactly)\n",
                     Key.c_str(), Name.c_str(), FN, BN);
        Ok = false;
      }
    }
  }
  for (const auto &[Key, R] : FreshByKey) {
    (void)R;
    std::printf("bench_compare: new record '%s' not in baseline (ok)\n",
                Key.c_str());
  }
  std::printf("bench_compare: %zu record(s) compared against %s: %s\n",
              Compared, BasePath, Ok ? "PASS" : "FAIL");
  return Ok ? 0 : 1;
}
