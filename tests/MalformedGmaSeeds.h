//===- tests/MalformedGmaSeeds.h - Error texts of the malformed seeds -----===//
//
// The malformed GMA requests under tests/corpus/gma-malformed/ (also seeds
// of the fuzz_gma harness) and the error verify::parseGma gives for each,
// shared by the reader's tests and the compile server's.
//
//===----------------------------------------------------------------------===//

#ifndef DENALI_TESTS_MALFORMEDGMASEEDS_H
#define DENALI_TESTS_MALFORMEDGMASEEDS_H

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>

namespace denali {

inline const std::pair<const char *, const char *> MalformedGmaSeeds[] = {
    {"empty-gma.gma", "expected (gma <name> <clause>...)"},
    {"no-clauses.gma", "gma has no assign clause"},
    {"trailing-form.gma", "1:1: expected exactly one form, found 2"},
    {"unbalanced-close.gma", "1:40: unexpected ')'"},
    {"unbalanced-open.gma", "3:1: unterminated list (missing ')')"},
    {"unknown-operator.gma", "unknown operator 'frobnicate'"},
    {"wrong-arity.gma", "operator 'add64' expects 2 argument(s), got 3"},
};

inline std::filesystem::path malformedGmaDir() {
  return std::filesystem::path(DENALI_CORPUS_DIR) / "gma-malformed";
}

inline std::string readMalformedGmaSeed(const char *File) {
  std::ifstream In(malformedGmaDir() / File, std::ios::binary);
  std::ostringstream Out;
  Out << In.rdbuf();
  return Out.str();
}

} // namespace denali

#endif // DENALI_TESTS_MALFORMEDGMASEEDS_H
