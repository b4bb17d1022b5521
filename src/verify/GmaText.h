//===- verify/GmaText.h - Corpus serialization of GMAs ----------*- C++ -*-===//
///
/// \file
/// A plain-text S-expression format for GMAs so fuzzer findings can live in
/// a regression corpus (tests/corpus/) and be replayed verbatim:
///
///   (gma gen7_12
///     (assign res0 (add64 a (shl64 b 3)))
///     (assign M (store M (add64 p 8) c))
///     (guard (cmpult a b))       ; optional
///     (miss (add64 p 8))         ; optional, one per \miss address
///     (assume eq a b))           ; optional, eq | neq
///
/// Terms are written operator-name-first, variables as bare symbols,
/// constants as decimal integers. Round-trips through printGma/parseGma:
/// parse(print(G)) re-interns exactly G's terms in any context that knows
/// the same operators.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_VERIFY_GMATEXT_H
#define DENALI_VERIFY_GMATEXT_H

#include "gma/GMA.h"
#include "ir/Term.h"

#include <optional>
#include <string>

namespace denali {
namespace verify {

/// Renders \p T in the corpus format (ops by name, decimal constants).
std::string printTerm(const ir::Context &Ctx, ir::TermId T);

/// Renders \p G as one (gma ...) form, one clause per line.
std::string printGma(const ir::Context &Ctx, const gma::GMA &G);

/// Parses one term. \returns std::nullopt with \p ErrorOut on unknown
/// operators or arity mismatches; bare symbols intern as variables.
std::optional<ir::TermId> parseTerm(ir::Context &Ctx, const std::string &Text,
                                    std::string *ErrorOut);

/// Parses one (gma ...) form. The compile server's request reader: it
/// interns terms straight from sexpr::Lexer's tokens, building no SExpr
/// tree. Of several faults it reports the one a walk over the parsed tree
/// would meet first (any syntax error, then the form count, then the
/// first failing check in pre-order). A failed parse may leave the terms
/// it read before the fault interned.
std::optional<gma::GMA> parseGma(ir::Context &Ctx, const std::string &Text,
                                 std::string *ErrorOut);

} // namespace verify
} // namespace denali

#endif // DENALI_VERIFY_GMATEXT_H
