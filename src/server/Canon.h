//===- server/Canon.h - Canonical GMA keys for the compile server -*- C++ -*-===//
///
/// \file
/// Canonicalization of GMAs into stable cache keys. Two requests that
/// differ only in variable names, GMA/source names, or the argument order
/// of commutative builtins canonicalize to the same text, so a compiled
/// result produced for one can be served to the other after a pure
/// renaming.
///
/// The canonical form is derived without interning anything: it reads the
/// shape hashes the term table memoized at interning, so canonicalizing a
/// pre-interned GMA is a pure read on ir::Context and is safe to run
/// concurrently with compiles and with another request's parse.
///
/// The result cache is keyed by the canonical text itself (DESIGN.md §7):
/// a lookup matches the whole text exactly, so two GMAs share an entry
/// only when their texts are equal. No options fingerprint enters the
/// key: a cache belongs to one server, whose options never change.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SERVER_CANON_H
#define DENALI_SERVER_CANON_H

#include "gma/GMA.h"
#include "ir/Term.h"

#include <string>
#include <utility>
#include <vector>

namespace denali {
namespace server {

/// The canonical identity of one GMA, plus the renaming that links it
/// back to the original request.
struct CanonicalGma {
  /// The canonical GMA, printed in verify::GmaText syntax: name stripped
  /// to "g", targets positional ("o0", "o1", ... — "M" stays "M"),
  /// variables alpha-renamed v0, v1, ... in first-use order, commutative
  /// builtin operands in a fixed total order of their name-blind shapes
  /// (constants, then applications by memoized shape hash, then
  /// variables), ties keeping source order. The text spells the whole
  /// GMA, so equal texts mean equal GMAs up to that renaming.
  std::string Text;
  /// Original variable name -> canonical name ("v<k>"), in first-use
  /// order. Serving a request from an entry produced by another request
  /// composes the producer's map forward and this map backward.
  std::vector<std::pair<std::string, std::string>> VarMap;
  /// The request's original target names, in order (positionally aligned
  /// with the canonical "o<i>" targets).
  std::vector<std::string> Targets;
  /// The request's original GMA name.
  std::string Name;
};

/// Canonicalizes \p G. Pure read on \p Ctx (no interning).
CanonicalGma canonicalizeGma(const ir::Context &Ctx, const gma::GMA &G);

} // namespace server
} // namespace denali

#endif // DENALI_SERVER_CANON_H
