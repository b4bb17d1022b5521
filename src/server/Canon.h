//===- server/Canon.h - Canonical GMA keys for the compile server -*- C++ -*-===//
///
/// \file
/// Canonicalization of GMAs into stable cache keys. Two requests that
/// differ only in variable names, GMA/source names, or the argument order
/// of commutative builtins canonicalize to the same text, so a compiled
/// result (or a saturated e-graph) produced for one can be served to the
/// other after a pure renaming.
///
/// The canonical form is derived without interning anything: it reads the
/// shape hashes the term table memoized at interning, so canonicalizing a
/// pre-interned GMA is a pure read on ir::Context and is safe to run
/// concurrently with compiles and with another request's parse.
///
/// Key derivation (documented in DESIGN.md §7):
///   key = hash128(options fingerprint ‖ canonical text)
/// and every cache entry stores the canonical text, which is compared
/// exactly on lookup — the 128-bit hash only routes to a shard/bucket, so
/// a hash collision can never serve a wrong result. The fingerprint comes
/// first so that a server, whose options never change, hashes it once
/// (KeySeed) and each request hashes only its text.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SERVER_CANON_H
#define DENALI_SERVER_CANON_H

#include "driver/Superoptimizer.h"
#include "gma/GMA.h"
#include "ir/Term.h"

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace denali {
namespace server {

/// A 128-bit cache key: two independent 64-bit hashes over the same
/// bytes. Equality of keys is necessary but not sufficient for a cache
/// hit — the canonical text is always compared too.
struct Key128 {
  uint64_t Hi = 0;
  uint64_t Lo = 0;

  bool operator==(const Key128 &O) const { return Hi == O.Hi && Lo == O.Lo; }
  bool operator!=(const Key128 &O) const { return !(*this == O); }
};

struct Key128Hash {
  size_t operator()(const Key128 &K) const {
    return static_cast<size_t>(K.Hi ^ (K.Lo * 0x9e3779b97f4a7c15ULL));
  }
};

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

/// An options fingerprint, hashed: key(Text) == makeKey(Text, Fingerprint).
class KeySeed {
public:
  explicit KeySeed(std::string_view Fingerprint);
  Key128 key(std::string_view CanonText) const;

private:
  uint64_t A = 0xcbf29ce484222325ULL;
  uint64_t B = 0x84222325cbf29ce4ULL;
};

/// Hashes options fingerprint + canonical text into a 128-bit key.
Key128 makeKey(std::string_view CanonText, std::string_view Fingerprint);

/// Fingerprint of every driver option that influences saturation and the
/// resulting SaturatedGma (match limits, universe knobs, guard
/// enforcement, provenance mode, adaptive scheduling). Requests
/// agreeing on this — and on canonical text — may share one warm e-graph.
/// Delegates to driver::matchOptionsFingerprint, which also keys the profile
/// ledger (with the adaptive bit masked; see driver::profileLedgerKey).
std::string matchFingerprint(const driver::Options &Opts);

/// Fingerprint of every option that influences the full GmaResult: the
/// match fingerprint plus the search's budget/encoding knobs (FreshPerK
/// included: the reference may return a different program at the same K)
/// and the artifact switches (Explain, EGraphDump, WhyUnsat). Requests
/// agreeing on this — and on canonical text — may share one cached result.
/// Changing any Options field therefore invalidates by construction: the
/// fingerprint (hence the key) changes and old entries become
/// unreachable.
std::string resultFingerprint(const driver::Options &Opts);

} // namespace server
} // namespace denali

#endif // DENALI_SERVER_CANON_H
