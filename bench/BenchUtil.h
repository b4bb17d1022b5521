//===- bench/BenchUtil.h - Shared helpers for experiment harnesses --------===//
///
/// \file
/// Small shared pieces for the table-reproducing benchmark harnesses: the
/// byteswap source generator (Figure 3) and row printing.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_BENCH_BENCHUTIL_H
#define DENALI_BENCH_BENCHUTIL_H

#include "obs/Obs.h"
#include "support/StringExtras.h"

#include <cstdio>
#include <string>

namespace denali {
namespace bench {

/// The Figure 3 byteswap program for \p N bytes.
inline std::string byteswapSource(unsigned N) {
  std::string Body = "(\\var (r long 0)\n  (\\semi\n";
  for (unsigned I = 0; I < N; ++I)
    Body += strFormat("    (:= (r (\\storeb r %u (\\selectb a %u))))\n", I,
                      N - 1 - I);
  Body += "    (:= (\\res r))))";
  return strFormat("(\\procdecl byteswap%u ((a long)) long\n  %s)", N,
                   Body.c_str());
}

/// The packet-checksum loop body for \p Lanes lanes, with the
/// program-specific ones-complement add/carry axioms (E5/E12).
inline std::string checksumSource(unsigned Lanes) {
  std::string Src = R"(
(\opdecl carry (long long) long)
(\axiom (forall (a b) (pats (carry a b))
  (eq (carry a b) (\cmpult (\add64 a b) a))))
(\axiom (forall (a b) (pats (carry a b))
  (eq (carry a b) (\cmpult (\add64 a b) b))))
(\opdecl add (long long) long)
(\axiom (forall (a b c) (pats (add a (add b c)))
  (eq (add a (add b c)) (add (add a b) c))))
(\axiom (forall (a b c) (pats (add (add a b) c))
  (eq (add a (add b c)) (add (add a b) c))))
(\axiom (forall (a b) (pats (add a b)) (eq (add a b) (add b a))))
(\axiom (forall (a b) (pats (add a b))
  (eq (add a b) (\add64 (\add64 a b) (carry a b)))))
(\procdecl checksum_loop ((ptr (\ref long)) (ptrend (\ref long))
)";
  for (unsigned L = 1; L <= Lanes; ++L)
    Src += strFormat("  (sum%u long) (v%u long)\n", L, L);
  Src += ") long\n  (\\do (-> (< ptr ptrend)\n    (\\semi\n      (:=";
  for (unsigned L = 1; L <= Lanes; ++L)
    Src += strFormat(" (sum%u (add sum%u v%u))", L, L, L);
  Src += strFormat(")\n      (:= (ptr (+ ptr %u)))\n", 8 * Lanes);
  for (unsigned L = 1; L <= Lanes; ++L)
    Src += strFormat("      (:= (v%u (\\deref (+ ptr %u))))\n", L,
                     8 * (L - 1));
  Src += "))))"; // \semi, ->, \do, \procdecl.
  return Src;
}

/// A halfword permute (swap the two low 16-bit halves) built from shifts,
/// ands, and ors only — the instruction core every machine-model backend
/// shares, so the cross-backend bench compiles it natively everywhere (no
/// byte-op rewriting required, unlike byteswapSource).
inline std::string permuteSource() {
  return R"((\procdecl permute16 ((a long)) long
  (\var (r long 0)
  (\semi
    (:= (r (\or64 (\shl64 (\and64 a 65535) 16)
                  (\and64 (\shr64 a 16) 65535))))
    (:= (\res r))))))";
}

inline void banner(const char *Id, const char *Title) {
  std::printf("\n=== %s: %s ===\n", Id, Title);
}

/// Switches the obs layer on for metrics collection (no trace outputs), so
/// the harness's pipeline counters accumulate in the global registry.
inline void enableObsMetrics() {
  obs::ObsConfig C;
  C.Enabled = true;
  obs::configure(C);
}

/// Writes the registry's metrics summary to \p Path (next to the
/// BENCH_*.json trend record; perf_smoke feeds it to `denali_explain
/// metrics`).
inline void writeMetricsSummary(const char *Path) {
  if (obs::writeTextFile(Path, obs::Registry::global().summaryText()))
    std::printf("wrote %s\n", Path);
}

} // namespace bench
} // namespace denali

#endif // DENALI_BENCH_BENCHUTIL_H
