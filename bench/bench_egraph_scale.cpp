//===- bench/bench_egraph_scale.cpp - E16: saturation scaling -------------===//
//
// The EXPERIMENTS.md E16 harness: saturation wall time on stress E-graphs
// an order of magnitude (and up) beyond the paper-scale GMAs, comparing
//
//   eager      per-assert congruence repair + clause scan (the pre-
//              scheduling behavior, MatchLimits::EagerRebuild)
//   deferred   one batched rebuild per round (the default)
//
// Stress inputs mix GmaGen corpora (loaded into ONE shared graph so the
// clause population grows with the tier) with unrolled byteswap chains
// (selectb/storeb, the clause-heaviest builtin axioms).
//
//   bench_egraph_scale [--smoke]
//     --smoke  drop the largest tier (CI perf-smoke gate)
//
// Saturation here is rounds-bounded, not quiescent — the builtin closure
// of these graphs is infinite, so MaxRounds stops it. MaxNodes is set far
// above what the rounds produce: a binding node cap would stop the two
// modes at different frontiers (the deferred arm's end-of-round rebuild
// shrinks the live count back under the cap and keeps saturating where
// the eager arm breaks), which is a different-total-work comparison, not
// an A/B of the same work. In the rounds-bounded regime both arms close
// identical graphs (mod class renaming) every round, so the harness gates
// eager/deferred agreement on the final partition and node/class counts.
// Raw match counts are not compared across eager and deferred: the two arms
// unite classes in different orders and queue different instance counts,
// and a matcher that enumerates only what changed since the last round
// finds a number of matches that depends on that order.
//
// The E20 section compares blind budget-backoff against ledger-warmed
// adaptive scheduling (--match-adaptive) on *quiescing* inputs: groups of
// figure-2-style mul/add seeds over distinct variables, whose builtin
// closure is finite. Blind and warm runs must quiesce to identical
// closures (partition + node/class counts + extraction costs gated hard),
// with the warm run enumerating strictly fewer raw matches — the history
// seeds productive axioms' budgets past the backoff ladder's blind
// doubling and demotes never-productive axioms to a trailing phase.
//
// Emits BENCH_egraph_scale.json for the perf_smoke bench_compare gate.
//
//===----------------------------------------------------------------------===//

#include "BenchUtil.h"
#include "alpha/ISA.h"
#include "axioms/BuiltinAxioms.h"
#include "baseline/EGraphExtract.h"
#include "egraph/EGraph.h"
#include "match/Elaborate.h"
#include "match/Matcher.h"
#include "obs/ProfileLedger.h"
#include "support/Timer.h"
#include "verify/GmaGen.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

using namespace denali;
using namespace denali::bench;
using denali::ir::Builtin;

namespace {

/// The Figure 3/4 byteswap store chain for \p N bytes — the densest
/// clause generator among the builtin axioms (select-over-store).
ir::TermId swapChain(ir::Context &Ctx, unsigned N) {
  ir::TermId A = Ctx.Terms.makeVar("a");
  ir::TermId R = Ctx.Terms.makeConst(0);
  for (unsigned I = 0; I < N; ++I)
    R = Ctx.Terms.makeBuiltin(
        Builtin::StoreB,
        {R, Ctx.Terms.makeConst(I),
         Ctx.Terms.makeBuiltin(Builtin::SelectB,
                               {A, Ctx.Terms.makeConst(N - 1 - I)})});
  return R;
}

struct Tier {
  const char *Name;   ///< Rough seed-size multiple of a paper-scale GMA.
  unsigned Gmas;      ///< GmaGen GMAs loaded into the shared graph.
  unsigned SwapBytes; ///< Byteswap chain length.
  size_t MaxNodes;
  unsigned MaxRounds;
  int Reps; ///< Timing reps (min taken); stats are rep-invariant.
};

/// What one saturation arm produced, beyond its wall time.
struct ArmResult {
  match::MatchStats Stats;
  std::vector<unsigned> Partition; ///< Seed term -> first equal seed term.
  std::vector<long long> ExtractCosts; ///< Per root; -1 = no machine term.
};

/// Builds the tier's stress graph fresh and saturates it. With
/// \p RecordInto, records the run's per-axiom attribution under
/// \p LedgerKey (the E20 profiling pre-run); with \p Extract, DP-extracts
/// the best term per seed root (egg-style cost) so two arms can gate
/// extraction-cost equality.
double runArm(ir::Context &Ctx, const std::vector<ir::TermId> &Seeds,
              const match::MatchLimits &Limits, ArmResult &Out,
              obs::ProfileLedger *RecordInto = nullptr,
              const char *LedgerKey = "", bool Extract = false) {
  egraph::EGraph G(Ctx);
  std::vector<egraph::ClassId> Roots;
  Roots.reserve(Seeds.size());
  for (ir::TermId T : Seeds)
    Roots.push_back(G.addTerm(T));
  const std::vector<match::Axiom> Axioms = axioms::loadBuiltinAxioms(Ctx);
  match::Matcher M(Axioms);
  for (match::Elaborator &E : match::standardElaborators())
    M.addElaborator(std::move(E));
  Timer T;
  Out.Stats = M.saturate(G, Limits);
  double Seconds = T.seconds();
  if (RecordInto)
    match::recordMatchProfile(*RecordInto, LedgerKey, M.axioms(), Out.Stats);
  Out.Partition.assign(Roots.size(), 0);
  for (size_t I = 0; I < Roots.size(); ++I) {
    Out.Partition[I] = static_cast<unsigned>(I);
    for (size_t J = 0; J < I; ++J)
      if (G.sameClass(Roots[I], Roots[J])) {
        Out.Partition[I] = static_cast<unsigned>(J);
        break;
      }
  }
  Out.ExtractCosts.clear();
  if (Extract) {
    alpha::ISA Isa(Ctx);
    for (egraph::ClassId Root : Roots) {
      std::optional<baseline::ExtractResult> Ex =
          baseline::extractBestTerm(G, Isa, Root);
      Out.ExtractCosts.push_back(Ex ? static_cast<long long>(Ex->Cost) : -1);
    }
  }
  return Seconds;
}

} // namespace

int main(int argc, char **argv) {
  bool Smoke = false;
  for (int I = 1; I < argc; ++I)
    if (!std::strcmp(argv[I], "--smoke"))
      Smoke = true;

  // Tier scale is seed- and rounds-driven; "1x" matches a typical paper
  // GMA. The recorded seed_nodes/nodes fields document the actual
  // multiples. MaxNodes is a non-binding backstop (see the header
  // comment).
  const size_t NodeBackstop = 4u << 20;
  std::vector<Tier> Tiers = {
      {"1x", 3, 4, NodeBackstop, 8, 3},
      {"10x", 24, 12, NodeBackstop, 6, 1},
  };
  if (!Smoke)
    Tiers.push_back({"30x", 72, 16, NodeBackstop, 6, 1});

  banner("E16", Smoke ? "saturation scaling, eager vs deferred (smoke)"
                      : "saturation scaling, eager vs deferred");
  std::printf("%-6s %-10s %-8s %-8s %-9s %-10s %-10s %-9s\n", "tier",
              "seed-nodes", "nodes", "classes", "quiesced", "eager-s",
              "deferred-s", "speedup");

  enableObsMetrics();
  bool AllOk = true;
  struct Record {
    std::string Tier;
    size_t SeedNodes, Nodes, Classes;
    unsigned Gmas;
    bool Quiesced, ModesAgree;
    double EagerS, DeferredS;
  };
  std::vector<Record> Records;

  for (const Tier &T : Tiers) {
    ir::Context Ctx;
    std::vector<ir::TermId> Seeds;
    verify::GmaGenOptions GO;
    GO.MaxTargets = 3;
    GO.MaxDepth = 4;
    GO.NumScalars = 4;
    GO.MemoryPercent = 75;
    GO.StorePercent = 80;
    verify::GmaGen Gen(Ctx, /*Seed=*/16, GO);
    for (unsigned I = 0; I < T.Gmas; ++I) {
      gma::GMA G = Gen.next();
      for (ir::TermId V : G.NewVals)
        Seeds.push_back(V);
      if (G.Guard)
        Seeds.push_back(*G.Guard);
    }
    Seeds.push_back(swapChain(Ctx, T.SwapBytes));
    size_t SeedNodes = 0;
    {
      // Seed size = graph size before any matching.
      egraph::EGraph G(Ctx);
      for (ir::TermId S : Seeds)
        G.addTerm(S);
      SeedNodes = G.numNodes();
    }

    match::MatchLimits Deferred;
    Deferred.MaxNodes = T.MaxNodes;
    Deferred.MaxRounds = T.MaxRounds;
    // Like MaxNodes, the per-round instance cap must not bind: truncating
    // the pending list keeps an enumeration-order-dependent subset, and
    // enumeration order is the one thing that differs between modes.
    Deferred.MaxInstancesPerRound = 1u << 20;
    match::MatchLimits Eager = Deferred;
    Eager.EagerRebuild = true;

    ArmResult EagerR, DeferredR;
    double EagerS = 0, DeferredS = 0;
    for (int Rep = 0; Rep < T.Reps; ++Rep) {
      // Interleaved min-of-reps, the bench_verify trick against scheduler
      // noise. Stats and partitions are identical across reps.
      double E = runArm(Ctx, Seeds, Eager, EagerR);
      double D = runArm(Ctx, Seeds, Deferred, DeferredR);
      EagerS = Rep ? std::min(EagerS, E) : E;
      DeferredS = Rep ? std::min(DeferredS, D) : D;
    }

    bool Quiesced = EagerR.Stats.Quiesced && DeferredR.Stats.Quiesced;
    // The gates: eager and deferred must reach the same closure (the
    // rounds-bounded regime guarantees it).
    bool ModesAgree =
        EagerR.Partition == DeferredR.Partition &&
        EagerR.Stats.FinalNodes == DeferredR.Stats.FinalNodes &&
        EagerR.Stats.FinalClasses == DeferredR.Stats.FinalClasses;
    if (!ModesAgree) {
      std::printf("tier %s: arms DISAGREE (eager %zu/%zu, deferred %zu/%zu)\n",
                  T.Name, EagerR.Stats.FinalNodes, EagerR.Stats.FinalClasses,
                  DeferredR.Stats.FinalNodes, DeferredR.Stats.FinalClasses);
      AllOk = false;
    }
    std::printf("%-6s %-10zu %-8zu %-8zu %-9s %-10.3f %-10.3f %-9.2f\n",
                T.Name, SeedNodes, DeferredR.Stats.FinalNodes,
                DeferredR.Stats.FinalClasses, Quiesced ? "yes" : "NO",
                EagerS, DeferredS, DeferredS > 0 ? EagerS / DeferredS : 0.0);
    Records.push_back(Record{T.Name, SeedNodes, DeferredR.Stats.FinalNodes,
                             DeferredR.Stats.FinalClasses, T.Gmas, Quiesced,
                             ModesAgree, EagerS, DeferredS});
  }

  // E20: blind budget-backoff vs ledger-warmed adaptive scheduling, on
  // quiescing inputs (finite builtin closure — see the header comment).
  banner("E20", "adaptive budgets: blind backoff vs ledger-warmed");
  std::printf("%-8s %-7s %-9s %-7s %-11s %-11s %-10s %-8s %-8s\n", "tier",
              "groups", "quiesced", "agree", "blind-raw", "warm-raw",
              "saved", "blind-s", "warm-s");

  struct E20Record {
    std::string Tier;
    unsigned Groups;
    bool Quiesced, Agree;
    uint64_t BlindRaw, WarmRaw;
    unsigned BlindRounds, WarmRounds;
    double BlindS, WarmS;
  };
  std::vector<E20Record> E20Records;

  struct E20Tier {
    const char *Name;
    unsigned Groups;
    int Reps;
  };
  std::vector<E20Tier> E20Tiers = {{"1x", 4, 3}, {"10x", 12, 2}};
  if (!Smoke)
    E20Tiers.push_back({"30x", 24, 1});

  for (const E20Tier &T : E20Tiers) {
    ir::Context Ctx;
    // Figure-2-style groups over distinct variables: mul-by-pow2 feeding
    // an add. Distinct variables keep the groups unmergeable, so the
    // partition gate is meaningful; the closure stays finite.
    std::vector<ir::TermId> Seeds;
    for (unsigned I = 0; I < T.Groups; ++I) {
      ir::TermId V =
          Ctx.Terms.makeVar(("x" + std::to_string(I)).c_str());
      ir::TermId Mul = Ctx.Terms.makeBuiltin(
          Builtin::Mul64, {V, Ctx.Terms.makeConst(I % 2 ? 8 : 4)});
      Seeds.push_back(Ctx.Terms.makeBuiltin(
          Builtin::Add64, {Mul, Ctx.Terms.makeConst(1 + I % 3)}));
    }

    // Blind: a deliberately tight budget, so the backoff ladder has to
    // discover every productive axiom's appetite by doubling. Warm: the
    // same limits, plus the ledger from a profiling pre-run (recorded by
    // the blind arm itself, as `--profile-ledger` would).
    match::MatchLimits Blind;
    Blind.MatchBudget = 2;
    Blind.MaxRounds = 200;
    Blind.MaxNodes = 1u << 20;
    Blind.MaxInstancesPerRound = 1u << 20;

    obs::ProfileLedger Ledger;
    const char *Key = "e20";
    ArmResult BlindR, WarmR;
    double BlindS = 0, WarmS = 0;
    for (int Rep = 0; Rep < T.Reps; ++Rep) {
      obs::ProfileLedger Fresh;
      double B = runArm(Ctx, Seeds, Blind, BlindR, &Fresh, Key,
                        /*Extract=*/true);
      if (Rep == 0)
        Ledger.loadText(Fresh.toJsonl());
      match::MatchLimits Warm = Blind;
      Warm.Adaptive = true;
      Warm.Ledger = &Ledger;
      Warm.LedgerKey = Key;
      double W = runArm(Ctx, Seeds, Warm, WarmR, nullptr, "",
                        /*Extract=*/true);
      BlindS = Rep ? std::min(BlindS, B) : B;
      WarmS = Rep ? std::min(WarmS, W) : W;
    }

    bool Quiesced = BlindR.Stats.Quiesced && WarmR.Stats.Quiesced;
    // The hard gates: identical closure (partition, counts, extraction
    // costs) and strictly fewer raw match attempts for the warmed run.
    bool Agree = Quiesced && BlindR.Partition == WarmR.Partition &&
                 BlindR.Stats.FinalNodes == WarmR.Stats.FinalNodes &&
                 BlindR.Stats.FinalClasses == WarmR.Stats.FinalClasses &&
                 BlindR.ExtractCosts == WarmR.ExtractCosts &&
                 WarmR.Stats.MatchesFound < BlindR.Stats.MatchesFound &&
                 WarmR.Stats.AdaptiveSeeded > 0;
    if (!Agree) {
      std::printf(
          "tier %s: adaptive arm FAILED its gates "
          "(quiesced %d/%d, nodes %zu/%zu, classes %zu/%zu, raw %llu/%llu, "
          "seeded %llu)\n",
          T.Name, BlindR.Stats.Quiesced ? 1 : 0,
          WarmR.Stats.Quiesced ? 1 : 0, BlindR.Stats.FinalNodes,
          WarmR.Stats.FinalNodes, BlindR.Stats.FinalClasses,
          WarmR.Stats.FinalClasses,
          (unsigned long long)BlindR.Stats.MatchesFound,
          (unsigned long long)WarmR.Stats.MatchesFound,
          (unsigned long long)WarmR.Stats.AdaptiveSeeded);
      AllOk = false;
    }
    double SavedPct =
        BlindR.Stats.MatchesFound
            ? 100.0 *
                  (double)(BlindR.Stats.MatchesFound -
                           WarmR.Stats.MatchesFound) /
                  (double)BlindR.Stats.MatchesFound
            : 0.0;
    std::printf("%-8s %-7u %-9s %-7s %-11llu %-11llu %6.1f%%    %-8.3f "
                "%-8.3f\n",
                T.Name, T.Groups, Quiesced ? "yes" : "NO",
                Agree ? "yes" : "NO",
                (unsigned long long)BlindR.Stats.MatchesFound,
                (unsigned long long)WarmR.Stats.MatchesFound, SavedPct,
                BlindS, WarmS);
    E20Records.push_back(E20Record{
        T.Name, T.Groups, Quiesced, Agree, BlindR.Stats.MatchesFound,
        WarmR.Stats.MatchesFound, BlindR.Stats.Rounds, WarmR.Stats.Rounds,
        BlindS, WarmS});
  }

  writeMetricsSummary("BENCH_egraph_scale.metrics.txt");

  std::FILE *Out = std::fopen("BENCH_egraph_scale.json", "w");
  if (Out) {
    std::fprintf(Out, "[\n");
    for (size_t I = 0; I < Records.size(); ++I) {
      const Record &R = Records[I];
      // speedup_pct carries the headline ratio; the _pct suffix keeps
      // bench_compare from exact-matching a timing-derived number.
      std::fprintf(
          Out,
          "  {\"tier\": \"%s\", \"gmas\": %u, \"seed_nodes\": %zu, "
          "\"nodes\": %zu, \"classes\": %zu, \"quiesced\": %s, "
          "\"modes_agree\": %s, \"eager_s\": %.6f, \"deferred_s\": %.6f, "
          "\"speedup_pct\": %.1f}%s\n",
          R.Tier.c_str(), R.Gmas, R.SeedNodes, R.Nodes, R.Classes,
          R.Quiesced ? "true" : "false", R.ModesAgree ? "true" : "false",
          R.EagerS, R.DeferredS,
          R.DeferredS > 0 ? 100.0 * R.EagerS / R.DeferredS : 0.0,
          I + 1 < Records.size() || !E20Records.empty() ? "," : "");
    }
    for (size_t I = 0; I < E20Records.size(); ++I) {
      const E20Record &R = E20Records[I];
      // blind_raw/warm_raw are deterministic match counts — exact-gated
      // by bench_compare, like the node/class counts above.
      std::fprintf(
          Out,
          "  {\"tier\": \"e20-%s\", \"groups\": %u, \"quiesced\": %s, "
          "\"adaptive_agrees\": %s, \"blind_raw\": %llu, "
          "\"warm_raw\": %llu, \"blind_rounds\": %u, \"warm_rounds\": %u, "
          "\"blind_s\": %.6f, \"warm_s\": %.6f, \"raw_saved_pct\": %.1f}%s\n",
          R.Tier.c_str(), R.Groups, R.Quiesced ? "true" : "false",
          R.Agree ? "true" : "false", (unsigned long long)R.BlindRaw,
          (unsigned long long)R.WarmRaw, R.BlindRounds, R.WarmRounds,
          R.BlindS, R.WarmS,
          R.BlindRaw ? 100.0 * (double)(R.BlindRaw - R.WarmRaw) /
                           (double)R.BlindRaw
                     : 0.0,
          I + 1 < E20Records.size() ? "," : "");
    }
    std::fprintf(Out, "]\n");
    std::fclose(Out);
    std::printf("\nwrote BENCH_egraph_scale.json (%zu records)\n",
                Records.size() + E20Records.size());
  } else {
    std::printf("\ncould not write BENCH_egraph_scale.json\n");
    AllOk = false;
  }
  return AllOk ? 0 : 1;
}
