//===- tests/ServerTests.cpp - Compile server & canonical caching ---------===//
//
// The server layer's contract, in four parts:
//   * canonicalization: alpha-renamed / operand-commuted / source-renamed
//     GMAs share one key; different structure never does;
//   * cache serving: exact duplicates are bit-identical to their cold
//     compile, alpha-variants are served by pure renaming and still pass
//     differential verification, cache-off matches the plain driver, and
//     concurrent misses on one text leave one entry;
//   * re-entrancy: one const Superoptimizer compiles distinct GMAs from
//     several threads with results identical to sequential compiles;
//   * protocol: bulk grouping hit counts are deterministic, and serve()
//     answers every request line in order, a request nested too deep
//     included.
//
//===----------------------------------------------------------------------===//

#include "MalformedGmaSeeds.h"

#include "server/Server.h"

#include "obs/Obs.h"
#include "sexpr/Parser.h"
#include "support/StringExtras.h"
#include "verify/GmaGen.h"
#include "verify/GmaText.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <fstream>
#include <functional>
#include <random>
#include <set>
#include <sstream>
#include <thread>
#include <tuple>
#include <unordered_map>
#include <unordered_set>

using namespace denali;
using namespace denali::server;

namespace {

driver::Options smallOptions() {
  driver::Options Opts;
  Opts.Search.MaxCycles = 4;
  return Opts;
}

gma::GMA parse(driver::Superoptimizer &Opt, const std::string &Text) {
  std::string Err;
  std::optional<gma::GMA> G = verify::parseGma(Opt.context(), Text, &Err);
  EXPECT_TRUE(G.has_value()) << Err << "\n" << Text;
  return *G;
}

//===----------------------------------------------------------------------===//
// Canonicalization & keys
//===----------------------------------------------------------------------===//

TEST(CanonTest, AlphaRenameSameKeyAndText) {
  driver::Superoptimizer Opt(smallOptions());
  gma::GMA A = parse(Opt, "(gma f (assign r (add64 a (mul64 b c))))");
  gma::GMA B = parse(Opt, "(gma f (assign r (add64 x (mul64 y z))))");
  CanonicalGma CA = canonicalizeGma(Opt.context(), A);
  CanonicalGma CB = canonicalizeGma(Opt.context(), B);
  EXPECT_EQ(CA.Text, CB.Text);
  // The renaming is recorded per request, in canonical first-use order
  // (the shape sort visits the (mul64 ? ?) operand before the bare
  // variable, so b/y lead).
  ASSERT_EQ(CA.VarMap.size(), 3u);
  ASSERT_EQ(CB.VarMap.size(), 3u);
  EXPECT_EQ(CA.VarMap[0].first, "b");
  EXPECT_EQ(CA.VarMap[0].second, "v0");
  EXPECT_EQ(CB.VarMap[0].first, "y");
  EXPECT_EQ(CB.VarMap[0].second, "v0");
}

TEST(CanonTest, CommutedOperandsSameText) {
  driver::Superoptimizer Opt(smallOptions());
  gma::GMA A = parse(Opt, "(gma f (assign r (add64 (mul64 a b) c)))");
  gma::GMA B = parse(Opt, "(gma f (assign r (add64 c (mul64 b a))))");
  EXPECT_EQ(canonicalizeGma(Opt.context(), A).Text,
            canonicalizeGma(Opt.context(), B).Text);
}

TEST(CanonTest, SourceAndTargetNamesStripped) {
  driver::Superoptimizer Opt(smallOptions());
  gma::GMA A = parse(Opt, "(gma first (assign r (add64 a b)))");
  gma::GMA B = parse(Opt, "(gma second (assign out (add64 a b)))");
  CanonicalGma CA = canonicalizeGma(Opt.context(), A);
  EXPECT_EQ(CA.Text, canonicalizeGma(Opt.context(), B).Text);
  ASSERT_EQ(CA.Targets.size(), 1u);
  EXPECT_EQ(CA.Targets[0], "r");
  EXPECT_EQ(CA.Name, "first");
}

TEST(CanonTest, DifferentStructureDifferentKey) {
  driver::Superoptimizer Opt(smallOptions());
  gma::GMA A = parse(Opt, "(gma f (assign r (add64 a b)))");
  gma::GMA B = parse(Opt, "(gma f (assign r (sub64 a b)))");
  CanonicalGma CA = canonicalizeGma(Opt.context(), A);
  CanonicalGma CB = canonicalizeGma(Opt.context(), B);
  EXPECT_NE(CA.Text, CB.Text);
  // (sub64 b a) IS alpha-equivalent to (sub64 a b) — swapping the names
  // is a renaming, not a commutation — so it must share B's skeleton.
  gma::GMA C = parse(Opt, "(gma f (assign r (sub64 b a)))");
  EXPECT_EQ(CB.Text, canonicalizeGma(Opt.context(), C).Text);
  // But sub64 is NOT commutative: against a constant (which cannot be
  // renamed) the operand order must survive canonicalization.
  gma::GMA D = parse(Opt, "(gma f (assign r (sub64 a 5)))");
  gma::GMA E = parse(Opt, "(gma f (assign r (sub64 5 a)))");
  EXPECT_NE(canonicalizeGma(Opt.context(), D).Text,
            canonicalizeGma(Opt.context(), E).Text);
  // Same-variable reuse is also structural, not nominal.
  gma::GMA F = parse(Opt, "(gma f (assign r (sub64 a a)))");
  EXPECT_NE(CB.Text, canonicalizeGma(Opt.context(), F).Text);
}

// Property over the generator stream: canonicalization is deterministic,
// idempotent (the canonical text re-canonicalizes to itself), and stable
// under the printGma/parseGma round trip.
TEST(CanonTest, GeneratedGmasCanonicalizeStably) {
  driver::Superoptimizer Opt(smallOptions());
  verify::GmaGen Gen(Opt.context(), /*Seed=*/7);
  for (int I = 0; I < 25; ++I) {
    gma::GMA G = Gen.next();
    CanonicalGma C1 = canonicalizeGma(Opt.context(), G);
    EXPECT_EQ(C1.Text, canonicalizeGma(Opt.context(), G).Text);

    std::string Err;
    std::optional<gma::GMA> Round =
        verify::parseGma(Opt.context(), verify::printGma(Opt.context(), G),
                         &Err);
    ASSERT_TRUE(Round.has_value()) << Err;
    EXPECT_EQ(C1.Text, canonicalizeGma(Opt.context(), *Round).Text);

    std::optional<gma::GMA> Canon =
        verify::parseGma(Opt.context(), C1.Text, &Err);
    ASSERT_TRUE(Canon.has_value()) << Err << "\n" << C1.Text;
    EXPECT_EQ(C1.Text, canonicalizeGma(Opt.context(), *Canon).Text);
  }
}

/// The draws of GmaGen \p Seed that the server-mix benchmark keeps: the
/// first 120 canonically distinct ones. \returns the indices it drops,
/// and the number of draws, in \p Draws.
std::vector<unsigned> droppedDraws(uint64_t Seed, unsigned &Draws,
                                   std::vector<gma::GMA> *Kept = nullptr,
                                   driver::Superoptimizer *Opt = nullptr) {
  driver::Superoptimizer Own(smallOptions());
  ir::Context &Ctx = (Opt ? *Opt : Own).context();
  verify::GmaGen Gen(Ctx, Seed);
  std::unordered_set<std::string> Texts;
  std::vector<unsigned> Dropped;
  for (Draws = 0; Texts.size() < 120; ++Draws) {
    gma::GMA G = Gen.next();
    if (!Texts.insert(canonicalizeGma(Ctx, G).Text).second)
      Dropped.push_back(Draws);
    else if (Kept)
      Kept->push_back(std::move(G));
  }
  return Dropped;
}

// The benchmark's server-mix stream keeps the first 120 canonically
// distinct GmaGen draws. These are the draws the canonical identity kept
// when it ordered operands by shape strings; any fixed total order of
// shapes groups GMAs the same way, so they must not move.
TEST(CanonTest, GmaGenCorporaKeepTheirDraws) {
  unsigned Draws = 0;
  EXPECT_EQ(droppedDraws(17, Draws),
            (std::vector<unsigned>{28, 63, 77, 114, 122}));
  EXPECT_EQ(Draws, 125u);
  EXPECT_EQ(droppedDraws(1017, Draws),
            (std::vector<unsigned>{17, 23, 27, 88, 109, 122, 123}));
  EXPECT_EQ(Draws, 127u);
}

/// A name-blind shape string with sorted commutative operands, as the
/// canonical identity used to order operands by.
std::string shapeString(const ir::Context &Ctx, ir::TermId T) {
  const ir::TermNode &N = Ctx.Terms.node(T);
  if (Ctx.Ops.isConst(N.Op))
    return "#" + std::to_string(N.ConstVal);
  if (Ctx.Ops.isVariable(N.Op))
    return "?";
  std::vector<std::string> Kids;
  for (ir::TermId C : N.Children)
    Kids.push_back(shapeString(Ctx, C));
  if (Ctx.Ops.info(N.Op).Commutative)
    std::sort(Kids.begin(), Kids.end());
  std::string S = "(" + Ctx.Ops.info(N.Op).Name;
  for (const std::string &K : Kids)
    S += " " + K;
  return S + ")";
}

// Every variant of a kept skeleton that renames its variables and swaps
// the operands of commutative operators gets the skeleton's canonical
// text. (Operands of equal shape keep their source order in the text,
// so only differently shaped ones are swapped here.)
TEST(CanonTest, RenamedCommutedVariantsOfKeptSkeletonsShareItsText) {
  driver::Superoptimizer Opt(smallOptions());
  ir::Context &Ctx = Opt.context();
  std::vector<gma::GMA> Kept;
  unsigned Draws = 0;
  droppedDraws(17, Draws, &Kept, &Opt);
  ASSERT_EQ(Kept.size(), 120u);
  std::mt19937_64 Rng(17);
  unsigned Swaps = 0;
  for (size_t S = 0; S < Kept.size(); ++S) {
    const gma::GMA &G = Kept[S];
    const std::string Want = canonicalizeGma(Ctx, G).Text;
    for (int V = 0; V < 4; ++V) {
      std::unordered_map<ir::TermId, ir::TermId> Memo;
      std::function<ir::TermId(ir::TermId)> Vary = [&](ir::TermId T) {
        if (auto It = Memo.find(T); It != Memo.end())
          return It->second;
        const ir::TermNode N = Ctx.Terms.node(T);
        ir::TermId Out = T;
        if (Ctx.Ops.isVariable(N.Op)) {
          const std::string &Name = Ctx.Ops.info(N.Op).Name;
          if (Name != "M") // M marks the memory target.
            Out = Ctx.Terms.makeVar(strFormat("%s_s%zu_v%d", Name.c_str(), S,
                                              V));
        } else if (!N.Children.empty()) {
          std::vector<ir::TermId> Kids;
          for (ir::TermId C : N.Children)
            Kids.push_back(Vary(C));
          if (Ctx.Ops.info(N.Op).Commutative && Rng() % 2 &&
              shapeString(Ctx, N.Children[0]) !=
                  shapeString(Ctx, N.Children[1])) {
            std::swap(Kids[0], Kids[1]);
            ++Swaps;
          }
          Out = Ctx.Terms.make(N.Op, Kids);
        }
        return Memo[T] = Out;
      };
      gma::GMA Variant = G;
      Variant.Name = strFormat("variant%d", V);
      for (ir::TermId &T : Variant.NewVals)
        T = Vary(T);
      if (Variant.Guard)
        Variant.Guard = Vary(*Variant.Guard);
      for (ir::TermId &T : Variant.MissAddrs)
        T = Vary(T);
      EXPECT_EQ(canonicalizeGma(Ctx, Variant).Text, Want)
          << verify::printGma(Ctx, G) << "\n"
          << verify::printGma(Ctx, Variant);
    }
  }
  EXPECT_GT(Swaps, 100u);
}

//===----------------------------------------------------------------------===//
// Cache serving
//===----------------------------------------------------------------------===//

TEST(ServerTest, ExactDuplicateIsBitIdenticalToColdCompile) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Server(SO);
  const std::string Text = "(gma dup (assign r (add64 a (add64 b 3))))";

  ServerResponse Cold = Server.compileText(Text);
  ASSERT_TRUE(Cold.Result.ok()) << Cold.Result.Error;
  EXPECT_EQ(Cold.Source, ResultSource::Cold);

  ServerResponse Hit = Server.compileText(Text);
  ASSERT_TRUE(Hit.Result.ok()) << Hit.Result.Error;
  EXPECT_EQ(Hit.Source, ResultSource::CacheHit);
  EXPECT_EQ(Cold.Result.Search.Cycles, Hit.Result.Search.Cycles);
  EXPECT_EQ(Cold.Result.Search.Program.toString(),
            Hit.Result.Search.Program.toString());

  // And the cold compile itself is the plain driver's answer.
  gma::GMA G = parse(Server.opt(), Text);
  driver::GmaResult Direct = Server.opt().compileGMA(G);
  EXPECT_EQ(Direct.Search.Program.toString(),
            Cold.Result.Search.Program.toString());
  EXPECT_EQ(Server.stats().CacheServes, 1u);
}

TEST(ServerTest, RenamedVariantServedFromCacheAndVerifies) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Server(SO);

  ServerResponse Cold =
      Server.compileText("(gma f (assign r (xor64 a (add64 b 5))))");
  ASSERT_TRUE(Cold.Result.ok()) << Cold.Result.Error;

  // Alpha-renamed variables, renamed target, renamed source, commuted
  // add: one canonical skeleton, served by renaming alone.
  ServerResponse Hit =
      Server.compileText("(gma g (assign out (xor64 x (add64 5 y))))");
  ASSERT_TRUE(Hit.Result.ok()) << Hit.Result.Error;
  EXPECT_EQ(Hit.Source, ResultSource::CacheHit);
  EXPECT_EQ(Hit.Result.Gma.Name, "g");
  EXPECT_EQ(Hit.Result.Search.Program.Name, "g");
  EXPECT_EQ(Cold.Result.Search.Cycles, Hit.Result.Search.Cycles);

  // The renamed program must still compute the request's GMA: the full
  // differential oracle (simulator vs reference evaluation) is the
  // cross-check that renaming composed correctly.
  std::optional<std::string> Bad = Server.opt().verify(Hit.Result);
  EXPECT_FALSE(Bad.has_value()) << *Bad;

  // Cross-check against an independent cold compile of the variant.
  driver::Superoptimizer Fresh(smallOptions());
  gma::GMA G2 = parse(Fresh, "(gma g (assign out (xor64 x (add64 5 y))))");
  driver::GmaResult Direct = Fresh.compileGMA(G2);
  ASSERT_TRUE(Direct.ok()) << Direct.Error;
  EXPECT_EQ(Direct.Search.Cycles, Hit.Result.Search.Cycles);
}

TEST(ServerTest, OversizedResultIsNotCachedAndRecompilesCold) {
  // A result cache too small for any entry (but nonzero) stays empty: the
  // repeat request compiles cold again, to the same program.
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  SO.CacheBytes = 64; // Every result costs more than the whole cap.
  CompileServer Server(SO);
  const std::string Text = "(gma w (assign r (add64 a (xor64 b c))))";

  ServerResponse First = Server.compileText(Text);
  ASSERT_TRUE(First.Result.ok()) << First.Result.Error;
  EXPECT_EQ(First.Source, ResultSource::Cold);

  ServerResponse Second = Server.compileText(Text);
  ASSERT_TRUE(Second.Result.ok()) << Second.Result.Error;
  EXPECT_EQ(Second.Source, ResultSource::Cold);
  EXPECT_EQ(First.Result.Search.Cycles, Second.Result.Search.Cycles);
  EXPECT_EQ(First.Result.Search.Program.toString(),
            Second.Result.Search.Program.toString());
  ServerStats St = Server.stats();
  EXPECT_EQ(St.ColdCompiles, 2u);
  EXPECT_EQ(St.CacheServes, 0u);
  EXPECT_EQ(St.ResultCache.Entries, 0u);
  EXPECT_EQ(St.ResultCache.Insertions, 0u);
}

TEST(ServerTest, CacheOffMatchesPlainDriver) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  SO.CacheBytes = 0; // Disables the result cache.
  CompileServer Server(SO);
  const std::string Text = "(gma n (assign r (add64 a b)))";

  ServerResponse R1 = Server.compileText(Text);
  ServerResponse R2 = Server.compileText(Text);
  ASSERT_TRUE(R1.Result.ok()) << R1.Result.Error;
  EXPECT_EQ(R1.Source, ResultSource::Cold);
  EXPECT_EQ(R2.Source, ResultSource::Cold); // No tier ever serves.

  gma::GMA G = parse(Server.opt(), Text);
  driver::GmaResult Direct = Server.opt().compileGMA(G);
  EXPECT_EQ(Direct.Search.Program.toString(),
            R1.Result.Search.Program.toString());
  EXPECT_EQ(Direct.Search.Program.toString(),
            R2.Result.Search.Program.toString());
  ServerStats St = Server.stats();
  EXPECT_EQ(St.CacheServes, 0u);
  EXPECT_EQ(St.ResultCache.Entries, 0u);
}

TEST(ServerTest, ZeroCycleFloorIsTreatedAsOne) {
  // Budget 0 has no cycle layer to encode; a floor of 0 must not reach
  // the encoder.
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Default(SO);
  SO.Pipeline.Search.MinCycles = 0;
  CompileServer ZeroFloor(SO);
  const std::string Text = "(gma t (assign r (add64 x 3)))";
  ServerResponse Want = Default.compileText(Text);
  ServerResponse Got = ZeroFloor.compileText(Text);
  ASSERT_TRUE(Want.Result.ok()) << Want.Result.Error;
  ASSERT_TRUE(Got.Result.ok()) << Got.Result.Error;
  EXPECT_EQ(Got.Result.Search.Cycles, Want.Result.Search.Cycles);
}

TEST(ServerTest, ZeroCycleCeilingAnswersWithAnError) {
  // A ceiling of 0 leaves no budget to probe: a request that needs an
  // instruction gets the budget error, and one that needs none still
  // compiles to the empty program.
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  SO.Pipeline.Search.MaxCycles = 0;
  CompileServer Server(SO);
  ServerResponse Busy = Server.compileText("(gma t (assign r (add64 x 3)))");
  EXPECT_FALSE(Busy.Result.ok());
  EXPECT_NE(Busy.Result.Error.find("no program within 0 cycles"),
            std::string::npos)
      << Busy.Result.Error;
  ServerResponse Free = Server.compileText("(gma u (assign r x))");
  ASSERT_TRUE(Free.Result.ok()) << Free.Result.Error;
  EXPECT_EQ(Free.Result.Search.Cycles, 0u);
}

TEST(ServerTest, CacheStaysWithinByteCap) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  SO.CacheBytes = 8 << 10;
  CompileServer Server(SO);
  // Distinct skeletons (different literals), enough to overflow the cap.
  for (int I = 0; I < 16; ++I) {
    ServerResponse R = Server.compileText(
        strFormat("(gma e%d (assign r (add64 a %d)))", I, 100 + I));
    ASSERT_TRUE(R.Result.ok()) << R.Result.Error;
  }
  ServerStats St = Server.stats();
  EXPECT_LE(St.ResultCache.Bytes, SO.CacheBytes);
  // Recompiles after eviction are still correct (cold again or hit).
  ServerResponse Again =
      Server.compileText("(gma e0 (assign r (add64 a 100)))");
  ASSERT_TRUE(Again.Result.ok()) << Again.Result.Error;
}

/// The cost of \p Text's cache entry, read off a server that holds only it.
size_t entryBytes(const std::string &Text) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Server(SO);
  EXPECT_TRUE(Server.compileText(Text).Result.ok()) << Text;
  return Server.stats().ResultCache.Bytes;
}

// The cap bounds the whole cache, not a share of it: a cap of exactly one
// entry's cost keeps that entry and serves it.
TEST(ServerTest, EntryAsLargeAsTheCapIsCachedAndServed) {
  const std::string Text = "(gma w (assign r (add64 a (xor64 b c))))";
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  SO.CacheBytes = entryBytes(Text);
  ASSERT_GT(SO.CacheBytes, 0u);
  CompileServer Server(SO);

  ServerResponse Cold = Server.compileText(Text);
  ASSERT_TRUE(Cold.Result.ok()) << Cold.Result.Error;
  EXPECT_EQ(Cold.Source, ResultSource::Cold);
  ServerResponse Hit = Server.compileText(Text);
  ASSERT_TRUE(Hit.Result.ok()) << Hit.Result.Error;
  EXPECT_EQ(Hit.Source, ResultSource::CacheHit);
  ServerStats St = Server.stats();
  EXPECT_EQ(St.ResultCache.Entries, 1u);
  EXPECT_EQ(St.ResultCache.Bytes, SO.CacheBytes);
  EXPECT_EQ(St.ResultCache.Evictions, 0u);
}

// With room for two entries, touching A and then inserting C evicts B: the
// least recently used entry of the whole cache goes.
TEST(ServerTest, EvictionDropsTheLeastRecentlyUsedEntry) {
  const std::string A = "(gma a (assign r (add64 x 101)))";
  const std::string B = "(gma b (assign r (add64 x 102)))";
  const std::string C = "(gma c (assign r (add64 x 103)))";
  const size_t Bytes = entryBytes(A);
  ASSERT_EQ(entryBytes(B), Bytes);
  ASSERT_EQ(entryBytes(C), Bytes);
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  SO.CacheBytes = 2 * Bytes;
  CompileServer Server(SO);

  EXPECT_EQ(Server.compileText(A).Source, ResultSource::Cold);
  EXPECT_EQ(Server.compileText(B).Source, ResultSource::Cold);
  EXPECT_EQ(Server.compileText(A).Source, ResultSource::CacheHit);
  EXPECT_EQ(Server.compileText(C).Source, ResultSource::Cold);
  ServerStats St = Server.stats();
  EXPECT_EQ(St.ResultCache.Entries, 2u);
  EXPECT_EQ(St.ResultCache.Evictions, 1u);
  EXPECT_EQ(Server.compileText(A).Source, ResultSource::CacheHit);
  EXPECT_EQ(Server.compileText(B).Source, ResultSource::Cold);
}

// A hit answers with the request's GMA and with what the cold answer says
// of the compile: its match counts, search record and program. The cold
// answer's per-axiom match rows stay with the cold answer.
TEST(ServerTest, HitCarriesTheRequestsGmaAndTheColdCounts) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Server(SO);
  const std::string Text = "(gma f (assign r (xor64 a (add64 b 5))))";
  ServerResponse Cold = Server.compileText(Text);
  ASSERT_TRUE(Cold.Result.ok()) << Cold.Result.Error;
  EXPECT_FALSE(Cold.Result.Matching.PerAxiom.empty());

  auto Counts = [](const match::MatchStats &M) {
    return std::make_tuple(M.Rounds, M.MatchesFound, M.InstancesDeduped,
                           M.InstancesAsserted, M.FinalNodes, M.FinalClasses,
                           M.Quiesced, M.BudgetOverflows, M.BudgetSkips,
                           M.PhaseAdvances, M.Merges, M.CongruenceMerges,
                           M.ConstantFolds, M.Rebuilds, M.AdaptiveSeeded,
                           M.AdaptiveDemoted);
  };
  const ir::Context &Ctx = Server.opt().context();
  for (const std::string &Request :
       {Text, std::string("(gma g (assign out (xor64 x (add64 5 y))))")}) {
    ServerResponse Hit = Server.compileText(Request);
    ASSERT_TRUE(Hit.Result.ok()) << Hit.Result.Error;
    EXPECT_EQ(Hit.Source, ResultSource::CacheHit);
    EXPECT_EQ(verify::printGma(Ctx, Hit.Result.Gma),
              verify::printGma(Ctx, parse(Server.opt(), Request)));
    EXPECT_EQ(Counts(Hit.Result.Matching), Counts(Cold.Result.Matching));
    EXPECT_TRUE(Hit.Result.Matching.PerAxiom.empty());
    EXPECT_EQ(Hit.Result.Search.Cycles, Cold.Result.Search.Cycles);
    EXPECT_EQ(Hit.Result.Search.Probes.size(),
              Cold.Result.Search.Probes.size());
  }
  ServerResponse Dup = Server.compileText(Text);
  EXPECT_EQ(Dup.Result.Search.Program.toString(),
            Cold.Result.Search.Program.toString());
}

// Several clients send one new text at once; its compile takes about
// 10 ms (Release), so they all miss and compile cold. The cache keeps the
// result put first, so one entry remains. The TSan copy of this test
// (server_tests_tsan) is the race gate for the racing puts.
TEST(ServerTest, ConcurrentIdenticalMissesLeaveOneEntry) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  CompileServer Server(SO);
  const std::string Text =
      "(gma same (assign r (add64 (shl64 (and64 a 255) 8) "
      "(and64 (shr64 a 8) 255))))";
  const unsigned Clients = 6;
  std::vector<ServerResponse> Rs(Clients);
  std::vector<std::thread> Threads;
  for (unsigned I = 0; I < Clients; ++I)
    Threads.emplace_back([&, I] { Rs[I] = Server.compileText(Text); });
  for (std::thread &T : Threads)
    T.join();
  for (const ServerResponse &R : Rs) {
    ASSERT_TRUE(R.Result.ok()) << R.Result.Error;
    EXPECT_EQ(R.Result.Search.Program.toString(),
              Rs[0].Result.Search.Program.toString());
  }
  ServerStats St = Server.stats();
  EXPECT_EQ(St.Requests, Clients);
  EXPECT_EQ(St.ColdCompiles + St.CacheServes, Clients);
  EXPECT_GE(St.ColdCompiles, 1u);
  EXPECT_EQ(St.ResultCache.Entries, 1u);
  EXPECT_EQ(St.ResultCache.Insertions, 1u);
}

//===----------------------------------------------------------------------===//
// Re-entrancy (satellite: const, concurrent Superoptimizer)
//===----------------------------------------------------------------------===//

TEST(ServerTest, ConcurrentCompilesOnOneConstSuperoptimizer) {
  driver::Superoptimizer Opt(smallOptions());
  // Pre-intern every GMA up front (the front end is the only mutable
  // stage); compiles below run on a const reference.
  std::vector<gma::GMA> Gmas;
  Gmas.push_back(parse(Opt, "(gma c0 (assign r (add64 a b)))"));
  Gmas.push_back(parse(Opt, "(gma c1 (assign r (xor64 a (add64 b 9))))"));
  Gmas.push_back(parse(Opt, "(gma c2 (assign r (sub64 (or64 a b) c)))"));
  Gmas.push_back(parse(Opt, "(gma c3 (assign r (and64 a (shl64 b 2)))"
                            " (guard (cmplt a b)))"));

  const driver::Superoptimizer &COpt = Opt;
  std::vector<driver::GmaResult> Sequential;
  for (const gma::GMA &G : Gmas)
    Sequential.push_back(COpt.compileGMA(G));

  std::vector<driver::GmaResult> Concurrent(Gmas.size());
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Gmas.size(); ++I)
    Threads.emplace_back(
        [&COpt, &Concurrent, &Gmas, I] { Concurrent[I] = COpt.compileGMA(Gmas[I]); });
  for (std::thread &T : Threads)
    T.join();

  for (size_t I = 0; I < Gmas.size(); ++I) {
    ASSERT_TRUE(Concurrent[I].ok()) << Concurrent[I].Error;
    EXPECT_EQ(Sequential[I].Search.Cycles, Concurrent[I].Search.Cycles);
    EXPECT_EQ(Sequential[I].Search.Program.toString(),
              Concurrent[I].Search.Program.toString());
  }
}

TEST(ServerTest, SaturateOnceCompileManyConcurrently) {
  // One frozen SaturatedGma serves concurrent compileSaturated() calls.
  driver::Superoptimizer Opt(smallOptions());
  gma::GMA G = parse(Opt, "(gma s (assign r (add64 (xor64 a b) c)))");
  driver::SaturatedGma S = Opt.saturateGMA(G);
  ASSERT_TRUE(S.ok()) << S.Error;

  const driver::Superoptimizer &COpt = Opt;
  driver::GmaResult Reference = COpt.compileSaturated(S, G);
  ASSERT_TRUE(Reference.ok()) << Reference.Error;

  std::vector<driver::GmaResult> Rs(4);
  std::vector<std::thread> Threads;
  for (size_t I = 0; I < Rs.size(); ++I)
    Threads.emplace_back([&, I] { Rs[I] = COpt.compileSaturated(S, G); });
  for (std::thread &T : Threads)
    T.join();
  for (const driver::GmaResult &R : Rs) {
    ASSERT_TRUE(R.ok()) << R.Error;
    EXPECT_EQ(Reference.Search.Program.toString(),
              R.Search.Program.toString());
  }
}

//===----------------------------------------------------------------------===//
// Bulk mode & protocol
//===----------------------------------------------------------------------===//

TEST(ServerTest, BulkGroupingHitCountsDeterministic) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 2;
  CompileServer Server(SO);

  // 8 requests over 3 canonical skeletons (renames/commutes collapse).
  std::vector<std::string> Texts = {
      "(gma a0 (assign r (add64 a b)))",
      "(gma a1 (assign s (add64 y x)))",    // alpha+commute of a0
      "(gma b0 (assign r (sub64 a b)))",
      "(gma a2 (assign r (add64 a b)))",    // exact duplicate of a0
      "(gma c0 (assign r (xor64 a (add64 b 1))))",
      "(gma b1 (assign t (sub64 p q)))",    // alpha of b0
      "(gma c1 (assign r (xor64 (add64 b 1) a)))", // commute of c0
      "(gma a3 (assign z (add64 m n)))",    // alpha of a0
  };
  std::vector<ServerResponse> Rs = Server.compileBulk(Texts);
  ASSERT_EQ(Rs.size(), Texts.size());
  for (size_t I = 0; I < Rs.size(); ++I)
    ASSERT_TRUE(Rs[I].Result.ok()) << I << ": " << Rs[I].Result.Error;

  // Responses stay in input order (names echo back).
  EXPECT_EQ(Rs[0].Result.Gma.Name, "a0");
  EXPECT_EQ(Rs[7].Result.Gma.Name, "a3");

  ServerStats St = Server.stats();
  EXPECT_EQ(St.ColdCompiles, 3u);                    // One per skeleton.
  EXPECT_EQ(St.CacheServes, Texts.size() - 3u);      // Everyone else hits.
  EXPECT_EQ(St.Requests, Texts.size());

  // All members of a skeleton group agree on the minimal cycle count.
  EXPECT_EQ(Rs[0].Result.Search.Cycles, Rs[1].Result.Search.Cycles);
  EXPECT_EQ(Rs[0].Result.Search.Cycles, Rs[3].Result.Search.Cycles);
  EXPECT_EQ(Rs[2].Result.Search.Cycles, Rs[5].Result.Search.Cycles);
  EXPECT_EQ(Rs[4].Result.Search.Cycles, Rs[6].Result.Search.Cycles);
}

TEST(ServerTest, BulkParseErrorsReportedInPlace) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Server(SO);
  std::vector<ServerResponse> Rs = Server.compileBulk({
      "(gma ok1 (assign r (add64 a b)))",
      "(gma bad (assign r (no_such_op a b)))",
      "(gma ok2 (assign r (add64 a b)))",
  });
  ASSERT_EQ(Rs.size(), 3u);
  EXPECT_TRUE(Rs[0].Result.ok());
  EXPECT_FALSE(Rs[1].Result.Error.empty());
  EXPECT_TRUE(Rs[2].Result.ok());
  EXPECT_EQ(Rs[2].Source, ResultSource::CacheHit);
  EXPECT_EQ(Server.stats().ParseErrors, 1u);
}

TEST(ServerTest, ParseErrorsCarryTheReaderText) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Server(SO);
  for (const auto &[File, Want] : MalformedGmaSeeds) {
    ServerResponse R = Server.compileText(readMalformedGmaSeed(File));
    EXPECT_EQ(R.Result.Error, std::string("parse: ") + Want) << File;
    EXPECT_TRUE(R.Result.Gma.Name.empty()) << File;
  }
  EXPECT_EQ(Server.stats().ParseErrors, std::size(MalformedGmaSeeds));
}

// One client keeps sending requests with fresh variable names, so its
// parses keep appending to the term and operator tables, while another
// client's requests are served from the cache and compiled cold. Those
// read the tables outside the front-end lock (canonicalization, the
// e-graph, the search); the tables must not move what they read. The
// TSan copy of this test (server_tests_tsan) is the race gate.
TEST(ServerTest, FreshNamesGrowTheTablesWhileOthersCompile) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 2;
  CompileServer Server(SO);
  std::atomic<bool> Failed{false};
  std::thread Namer([&] {
    for (int I = 0; I < 400; ++I) {
      ServerResponse R = Server.compileText(
          strFormat("(gma fresh%d (assign r (add64 x%d (xor64 y%d %d))))", I,
                    I, I, I % 3));
      Failed = Failed || !R.Result.ok();
    }
  });
  std::thread Mixer([&] {
    for (int I = 0; I < 12; ++I) {
      ServerResponse Cold = Server.compileText(
          strFormat("(gma cold%d (assign r (sub64 a %d)))", I, 1000 + I));
      ServerResponse Hit =
          Server.compileText("(gma hot (assign r (sub64 a 1000)))");
      Failed = Failed || !Cold.Result.ok() || !Hit.Result.ok();
    }
  });
  Namer.join();
  Mixer.join();
  EXPECT_FALSE(Failed);
  // Three skeletons from the namer and twelve from the mixer compile cold;
  // everything else is a hit.
  ServerStats St = Server.stats();
  EXPECT_EQ(St.Requests, 400u + 24u);
  EXPECT_EQ(St.ColdCompiles, 3u + 12u);
  EXPECT_EQ(St.CacheServes, 424u - 15u);
}

TEST(ServerTest, ServeAnswersInOrderAndHandlesVerbs) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 2;
  CompileServer Server(SO);
  std::istringstream In("(gma p1 (assign r (add64 a b)))\n"
                        "\n" // Blank lines are ignored.
                        "(gma p2\n"
                        "  (assign r (sub64 a b))) ; multi-line form\n"
                        "(gma broken (assign r (no_such_op a)))\n"
                        "(stats)\n"
                        "(gma p3 (assign s (add64 x y)))\n"
                        "(quit)\n"
                        "(gma after-quit (assign r (add64 a b)))\n");
  std::ostringstream Out;
  int Failures = Server.serve(In, Out);
  EXPECT_EQ(Failures, 1); // The parse error.

  std::vector<std::string> Lines;
  std::istringstream Split(Out.str());
  for (std::string L; std::getline(Split, L);)
    Lines.push_back(L);
  ASSERT_EQ(Lines.size(), 5u) << Out.str();
  EXPECT_EQ(Lines[0].compare(0, 7, "(ok p1 "), 0) << Lines[0];
  EXPECT_EQ(Lines[1].compare(0, 7, "(ok p2 "), 0) << Lines[1];
  EXPECT_EQ(Lines[2].compare(0, 6, "(error"), 0) << Lines[2];
  EXPECT_EQ(Lines[3].compare(0, 7, "(stats "), 0) << Lines[3];
  EXPECT_EQ(Lines[4].compare(0, 7, "(ok p3 "), 0) << Lines[4];
  // p3 is an alpha-variant of p1: served from cache.
  EXPECT_NE(Lines[4].find(":source hit"), std::string::npos) << Lines[4];
}

// A symbol holds any byte but a delimiter: an answer carries a GMA's
// whole name, NUL bytes included, cold or from the cache.
TEST(ServerTest, ServeAnswersWithTheWholeNameOfAGma) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Server(SO);
  const std::string Nul(1, '\0');
  std::istringstream In("(gma a" + Nul + "b (assign r (add64 x 1)))\n" +
                        "(gma c" + Nul + "d (assign s (add64 y 1)))\n");
  std::ostringstream Out;
  EXPECT_EQ(Server.serve(In, Out), 0);
  std::vector<std::string> Lines;
  std::istringstream Split(Out.str());
  for (std::string L; std::getline(Split, L);)
    Lines.push_back(L);
  ASSERT_EQ(Lines.size(), 2u) << Out.str();
  const std::string Cold = "(ok a" + Nul + "b :cycles 1 :source cold ";
  const std::string Hit = "(ok c" + Nul + "d :cycles 1 :source hit ";
  EXPECT_EQ(Lines[0].compare(0, Cold.size(), Cold), 0) << Lines[0];
  EXPECT_EQ(Lines[1].compare(0, Hit.size(), Hit), 0) << Lines[1];
}

/// A request whose parentheses nest \p Depth deep, the gma and assign
/// forms included: (gma <Name> (assign r (not64 (not64 ... a)))).
std::string nestedRequest(const std::string &Name, unsigned Depth) {
  std::string Text = "(gma " + Name + " (assign r ";
  for (unsigned I = 2; I < Depth; ++I)
    Text += "(not64 ";
  Text += 'a';
  Text.append(Depth, ')');
  return Text;
}

// A request nested far deeper than sexpr::MaxNesting gets a parse error
// at the first parenthesis past the limit; the server goes on to answer a
// request nested exactly at the limit (even not64s are the identity) and
// the request after it, each on one line, its program included.
TEST(ServerTest, ServeAnswersAfterARequestNestedTooDeep) {
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 2;
  SO.PrintPrograms = true;
  CompileServer Server(SO);
  std::istringstream In(nestedRequest("deep", 60000) + "\n" +
                        nestedRequest("limit", sexpr::MaxNesting) + "\n" +
                        "(gma after (assign r (add64 a b)))\n");
  std::ostringstream Out;
  EXPECT_EQ(Server.serve(In, Out), 1);

  std::vector<std::string> Lines;
  std::istringstream Split(Out.str());
  for (std::string L; std::getline(Split, L);)
    Lines.push_back(L);
  ASSERT_EQ(Lines.size(), 3u);
  // "(gma deep (assign r " is 20 characters, and each "(not64 " 7.
  EXPECT_EQ(Lines[0],
            strFormat("(error \"parse: 1:%u: parentheses nested deeper "
                      "than %u\")",
                      21 + 7 * (sexpr::MaxNesting - 2), sexpr::MaxNesting));
  EXPECT_EQ(Lines[1].compare(0, 20, "(ok limit :cycles 0 "), 0) << Lines[1];
  EXPECT_EQ(Lines[2].compare(0, 10, "(ok after "), 0) << Lines[2];
  EXPECT_EQ(Server.stats().ParseErrors, 1u);
}

//===----------------------------------------------------------------------===//
// Telemetry (always-on tracing, live windows, stats-full, flusher)
//===----------------------------------------------------------------------===//

/// Puts the process-global obs layer in a known state for telemetry tests.
void resetObs(bool Enabled) {
  obs::ObsConfig C;
  C.Enabled = Enabled;
  obs::configure(C);
  obs::clearEvents();
  obs::Registry::global().resetAll();
}

TEST(TelemetryTest, AlwaysOnServerIsMetricsOnly) {
  // A fresh server with no explicit obs configuration still records: the
  // always-on default switches the metrics layer on in the constructor —
  // but with event buffering off, so a long-lived server accumulates
  // histograms and counters, not an unbounded trace.
  resetObs(false);
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Server(SO);
  EXPECT_TRUE(obs::enabled());
  EXPECT_FALSE(obs::eventsEnabled());

  ASSERT_TRUE(
      Server.compileText("(gma m1 (assign r (add64 a b)))").Result.ok());
  ASSERT_TRUE(
      Server.compileText("(gma m2 (assign r (sub64 a b)))").Result.ok());

  EXPECT_TRUE(obs::collectEvents().empty());

  // Metrics flow regardless: live latency windows, span-duration
  // histograms, and the per-backend compile counter all saw both requests
  // (two distinct skeletons: both cold).
  auto &Reg = obs::Registry::global();
  EXPECT_EQ(Reg.windowed("server.win.request.us").snapshot().Count, 2u);
  EXPECT_EQ(Reg.windowed("server.win.request.cold.us").snapshot().Count, 2u);
  EXPECT_EQ(Reg.histogram("span.server.request.us").count(), 2u);
  EXPECT_EQ(Reg.counterValue("driver.compile.alpha"), 2u);
}

TEST(TelemetryTest, TracingServerStampsRequestIdsOnSpans) {
  // When obs is configured with event buffering (the tracing default), the
  // server leaves the configuration alone and every span lands in the
  // shared trace stamped with its request id.
  resetObs(true);
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  CompileServer Server(SO);
  EXPECT_TRUE(obs::eventsEnabled());

  ASSERT_TRUE(
      Server.compileText("(gma t1 (assign r (add64 a b)))").Result.ok());
  ASSERT_TRUE(
      Server.compileText("(gma t2 (assign r (sub64 a b)))").Result.ok());

  std::vector<obs::Event> Events = obs::collectEvents();
  std::vector<const obs::Event *> ReqSpans;
  for (const obs::Event &E : Events)
    if (E.Kind == obs::EventKind::Span &&
        std::string(E.Name) == "server.request")
      ReqSpans.push_back(&E);
  ASSERT_EQ(ReqSpans.size(), 2u);
  EXPECT_NE(ReqSpans[0]->Req, 0u);
  EXPECT_NE(ReqSpans[1]->Req, 0u);
  EXPECT_NE(ReqSpans[0]->Req, ReqSpans[1]->Req);

  // Every pipeline span nested under a request carries that request's id,
  // so one request's stage breakdown is extractable from the shared trace.
  std::set<uint64_t> Ids{ReqSpans[0]->Req, ReqSpans[1]->Req};
  unsigned Nested = 0;
  for (const obs::Event &E : Events)
    if (E.Kind == obs::EventKind::Span &&
        (std::string(E.Name) == "search" ||
         std::string(E.Name) == "match.saturate")) {
      ++Nested;
      EXPECT_TRUE(Ids.count(E.Req)) << E.Name << " req " << E.Req;
    }
  EXPECT_GE(Nested, 2u);

  // The live latency windows saw both requests (two distinct skeletons:
  // both cold).
  auto &Reg = obs::Registry::global();
  EXPECT_EQ(Reg.windowed("server.win.request.us").snapshot().Count, 2u);
  EXPECT_EQ(Reg.windowed("server.win.request.cold.us").snapshot().Count, 2u);
  EXPECT_EQ(Reg.counterValue("driver.compile.alpha"), 2u);
}

TEST(TelemetryTest, ObsOffServerRecordsNoEventsOrWindows) {
  resetObs(false);
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  SO.Telemetry = false;
  CompileServer Server(SO);
  EXPECT_FALSE(obs::enabled());
  ASSERT_TRUE(
      Server.compileText("(gma off (assign r (add64 a b)))").Result.ok());
  EXPECT_TRUE(obs::collectEvents().empty());
  EXPECT_EQ(
      obs::Registry::global().windowed("server.win.request.us").snapshot()
          .Count,
      0u);
}

TEST(TelemetryTest, SlowRequestsCountedAgainstThreshold) {
  resetObs(true);
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  SO.Threads = 1;
  SO.SlowMs = 1e-6; // Every real compile exceeds a nanosecond threshold.
  CompileServer Server(SO);
  ASSERT_TRUE(
      Server.compileText("(gma slow (assign r (add64 a b)))").Result.ok());
  EXPECT_EQ(Server.stats().SlowRequests, 1u);
  EXPECT_EQ(obs::Registry::global().counterValue("server.slow_requests"),
            1u);

  // An effectively-unreachable threshold counts nothing.
  ServerOptions Fast = SO;
  Fast.SlowMs = 1e9;
  CompileServer Quick(Fast);
  ASSERT_TRUE(
      Quick.compileText("(gma quick (assign r (sub64 a b)))").Result.ok());
  EXPECT_EQ(Quick.stats().SlowRequests, 0u);
}

TEST(TelemetryTest, ServeStatsFullRoundTrip) {
  resetObs(true);
  ServerOptions SO;
  SO.Pipeline = smallOptions();
  // One worker: sf1 must finish (and fill the cache) before its alpha
  // variant sf2 starts, so the hit/cold split below is deterministic.
  SO.Threads = 1;
  CompileServer Server(SO);
  std::istringstream In("(gma sf1 (assign r (add64 a b)))\n"
                        "(gma sf2 (assign s (add64 x y)))\n" // alpha of sf1
                        "(stats-full)\n"
                        "(quit)\n");
  std::ostringstream Out;
  EXPECT_EQ(Server.serve(In, Out), 0);

  std::vector<std::string> Lines;
  std::istringstream Split(Out.str());
  for (std::string L; std::getline(Split, L);)
    Lines.push_back(L);
  ASSERT_EQ(Lines.size(), 3u) << Out.str();
  // stats-full drains pending compiles first, so it answers last, on one
  // line, with the tier counters and the per-tier latency windows.
  const std::string &SF = Lines[2];
  EXPECT_EQ(SF.compare(0, 12, "(stats-full "), 0) << SF;
  EXPECT_EQ(SF.back(), ')') << SF;
  EXPECT_NE(SF.find(":requests 2"), std::string::npos) << SF;
  EXPECT_NE(SF.find(":cold 1"), std::string::npos) << SF;
  EXPECT_NE(SF.find(":hits 1"), std::string::npos) << SF;
  EXPECT_NE(SF.find(":queue-depth 0"), std::string::npos) << SF;
  EXPECT_NE(SF.find("(lat all :count 2"), std::string::npos) << SF;
  EXPECT_NE(SF.find("(lat cold :count 1"), std::string::npos) << SF;
  EXPECT_NE(SF.find("(lat hit :count 1"), std::string::npos) << SF;
  EXPECT_NE(SF.find(":p50-us "), std::string::npos) << SF;
  EXPECT_NE(SF.find(":window-s 60"), std::string::npos) << SF;
  // statsFullText() agrees with the protocol answer's shape.
  EXPECT_EQ(Server.statsFullText().compare(0, 12, "(stats-full "), 0);
}

TEST(TelemetryTest, BulkRequestsGetDistinctIdsAcrossPoolWorkers) {
  // compileBulk fans groups out to pool workers; every request must still
  // get its own id and feed the shared window exactly once. The TSan copy
  // of this test (server_tests_tsan) is the race gate for concurrent
  // WindowedHistogram record/snapshot.
  resetObs(true);
  std::vector<std::string> Texts;
  for (int I = 0; I < 4; ++I)
    Texts.push_back(strFormat("(gma b%d (assign r (add64 a %d)))", I,
                              100 + I));
  for (int I = 0; I < 4; ++I)
    Texts.push_back(strFormat("(gma b%dx (assign z (add64 q %d)))", I,
                              100 + I)); // Alpha variants: cache hits.
  {
    ServerOptions SO;
    SO.Pipeline = smallOptions();
    SO.Threads = 4;
    CompileServer Server(SO);
    std::vector<ServerResponse> Rs = Server.compileBulk(Texts);
    ASSERT_EQ(Rs.size(), Texts.size());
    for (const ServerResponse &R : Rs)
      ASSERT_TRUE(R.Result.ok()) << R.Result.Error;
  } // Join the pool: worker event chunks publish at thread exit.

  std::set<uint64_t> Ids;
  for (const obs::Event &E : obs::collectEvents())
    if (E.Kind == obs::EventKind::Span &&
        std::string(E.Name) == "server.request") {
      EXPECT_NE(E.Req, 0u);
      Ids.insert(E.Req);
    }
  EXPECT_EQ(Ids.size(), Texts.size());
  EXPECT_EQ(
      obs::Registry::global().windowed("server.win.request.us").snapshot()
          .Count,
      Texts.size());
}

TEST(TelemetryTest, ServerFlusherWritesSnapshotOnShutdown) {
  resetObs(true);
  const std::string Path = "server_flush_test.jsonl";
  std::remove(Path.c_str());
  std::remove((Path + ".1").c_str());
  {
    ServerOptions SO;
    SO.Pipeline = smallOptions();
    SO.Threads = 1;
    SO.MetricsFlushSec = 3600; // Interval never fires in-test...
    SO.MetricsFlushPath = Path;
    CompileServer Server(SO);
    ASSERT_TRUE(
        Server.compileText("(gma fl (assign r (add64 a b)))").Result.ok());
    EXPECT_GE(Server.metricsFlusher().flushCount(), 0u);
  } // ...the destructor's stop() still leaves one final line behind.
  std::ifstream In(Path);
  ASSERT_TRUE(In.good());
  std::string Line;
  ASSERT_TRUE(std::getline(In, Line));
  EXPECT_EQ(Line.front(), '{');
  EXPECT_EQ(Line.back(), '}');
  EXPECT_NE(Line.find("\"ts_ms\":"), std::string::npos);
  EXPECT_NE(Line.find("\"server.requests\":1"), std::string::npos) << Line;
  EXPECT_NE(Line.find("\"whists\":"), std::string::npos);
  std::remove(Path.c_str());
}

} // namespace
