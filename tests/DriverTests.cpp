//===- tests/DriverTests.cpp - end-to-end Superoptimizer tests ------------===//

#include "driver/Superoptimizer.h"
#include "sat/Dimacs.h"
#include "support/StringExtras.h"

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

using namespace denali;
using namespace denali::driver;

namespace {

/// The Figure 3 byteswap program for n bytes, in the prototype's
/// parenthesized syntax.
std::string byteswapSource(unsigned N) {
  std::string Body = "(\\var (r long 0)\n  (\\semi\n";
  for (unsigned I = 0; I < N; ++I)
    Body += "    (:= (r (\\storeb r " + std::to_string(I) +
            " (\\selectb a " + std::to_string(N - 1 - I) + "))))\n";
  Body += "    (:= (\\res r))))";
  return "(\\procdecl byteswap" + std::to_string(N) +
         " ((a long)) long\n  " + Body + ")";
}

TEST(Driver, Figure2Goal) {
  Superoptimizer Opt;
  ir::Context &Ctx = Opt.context();
  ir::TermId Goal = Ctx.Terms.makeBuiltin(
      ir::Builtin::Add64,
      {Ctx.Terms.makeBuiltin(ir::Builtin::Mul64,
                             {Ctx.Terms.makeVar("reg6"),
                              Ctx.Terms.makeConst(4)}),
       Ctx.Terms.makeConst(1)});
  GmaResult R = Opt.compileGoals("fig2", {{"reg6b", Goal}});
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Search.Cycles, 1u);
  EXPECT_EQ(R.Search.Program.Instrs.size(), 1u);
  EXPECT_EQ(R.Search.Program.Instrs[0].Mnemonic, "s4addq");
  EXPECT_EQ(Opt.verify(R), std::nullopt);
}

TEST(Driver, Byteswap4FiveCycles) {
  // E3: the paper's byteswap4 challenge compiles to a 5-cycle EV6 program
  // with a proved 4-cycle refutation.
  Superoptimizer Opt;
  Opt.options().Search.MaxCycles = 8;
  CompileResult R = Opt.compileSource(byteswapSource(4));
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Gmas.size(), 1u);
  const GmaResult &G = R.Gmas[0];
  ASSERT_TRUE(G.ok()) << G.Error;
  EXPECT_EQ(G.Search.Cycles, 5u);
  EXPECT_TRUE(G.Search.LowerBoundProved);
  EXPECT_EQ(Opt.verify(G), std::nullopt);
  // SAT problem sizes are reported per probe (the paper's table of 1639
  // vars / 4613 clauses etc.).
  for (const codegen::Probe &P : G.Search.Probes) {
    EXPECT_GT(P.Stats.Vars, 0);
    EXPECT_GT(P.Stats.Clauses, 0u);
  }
}

TEST(Driver, Byteswap2) {
  Superoptimizer Opt;
  CompileResult R = Opt.compileSource(byteswapSource(2));
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_TRUE(R.Gmas[0].ok()) << R.Gmas[0].Error;
  EXPECT_LE(R.Gmas[0].Search.Cycles, 4u);
  EXPECT_EQ(Opt.verify(R.Gmas[0]), std::nullopt);
}

TEST(Driver, ChecksumLoopBody) {
  // E5: the software-pipelined checksum loop body (Figure 6), with the
  // program's own add/carry axioms.
  const char *Source = R"(
(\opdecl carry (long long) long)
(\axiom (forall (a b) (pats (carry a b))
  (eq (carry a b) (\cmpult (\add64 a b) a))))
(\axiom (forall (a b) (pats (carry a b))
  (eq (carry a b) (\cmpult (\add64 a b) b))))
(\opdecl add (long long) long)
(\axiom (forall (a b) (pats (add a b))
  (eq (add a b) (\add64 (\add64 a b) (carry a b)))))
(\procdecl checksum_loop ((ptr (\ref long)) (ptrend (\ref long))
                          (sum1 long) (sum2 long)
                          (v1 long) (v2 long)) long
  (\do (-> (\cmpult ptr ptrend)
    (\semi
      (:= (sum1 (add sum1 v1)) (sum2 (add sum2 v2)))
      (:= (ptr (+ ptr 16)))
      (:= (v1 (\deref ptr)))
      (:= (v2 (\deref (+ ptr 8))))))))
)";
  Superoptimizer Opt;
  Opt.options().Search.MaxCycles = 12;
  CompileResult R = Opt.compileSource(Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_EQ(R.Gmas.size(), 1u);
  const GmaResult &G = R.Gmas[0];
  ASSERT_TRUE(G.ok()) << G.Error;
  // The ones-complement add expands to addq/cmpult/addq; loads fold their
  // displacement. Verification exercises the declared-op definitions.
  EXPECT_EQ(Opt.verify(G), std::nullopt);
  EXPECT_LE(G.Search.Cycles, 8u);
  // Displacement folding: no explicit address adds for the +8 load.
  bool SawDisp = false;
  for (const machine::Instruction &I : G.Search.Program.Instrs)
    SawDisp |= I.Mem == machine::MemKind::Load && I.Disp != 0;
  EXPECT_TRUE(SawDisp);
}

TEST(Driver, CopyLoopWithStore) {
  // The section 3 example: p < r -> (*p, p, q) := (*q, p+8, q+8).
  const char *Source = R"(
(\procdecl copystep ((p (\ref long)) (q (\ref long)) (r (\ref long))) long
  (\do (-> (\cmpult p r)
    (\semi
      (:= ((\deref p) (\deref q)))
      (:= (p (+ p 8)) (q (+ q 8)))))))
)";
  Superoptimizer Opt;
  Opt.options().Search.MaxCycles = 12;
  CompileResult R = Opt.compileSource(Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  const GmaResult &G = R.Gmas[0];
  ASSERT_TRUE(G.ok()) << G.Error;
  EXPECT_EQ(Opt.verify(G), std::nullopt);
  bool SawLoad = false, SawStore = false;
  for (const machine::Instruction &I : G.Search.Program.Instrs) {
    SawLoad |= I.Mem == machine::MemKind::Load;
    SawStore |= I.Mem == machine::MemKind::Store;
  }
  EXPECT_TRUE(SawLoad);
  EXPECT_TRUE(SawStore);
}

TEST(Driver, MissAnnotationLengthensSchedule) {
  const char *Hit = R"(
(\procdecl f ((p (\ref long))) long (:= (\res (\deref p))))
)";
  const char *Miss = R"(
(\procdecl f ((p (\ref long))) long (:= (\res (\deref p \miss))))
)";
  Superoptimizer OptHit;
  OptHit.options().Search.MaxCycles = 20;
  CompileResult RHit = OptHit.compileSource(Hit);
  ASSERT_TRUE(RHit.ok() && RHit.Gmas[0].ok());
  Superoptimizer OptMiss;
  OptMiss.options().Search.MaxCycles = 20;
  CompileResult RMiss = OptMiss.compileSource(Miss);
  ASSERT_TRUE(RMiss.ok() && RMiss.Gmas[0].ok());
  EXPECT_EQ(RHit.Gmas[0].Search.Cycles, OptHit.isa().loadHitLatency());
  EXPECT_EQ(RMiss.Gmas[0].Search.Cycles, OptMiss.isa().loadMissLatency());
}

TEST(Driver, RowopExample) {
  // E8: a matrix row operation row[j] += k * row0[j] (one element).
  const char *Source = R"(
(\procdecl rowop ((row (\ref long)) (row0 (\ref long)) (k long)) long
  (:= ((\deref row) (\add64 (\deref row) (\mul64 k (\deref row0))))))
)";
  Superoptimizer Opt;
  Opt.options().Search.MaxCycles = 16;
  CompileResult R = Opt.compileSource(Source);
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_TRUE(R.Gmas[0].ok()) << R.Gmas[0].Error;
  EXPECT_EQ(Opt.verify(R.Gmas[0]), std::nullopt);
  // Loads (3) + multiply (7) + add + store: at least 11 cycles.
  EXPECT_GE(R.Gmas[0].Search.Cycles, 11u);
}

TEST(Driver, Lcp2Example) {
  // E8: "least common power of two" — the largest power of two dividing
  // both registers: isolate the lowest set bit of a | b.
  Superoptimizer Opt;
  ir::Context &Ctx = Opt.context();
  ir::TermId AB = Ctx.Terms.makeBuiltin(
      ir::Builtin::Or64, {Ctx.Terms.makeVar("a"), Ctx.Terms.makeVar("b")});
  ir::TermId Goal = Ctx.Terms.makeBuiltin(
      ir::Builtin::And64, {AB, Ctx.Terms.makeBuiltin(ir::Builtin::Neg64, {AB})});
  GmaResult R = Opt.compileGoals("lcp2", {{"res", Goal}});
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(Opt.verify(R), std::nullopt);
  EXPECT_LE(R.Search.Cycles, 3u);
}

TEST(Driver, GuardEnforcedForLoopLoads) {
  const char *Source = R"(
(\procdecl f ((p (\ref long)) (r (\ref long)) (s long)) long
  (\do (-> (\cmpult p r)
    (\semi (:= (s (\add64 s (\deref p)))) (:= (p (+ p 8)))))))
)";
  Superoptimizer Opt;
  CompileResult R = Opt.compileSource(Source);
  ASSERT_TRUE(R.ok() && R.Gmas[0].ok()) << R.Error << R.Gmas[0].Error;
  // The guard compare must complete before any load issues.
  unsigned GuardDone = 0;
  for (const machine::Instruction &I : R.Gmas[0].Search.Program.Instrs)
    if (I.Mnemonic == "cmpult" && !I.Unused)
      GuardDone = std::max(GuardDone, I.Cycle + I.Latency);
  for (const machine::Instruction &I : R.Gmas[0].Search.Program.Instrs)
    if (I.Mem == machine::MemKind::Load) {
      EXPECT_GE(I.Cycle, 1u);
    }
  // Disabling enforcement can only shorten the schedule.
  Superoptimizer Opt2;
  Opt2.options().EnforceGuard = false;
  CompileResult R2 = Opt2.compileSource(Source);
  ASSERT_TRUE(R2.ok() && R2.Gmas[0].ok());
  EXPECT_LE(R2.Gmas[0].Search.Cycles, R.Gmas[0].Search.Cycles);
}

TEST(Driver, FrontendErrorsPropagate) {
  Superoptimizer Opt;
  CompileResult R = Opt.compileSource("(\\procdecl broken)");
  EXPECT_FALSE(R.ok());
  EXPECT_FALSE(R.Error.empty());
}

TEST(Driver, BadAxiomPropagates) {
  Superoptimizer Opt;
  CompileResult R = Opt.compileSource(R"(
    (\axiom (forall (x) (eq (\frob x) x)))
    (\procdecl f ((x long)) long (:= (\res x)))
  )");
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find("unknown operator"), std::string::npos);
}

TEST(Driver, AddAxiomsTextGroundFact) {
  // A \trust-style assumption: reg7 is known to be zero, so x + reg7 is
  // just x (zero cycles).
  Superoptimizer Opt;
  ir::Context &Ctx = Opt.context();
  std::string Err;
  ASSERT_TRUE(Opt.addAxiomsText(R"((\axiom (eq reg7 0)))", &Err)) << Err;
  ir::TermId Goal = Ctx.Terms.makeBuiltin(
      ir::Builtin::Add64,
      {Ctx.Terms.makeVar("x"), Ctx.Terms.makeVar("reg7")});
  GmaResult R = Opt.compileGoals("trust", {{"res", Goal}});
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Search.Cycles, 0u);
}

TEST(Driver, VerifyCatchesNothingOnGoodPrograms) {
  // Verification over many trials on a multi-output GMA.
  Superoptimizer Opt;
  ir::Context &Ctx = Opt.context();
  ir::TermId A = Ctx.Terms.makeVar("a");
  ir::TermId B = Ctx.Terms.makeVar("b");
  GmaResult R = Opt.compileGoals(
      "multi",
      {{"s", Ctx.Terms.makeBuiltin(ir::Builtin::Add64, {A, B})},
       {"d", Ctx.Terms.makeBuiltin(ir::Builtin::Sub64, {A, B})},
       {"x", Ctx.Terms.makeBuiltin(ir::Builtin::Xor64, {A, B})}});
  ASSERT_TRUE(R.ok()) << R.Error;
  EXPECT_EQ(R.Search.Cycles, 1u); // All three issue in one quad-issue cycle.
  EXPECT_EQ(Opt.verify(R, 32), std::nullopt);
}

} // namespace

namespace {

TEST(Driver, CheckMachineNameAcceptsRegisteredMachines) {
  // Both command-line tools check --machine here before they build a
  // pipeline; the built-in backends need no prior registration.
  EXPECT_EQ(checkMachineName("alpha"), std::nullopt);
  EXPECT_EQ(checkMachineName("rv64"), std::nullopt);
}

TEST(Driver, CheckMachineNameListsTheKnownMachines) {
  EXPECT_EQ(checkMachineName("vax"),
            "unknown machine 'vax' (known: alpha, rv64)");
  EXPECT_EQ(checkMachineName("Alpha"),
            "unknown machine 'Alpha' (known: alpha, rv64)");
  EXPECT_EQ(checkMachineName(""), "unknown machine '' (known: alpha, rv64)");
}

TEST(Driver, CnfDumpWritesFiles) {
  driver::Options Opts;
  Opts.Search.DumpCnfDir = ::testing::TempDir();
  driver::Superoptimizer Opt(Opts);
  ir::Context &Ctx = Opt.context();
  ir::TermId Goal = Ctx.Terms.makeBuiltin(
      ir::Builtin::Add64, {Ctx.Terms.makeVar("x"), Ctx.Terms.makeConst(5)});
  driver::GmaResult R = Opt.compileGoals("dump", {{"res", Goal}});
  ASSERT_TRUE(R.ok()) << R.Error;
  std::string Path = ::testing::TempDir() + "/dump.K1.cnf";
  FILE *F = std::fopen(Path.c_str(), "r");
  ASSERT_NE(F, nullptr) << "expected " << Path;
  char Header[6] = {};
  ASSERT_EQ(std::fread(Header, 1, 5, F), 5u);
  std::fclose(F);
  EXPECT_EQ(std::string(Header), "p cnf");
}

TEST(Driver, CnfDumpsAreTheLadderAsAdded) {
  // Each probe's dump holds the clauses added to the ladder so far plus the
  // budget assumption as a unit, and an independent solver gives the
  // probe's own answer on it.
  driver::Options Opts;
  Opts.Search.DumpCnfDir = ::testing::TempDir();
  driver::Superoptimizer Opt(Opts);
  ir::Context &Ctx = Opt.context();
  ir::TermId X = Ctx.Terms.makeVar("x");
  ir::TermId Goal = Ctx.Terms.makeBuiltin(
      ir::Builtin::Add64,
      {Ctx.Terms.makeBuiltin(ir::Builtin::Mul64, {X, Ctx.Terms.makeVar("y")}),
       Ctx.Terms.makeConst(100000)});
  driver::GmaResult R = Opt.compileGoals("ladder", {{"res", Goal}});
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_GE(R.Search.Probes.size(), 2u);
  uint64_t Added = 0;
  for (const codegen::Probe &P : R.Search.Probes) {
    Added += P.Stats.Clauses;
    std::string Path = strFormat("%s/ladder.K%u.cnf",
                                 ::testing::TempDir().c_str(), P.Cycles);
    std::ifstream In(Path);
    ASSERT_TRUE(In) << "expected " << Path;
    std::stringstream Text;
    Text << In.rdbuf();
    sat::Cnf F;
    std::string Err;
    ASSERT_TRUE(sat::parseDimacs(Text.str(), F, &Err)) << Err;
    EXPECT_EQ(F.Clauses.size(), Added + 1) << Path;
    sat::Solver S;
    F.loadInto(S);
    EXPECT_EQ(S.solve(), P.Result) << Path;
  }
}

TEST(Driver, ReferenceCnfDumpsAreWholeInstances) {
  // Under FreshPerK every probe solves a new instance with all K layers,
  // so its dump holds exactly the clauses that probe added plus the budget
  // assumption, and an independent solver gives the probe's own answer.
  driver::Options Opts;
  Opts.Search.DumpCnfDir = ::testing::TempDir();
  Opts.Search.FreshPerK = true;
  driver::Superoptimizer Opt(Opts);
  ir::Context &Ctx = Opt.context();
  ir::TermId X = Ctx.Terms.makeVar("x");
  ir::TermId Goal = Ctx.Terms.makeBuiltin(
      ir::Builtin::Add64,
      {Ctx.Terms.makeBuiltin(ir::Builtin::Mul64, {X, Ctx.Terms.makeVar("y")}),
       Ctx.Terms.makeConst(100000)});
  driver::GmaResult R = Opt.compileGoals("fresh", {{"res", Goal}});
  ASSERT_TRUE(R.ok()) << R.Error;
  ASSERT_GE(R.Search.Probes.size(), 2u);
  for (const codegen::Probe &P : R.Search.Probes) {
    EXPECT_EQ(P.Stats.Layers, P.Cycles);
    std::string Path = strFormat("%s/fresh.K%u.cnf",
                                 ::testing::TempDir().c_str(), P.Cycles);
    std::ifstream In(Path);
    ASSERT_TRUE(In) << "expected " << Path;
    std::stringstream Text;
    Text << In.rdbuf();
    sat::Cnf F;
    std::string Err;
    ASSERT_TRUE(sat::parseDimacs(Text.str(), F, &Err)) << Err;
    EXPECT_EQ(F.Clauses.size(), P.Stats.Clauses + 1) << Path;
    sat::Solver S;
    F.loadInto(S);
    EXPECT_EQ(S.solve(), P.Result) << Path;
  }
}

TEST(Driver, UnwritableCnfDumpIsAnError) {
  // A dump into a directory that does not exist fails the compile with an
  // error naming the file, instead of silently writing nothing.
  driver::Options Opts;
  Opts.Search.DumpCnfDir = ::testing::TempDir() + "/no-such-dir";
  driver::Superoptimizer Opt(Opts);
  ir::Context &Ctx = Opt.context();
  ir::TermId Goal = Ctx.Terms.makeBuiltin(
      ir::Builtin::Add64, {Ctx.Terms.makeVar("x"), Ctx.Terms.makeConst(3)});
  driver::GmaResult R = Opt.compileGoals("nodump", {{"res", Goal}});
  EXPECT_FALSE(R.ok());
  EXPECT_NE(R.Error.find(Opts.Search.DumpCnfDir + "/nodump.K1.cnf"),
            std::string::npos)
      << R.Error;
}

} // namespace
