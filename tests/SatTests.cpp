//===- tests/SatTests.cpp - CDCL solver unit & property tests -------------===//

#include "sat/Dimacs.h"
#include "sat/Encodings.h"
#include "sat/Solver.h"

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <random>
#include <thread>

using namespace denali;
using namespace denali::sat;

namespace {

Lit P(Solver &S, int V) {
  while (S.numVars() <= V)
    S.newVar();
  return Lit::pos(V);
}
Lit N(Solver &S, int V) { return ~P(S, V); }

TEST(Solver, TrivialSat) {
  Solver S;
  S.addClause(P(S, 0));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(0));
}

TEST(Solver, TrivialUnsat) {
  Solver S;
  S.addClause(P(S, 0));
  EXPECT_FALSE(S.addClause(N(S, 0)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, EmptyClauseUnsat) {
  Solver S;
  EXPECT_FALSE(S.addClause(ClauseLits{}));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, NoClausesSat) {
  Solver S;
  S.newVar();
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(Solver, TautologyIgnored) {
  Solver S;
  S.addClause(ClauseLits{P(S, 0), N(S, 0)});
  S.addClause(N(S, 0));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_FALSE(S.modelValue(0));
}

TEST(Solver, DuplicateLiteralsNormalized) {
  Solver S;
  S.addClause(ClauseLits{P(S, 0), P(S, 0), P(S, 0)});
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(0));
}

TEST(Solver, UnitChain) {
  // x0 & (x0->x1) & (x1->x2) ... forces a long implication chain.
  Solver S;
  S.addClause(P(S, 0));
  for (int I = 0; I < 50; ++I)
    S.addClause(N(S, I), P(S, I + 1));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  for (int I = 0; I <= 50; ++I)
    EXPECT_TRUE(S.modelValue(I)) << "var " << I;
}

TEST(Solver, ImplicationChainUnsat) {
  Solver S;
  S.addClause(P(S, 0));
  for (int I = 0; I < 20; ++I)
    S.addClause(N(S, I), P(S, I + 1));
  S.addClause(N(S, 20));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, PigeonHole32) {
  // 3 pigeons, 2 holes: classic small UNSAT requiring real search.
  Solver S;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * 2 + Hole; };
  for (int Pigeon = 0; Pigeon < 3; ++Pigeon)
    S.addClause(P(S, VarOf(Pigeon, 0)), P(S, VarOf(Pigeon, 1)));
  for (int Hole = 0; Hole < 2; ++Hole)
    for (int P1 = 0; P1 < 3; ++P1)
      for (int P2 = P1 + 1; P2 < 3; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

TEST(Solver, PigeonHole54) {
  // 5 pigeons, 4 holes: forces clause learning through deeper search.
  Solver S;
  const int Holes = 4, Pigeons = 5;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().Conflicts, 0u);
}

TEST(Solver, XorChainSat) {
  // Parity constraints encoded as CNF over a chain; satisfiable.
  Solver S;
  const int Chain = 12;
  for (int I = 0; I < Chain; ++I) {
    // x(I) xor x(I+1) = aux(I), with aux all forced true.
    int A = I, B = I + 1, X = Chain + 1 + I;
    S.addClause(N(S, A), N(S, B), N(S, X));
    S.addClause(P(S, A), P(S, B), N(S, X));
    S.addClause(P(S, A), N(S, B), P(S, X));
    S.addClause(N(S, A), P(S, B), P(S, X));
    S.addClause(P(S, X));
  }
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  // Verify the parity relation in the model.
  for (int I = 0; I < Chain; ++I)
    EXPECT_NE(S.modelValue(I), S.modelValue(I + 1));
}

TEST(Solver, ConflictBudgetReturnsUnknown) {
  // A hard pigeonhole with a tiny budget must report Unknown.
  Solver S;
  const int Holes = 8, Pigeons = 9;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  S.setConflictBudget(5);
  EXPECT_EQ(S.solve(), SolveResult::Unknown);
}

//===----------------------------------------------------------------------===
// Incremental solving under assumptions.
//===----------------------------------------------------------------------===

TEST(Assumptions, SatAndUnsatOnOneSolver) {
  Solver S;
  S.addClause(P(S, 0), P(S, 1)); // x0 v x1
  EXPECT_EQ(S.solve({N(S, 0)}), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(1));
  EXPECT_EQ(S.solve({N(S, 0), N(S, 1)}), SolveResult::Unsat);
  // The same solver keeps working after an assumption refutation.
  EXPECT_EQ(S.solve({P(S, 0)}), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(0));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
}

TEST(Assumptions, FailedAssumptionSetIsRelevantSubset) {
  // x0 -> x1 -> x2; assuming {x0, ~x2, x3} fails because of x0 and ~x2
  // only — x3 is irrelevant and must not appear in the final conflict.
  Solver S;
  S.addClause(N(S, 0), P(S, 1));
  S.addClause(N(S, 1), P(S, 2));
  (void)P(S, 3);
  ASSERT_EQ(S.solve({Lit::pos(0), Lit::neg(2), Lit::pos(3)}),
            SolveResult::Unsat);
  const ClauseLits &Conflict = S.conflict();
  ASSERT_FALSE(Conflict.empty());
  for (Lit L : Conflict) {
    // Every literal is the negation of a responsible assumption.
    EXPECT_TRUE(L == Lit::neg(0) || L == Lit::pos(2));
  }
  // Both responsible assumptions are reported.
  EXPECT_EQ(Conflict.size(), 2u);
}

TEST(Assumptions, ContradictoryAssumptions) {
  Solver S;
  (void)P(S, 0);
  EXPECT_EQ(S.solve({Lit::pos(0), Lit::neg(0)}), SolveResult::Unsat);
  for (Lit L : S.conflict())
    EXPECT_EQ(L.var(), 0);
}

TEST(Assumptions, RepeatedSolvesKeepModels) {
  // An 8-var ring of implications; assumptions flip the whole ring.
  Solver S;
  const int NumVars = 8;
  for (int I = 0; I < NumVars; ++I) {
    S.addClause(N(S, I), P(S, (I + 1) % NumVars));
    S.addClause(P(S, I), N(S, (I + 1) % NumVars));
  }
  for (int Round = 0; Round < 4; ++Round) {
    bool Phase = Round & 1;
    ASSERT_EQ(S.solve({Lit(0, /*Negative=*/!Phase)}), SolveResult::Sat);
    for (int I = 0; I < NumVars; ++I)
      EXPECT_EQ(S.modelValue(I), Phase) << "round " << Round << " var " << I;
  }
  EXPECT_EQ(S.solve({Lit::pos(0), Lit::neg(4)}), SolveResult::Unsat);
}

TEST(Assumptions, AddClausesBetweenSolves) {
  Solver S;
  S.addClause(P(S, 0), P(S, 1), P(S, 2));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  S.addClause(N(S, 0));
  ASSERT_EQ(S.solve({Lit::neg(1)}), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(2));
  S.addClause(N(S, 2));
  EXPECT_EQ(S.solve({Lit::neg(1)}), SolveResult::Unsat);
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(1));
}

TEST(Assumptions, ConflictBudgetIsPerCall) {
  // A hard pigeonhole: each tiny-budget call must give up on its own
  // budget (the counter resets per call, it is not a lifetime cap), and
  // an unlimited call on the same solver still finishes the refutation.
  Solver S;
  const int Holes = 8, Pigeons = 9;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  S.setConflictBudget(5);
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 0))}), SolveResult::Unknown);
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 1))}), SolveResult::Unknown);
  S.setConflictBudget(0);
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 0))}), SolveResult::Unsat);
}

TEST(Assumptions, InterruptWindsDownSolve) {
  Solver S;
  const int Holes = 8, Pigeons = 9;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  std::atomic<bool> Cancel(true); // Cancelled before the call even starts.
  S.setInterrupt(&Cancel);
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 0))}), SolveResult::Unknown);
  EXPECT_TRUE(S.interrupted());
  Cancel = false;
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 0))}), SolveResult::Unsat);
  EXPECT_FALSE(S.interrupted());
}

TEST(SolverInterrupt, PreSetInterruptStopsBeforeAnyConflict) {
  // With the flag already raised, the very first poll observes it: the
  // solve must return Unknown with zero post-interrupt conflicts.
  Solver S;
  std::mt19937_64 Rng(7);
  constexpr int NumVars = 40;
  for (int I = 0; I < NumVars; ++I)
    S.newVar();
  for (int I = 0; I < 120; ++I) {
    ClauseLits C;
    for (int J = 0; J < 3; ++J)
      C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
    S.addClause(C);
  }
  std::atomic<bool> Stop{true};
  S.setInterrupt(&Stop);
  EXPECT_EQ(S.solve(), SolveResult::Unknown);
  EXPECT_TRUE(S.interrupted());
  EXPECT_EQ(S.conflictsAfterInterrupt(), 0u);

  // Lowering the flag lets the same solver finish normally.
  Stop.store(false);
  EXPECT_NE(S.solve(), SolveResult::Unknown);
  EXPECT_FALSE(S.interrupted());
}

TEST(SolverInterrupt, MidSolveInterruptStopsWithinOneConflict) {
  // Pigeonhole 10-into-9 takes far longer to refute than the interrupter
  // waits, so the flag rises mid-search, from a second thread. The solver
  // polls it at every conflict, decision and restart boundary, so at most
  // one conflict follows the last poll that read false.
  Solver S;
  const int Holes = 9, Pigeons = 10;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  std::atomic<bool> Stop{false};
  S.setInterrupt(&Stop);
  std::thread Interrupter([&Stop] {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
    Stop.store(true);
  });
  SolveResult R = S.solve();
  Interrupter.join();
  EXPECT_EQ(R, SolveResult::Unknown);
  EXPECT_TRUE(S.interrupted());
  EXPECT_GT(S.stats().Conflicts, 0u);
  EXPECT_LE(S.conflictsAfterInterrupt(), 1u);

  // Lowering the flag lets the same solver finish: with three pigeons
  // pinned to their own holes, what is left is pigeonhole 7-into-6.
  Stop.store(false);
  EXPECT_EQ(S.solve({Lit::pos(VarOf(0, 0)), Lit::pos(VarOf(1, 1)),
                     Lit::pos(VarOf(2, 2))}),
            SolveResult::Unsat);
  EXPECT_FALSE(S.interrupted());
}

TEST(Solver, ArenaCompactionKeepsRefutation) {
  // Pigeonhole 9-into-8 takes ~17k conflicts, enough for reduceDB to free
  // learnt clauses worth more than a third of the arena several times —
  // each time the arena is compacted in place (watcher and reason cross
  // references remapped) and the refutation must still come out.
  Solver S;
  const int Holes = 8, Pigeons = 9;
  auto VarOf = [&](int Pigeon, int Hole) { return Pigeon * Holes + Hole; };
  for (int Pigeon = 0; Pigeon < Pigeons; ++Pigeon) {
    ClauseLits Row;
    for (int Hole = 0; Hole < Holes; ++Hole)
      Row.push_back(P(S, VarOf(Pigeon, Hole)));
    S.addClause(Row);
  }
  for (int Hole = 0; Hole < Holes; ++Hole)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2)
        S.addClause(N(S, VarOf(P1, Hole)), N(S, VarOf(P2, Hole)));
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
  EXPECT_GT(S.stats().ArenaCollections, 0u);
  EXPECT_GT(S.stats().ArenaWordsReclaimed, 0u);
}

TEST(Assumptions, AgreesWithFreshSolverOnRandomCnf) {
  // Property: solve(assumptions) equals a fresh solve of CNF + assumption
  // units, across a ladder of assumption sets on one long-lived solver.
  for (unsigned Seed = 0; Seed < 20; ++Seed) {
    std::mt19937 Rng(Seed * 7919 + 13);
    const int NumVars = 12;
    const int NumClauses = 51;
    std::vector<ClauseLits> Clauses;
    for (int I = 0; I < NumClauses; ++I) {
      ClauseLits C;
      for (int J = 0; J < 3; ++J)
        C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
      Clauses.push_back(C);
    }
    Solver Inc;
    for (int I = 0; I < NumVars; ++I)
      Inc.newVar();
    for (const ClauseLits &C : Clauses)
      Inc.addClause(C);
    for (int Probe = 0; Probe < 6; ++Probe) {
      std::vector<Lit> Assumptions;
      for (int J = 0; J < 1 + Probe % 3; ++J)
        Assumptions.push_back(
            Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
      Solver Fresh;
      for (int I = 0; I < NumVars; ++I)
        Fresh.newVar();
      for (const ClauseLits &C : Clauses)
        Fresh.addClause(C);
      for (Lit A : Assumptions)
        Fresh.addClause(A);
      EXPECT_EQ(Inc.solve(Assumptions), Fresh.solve())
          << "seed " << Seed << " probe " << Probe;
    }
  }
}

//===----------------------------------------------------------------------===
// Model validity: every Sat answer must actually satisfy all clauses.
//===----------------------------------------------------------------------===

bool modelSatisfies(const Solver &S, const std::vector<ClauseLits> &Clauses) {
  for (const ClauseLits &C : Clauses) {
    bool Any = false;
    for (Lit L : C)
      Any |= S.modelValue(L);
    if (!Any)
      return false;
  }
  return true;
}

/// Brute-force SAT check for up to ~20 variables.
bool bruteForceSat(int NumVars, const std::vector<ClauseLits> &Clauses) {
  for (uint64_t Mask = 0; Mask < (1ULL << NumVars); ++Mask) {
    bool AllSat = true;
    for (const ClauseLits &C : Clauses) {
      bool Any = false;
      for (Lit L : C) {
        bool V = (Mask >> L.var()) & 1;
        Any |= L.negative() ? !V : V;
      }
      if (!Any) {
        AllSat = false;
        break;
      }
    }
    if (AllSat)
      return true;
  }
  return false;
}

class RandomCnf : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomCnf, AgreesWithBruteForce) {
  std::mt19937 Rng(GetParam() * 7919 + 13);
  const int NumVars = 12;
  // Near the 3-SAT phase transition (~4.26 clauses/var) both outcomes occur.
  const int NumClauses = 51;
  std::vector<ClauseLits> Clauses;
  for (int I = 0; I < NumClauses; ++I) {
    ClauseLits C;
    for (int J = 0; J < 3; ++J)
      C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
    Clauses.push_back(C);
  }
  Solver S;
  for (int I = 0; I < NumVars; ++I)
    S.newVar();
  for (const ClauseLits &C : Clauses)
    S.addClause(C);
  SolveResult R = S.solve();
  bool Expected = bruteForceSat(NumVars, Clauses);
  EXPECT_EQ(R, Expected ? SolveResult::Sat : SolveResult::Unsat);
  if (R == SolveResult::Sat) {
    EXPECT_TRUE(modelSatisfies(S, Clauses));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomCnf, ::testing::Range(0u, 40u));

//===----------------------------------------------------------------------===
// Cardinality encodings.
//===----------------------------------------------------------------------===

class AtMostOneTest
    : public ::testing::TestWithParam<std::tuple<int, AtMostOneStyle>> {};

TEST_P(AtMostOneTest, ForbidsPairsAllowsSingles) {
  auto [Width, Style] = GetParam();
  // Allowed: exactly one true (and none true).
  for (int True1 = -1; True1 < Width; ++True1) {
    Solver S;
    ClauseLits Group;
    for (int I = 0; I < Width; ++I)
      Group.push_back(P(S, I));
    addAtMostOne(S, Group, Style);
    for (int I = 0; I < Width; ++I)
      S.addClause(I == True1 ? P(S, I) : N(S, I));
    EXPECT_EQ(S.solve(), SolveResult::Sat) << "single " << True1;
  }
  // Forbidden: any pair.
  for (int A = 0; A < Width; ++A) {
    for (int B = A + 1; B < Width; ++B) {
      Solver S;
      ClauseLits Group;
      for (int I = 0; I < Width; ++I)
        Group.push_back(P(S, I));
      addAtMostOne(S, Group, Style);
      S.addClause(P(S, A));
      S.addClause(P(S, B));
      EXPECT_EQ(S.solve(), SolveResult::Unsat) << "pair " << A << "," << B;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AtMostOneTest,
    ::testing::Combine(::testing::Values(2, 3, 5, 9),
                       ::testing::Values(AtMostOneStyle::Pairwise,
                                         AtMostOneStyle::Ladder)));

TEST(Encodings, ExactlyOneRequiresOne) {
  Solver S;
  ClauseLits Group{P(S, 0), P(S, 1), P(S, 2)};
  addExactlyOne(S, Group);
  S.addClause(N(S, 0));
  S.addClause(N(S, 1));
  ASSERT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(2));
}

TEST(Encodings, AtMostKBoundary) {
  for (unsigned K = 1; K <= 3; ++K) {
    for (unsigned ForceTrue = 0; ForceTrue <= 5; ++ForceTrue) {
      Solver S;
      ClauseLits Group;
      for (int I = 0; I < 5; ++I)
        Group.push_back(P(S, I));
      addAtMostK(S, Group, K);
      for (unsigned I = 0; I < ForceTrue; ++I)
        S.addClause(P(S, static_cast<int>(I)));
      SolveResult R = S.solve();
      EXPECT_EQ(R, ForceTrue <= K ? SolveResult::Sat : SolveResult::Unsat)
          << "K=" << K << " forced=" << ForceTrue;
    }
  }
}

//===----------------------------------------------------------------------===
// DIMACS round trip.
//===----------------------------------------------------------------------===

TEST(Dimacs, RoundTrip) {
  Cnf F;
  F.NumVars = 3;
  F.Clauses = {{Lit::pos(0), Lit::neg(1)}, {Lit::pos(2)}};
  std::string Text = F.toDimacs();
  Cnf G;
  std::string Err;
  ASSERT_TRUE(parseDimacs(Text, G, &Err)) << Err;
  EXPECT_EQ(G.NumVars, 3);
  ASSERT_EQ(G.Clauses.size(), 2u);
  EXPECT_EQ(G.Clauses[0], F.Clauses[0]);
  EXPECT_EQ(G.Clauses[1], F.Clauses[1]);
}

TEST(Dimacs, ParseWithComments) {
  Cnf F;
  std::string Err;
  ASSERT_TRUE(parseDimacs("c comment\np cnf 2 2\n1 -2 0\n2 0\n", F, &Err));
  Solver S;
  EXPECT_TRUE(F.loadInto(S));
  EXPECT_EQ(S.solve(), SolveResult::Sat);
  EXPECT_TRUE(S.modelValue(1));
}

TEST(Dimacs, RejectsGarbage) {
  Cnf F;
  std::string Err;
  EXPECT_FALSE(parseDimacs("p dnf 1 1\n1 0\n", F, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(Dimacs, LoadUnsat) {
  Cnf F;
  std::string Err;
  ASSERT_TRUE(parseDimacs("p cnf 1 2\n1 0\n-1 0\n", F, &Err));
  Solver S;
  F.loadInto(S);
  EXPECT_EQ(S.solve(), SolveResult::Unsat);
}

} // namespace

TEST(Dimacs, ExportedProblemIsEquisatisfiable) {
  // Export through problemClauses and re-solve with a fresh solver; the
  // answers must agree (this is the paper's swap-the-solver workflow).
  std::mt19937 Rng(99);
  for (int Trial = 0; Trial < 10; ++Trial) {
    Solver S;
    const int NumVars = 10;
    for (int I = 0; I < NumVars; ++I)
      S.newVar();
    std::vector<ClauseLits> Clauses;
    for (int I = 0; I < 43; ++I) {
      ClauseLits C;
      for (int J = 0; J < 3; ++J)
        C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
      Clauses.push_back(C);
      S.addClause(C);
    }
    Cnf F;
    F.NumVars = S.numVars();
    F.Clauses = S.problemClauses();
    std::string Text = F.toDimacs();
    Cnf Parsed;
    std::string Err;
    ASSERT_TRUE(parseDimacs(Text, Parsed, &Err)) << Err;
    Solver S2;
    Parsed.loadInto(S2);
    EXPECT_EQ(S.solve(), S2.solve()) << "trial " << Trial;
  }
}

TEST(Dimacs, ProblemClausesLeaveOutLearntUnits) {
  // (a|b)(a|~b)(~a|b|c) solved under ~c: refuting ~a teaches the solver the
  // unit (a), which then sits on the level-0 trail like an added unit. It is
  // a lemma, not a problem clause; and (~a|c), added afterwards, is a
  // problem clause as added, whatever the solver stores for it.
  const Var A = 0, B = 1, C = 2;
  std::vector<ClauseLits> Formula = {{Lit::pos(A), Lit::pos(B)},
                                     {Lit::pos(A), Lit::neg(B)},
                                     {Lit::neg(A), Lit::pos(B), Lit::pos(C)}};
  for (bool Keep : {false, true}) {
    SCOPED_TRACE(Keep ? "clauses kept as added" : "simplified clauses");
    Solver S;
    for (int I = 0; I < 3; ++I)
      S.newVar();
    if (Keep)
      S.keepAddedClauses();
    for (const ClauseLits &Cl : Formula)
      S.addClause(Cl);
    ASSERT_EQ(S.solve({Lit::neg(C)}), SolveResult::Sat);
    EXPECT_TRUE(S.modelValue(A));
    ASSERT_GE(S.stats().LearntClauses + S.stats().Conflicts, 1u);
    S.addClause(Lit::neg(A), Lit::pos(C));
    std::vector<ClauseLits> Clauses = S.problemClauses();
    for (const ClauseLits &Cl : Clauses)
      EXPECT_NE(Cl, ClauseLits{Lit::pos(A)}) << "learnt unit listed";
    if (Keep) {
      std::vector<ClauseLits> Want = Formula;
      Want.push_back({Lit::neg(A), Lit::pos(C)});
      EXPECT_EQ(Clauses, Want);
    }
    EXPECT_EQ(S.numClauses(), 4u);
  }
}

TEST(Dimacs, ExportUnsatProblem) {
  Solver S;
  S.addClause(Lit::pos(S.newVar()));
  S.addClause(Lit::neg(0));
  auto Clauses = S.problemClauses();
  ASSERT_EQ(Clauses.size(), 1u);
  EXPECT_TRUE(Clauses[0].empty()); // The empty clause.
}

//===----------------------------------------------------------------------===
// Proof logging and RUP checking.
//===----------------------------------------------------------------------===

#include "sat/RupChecker.h"

namespace {

Cnf collectFormula(const std::vector<ClauseLits> &Clauses, int NumVars) {
  Cnf F;
  F.NumVars = NumVars;
  F.Clauses = Clauses;
  return F;
}

TEST(RupProof, PigeonholeCertified) {
  // Refute pigeonhole(5, 4) and check the proof independently.
  Solver S;
  const int Holes = 4, Pigeons = 5;
  std::vector<ClauseLits> Formula;
  auto VarOf = [&](int Pg, int H) { return Pg * Holes + H; };
  for (int I = 0; I < Pigeons * Holes; ++I)
    S.newVar();
  S.enableProofLogging();
  for (int Pg = 0; Pg < Pigeons; ++Pg) {
    ClauseLits Row;
    for (int H = 0; H < Holes; ++H)
      Row.push_back(Lit::pos(VarOf(Pg, H)));
    Formula.push_back(Row);
    S.addClause(Row);
  }
  for (int H = 0; H < Holes; ++H)
    for (int P1 = 0; P1 < Pigeons; ++P1)
      for (int P2 = P1 + 1; P2 < Pigeons; ++P2) {
        ClauseLits C{Lit::neg(VarOf(P1, H)), Lit::neg(VarOf(P2, H))};
        Formula.push_back(C);
        S.addClause(C);
      }
  ASSERT_EQ(S.solve(), SolveResult::Unsat);
  ASSERT_FALSE(S.proof().empty());
  EXPECT_TRUE(S.proof().back().empty());
  std::string Err;
  EXPECT_TRUE(checkRupProof(collectFormula(Formula, S.numVars()), S.proof(),
                            &Err))
      << Err;
}

TEST(RupProof, TamperedProofRejected) {
  Solver S;
  std::vector<ClauseLits> Formula;
  for (int I = 0; I < 6; ++I)
    S.newVar();
  S.enableProofLogging();
  // An unsatisfiable chain: x0, x_i -> x_{i+1}, ~x5.
  auto add = [&](ClauseLits C) {
    Formula.push_back(C);
    S.addClause(C);
  };
  add({Lit::pos(0)});
  for (int I = 0; I < 5; ++I)
    add({Lit::neg(I), Lit::pos(I + 1)});
  add({Lit::neg(5)});
  ASSERT_EQ(S.solve(), SolveResult::Unsat);
  // The genuine proof checks...
  std::string Err;
  EXPECT_TRUE(checkRupProof(collectFormula(Formula, 6), S.proof(), &Err))
      << Err;
  // ...a fabricated lemma does not.
  std::vector<ClauseLits> Tampered = {{Lit::pos(3), Lit::pos(4)},
                                      ClauseLits{}};
  Cnf Satisfiable;
  Satisfiable.NumVars = 6;
  Satisfiable.Clauses = {{Lit::pos(0), Lit::pos(1)}};
  EXPECT_FALSE(checkRupProof(Satisfiable, Tampered, &Err));
  EXPECT_FALSE(Err.empty());
}

TEST(RupProof, MissingEmptyClauseRejected) {
  Cnf F;
  F.NumVars = 2;
  F.Clauses = {{Lit::pos(0)}, {Lit::neg(0), Lit::pos(1)}};
  std::vector<ClauseLits> Proof = {{Lit::pos(1)}}; // Valid RUP, no bottom.
  std::string Err;
  EXPECT_FALSE(checkRupProof(F, Proof, &Err));
  EXPECT_NE(Err.find("empty clause"), std::string::npos);
}

TEST(RupProof, CertificateRestsOnClausesAsAdded) {
  // The incremental pattern of the budget ladder: solve under an
  // assumption, add clauses, solve again. The solver learns (a) on the
  // first call and stores (~a|c) as the unit (c); the refutation of ~c on
  // the second call must still check against the clauses as added plus the
  // assumption unit, with (a) left for the checker to derive.
  Solver S;
  for (int I = 0; I < 3; ++I)
    S.newVar();
  S.enableProofLogging();
  const Lit A = Lit::pos(0), B = Lit::pos(1), C = Lit::pos(2);
  std::vector<ClauseLits> Formula = {{A, B}, {A, ~B}, {~A, B, C}};
  for (const ClauseLits &Cl : Formula)
    S.addClause(Cl);
  ASSERT_EQ(S.solve({~C}), SolveResult::Sat);
  Formula.push_back({~A, C});
  S.addClause(Formula.back());
  ASSERT_EQ(S.solve({~C}), SolveResult::Unsat);
  EXPECT_EQ(S.problemClauses(), Formula);

  Cnf F = collectFormula(S.problemClauses(), S.numVars());
  F.Clauses.push_back({~C});
  std::vector<ClauseLits> Proof = S.proof();
  Proof.push_back(ClauseLits{});
  std::string Err;
  EXPECT_TRUE(checkRupProof(F, Proof, &Err)) << Err;
  // Without the assumption unit the formula is satisfiable: no proof of it
  // may check.
  F.Clauses.pop_back();
  EXPECT_FALSE(checkRupProof(F, Proof, &Err));
}

TEST(RupProof, TrivialUnsatAtAddTime) {
  Solver S;
  S.newVar();
  S.enableProofLogging();
  std::vector<ClauseLits> Formula = {{Lit::pos(0)}, {Lit::neg(0)}};
  for (const ClauseLits &C : Formula)
    S.addClause(C);
  ASSERT_EQ(S.solve(), SolveResult::Unsat);
  std::string Err;
  EXPECT_TRUE(checkRupProof(collectFormula(Formula, 1), S.proof(), &Err))
      << Err;
}

class RandomUnsatProofs : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomUnsatProofs, AllCertified) {
  // Random over-constrained 3-SAT instances: every Unsat answer must come
  // with a checkable proof.
  std::mt19937 Rng(GetParam() * 7717 + 3);
  const int NumVars = 10;
  const int NumClauses = 70; // Far past the phase transition.
  Solver S;
  for (int I = 0; I < NumVars; ++I)
    S.newVar();
  S.enableProofLogging();
  std::vector<ClauseLits> Formula;
  for (int I = 0; I < NumClauses; ++I) {
    ClauseLits C;
    for (int J = 0; J < 3; ++J)
      C.push_back(Lit(static_cast<Var>(Rng() % NumVars), Rng() & 1));
    Formula.push_back(C);
    S.addClause(C);
  }
  if (S.solve() != SolveResult::Unsat)
    GTEST_SKIP() << "instance happened to be satisfiable";
  std::string Err;
  EXPECT_TRUE(checkRupProof(collectFormula(Formula, NumVars), S.proof(),
                            &Err))
      << Err;
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomUnsatProofs, ::testing::Range(0u, 15u));

} // namespace
