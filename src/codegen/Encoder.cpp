//===- codegen/Encoder.cpp ------------------------------------------------===//

#include "codegen/Encoder.h"

#include "obs/Obs.h"
#include "support/Error.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <cassert>

using namespace denali;
using namespace denali::codegen;
using namespace denali::egraph;
using denali::sat::Lit;
using denali::sat::Solver;

const char *denali::codegen::clauseFamilyName(ClauseFamily F) {
  switch (F) {
  case ClauseFamily::None:
    return "none";
  case ClauseFamily::Definition:
    return "definition";
  case ClauseFamily::Operand:
    return "operand";
  case ClauseFamily::Exclusivity:
    return "exclusivity";
  case ClauseFamily::Deadline:
    return "deadline";
  case ClauseFamily::Guard:
    return "guard";
  case ClauseFamily::Memory:
    return "memory";
  case ClauseFamily::Gating:
    return "gating";
  }
  return "unknown";
}

Encoder::Encoder(const EGraph &G, const machine::MachineModel &M,
                 const Universe &U, const std::vector<NamedGoal> &Goals,
                 const EncoderOptions &Opts, Solver &S)
    : G(G), M(M), U(U), Goals(Goals), Opts(Opts), S(S),
      NumUnits(M.numUnits()),
      NumClusters(Opts.SingleCluster ? 1 : M.numClusters()) {
  const std::vector<MachineTerm> &Terms = U.terms();
  std::unordered_map<ClassId, uint32_t> RowOf;
  for (ClassId Q : U.neededClasses())
    if (RowOf.emplace(G.find(Q), static_cast<uint32_t>(RowClass.size()))
            .second)
      RowClass.push_back(Q); // Duplicate canonical class; first row wins.
  auto rowOf = [&](ClassId Q) {
    auto It = RowOf.find(G.find(Q));
    assert(It != RowOf.end() && "missing B class");
    return It->second;
  };

  // Launch at J completes (on cluster C) at the end of cycle J + Offset:
  // latency - 1, plus the cross-cluster delay unless the result is a store
  // (stores write shared state).
  LinksBegin.reserve(RowClass.size() * NumClusters + 1);
  for (ClassId Q : RowClass) {
    for (unsigned C = 0; C < NumClusters; ++C) {
      LinksBegin.push_back(static_cast<uint32_t>(Links.size()));
      for (size_t T : U.producersOf(Q)) {
        const MachineTerm &MT = Terms[T];
        assert(MT.Latency >= 1 && "a layer may only look back in time");
        for (machine::UnitId Un : MT.Units) {
          unsigned Cross =
              Opts.SingleCluster || MT.IsStore || clusterOfUnit(Un) == C
                  ? 0u
                  : M.crossClusterDelay();
          Links.push_back(ProducerLink{static_cast<uint32_t>(T), Un,
                                       MT.Latency - 1 + Cross});
        }
      }
    }
  }
  LinksBegin.push_back(static_cast<uint32_t>(Links.size()));

  OperandRows.resize(Terms.size());
  for (size_t T = 0; T < Terms.size(); ++T) {
    const MachineTerm &MT = Terms[T];
    for (size_t ArgIdx = 0; ArgIdx < MT.Args.size(); ++ArgIdx) {
      ClassId A = MT.Args[ArgIdx];
      if (U.isFree(A))
        continue;
      if (!MT.IsLdiq &&
          U.isImmOperand(G, *MT.Desc, ArgIdx, MT.Args.size(), A))
        continue;
      OperandRows[T].push_back(rowOf(A));
    }
  }

  for (const NamedGoal &Goal : Goals) {
    ClassId Q = G.find(Goal.Class);
    GoalRows.push_back(U.isFree(Q) ? -1 : static_cast<int32_t>(rowOf(Q)));
  }
  if (Opts.GuardClass) {
    ClassId Gd = G.find(*Opts.GuardClass);
    if (!U.isFree(Gd))
      GuardRow = static_cast<int32_t>(rowOf(Gd));
  }

  for (size_t T = 0; T < Terms.size(); ++T)
    if (Terms[T].IsStore)
      Stores.push_back(static_cast<uint32_t>(T));
  for (size_t TL = 0; TL < Terms.size(); ++TL) {
    if (!Terms[TL].IsLoad)
      continue;
    ClassId Mem = G.find(Terms[TL].Args[0]);
    for (size_t SIdx = 0; SIdx < Stores.size(); ++SIdx)
      if (G.find(Terms[Stores[SIdx]].Args[0]) == Mem)
        AntiDeps.push_back(AntiDependence{static_cast<uint32_t>(TL),
                                          static_cast<uint32_t>(SIdx)});
  }
  StoreLaunched.assign(Stores.size(), -1);
  ExceedVars.push_back(-1); // E_0 does not exist.
  computeWindows();
}

void Encoder::computeWindows() {
  // The windows are the least fixed point of
  //   launch(t, u) = max(0, ready(r, cluster(u)) + 1 over operand rows r,
  //                  min over clusters c of ready(guard, c) + 1 for a
  //                  guarded load or store),
  //   ready(r, c)  = min over producer links of launch(t, u) + Offset,
  // the cycles before which unit propagation fixes every L and B false:
  // layer I's launches need B at I-1, and its B's need launches at <= I.
  // Launch windows follow from the ready ones, so only those are iterated,
  // down from Never until a sweep changes nothing. A sweep visits the rows
  // backwards (the universe lists a class before its operands), so most
  // chains settle in the first one.
  const std::vector<MachineTerm> &Terms = U.terms();
  auto after = [](unsigned Cycle) {
    return Cycle == Never ? Never : Cycle + 1;
  };
  ReadyFrom.assign(RowClass.size() * NumClusters, Never);
  auto launchFrom = [&](uint32_t T, machine::UnitId Un) {
    unsigned From = 0;
    for (uint32_t Row : OperandRows[T])
      From = std::max(From,
                      after(ReadyFrom[Row * NumClusters + clusterOfUnit(Un)]));
    if (GuardRow >= 0 && (Terms[T].IsLoad || Terms[T].IsStore)) {
      unsigned Guard = Never;
      for (unsigned C = 0; C < NumClusters; ++C)
        Guard = std::min(Guard, ReadyFrom[GuardRow * NumClusters + C]);
      From = std::max(From, after(Guard));
    }
    return From;
  };
  for (bool Changed = true; Changed;) {
    Changed = false;
    for (size_t Group = ReadyFrom.size(); Group-- > 0;) {
      for (uint32_t Idx = LinksBegin[Group]; Idx < LinksBegin[Group + 1];
           ++Idx) {
        const ProducerLink &Link = Links[Idx];
        unsigned From = launchFrom(Link.Term, Link.Unit);
        if (From != Never && From + Link.Offset < ReadyFrom[Group]) {
          ReadyFrom[Group] = From + Link.Offset;
          Changed = true;
        }
      }
    }
  }
  LaunchFrom.assign(Terms.size() * NumUnits, Never);
  for (size_t T = 0; T < Terms.size(); ++T)
    for (machine::UnitId Un : Terms[T].Units)
      LaunchFrom[T * NumUnits + Un] =
          launchFrom(static_cast<uint32_t>(T), Un);

  // A budget-K program computes every goal by the end of cycle K-1.
  for (int32_t Row : GoalRows) {
    if (Row < 0)
      continue;
    unsigned Ready = Never;
    for (unsigned C = 0; C < NumClusters; ++C)
      Ready = std::min(Ready, ReadyFrom[Row * NumClusters + C]);
    CriticalPath = std::max(CriticalPath, after(Ready));
  }
}

void Encoder::addLayer(EncodingStats &Stats) {
  const unsigned I = Layers;
  const std::vector<MachineTerm> &Terms = U.terms();
  const size_t NT = Terms.size();

  // --- Variables of cycle I, inside their windows. ---------------------------
  LVars.resize(LVars.size() + NT * NumUnits, -1);
  for (size_t T = 0; T < NT; ++T)
    for (machine::UnitId Un : Terms[T].Units)
      if (LaunchFrom[T * NumUnits + Un] <= I)
        LVars[(I * NT + T) * NumUnits + Un] = S.newVar();
  for (unsigned From : ReadyFrom)
    BVars.push_back(From <= I ? S.newVar() : -1);
  ++Layers;
  ++Stats.Layers;

  // An absent launch or availability is false, so every clause below skips
  // it: a clause with ~L for an absent L is satisfied, and an absent L or B
  // drops out of a disjunction.
  // Per-family clause attribution: the solver's clause count sampled at
  // each constraint-block boundary.
  uint64_t Mark = S.numClauses();
  auto charge = [&](uint64_t &Into) {
    Into += S.numClauses() - Mark;
    Mark = S.numClauses();
  };
  sat::ClauseLits Clause;

  // --- Condition 3 (+1): B(q,c,I) holds iff some member completed by I. ---
  for (uint32_t R = 0; R < RowClass.size(); ++R) {
    for (unsigned C = 0; C < NumClusters; ++C) {
      const size_t Group = size_t(R) * NumClusters + C;
      if (ReadyFrom[Group] > I)
        continue;
      tag(ClauseFamily::Definition, I, ~0u, G.find(RowClass[R]));
      Lit B = Lit::pos(bVar(R, C, I));
      Clause.assign(1, ~B);
      if (ReadyFrom[Group] < I) {
        Lit Prev = Lit::pos(bVar(R, C, I - 1));
        Clause.push_back(Prev);
        S.addClause(~Prev, B); // Monotonic.
      }
      for (uint32_t Idx = LinksBegin[Group]; Idx < LinksBegin[Group + 1];
           ++Idx) {
        const ProducerLink &Link = Links[Idx];
        if (Link.Offset > I)
          continue; // Launched before cycle 0.
        sat::Var V = lVar(Link.Term, Link.Unit, I - Link.Offset);
        if (V < 0)
          continue;
        Clause.push_back(Lit::pos(V));
        S.addClause(Lit::neg(V), B);
      }
      S.addClause(Clause);
    }
  }
  charge(Stats.DefinitionClauses);

  // --- Condition 2: operands available before launch. ---------------------
  // A launch's window opens after each operand's, so B(row, c, I-1) exists.
  for (size_t T = 0; T < NT; ++T) {
    for (uint32_t Row : OperandRows[T]) {
      for (machine::UnitId Un : Terms[T].Units) {
        sat::Var V = lVar(static_cast<uint32_t>(T), Un, I);
        if (V < 0)
          continue;
        tag(ClauseFamily::Operand, I, Un, static_cast<uint32_t>(T));
        sat::Var Operand = bVar(Row, clusterOfUnit(Un), I - 1);
        assert(Operand >= 0 && "launch window opens before its operand's");
        S.addClause(Lit::neg(V), Lit::pos(Operand));
      }
    }
  }
  charge(Stats.OperandClauses);

  // --- Condition 4: issue exclusivity per (cycle, unit). ------------------
  for (unsigned UIdx = 0; UIdx < NumUnits; ++UIdx) {
    tag(ClauseFamily::Exclusivity, I, UIdx, 0);
    Clause.clear();
    for (size_t T = 0; T < NT; ++T) {
      sat::Var V = lVar(static_cast<uint32_t>(T), UIdx, I);
      if (V >= 0)
        Clause.push_back(Lit::pos(V));
    }
    sat::addAtMostOne(S, Clause, Opts.AmoStyle);
  }
  charge(Stats.ExclusivityClauses);

  // --- Section 7: guard before unsafe (memory) operations. -----------------
  // A guarded launch's window opens after the guard's earliest one, so the
  // clause keeps at least one B.
  if (GuardRow >= 0) {
    for (size_t T = 0; T < NT; ++T) {
      const MachineTerm &MT = Terms[T];
      if (!MT.IsLoad && !MT.IsStore)
        continue;
      for (machine::UnitId Un : MT.Units) {
        sat::Var V = lVar(static_cast<uint32_t>(T), Un, I);
        if (V < 0)
          continue;
        tag(ClauseFamily::Guard, I, Un, static_cast<uint32_t>(T));
        Clause.assign(1, Lit::neg(V));
        for (unsigned C = 0; C < NumClusters; ++C)
          if (sat::Var Guard = bVar(static_cast<uint32_t>(GuardRow), C, I - 1);
              Guard >= 0)
            Clause.push_back(Lit::pos(Guard));
        assert(Clause.size() > 1 && "launch window opens before the guard's");
        S.addClause(Clause);
      }
    }
  }
  charge(Stats.GuardClauses);

  // --- Memory discipline. ---------------------------------------------------
  // Anti-dependence: a load of memory state m may not launch after the
  // store that overwrites m (the store whose memory argument is m), so a
  // launch of that store before cycle I excludes the load at I.
  for (const AntiDependence &D : AntiDeps) {
    sat::Var Before = StoreLaunched[D.Store];
    if (Before < 0)
      continue;
    tag(ClauseFamily::Memory, I, ~0u, D.Load);
    for (machine::UnitId UL : Terms[D.Load].Units)
      if (sat::Var V = lVar(D.Load, UL, I); V >= 0)
        S.addClause(Lit::neg(V), Lit::neg(Before));
  }
  // Each store launches at most once (a replayed store could overwrite a
  // later store to the same unprovably-distinct address): at most one of
  // its launches at I and "launched before I", which then extends to I.
  // Before the store's window opens there is nothing to extend.
  for (size_t SIdx = 0; SIdx < Stores.size(); ++SIdx) {
    const uint32_t T = Stores[SIdx];
    sat::Var Before = StoreLaunched[SIdx];
    Clause.clear();
    for (machine::UnitId Un : Terms[T].Units)
      if (sat::Var V = lVar(T, Un, I); V >= 0)
        Clause.push_back(Lit::pos(V));
    const size_t Launches = Clause.size();
    if (Launches == 0)
      continue;
    tag(ClauseFamily::Memory, I, ~0u, T);
    if (Before >= 0)
      Clause.push_back(Lit::pos(Before));
    sat::addAtMostOne(S, Clause, Opts.AmoStyle);
    sat::Var Now = S.newVar();
    for (size_t J = 0; J < Launches; ++J)
      S.addClause(~Clause[J], Lit::pos(Now));
    if (Before >= 0)
      S.addClause(Lit::neg(Before), Lit::pos(Now));
    StoreLaunched[SIdx] = Now;
  }
  charge(Stats.MemoryClauses);

  // --- Budget gates. ---------------------------------------------------------
  // A launch at I finishes at I + latency, and a budget-K program has every
  // instruction, used or not, finished by K: the launch implies
  // E_{I+latency-1}. Solving under ¬E_K thus forbids every launch at cycle
  // K or later and every launch still running at K, and activates the
  // budget-K deadline (addDeadline).
  for (size_t T = 0; T < NT; ++T) {
    const unsigned Budget = I + Terms[T].Latency - 1;
    if (Budget == 0)
      continue; // Finished by the end of cycle 0: fits every budget.
    for (machine::UnitId Un : Terms[T].Units) {
      sat::Var V = lVar(static_cast<uint32_t>(T), Un, I);
      if (V < 0)
        continue;
      Lit Overrun = exceed(Budget);
      tag(ClauseFamily::Gating, I, Un, static_cast<uint32_t>(T));
      S.addClause(Lit::neg(V), Overrun);
    }
  }
  charge(Stats.GatingClauses);
}

Lit Encoder::exceed(unsigned K) {
  // E_{N+1} -> E_N: a program that overruns budget N+1 overruns budget N.
  while (ExceedVars.size() <= K) {
    const unsigned N = static_cast<unsigned>(ExceedVars.size());
    ExceedVars.push_back(S.newVar());
    if (N >= 2) {
      tag(ClauseFamily::Gating, ~0u, ~0u, N);
      S.addClause(Lit::neg(ExceedVars[N]), Lit::pos(ExceedVars[N - 1]));
    }
  }
  return Lit::pos(ExceedVars[K]);
}

void Encoder::addDeadline(unsigned K, EncodingStats &Stats) {
  uint64_t Mark = S.numClauses();
  const Lit Overrun = exceed(K);
  Stats.GatingClauses += S.numClauses() - Mark;
  Mark = S.numClauses();
  // --- Condition 5: goals computed within K cycles, unless E_K. -----------
  // Below the critical path some goal has no B at K-1, and its deadline is
  // the unit E_K: the budget is refuted without search.
  sat::ClauseLits Clause;
  for (size_t GIdx = 0; GIdx < Goals.size(); ++GIdx) {
    if (GoalRows[GIdx] < 0)
      continue; // A free goal is available at cycle 0.
    tag(ClauseFamily::Deadline, K - 1, ~0u, static_cast<uint32_t>(GIdx));
    Clause.assign(1, Overrun);
    for (unsigned C = 0; C < NumClusters; ++C)
      if (sat::Var B = bVar(static_cast<uint32_t>(GoalRows[GIdx]), C, K - 1);
          B >= 0)
        Clause.push_back(Lit::pos(B));
    S.addClause(Clause);
  }
  Stats.DeadlineClauses += S.numClauses() - Mark;
}

EncodingStats Encoder::prepareBudget(unsigned K) {
  assert(K >= 1 && "a budget of 0 cycles has no deadline cycle");
  obs::ObsSpan Span("encode");
  EncodingStats Stats;
  Stats.Cycles = K;
  Stats.MachineTerms = U.terms().size();
  Stats.Classes = U.neededClasses().size();
  const int VarsAtStart = S.numVars();
  const uint64_t ClausesAtStart = S.numClauses();
  while (Layers < K)
    addLayer(Stats);
  if (DeadlineAdded.size() <= K)
    DeadlineAdded.resize(K + 1, false);
  if (!DeadlineAdded[K]) {
    addDeadline(K, Stats);
    DeadlineAdded[K] = true;
  }
  if (Opts.TagClauses)
    S.setClauseTag(0);
  Stats.Vars = S.numVars() - VarsAtStart;
  Stats.Clauses = S.numClauses() - ClausesAtStart;

  if (obs::enabled()) {
    if (Span.active())
      Span.arg("cycles", Stats.Cycles)
          .arg("layers", Stats.Layers)
          .arg("vars", Stats.Vars)
          .arg("clauses", Stats.Clauses)
          .arg("terms", static_cast<uint64_t>(Stats.MachineTerms))
          .arg("classes", static_cast<uint64_t>(Stats.Classes));
    auto &R = obs::Registry::global();
    R.counter("encode.runs").add(1);
    R.counter("encode.vars").add(static_cast<uint64_t>(Stats.Vars));
    R.counter("encode.clauses").add(Stats.Clauses);
    R.counter("encode.clauses.definition").add(Stats.DefinitionClauses);
    R.counter("encode.clauses.operand").add(Stats.OperandClauses);
    R.counter("encode.clauses.exclusivity").add(Stats.ExclusivityClauses);
    R.counter("encode.clauses.deadline").add(Stats.DeadlineClauses);
    R.counter("encode.clauses.guard").add(Stats.GuardClauses);
    R.counter("encode.clauses.memory").add(Stats.MemoryClauses);
    R.counter("encode.clauses.gating").add(Stats.GatingClauses);
  }
  return Stats;
}

sat::Lit Encoder::budgetAssumption(unsigned K) const {
  assert(K >= 1 && K < DeadlineAdded.size() && DeadlineAdded[K] &&
         "budget was never prepared");
  return Lit::neg(ExceedVars[K]);
}

machine::Program Encoder::extract(unsigned K,
                                  const std::string &Name) const {
  const std::vector<MachineTerm> &Terms = U.terms();
  machine::Program P;
  P.Name = Name;
  P.Cycles = K;
  P.Model = &M;

  uint32_t NextReg = 0;
  std::unordered_map<ClassId, uint32_t> InputReg;
  for (const Universe::InputInfo &In : U.inputs()) {
    uint32_t R = NextReg++;
    P.Inputs.push_back(machine::ProgramInput{R, In.Name, In.IsMemory});
    InputReg[In.Class] = R;
  }

  struct Launch {
    size_t Term;
    machine::UnitId Un;
    unsigned Cycle;
    uint32_t VReg;
  };
  // Dense scan in (term, unit, cycle) order. Launches at cycle K or later
  // are false in the model (the budget assumption forbids them).
  std::vector<Launch> Launches;
  const unsigned Cycles = std::min(K, Layers);
  for (size_t T = 0; T < Terms.size(); ++T) {
    for (unsigned UIdx = 0; UIdx < NumUnits; ++UIdx) {
      for (unsigned I = 0; I < Cycles; ++I) {
        sat::Var V = lVar(static_cast<uint32_t>(T), UIdx, I);
        if (V < 0 || !S.modelValue(V))
          continue;
        Launches.push_back(
            Launch{T, static_cast<machine::UnitId>(UIdx), I, NextReg++});
      }
    }
  }

  // Producer lookup: the launch of a term in class Q whose result is usable
  // on cluster C at the start of cycle I, completing earliest.
  auto findProducer = [&](ClassId Q, unsigned C,
                          unsigned I) -> const Launch * {
    Q = G.find(Q);
    const Launch *Best = nullptr;
    unsigned BestReady = ~0u;
    for (const Launch &L : Launches) {
      const MachineTerm &MT = Terms[L.Term];
      if (G.find(MT.Class) != Q)
        continue;
      unsigned XD = (Opts.SingleCluster || MT.IsStore ||
                     clusterOfUnit(L.Un) == C)
                        ? 0
                        : M.crossClusterDelay();
      unsigned Ready = L.Cycle + MT.Latency + XD;
      if (Ready > I)
        continue;
      if (Ready < BestReady) {
        BestReady = Ready;
        Best = &L;
      }
    }
    return Best;
  };

  // Wire instructions.
  std::unordered_map<const Launch *, machine::Instruction> Built;
  for (const Launch &L : Launches) {
    const MachineTerm &MT = Terms[L.Term];
    machine::Instruction I;
    I.Mnemonic = MT.Desc->Mnemonic;
    I.Op = MT.Desc->Op;
    I.Dest = L.VReg;
    I.Cycle = L.Cycle;
    I.IssueUnit = L.Un;
    I.Latency = MT.Latency;
    I.Mem = MT.Desc->Mem;
    I.Disp = MT.Disp;
    I.SourceTerm = static_cast<int32_t>(L.Term);
    if (MT.IsLdiq) {
      I.Srcs.push_back(machine::Operand::imm(MT.ConstVal));
    } else {
      for (size_t ArgIdx = 0; ArgIdx < MT.Args.size(); ++ArgIdx) {
        ClassId A = MT.Args[ArgIdx];
        std::optional<uint64_t> KConst = G.classConstant(A);
        if (U.isFree(A)) {
          if (KConst && *KConst == 0) {
            I.Srcs.push_back(machine::Operand::imm(0)); // Zero register.
            continue;
          }
          auto It = InputReg.find(G.find(A));
          assert(It != InputReg.end() && "free class without input");
          I.Srcs.push_back(machine::Operand::reg(It->second));
          continue;
        }
        if (U.isImmOperand(G, *MT.Desc, ArgIdx, MT.Args.size(), A)) {
          I.Srcs.push_back(machine::Operand::imm(*KConst));
          continue;
        }
        const Launch *Prod = findProducer(A, clusterOfUnit(L.Un), L.Cycle);
        if (!Prod)
          reportFatalError(strFormat(
              "extraction: no producer for class c%u needed by '%s' at "
              "cycle %u (encoder/extractor mismatch)",
              G.find(A), I.Mnemonic.c_str(), L.Cycle));
        I.Srcs.push_back(machine::Operand::reg(Prod->VReg));
      }
    }
    Built.emplace(&L, std::move(I));
  }

  // Outputs: choose, per goal, the earliest-completing producer.
  std::unordered_set<uint32_t> OutputRegs;
  for (const NamedGoal &Goal : Goals) {
    ClassId Q = G.find(Goal.Class);
    if (U.isFree(Q)) {
      std::optional<uint64_t> KConst = G.classConstant(Q);
      assert(!KConst || *KConst != 0 ||
             !"literal-zero results are not expected from GMAs");
      (void)KConst;
      auto It = InputReg.find(Q);
      assert(It != InputReg.end() && "free goal without input register");
      P.Outputs.push_back({Goal.Target, It->second});
      OutputRegs.insert(It->second);
      continue;
    }
    const Launch *Best = nullptr;
    unsigned BestReady = ~0u;
    for (unsigned C = 0; C < NumClusters; ++C) {
      const Launch *L = findProducer(Q, C, K);
      if (!L)
        continue;
      unsigned Ready = L->Cycle + Terms[L->Term].Latency;
      if (Ready < BestReady) {
        BestReady = Ready;
        Best = L;
      }
    }
    if (!Best)
      reportFatalError("extraction: goal class has no completed producer");
    P.Outputs.push_back({Goal.Target, Best->VReg});
    OutputRegs.insert(Best->VReg);
  }

  // Usage analysis: drop unused stores entirely (they would write real
  // memory outside the GMA's contract); mark other unused instructions
  // (Figure 4 keeps its "(unused)" extbl).
  bool ChangedUsage = true;
  std::unordered_set<const Launch *> Dropped;
  while (ChangedUsage) {
    ChangedUsage = false;
    std::unordered_set<uint32_t> Used(OutputRegs.begin(), OutputRegs.end());
    for (const Launch &L : Launches) {
      if (Dropped.count(&L))
        continue;
      for (const machine::Operand &Src : Built[&L].Srcs)
        if (Src.isReg())
          Used.insert(Src.Reg);
    }
    for (const Launch &L : Launches) {
      if (Dropped.count(&L))
        continue;
      if (Terms[L.Term].IsStore && !Used.count(L.VReg)) {
        Dropped.insert(&L);
        ChangedUsage = true;
      }
    }
    if (!ChangedUsage) {
      for (const Launch &L : Launches) {
        if (Dropped.count(&L))
          continue;
        Built[&L].Unused = !Used.count(L.VReg);
      }
    }
  }

  for (const Launch &L : Launches)
    if (!Dropped.count(&L))
      P.Instrs.push_back(std::move(Built[&L]));
  std::stable_sort(P.Instrs.begin(), P.Instrs.end(),
                   [](const machine::Instruction &A,
                      const machine::Instruction &B) {
                     if (A.Cycle != B.Cycle)
                       return A.Cycle < B.Cycle;
                     return A.IssueUnit < B.IssueUnit;
                   });
  P.NumVRegs = NextReg;
  return P;
}
