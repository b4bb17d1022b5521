//===- baseline/TreeCodegen.cpp -------------------------------------------===//

#include "baseline/TreeCodegen.h"

#include "ir/Eval.h"
#include "support/StringExtras.h"

#include <algorithm>
#include <array>
#include <unordered_map>
#include <unordered_set>

using namespace denali;
using namespace denali::baseline;
using denali::ir::Builtin;

namespace {

/// Emits unscheduled instructions (Cycle/Unit assigned later).
class Lowering {
public:
  Lowering(const ir::Context &Ctx, const machine::MachineModel &Isa, std::string *ErrorOut)
      : Ctx(Ctx), Isa(Isa), ErrorOut(ErrorOut) {}

  bool run(const std::vector<std::pair<std::string, ir::TermId>> &Goals,
           machine::Program &P) {
    for (const auto &[Target, Term] : Goals) {
      std::optional<machine::Operand> Op = lower(Term);
      if (!Op)
        return false;
      uint32_t Reg;
      if (Op->isReg()) {
        Reg = Op->Reg;
      } else {
        // A literal result still needs a register.
        Reg = materializeConst(Op->Imm);
      }
      P.Outputs.push_back({Target, Reg});
    }
    P.Instrs = std::move(Instrs);
    P.Inputs = std::move(Inputs);
    P.NumVRegs = NextReg;
    return true;
  }

private:
  const ir::Context &Ctx;
  const machine::MachineModel &Isa;
  std::string *ErrorOut;
  std::vector<machine::Instruction> Instrs;
  std::vector<machine::ProgramInput> Inputs;
  std::unordered_map<ir::TermId, machine::Operand> Memo;
  std::unordered_map<uint64_t, uint32_t> ConstRegs;
  std::unordered_map<ir::OpId, uint32_t> InputRegs;
  uint32_t NextReg = 0;

  bool fail(const std::string &Msg) {
    if (ErrorOut)
      *ErrorOut = Msg;
    return false;
  }

  uint32_t emit(Builtin B, std::vector<machine::Operand> Srcs,
                alpha::MemKind Mem = alpha::MemKind::None, int64_t Disp = 0) {
    const alpha::InstrDesc *Desc = Isa.descFor(Ctx.Ops.builtin(B));
    machine::Instruction I;
    I.Mnemonic = Desc->Mnemonic;
    I.Op = Desc->Op;
    I.Srcs = std::move(Srcs);
    I.Dest = NextReg++;
    I.Latency = Desc->Latency;
    I.Mem = Mem;
    I.Disp = Disp;
    Instrs.push_back(std::move(I));
    return Instrs.back().Dest;
  }

  uint32_t materializeConst(uint64_t V) {
    auto It = ConstRegs.find(V);
    if (It != ConstRegs.end())
      return It->second;
    machine::Instruction I;
    I.Mnemonic = Isa.constMaterialize().Mnemonic;
    I.Op = Isa.constMaterialize().Op;
    I.Srcs = {machine::Operand::imm(V)};
    I.Dest = NextReg++;
    I.Latency = Isa.constMaterialize().Latency;
    Instrs.push_back(std::move(I));
    ConstRegs.emplace(V, Instrs.back().Dest);
    return Instrs.back().Dest;
  }

  /// Operand conversion honoring the machine's literal slot: position
  /// \p ArgIdx of an instruction described by \p Desc.
  std::optional<machine::Operand> asOperand(const machine::Operand &Op,
                                          const alpha::InstrDesc *Desc,
                                          size_t ArgIdx, size_t Arity) {
    if (Op.isReg())
      return Op;
    if (Op.Imm == 0)
      return Op; // Zero register.
    bool ImmSlot = Desc && Desc->AllowsImm &&
                   ArgIdx == Isa.immArgIndex(*Desc, Arity) &&
                   Isa.immFits(*Desc, Op.Imm);
    if (ImmSlot)
      return Op;
    return machine::Operand::reg(materializeConst(Op.Imm));
  }

  std::optional<machine::Operand> lower(ir::TermId T) {
    auto It = Memo.find(T);
    if (It != Memo.end())
      return It->second;
    std::optional<machine::Operand> Result = lowerUncached(T);
    if (Result)
      Memo.emplace(T, *Result);
    return Result;
  }

  std::optional<machine::Operand>
  lowerMachine(Builtin B, const std::vector<ir::TermId> &Children) {
    const alpha::InstrDesc *Desc = Isa.descFor(Ctx.Ops.builtin(B));
    std::vector<machine::Operand> Srcs;
    for (size_t I = 0; I < Children.size(); ++I) {
      std::optional<machine::Operand> C = lower(Children[I]);
      if (!C)
        return std::nullopt;
      std::optional<machine::Operand> Op =
          asOperand(*C, Desc, I, Children.size());
      if (!Op)
        return std::nullopt;
      Srcs.push_back(*Op);
    }
    return machine::Operand::reg(emit(B, std::move(Srcs)));
  }

  std::optional<machine::Operand> lowerUncached(ir::TermId T) {
    const ir::TermNode &N = Ctx.Terms.node(T);
    const ir::OpInfo &Info = Ctx.Ops.info(N.Op);

    if (Info.BuiltinOp == Builtin::Const)
      return machine::Operand::imm(N.ConstVal);
    if (Info.Kind == ir::OpKind::Variable) {
      auto It = InputRegs.find(N.Op);
      if (It != InputRegs.end())
        return machine::Operand::reg(It->second);
      uint32_t R = NextReg++;
      // Memory-ness is determined by use; patched by the select/store
      // lowering below.
      Inputs.push_back({R, Info.Name, false});
      InputRegs.emplace(N.Op, R);
      return machine::Operand::reg(R);
    }
    if (Info.Kind == ir::OpKind::Declared)
      return fail(strFormat("naive codegen cannot lower declared operator "
                            "'%s'", Info.Name.c_str())),
             std::nullopt;

    // Fully constant subtrees fold.
    {
      std::string EvalErr;
      std::optional<ir::Value> V = ir::evalTerm(Ctx.Terms, T, {}, nullptr,
                                                &EvalErr);
      if (V && V->isInt())
        return machine::Operand::imm(V->asInt());
    }

    Builtin B = Info.BuiltinOp;
    if (Isa.descFor(N.Op) && B != Builtin::Select && B != Builtin::Store)
      return lowerMachine(B, N.Children);

    switch (B) {
    case Builtin::Select:
    case Builtin::Store: {
      std::optional<machine::Operand> Mem = lower(N.Children[0]);
      if (!Mem)
        return std::nullopt;
      if (Mem->isReg())
        for (machine::ProgramInput &In : Inputs)
          if (In.Reg == Mem->Reg)
            In.IsMemory = true;
      // Fold add64(base, k) addresses into the displacement.
      ir::TermId Addr = N.Children[1];
      int64_t Disp = 0;
      const ir::TermNode &AN = Ctx.Terms.node(Addr);
      if (AN.Op == Ctx.Ops.builtin(Builtin::Add64)) {
        const ir::TermNode &K1 = Ctx.Terms.node(AN.Children[1]);
        if (Ctx.Ops.isConst(K1.Op) &&
            static_cast<int64_t>(K1.ConstVal) <= 32767 &&
            static_cast<int64_t>(K1.ConstVal) >= -32768) {
          Disp = static_cast<int64_t>(K1.ConstVal);
          Addr = AN.Children[0];
        }
      }
      std::optional<machine::Operand> Base = lower(Addr);
      if (!Base)
        return std::nullopt;
      if (!Base->isReg() && Base->Imm != 0)
        Base = machine::Operand::reg(materializeConst(Base->Imm));
      if (B == Builtin::Select)
        return machine::Operand::reg(
            emit(Builtin::Select, {*Mem, *Base}, alpha::MemKind::Load, Disp));
      std::optional<machine::Operand> Val = lower(N.Children[2]);
      if (!Val)
        return std::nullopt;
      if (!Val->isReg() && Val->Imm != 0)
        Val = machine::Operand::reg(materializeConst(Val->Imm));
      return machine::Operand::reg(emit(Builtin::Store, {*Mem, *Base, *Val},
                                      alpha::MemKind::Store, Disp));
    }
    case Builtin::SelectB:
      return lowerMachine(Builtin::Extbl, {N.Children[0], N.Children[1]});
    case Builtin::SelectW:
      return lowerMachine(Builtin::Extwl, {N.Children[0], N.Children[1]});
    case Builtin::StoreB:
    case Builtin::StoreW: {
      // storeb(w, i, x) = bis(mskbl(w, i), insbl(x, i)).
      Builtin Msk = B == Builtin::StoreB ? Builtin::Mskbl : Builtin::Mskwl;
      Builtin Ins = B == Builtin::StoreB ? Builtin::Insbl : Builtin::Inswl;
      std::optional<machine::Operand> M =
          lowerMachine(Msk, {N.Children[0], N.Children[1]});
      std::optional<machine::Operand> I =
          lowerMachine(Ins, {N.Children[2], N.Children[1]});
      if (!M || !I)
        return std::nullopt;
      return machine::Operand::reg(emit(Builtin::Or64, {*M, *I}));
    }
    case Builtin::Zext8:
      return lowerViaZapnot(N.Children[0], 0x1);
    case Builtin::Zext16:
      return lowerViaZapnot(N.Children[0], 0x3);
    case Builtin::Zext32:
      return lowerViaZapnot(N.Children[0], 0xf);
    case Builtin::Sext8:
      return lowerShiftPair(N.Children[0], 56);
    case Builtin::Sext16:
      return lowerShiftPair(N.Children[0], 48);
    case Builtin::Sext32:
      return lowerShiftPair(N.Children[0], 32);
    default:
      return fail(strFormat("naive codegen has no lowering for '%s'",
                            Info.Name.c_str())),
             std::nullopt;
    }
  }

  std::optional<machine::Operand> lowerViaZapnot(ir::TermId Arg,
                                               uint64_t Mask) {
    std::optional<machine::Operand> A = lower(Arg);
    if (!A)
      return std::nullopt;
    std::optional<machine::Operand> Op = asOperand(
        *A, Isa.descFor(Ctx.Ops.builtin(Builtin::Zapnot)), 0, 2);
    return machine::Operand::reg(
        emit(Builtin::Zapnot, {*Op, machine::Operand::imm(Mask)}));
  }

  std::optional<machine::Operand> lowerShiftPair(ir::TermId Arg,
                                               uint64_t Amount) {
    std::optional<machine::Operand> A = lower(Arg);
    if (!A)
      return std::nullopt;
    if (!A->isReg() && A->Imm != 0)
      A = machine::Operand::reg(materializeConst(A->Imm));
    uint32_t Left =
        emit(Builtin::Shl64, {*A, machine::Operand::imm(Amount)});
    return machine::Operand::reg(emit(
        Builtin::Sar64,
        {machine::Operand::reg(Left), machine::Operand::imm(Amount)}));
  }
};

/// Greedy critical-path list scheduler over the machine's unit/latency/
/// cluster model.
void listSchedule(const machine::MachineModel &Isa, machine::Program &P) {
  size_t N = P.Instrs.size();
  // Producer index per vreg.
  std::unordered_map<uint32_t, size_t> ProducerOf;
  for (size_t I = 0; I < N; ++I)
    ProducerOf[P.Instrs[I].Dest] = I;
  std::unordered_set<uint32_t> InputRegs;
  for (const machine::ProgramInput &In : P.Inputs)
    InputRegs.insert(In.Reg);

  // Heights (critical path to any consumer-free end).
  std::vector<unsigned> Height(N, 0);
  for (size_t I = N; I-- > 0;) {
    Height[I] = P.Instrs[I].Latency;
    // Consumers appear later in emission order.
    for (size_t J = I + 1; J < N; ++J)
      for (const machine::Operand &S : P.Instrs[J].Srcs)
        if (S.isReg() && S.Reg == P.Instrs[I].Dest)
          Height[I] = std::max(Height[I], P.Instrs[I].Latency + Height[J]);
  }

  std::vector<bool> Done(N, false);
  // ReadyAt[vreg][cluster].
  const unsigned NC = Isa.numClusters();
  std::unordered_map<uint32_t, std::array<unsigned, machine::MaxClusters>>
      ReadyAt;
  for (uint32_t R : InputRegs)
    ReadyAt[R] = {};

  size_t Scheduled = 0;
  unsigned Cycle = 0;
  unsigned Makespan = 0;
  while (Scheduled < N && Cycle < 10000) {
    for (unsigned UIdx = 0; UIdx < Isa.numUnits(); ++UIdx) {
      machine::UnitId Un = static_cast<machine::UnitId>(UIdx);
      unsigned Cluster = Isa.clusterOf(Un);
      // Best ready instruction for this slot.
      size_t Best = N;
      for (size_t I = 0; I < N; ++I) {
        if (Done[I])
          continue;
        const alpha::InstrDesc *Desc =
            P.Instrs[I].Op == Isa.constMaterialize().Op
                ? &Isa.constMaterialize()
                : Isa.descFor(P.Instrs[I].Op);
        if (!Desc || !(Desc->UnitMask & (1u << UIdx)))
          continue;
        bool Ready = true;
        for (const machine::Operand &S : P.Instrs[I].Srcs) {
          if (!S.isReg())
            continue;
          auto It = ReadyAt.find(S.Reg);
          if (It == ReadyAt.end() || It->second[Cluster] > Cycle) {
            Ready = false;
            break;
          }
        }
        // In-order memory discipline: a load/store may not bypass earlier
        // unscheduled memory operations (conservative, compiler-like).
        if (Ready && P.Instrs[I].Mem != alpha::MemKind::None) {
          for (size_t J = 0; J < I; ++J)
            if (!Done[J] && P.Instrs[J].Mem != alpha::MemKind::None) {
              Ready = false;
              break;
            }
        }
        if (!Ready)
          continue;
        if (Best == N || Height[I] > Height[Best])
          Best = I;
      }
      if (Best == N)
        continue;
      machine::Instruction &I = P.Instrs[Best];
      I.Cycle = Cycle;
      I.IssueUnit = Un;
      Done[Best] = true;
      ++Scheduled;
      unsigned Fin = Cycle + I.Latency;
      auto &Entry = ReadyAt[I.Dest];
      for (unsigned C = 0; C < NC; ++C)
        Entry[C] = (C == Cluster || I.Mem == alpha::MemKind::Store)
                       ? Fin
                       : Fin + Isa.crossClusterDelay();
      Makespan = std::max(Makespan, Fin);
    }
    ++Cycle;
  }
  P.Cycles = Makespan;
  std::stable_sort(P.Instrs.begin(), P.Instrs.end(),
                   [](const machine::Instruction &A,
                      const machine::Instruction &B) {
                     if (A.Cycle != B.Cycle)
                       return A.Cycle < B.Cycle;
                     return A.IssueUnit < B.IssueUnit;
                   });
}

} // namespace

std::optional<machine::Program> denali::baseline::naiveCodegen(
    const ir::Context &Ctx, const machine::MachineModel &Isa,
    const std::vector<std::pair<std::string, ir::TermId>> &Goals,
    const std::string &Name, std::string *ErrorOut) {
  machine::Program P;
  P.Name = Name;
  P.Model = &Isa;
  Lowering L(Ctx, Isa, ErrorOut);
  if (!L.run(Goals, P))
    return std::nullopt;
  listSchedule(Isa, P);
  return P;
}
