//===- alpha/ISA.cpp ------------------------------------------------------===//

#include "alpha/ISA.h"

#include "support/Error.h"

using namespace denali;
using namespace denali::alpha;
using denali::ir::Builtin;

const char *denali::alpha::unitName(Unit U) {
  switch (U) {
  case Unit::U0:
    return "U0";
  case Unit::U1:
    return "U1";
  case Unit::L0:
    return "L0";
  case Unit::L1:
    return "L1";
  }
  DENALI_UNREACHABLE("bad unit");
}

ISA::ISA(ir::Context &Ctx) {
  // U/L by capability, 0/1 by cluster; unit index order matches the Unit
  // enum (and the historical mask constants).
  addUnit("U0", 0);
  addUnit("U1", 1);
  addUnit("L0", 0);
  addUnit("L1", 1);
  IssueWidth = 4; // Quad issue.
  HitLatency = 3; // Cache-hit ldq.

  struct Row {
    Builtin B;
    const char *Mnemonic;
    uint8_t UnitMask;
    unsigned Latency;
    MemKind Mem;
    bool Imm8;
  };
  // EV6 integer pipes: plain ALU ops issue anywhere; the shifter and the
  // byte-manipulation unit are upper-only; multiplies are U1-only;
  // loads/stores are lower-only.
  const Row Rows[] = {
      {Builtin::Add64, "addq", MaskAll, 1, MemKind::None, true},
      {Builtin::Sub64, "subq", MaskAll, 1, MemKind::None, true},
      {Builtin::Neg64, "negq", MaskAll, 1, MemKind::None, false},
      {Builtin::Mul64, "mulq", MaskU1, 7, MemKind::None, true},
      {Builtin::Umulh, "umulh", MaskU1, 7, MemKind::None, true},
      {Builtin::And64, "and", MaskAll, 1, MemKind::None, true},
      {Builtin::Or64, "bis", MaskAll, 1, MemKind::None, true},
      {Builtin::Xor64, "xor", MaskAll, 1, MemKind::None, true},
      {Builtin::Not64, "not", MaskAll, 1, MemKind::None, false},
      {Builtin::Bic64, "bic", MaskAll, 1, MemKind::None, true},
      {Builtin::Ornot64, "ornot", MaskAll, 1, MemKind::None, true},
      {Builtin::Eqv64, "eqv", MaskAll, 1, MemKind::None, true},
      {Builtin::Shl64, "sll", MaskUpper, 1, MemKind::None, true},
      {Builtin::Shr64, "srl", MaskUpper, 1, MemKind::None, true},
      {Builtin::Sar64, "sra", MaskUpper, 1, MemKind::None, true},
      {Builtin::CmpEq, "cmpeq", MaskAll, 1, MemKind::None, true},
      {Builtin::CmpUlt, "cmpult", MaskAll, 1, MemKind::None, true},
      {Builtin::CmpUle, "cmpule", MaskAll, 1, MemKind::None, true},
      {Builtin::CmpLt, "cmplt", MaskAll, 1, MemKind::None, true},
      {Builtin::CmpLe, "cmple", MaskAll, 1, MemKind::None, true},
      {Builtin::Extbl, "extbl", MaskUpper, 1, MemKind::None, true},
      {Builtin::Extwl, "extwl", MaskUpper, 1, MemKind::None, true},
      {Builtin::Insbl, "insbl", MaskUpper, 1, MemKind::None, true},
      {Builtin::Inswl, "inswl", MaskUpper, 1, MemKind::None, true},
      {Builtin::Mskbl, "mskbl", MaskUpper, 1, MemKind::None, true},
      {Builtin::Mskwl, "mskwl", MaskUpper, 1, MemKind::None, true},
      {Builtin::Zapnot, "zapnot", MaskUpper, 1, MemKind::None, true},
      {Builtin::S4Addl, "s4addq", MaskAll, 1, MemKind::None, true},
      {Builtin::S8Addl, "s8addq", MaskAll, 1, MemKind::None, true},
      {Builtin::S4Subl, "s4subq", MaskAll, 1, MemKind::None, true},
      {Builtin::S8Subl, "s8subq", MaskAll, 1, MemKind::None, true},
      {Builtin::CmovEq, "cmoveq", MaskAll, 1, MemKind::None, true},
      {Builtin::CmovNe, "cmovne", MaskAll, 1, MemKind::None, true},
      {Builtin::CmovLt, "cmovlt", MaskAll, 1, MemKind::None, true},
      {Builtin::CmovGe, "cmovge", MaskAll, 1, MemKind::None, true},
      // Memory: select(M, a) is a quadword load; store(M, a, x) a store.
      {Builtin::Select, "ldq", MaskLower, 3, MemKind::Load, false},
      {Builtin::Store, "stq", MaskLower, 1, MemKind::Store, false},
  };
  for (const Row &R : Rows) {
    InstrDesc D;
    D.Op = Ctx.Ops.builtin(R.B);
    D.Mnemonic = R.Mnemonic;
    D.UnitMask = R.UnitMask;
    D.Latency = R.Latency;
    D.Mem = R.Mem;
    D.AllowsImm = R.Imm8;
    D.ImmMin = 0; // 8-bit unsigned ALU literal.
    D.ImmMax = 255;
    addInstr(std::move(D));
  }
  InstrDesc Ldiq;
  Ldiq.Op = Ctx.Ops.builtin(Builtin::Const);
  Ldiq.Mnemonic = "ldiq";
  Ldiq.UnitMask = MaskAll;
  Ldiq.Latency = 1;
  Ldiq.AllowsImm = false;
  setConstMaterialize(std::move(Ldiq));
}

void denali::alpha::registerAlphaMachine() {
  machine::registerMachine("alpha", [](ir::Context &Ctx) {
    return std::unique_ptr<machine::MachineModel>(new ISA(Ctx));
  });
}
