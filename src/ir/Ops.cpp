//===- ir/Ops.cpp ---------------------------------------------------------===//

#include "ir/Ops.h"

#include "support/Error.h"
#include "support/StringExtras.h"

#include <cassert>

using namespace denali;
using namespace denali::ir;

namespace {

struct BuiltinDesc {
  Builtin B;
  const char *Name;
  int Arity;
  bool Commutative;
};

// Names follow the paper where the paper names the function (add64, selectb,
// extbl, ...). `**` is spelled `pow` in source syntax but also answers to
// the name `**`.
const BuiltinDesc BuiltinDescs[] = {
    {Builtin::Const, "#const", 0, false},
    {Builtin::Add64, "add64", 2, true},
    {Builtin::Sub64, "sub64", 2, false},
    {Builtin::Mul64, "mul64", 2, true},
    {Builtin::Neg64, "neg64", 1, false},
    {Builtin::Umulh, "umulh", 2, true},
    {Builtin::And64, "and64", 2, true},
    {Builtin::Or64, "or64", 2, true},
    {Builtin::Xor64, "xor64", 2, true},
    {Builtin::Not64, "not64", 1, false},
    {Builtin::Bic64, "bic64", 2, false},
    {Builtin::Ornot64, "ornot64", 2, false},
    {Builtin::Eqv64, "eqv64", 2, true},
    {Builtin::Shl64, "shl64", 2, false},
    {Builtin::Shr64, "shr64", 2, false},
    {Builtin::Sar64, "sar64", 2, false},
    {Builtin::Pow, "pow", 2, false},
    {Builtin::CmpEq, "cmpeq", 2, true},
    {Builtin::CmpUlt, "cmpult", 2, false},
    {Builtin::CmpUle, "cmpule", 2, false},
    {Builtin::CmpLt, "cmplt", 2, false},
    {Builtin::CmpLe, "cmple", 2, false},
    {Builtin::Select, "select", 2, false},
    {Builtin::Store, "store", 3, false},
    {Builtin::SelectB, "selectb", 2, false},
    {Builtin::StoreB, "storeb", 3, false},
    {Builtin::SelectW, "selectw", 2, false},
    {Builtin::StoreW, "storew", 3, false},
    {Builtin::Zext8, "zext8", 1, false},
    {Builtin::Zext16, "zext16", 1, false},
    {Builtin::Zext32, "zext32", 1, false},
    {Builtin::Sext8, "sext8", 1, false},
    {Builtin::Sext16, "sext16", 1, false},
    {Builtin::Sext32, "sext32", 1, false},
    {Builtin::Extbl, "extbl", 2, false},
    {Builtin::Extwl, "extwl", 2, false},
    {Builtin::Insbl, "insbl", 2, false},
    {Builtin::Inswl, "inswl", 2, false},
    {Builtin::Mskbl, "mskbl", 2, false},
    {Builtin::Mskwl, "mskwl", 2, false},
    {Builtin::Zapnot, "zapnot", 2, false},
    {Builtin::S4Addl, "s4addl", 2, false},
    {Builtin::S8Addl, "s8addl", 2, false},
    {Builtin::S4Subl, "s4subl", 2, false},
    {Builtin::S8Subl, "s8subl", 2, false},
    {Builtin::CmovEq, "cmoveq", 3, false},
    {Builtin::CmovNe, "cmovne", 3, false},
    {Builtin::CmovLt, "cmovlt", 3, false},
    {Builtin::CmovGe, "cmovge", 3, false},
};

} // namespace

OpTable::OpTable() {
  for (const BuiltinDesc &D : BuiltinDescs) {
    OpInfo Info;
    Info.Name = D.Name;
    Info.Arity = D.Arity;
    Info.Kind = OpKind::Builtin;
    Info.BuiltinOp = D.B;
    Info.Commutative = D.Commutative;
    OpId Id = addOp(std::move(Info));
    BuiltinIds[static_cast<size_t>(D.B)] = Id;
  }
  // Aliases used in axiom files and by the paper's notation.
  ByName["+"] = builtin(Builtin::Add64);
  ByName["-"] = builtin(Builtin::Sub64);
  ByName["*"] = builtin(Builtin::Mul64);
  ByName["**"] = builtin(Builtin::Pow);
  ByName["<<"] = builtin(Builtin::Shl64);
  ByName[">>"] = builtin(Builtin::Shr64);
  ByName["<"] = builtin(Builtin::CmpLt);
  ByName["<="] = builtin(Builtin::CmpLe);
  ByName["and"] = builtin(Builtin::And64);
  ByName["or"] = builtin(Builtin::Or64);
  ByName["bis"] = builtin(Builtin::Or64);
  ByName["xor"] = builtin(Builtin::Xor64);
  ByName["not"] = builtin(Builtin::Not64);
  ByName["bic"] = builtin(Builtin::Bic64);
  ByName["ornot"] = builtin(Builtin::Ornot64);
  ByName["eqv"] = builtin(Builtin::Eqv64);
  ByName["sll"] = builtin(Builtin::Shl64);
  ByName["srl"] = builtin(Builtin::Shr64);
  ByName["sra"] = builtin(Builtin::Sar64);
  ByName["addq"] = builtin(Builtin::Add64);
  ByName["subq"] = builtin(Builtin::Sub64);
  ByName["mulq"] = builtin(Builtin::Mul64);
}

OpId OpTable::addOp(OpInfo Info) {
  OpId Id = static_cast<OpId>(Infos.size());
  auto It = ByName.find(Info.Name);
  if (It != ByName.end())
    reportFatalError(strFormat("duplicate operator '%s'", Info.Name.c_str()));
  ByName.emplace(Info.Name, Id);
  Infos.push_back(std::move(Info));
  return Id;
}

OpId OpTable::builtin(Builtin B) const {
  assert(B != Builtin::None && B != Builtin::NumBuiltins && "bad builtin");
  return BuiltinIds[static_cast<size_t>(B)];
}

OpId OpTable::makeVariable(std::string_view Name) {
  auto It = ByName.find(Name);
  if (It != ByName.end()) {
    const OpInfo &Existing = info(It->second);
    if (Existing.Kind != OpKind::Variable)
      reportFatalError(strFormat("'%s' already names a non-variable",
                                 Existing.Name.c_str()));
    return It->second;
  }
  OpInfo Info;
  Info.Name = Name;
  Info.Arity = 0;
  Info.Kind = OpKind::Variable;
  return addOp(std::move(Info));
}

OpId OpTable::declareOp(const std::string &Name, int Arity) {
  auto It = ByName.find(Name);
  if (It != ByName.end()) {
    const OpInfo &Existing = info(It->second);
    if (Existing.Arity != Arity)
      reportFatalError(strFormat("operator '%s' redeclared with arity %d "
                                 "(was %d)",
                                 Name.c_str(), Arity, Existing.Arity));
    return It->second;
  }
  OpInfo Info;
  Info.Name = Name;
  Info.Arity = Arity;
  Info.Kind = OpKind::Declared;
  return addOp(std::move(Info));
}

std::optional<OpId> OpTable::lookup(std::string_view Name) const {
  auto It = ByName.find(Name);
  if (It == ByName.end())
    return std::nullopt;
  return It->second;
}
