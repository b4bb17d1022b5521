//===- ir/Term.cpp --------------------------------------------------------===//

#include "ir/Term.h"

#include "support/Error.h"
#include "support/StringExtras.h"

#include <cassert>

using namespace denali;
using namespace denali::ir;

namespace {

uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

TermTable::TermTable(OpTable &Ops)
    : Ops(Ops), Interned(64, IdHash{this}, IdEq{this}) {}

size_t TermTable::keyHash(const KeyView &K) {
  size_t H = std::hash<uint64_t>()((static_cast<uint64_t>(K.Op) << 32) ^
                                   K.ConstVal);
  for (TermId C : K.Children)
    H = H * 1000003u ^ C;
  return H;
}

uint64_t TermTable::shapeHash(const KeyView &K) const {
  const OpInfo &Info = Ops.info(K.Op);
  if (Info.Kind == OpKind::Variable)
    return mix(~0ULL); // Name-blind: every variable has one shape.
  uint64_t H = mix((static_cast<uint64_t>(K.Op) << 32) ^ K.Children.size());
  if (Info.BuiltinOp == Builtin::Const)
    return mix(H ^ K.ConstVal);
  if (Info.Commutative) {
    uint64_t Sum = 0; // Order-free: a sum of mixed operand shapes.
    for (TermId C : K.Children)
      Sum += mix(node(C).ShapeHash);
    return mix(H ^ Sum);
  }
  for (TermId C : K.Children)
    H = mix(H ^ node(C).ShapeHash);
  return H;
}

TermId TermTable::intern(const KeyView &K) {
  auto It = Interned.find(K);
  if (It != Interned.end())
    return *It;
  TermId Id = static_cast<TermId>(Nodes.push_back(TermNode{
      K.Op, std::vector<TermId>(K.Children.begin(), K.Children.end()),
      K.ConstVal, shapeHash(K)}));
  Interned.insert(Id);
  return Id;
}

TermId TermTable::make(OpId Op, std::span<const TermId> Children) {
  const OpInfo &Info = Ops.info(Op);
  assert(static_cast<size_t>(Info.Arity) == Children.size() &&
         "arity mismatch");
  (void)Info;
  return intern(KeyView{Op, Children, 0});
}

TermId TermTable::makeConst(uint64_t Value) {
  return intern(KeyView{Ops.builtin(Builtin::Const), {}, Value});
}

TermId TermTable::makeVar(std::string_view Name) {
  OpId Op = Ops.makeVariable(Name);
  return intern(KeyView{Op, {}, 0});
}

TermId TermTable::substitute(TermId Root,
                             const std::unordered_map<OpId, TermId> &Subst) {
  std::unordered_map<TermId, TermId> Memo;
  // Iterative post-order to avoid deep recursion on large unrolled terms.
  std::vector<std::pair<TermId, bool>> Stack;
  Stack.push_back({Root, false});
  while (!Stack.empty()) {
    auto [Id, Expanded] = Stack.back();
    Stack.pop_back();
    if (Memo.count(Id))
      continue;
    const TermNode &N = Nodes[Id];
    if (!Expanded) {
      if (N.Children.empty()) {
        auto It = Subst.find(N.Op);
        Memo[Id] = It == Subst.end() ? Id : It->second;
        continue;
      }
      Stack.push_back({Id, true});
      for (TermId C : N.Children)
        Stack.push_back({C, false});
      continue;
    }
    std::vector<TermId> NewChildren;
    NewChildren.reserve(N.Children.size());
    bool Changed = false;
    for (TermId C : N.Children) {
      TermId NC = Memo.at(C);
      Changed |= NC != C;
      NewChildren.push_back(NC);
    }
    Memo[Id] = Changed ? make(N.Op, NewChildren) : Id;
  }
  return Memo.at(Root);
}

std::string TermTable::toString(TermId Id) const {
  const TermNode &N = node(Id);
  const OpInfo &Info = Ops.info(N.Op);
  if (Info.BuiltinOp == Builtin::Const)
    return formatConstant(N.ConstVal);
  if (N.Children.empty())
    return Info.Name;
  std::string Out = "(" + Info.Name;
  for (TermId C : N.Children) {
    Out += ' ';
    Out += toString(C);
  }
  Out += ')';
  return Out;
}
