//===- match/Elaborate.cpp ------------------------------------------------===//

#include "match/Elaborate.h"

#include <unordered_map>
#include <unordered_set>

using namespace denali;
using namespace denali::match;
using namespace denali::egraph;
using denali::ir::Builtin;

namespace {

bool isPowerOfTwo(uint64_t V) { return V != 0 && (V & (V - 1)) == 0; }

unsigned log2Exact(uint64_t V) {
  unsigned N = 0;
  while (V > 1) {
    V >>= 1;
    ++N;
  }
  return N;
}

/// If every byte of \p V is 0x00 or 0xff, \returns the zapnot byte mask.
std::optional<uint64_t> byteRegularMask(uint64_t V) {
  uint64_t Mask = 0;
  for (unsigned I = 0; I < 8; ++I) {
    uint64_t Byte = (V >> (8 * I)) & 0xff;
    if (Byte == 0xff)
      Mask |= 1ULL << I;
    else if (Byte != 0)
      return std::nullopt;
  }
  return Mask;
}

/// Base+offset decomposition of a class value through add64/sub64 chains.
struct BaseOffset {
  ClassId Base = 0;   ///< Canonical class of the symbolic base.
  bool IsConst = false;
  uint64_t Offset = 0;
};

std::optional<BaseOffset> decompose(const EGraph &G,
                                    const ir::Context &Ctx,
                                    ClassId C,
                                    std::unordered_set<ClassId> &OnPath) {
  C = G.find(C);
  if (std::optional<uint64_t> K = G.classConstant(C))
    return BaseOffset{0, true, *K};
  if (!OnPath.insert(C).second)
    return std::nullopt; // Cycle (identity merges); bail on this path.
  ir::OpId AddOp = Ctx.Ops.builtin(Builtin::Add64);
  ir::OpId SubOp = Ctx.Ops.builtin(Builtin::Sub64);
  std::optional<BaseOffset> Result;
  for (ENodeId N : G.classNodes(C)) {
    const ENode &Node = G.node(N);
    bool IsAdd = Node.Op == AddOp;
    bool IsSub = Node.Op == SubOp;
    if (!IsAdd && !IsSub)
      continue;
    for (int ConstIdx = 0; ConstIdx < 2; ++ConstIdx) {
      if (IsSub && ConstIdx == 0)
        continue; // Only x - k decomposes; k - x does not.
      std::optional<uint64_t> K =
          G.classConstant(Node.Children[ConstIdx]);
      if (!K)
        continue;
      ClassId Other = Node.Children[1 - ConstIdx];
      std::optional<BaseOffset> Inner = decompose(G, Ctx, Other, OnPath);
      if (!Inner)
        continue;
      Result = *Inner;
      Result->Offset += IsAdd ? *K : (0 - *K);
      break;
    }
    if (Result)
      break;
  }
  OnPath.erase(C);
  if (Result)
    return Result;
  return BaseOffset{C, false, 0};
}

} // namespace

Elaborator denali::match::powerOfTwoElaborator() {
  return [](EGraph &G) {
    const ir::Context &Ctx = G.context();
    ir::OpId MulOp = Ctx.Ops.builtin(Builtin::Mul64);
    ir::OpId PowOp = Ctx.Ops.builtin(Builtin::Pow);
    // By index: adding nodes below can move the per-operator lists, though
    // it never adds a multiply.
    for (size_t I = 0; I < G.nodesWithOp(MulOp).size(); ++I) {
      const ENode &Mul = G.node(G.nodesWithOp(MulOp)[I]);
      if (!Mul.Alive)
        continue;
      // A copy: addNode below may reallocate the node table.
      const ClassId Children[2] = {Mul.Children[0], Mul.Children[1]};
      for (ClassId Child : Children) {
        std::optional<uint64_t> K = G.classConstant(Child);
        if (!K || !isPowerOfTwo(*K) || *K < 2)
          continue;
        unsigned Exp = log2Exact(*K);
        // After the first round 2**n is almost always in k's class
        // already; finding it adds and asserts nothing.
        std::optional<ClassId> Two = G.lookupConst(2);
        std::optional<ClassId> N = G.lookupConst(Exp);
        if (Two && N) {
          const ClassId PowChildren[2] = {*Two, *N};
          std::optional<ClassId> Pow = G.lookupNode(PowOp, PowChildren, 2);
          if (Pow && G.sameClass(*Pow, Child))
            continue;
        }
        ClassId PowClass =
            G.addNode(PowOp, {G.addConst(2), G.addConst(Exp)});
        G.assertEqual(PowClass, G.find(Child));
      }
    }
  };
}

Elaborator denali::match::byteMaskElaborator() {
  return [](EGraph &G) {
    const ir::Context &Ctx = G.context();
    ir::OpId AndOp = Ctx.Ops.builtin(Builtin::And64);
    ir::OpId ZapnotOp = Ctx.Ops.builtin(Builtin::Zapnot);
    std::vector<ENodeId> Ands = G.nodesWithOp(AndOp);
    for (ENodeId N : Ands) {
      if (!G.node(N).Alive)
        continue;
      // A copy: addNode below may reallocate the node table.
      const std::vector<ClassId> Children = G.node(N).Children;
      for (int ConstIdx = 0; ConstIdx < 2; ++ConstIdx) {
        std::optional<uint64_t> K = G.classConstant(Children[ConstIdx]);
        if (!K || *K == 0)
          continue;
        std::optional<uint64_t> Mask = byteRegularMask(*K);
        if (!Mask)
          continue;
        ClassId Other = Children[1 - ConstIdx];
        ClassId Zap = G.addNode(ZapnotOp, {G.find(Other),
                                           G.addConst(*Mask)});
        G.assertEqual(Zap, G.classOf(N));
      }
    }
  };
}

Elaborator denali::match::byteShiftElaborator() {
  return [](EGraph &G) {
    const ir::Context &Ctx = G.context();
    ir::OpId ShlOp = Ctx.Ops.builtin(Builtin::Shl64);
    ir::OpId MulOp = Ctx.Ops.builtin(Builtin::Mul64);
    std::vector<ENodeId> Shls = G.nodesWithOp(ShlOp);
    for (ENodeId N : Shls) {
      if (!G.node(N).Alive)
        continue;
      ClassId Amount = G.node(N).Children[1];
      std::optional<uint64_t> K = G.classConstant(Amount);
      if (!K || *K == 0 || *K >= 64 || *K % 8 != 0)
        continue;
      ClassId Mul = G.addNode(MulOp, {G.addConst(8), G.addConst(*K / 8)});
      G.assertEqual(Mul, G.find(Amount));
    }
  };
}

Elaborator denali::match::offsetDisequalityElaborator() {
  return [](EGraph &G) {
    const ir::Context &Ctx = G.context();
    ir::OpId SelectOp = Ctx.Ops.builtin(Builtin::Select);
    ir::OpId StoreOp = Ctx.Ops.builtin(Builtin::Store);
    // Collect the classes used as memory indices.
    std::vector<ClassId> Indices;
    for (ir::OpId Op : {SelectOp, StoreOp})
      for (ENodeId N : G.nodesWithOp(Op))
        if (G.node(N).Alive)
          Indices.push_back(G.find(G.node(N).Children[1]));
    std::sort(Indices.begin(), Indices.end());
    Indices.erase(std::unique(Indices.begin(), Indices.end()), Indices.end());

    // Group by symbolic base; different offsets within one group are
    // provably different addresses.
    struct Entry {
      ClassId Class;
      uint64_t Offset;
    };
    std::unordered_map<uint64_t, std::vector<Entry>> Groups;
    for (ClassId C : Indices) {
      std::unordered_set<ClassId> OnPath;
      std::optional<BaseOffset> BO = decompose(G, Ctx, C, OnPath);
      if (!BO)
        continue;
      uint64_t GroupKey =
          BO->IsConst ? ~0ULL : static_cast<uint64_t>(BO->Base);
      uint64_t Offset = BO->IsConst ? BO->Offset : BO->Offset;
      Groups[GroupKey].push_back(Entry{C, Offset});
    }
    for (auto &[Key, Entries] : Groups) {
      (void)Key;
      for (size_t I = 0; I < Entries.size(); ++I)
        for (size_t J = I + 1; J < Entries.size(); ++J)
          if (Entries[I].Offset != Entries[J].Offset &&
              !G.areDistinct(Entries[I].Class, Entries[J].Class))
            G.assertDistinct(Entries[I].Class, Entries[J].Class);
    }
  };
}
