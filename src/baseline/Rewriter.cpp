//===- baseline/Rewriter.cpp ----------------------------------------------===//

#include "baseline/Rewriter.h"

#include "ir/Eval.h"

#include <functional>
#include <optional>
#include <unordered_map>
#include <unordered_set>

using namespace denali;
using namespace denali::baseline;
using denali::ir::Builtin;
using denali::ir::TermId;

namespace {

bool isPow2(uint64_t V) { return V && (V & (V - 1)) == 0; }
unsigned log2Exact(uint64_t V) {
  unsigned N = 0;
  while (V > 1) {
    V >>= 1;
    ++N;
  }
  return N;
}

/// One directed rule: returns the replacement, or std::nullopt when the
/// rule does not apply (TermId 0 is a valid term, so no sentinel).
struct Rule {
  const char *Name;
  std::function<std::optional<TermId>(ir::Context &, TermId)> Apply;
};

std::optional<uint64_t> constOf(ir::Context &Ctx, TermId T) {
  const ir::TermNode &N = Ctx.Terms.node(T);
  if (!Ctx.Ops.isConst(N.Op))
    return std::nullopt;
  return N.ConstVal;
}

std::vector<Rule> buildRules() {
  std::vector<Rule> Rules;
  auto add = [&](const char *Name,
                 std::function<std::optional<TermId>(ir::Context &, TermId)>
                     F) {
    Rules.push_back(Rule{Name, std::move(F)});
  };

  // Constant folding: any all-constant subtree becomes a literal.
  add("const-fold", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (Ctx.Ops.isConst(N.Op) || N.Children.empty())
      return std::nullopt;
    for (TermId C : N.Children)
      if (!constOf(Ctx, C))
        return std::nullopt;
    std::optional<ir::Value> V = ir::evalTerm(Ctx.Terms, T, {});
    if (!V || !V->isInt())
      return std::nullopt;
    return Ctx.Terms.makeConst(V->asInt());
  });

  // Strength reduction: x * 2^n -> x << n.
  add("mul-to-shift", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (N.Op != Ctx.Ops.builtin(Builtin::Mul64))
      return std::nullopt;
    for (int Side = 0; Side < 2; ++Side) {
      std::optional<uint64_t> K = constOf(Ctx, N.Children[Side]);
      if (K && isPow2(*K))
        return Ctx.Terms.makeBuiltin(
            Builtin::Shl64,
            {N.Children[1 - Side], Ctx.Terms.makeConst(log2Exact(*K))});
    }
    return std::nullopt;
  });

  // The scaled-add patterns (which mul-to-shift destroys first — the
  // phase-ordering trap the E-graph avoids).
  add("scaled-add", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (N.Op != Ctx.Ops.builtin(Builtin::Add64))
      return std::nullopt;
    for (int Side = 0; Side < 2; ++Side) {
      TermId MulT = N.Children[Side];
      const ir::TermNode &MN = Ctx.Terms.node(MulT);
      if (MN.Op != Ctx.Ops.builtin(Builtin::Mul64))
        continue;
      for (int MSide = 0; MSide < 2; ++MSide) {
        std::optional<uint64_t> K = constOf(Ctx, MN.Children[MSide]);
        if (!K || (*K != 4 && *K != 8))
          continue;
        Builtin B = *K == 4 ? Builtin::S4Addl : Builtin::S8Addl;
        return Ctx.Terms.makeBuiltin(
            B, {MN.Children[1 - MSide], N.Children[1 - Side]});
      }
    }
    return std::nullopt;
  });

  // Identities.
  auto identity = [&](const char *Name, Builtin B, uint64_t Id,
                      bool Symmetric) {
    add(Name, [B, Id, Symmetric](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
      const ir::TermNode &N = Ctx.Terms.node(T);
      if (N.Op != Ctx.Ops.builtin(B))
        return std::nullopt;
      std::optional<uint64_t> K1 = constOf(Ctx, N.Children[1]);
      if (K1 && *K1 == Id)
        return N.Children[0];
      if (Symmetric) {
        std::optional<uint64_t> K0 = constOf(Ctx, N.Children[0]);
        if (K0 && *K0 == Id)
          return N.Children[1];
      }
      return std::nullopt;
    });
  };
  identity("add-id", Builtin::Add64, 0, true);
  identity("or-id", Builtin::Or64, 0, true);
  identity("xor-id", Builtin::Xor64, 0, true);
  identity("sub-id", Builtin::Sub64, 0, false);
  identity("shl-id", Builtin::Shl64, 0, false);
  identity("shr-id", Builtin::Shr64, 0, false);
  identity("mul-id", Builtin::Mul64, 1, true);
  identity("and-id", Builtin::And64, ~0ULL, true);

  // Byte-operation lowering (what a compiler's expander does).
  add("selectb-to-extbl", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (N.Op != Ctx.Ops.builtin(Builtin::SelectB))
      return std::nullopt;
    return Ctx.Terms.makeBuiltin(Builtin::Extbl, {N.Children[0],
                                                  N.Children[1]});
  });
  add("selectw-to-extwl", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (N.Op != Ctx.Ops.builtin(Builtin::SelectW))
      return std::nullopt;
    return Ctx.Terms.makeBuiltin(Builtin::Extwl, {N.Children[0],
                                                  N.Children[1]});
  });
  add("storeb-expand", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (N.Op != Ctx.Ops.builtin(Builtin::StoreB))
      return std::nullopt;
    TermId Msk = Ctx.Terms.makeBuiltin(Builtin::Mskbl,
                                       {N.Children[0], N.Children[1]});
    TermId Ins = Ctx.Terms.makeBuiltin(Builtin::Insbl,
                                       {N.Children[2], N.Children[1]});
    return Ctx.Terms.makeBuiltin(Builtin::Or64, {Msk, Ins});
  });
  add("mskbl-fold", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    // mskbl(0, i) = 0.
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (N.Op != Ctx.Ops.builtin(Builtin::Mskbl))
      return std::nullopt;
    std::optional<uint64_t> K = constOf(Ctx, N.Children[0]);
    if (K && *K == 0)
      return Ctx.Terms.makeConst(0);
    return std::nullopt;
  });
  add("zext-to-zapnot", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    const ir::TermNode &N = Ctx.Terms.node(T);
    Builtin B = Ctx.Ops.builtinOf(N.Op);
    uint64_t Mask;
    if (B == Builtin::Zext8)
      Mask = 0x1;
    else if (B == Builtin::Zext16)
      Mask = 0x3;
    else if (B == Builtin::Zext32)
      Mask = 0xf;
    else
      return std::nullopt;
    return Ctx.Terms.makeBuiltin(
        Builtin::Zapnot, {N.Children[0], Ctx.Terms.makeConst(Mask)});
  });
  add("sext-to-shifts", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    const ir::TermNode &N = Ctx.Terms.node(T);
    Builtin B = Ctx.Ops.builtinOf(N.Op);
    uint64_t Amount;
    if (B == Builtin::Sext8)
      Amount = 56;
    else if (B == Builtin::Sext16)
      Amount = 48;
    else if (B == Builtin::Sext32)
      Amount = 32;
    else
      return std::nullopt;
    TermId L = Ctx.Terms.makeBuiltin(
        Builtin::Shl64, {N.Children[0], Ctx.Terms.makeConst(Amount)});
    return Ctx.Terms.makeBuiltin(Builtin::Sar64,
                                 {L, Ctx.Terms.makeConst(Amount)});
  });
  // pow is a specification-only operator; expand 2**k to a literal.
  add("pow-expand", [](ir::Context &Ctx, TermId T) -> std::optional<TermId> {
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (N.Op != Ctx.Ops.builtin(Builtin::Pow))
      return std::nullopt;
    std::optional<uint64_t> B = constOf(Ctx, N.Children[0]);
    std::optional<uint64_t> E = constOf(Ctx, N.Children[1]);
    if (B && E) {
      std::optional<ir::Value> V = ir::evalTerm(Ctx.Terms, T, {});
      if (V && V->isInt())
        return Ctx.Terms.makeConst(V->asInt());
    }
    return std::nullopt;
  });
  return Rules;
}

} // namespace

unsigned denali::baseline::termCost(ir::Context &Ctx, const machine::MachineModel &Isa,
                                    ir::TermId T) {
  std::unordered_set<TermId> Seen;
  unsigned Cost = 0;
  std::vector<TermId> Work{T};
  while (!Work.empty()) {
    TermId Id = Work.back();
    Work.pop_back();
    if (!Seen.insert(Id).second)
      continue;
    const ir::TermNode &N = Ctx.Terms.node(Id);
    if (Ctx.Ops.isConst(N.Op)) {
      Cost += N.ConstVal > 255 ? 1 : 0; // Large literals need a ldiq.
      continue;
    }
    if (Ctx.Ops.isVariable(N.Op))
      continue;
    const alpha::InstrDesc *Desc = Isa.descFor(N.Op);
    Cost += Desc ? Desc->Latency : 1000; // Non-machine: effectively banned.
    for (TermId C : N.Children)
      Work.push_back(C);
  }
  return Cost;
}

RewriteResult denali::baseline::greedyRewrite(ir::Context &Ctx,
                                              const machine::MachineModel &Isa,
                                              ir::TermId T) {
  static const std::vector<Rule> Rules = buildRules();
  RewriteResult Result;

  std::function<TermId(TermId)> RewriteOnce = [&](TermId Id) -> TermId {
    // Copies, not a reference into the term table: the recursive calls
    // below intern terms, which can reallocate it.
    const ir::OpId Op = Ctx.Terms.node(Id).Op;
    std::vector<TermId> Children = Ctx.Terms.node(Id).Children;
    // Innermost first: rebuild with rewritten children.
    bool Changed = false;
    for (TermId &C : Children) {
      TermId NC = RewriteOnce(C);
      Changed |= NC != C;
      C = NC;
    }
    TermId Cur =
        Changed ? (Ctx.Ops.isConst(Op) ? Id : Ctx.Terms.make(Op, Children))
                : Id;
    // Greedily take the first cost-improving (or penalty-removing) rule.
    for (;;) {
      unsigned CurCost = termCost(Ctx, Isa, Cur);
      std::optional<TermId> Next;
      const char *Applied = nullptr;
      for (const Rule &R : Rules) {
        std::optional<TermId> Candidate = R.Apply(Ctx, Cur);
        if (!Candidate || *Candidate == Cur)
          continue;
        if (termCost(Ctx, Isa, *Candidate) < CurCost) {
          Next = Candidate;
          Applied = R.Name;
          break;
        }
      }
      if (!Next)
        break;
      Cur = *Next;
      ++Result.Steps;
      Result.RulesApplied.push_back(Applied);
      // The replacement's subterms may enable further local rewrites.
      Cur = RewriteOnce(Cur);
    }
    return Cur;
  };

  Result.Term = RewriteOnce(T);
  return Result;
}
