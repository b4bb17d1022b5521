//===- server/Canon.cpp ---------------------------------------------------===//

#include "server/Canon.h"

#include <cassert>
#include <charconv>

using namespace denali;
using namespace denali::server;

namespace {

/// Prints a GMA's canonical text into one buffer. Commutative operands
/// print in a fixed total order of their name-blind shapes (compare()),
/// ties keeping source order; variables print as v0, v1, ... in first-use
/// order. The shapes come memoized on the terms (TermNode::ShapeHash), so
/// no shape is built here, and nothing is allocated per node.
class Canonicalizer {
public:
  Canonicalizer(const ir::Context &Ctx, CanonicalGma &C)
      : Ctx(Ctx), Out(C.Text), VarMap(C.VarMap) {}

  void print(ir::TermId T) {
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (Ctx.Ops.isConst(N.Op))
      return number(N.ConstVal);
    if (Ctx.Ops.isVariable(N.Op)) {
      Out += 'v';
      return number(varNumber(N.Op));
    }
    const std::string &Name = Ctx.Ops.info(N.Op).Name;
    if (N.Children.empty()) {
      // Nullary declared op: prints bare, like a variable, but is not one.
      Out += Name;
      return;
    }
    Out += '(';
    Out += Name;
    const bool Swap = swapped(N);
    for (size_t I = 0; I < N.Children.size(); ++I) {
      Out += ' ';
      print(N.Children[Swap ? N.Children.size() - 1 - I : I]);
    }
    Out += ')';
  }

  void number(uint64_t V) {
    char Buf[24];
    Out.append(Buf, std::to_chars(Buf, Buf + sizeof(Buf), V).ptr);
  }

private:
  /// Constants sort first, then applications, then variables: the order
  /// the shape strings of earlier versions had ('#' < '(' < '?').
  int rank(const ir::TermNode &N) const {
    if (Ctx.Ops.isConst(N.Op))
      return 0;
    return Ctx.Ops.isVariable(N.Op) ? 2 : 1;
  }

  /// A fixed total order of name-blind shapes: by rank, then by shape
  /// hash. Equal keys mean equal shapes or a hash collision, so they are
  /// compared structurally, children in print order. \returns <0, 0, >0.
  int compare(ir::TermId A, ir::TermId B) const {
    if (A == B)
      return 0;
    const ir::TermNode &NA = Ctx.Terms.node(A);
    const ir::TermNode &NB = Ctx.Terms.node(B);
    if (int R = rank(NA) - rank(NB); R != 0 || rank(NA) == 2)
      return R; // Every variable has one shape.
    if (NA.ShapeHash != NB.ShapeHash)
      return NA.ShapeHash < NB.ShapeHash ? -1 : 1;
    if (NA.Op != NB.Op)
      return NA.Op < NB.Op ? -1 : 1;
    if (NA.ConstVal != NB.ConstVal)
      return NA.ConstVal < NB.ConstVal ? -1 : 1;
    const size_t K = NA.Children.size(); // Same operator, same arity.
    const bool SwapA = swapped(NA), SwapB = swapped(NB);
    for (size_t I = 0; I < K; ++I)
      if (int C = compare(NA.Children[SwapA ? K - 1 - I : I],
                          NB.Children[SwapB ? K - 1 - I : I]))
        return C;
    return 0;
  }

  /// Whether \p N's operands print in reverse source order: N is
  /// commutative and its second operand's shape sorts first. Every
  /// commutative operator is binary (ir/Ops.cpp).
  bool swapped(const ir::TermNode &N) const {
    if (!Ctx.Ops.info(N.Op).Commutative)
      return false;
    assert(N.Children.size() == 2 && "commutative operators are binary");
    return compare(N.Children[1], N.Children[0]) < 0;
  }

  /// The canonical number of variable \p Op, handing out the next one on
  /// its first use. A GMA has few variables, so the search is linear.
  size_t varNumber(ir::OpId Op) {
    for (size_t I = 0; I < VarOps.size(); ++I)
      if (VarOps[I] == Op)
        return I;
    VarOps.push_back(Op);
    VarMap.emplace_back(Ctx.Ops.info(Op).Name,
                        "v" + std::to_string(VarOps.size() - 1));
    return VarOps.size() - 1;
  }

  const ir::Context &Ctx;
  std::string &Out;
  std::vector<std::pair<std::string, std::string>> &VarMap;
  std::vector<ir::OpId> VarOps; ///< Parallel to VarMap.
};

} // namespace

CanonicalGma denali::server::canonicalizeGma(const ir::Context &Ctx,
                                             const gma::GMA &G) {
  CanonicalGma C;
  C.Name = G.Name;
  C.Targets = G.Targets;

  Canonicalizer Canon(Ctx, C);
  // Same clause order as verify::printGma, so the canonical text is
  // itself a parseable GMA (useful for debugging and for exact-compare on
  // cache lookup).
  std::string &Out = C.Text;
  Out.reserve(256);
  Out = "(gma g";
  for (size_t I = 0; I < G.Targets.size(); ++I) {
    Out += "\n  (assign ";
    if (G.Targets[I] == "M") {
      Out += 'M';
    } else {
      Out += 'o';
      Canon.number(I);
    }
    Out += ' ';
    Canon.print(G.NewVals[I]);
    Out += ')';
  }
  if (G.Guard) {
    Out += "\n  (guard ";
    Canon.print(*G.Guard);
    Out += ')';
  }
  for (ir::TermId A : G.MissAddrs) {
    Out += "\n  (miss ";
    Canon.print(A);
    Out += ')';
  }
  for (const gma::GMA::Assumption &A : G.Assumptions) {
    Out += A.IsEq ? "\n  (assume eq " : "\n  (assume neq ";
    Canon.print(A.Lhs);
    Out += ' ';
    Canon.print(A.Rhs);
    Out += ')';
  }
  Out += ')';
  return C;
}
