//===- server/Canon.cpp ---------------------------------------------------===//

#include "server/Canon.h"

#include "support/StringExtras.h"

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

namespace {

/// Two independent FNV-1a streams with distinct offset bases.
void feed(uint64_t &A, uint64_t &B, std::string_view S) {
  for (unsigned char Ch : S) {
    A = (A ^ Ch) * 0x100000001b3ULL;
    B = (B ^ Ch) * 0x100000001b3ULL;
    B += B << 7;
  }
}

/// The splitmix64 finalizer.
uint64_t mix(uint64_t X) {
  X += 0x9e3779b97f4a7c15ULL;
  X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
  X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
  return X ^ (X >> 31);
}

} // namespace

KeySeed::KeySeed(std::string_view Fingerprint) {
  feed(A, B, Fingerprint);
  feed(A, B, "\x1f"); // Separator: fingerprint and text cannot bleed.
}

Key128 KeySeed::key(std::string_view CanonText) const {
  // Collisions are tolerable (lookups exact-compare the canonical text);
  // the key only has to spread well across shards.
  uint64_t KA = A, KB = B;
  feed(KA, KB, CanonText);
  return Key128{mix(KA), mix(KB)};
}

Key128 denali::server::makeKey(std::string_view CanonText,
                               std::string_view Fingerprint) {
  return KeySeed(Fingerprint).key(CanonText);
}

std::string denali::server::matchFingerprint(const driver::Options &Opts) {
  // The fingerprint logic lives in the driver (the profile ledger keys
  // off the same identity and src/obs cannot see src/server); the server
  // keeps this alias so its cache-key derivation reads locally.
  return driver::matchOptionsFingerprint(Opts);
}

std::string denali::server::resultFingerprint(const driver::Options &Opts) {
  const codegen::SearchOptions &S = Opts.Search;
  return matchFingerprint(Opts) +
         strFormat("|fresh=%d;min=%u;max=%u;confl=%llu;"
                   "cnf=%s;cert=%d;xunsat=%d;amo=%d;single=%d;"
                   "explain=%d;dump=%d;why=%d",
                   S.FreshPerK ? 1 : 0, S.MinCycles, S.MaxCycles,
                   (unsigned long long)S.ConflictBudget,
                   S.DumpCnfDir.c_str(), S.CertifyRefutations ? 1 : 0,
                   S.ExplainUnsat ? 1 : 0,
                   static_cast<int>(S.Encoding.AmoStyle),
                   S.Encoding.SingleCluster ? 1 : 0, Opts.Explain ? 1 : 0,
                   Opts.EGraphDump ? 1 : 0, Opts.WhyUnsat ? 1 : 0);
}
