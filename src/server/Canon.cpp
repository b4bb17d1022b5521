//===- server/Canon.cpp ---------------------------------------------------===//

#include "server/Canon.h"

#include "support/StringExtras.h"

#include <algorithm>
#include <unordered_map>

using namespace denali;
using namespace denali::server;

namespace {

/// Builds canonical identity text for a GMA without interning anything.
/// Two passes over the same deterministic traversal order:
///   1. shape: a name-blind string per term, with commutative builtin
///      operands sorted by their child shapes (so the shape itself is
///      order-insensitive);
///   2. print: the canonical text, reusing the shape strings to order
///      commutative operands (stable — ties keep source order, which is
///      harmless: tied operands print identically) and handing out
///      v0, v1, ... variable names in first-use order.
class Canonicalizer {
public:
  explicit Canonicalizer(const ir::Context &Ctx) : Ctx(Ctx) {}

  const std::string &shape(ir::TermId T) {
    auto It = Shapes.find(T);
    if (It != Shapes.end())
      return It->second;
    const ir::TermNode &N = Ctx.Terms.node(T);
    std::string S;
    if (Ctx.Ops.isConst(N.Op)) {
      S = strFormat("#%llu", (unsigned long long)N.ConstVal);
    } else if (Ctx.Ops.isVariable(N.Op)) {
      S = "?";
    } else {
      std::vector<std::string> Kids;
      Kids.reserve(N.Children.size());
      for (ir::TermId C : N.Children)
        Kids.push_back(shape(C));
      if (Ctx.Ops.info(N.Op).Commutative)
        std::stable_sort(Kids.begin(), Kids.end());
      S = "(" + Ctx.Ops.info(N.Op).Name;
      for (const std::string &K : Kids)
        S += " " + K;
      S += ")";
    }
    return Shapes.emplace(T, std::move(S)).first->second;
  }

  void print(ir::TermId T, std::string &Out) {
    const ir::TermNode &N = Ctx.Terms.node(T);
    if (Ctx.Ops.isConst(N.Op)) {
      Out += strFormat("%llu", (unsigned long long)N.ConstVal);
      return;
    }
    if (Ctx.Ops.isVariable(N.Op)) {
      Out += canonVar(Ctx.Ops.info(N.Op).Name);
      return;
    }
    std::vector<size_t> Order(N.Children.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    if (Ctx.Ops.info(N.Op).Commutative)
      std::stable_sort(Order.begin(), Order.end(), [&](size_t A, size_t B) {
        return shape(N.Children[A]) < shape(N.Children[B]);
      });
    if (N.Children.empty()) {
      // Nullary declared op: prints bare, like a variable, but is not one.
      Out += Ctx.Ops.info(N.Op).Name;
      return;
    }
    Out += "(" + Ctx.Ops.info(N.Op).Name;
    for (size_t I : Order) {
      Out += " ";
      print(N.Children[I], Out);
    }
    Out += ")";
  }

  const std::string &canonVar(const std::string &Orig) {
    auto It = Vars.find(Orig);
    if (It != Vars.end())
      return It->second;
    std::string Canon = strFormat("v%zu", Vars.size());
    VarOrder.push_back(Orig);
    return Vars.emplace(Orig, std::move(Canon)).first->second;
  }

  std::vector<std::pair<std::string, std::string>> varMap() const {
    std::vector<std::pair<std::string, std::string>> Map;
    Map.reserve(VarOrder.size());
    for (const std::string &Orig : VarOrder)
      Map.emplace_back(Orig, Vars.at(Orig));
    return Map;
  }

private:
  const ir::Context &Ctx;
  std::unordered_map<ir::TermId, std::string> Shapes;
  std::unordered_map<std::string, std::string> Vars;
  std::vector<std::string> VarOrder;
};

} // namespace

CanonicalGma denali::server::canonicalizeGma(const ir::Context &Ctx,
                                             const gma::GMA &G) {
  CanonicalGma C;
  C.Name = G.Name;
  C.Targets = G.Targets;

  Canonicalizer Canon(Ctx);
  // Same clause order as verify::printGma, so the canonical text is
  // itself a parseable GMA (useful for debugging and for exact-compare on
  // cache lookup).
  std::string &Out = C.Text;
  Out = "(gma g";
  for (size_t I = 0; I < G.Targets.size(); ++I) {
    Out += strFormat("\n  (assign %s ", G.Targets[I] == "M"
                                            ? "M"
                                            : strFormat("o%zu", I).c_str());
    Canon.print(G.NewVals[I], Out);
    Out += ")";
  }
  if (G.Guard) {
    Out += "\n  (guard ";
    Canon.print(*G.Guard, Out);
    Out += ")";
  }
  for (ir::TermId A : G.MissAddrs) {
    Out += "\n  (miss ";
    Canon.print(A, Out);
    Out += ")";
  }
  for (const gma::GMA::Assumption &A : G.Assumptions) {
    Out += strFormat("\n  (assume %s ", A.IsEq ? "eq" : "neq");
    Canon.print(A.Lhs, Out);
    Out += " ";
    Canon.print(A.Rhs, Out);
    Out += ")";
  }
  Out += ")";
  C.VarMap = Canon.varMap();
  return C;
}

Key128 denali::server::makeKey(std::string_view CanonText,
                               std::string_view Fingerprint) {
  // Two independent FNV-1a streams with distinct offset bases, finalized
  // with splitmix64. Collisions are tolerable (lookups exact-compare the
  // canonical text); the key only has to spread well across shards.
  auto Mix = [](uint64_t X) {
    X += 0x9e3779b97f4a7c15ULL;
    X = (X ^ (X >> 30)) * 0xbf58476d1ce4e5b9ULL;
    X = (X ^ (X >> 27)) * 0x94d049bb133111ebULL;
    return X ^ (X >> 31);
  };
  uint64_t A = 0xcbf29ce484222325ULL;
  uint64_t B = 0x84222325cbf29ce4ULL;
  auto Feed = [&](std::string_view S) {
    for (unsigned char Ch : S) {
      A = (A ^ Ch) * 0x100000001b3ULL;
      B = (B ^ Ch) * 0x100000001b3ULL;
      B += B << 7;
    }
  };
  Feed(CanonText);
  Feed("\x1f"); // Separator: text and fingerprint cannot bleed together.
  Feed(Fingerprint);
  Key128 K;
  K.Hi = Mix(A);
  K.Lo = Mix(B);
  return K;
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
