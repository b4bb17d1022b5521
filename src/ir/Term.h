//===- ir/Term.h - Hash-consed term DAG -------------------------*- C++ -*-===//
///
/// \file
/// Immutable, hash-consed terms. A TermId is an index into the owning
/// Context's TermTable; structurally equal terms always receive the same
/// TermId, so term DAGs share subterms maximally. The GMA composer builds
/// goal terms here; the E-graph is seeded from them.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_IR_TERM_H
#define DENALI_IR_TERM_H

#include "ir/Ops.h"
#include "support/StableVector.h"

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <initializer_list>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <unordered_set>
#include <vector>

namespace denali {
namespace ir {

using TermId = uint32_t;

/// One interned term: an operator applied to child terms, with a payload
/// for constants.
struct TermNode {
  OpId Op = 0;
  std::vector<TermId> Children;
  uint64_t ConstVal = 0; ///< Meaningful only when Op is Builtin::Const.
  /// Hash of the term's name-blind shape, computed once when the term is
  /// interned: every variable hashes alike, and the operands of a
  /// commutative operator combine in an order-free way, so alpha-renamed
  /// and operand-commuted terms hash alike. The compile server orders
  /// commutative operands by it (server/Canon.cpp).
  uint64_t ShapeHash = 0;
};

/// The intern table for terms. Owned by Context.
///
/// Interning is serialized by the caller (the compile server's front-end
/// lock), but node() and size() may be read concurrently with it: nodes
/// live in a StableVector, so an append never moves a node another thread
/// is reading.
class TermTable {
public:
  explicit TermTable(OpTable &Ops);
  TermTable(const TermTable &) = delete;
  TermTable &operator=(const TermTable &) = delete;

  /// Interns op(children...). Asserts the arity matches. A term that is
  /// already interned is found without copying \p Children.
  TermId make(OpId Op, std::span<const TermId> Children);
  TermId make(OpId Op, std::initializer_list<TermId> Children) {
    return make(Op, std::span<const TermId>(Children.begin(),
                                            Children.size()));
  }

  /// Interns the constant \p Value.
  TermId makeConst(uint64_t Value);

  /// Interns (declaring if necessary) the variable \p Name.
  TermId makeVar(std::string_view Name);

  const TermNode &node(TermId Id) const {
    assert(Id < Nodes.size() && "bad TermId");
    return Nodes[Id];
  }
  size_t size() const { return Nodes.size(); }

  bool isConst(TermId Id) const { return Ops.isConst(node(Id).Op); }
  bool isVariable(TermId Id) const { return Ops.isVariable(node(Id).Op); }

  /// Builtin convenience builders used throughout the translator.
  TermId makeBuiltin(Builtin B, std::span<const TermId> Children) {
    return make(Ops.builtin(B), Children);
  }
  TermId makeBuiltin(Builtin B, std::initializer_list<TermId> Children) {
    return make(Ops.builtin(B), Children);
  }

  /// Replaces every occurrence of variables per \p Subst (variable OpId ->
  /// replacement term). Terms not mentioned map to themselves. Results are
  /// interned; repeated subterms are rewritten once.
  TermId substitute(TermId Root,
                    const std::unordered_map<OpId, TermId> &Subst);

  /// Renders \p Id as an S-expression-style string.
  std::string toString(TermId Id) const;

  OpTable &ops() { return Ops; }
  const OpTable &ops() const { return Ops; }

private:
  /// A term as make() looks it up: nothing is copied until it is new.
  struct KeyView {
    OpId Op;
    std::span<const TermId> Children;
    uint64_t ConstVal;
  };
  static size_t keyHash(const KeyView &K);
  KeyView keyOf(TermId Id) const {
    const TermNode &N = node(Id);
    return KeyView{N.Op, N.Children, N.ConstVal};
  }

  /// The intern set holds ids and hashes them through the table, so a
  /// lookup by KeyView needs no Key object.
  struct IdHash {
    using is_transparent = void;
    const TermTable *T;
    size_t operator()(TermId Id) const { return keyHash(T->keyOf(Id)); }
    size_t operator()(const KeyView &K) const { return keyHash(K); }
  };
  struct IdEq {
    using is_transparent = void;
    const TermTable *T;
    bool operator()(TermId A, TermId B) const { return A == B; }
    bool operator()(const KeyView &K, TermId Id) const {
      const TermNode &N = T->node(Id);
      return K.Op == N.Op && K.ConstVal == N.ConstVal &&
             std::equal(K.Children.begin(), K.Children.end(),
                        N.Children.begin(), N.Children.end());
    }
    bool operator()(TermId Id, const KeyView &K) const {
      return (*this)(K, Id);
    }
  };

  OpTable &Ops;
  StableVector<TermNode> Nodes;
  std::unordered_set<TermId, IdHash, IdEq> Interned;

  TermId intern(const KeyView &K);
  uint64_t shapeHash(const KeyView &K) const;
};

/// A Context bundles the operator and term tables that all phases share.
struct Context {
  OpTable Ops;
  TermTable Terms;

  Context() : Terms(Ops) {}
  Context(const Context &) = delete;
  Context &operator=(const Context &) = delete;
};

} // namespace ir
} // namespace denali

#endif // DENALI_IR_TERM_H
