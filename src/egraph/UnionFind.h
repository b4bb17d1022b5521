//===- egraph/UnionFind.h - Union-find over dense ids -----------*- C++ -*-===//
///
/// \file
/// Union-find with path compression and union by size, over dense uint32
/// ids. Used by the E-graph's equivalence relation on classes.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_EGRAPH_UNIONFIND_H
#define DENALI_EGRAPH_UNIONFIND_H

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

namespace denali {
namespace egraph {

class UnionFind {
public:
  /// Creates a fresh singleton set and returns its id.
  uint32_t makeSet() {
    uint32_t Id = static_cast<uint32_t>(Parent.size());
    Parent.push_back(Id);
    Size.push_back(1);
    return Id;
  }

  uint32_t find(uint32_t X) const {
    assert(X < Parent.size() && "bad id");
    while (Parent[X] != X) {
      // Path halving (works with a const table since we only ever shortcut
      // to an ancestor; Parent is mutable). The write is skipped when it
      // would not shorten the path, so after compressAll() a find() is
      // purely a read and concurrent find() calls do not race.
      uint32_t P = Parent[X];
      uint32_t GP = Parent[P];
      if (GP != P)
        Parent[X] = GP;
      X = GP;
    }
    return X;
  }

  /// Fully compresses every path: afterwards (and until the next unite)
  /// find() performs no writes, making concurrent find() calls from many
  /// threads safe. The driver runs this on every saturated E-graph
  /// (EGraph::compressPaths()).
  void compressAll() const {
    for (size_t I = 0; I < Parent.size(); ++I)
      Parent[I] = find(static_cast<uint32_t>(I));
  }

  /// Unions the sets of \p A and \p B; \returns the surviving root
  /// (the larger set's root).
  uint32_t unite(uint32_t A, uint32_t B) {
    A = find(A);
    B = find(B);
    if (A == B)
      return A;
    if (Size[A] < Size[B])
      std::swap(A, B);
    Parent[B] = A;
    Size[A] += Size[B];
    return A;
  }

  bool sameSet(uint32_t A, uint32_t B) const { return find(A) == find(B); }
  size_t size() const { return Parent.size(); }

private:
  mutable std::vector<uint32_t> Parent;
  std::vector<uint32_t> Size;
};

} // namespace egraph
} // namespace denali

#endif // DENALI_EGRAPH_UNIONFIND_H
