//===- egraph/HashIndex.h - Open-addressing index of ids --------*- C++ -*-===//
///
/// \file
/// An open-addressing hash index of 32-bit ids whose keys live elsewhere:
/// the owner hashes a key and supplies the equality test for the ids a
/// probe meets. Linear probing, backward-shift deletion, load at most 1/2;
/// nothing is allocated per entry. The e-graph's hash-cons files node ids
/// under their stored keys, and the matcher's done set files the arena
/// offsets of its (axiom, bindings) keys.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_EGRAPH_HASHINDEX_H
#define DENALI_EGRAPH_HASHINDEX_H

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace denali {
namespace egraph {

/// Folds a 64-bit key hash into 32 well-mixed bits (MurmurHash3's fmix64):
/// the index probes from the low bits.
inline uint32_t finishHash(uint64_t H) {
  H ^= H >> 33;
  H *= 0xff51afd7ed558ccdull;
  H ^= H >> 33;
  H *= 0xc4ceb9fe1a85ec53ull;
  H ^= H >> 33;
  return static_cast<uint32_t>(H);
}

class HashIndex {
public:
  static constexpr uint32_t None = ~0u;

  /// The id filed under \p Hash for which \p Eq(id) holds, or None.
  template <typename EqFn> uint32_t find(uint32_t Hash, EqFn Eq) const {
    if (Slots.empty())
      return None;
    const size_t Mask = Slots.size() - 1;
    for (size_t I = Hash & Mask; Slots[I].Id != None; I = (I + 1) & Mask)
      if (Slots[I].Hash == Hash && Eq(Slots[I].Id))
        return Slots[I].Id;
    return None;
  }

  /// Files \p Id under \p Hash; the caller ensures no equal key is filed.
  void insert(uint32_t Hash, uint32_t Id) {
    if ((Count + 1) * 2 > Slots.size()) {
      std::vector<Slot> Old(std::max<size_t>(64, Slots.size() * 2));
      Old.swap(Slots);
      for (const Slot &S : Old)
        if (S.Id != None)
          place(S);
    }
    place(Slot{Hash, Id});
    ++Count;
  }

  /// Removes \p Id from \p Hash's probe run, if it is there.
  void erase(uint32_t Hash, uint32_t Id) {
    if (Slots.empty())
      return;
    const size_t Mask = Slots.size() - 1;
    size_t I = Hash & Mask;
    while (Slots[I].Id != Id) {
      if (Slots[I].Id == None)
        return;
      I = (I + 1) & Mask;
    }
    // Backward-shift deletion: pull each later entry of the run into the
    // hole unless its home slot lies cyclically after the hole.
    for (size_t J = (I + 1) & Mask; Slots[J].Id != None; J = (J + 1) & Mask)
      if (((J - Slots[J].Hash) & Mask) >= ((J - I) & Mask)) {
        Slots[I] = Slots[J];
        I = J;
      }
    Slots[I] = Slot();
    --Count;
  }

private:
  struct Slot {
    uint32_t Hash = 0;
    uint32_t Id = None;
  };
  std::vector<Slot> Slots; ///< Power-of-two size, or empty.
  size_t Count = 0;

  void place(const Slot &S) {
    const size_t Mask = Slots.size() - 1;
    size_t I = S.Hash & Mask;
    while (Slots[I].Id != None)
      I = (I + 1) & Mask;
    Slots[I] = S;
  }
};

} // namespace egraph
} // namespace denali

#endif // DENALI_EGRAPH_HASHINDEX_H
