//===- support/StableVector.h - Append-only array that never moves -*- C++ -*-===//
///
/// \file
/// An append-only array whose elements stay where they were constructed.
/// Storage is a fixed table of segments that double in size (256, 512,
/// 1024, ... elements), so growing never copies or frees what a reader may
/// be looking at, and the table itself never moves either.
///
/// Concurrency: one writer at a time appends (the caller serializes
/// writers). Readers need no lock: size() is an acquire load of the count
/// the writer publishes with a release store after constructing the new
/// element, so every index below a size() a reader saw is safe to read,
/// and so is any index the reader learned through other synchronization
/// (a mutex, a queue) after the writer appended it.
///
/// Peak memory matches std::vector's growth (at most twice the live
/// elements, plus the first segment) without vector's copy-on-grow, when
/// the old and new buffers are both live.
///
//===----------------------------------------------------------------------===//

#ifndef DENALI_SUPPORT_STABLEVECTOR_H
#define DENALI_SUPPORT_STABLEVECTOR_H

#include <atomic>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <new>
#include <utility>

namespace denali {

template <typename T> class StableVector {
  static constexpr unsigned FirstShift = 8; ///< 256 elements in segment 0.
  static constexpr size_t FirstSize = size_t(1) << FirstShift;
  static constexpr unsigned MaxSegments = 40;

public:
  StableVector() = default;
  StableVector(const StableVector &) = delete;
  StableVector &operator=(const StableVector &) = delete;
  ~StableVector() {
    size_t N = Size.load(std::memory_order_relaxed);
    for (size_t I = 0; I < N; ++I)
      (*this)[I].~T();
    for (T *S : Segments)
      ::operator delete(S, std::align_val_t(alignof(T)));
  }

  size_t size() const { return Size.load(std::memory_order_acquire); }
  bool empty() const { return size() == 0; }

  const T &operator[](size_t I) const { return at(I); }
  T &operator[](size_t I) { return at(I); }

  /// Appends \p V; the caller serializes appends. \returns the new index.
  size_t push_back(T V) {
    size_t I = Size.load(std::memory_order_relaxed);
    auto [Seg, Off] = locate(I);
    T *&Base = Segments[Seg];
    if (!Base) {
      assert(Seg < MaxSegments && "StableVector is full");
      Base = static_cast<T *>(::operator new(
          sizeof(T) * (size_t(1) << (FirstShift + Seg)),
          std::align_val_t(alignof(T))));
    }
    new (Base + Off) T(std::move(V));
    Size.store(I + 1, std::memory_order_release);
    return I;
  }

private:
  T &at(size_t I) const {
    if (I < FirstSize) // Most lookups: builtin operators, early terms.
      return Segments[0][I];
    auto [Seg, Off] = locate(I);
    return Segments[Seg][Off];
  }

  /// Segment k holds indices [F (2^k - 1), F (2^(k+1) - 1)), F = FirstSize.
  static std::pair<unsigned, size_t> locate(size_t I) {
    size_t Biased = (I >> FirstShift) + 1;
    unsigned Seg = static_cast<unsigned>(std::bit_width(Biased)) - 1;
    size_t Start = ((size_t(1) << Seg) - 1) << FirstShift;
    return {Seg, I - Start};
  }

  /// Plain pointers: a segment's pointer is written once, before any
  /// element in it is published, so a reader that may read an element
  /// also sees its segment.
  T *Segments[MaxSegments] = {};
  std::atomic<size_t> Size{0};
};

} // namespace denali

#endif // DENALI_SUPPORT_STABLEVECTOR_H
