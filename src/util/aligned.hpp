// Cache-line-aligned storage for the SoA batch kernels.
//
// The batched allocator lays per-node quantities out as [node][lane]
// planes. Aligning to a 64-byte cache line, together with a lane stride
// rounded up to kDoublesPerCacheLine, makes EVERY row of every plane
// start on a cache line, so the vectorized row loops never split a
// vector across two lines.
#pragma once

#include <cstddef>
#include <new>
#include <vector>

namespace fap::util {

inline constexpr std::size_t kCacheLineBytes = 64;
inline constexpr std::size_t kDoublesPerCacheLine =
    kCacheLineBytes / sizeof(double);

/// Minimal allocator handing out `Alignment`-aligned blocks via the
/// aligned operator new (C++17). Stateless, so vectors using it swap and
/// move exactly like std::vector<double>.
template <class T, std::size_t Alignment>
struct AlignedAllocator {
  static_assert((Alignment & (Alignment - 1)) == 0,
                "alignment must be a power of two");
  static_assert(Alignment >= alignof(T), "alignment below the type's own");

  using value_type = T;

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  T* allocate(std::size_t n) {
    return static_cast<T*>(
        ::operator new(n * sizeof(T), std::align_val_t(Alignment)));
  }
  void deallocate(T* p, std::size_t) noexcept {
    ::operator delete(p, std::align_val_t(Alignment));
  }

  friend bool operator==(const AlignedAllocator&,
                         const AlignedAllocator&) noexcept {
    return true;
  }
};

/// A std::vector<double> whose data() is 64-byte aligned.
using AlignedVector = std::vector<double, AlignedAllocator<double, kCacheLineBytes>>;

}  // namespace fap::util
