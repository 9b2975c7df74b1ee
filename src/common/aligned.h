// Aligned allocation support for SIMD-hot arrays.
#pragma once

#include <cstdlib>
#include <limits>
#include <memory>
#include <new>
#include <type_traits>
#include <vector>

#include "common/types.h"

namespace sarbp {

/// Minimal C++17 aligned allocator. All hot arrays (pulse samples, image
/// tiles, ASR tables) are allocated with 64-byte alignment so that AVX-512
/// loads/stores never split cache lines.
template <class T, std::size_t Alignment = kSimdAlign>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t kAlign{Alignment};

  AlignedAllocator() noexcept = default;
  template <class U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n > std::numeric_limits<std::size_t>::max() / sizeof(T)) {
      throw std::bad_array_new_length();
    }
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }

  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }

  template <class U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// Vector with 64-byte-aligned storage.
template <class T>
using AlignedVector = std::vector<T, AlignedAllocator<T>>;

struct AlignedDelete {
  void operator()(void* p) const noexcept {
    ::operator delete(p, std::align_val_t{kSimdAlign});
  }
};

/// Fixed-size 64-byte-aligned array whose elements start uninitialized —
/// for buffers written in full before they are read, where AlignedVector's
/// zero fill would be wasted work.
template <class T>
using AlignedArray = std::unique_ptr<T[], AlignedDelete>;

template <class T>
[[nodiscard]] AlignedArray<T> make_aligned_array(std::size_t n) {
  static_assert(std::is_trivially_default_constructible_v<T> &&
                std::is_trivially_destructible_v<T>);
  return AlignedArray<T>(static_cast<T*>(AlignedAllocator<T>().allocate(n)));
}

}  // namespace sarbp
