#pragma once
// Vectors for buffers that a later pass overwrites completely.
//
// std::vector::resize value-initializes every new element on the calling
// thread.  For a window buffer of megabytes that is a serial fill, and the
// first touch of every fresh page, ahead of the compute-executor pass that
// writes each element anyway.  An OverwriteVector leaves its new elements
// as the allocation left them, as std::make_unique_for_overwrite does for
// arrays, so the executor chunk that writes an element is the first to
// touch its page.

#include <cstddef>
#include <memory>
#include <type_traits>
#include <utility>
#include <vector>

namespace gsnp {

/// std::allocator, except that its argument-less construct() leaves a
/// trivially copyable element unspecified, its default member initializers
/// included (such a type is an implicit-lifetime type: the allocation
/// created it), and default-initializes any other element.
template <typename T>
struct ForOverwriteAllocator {
  using value_type = T;

  ForOverwriteAllocator() noexcept = default;
  template <typename U>
  ForOverwriteAllocator(const ForOverwriteAllocator<U>&) noexcept {}

  T* allocate(std::size_t n) { return std::allocator<T>().allocate(n); }
  void deallocate(T* p, std::size_t n) noexcept {
    std::allocator<T>().deallocate(p, n);
  }

  template <typename U>
  void construct(U* p) noexcept(std::is_nothrow_default_constructible_v<U>) {
    if constexpr (!std::is_trivially_copyable_v<U>)
      ::new (static_cast<void*>(p)) U;
  }
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    std::construct_at(p, std::forward<Args>(args)...);
  }

  friend bool operator==(const ForOverwriteAllocator&,
                         const ForOverwriteAllocator&) noexcept {
    return true;
  }
};

/// A vector whose resize() and size constructor leave the new elements
/// unspecified: its owner writes each element before reading it.
template <typename T>
using OverwriteVector = std::vector<T, ForOverwriteAllocator<T>>;

}  // namespace gsnp
