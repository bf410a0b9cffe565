// Cache-line geometry and padding helpers.
//
// The paper's cost model distinguishes local from remote memory references;
// on real hardware the analogous concern is false sharing, so no two
// objects' hot shared variables share a cache line.  Words that different
// processes or objects write independently get a line each via
// `padded<T>`; the words of one object that its users touch together (a
// Figure-2 chain's X/Q words, Figure 7's bits) are packed onto whole
// lines of their own instead (`packed_arena`, kex/arena_layout.h).
#pragma once

#include <cstddef>
#include <new>
#include <type_traits>
#include <utility>

namespace kex {

// A fixed 64 bytes (the value on every mainstream 64-bit target) rather
// than std::hardware_destructive_interference_size, whose value is
// tuning-flag dependent and therefore ABI-hazardous for a library header.
inline constexpr std::size_t cacheline_size = 64;

// A value occupying (at least) one full cache line, so that two adjacent
// `padded<T>` never share a line.  Used for spin locations and hot counters.
template <class T>
struct alignas(cacheline_size) padded {
  T value;

  padded() = default;
  template <class... Args>
  explicit padded(Args&&... args) : value(std::forward<Args>(args)...) {}

  T& operator*() noexcept { return value; }
  const T& operator*() const noexcept { return value; }
  T* operator->() noexcept { return &value; }
  const T* operator->() const noexcept { return &value; }
};

static_assert(sizeof(padded<char>) >= cacheline_size);

}  // namespace kex
