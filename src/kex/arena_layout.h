// Spin-variable arenas: deliberate memory layout for the algorithms' hot
// state.
//
// The paper's local-spin discipline earns nothing on real hardware if the
// spin variables it so carefully assigns to processes end up scattered
// across the heap, sharing interference-sized lines with strangers.  The
// containers here put every hot word exactly where the analysis assumes
// it lives, by one rule: words of ONE object that its users touch
// together are packed onto as few lines as possible; distinct objects
// never share a line.
//
//   * `arena_vector<T>` — a fixed-capacity contiguous sequence of
//     non-movable elements (DSM levels, tree blocks, stages, shards),
//     each placed at a cacheline-aligned offset of ONE allocation, so no
//     two elements share a line.  For elements that are objects in their
//     own right, touched by different processes at different times.
//
//   * `packed_arena<T>` — the same container with a dense stride: the
//     elements sit back to back (sizeof(T) apart) in one line-aligned
//     allocation sized up to whole lines.  For the words of one object
//     that every user walks in sequence: the X/Q words of a Figure-2
//     chain (a (2k,k) block, k <= 8, is one line on the real platform)
//     and Figure 7's renaming bits.  Each such object owns its lines
//     outright, so packing within it never puts it on a stranger's line.
//
//   * `spin_matrix<P, T>` — the per-process spin-location arrays of the
//     DSM algorithms (the paper's P[p][v] / R[p][v]) as a pids × slots
//     matrix in one allocation, each process's row starting on its own
//     interference-size boundary.  A process's spin words are contiguous
//     (one or two lines it truly owns) and no two processes' rows ever
//     share a line — the false-sharing analogue of the DSM ownership the
//     algorithms already declare via set_owner().
//
// NUMA note: within one allocation, physical node placement follows the
// kernel's first-touch/interleave policy at page granularity.  What the
// arena guarantees is *grouping* — a process's words are adjacent, and
// with the `numa` pin policy adjacent pids sit on the same node, so a
// row's pages are touched (and thus placed) by threads of one node.
//
// No container performs platform-variable accesses; on the simulated
// platform RMR accounting is keyed on variable identity, so moving a var
// into an arena, or packing it next to another, cannot change any count
// (asserted by rmr_bounds_test's exact pinned values and
// tests/topology_test.cpp's stepped replays).
#pragma once

#include <cstddef>
#include <cstdint>
#include <new>
#include <type_traits>
#include <utility>

#include "common/cacheline.h"
#include "common/check.h"
#include "platform/platform.h"

namespace kex {

inline constexpr std::size_t round_up_to_line(std::size_t bytes) {
  return (bytes + cacheline_size - 1) / cacheline_size * cacheline_size;
}

// How an arena spaces its elements: one line (or more) each, or densely.
enum class arena_stride { line, packed };

// Fixed-capacity contiguous container of non-movable elements, placement-
// new'd at `stride()` intervals in a single allocation that starts on a
// line boundary and is sized up to whole lines.  With the default `line`
// stride (sizeof(T) rounded up to the interference size) adjacent elements
// never share a cache line; with `packed` (sizeof(T)) they sit back to
// back.  reserve() once, emplace_back() up to capacity; elements are never
// moved or copied.
template <class T, arena_stride S = arena_stride::line>
class arena_vector {
 public:
  arena_vector() = default;
  explicit arena_vector(std::size_t capacity) { reserve(capacity); }

  arena_vector(const arena_vector&) = delete;
  arena_vector& operator=(const arena_vector&) = delete;
  arena_vector(arena_vector&& o) noexcept
      : raw_(std::exchange(o.raw_, nullptr)),
        capacity_(std::exchange(o.capacity_, 0)),
        size_(std::exchange(o.size_, 0)) {}
  arena_vector& operator=(arena_vector&& o) noexcept {
    if (this != &o) {
      destroy();
      raw_ = std::exchange(o.raw_, nullptr);
      capacity_ = std::exchange(o.capacity_, 0);
      size_ = std::exchange(o.size_, 0);
    }
    return *this;
  }
  ~arena_vector() { destroy(); }

  static constexpr std::size_t stride() {
    return S == arena_stride::line ? round_up_to_line(sizeof(T)) : sizeof(T);
  }
  static constexpr std::size_t alignment() {
    return alignof(T) > cacheline_size ? alignof(T) : cacheline_size;
  }
  // Bytes the arena allocates for `capacity` elements: whole lines.
  static constexpr std::size_t footprint(std::size_t capacity) {
    return round_up_to_line(capacity * stride());
  }

  // Allocate the arena.  May be called once, before any emplace_back.
  void reserve(std::size_t capacity) {
    KEX_CHECK_MSG(raw_ == nullptr, "arena_vector: reserve() called twice");
    if (capacity == 0) return;
    raw_ = static_cast<std::byte*>(::operator new(
        footprint(capacity), std::align_val_t{alignment()}));
    capacity_ = capacity;
  }

  template <class... Args>
  T& emplace_back(Args&&... args) {
    KEX_CHECK_MSG(size_ < capacity_, "arena_vector: capacity exceeded");
    T* slot = new (raw_ + size_ * stride()) T(std::forward<Args>(args)...);
    ++size_;
    return *slot;
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }

  T& operator[](std::size_t i) {
    return *std::launder(reinterpret_cast<T*>(raw_ + i * stride()));
  }
  const T& operator[](std::size_t i) const {
    return *std::launder(reinterpret_cast<const T*>(raw_ + i * stride()));
  }

  // Minimal strided forward iteration (enough for range-for).
  template <class U>
  class iter {
   public:
    iter(std::byte* p) : p_(p) {}
    U& operator*() const {
      return *std::launder(reinterpret_cast<U*>(p_));
    }
    iter& operator++() {
      p_ += stride();
      return *this;
    }
    bool operator!=(const iter& o) const { return p_ != o.p_; }
    bool operator==(const iter& o) const { return p_ == o.p_; }

   private:
    std::byte* p_;
  };
  using iterator = iter<T>;
  using const_iterator = iter<const T>;

  iterator begin() { return iterator(raw_); }
  iterator end() { return iterator(raw_ + size_ * stride()); }
  const_iterator begin() const { return const_iterator(raw_); }
  const_iterator end() const { return const_iterator(raw_ + size_ * stride()); }

 private:
  void destroy() {
    for (std::size_t i = size_; i > 0; --i) (*this)[i - 1].~T();
    if (raw_ != nullptr)
      ::operator delete(raw_, std::align_val_t{alignment()});
    raw_ = nullptr;
    capacity_ = size_ = 0;
  }

  std::byte* raw_ = nullptr;
  std::size_t capacity_ = 0;
  std::size_t size_ = 0;
};

// The dense variant: one object's hot words, back to back on whole lines.
template <class T>
using packed_arena = arena_vector<T, arena_stride::packed>;

// pids × slots matrix of platform variables, one allocation, one
// interference-aligned row per pid.  Every variable in row `pid` is
// declared DSM-owned by `pid` (the algorithms previously called
// set_owner() cell by cell).  Row stride is the slot span rounded up to
// the interference size, so distinct pids never share a line.
template <Platform P, class T>
class spin_matrix {
  using var_t = typename P::template var<T>;

 public:
  spin_matrix(int pids, int slots, T init = T{})
      : pids_(pids), slots_(slots), row_stride_(row_stride(slots)) {
    KEX_CHECK_MSG(pids >= 1 && slots >= 1, "spin_matrix: bad shape");
    raw_ = static_cast<std::byte*>(::operator new(
        static_cast<std::size_t>(pids) * row_stride_,
        std::align_val_t{cacheline_size}));
    for (int pid = 0; pid < pids; ++pid)
      for (int slot = 0; slot < slots; ++slot) {
        var_t* v = new (cell_ptr(pid, slot)) var_t(init);
        v->set_owner(pid);
      }
  }

  spin_matrix(const spin_matrix&) = delete;
  spin_matrix& operator=(const spin_matrix&) = delete;

  ~spin_matrix() {
    for (int pid = pids_; pid > 0; --pid)
      for (int slot = slots_; slot > 0; --slot)
        at(pid - 1, slot - 1).~var_t();
    ::operator delete(raw_, std::align_val_t{cacheline_size});
  }

  var_t& at(int pid, int slot) {
    return *std::launder(reinterpret_cast<var_t*>(cell_ptr(pid, slot)));
  }
  const var_t& at(int pid, int slot) const {
    return *std::launder(
        reinterpret_cast<const var_t*>(cell_ptr(pid, slot)));
  }
  var_t& at(std::uint32_t pid, std::uint32_t slot) {
    return at(static_cast<int>(pid), static_cast<int>(slot));
  }

  int pids() const { return pids_; }
  int slots() const { return slots_; }

  // Layout introspection (the alignment tests key on these).
  static std::size_t row_stride(int slots) {
    return round_up_to_line(static_cast<std::size_t>(slots) *
                            sizeof(var_t));
  }
  const void* row_address(int pid) const {
    return raw_ + static_cast<std::size_t>(pid) * row_stride_;
  }

 private:
  std::byte* cell_ptr(int pid, int slot) const {
    return raw_ + static_cast<std::size_t>(pid) * row_stride_ +
           static_cast<std::size_t>(slot) * sizeof(var_t);
  }

  int pids_;
  int slots_;
  std::size_t row_stride_;
  std::byte* raw_ = nullptr;
};

}  // namespace kex
