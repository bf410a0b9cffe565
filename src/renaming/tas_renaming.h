// Figure 7's renaming core: long-lived renaming from test-and-set.
//
// Context (paper, Section 4): at most k processes concurrently hold names;
// each must obtain a unique name from exactly 0..k-1 and be able to release
// and re-obtain names repeatedly ("long-lived" — the first such algorithm).
// A process test-and-sets bits X[0], X[1], ... in order until one succeeds;
// bit j corresponds to name j.  The paper shows that if a process is about
// to test X[i], some j in i..k-1 has !X[j], so a process that has failed on
// X[0..k-2] may take name k-1 outright — at most one process ever reaches
// it, making a (k-1)-th bit unnecessary.  Releasing a name clears its bit.
// Cost: at most k remote references to obtain, one to release.
//
// Layout: the k-1 bits sit back to back in one line-aligned arena of their
// own (arena_layout.h).  Nobody spins on a bit and every scan walks the
// run from X[0], so the bits are one object's words, touched together; on
// the real platform a bit is 4 bytes and the run is one cache line for
// k <= 17.
//
// Correct use REQUIRES the caller to bound concurrency to k, e.g. by
// calling inside the critical section of an (N,k)-exclusion object — that
// combination is (N,k)-assignment (k_assignment.h).
#pragma once

#include <optional>

#include "common/check.h"
#include "kex/arena_layout.h"
#include "platform/cancel.h"
#include "platform/platform.h"
#include "primitives/ops.h"

namespace kex {

template <Platform P>
class tas_renaming {
  using proc = typename P::proc;
  template <class T>
  using var = typename P::template var<T>;

 public:
  explicit tas_renaming(int k) : k_(k) {
    KEX_CHECK_MSG(k >= 1, "tas_renaming requires k >= 1");
    bits_.reserve(static_cast<std::size_t>(k - 1));
    for (int i = 0; i < k - 1; ++i) bits_.emplace_back();
  }

  // Obtain a name in 0..k-1.  At most k processes may hold names at once.
  int get_name(proc& p) {
    int name = 0;
    while (name < k_ - 1 &&
           test_and_set<P>(bits_[static_cast<std::size_t>(name)], p)) {
      ++name;
    }
    return name;  // name == k-1 needs no bit: at most one process gets here
  }

  // Cancellable variant: consult the token (one tick) before each bit
  // probe.  Returns std::nullopt with no bit held when the token fires
  // mid-scan; a probe that already succeeded wins over a concurrent
  // cancellation (the name is held and returned — the caller releases it
  // like any other).  The scan holds at most zero bits between probes,
  // so there is nothing to undo on abort: the abort path costs zero
  // shared references.
  std::optional<int> try_get_name(proc& p, cancel_token& tk) {
    int name = 0;
    while (name < k_ - 1) {
      if (tk.tick()) return std::nullopt;
      if (!test_and_set<P>(bits_[static_cast<std::size_t>(name)], p))
        return name;
      ++name;
    }
    return name;  // k-1 needs no write; taking it costs nothing
  }

  // Release a previously-obtained name.
  void put_name(proc& p, int name) {
    KEX_CHECK_MSG(name >= 0 && name < k_, "put_name: name out of range");
    if (name < k_ - 1)
      clear_bit<P>(bits_[static_cast<std::size_t>(name)], p);
  }

  int k() const { return k_; }
  // Bit X[i], 0 <= i < k-1 (layout introspection).
  const var<int>& bit(int i) const {
    return bits_[static_cast<std::size_t>(i)];
  }

 private:
  int k_;
  packed_arena<var<int>> bits_;  // X[0..k-2], bit j guards name j
};

}  // namespace kex
