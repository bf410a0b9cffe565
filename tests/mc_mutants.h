// Seeded-bug mutants for the model checker's mutation self-test.
//
// A checker that has only ever seen correct algorithms proves nothing
// about its own sensitivity.  Each mutant here plants one realistic bug
// of a distinct failure class into otherwise-faithful protocol code, and
// tests/model_check_test.cpp asserts that check_kex() reports exactly the
// expected property violation for each — so a regression that blinds any
// of the checker's properties (occupancy tracking, deadlock detection,
// the cleanliness probe) fails the suite even though every real catalog
// algorithm still verifies clean.
//
//   mutant_wide_bottom   off-by-one k: the bottom level of the inductive
//                        chain is built with capacity k+1 while the
//                        object claims k       → "occupancy"
//   mutant_leaky_abort   the cancel path forgets to return its slot
//                        (skips the X++ undo)  → "cleanliness" (leak)
//   mutant_silent_mcs    an MCS handoff lock whose release discovers its
//                        successor but never writes the grant
//                                              → "lost_wakeup" (deadlock)
//
// These are test fixtures, not algorithms: nothing outside the mutation
// self-test may instantiate them.
#pragma once

#include <vector>

#include "common/cacheline.h"
#include "common/check.h"
#include "kex/arena_layout.h"
#include "kex/cc_inductive.h"
#include "kex/handoff_queue.h"
#include "platform/cancel.h"
#include "platform/platform.h"

namespace kex::testing {

// Mutant A — off-by-one capacity in the bottom level gate.  Structurally
// the Theorem-1 chain (cc_level j = n-1 .. k+1 reused verbatim), but the
// final level is constructed with capacity k+1 while n()/k() still claim
// (n, k)-exclusion: k+1 processes can occupy the CS together.
template <Platform P>
class mutant_wide_bottom {
  using proc = typename P::proc;

 public:
  mutant_wide_bottom(int n, int k) : n_(n), k_(k) {
    KEX_CHECK_MSG(k >= 1 && n > k, "mutant_wide_bottom: need 1 <= k < n");
    levels_.reserve(static_cast<std::size_t>(n - k));
    for (int j = n - 1; j > k; --j) levels_.emplace_back(j);
    levels_.emplace_back(k + 1);  // the seeded bug: should be cc_level(k)
  }

  void acquire(proc& p) {
    for (auto& level : levels_) level.acquire(p);
  }
  void release(proc& p) {
    for (std::size_t i = levels_.size(); i > 0; --i)
      levels_[i - 1].release(p);
  }

  int n() const { return n_; }
  int k() const { return k_; }

 private:
  int n_, k_;
  packed_arena<cc_level<P>> levels_;  // the real chain's container
};

// Mutant B — abort path leaks its slot.  A single Figure-2 level of
// capacity k whose acquire_cancellable abandons the wait exactly like the
// real one (re-publishing Q so no later waiter wedges on the stale id)
// but skips the X++ that returns the decremented slot.  Every completed
// abort permanently burns one slot; the post-quiescence cleanliness probe
// then finds fewer than k acquirable slots.
template <Platform P>
class mutant_leaky_abort {
  using proc = typename P::proc;
  template <class T>
  using var = typename P::template var<T>;

 public:
  mutant_leaky_abort(int n, int k) : n_(n), k_(k), x_(k), q_(-1) {
    KEX_CHECK_MSG(k >= 1 && n == k + 1,
                  "mutant_leaky_abort: single level needs n == k + 1");
  }

  void acquire(proc& p) {
    if (x_.value.fetch_add(p, -1) == 0) {
      q_.value.write(p, p.id);
      q_.value.wake_one();
      if (x_.value.read(p) < 0) q_.value.await_while(p, p.id);
    }
  }

  bool acquire_cancellable(proc& p, cancel_token& tk) {
    if (x_.value.fetch_add(p, -1) == 0) {
      q_.value.write(p, p.id);
      q_.value.wake_one();
      if (x_.value.read(p) < 0) {
        const int me = p.id;
        auto v = q_.value.await_cancellable(
            p, [me](int q) { return q != me; }, tk);
        if (!v) {
          // The seeded bug: the real undo is x_++ THEN the Q write; the
          // decremented slot is never returned here.
          q_.value.write(p, p.id);
          q_.value.wake_one();
          return false;
        }
      }
    }
    return true;
  }

  void release(proc& p) {
    x_.value.fetch_add(p, 1);
    q_.value.write(p, p.id);
    q_.value.wake_one();
  }

  int n() const { return n_; }
  int k() const { return k_; }

 private:
  int n_, k_;
  padded<var<int>> x_;
  padded<var<int>> q_;
};

// Mutant C — dropped wake in the handoff queue.  A minimal MCS mutual-
// exclusion lock (k = 1) over the shared mcs_queue discipline whose
// release performs the successor discovery faithfully and then forgets
// the grant write: the successor stays parked on its own status word
// forever.  Under the model checker's blocking-await semantics that is a
// deadlock with the successor named in blocked_at_deadlock.
template <Platform P>
class mutant_silent_mcs {
  using proc = typename P::proc;
  using qnode = typename mcs_queue<P>::qnode;

 public:
  mutant_silent_mcs(int n, int k)
      : n_(n), k_(k), nodes_(static_cast<std::size_t>(n)) {
    KEX_CHECK_MSG(k == 1, "mutant_silent_mcs: mutual exclusion only");
    for (int pid = 0; pid < n; ++pid)
      nodes_[static_cast<std::size_t>(pid)].value.set_owner(pid);
  }

  void acquire(proc& p) {
    qnode& mine = nodes_[static_cast<std::size_t>(p.id)].value;
    if (queue_.enqueue(p, mine, /*pending=*/1) != nullptr)
      mine.status.await(p, [](int s) { return s == 0; });
  }

  void release(proc& p) {
    qnode& mine = nodes_[static_cast<std::size_t>(p.id)].value;
    qnode* s = queue_.successor(p, mine);
    // The seeded bug: the real handoff is s->status.write(p, 0) (+ wake);
    // the discovered successor is dropped on the floor instead.
    (void)s;
  }

  int n() const { return n_; }
  int k() const { return k_; }

 private:
  int n_, k_;
  mcs_queue<P> queue_;
  std::vector<padded<qnode>> nodes_;
};

}  // namespace kex::testing
