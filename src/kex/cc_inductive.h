// Figure 2: (N,k)-exclusion for cache-coherent machines, and its inductive
// composition (Theorem 1).
//
// One `cc_level<P>` is the body of Figure 2 for a single k: assuming at
// most j+1 processes are concurrently inside (guaranteed by an enclosing
// (N,j+1)-exclusion, or trivially at the basis j = N-1), it admits at most
// j of them.  The level uses a slot counter X (initially j) and a single
// spin word Q holding the id of the (at most one) waiting process:
//
//     1: Acquire(N, j+1)                      — provided by the caller
//     2: if fetch_and_increment(X,-1) = 0 then
//     3:     Q := p
//     4:     if X < 0 then
//     5:         while Q = p do /* spin */
//        Critical Section
//     6: fetch_and_increment(X, 1)
//     7: Q := p                               — releases the waiter, if any
//     8: Release(N, j+1)
//
// `cc_inductive<P>` chains levels j = N-1, N-2, ..., k (acquired in that
// order, released in reverse), realizing Theorem 1: (N,k)-exclusion with at
// most 7(N-k) remote references per acquisition on a cache-coherent
// machine, tolerating up to k-1 process failures.
//
// Layout: a level is just its two words, X and Q — its capacity j follows
// from its position in the chain — and the chain packs all of them into
// one line-aligned arena of its own (arena_layout.h).  On the real
// platform a level is 8 bytes, so a (2k,k) block, the 7k term of Theorems
// 2 and 3, is one cache line for k <= 8: a process walking the block moves
// one line, not 2k.  The paper charges per variable, and so does the sim
// platform, so the packing changes no count.
//
// The algorithm never needs to know the identities of participating
// processes in advance — only that at most `concurrency` of them are inside
// simultaneously.  That property (noted in the paper) is what lets a
// (2k,k) instance serve as the building block of the tree (tree_kex.h) and
// fast-path (fast_path.h) compositions, where arbitrary subsets of the N
// processes flow through each block.
#pragma once

#include "common/check.h"
#include "kex/arena_layout.h"
#include "platform/cancel.h"
#include "platform/platform.h"

namespace kex {

template <Platform P>
class cc_level {
  using proc = typename P::proc;
  template <class T>
  using var = typename P::template var<T>;

 public:
  // A level admitting at most `j` processes, assuming at most j+1 enter.
  // `j` is only X's initial value; the level does not store it.
  explicit cc_level(int j) : x_(j), q_(-1) {
    KEX_CHECK_MSG(j >= 1, "cc_level capacity must be >= 1");
  }

  void acquire(proc& p) {
    if (x_.fetch_add(p, -1) == 0) {               // 2: no slot available
      q_.write(p, p.id);                          // 3: register as waiter
      q_.wake_one();  // the write may have un-named a parked waiter
      if (x_.read(p) < 0) {                       // 4: still none — wait
        q_.await_while(p, p.id);                  // 5: local spin
      }
    }
  }

  // Cancellable acquire: returns false iff the wait on Q was abandoned
  // because `tk` fired, in which case the level is restored exactly as a
  // release would leave it and nothing is held.
  //
  // The abort path IS the release sequence (statements 6-7): the aborter
  // decremented X at statement 2 and registered as the waiter, so it
  // occupies the level's overflow slot exactly like a holder does, and
  // returning it is the same protocol action.  Safety of the stray
  // Q := p write: a process only waits in this level when X was 0 at its
  // decrement, i.e. all j slots are consumed and — the level's (j+1)-
  // concurrency precondition — every other process in scope is a holder.
  // No other process can be between statements 2 and 5 while the aborter
  // is, so the write can only be observed by a *future* waiter, which
  // registers itself (overwriting Q) before it ever reads Q.  If a
  // releaser's grant (its Q := r at statement 7) races the abort, the
  // aborter's X++ simply returns the just-granted slot; either order
  // leaves X at the count of free slots and no process waiting.
  bool acquire_cancellable(proc& p, cancel_token& tk) {
    if (x_.fetch_add(p, -1) == 0) {               // 2: no slot available
      q_.write(p, p.id);                          // 3: register as waiter
      q_.wake_one();
      if (x_.read(p) < 0) {                       // 4: still none — wait
        const int me = p.id;
        auto v = q_.await_cancellable(
            p, [me](int q) { return q != me; }, tk);
        if (!v) {                                 // abandoned: undo 2-3
          x_.fetch_add(p, 1);
          q_.write(p, p.id);
          q_.wake_one();
          return false;
        }
      }
    }
    return true;
  }

  void release(proc& p) {
    x_.fetch_add(p, 1);                           // 6: return the slot
    q_.write(p, p.id);                            // 7: wake waiter, if any
    q_.wake_one();
  }

  // Debug/probe accessors (see var::peek): the paper's invariant (I2)
  // implies X ranges over -1..j at every state; test probes assert it.
  int debug_x() const { return x_.peek(); }
  int debug_q() const { return q_.peek(); }

 private:
  var<int> x_;  // slot counter, range -1..j
  var<int> q_;  // id of the waiting process
};

template <Platform P>
class cc_inductive {
  using proc = typename P::proc;

 public:
  // (concurrency, k)-exclusion: admits at most k of the at-most-
  // `concurrency` processes concurrently inside.  `pid_space` is accepted
  // for constructor parity with the DSM algorithms (which size per-process
  // arrays by it) and is unused here: levels identify processes only by the
  // ids they present.
  cc_inductive(int concurrency, int k, int pid_space = -1)
      : n_(concurrency), k_(k) {
    (void)pid_space;
    KEX_CHECK_MSG(k >= 1 && concurrency > k,
                  "cc_inductive requires 1 <= k < concurrency");
    levels_.reserve(static_cast<std::size_t>(concurrency - k));
    for (int j = concurrency - 1; j >= k; --j) levels_.emplace_back(j);
  }

  void acquire(proc& p) {
    for (auto& level : levels_) level.acquire(p);
  }

  void release(proc& p) {
    for (std::size_t i = levels_.size(); i > 0; --i)
      levels_[i - 1].release(p);
  }

  // Cancellable acquire: walk the levels as acquire() does; if the token
  // fires while waiting at level i, back out by releasing the i levels
  // already held, innermost first — the exact reverse of acquisition
  // order, the same order release() uses.  On return false nothing is
  // held and every level is in a quiescent state.
  bool acquire_cancellable(proc& p, cancel_token& tk) {
    for (std::size_t i = 0; i < levels_.size(); ++i) {
      if (!levels_[i].acquire_cancellable(p, tk)) {
        for (std::size_t j = i; j > 0; --j) levels_[j - 1].release(p);
        return false;
      }
    }
    return true;
  }

  // Succeeds iff no level would have required waiting.
  bool try_acquire(proc& p) {
    cancel_token tk = cancel_token::fired_token();
    return acquire_cancellable(p, tk);
  }

  int n() const { return n_; }
  int k() const { return k_; }
  int depth() const { return static_cast<int>(levels_.size()); }
  const cc_level<P>& level(int i) const {
    return levels_[static_cast<std::size_t>(i)];
  }
  // Capacity j of level i: levels run j = n-1 down to k.
  int level_capacity(int i) const { return n_ - 1 - i; }

 private:
  int n_, k_;
  // j = n-1 down to k, in acquisition order, packed back to back in one
  // line-aligned arena that no other object shares.
  packed_arena<cc_level<P>> levels_;
};

}  // namespace kex
