// Combining slow path: the Figure-3 tree with an MCS-fused handoff queue
// at each leaf group.
//
// The pure tree charges every acquisition a full leaf-to-root walk —
// Θ(k·log⌈N/k⌉) remote references — even when the k slots are being
// recycled rapidly among a small cluster of waiters.  The MCS lineage
// (kex/handoff_queue.h) shows the alternative: a releaser can pass what
// it holds to one queued successor in O(1) RMRs.  This algorithm fuses
// the two:
//
//   * the *tree* stays the admission path — a process at the head of its
//     leaf queue walks the unmodified Figure-3 tree bottom-up, so every
//     safety and starvation-freedom argument of Theorem 2 is inherited
//     verbatim (the theorem algorithms themselves are untouched);
//   * the *queue* is the recycling path — a releaser first tries to hand
//     its tree admission directly to the next waiter of its own leaf
//     group (leaf-mates share a cache/NUMA block under the topology-aware
//     assignment, so the handoff is one near write), and only re-walks
//     the tree top-down when its queue is empty.  One tree traversal is
//     thereby amortized across an entire queue segment: cost per acquire
//     approaches O(1) RMRs as oversubscription grows (measured in
//     bench_throughput/bench_scaling; Jayanti & Jayanti's constant-
//     amortized-RMR mutex is the analytical frame).
//
// Why the tree's bounds survive the fusion:
//
//   * Occupancy (≤ k in the CS): every CS entry consumes exactly one
//     "admission" — produced only by a completed tree walk — and every
//     exit either transfers its admission to exactly one successor (a
//     successful `waiting → granted` CAS on the successor's status) or
//     returns it to the tree (top-down release).  Grant and tree-release
//     are mutually exclusive by construction, so admissions are conserved
//     and at most k exist at any time, regardless of queue shape.
//   * The per-node 2k bound: leaf groups are static (the tree's own
//     assignment, ≤ k pids per group), and a group member is in at most
//     one of {walking the tree, holding} at a time, so at most k
//     processes ever ascend from one leaf — exactly the tree's invariant.
//   * Starvation-freedom across groups: a queue could otherwise recycle
//     its k slots forever while other leaves starve at the root.  The
//     grant value carries a segment counter; after `handoff_cap`
//     consecutive grants the releaser writes `retry` instead — the
//     successor acquires through the (starvation-free) tree and the
//     segment ends.  Within a group the queue is FIFO.
//
// Crash containment — the queue must not reintroduce the wedge that makes
// plain MCS non-resilient (a crashed waiter blocks everyone behind it
// forever).  Every cross-process wait on the queue is *bounded* through
// var::await_bounded, and every expired wait is arbitrated by a CAS:
//
//   * a waiter that outwaits `patience` tries `waiting → self`; success
//     means no grant can land any more and it walks the tree itself,
//     failure means a grant won the race and it takes the CS;
//   * a releaser stuck behind a half-enqueued (crashed) neighbour gives
//     up after `patience` reads and releases through the tree
//     (mcs_queue::successor's bounded form);
//   * a grant CASed into a node whose owner crashed while waiting burns
//     that admission — attributed to the crashed process, exactly one
//     slot, the same (k−1)-resilience the pure tree offers.  Everyone
//     behind the corpse times out and self-acquires.
//
// Node reuse (ABA) is defused by the status lifecycle: a node's status
// reads `waiting` only while its owner is genuinely enqueued behind a
// predecessor (enqueue writes it before publishing the link; every
// outcome — granted, retry, self — leaves a non-`waiting` value behind,
// and queue heads never write status at all).  A releaser holding a stale
// pointer therefore either fails its CAS and falls back to the tree, or
// delivers a legitimate (if out-of-FIFO-turn) grant to a re-enqueued
// waiter; admissions are conserved either way.
//
// Cost-model note: this is a *cache-coherent* composition (Block =
// cc_inductive).  The handoff spin is local under DSM too (own node,
// owner-assigned), but the tree release runs under whichever pid holds
// the admission last — fine for cc_inductive, whose release does not
// depend on the releaser's identity beyond its pid being distinct from
// the spinning waiters', but not something the DSM blocks' per-pid spin
// arrays were designed for.  `make_kex` registers it as "hybrid", CC.
#pragma once

#include <atomic>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/check.h"
#include "common/math.h"
#include "kex/arena_layout.h"
#include "kex/cc_inductive.h"
#include "kex/handoff_queue.h"
#include "kex/tree_kex.h"
#include "platform/platform.h"

namespace kex {

// Tuning for the handoff protocol.  Defaults are deliberately lopsided:
// patience high enough that healthy runs never abandon a wait (a handoff
// arrives within a few schedule quanta), the cap low enough that no group
// monopolizes the root for long.
struct hybrid_options {
  // Bounded-wait budget, in reads, for both the waiter's grant wait and
  // the releaser's mid-enqueue link wait.  Must be ≥ 1.
  std::uint32_t patience = 4096;
  // Consecutive grants allowed per tree admission before the releaser
  // forces its successor back onto the tree.  Must be ≥ 1.
  int handoff_cap = 64;
};

template <Platform P, class Block = cc_inductive<P>>
class hybrid_kex {
  using proc = typename P::proc;
  using queue = mcs_queue<P>;
  using qnode = typename queue::qnode;

  // Status lifecycle (see the reuse argument above).  0 is the initial,
  // never-enqueued value and deliberately NOT `waiting`, so a stale grant
  // can never land on a fresh node.
  static constexpr int idle = 0;     // initial; no protocol meaning
  static constexpr int waiting = 1;  // enqueued, claimable by a releaser
  static constexpr int self = 2;     // wait expired; owner self-acquires
  static constexpr int retry = 3;    // cap reached; go through the tree
  static constexpr int granted = 4;  // granted + c: admission handed over,
                                     // c = grants so far in this segment
  // The owner abandoned the attempt (cancellation).  Negative so it can
  // never collide with a grant value (granted + c, c >= 1).  Like every
  // other outcome it is a non-`waiting` value left behind on the node: a
  // releaser holding a stale pointer fails its CAS and returns its
  // admission to the tree, and the next enqueue of this pid overwrites
  // it with `waiting` before publishing the link — the same reuse
  // argument as for granted/retry/self corpses.
  static constexpr int aborted = -1;

 public:
  hybrid_kex(int n, int k, int pid_space = -1)
      : hybrid_kex(n, k, pid_space, leaf_assignment{}, hybrid_options{}) {}

  // Explicit leaf placement (same contract as tree_kex: ≤ k pids per
  // group) and protocol tuning.  The queue layout follows the leaves: use
  // topology_leaf_assignment and handoffs stay within a cache/NUMA block.
  hybrid_kex(int n, int k, int pid_space, leaf_assignment leaf_of,
             hybrid_options opt = {})
      : opt_(opt),
        n_(n),
        k_(k),
        tree_(n, k, pid_space, std::move(leaf_of)) {
    if (pid_space < 0) pid_space = n;
    KEX_CHECK_MSG(opt_.patience >= 1, "hybrid_kex: patience must be >= 1");
    KEX_CHECK_MSG(opt_.handoff_cap >= 1,
                  "hybrid_kex: handoff_cap must be >= 1");
    const int groups = ceil_div(n, k);
    queues_.reserve(static_cast<std::size_t>(groups));
    for (int g = 0; g < groups; ++g) queues_.emplace_back();
    nodes_.reserve(static_cast<std::size_t>(pid_space));
    for (int pid = 0; pid < pid_space; ++pid) {
      nodes_.emplace_back();
      nodes_[static_cast<std::size_t>(pid)].set_owner(pid);
    }
    segment_ =
        std::vector<padded<int>>(static_cast<std::size_t>(pid_space));
  }

  void acquire(proc& p) {
    qnode& mine = node(p);
    queue& q = queues_[static_cast<std::size_t>(tree_.leaf_of(p.id))];
    if (q.enqueue(p, mine, waiting) == nullptr) {
      // Queue head: fetch a fresh admission from the tree.
      tree_.acquire(p);
      enter_via_tree(p, stats_.tree_walks);
      return;
    }
    // Local wait for a grant (own status: cached/owned under both cost
    // models, so the episode is spin_lint-clean).
    auto v = mine.status.await_bounded(
        p, [](int s) { return s != waiting; }, opt_.patience);
    if (!v) {
      // Predecessor crashed or stalled.  The CAS decides: win and the
      // node is unclaimable (walk the tree ourselves), lose and a grant
      // landed after the deadline (take it — it is already ours).
      if (mine.status.compare_exchange(p, waiting, self)) {
        tree_.acquire(p);
        enter_via_tree(p, stats_.timeouts);
        return;
      }
      v = mine.status.read(p);
    }
    if (*v == retry) {
      // Segment over: the releaser kept its admission on the tree for us
      // to contend for the normal way.
      tree_.acquire(p);
      enter_via_tree(p, stats_.retries);
      return;
    }
    // Granted: the releaser's admission is now ours, tree untouched.
    segment_of(p) = *v - granted;
    stats_.handoffs.fetch_add(1, std::memory_order_relaxed);
  }

  // Cancellable acquire.  The attempt can be abandoned at three points,
  // each with its own restoration obligation:
  //
  //   * while walking the tree (as queue head, after a timeout, or after
  //     a `retry`): the tree's own backout releases every block held, and
  //     the node must then pass the baton (see abandon() below) so a
  //     successor already queued behind it does not wait out its full
  //     patience for a grant that cannot come;
  //   * while waiting for a grant: the `waiting -> aborted` CAS
  //     arbitrates against a concurrent grant exactly like the timeout
  //     CAS does.  Win: the node is unclaimable, pass the baton and
  //     leave.  Lose: a grant (or retry) landed first — the admission is
  //     ours whether we want it or not, and admission conservation
  //     requires disposing of it through the normal release path, which
  //     either re-grants it down the queue or returns it to the tree;
  //   * a grant that arrives on the very probe the token fires: the
  //     predicate wins (await_cancellable checks it first), we hold the
  //     admission, and it is disposed of the same way.
  //
  // In every false return the caller holds nothing, the grant lineage of
  // its leaf queue is unstalled, and admissions remain conserved.
  bool acquire_cancellable(proc& p, cancel_token& tk)
    requires AbortableKexFor<tree_kex<P, Block>, P>
  {
    qnode& mine = node(p);
    queue& q = queues_[static_cast<std::size_t>(tree_.leaf_of(p.id))];
    if (q.enqueue(p, mine, waiting) == nullptr) {
      if (!tree_.acquire_cancellable(p, tk)) {
        abandon(p, mine, q);
        return false;
      }
      enter_via_tree(p, stats_.tree_walks);
      return true;
    }
    auto v = mine.status.await_cancellable(
        p, [](int s) { return s != waiting; }, tk, opt_.patience);
    if (!v) {
      if (tk.fired()) {
        if (mine.status.compare_exchange(p, waiting, aborted)) {
          abandon(p, mine, q);
          return false;
        }
      } else {
        // Patience expired with the token still quiet: the normal
        // crashed-predecessor arbitration, then a cancellable tree walk.
        if (mine.status.compare_exchange(p, waiting, self)) {
          if (!tree_.acquire_cancellable(p, tk)) {
            abandon(p, mine, q);
            return false;
          }
          enter_via_tree(p, stats_.timeouts);
          return true;
        }
      }
      v = mine.status.read(p);
    }
    if (tk.fired()) {
      // Abandoning, but the wait outcome already committed to us.
      if (*v == retry) {
        // The releaser kept its admission on the tree; nothing is ours.
        abandon(p, mine, q);
        return false;
      }
      // A grant: dispose of the admission through the release path (it
      // hands it to our successor or returns it to the tree).  Not
      // counted as a handoff — this attempt never enters the CS.
      segment_of(p) = *v - granted;
      release(p);
      stats_.aborts.fetch_add(1, std::memory_order_relaxed);
      return false;
    }
    if (*v == retry) {
      if (!tree_.acquire_cancellable(p, tk)) {
        abandon(p, mine, q);
        return false;
      }
      enter_via_tree(p, stats_.retries);
      return true;
    }
    segment_of(p) = *v - granted;
    stats_.handoffs.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  bool try_acquire(proc& p)
    requires AbortableKexFor<tree_kex<P, Block>, P>
  {
    cancel_token tk = cancel_token::fired_token();
    return acquire_cancellable(p, tk);
  }

  void release(proc& p) {
    qnode& mine = node(p);
    queue& q = queues_[static_cast<std::size_t>(tree_.leaf_of(p.id))];
    const int count = segment_of(p);
    qnode* s = q.successor(p, mine, opt_.patience);
    if (s != nullptr) {
      if (count < opt_.handoff_cap) {
        if (s->status.compare_exchange(p, waiting, granted + count + 1)) {
          s->status.wake_one();
          return;  // admission transferred; the tree never hears of it
        }
        // Successor abandoned its wait (or a stale pointer aimed us at a
        // non-waiting node): keep nothing, return the admission below.
      } else if (s->status.compare_exchange(p, waiting, retry)) {
        s->status.wake_one();
      }
    }
    tree_.release(p);
    stats_.tree_releases.fetch_add(1, std::memory_order_relaxed);
  }

  int n() const { return n_; }
  int k() const { return k_; }
  int depth() const { return tree_.depth(); }
  int groups() const { return static_cast<int>(queues_.size()); }
  int leaf_of(int pid) const { return tree_.leaf_of(pid); }
  const tree_kex<P, Block>& tree() const { return tree_; }

  // Host-side introspection (benches, tests); relaxed counters, not part
  // of the protocol or its RMR accounting.
  struct stats_snapshot {
    std::uint64_t tree_walks = 0;     // admissions fetched from the tree
    std::uint64_t handoffs = 0;       // admissions received over the queue
    std::uint64_t retries = 0;        // cap-forced tree acquisitions
    std::uint64_t timeouts = 0;       // waits abandoned past patience
    std::uint64_t tree_releases = 0;  // admissions returned to the tree
    std::uint64_t aborts = 0;         // attempts abandoned by cancellation

    std::uint64_t acquires() const {
      return tree_walks + handoffs + retries + timeouts;
    }
    // Fraction of acquisitions served by the queue instead of the tree.
    double handoff_rate() const {
      const std::uint64_t a = acquires();
      return a == 0 ? 0.0 : static_cast<double>(handoffs) /
                                static_cast<double>(a);
    }
  };

  stats_snapshot stats() const {
    stats_snapshot s;
    s.tree_walks = stats_.tree_walks.load(std::memory_order_relaxed);
    s.handoffs = stats_.handoffs.load(std::memory_order_relaxed);
    s.retries = stats_.retries.load(std::memory_order_relaxed);
    s.timeouts = stats_.timeouts.load(std::memory_order_relaxed);
    s.tree_releases = stats_.tree_releases.load(std::memory_order_relaxed);
    s.aborts = stats_.aborts.load(std::memory_order_relaxed);
    return s;
  }

 private:
  qnode& node(proc& p) { return nodes_[static_cast<std::size_t>(p.id)]; }

  // The holder's private copy of its grant-segment position: written and
  // read only by pid p between its own acquire and release, so plain
  // (padded) storage — the cross-process copy travels in the grant value.
  int& segment_of(proc& p) {
    return segment_[static_cast<std::size_t>(p.id)].value;
  }

  // kex-lint: allow(raw-atomic): the counter is a stats cell (below)
  void enter_via_tree(proc& p, std::atomic<std::uint64_t>& counter) {
    segment_of(p) = 0;
    counter.fetch_add(1, std::memory_order_relaxed);
  }

  // Leave the queue after an abandoned attempt, without stalling the
  // grant lineage.  The node's status is already non-`waiting` (aborted,
  // or a head's stale value), so no releaser can claim it — but a
  // successor queued behind it would otherwise sit out its full patience
  // waiting on a corpse.  Pass the baton: if a successor exists (or
  // finishes linking within patience), flip it `waiting -> retry` so it
  // contends on the tree immediately; if the aborter is the tail,
  // successor()'s CAS swings the tail back and the node leaves the queue
  // with no trace.  The CAS can lose only to a releaser's grant or the
  // successor's own timeout — both of which un-wedge it just as well.
  void abandon(proc& p, qnode& mine, queue& q) {
    qnode* s = q.successor(p, mine, opt_.patience);
    if (s != nullptr && s->status.compare_exchange(p, waiting, retry))
      s->status.wake_one();
    stats_.aborts.fetch_add(1, std::memory_order_relaxed);
  }

  // kex-lint: allow-block(raw-atomic): stats counters, not protocol
  // state — never read inside entry/exit sections
  struct alignas(cacheline_size) counters {
    std::atomic<std::uint64_t> tree_walks{0};
    std::atomic<std::uint64_t> handoffs{0};
    std::atomic<std::uint64_t> retries{0};
    std::atomic<std::uint64_t> timeouts{0};
    std::atomic<std::uint64_t> tree_releases{0};
    std::atomic<std::uint64_t> aborts{0};
  };

  hybrid_options opt_;
  int n_, k_;
  tree_kex<P, Block> tree_;
  arena_vector<queue> queues_;  // one per leaf group, line-separated
  arena_vector<qnode> nodes_;   // one per pid, owner-assigned, padded
  std::vector<padded<int>> segment_;
  counters stats_;
};

}  // namespace kex
