// Figure 3(a): tree composition of (2k,k)-exclusion building blocks —
// Theorem 2 (cache-coherent, 7k·log2⌈N/k⌉ remote references) and
// Theorem 6 (DSM, 14k·log2⌈N/k⌉).
//
// The N processes are statically partitioned into ⌈N/k⌉ leaf groups of k.
// Each internal node of a binary tree over the groups is a (2k,k)-exclusion
// block: at most k processes arrive from each child (by the child block's
// guarantee, or by leaf-group size), so at most 2k are ever inside a node,
// and at most k emerge from the root — which is exactly (N,k)-exclusion.
//
// A process entering its critical section acquires the blocks on its
// leaf-to-root path bottom-up and releases them top-down (it must keep
// holding a child while inside the parent, or the parent's 2k concurrency
// bound would break).  This relies on the building block *not* needing to
// know the identities of the (at most 2k) processes using it in advance —
// the property the paper points out for its Figure-2/5/6 algorithms.
//
// The RMR bound holds for ANY partition of the processes into groups of at
// most k — the proofs never look at which process sits in which leaf.  On
// real hardware that freedom is worth real cycles: if a leaf group spans
// two sockets, its (2k,k) block's spin words ping-pong across the
// interconnect on every handoff.  The topology-aware assignment
// (`topology_leaf_assignment`) therefore orders processes by their pinned
// CPU's position in the machine hierarchy (node, LLC, core, SMT) before
// chunking them into groups: leaf-mates share a core/LLC, sibling leaves
// share a socket, and cross-socket traffic is pushed toward the root —
// the lock-cohorting layout, derived instead of hand-tuned.  The default
// assignment (pid/k) is unchanged, and the simulated platform charges
// identical RMR counts under any assignment of equal group structure
// (asserted in tests/topology_test.cpp).
//
// `Block` is any (2k,k)-exclusion constructible as
// Block(concurrency=2k, k, pid_space): cc_inductive (Theorem 2) or
// dsm_bounded / dsm_unbounded (Theorem 6).
#pragma once

#include <algorithm>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/math.h"
#include "kex/arena_layout.h"
#include "kex/kexclusion.h"
#include "platform/platform.h"
#include "platform/topology.h"

namespace kex {

// pid -> leaf-group index for the Figure-3 tree over ⌈n/k⌉ groups.
// Produced by topology_leaf_assignment (or by hand in tests); an empty
// vector means the default assignment leaf = pid / k.
using leaf_assignment = std::vector<int>;

// Order pids 0..n-1 by the machine position of their pinned CPU, then cut
// the order into ⌈n/k⌉ consecutive groups of (at most) k.  Pids the plan
// does not pin keep their relative order after the pinned ones.  With the
// `numa` pin policy, pid blocks are already node-contiguous, so groups
// and subtrees align with nodes; with `none`, the result degenerates to
// the default pid/k grouping — topology awareness without pinning is a
// no-op by design (there is nothing to be local *to*).
inline leaf_assignment topology_leaf_assignment(const topology& topo,
                                                const pin_plan& plan,
                                                int n, int k) {
  KEX_CHECK_MSG(n > 0 && k > 0, "topology_leaf_assignment: bad n/k");
  // Hierarchy rank of each pid's cpu: position in topo.cpus order.
  std::vector<std::pair<long long, int>> ranked;  // (rank, pid)
  ranked.reserve(static_cast<std::size_t>(n));
  const long long unpinned = static_cast<long long>(topo.cpus.size()) + 1;
  for (int pid = 0; pid < n; ++pid) {
    long long rank = unpinned;
    const int cpu = plan.cpu_for(pid);
    if (cpu >= 0) {
      for (std::size_t i = 0; i < topo.cpus.size(); ++i)
        if (topo.cpus[i].cpu == cpu) {
          rank = static_cast<long long>(i);
          break;
        }
    }
    ranked.emplace_back(rank, pid);
  }
  // Stable on pid: equal ranks (shared cpu, unpinned tail) stay in pid
  // order, keeping the assignment deterministic.
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) {
                     return a.first < b.first;
                   });
  leaf_assignment leaf_of(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i)
    leaf_of[static_cast<std::size_t>(ranked[static_cast<std::size_t>(i)]
                                         .second)] = i / k;
  return leaf_of;
}

template <Platform P, class Block>
class tree_kex {
  using proc = typename P::proc;

 public:
  tree_kex(int n, int k, int pid_space = -1)
      : tree_kex(n, k, pid_space, leaf_assignment{}) {}

  // Explicit leaf placement: `leaf_of[pid]` is the leaf group of each of
  // the n processes.  Every group may hold at most k pids (the tree's 2k
  // bound depends on it), checked here.
  tree_kex(int n, int k, int pid_space, leaf_assignment leaf_of)
      : n_(n), k_(k), leaf_of_(std::move(leaf_of)) {
    if (pid_space < 0) pid_space = n;
    KEX_CHECK_MSG(k >= 1 && n > k, "tree_kex requires 1 <= k < n");
    const int groups = ceil_div(n, k);
    leaves_ = next_pow2(groups);
    KEX_CHECK(leaves_ >= 2);  // n > k implies at least two groups
    if (!leaf_of_.empty()) {
      KEX_CHECK_MSG(static_cast<int>(leaf_of_.size()) >= n,
                    "tree_kex: leaf assignment must cover pids 0..n-1");
      std::vector<int> group_size(static_cast<std::size_t>(groups), 0);
      for (int pid = 0; pid < n; ++pid) {
        const int g = leaf_of_[static_cast<std::size_t>(pid)];
        KEX_CHECK_MSG(g >= 0 && g < groups,
                      "tree_kex: leaf assignment out of range");
        KEX_CHECK_MSG(++group_size[static_cast<std::size_t>(g)] <= k,
                      "tree_kex: leaf group exceeds k processes");
      }
    }
    // Heap layout: node 1 is the root, node i has children 2i and 2i+1,
    // leaf group g sits at index leaves_ + g.  Internal nodes 1..leaves_-1
    // each hold a (2k,k) block, laid out contiguously in one aligned
    // arena in heap order — the root and its near descendants (the blocks
    // every acquisition ends in) sit at the front.
    blocks_.reserve(static_cast<std::size_t>(leaves_ - 1));
    for (int i = 0; i < leaves_ - 1; ++i)
      blocks_.emplace_back(2 * k, k, pid_space);
  }

  void acquire(proc& p) {
    int path[max_depth];
    int d = path_of(p.id, path);
    for (int i = 0; i < d; ++i) block(path[i]).acquire(p);
  }

  void release(proc& p) {
    int path[max_depth];
    int d = path_of(p.id, path);
    for (int i = d - 1; i >= 0; --i) block(path[i]).release(p);
  }

  // Cancellable acquire (available when the building block is abortable):
  // climb as acquire() does; if the token fires inside the block at
  // path[i], release the i blocks below it — nearest-to-root held block
  // first, the same top-down order release() uses — and report failure
  // with no node state left behind.  Each block's own abort guarantees
  // the node at path[i] is already quiescent when its
  // acquire_cancellable returns false.
  bool acquire_cancellable(proc& p, cancel_token& tk)
    requires AbortableKexFor<Block, P>
  {
    int path[max_depth];
    int d = path_of(p.id, path);
    for (int i = 0; i < d; ++i) {
      if (!block(path[i]).acquire_cancellable(p, tk)) {
        for (int j = i - 1; j >= 0; --j) block(path[j]).release(p);
        return false;
      }
    }
    return true;
  }

  bool try_acquire(proc& p)
    requires AbortableKexFor<Block, P>
  {
    cancel_token tk = cancel_token::fired_token();
    return acquire_cancellable(p, tk);
  }

  int n() const { return n_; }
  int k() const { return k_; }
  int depth() const { return ceil_log2(leaves_); }
  int block_count() const { return leaves_ - 1; }

  // Heap node `node` (1..block_count()).
  Block& block(int node) {
    return blocks_[static_cast<std::size_t>(node - 1)];
  }
  const Block& block(int node) const {
    return blocks_[static_cast<std::size_t>(node - 1)];
  }

  // The leaf group `pid` ascends from (assignment introspection).
  int leaf_of(int pid) const {
    return leaf_of_.empty() ? pid / k_
                            : leaf_of_[static_cast<std::size_t>(pid)];
  }

 private:
  static constexpr int max_depth = 32;

  // Fills `path` with the node indices from the leaf's parent up to the
  // root — the acquisition (bottom-up) order; returns the path length.
  int path_of(int pid, int (&path)[max_depth]) const {
    int leaf = leaves_ + leaf_of(pid);
    int d = 0;
    for (int node = leaf / 2; node >= 1; node /= 2) path[d++] = node;
    return d;
  }

  int n_, k_;
  int leaves_ = 0;
  leaf_assignment leaf_of_;  // empty = default pid/k grouping
  // blocks_[i] is heap node i+1, all in one cacheline-aligned arena.
  arena_vector<Block> blocks_;
};

}  // namespace kex
