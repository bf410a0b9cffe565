// Figure 4: (N,k)-exclusion with a "fast path" — Theorems 3/7 — and its
// nested, gracefully-degrading variant — Theorems 4/8.
//
// A saturating counter X (k slots) selects up to k processes that proceed
// directly to a (2k,k)-exclusion block; everyone else first traverses a
// slow-path (N,k)-exclusion, which admits at most k of them, so at most 2k
// processes are ever inside the block:
//
//     1: slow := false
//     2: if fetch_and_increment(X,-1) = 0 then    — saturating at 0
//     3:     slow := true
//     4:     Acquire(slow path)
//     5: Acquire(2k,k block)
//        Critical Section
//     6: Release(2k,k block)
//     7: if slow then
//     8:     Release(slow path)
//     9: else fetch_and_increment(X, 1)
//
// When contention is at most k, statement 2 always finds a slot, so an
// acquisition costs only the counter operation plus the (2k,k) block:
// 7k + 2 remote references on a cache-coherent machine (Theorem 3),
// 14k + 2 on DSM (Theorem 7), with the slow path (a Figure-3(a) tree)
// adding 7k·log2⌈N/k⌉ (resp. 14k·...) only beyond that threshold.
//
// `graceful_kex` nests fast paths (Figure 3(b)): the slow path of each
// stage is another fast-path stage, bottoming out in a plain (2k,k) block
// once at most 2k processes can remain.  A process penetrates about ⌈c/k⌉
// stages when contention is c, giving Theorems 4/8: ⌈c/k⌉(7k+2) remote
// references (14k+2 on DSM) — performance that degrades *gracefully* with
// contention instead of jumping when it exceeds k.
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/cacheline.h"
#include "common/check.h"
#include "kex/arena_layout.h"
#include "kex/kexclusion.h"
#include "primitives/ops.h"
#include "platform/platform.h"

namespace kex {

// Generic Figure-4 wrapper over any block/slow-path types.
//
// Block: (2k,k)-exclusion, constructed as Block(2k, k, pid_space).
// Slow:  (N,k)-exclusion over the same pid space, constructed as
//        Slow(n, k, pid_space).
template <Platform P, class Block, class Slow>
class fast_path_kex {
  using proc = typename P::proc;
  template <class T>
  using var = typename P::template var<T>;

 public:
  fast_path_kex(int n, int k, int pid_space = -1)
      : n_(n),
        k_(k),
        x_(k),
        block_(2 * k, k, pid_space < 0 ? n : pid_space),
        slow_(n, k, pid_space < 0 ? n : pid_space) {
    KEX_CHECK_MSG(k >= 1 && n > k, "fast_path_kex requires 1 <= k < n");
    const int pids = pid_space < 0 ? n : pid_space;
    procs_.reserve(static_cast<std::size_t>(pids));
    for (int pid = 0; pid < pids; ++pid) procs_.emplace_back();
  }

  void acquire(proc& p) {
    auto& mine = procs_[static_cast<std::size_t>(p.id)];
    mine.slow = false;                                          // 1
    if (x_.value.fetch_dec_floor0(p) == 0) {                    // 2
      mine.slow = true;                                         // 3
      mine.slow_hits.store(
          mine.slow_hits.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      slow_.acquire(p);                                         // 4
    } else {
      mine.fast_hits.store(
          mine.fast_hits.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
    }
    block_.acquire(p);                                          // 5
  }

  void release(proc& p) {
    block_.release(p);                                          // 6
    if (procs_[static_cast<std::size_t>(p.id)].slow) {          // 7
      slow_.release(p);                                         // 8
    } else {
      x_.value.fetch_add(p, 1);                                 // 9
    }
  }

  // Cancellable acquire.  An abort in the slow path holds nothing — the
  // slow path's own backout already ran — so only statements 7-9 of the
  // exit protocol are needed to return whichever admission (slot or slow
  // path) the attempt did win; an abort inside the (2k,k) block falls
  // back to exactly that.  A fast-path admission aborted inside the
  // block returns its slot by the statement-9 increment, so the fast
  // lane's capacity is restored and the next arrival can take it.
  bool acquire_cancellable(proc& p, cancel_token& tk)
    requires AbortableKexFor<Block, P> && AbortableKexFor<Slow, P>
  {
    auto& mine = procs_[static_cast<std::size_t>(p.id)];
    mine.slow = false;                                          // 1
    if (x_.value.fetch_dec_floor0(p) == 0) {                    // 2
      mine.slow = true;                                         // 3
      mine.slow_hits.store(
          mine.slow_hits.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
      if (!slow_.acquire_cancellable(p, tk)) return false;      // 4
    } else {
      mine.fast_hits.store(
          mine.fast_hits.load(std::memory_order_relaxed) + 1,
          std::memory_order_relaxed);
    }
    if (!block_.acquire_cancellable(p, tk)) {                   // 5
      if (mine.slow) {                                          // 7
        slow_.release(p);                                       // 8
      } else {
        x_.value.fetch_add(p, 1);                               // 9
      }
      return false;
    }
    return true;
  }

  bool try_acquire(proc& p)
    requires AbortableKexFor<Block, P> && AbortableKexFor<Slow, P>
  {
    cancel_token tk = cancel_token::fired_token();
    return acquire_cancellable(p, tk);
  }

  int n() const { return n_; }
  int k() const { return k_; }
  Slow& slow_path() { return slow_; }
  Block& block() { return block_; }

  // --- elastic re-dress hook (service/elastic_lock_table.h) ---------------
  // Detaining a slot parks a caller-supplied governor process inside the
  // object as a long-lived holder, re-dressing the (N,k) composition as an
  // (N,k-1) one: the nested Figure-4 reading of Theorems 4/8 where a
  // holder that never leaves its critical section is indistinguishable
  // from a lowered k (the same budget line crashed holders draw on).  The
  // governor pays one ordinary entry at the epoch boundary where the
  // controller steps k; steady-state acquires run the unmodified protocol,
  // so adaptation costs zero RMRs per acquire.  The token bounds the
  // governor's patience — on a saturated object the detain fails cleanly
  // and the caller retries at a later epoch.
  bool detain_slot(proc& p, cancel_token& tk)
    requires AbortableKexFor<Block, P> && AbortableKexFor<Slow, P>
  {
    if (!acquire_cancellable(p, tk)) return false;
    detained_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  // Undo one detain_slot, using the same governor proc that holds it.
  void restore_slot(proc& p) {
    KEX_CHECK_MSG(detained_.load(std::memory_order_relaxed) > 0,
                  "restore_slot without a matching detain_slot");
    detained_.fetch_sub(1, std::memory_order_relaxed);
    release(p);
  }

  int detained() const {
    return detained_.load(std::memory_order_relaxed);
  }
  // Capacity visible to ordinary acquirers: k minus the parked governors.
  int effective_k() const { return k_ - detained(); }

  // Introspection: how many acquisitions took each path.  Diagnostics
  // outside the cost model, kept per process — a shared fetch_add here
  // would ping-pong a cache line on every fast-path acquisition, the
  // exact traffic the fast path exists to avoid — and aggregated on read
  // (each slot is single-writer, so a relaxed load/store pair per
  // acquisition suffices).
  std::uint64_t fast_hits() const {
    std::uint64_t total = 0;
    for (const auto& st : procs_)
      total += st.fast_hits.load(std::memory_order_relaxed);
    return total;
  }
  std::uint64_t slow_hits() const {
    std::uint64_t total = 0;
    for (const auto& st : procs_)
      total += st.slow_hits.load(std::memory_order_relaxed);
    return total;
  }
  double fast_hit_rate() const {
    auto f = fast_hits();
    auto s = slow_hits();
    return (f + s) == 0 ? 1.0
                        : static_cast<double>(f) /
                              static_cast<double>(f + s);
  }

 private:
  // One process's entire Figure-4 private state — the `slow` flag
  // (statement 1/3/7) plus its path counters — on a single line it alone
  // writes.  Previously `slow` and the stats lived in two separately
  // padded vectors: two lines touched per acquisition where one suffices.
  struct per_proc {
    bool slow = false;  // the private variable `slow`
    // kex-lint: allow(raw-atomic): stats counters, not protocol state
    std::atomic<std::uint64_t> fast_hits{0}, slow_hits{0};
  };
  static_assert(sizeof(per_proc) <= cacheline_size,
                "per-process fast-path state must fit one line");

  int n_, k_;
  padded<var<int>> x_;  // saturating slot counter, range 0..k
  Block block_;
  Slow slow_;
  arena_vector<per_proc> procs_;  // one aligned line per pid
  // kex-lint: allow(raw-atomic): re-dress bookkeeping (parked governor
  // count), not protocol state — the slots themselves are held via the
  // ordinary acquire path
  std::atomic<int> detained_{0};
};

// Theorem 4/8: nested fast paths with graceful degradation.
//
// Stage i holds a saturating counter X_i with k slots and a (2k,k) block;
// a process that misses a slot at stage i proceeds to stage i+1 and, once
// admitted there, passes back up through each stage's block.  The chain
// bottoms out in a plain (2k,k) block once at most 2k processes can remain
// (each earlier stage subtracts the k slot-holders it detains).
template <Platform P, class Block>
class graceful_kex {
  using proc = typename P::proc;
  template <class T>
  using var = typename P::template var<T>;

 public:
  graceful_kex(int n, int k, int pid_space = -1) : n_(n), k_(k) {
    if (pid_space < 0) pid_space = n;
    KEX_CHECK_MSG(k >= 1 && n > k, "graceful_kex requires 1 <= k < n");
    // Stage count is fixed by (n, k): reserve the arena up front so the
    // stage chain a process descends is one contiguous aligned block.
    int remaining = n;
    std::size_t nstages = 0;
    while (remaining > 2 * k) {
      ++nstages;
      remaining -= k;
    }
    stages_.reserve(nstages);
    remaining = n;
    while (remaining > 2 * k) {
      stages_.emplace_back(k, 2 * k, pid_space);
      remaining -= k;
    }
    final_block_.emplace(2 * k, k, pid_space);
    depth_.resize(static_cast<std::size_t>(pid_space));
  }

  void acquire(proc& p) {
    const int stages = static_cast<int>(stages_.size());
    // Descend until a stage grants a slot (statement 2 of each nested
    // Figure 4), or the chain bottoms out at the final (2k,k) block.
    int d = 0;
    while (d < stages && stage_at(d).x.value.fetch_dec_floor0(p) == 0) ++d;
    depth_[static_cast<std::size_t>(p.id)].value = d;
    // Acquire blocks innermost-first: stage d's block (or the final block
    // if no stage granted a slot), then back out through d-1, ..., 0.
    if (d == stages)
      final_block_->acquire(p);
    else
      stage_at(d).block.acquire(p);
    for (int i = d - 1; i >= 0; --i) stage_at(i).block.acquire(p);
  }

  void release(proc& p) {
    const int stages = static_cast<int>(stages_.size());
    const int d = depth_[static_cast<std::size_t>(p.id)].value;
    // Reverse of acquisition: outermost blocks first, then return the slot
    // (or release the final block) at the depth reached.
    for (int i = 0; i < d; ++i) stage_at(i).block.release(p);
    if (d == stages) {
      final_block_->release(p);
    } else {
      stage_at(d).block.release(p);
      stage_at(d).x.value.fetch_add(p, 1);
    }
  }

  // Cancellable acquire: the descent (saturating counters) never waits,
  // so the token is only consulted inside blocks.  An abort at nesting
  // level i unwinds precisely the suffix of release(): the outer blocks
  // i+1..d-1 already held (outermost-held first, release() order), then
  // the innermost admission — the stage-d block plus its slot, or the
  // final block.  On return false nothing is held at any stage.
  bool acquire_cancellable(proc& p, cancel_token& tk)
    requires AbortableKexFor<Block, P>
  {
    const int stages = static_cast<int>(stages_.size());
    int d = 0;
    while (d < stages && stage_at(d).x.value.fetch_dec_floor0(p) == 0) ++d;
    depth_[static_cast<std::size_t>(p.id)].value = d;
    bool ok = d == stages ? final_block_->acquire_cancellable(p, tk)
                          : stage_at(d).block.acquire_cancellable(p, tk);
    if (!ok) {
      if (d < stages) stage_at(d).x.value.fetch_add(p, 1);
      return false;
    }
    for (int i = d - 1; i >= 0; --i) {
      if (!stage_at(i).block.acquire_cancellable(p, tk)) {
        for (int j = i + 1; j < d; ++j) stage_at(j).block.release(p);
        if (d == stages) {
          final_block_->release(p);
        } else {
          stage_at(d).block.release(p);
          stage_at(d).x.value.fetch_add(p, 1);
        }
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
  int stage_count() const { return static_cast<int>(stages_.size()); }
  // Stage i's (2k,k) block; i == stage_count() is the final block.
  const Block& block(int i) const {
    return i == stage_count() ? *final_block_
                              : stages_[static_cast<std::size_t>(i)].block;
  }

  // Elastic re-dress hook — see fast_path_kex::detain_slot.  On the
  // nested chain a detained governor occupies a stage slot (or the final
  // block) exactly like a slow client, so every stage's ⌈c/k⌉ accounting
  // already prices it in.
  bool detain_slot(proc& p, cancel_token& tk)
    requires AbortableKexFor<Block, P>
  {
    if (!acquire_cancellable(p, tk)) return false;
    detained_.fetch_add(1, std::memory_order_relaxed);
    return true;
  }

  void restore_slot(proc& p) {
    KEX_CHECK_MSG(detained_.load(std::memory_order_relaxed) > 0,
                  "restore_slot without a matching detain_slot");
    detained_.fetch_sub(1, std::memory_order_relaxed);
    release(p);
  }

  int detained() const {
    return detained_.load(std::memory_order_relaxed);
  }
  int effective_k() const { return k_ - detained(); }

 private:
  struct stage {
    padded<var<int>> x;  // saturating slot counter, range 0..k
    Block block;
    stage(int k, int block_n, int pid_space)
        : x(k), block(block_n, k, pid_space) {}
  };

  stage& stage_at(int i) { return stages_[static_cast<std::size_t>(i)]; }

  int n_, k_;
  arena_vector<stage> stages_;
  std::optional<Block> final_block_;
  std::vector<padded<int>> depth_;  // private: stage reached per process
  // kex-lint: allow(raw-atomic): re-dress bookkeeping (parked governor
  // count), not protocol state
  std::atomic<int> detained_{0};
};

}  // namespace kex
