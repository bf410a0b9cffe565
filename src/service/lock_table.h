// Sharded named-resource lock manager on top of (N,k)-exclusion.
//
// The paper guards one object; a service guards millions of *named*
// resources.  `lock_table<P>` closes that gap the way databases do: hash
// the resource key onto one of S independent shards, each shard a complete
// (N,k)-exclusion instance chosen by catalog name (`make_kex`), so
// disjoint keys proceed in parallel and every per-shard guarantee of the
// underlying algorithm — at most k holders, local spinning, survival of
// up to k-1 crashed holders — carries over unchanged.  The platform
// template means the sim platform's crash injection and RMR meter apply
// to the whole table for free.
//
// Usage pairs with the session registry (session_registry.h):
//
//   session_registry<P> reg(64);
//   lock_table<P> table(/*shards=*/8, "cc_fast", /*n=*/64, /*k=*/4);
//   auto s = reg.attach();
//   { auto g = table.acquire(s, key); /* critical section for `key` */ }
//
// Semantics note: a shard bounds *occupancy* (at most k holders among the
// keys hashing to it), it does not distinguish keys within the shard —
// the same deliberate coarsening as a striped lock manager.  Callers that
// need strict per-key mutual exclusion use k = 1 shards; callers guarding
// k-replicated resources (the paper's motivating case) use k > 1 and
// treat a shard as one replicated object.  A holder that crashes in its
// critical section consumes one of its shard's k slots forever; the other
// shards never notice.
#pragma once

#include <algorithm>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/check.h"
#include "kex/any_kex.h"
#include "kex/arena_layout.h"
#include "platform/topology.h"
#include "service/session_registry.h"
#include "service/shard_counters.h"

namespace kex {

// --- non-template plumbing (lock_table.cpp) -------------------------------

// Key -> 64-bit hash.  Integer keys go through a splitmix64-style mixer
// (consecutive ids must not land on consecutive shards); string keys
// through FNV-1a.  Both are fixed functions: shard placement is part of
// the table's observable behaviour, so it must not vary across runs or
// platforms.
std::uint64_t lock_table_hash(std::uint64_t key);
std::uint64_t lock_table_hash(std::string_view key);

// Hash -> shard index in [0, shards).  Multiply-shift rather than modulo:
// uses the high bits the mixers work hardest on, no division on the hot
// path, and no power-of-two requirement on the shard count.
int lock_table_shard_of(std::uint64_t hash, int shards);

// Whole-table sample: per-shard rows plus totals.
struct lock_table_stats {
  std::vector<lock_shard_stats> shards;

  std::uint64_t total_acquires() const;
  std::uint64_t total_fast_hits() const;
  std::uint64_t total_crashes() const;
  std::uint64_t total_aborts() const;
  std::uint64_t total_timeouts() const;
  // Every acquisition attempt, successful or abandoned.  Derived, not a
  // hot-path counter: acquires + aborts + timeouts.
  std::uint64_t total_attempts() const;
  int max_occupancy() const;

  // Spread of acquires across shards: max over mean (1.0 = perfectly
  // uniform).  The bench uses it to show what keyspace skew does to a
  // striped table.
  double imbalance() const;
};

// --------------------------------------------------------------------------

template <Platform P>
class lock_table {
  using proc = typename P::proc;

  // Per-shard state, cache-line separated so one hot shard's bookkeeping
  // never false-shares with its neighbours.  `home_node` records the NUMA
  // node the shard's spin state is meant to stay resident on: shards are
  // dealt round the machine's nodes in contiguous runs, mirroring the
  // `numa` pin policy's pid blocks, so a session pinned to node m that
  // mostly touches keys of shards homed there spins node-locally.
  struct alignas(cacheline_size) shard {
    any_kex<P> kex;
    int home_node = 0;
    shard_counters::tally tally;  // service/shard_counters.h
  };

 public:
  // `algorithm` is any make_kex catalog name; n is the pid space (the
  // session registry's capacity), k the per-shard concurrency bound.
  lock_table(int shards, std::string_view algorithm, int n, int k)
      : counters_(shards, n), n_(n), k_(k) {
    KEX_CHECK_MSG(shards >= 1, "lock_table requires at least one shard");
    // One contiguous interference-aligned arena for all shard headers
    // (the any_kex payloads hang off them): probing shard i never drags
    // a neighbour's header line along.
    const int nodes = std::max(1, global_topology().nodes);
    shards_.reserve(static_cast<std::size_t>(shards));
    for (int i = 0; i < shards; ++i) {
      shard& s = shards_.emplace_back();
      s.kex = make_kex<P>(algorithm, n, k);
      // Same contiguous-block split as make_pin_plan's numa policy:
      // shard i -> node floor(i * nodes / shards).
      s.home_node = std::min(
          nodes - 1, static_cast<int>((static_cast<long long>(i) * nodes) /
                                      shards));
    }
  }

  lock_table(const lock_table&) = delete;
  lock_table& operator=(const lock_table&) = delete;

  // RAII hold on one shard; releases on destruction.  Swallows
  // process_failed in the destructor — a crashed holder never executes
  // its exit section; the shard records the burned slot.
  class guard {
   public:
    guard() = default;
    guard(guard&& o) noexcept
        : s_(std::exchange(o.s_, nullptr)), p_(std::exchange(o.p_, nullptr)) {}
    guard& operator=(guard&& o) noexcept {
      if (this != &o) {
        release();
        s_ = std::exchange(o.s_, nullptr);
        p_ = std::exchange(o.p_, nullptr);
      }
      return *this;
    }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;

    ~guard() { release(); }

    explicit operator bool() const { return s_ != nullptr; }

    // Release early (idempotent).
    void release() {
      if (s_ == nullptr) return;
      auto* s = std::exchange(s_, nullptr);
      shard_counters::released(s->tally);
      try {
        s->kex.release(*p_);
      } catch (const process_failed&) {
        shard_counters::crashed(s->tally);
      }
    }

   private:
    friend class lock_table;
    guard(shard* s, proc* p) : s_(s), p_(p) {}

    shard* s_ = nullptr;
    proc* p_ = nullptr;
  };

  // Acquire the shard guarding `key`.  Blocks (starvation-free, per the
  // underlying algorithm) while k other holders occupy the shard.
  guard acquire(proc& p, std::uint64_t key) {
    return acquire_shard(p, shard_of(key));
  }
  guard acquire(proc& p, std::string_view key) {
    return acquire_shard(p, shard_of(key));
  }

  // Session-registry front door: anything exposing context() — i.e. a
  // session_registry<P>::session — carries the proc context itself.
  template <class S, class Key>
    requires requires(S& s) { { s.context() } -> std::same_as<proc&>; }
  guard acquire(S& s, Key key) {
    return acquire(s.context(), key);
  }

  // --- cancellable acquisition -------------------------------------------
  // All three return an empty guard (operator bool == false) when the
  // attempt was abandoned; the shard's abort/timeout counter records why.
  // Requires the shard algorithm to be abortable (kex_is_abortable).
  template <class Key>
  guard acquire(proc& p, Key key, cancel_token& tk) {
    return acquire_shard_cancellable(p, shard_of(key), tk);
  }

  template <class Key>
  guard try_acquire(proc& p, Key key) {
    cancel_token tk = cancel_token::fired_token();
    return acquire_shard_cancellable(p, shard_of(key), tk);
  }

  template <class Key, class Rep, class Period>
  guard acquire_for(proc& p, Key key,
                    std::chrono::duration<Rep, Period> d) {
    cancel_token tk = cancel_token::after(d);
    return acquire_shard_cancellable(p, shard_of(key), tk);
  }

  template <class S, class Key>
    requires requires(S& s) { { s.context() } -> std::same_as<proc&>; }
  guard acquire(S& s, Key key, cancel_token& tk) {
    return acquire(s.context(), key, tk);
  }
  template <class S, class Key>
    requires requires(S& s) { { s.context() } -> std::same_as<proc&>; }
  guard try_acquire(S& s, Key key) {
    return try_acquire(s.context(), key);
  }
  template <class S, class Key, class Rep, class Period>
    requires requires(S& s) { { s.context() } -> std::same_as<proc&>; }
  guard acquire_for(S& s, Key key, std::chrono::duration<Rep, Period> d) {
    return acquire_for(s.context(), key, d);
  }

  // Does the configured shard algorithm support the cancellation surface?
  bool abortable() const { return shards_[0].kex.abortable(); }

  // Run `f()` while holding the shard for `key`.
  template <class Key, class F>
  auto with(proc& p, Key key, F&& f) {
    guard g = acquire(p, key);
    return std::forward<F>(f)();
  }

  int shards() const { return static_cast<int>(shards_.size()); }
  int n() const { return n_; }
  int k() const { return k_; }

  int shard_of(std::uint64_t key) const {
    return lock_table_shard_of(lock_table_hash(key), shards());
  }
  int shard_of(std::string_view key) const {
    return lock_table_shard_of(lock_table_hash(key), shards());
  }

  // Within one row fast_hits <= acquires and occupancy <= max_occupancy
  // <= k hold (service/shard_counters.h says why).  Rows of *different*
  // shards are sampled at different instants — they are independent
  // objects.
  lock_table_stats stats() const {
    lock_table_stats out;
    out.shards.reserve(shards_.size());
    for (int i = 0; i < shards(); ++i) {
      const auto& s = shards_[static_cast<std::size_t>(i)];
      lock_shard_stats row = counters_.sample(s.tally, i);
      row.home_node = s.home_node;
      out.shards.push_back(row);
    }
    return out;
  }

 private:
  guard acquire_shard(proc& p, int idx) {
    auto& s = shards_[static_cast<std::size_t>(idx)];
    s.kex.acquire(p);
    // Everything below is host-side bookkeeping — by the time it runs the
    // caller is inside the critical section, and a sim-injected crash
    // will surface at its next *shared* access, not here.
    counters_.admitted(s.tally, idx, p.id);
    return guard(&s, &p);
  }

  guard acquire_shard_cancellable(proc& p, int idx, cancel_token& tk) {
    auto& s = shards_[static_cast<std::size_t>(idx)];
    if (!s.kex.acquire_cancellable(p, tk)) {
      // Abandoned: nothing held.
      shard_counters::abandoned(s.tally, tk.reason());
      return guard();
    }
    counters_.admitted(s.tally, idx, p.id);
    return guard(&s, &p);
  }

  arena_vector<shard> shards_;
  shard_counters counters_;
  int n_, k_;
};

}  // namespace kex
