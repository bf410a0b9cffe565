// Elastic lock table: the sharded lock manager whose shard set and
// per-shard k track the workload instead of the constructor arguments.
//
// Two axes of elasticity over service/lock_table.h's design:
//
//  * ONLINE RESHARDING.  Placement goes through a versioned rendezvous
//    directory (service/shard_directory.h) instead of hash % S, so a
//    split or merge moves only the minimal key range.  Migration is an
//    epoch-based handover:
//
//      publish:  the target active set becomes the directory's pending
//                set (new acquires route by the new epoch from this
//                instant), then every source shard's generation is
//                bumped — holders stamped at the old parity are the
//                "old regime".
//      drain:    each release (and each crashed holder's burned slot)
//                retires one old-parity stamp; a shard is drained when
//                in_flight[old] == crashes[old] — crashed holders leave
//                a matched +1 in both counters forever, so the
//                condition means exactly "no live old-regime holder".
//      commit:   whichever release drains the last source shard commits
//                the directory (pending becomes committed, epoch++).
//
//    Old holders finish under the shard they stamped.  While the drain
//    is open, an acquirer of a MOVING key double-acquires: source kex
//    first (the escort hold), then target — so before the commit every
//    holder of the key shares the source kex and after it every holder
//    shares the target kex, and the per-key <= k bound holds at every
//    epoch.  Non-moving keys (the vast majority, by HRW minimality)
//    never wait on a migration at all, and all waiting happens inside
//    ordinary kex acquires — platform-variable waits the stepped
//    schedules can drive, never a host-side spin.  A holder that
//    crashes mid-handover burns only its own slot(s): an old-regime
//    holder one slot of its source shard's (k-1) budget, a mover at
//    worst its escort and target slots.  The stamp/re-check pair closes
//    the publish/route race: an acquirer either stamps the old parity
//    before the bump (the drain waits for it) or observes the pending
//    set on its post-stamp re-check and re-routes.
//
//  * ADAPTIVE k.  A per-shard contention controller (service/
//    adaptive_k.h) samples per-shard stats on decayed windows
//    and steps each shard's effective k by parking/releasing governor
//    processes through the fast/graceful composition's detain_slot
//    re-dress (Theorems 4/8: a permanent holder is a lowered k).  Steps
//    land on maintenance ticks — epoch boundaries — never inside an
//    acquire, and the governor pids live above the client pid space
//    (make_kex's pid_space), so the protocol's shape and the
//    steady-state RMR cost per acquire are untouched: with adaptation
//    off the stepped amortized meter is byte-identical to the static
//    table's.
//
// Everything the elastic layer adds to the acquire path is host-side
// (directory load, parity stamp, stats counters): zero platform-variable
// accesses, zero remote references in the paper's model, and nothing a
// stepped schedule can park inside.
#pragma once

#include <atomic>
#include <chrono>
#include <concepts>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/cacheline.h"
#include "common/check.h"
#include "kex/any_kex.h"
#include "kex/arena_layout.h"
#include "service/adaptive_k.h"
#include "service/lock_table.h"
#include "service/shard_counters.h"
#include "service/shard_directory.h"

namespace kex {

struct elastic_options {
  std::string algorithm = "cc_fast";  // must be abortable when adaptive
  int initial_shards = 4;             // active slots at construction
  int max_shards = 16;                // slot universe (<= 64)
  int min_shards = 1;                 // merges never go below this
  int k_min = 1;                      // floor for stepped-down shards
  int k_base = 2;                     // effective k at construction
  int k_max = 4;                      // protocol k (detains recover the gap)
  bool adaptive = true;               // controller steps k on ticks
  bool resharding = true;             // controller may split/merge
  std::uint64_t seed = 0x9e3779b97f4a7c15ull;  // directory placement seed
  adaptive_k_options controller;
};

// One slot's row in an elastic stats sample; slots outside the active
// set report active == false with whatever residue they accumulated.
struct elastic_shard_stats : lock_shard_stats {
  bool active = false;
  int effective_k = 0;
  std::uint64_t gen = 0;
};

struct elastic_table_stats {
  std::vector<elastic_shard_stats> slots;
  std::uint64_t epoch = 0;
  std::uint64_t handovers = 0;    // committed resizes
  std::uint64_t k_steps_up = 0;   // governor restores applied
  std::uint64_t k_steps_down = 0; // governor detains applied
  int active_shards = 0;

  std::uint64_t total_acquires() const {
    std::uint64_t t = 0;
    for (const auto& s : slots) t += s.acquires;
    return t;
  }
  std::uint64_t total_fast_hits() const {
    std::uint64_t t = 0;
    for (const auto& s : slots) t += s.fast_hits;
    return t;
  }
  std::uint64_t total_crashes() const {
    std::uint64_t t = 0;
    for (const auto& s : slots) t += s.crashes;
    return t;
  }
  int max_occupancy() const {
    int t = 0;
    for (const auto& s : slots) t = std::max(t, s.max_occupancy);
    return t;
  }
};

template <Platform P>
class elastic_lock_table {
  using proc = typename P::proc;

 public:
  explicit elastic_lock_table(int n, elastic_options opts = {},
                              cost_model model = cost_model::cc)
      : n_(n),
        opts_(std::move(opts)),
        dir_(opts_.initial_shards, opts_.seed),
        ctrl_(opts_.max_shards, opts_.controller),
        counters_(opts_.max_shards, n) {
    KEX_CHECK_MSG(opts_.max_shards >= opts_.initial_shards &&
                      opts_.initial_shards >= opts_.min_shards &&
                      opts_.min_shards >= 1 &&
                      opts_.max_shards <= shard_directory_max_slots,
                  "elastic_lock_table: bad shard bounds");
    KEX_CHECK_MSG(1 <= opts_.k_min && opts_.k_min <= opts_.k_base &&
                      opts_.k_base <= opts_.k_max,
                  "elastic_lock_table: need 1 <= k_min <= k_base <= k_max");
    // Governors only exist when adaptation can step k below k_max; the
    // non-adaptive table is built at exactly k_base with the client pid
    // space, so its protocol shape — and its stepped RMR meter — is
    // bit-for-bit the static table's.
    governors_per_shard_ = opts_.adaptive ? opts_.k_max - opts_.k_min : 0;
    const int protocol_k = opts_.adaptive ? opts_.k_max : opts_.k_base;
    const int n_total = n_ + governors_per_shard_;
    KEX_CHECK_MSG(protocol_k < n_total,
                  "elastic_lock_table: pid space too small for k");
    if (opts_.adaptive)
      KEX_CHECK_MSG(kex_is_abortable(opts_.algorithm),
                    "elastic_lock_table: adaptive k needs an abortable "
                    "algorithm (governor detains must be able to back off)");

    // The whole slot universe is built up front: a split activates an
    // already-constructed shard, so resizes allocate nothing and racing
    // acquirers never observe a half-built object.
    shards_.reserve(static_cast<std::size_t>(opts_.max_shards));
    for (int slot = 0; slot < opts_.max_shards; ++slot) {
      eshard& s = shards_.emplace_back();
      s.slot = slot;
      s.kex = make_kex<P>(opts_.algorithm, n_total, protocol_k, n_total);
      for (int g = 0; g < governors_per_shard_; ++g)
        s.governors.push_back(std::make_unique<proc>(n_ + g, model));
      // Start every adaptive shard at k_base: park k_max - k_base
      // governors now, on a shard nobody can be contending for yet.  The
      // non-adaptive table is already built at exactly k_base.
      for (int g = 0; opts_.adaptive && g < opts_.k_max - opts_.k_base;
           ++g) {
        cancel_token tk = cancel_token::with_budget(1u << 20);
        KEX_CHECK_MSG(detain_one(s, tk),
                      "elastic_lock_table: initial detain failed");
      }
    }
  }

  elastic_lock_table(const elastic_lock_table&) = delete;
  elastic_lock_table& operator=(const elastic_lock_table&) = delete;

 private:
  // Defined below; guard's member bodies are complete-class contexts of
  // the enclosing class, so they may dereference it.
  struct eshard;

 public:
  // RAII hold on one shard, carrying the parity it stamped so release
  // retires the right drain counter.
  class guard {
   public:
    guard() = default;
    guard(guard&& o) noexcept
        : t_(std::exchange(o.t_, nullptr)),
          s_(std::exchange(o.s_, nullptr)),
          es_(std::exchange(o.es_, nullptr)),
          p_(std::exchange(o.p_, nullptr)),
          par_(o.par_),
          epar_(o.epar_) {}
    guard& operator=(guard&& o) noexcept {
      if (this != &o) {
        release();
        t_ = std::exchange(o.t_, nullptr);
        s_ = std::exchange(o.s_, nullptr);
        es_ = std::exchange(o.es_, nullptr);
        p_ = std::exchange(o.p_, nullptr);
        par_ = o.par_;
        epar_ = o.epar_;
      }
      return *this;
    }
    guard(const guard&) = delete;
    guard& operator=(const guard&) = delete;
    ~guard() { release(); }

    explicit operator bool() const { return s_ != nullptr; }

    void release() {
      if (s_ == nullptr) return;
      auto* t = t_;
      auto* s = std::exchange(s_, nullptr);
      auto* es = std::exchange(es_, nullptr);
      shard_counters::released(s->tally);
      bool crashed = false;
      try {
        s->kex.release(*p_);
      } catch (const process_failed&) {
        crashed = true;
        shard_counters::crashed(s->tally);
      }
      if (crashed) {
        // The burned slot's stamp is retired on the crash side of the
        // ledger: in_flight keeps its +1, crashes matches it, and the
        // drain condition still reads "no live old-regime holder".
        s->par_crashes[par_].fetch_add(1);
      } else {
        s->in_flight[par_].fetch_sub(1);
      }
      t->maybe_commit(*s);
      if (es != nullptr) {
        // Escort hold (migration double-acquire): the source-shard slot
        // that certified us against the old regime retires second.  A
        // crash here burns the mover's own source slot as well.
        bool ecrashed = false;
        try {
          es->kex.release(*p_);
        } catch (const process_failed&) {
          ecrashed = true;
        }
        if (ecrashed) {
          es->par_crashes[epar_].fetch_add(1);
        } else {
          es->in_flight[epar_].fetch_sub(1);
        }
        t->escorts_.fetch_sub(1);
        t->maybe_commit(*es);
      }
    }

   private:
    friend class elastic_lock_table;
    guard(elastic_lock_table* t, eshard* s, proc* p, int par, eshard* es,
          int epar)
        : t_(t), s_(s), es_(es), p_(p), par_(par), epar_(epar) {}

    elastic_lock_table* t_ = nullptr;
    eshard* s_ = nullptr;
    eshard* es_ = nullptr;  // escort (source) hold while migrating
    proc* p_ = nullptr;
    int par_ = 0;
    int epar_ = 0;
  };

  guard acquire(proc& p, std::uint64_t key) {
    return acquire_hash(p, lock_table_hash(key));
  }
  guard acquire(proc& p, std::string_view key) {
    return acquire_hash(p, lock_table_hash(key));
  }

  template <class S, class Key>
    requires requires(S& s) { { s.context() } -> std::same_as<proc&>; }
  guard acquire(S& s, Key key) {
    return acquire(s.context(), key);
  }

  template <class Key>
  guard acquire(proc& p, Key key, cancel_token& tk) {
    return acquire_hash_cancellable(p, lock_table_hash(key), tk);
  }
  template <class S, class Key>
    requires requires(S& s) { { s.context() } -> std::same_as<proc&>; }
  guard acquire(S& s, Key key, cancel_token& tk) {
    return acquire(s.context(), key, tk);
  }

  // --- introspection -------------------------------------------------------

  int n() const { return n_; }
  int max_shards() const { return opts_.max_shards; }
  int active_shards() const { return dir_.active_count(); }
  std::uint64_t active_bits() const { return dir_.committed(); }
  std::uint64_t epoch() const { return dir_.epoch(); }
  bool handover_in_flight() const { return dir_.pending() != 0; }
  const shard_directory& directory() const { return dir_; }

  int slot_of(std::uint64_t key) const {
    return dir_.route(lock_table_hash(key)).slot;
  }
  int slot_of(std::string_view key) const {
    return dir_.route(lock_table_hash(key)).slot;
  }

  int effective_k(int slot) const {
    return shards_[static_cast<std::size_t>(slot)].kex.effective_k();
  }

  elastic_table_stats stats() const {
    elastic_table_stats out;
    const std::uint64_t active = dir_.committed();
    out.slots.reserve(shards_.size());
    for (int slot = 0; slot < static_cast<int>(shards_.size()); ++slot) {
      const auto& s = shards_[static_cast<std::size_t>(slot)];
      elastic_shard_stats row;
      static_cast<lock_shard_stats&>(row) = counters_.sample(s.tally, slot);
      row.active = (active >> slot) & 1;
      row.effective_k = s.kex.effective_k();
      row.gen = s.gen.load();
      out.slots.push_back(row);
    }
    out.epoch = dir_.epoch();
    out.handovers = handovers_.load();
    out.k_steps_up = k_steps_up_.load();
    out.k_steps_down = k_steps_down_.load();
    out.active_shards = __builtin_popcountll(active);
    return out;
  }

  // --- maintenance (single caller at a time; a mutex enforces it) ----------

  // One controller tick: sample every active shard, apply k steps via the
  // governors, and start at most one split/merge if the previous handover
  // has fully committed.  Never blocks on clients: a detain that cannot
  // get a slot within its budget is skipped and retried next tick, and a
  // resize is skipped while one is draining.
  void maintenance() {
    std::lock_guard<std::mutex> hold(maint_mutex_);
    const std::uint64_t active = dir_.committed();

    std::uint64_t bits = active;
    while (bits != 0) {
      const int slot = __builtin_ctzll(bits);
      bits &= bits - 1;
      auto& s = shards_[static_cast<std::size_t>(slot)];
      const lock_shard_stats row = counters_.sample(s.tally, slot);
      shard_sample sample;
      sample.acquires = row.acquires;
      sample.fast_hits = row.fast_hits;
      sample.aborts = row.aborts;
      sample.timeouts = row.timeouts;
      sample.max_occupancy = row.max_occupancy;
      sample.occupancy = row.occupancy;
      sample.effective_k = s.kex.effective_k();
      const k_step step = ctrl_.tick_slot(slot, sample);
      if (!opts_.adaptive) continue;
      if (step == k_step::up && s.kex.detained() > 0) {
        restore_one(s);
        k_steps_up_.fetch_add(1);
      } else if (step == k_step::down &&
                 s.kex.effective_k() > opts_.k_min) {
        // Small budget: on a busy shard the governor backs off rather
        // than queue behind clients — the step retries next tick.
        cancel_token tk = cancel_token::with_budget(64);
        if (detain_one(s, tk)) k_steps_down_.fetch_add(1);
      }
    }

    const bool can_resize = opts_.resharding && dir_.pending() == 0 &&
                            pending_sources_.load() == 0;
    const auto rd = ctrl_.tick_table(active, can_resize);
    if (rd.action == resize_decision::kind::split &&
        dir_.active_count() < opts_.max_shards) {
      request_split();
    } else if (rd.action == resize_decision::kind::merge &&
               dir_.active_count() > opts_.min_shards) {
      request_merge(rd.merge_slot);
    }
  }

  // Manually start a split (activate the lowest inactive slot) or a merge
  // (deactivate `slot`).  Host-side only — callable from tests, audits,
  // and stepped scripts without touching the gate.  Returns false when a
  // handover is already draining or the bounds forbid the move.
  bool request_split() {
    std::lock_guard<std::mutex> hold(resize_mutex_);
    return publish_resize(/*split=*/true, -1);
  }
  bool request_merge(int slot) {
    std::lock_guard<std::mutex> hold(resize_mutex_);
    return publish_resize(/*split=*/false, slot);
  }

  // External re-dress hooks: park/release a slot of `slot`'s shard using
  // a caller-supplied proc (the stepped audits drive promotion from a
  // scripted pid so every shared access goes through the gate).
  bool detain_slot(int slot, proc& p, cancel_token& tk) {
    auto& s = shards_[static_cast<std::size_t>(slot)];
    return s.kex.detain_slot(p, tk);
  }
  void restore_slot(int slot, proc& p) {
    shards_[static_cast<std::size_t>(slot)].kex.restore_slot(p);
  }

 private:
  struct alignas(cacheline_size) eshard {
    any_kex<P> kex;
    int slot = 0;
    // kex-lint: allow-block(raw-atomic): host-side handover bookkeeping
    // (parity-stamped drain counters) — read on the acquire path but
    // never spun on; the wait-free stamp/re-check protocol is documented
    // in the header comment
    std::atomic<std::uint64_t> gen{0};
    std::atomic<std::int64_t> in_flight[2] = {};
    std::atomic<std::int64_t> par_crashes[2] = {};
    std::atomic<int> pending_source{0};
    std::vector<std::unique_ptr<proc>> governors;
    shard_counters::tally tally;  // service/shard_counters.h
  };

  // One (shard, parity) stamp on the drain ledger.
  struct hold {
    eshard* s = nullptr;
    int par = 0;
    bool escort = false;  // counted in escorts_ until retired
    explicit operator bool() const { return s != nullptr; }
  };

  hold stamp_slot(int slot) {
    auto& s = shards_[static_cast<std::size_t>(slot)];
    const int par = static_cast<int>(s.gen.load() & 1);
    s.in_flight[par].fetch_add(1);
    return {&s, par};
  }
  // Retire a stamp whose holder walked away without acquiring (re-route,
  // abandoned attempt).  It may have been the stamp keeping a drain open.
  void unstamp(const hold& h) {
    h.s->in_flight[h.par].fetch_sub(1);
    if (h.escort) escorts_.fetch_sub(1);
    maybe_commit(*h.s);
  }
  // Retire a stamp on the crash side of the ledger: in_flight keeps the
  // +1, par_crashes matches it, the drain condition still reads "no live
  // old-regime holder".
  void burn(const hold& h) {
    h.s->par_crashes[h.par].fetch_add(1);
    if (h.escort) escorts_.fetch_sub(1);
    maybe_commit(*h.s);
  }

  // Stamp the shard(s) an acquire of `h` must hold, then re-check the
  // routing.  The seq_cst total order makes the stamp/re-check pair
  // airtight against a racing publish or commit: either the whole stamp
  // precedes the publish (so the source drain waits for it), or the
  // re-check observes the new routing and retries.
  //
  // While a handover is pending and the key is MOVING (source != target
  // under the two epochs), the acquirer takes an additional escort stamp
  // on the source shard and will acquire the source kex first.  That is
  // what preserves the per-key <= k bound across migration: before the
  // commit every holder of the key holds the source kex (old regime
  // included), after the commit every holder holds the target kex — the
  // certifying object is well-defined at every instant.  Escort edges
  // point source -> target of one handover (split: all into the fresh
  // slot; merge: all out of the victim), so the two-step acquire order
  // cannot form a cycle — provided no escort of a committed handover is
  // still live when the next one publishes.  Edges of two handovers can
  // close a cycle (a split's S -> N against the merge of N, N -> S), with
  // every process spinning in a kex wait.  Hence the re-check compares
  // the whole plan, escort included, and publish_resize refuses while
  // escorts_ is non-zero: an escort counted before a re-check that saw
  // handover H pending is visible to every publish after H's commit.
  struct stamp_result {
    hold primary;
    hold escort;
  };
  // Primary slot, and escort slot (-1: none) for an acquire of `h` now.
  std::pair<int, int> plan(std::uint64_t h) const {
    const shard_route r = dir_.route(h);
    const int src = r.pending ? dir_.place_committed(h) : r.slot;
    return {r.slot, src != r.slot ? src : -1};
  }
  stamp_result stamp(std::uint64_t h) {
    for (;;) {
      const auto want = plan(h);
      stamp_result out;
      if (want.second >= 0) {
        escorts_.fetch_add(1);
        out.escort = stamp_slot(want.second);
        out.escort.escort = true;
      }
      out.primary = stamp_slot(want.first);
      if (plan(h) == want) return out;
      // Raced a publish or commit: retire the transient stamps and
      // route again.
      unstamp(out.primary);
      if (out.escort) unstamp(out.escort);
    }
  }

  // Crash mid-entry: the entrant burns its stamps like a crashed holder,
  // then the failure propagates to the caller as usual.
  guard admit(const stamp_result& st, proc& p) {
    eshard& s = *st.primary.s;
    counters_.admitted(s.tally, s.slot, p.id);
    return guard(this, &s, &p, st.primary.par, st.escort.s,
                 st.escort.par);
  }

  guard acquire_hash(proc& p, std::uint64_t h) {
    const stamp_result st = stamp(h);
    if (st.escort) {
      try {
        st.escort.s->kex.acquire(p);
      } catch (const process_failed&) {
        burn(st.escort);
        burn(st.primary);
        throw;
      }
    }
    try {
      st.primary.s->kex.acquire(p);
    } catch (const process_failed&) {
      // If the escort kex was already held, its slot is burned at the
      // kex level too — the mover crashes out of its own budget only.
      if (st.escort) burn(st.escort);
      burn(st.primary);
      throw;
    }
    return admit(st, p);
  }

  guard acquire_hash_cancellable(proc& p, std::uint64_t h,
                                 cancel_token& tk) {
    const stamp_result st = stamp(h);
    eshard& s = *st.primary.s;
    if (st.escort) {
      bool ok = false;
      try {
        ok = st.escort.s->kex.acquire_cancellable(p, tk);
      } catch (const process_failed&) {
        burn(st.escort);
        burn(st.primary);
        throw;
      }
      if (!ok) {
        shard_counters::abandoned(s.tally, tk.reason());
        unstamp(st.primary);
        unstamp(st.escort);
        return guard();
      }
    }
    bool ok = false;
    try {
      ok = s.kex.acquire_cancellable(p, tk);
    } catch (const process_failed&) {
      if (st.escort) burn(st.escort);
      burn(st.primary);
      throw;
    }
    if (!ok) {
      if (st.escort) {
        try {
          st.escort.s->kex.release(p);
          unstamp(st.escort);
        } catch (const process_failed&) {
          burn(st.escort);
          burn(st.primary);
          throw;
        }
      }
      shard_counters::abandoned(s.tally, tk.reason());
      unstamp(st.primary);
      return guard();
    }
    return admit(st, p);
  }

  // Publish order matters: the pending set first (new acquires route by
  // the new epoch from here on), then the source generations (stamps
  // split into old/new regimes), then an immediate drain pass for shards
  // that were already idle.  Every source may lose keys under HRW, so
  // every active shard is a source.
  //
  // The target is computed and reserved under commit_mutex_ — the same
  // lock the commit step takes — so a handover committing concurrently
  // cannot slip a new committed set between our with_split/with_merge
  // read and the reservation (a stale target could re-activate a slot a
  // racing merge just retired).  The drain counters are only initialised
  // after a successful reservation: a refused publish must not disturb
  // the in-flight handover's bookkeeping.
  bool publish_resize(bool split, int merge_slot) {
    std::uint64_t sources, target;
    {
      std::lock_guard<std::mutex> c(commit_mutex_);
      // Under commit_mutex_ a pending() of 0 stays 0, and every escort of
      // the last handover that could still see it pending is counted.
      if (dir_.pending() != 0 || escorts_.load() != 0) return false;
      sources = dir_.committed();
      const int active = __builtin_popcountll(sources);
      target = split ? (active < opts_.max_shards ? dir_.with_split() : 0)
                     : (active > opts_.min_shards ? dir_.with_merge(merge_slot)
                                                  : 0);
      if (target == 0 || !dir_.begin_resize(target)) return false;
    }
    pending_sources_.store(__builtin_popcountll(sources));
    std::uint64_t bits = sources;
    while (bits != 0) {
      const int slot = __builtin_ctzll(bits);
      bits &= bits - 1;
      auto& s = shards_[static_cast<std::size_t>(slot)];
      s.pending_source.store(1);
      s.gen.fetch_add(1);
    }
    bits = sources;
    while (bits != 0) {
      const int slot = __builtin_ctzll(bits);
      bits &= bits - 1;
      maybe_commit(shards_[static_cast<std::size_t>(slot)]);
    }
    return true;
  }

  // Retire this shard from the drain set if its old regime is empty; the
  // retiree of the last source commits the directory.
  void maybe_commit(eshard& s) {
    if (s.pending_source.load() == 0) return;
    const std::uint64_t g = s.gen.load();
    const int old_par = static_cast<int>((g - 1) & 1);
    if (s.in_flight[old_par].load() != s.par_crashes[old_par].load())
      return;
    int expected = 1;
    if (!s.pending_source.compare_exchange_strong(expected, 0)) return;
    if (pending_sources_.fetch_sub(1) == 1) {
      std::lock_guard<std::mutex> c(commit_mutex_);
      dir_.commit_resize();
      handovers_.fetch_add(1);
    }
  }

  // Governors detain in LIFO order: governors[0..detained-1] hold.
  bool detain_one(eshard& s, cancel_token& tk) {
    const int d = s.kex.detained();
    KEX_CHECK_MSG(d < static_cast<int>(s.governors.size()),
                  "detain_one: no free governor");
    return s.kex.detain_slot(*s.governors[static_cast<std::size_t>(d)], tk);
  }
  void restore_one(eshard& s) {
    const int d = s.kex.detained();
    KEX_CHECK_MSG(d >= 1, "restore_one: nothing detained");
    s.kex.restore_slot(*s.governors[static_cast<std::size_t>(d - 1)]);
  }

  int n_;
  elastic_options opts_;
  int governors_per_shard_ = 0;
  shard_directory dir_;
  contention_controller ctrl_;
  arena_vector<eshard> shards_;
  shard_counters counters_;
  std::mutex maint_mutex_;
  std::mutex resize_mutex_;   // serializes publishers
  std::mutex commit_mutex_;   // orders target computation vs commits
  // kex-lint: allow-block(raw-atomic): handover/adaptation totals —
  // host-side monitoring and drain bookkeeping, not protocol state
  std::atomic<int> pending_sources_{0};
  std::atomic<int> escorts_{0};  // live escort stamps (see stamp())
  std::atomic<std::uint64_t> handovers_{0};
  std::atomic<std::uint64_t> k_steps_up_{0};
  std::atomic<std::uint64_t> k_steps_down_{0};
};

}  // namespace kex
