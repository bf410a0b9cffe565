// Per-shard statistics for the lock tables, kept off the shared shard
// line.
//
// Both lock tables (service/lock_table.h, service/elastic_lock_table.h)
// count, per shard, the guards handed out, the fast hits among them
// ("acquired an otherwise-empty shard"), the current and peak occupancy
// and the rare events (crashes, aborts, timeouts).  None of it is
// protocol state: it is host-side bookkeeping outside the paper's RMR
// terms, and none of it is a platform variable, so the RMR meter never
// sees it.  On real hardware it is still memory traffic, and every shard
// counter every acquirer updates is a line that bounces between CPUs on
// every request.  The layout keeps that down to one word per shard:
//
//   * Occupancy and its high-water mark share one 64-bit word per shard
//     (low half: holders now; high half: peak).  Admission is one CAS
//     computing both halves, release one fetch_sub.  A sample that reads
//     the word gets both halves from one instant, so occupancy <=
//     max_occupancy holds in every row with no reader protocol.
//   * `acquires` and `fast_hits` live in per-pid lanes, one lane per
//     (pid, shard), each with a single writer: a pid is held by one
//     session at a time and passes to the next holder through the
//     registry's seq_cst handoff.  The writer bumps `acquires` then
//     `fast_hits` with release stores; a sample sums `fast_hits` first,
//     then `acquires`, with acquire loads.  Every `fast_hits` count a
//     sample sees was stored after its matching `acquires` count, so
//     fast_hits <= acquires holds lane by lane and in the sum.  Lanes are
//     laid out pid-major in one allocation — a pid's row holds its lanes
//     for every shard, 4 to a line, each row line-aligned — so a request
//     writes only lines no other pid writes.
//   * The rare counters stay plain shared atomics.
//
// Per request that is 2 RMWs on the shard's word (admission CAS, release
// fetch_sub) plus 2 stores to the pid's own line.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <cstdint>

#include "common/cacheline.h"
#include "common/check.h"
#include "kex/arena_layout.h"
#include "platform/cancel.h"

namespace kex {

// One shard's counters, as sampled by the tables' stats().
struct lock_shard_stats {
  std::uint64_t acquires = 0;   // guards handed out
  std::uint64_t fast_hits = 0;  // acquired an otherwise-empty shard
  std::uint64_t crashes = 0;    // holders that crashed in their CS
  std::uint64_t aborts = 0;     // attempts abandoned by cancel()
  std::uint64_t timeouts = 0;   // attempts abandoned by deadline/budget
  int max_occupancy = 0;        // peak concurrent holders (<= k always)
  int occupancy = 0;            // current holders, crashed ones included
  int home_node = 0;            // NUMA node this shard's state targets
};

class shard_counters {
 public:
  // The shared half of one shard's counters, embedded in each of a
  // table's shard headers.  Not on a line of its own: that doubles the
  // shard arena, which shows up in table set-up time (docs/PERF.md §9).
  struct tally {
    // kex-lint: allow-block(raw-atomic): host-side stats counters, not
    // protocol state — monitoring reads only, never spun on
    std::atomic<std::uint64_t> occ{0};  // holders | peak << 32
    std::atomic<std::uint64_t> crashes{0};
    std::atomic<std::uint64_t> aborts{0};
    std::atomic<std::uint64_t> timeouts{0};
  };

  // Lanes for shards 0..shards-1 and pids 0..pids-1.
  shard_counters(int shards, int pids)
      : pids_(pids),
        row_lines_((shards + lanes_per_line - 1) / lanes_per_line) {
    KEX_CHECK_MSG(shards >= 1 && pids >= 1, "shard_counters: bad shape");
    const std::size_t lines = static_cast<std::size_t>(pids) *
                              static_cast<std::size_t>(row_lines_);
    lanes_.reserve(lines);
    for (std::size_t i = 0; i < lines; ++i) lanes_.emplace_back();
  }

  // A guard was handed out on `shard` (whose tally is `t`) to `pid`.
  void admitted(tally& t, int shard, int pid) {
    KEX_CHECK(pid >= 0 && pid < pids_);
    const bool fast = raise(t) == 1;
    lane& l = lane_of(pid, shard);
    l.acquires.store(l.acquires.load(std::memory_order_relaxed) + 1,
                     std::memory_order_release);
    if (fast)
      l.fast_hits.store(l.fast_hits.load(std::memory_order_relaxed) + 1,
                        std::memory_order_release);
  }

  // The holder is leaving; the count drops before its exit section runs,
  // so sampled occupancy never exceeds the holders actually inside.
  static void released(tally& t) {
    t.occ.fetch_sub(1, std::memory_order_relaxed);
  }

  // The exit section threw process_failed: the crashed holder keeps its
  // slot forever (the model), so it goes back into the count.
  static void crashed(tally& t) {
    raise(t);
    t.crashes.fetch_add(1, std::memory_order_relaxed);
  }

  // An attempt was abandoned.  An external cancel() counts as an abort; a
  // deadline or spent budget (which covers try_acquire's pre-fired token)
  // as a timeout.
  static void abandoned(tally& t, cancel_reason why) {
    auto& ctr = why == cancel_reason::cancelled ? t.aborts : t.timeouts;
    ctr.fetch_add(1, std::memory_order_relaxed);
  }

  // One shard's row.  Within the row fast_hits <= acquires and 0 <=
  // occupancy <= max_occupancy <= k hold (see the header comment); the
  // occupancy word is read after the lanes, so a row that counts an
  // admission also counts it in max_occupancy.  Rows of different shards
  // are sampled at different instants — they are independent objects.
  lock_shard_stats sample(const tally& t, int shard) const {
    lock_shard_stats row;
    for (int pid = 0; pid < pids_; ++pid)
      row.fast_hits +=
          lane_of(pid, shard).fast_hits.load(std::memory_order_acquire);
    for (int pid = 0; pid < pids_; ++pid)
      row.acquires +=
          lane_of(pid, shard).acquires.load(std::memory_order_acquire);
    const std::uint64_t w = t.occ.load(std::memory_order_relaxed);
    row.occupancy = static_cast<int>(w & low_mask);
    row.max_occupancy = static_cast<int>(w >> 32);
    row.crashes = t.crashes.load(std::memory_order_relaxed);
    row.aborts = t.aborts.load(std::memory_order_relaxed);
    row.timeouts = t.timeouts.load(std::memory_order_relaxed);
    return row;
  }

 private:
  static constexpr std::uint64_t low_mask = 0xffffffffull;

  struct lane {
    // kex-lint: allow-block(raw-atomic): single-writer stats lane — the
    // owning pid stores, samplers load; not protocol state
    std::atomic<std::uint64_t> acquires{0};
    std::atomic<std::uint64_t> fast_hits{0};
  };
  static constexpr int lanes_per_line =
      static_cast<int>(cacheline_size / sizeof(lane));
  struct alignas(cacheline_size) lane_line {
    lane lanes[lanes_per_line];
  };

  // One more holder; the peak follows.  Returns the new holder count.
  static int raise(tally& t) {
    std::uint64_t w = t.occ.load(std::memory_order_relaxed);
    for (;;) {
      const std::uint64_t now = (w & low_mask) + 1;
      const std::uint64_t peak = std::max(now, w >> 32);
      if (t.occ.compare_exchange_weak(w, now | peak << 32,
                                      std::memory_order_relaxed))
        return static_cast<int>(now);
    }
  }

  lane& lane_of(int pid, int shard) {
    return lanes_[static_cast<std::size_t>(pid * row_lines_ +
                                           shard / lanes_per_line)]
        .lanes[shard % lanes_per_line];
  }
  const lane& lane_of(int pid, int shard) const {
    return lanes_[static_cast<std::size_t>(pid * row_lines_ +
                                           shard / lanes_per_line)]
        .lanes[shard % lanes_per_line];
  }

  int pids_, row_lines_;
  arena_vector<lane_line> lanes_;  // pid-major rows of row_lines_ lines
};

}  // namespace kex
