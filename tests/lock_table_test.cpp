// Lock table: striped named-resource k-exclusion.  Disjoint keys on
// different shards never block each other, a shard bounds its holders at
// k, a holder crashing in its critical section costs that shard one slot
// and costs the other shards nothing, and the 2-shard table survives
// exhaustive interleaving exploration.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <memory>
#include <set>
#include <thread>
#include <vector>

#include "platform/stepper.h"
#include "runtime/process_group.h"
#include "runtime/workload.h"
#include "service/lock_table.h"
#include "service/session_registry.h"

namespace kex {
namespace {

using sim = sim_platform;
using real = real_platform;

TEST(LockTableHash, ShardPlacementIsStableAndInRange) {
  lock_table<real> table(8, "cc_fast", 4, 1);
  for (std::uint64_t key = 0; key < 500; ++key) {
    int s = table.shard_of(key);
    EXPECT_GE(s, 0);
    EXPECT_LT(s, 8);
    // Placement is a pure function of the key.
    EXPECT_EQ(s, table.shard_of(key));
  }
  EXPECT_EQ(table.shard_of(std::string_view{"users/42"}),
            table.shard_of(std::string_view{"users/42"}));
}

TEST(LockTableHash, ConsecutiveKeysSpreadAcrossShards) {
  constexpr int S = 8;
  std::vector<int> hits(S, 0);
  for (std::uint64_t key = 0; key < 4000; ++key)
    ++hits[static_cast<std::size_t>(
        lock_table_shard_of(lock_table_hash(key), S))];
  for (int s = 0; s < S; ++s)
    EXPECT_GT(hits[static_cast<std::size_t>(s)], 4000 / S / 2)
        << "shard " << s << " starved by the integer mixer";
}

TEST(LockTable, DisjointKeysNeverBlockEachOther) {
  // k = 1 shards: within a shard this is mutual exclusion.  Two procs
  // holding keys on different shards at once proves cross-shard
  // independence — with one shard the second acquire would deadlock.
  lock_table<sim> table(4, "cc_fast", 4, 1);
  std::uint64_t ka = 0;
  std::uint64_t kb = 1;
  while (table.shard_of(kb) == table.shard_of(ka)) ++kb;

  sim::proc pa{0, cost_model::cc};
  sim::proc pb{1, cost_model::cc};
  auto ga = table.acquire(pa, ka);
  auto gb = table.acquire(pb, kb);  // completes while ga is held
  EXPECT_TRUE(static_cast<bool>(ga));
  EXPECT_TRUE(static_cast<bool>(gb));
  auto stats = table.stats();
  EXPECT_EQ(stats.shards[static_cast<std::size_t>(table.shard_of(ka))]
                .occupancy,
            1);
  EXPECT_EQ(stats.shards[static_cast<std::size_t>(table.shard_of(kb))]
                .occupancy,
            1);
}

TEST(LockTable, SameKeyIsMutuallyExclusiveAtKOne) {
  constexpr int N = 6, OPS = 300;
  lock_table<real> table(4, "cc_fast", N, 1);
  const std::uint64_t key = 7;
  long plain_counter = 0;  // non-atomic: only safe under mutual exclusion
  std::vector<std::thread> ts;
  for (int pid = 0; pid < N; ++pid) {
    ts.emplace_back([&, pid] {
      real::proc p{pid};
      for (int i = 0; i < OPS; ++i) {
        auto g = table.acquire(p, key);
        ++plain_counter;
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_EQ(plain_counter, static_cast<long>(N) * OPS);
  auto stats = table.stats();
  const auto& row =
      stats.shards[static_cast<std::size_t>(table.shard_of(key))];
  EXPECT_EQ(row.acquires, static_cast<std::uint64_t>(N) * OPS);
  EXPECT_EQ(row.max_occupancy, 1);
}

TEST(LockTable, SameKeyOccupancyIsBoundedAtK) {
  constexpr int N = 8, K = 3, OPS = 150;
  lock_table<real> table(2, "cc_fast", N, K);
  const std::uint64_t key = 11;
  std::atomic<int> inside{0};
  std::atomic<bool> over_k{false};
  std::vector<std::thread> ts;
  for (int pid = 0; pid < N; ++pid) {
    ts.emplace_back([&, pid] {
      real::proc p{pid};
      for (int i = 0; i < OPS; ++i) {
        auto g = table.acquire(p, key);
        if (inside.fetch_add(1) + 1 > K) over_k.store(true);
        std::this_thread::yield();
        inside.fetch_sub(1);
      }
    });
  }
  for (auto& t : ts) t.join();
  EXPECT_FALSE(over_k.load());
  auto stats = table.stats();
  EXPECT_LE(stats.max_occupancy(), K);
  EXPECT_EQ(stats.total_acquires(), static_cast<std::uint64_t>(N) * OPS);
}

TEST(LockTable, GuardMoveAndEarlyRelease) {
  lock_table<real> table(1, "cc_fast", 2, 1);
  real::proc p{0};
  auto g = table.acquire(p, std::uint64_t{1});
  lock_table<real>::guard h = std::move(g);
  EXPECT_FALSE(static_cast<bool>(g));
  EXPECT_TRUE(static_cast<bool>(h));
  h.release();
  EXPECT_FALSE(static_cast<bool>(h));
  h.release();  // idempotent
  // The slot is actually free again.
  auto g2 = table.acquire(p, std::uint64_t{1});
  EXPECT_TRUE(static_cast<bool>(g2));
}

TEST(LockTable, WithRunsUnderTheShardLock) {
  lock_table<real> table(2, "cc_fast", 2, 1);
  real::proc p{0};
  int x = table.with(p, std::uint64_t{3}, [] { return 41 + 1; });
  EXPECT_EQ(x, 42);
  EXPECT_EQ(table.stats().total_acquires(), 1u);
}

TEST(LockTable, SessionFrontDoorUsesTheSessionContext) {
  session_registry<real> reg(4, cost_model::none);
  lock_table<real> table(2, "cc_fast", 4, 2);
  auto s = reg.attach();
  {
    auto g = table.acquire(s, std::uint64_t{9});
    EXPECT_TRUE(static_cast<bool>(g));
  }
  {
    auto g = table.acquire(s, std::string_view{"orders/9"});
    EXPECT_TRUE(static_cast<bool>(g));
  }
  EXPECT_EQ(table.stats().total_acquires(), 2u);
}

// A holder crashes inside its critical section: that shard loses one of
// its k slots (stats record it), every other shard is untouched, and
// survivors keep completing everywhere — including on the crashed shard,
// through its remaining slots.
TEST(LockTableCrash, CrashInCsIsContainedToOneShardSlot) {
  constexpr int N = 6, K = 2, SHARDS = 3, OPS = 40;
  lock_table<sim> table(SHARDS, "cc_fast", N, K);

  // One key per shard so every shard sees survivor traffic.
  std::vector<std::uint64_t> key_for(SHARDS);
  for (int s = 0; s < SHARDS; ++s) {
    std::uint64_t key = 0;
    while (table.shard_of(key) != s) ++key;
    key_for[static_cast<std::size_t>(s)] = key;
  }
  const std::uint64_t crash_key = key_for[0];

  process_set<sim> procs(N, cost_model::cc);
  std::atomic<long> survivor_ops{0};
  auto result = run_workers<sim>(procs, all_pids(N), [&](sim::proc& p) {
    if (p.id == 0) {
      auto g = table.acquire(p, crash_key);
      p.fail();
      return;  // guard unwinds as a crashed holder; slot burned
    }
    for (int i = 0; i < OPS; ++i) {
      auto g = table.acquire(
          p, key_for[static_cast<std::size_t>((p.id + i) % SHARDS)]);
      survivor_ops.fetch_add(1);
    }
  });

  // The crasher's thread completed (the guard swallowed the failure)...
  EXPECT_EQ(result.crashed + result.completed, N);
  // ...every survivor finished every operation on every shard.
  EXPECT_EQ(survivor_ops.load(), static_cast<long>(N - 1) * OPS);

  auto stats = table.stats();
  EXPECT_EQ(stats.shards[0].crashes, 1u);
  EXPECT_EQ(stats.shards[0].occupancy, 1);  // the dead holder's slot
  for (int s = 1; s < SHARDS; ++s) {
    EXPECT_EQ(stats.shards[static_cast<std::size_t>(s)].crashes, 0u);
    EXPECT_EQ(stats.shards[static_cast<std::size_t>(s)].occupancy, 0);
  }
  EXPECT_LE(stats.max_occupancy(), K);

  // The crashed shard still admits k-1 concurrent holders.
  sim::proc p4{4, cost_model::cc};
  auto g = table.acquire(p4, crash_key);
  EXPECT_TRUE(static_cast<bool>(g));
}

// Cancellable guards: with the shard held, a try must fail without
// waiting, a budget acquire must time out, an external cancel must
// abort — and the shard books each outcome under the right counter
// (aborts = cancel(), timeouts = deadline/budget, attempts = the sum).
TEST(LockTableAbort, CancellableGuardsCountAbortsAndTimeouts) {
  lock_table<sim> table(2, "cc_inductive", 4, 1);
  ASSERT_TRUE(table.abortable());
  process_set<sim> procs(4, cost_model::cc);
  const std::uint64_t key = 7;

  auto g = table.acquire(procs[0], key);
  ASSERT_TRUE(static_cast<bool>(g));

  EXPECT_FALSE(static_cast<bool>(table.try_acquire(procs[1], key)));
  {
    cancel_token tk = cancel_token::with_budget(4);
    EXPECT_FALSE(static_cast<bool>(table.acquire(procs[1], key, tk)));
    EXPECT_EQ(tk.reason(), cancel_reason::budget);
  }
  {
    cancel_token tk;
    tk.cancel();
    EXPECT_FALSE(static_cast<bool>(table.acquire(procs[1], key, tk)));
  }

  auto st = table.stats();
  EXPECT_EQ(st.total_acquires(), 1u);
  EXPECT_EQ(st.total_timeouts(), 2u);  // the try + the budget expiry
  EXPECT_EQ(st.total_aborts(), 1u);    // the external cancel
  EXPECT_EQ(st.total_attempts(), 4u);

  // The failed attempts left the shard intact: release, and a try gets
  // in immediately.
  g.release();
  auto g2 = table.try_acquire(procs[1], key);
  EXPECT_TRUE(static_cast<bool>(g2));
  g2.release();
  EXPECT_EQ(table.stats().total_acquires(), 2u);
  EXPECT_EQ(table.stats().total_attempts(), 5u);
}

// A table sharded over a non-abortable algorithm refuses the timed
// surface loudly instead of blocking forever.
TEST(LockTableAbort, NonAbortableShardsRefuseTimedAcquires) {
  lock_table<sim> table(2, "ticket", 4, 1);
  ASSERT_FALSE(table.abortable());
  process_set<sim> procs(4, cost_model::cc);
  EXPECT_THROW((void)table.try_acquire(procs[0], std::uint64_t{1}),
               invariant_violation);
  // The plain surface is unaffected.
  auto g = table.acquire(procs[0], std::uint64_t{1});
  EXPECT_TRUE(static_cast<bool>(g));
}

// Exhaustive interleaving exploration on a 2-shard table (stepper):
// every schedule prefix of two procs working disjoint shards completes
// without deadlock, and no probed state ever shows a shard above k.
TEST(LockTableStepper, TwoShardTableSurvivesAllPrefixes) {
  constexpr int DEPTH = 6;
  std::atomic<bool> over_k{false};
  long runs = explore_all(
      2, DEPTH,
      [&] {
        auto table =
            std::make_shared<lock_table<sim>>(2, "cc_inductive", 2, 1);
        std::uint64_t k0 = 0;
        while (table->shard_of(k0) != 0) ++k0;
        std::uint64_t k1 = 0;
        while (table->shard_of(k1) != 1) ++k1;
        std::vector<std::function<void(sim::proc&)>> scripts;
        scripts.push_back([table, k0, &over_k](sim::proc& p) {
          for (int i = 0; i < 2; ++i) {
            auto g = table->acquire(p, k0);
            if (table->stats().max_occupancy() > 1) over_k.store(true);
          }
        });
        scripts.push_back([table, k1, &over_k](sim::proc& p) {
          for (int i = 0; i < 2; ++i) {
            auto g = table->acquire(p, k1);
            if (table->stats().max_occupancy() > 1) over_k.store(true);
          }
        });
        return scripts;
      },
      [&](const explore_outcome& out) {
        EXPECT_FALSE(out.deadlocked)
            << "deadlock under schedule " << out.schedule;
      });
  EXPECT_EQ(runs, 1L << DEPTH);  // 2^DEPTH prefixes explored
  EXPECT_FALSE(over_k.load());
}

// Same exploration with both procs hammering the *same* shard at k = 1:
// the stepper must never observe two holders, under any prefix.
TEST(LockTableStepper, SameShardMutualExclusionUnderAllPrefixes) {
  constexpr int DEPTH = 5;
  std::atomic<bool> violation{false};
  explore_all(
      2, DEPTH,
      [&] {
        auto table =
            std::make_shared<lock_table<sim>>(2, "cc_inductive", 2, 1);
        auto inside = std::make_shared<std::atomic<int>>(0);
        std::vector<std::function<void(sim::proc&)>> scripts;
        for (int pid = 0; pid < 2; ++pid) {
          scripts.push_back([table, inside, &violation](sim::proc& p) {
            auto g = table->acquire(p, std::uint64_t{5});
            if (inside->fetch_add(1) + 1 > 1) violation.store(true);
            inside->fetch_sub(1);
          });
        }
        return scripts;
      },
      [&](const explore_outcome& out) {
        EXPECT_FALSE(out.deadlocked)
            << "deadlock under schedule " << out.schedule;
      });
  EXPECT_FALSE(violation.load());
}

// Stats snapshots must never tear: while workers hammer acquire/release,
// a sampler loops stats() and asserts the per-shard row invariants that
// only hold when occupancy, high-water and the counters were read in a
// consistent order (service/shard_counters.h).  Run under TSan this also
// pins the snapshot path data-race-free.
TEST(LockTableStats, SnapshotsAreConsistentUnderHammer) {
  constexpr int kWorkers = 4;
  constexpr int kIters = 2000;
  constexpr int kK = 2;
  lock_table<real> table(2, "cc_fast", kWorkers, kK);
  process_set<real> procs(kWorkers, cost_model::none);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> samples{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto st = table.stats();
      for (const auto& row : st.shards) {
        ASSERT_LE(row.fast_hits, row.acquires);
        ASSERT_GE(row.occupancy, 0);
        ASSERT_LE(row.occupancy, kK);
        ASSERT_LE(row.occupancy, std::max(row.max_occupancy,
                                          row.occupancy));
        ASSERT_LE(row.max_occupancy, kK);
      }
      samples.fetch_add(1, std::memory_order_relaxed);
    }
  });

  auto result = run_workers<real>(
      procs, all_pids(kWorkers), [&](real::proc& p) {
        xorshift rng(static_cast<std::uint32_t>(p.id) * 7919u + 3u);
        for (int i = 0; i < kIters; ++i) {
          auto g = table.acquire(p, static_cast<std::uint64_t>(
                                        rng.next_below(16)));
          g.release();
        }
      });
  done.store(true, std::memory_order_release);
  sampler.join();

  EXPECT_EQ(result.completed, kWorkers);
  EXPECT_GT(samples.load(), 0u);
  const auto st = table.stats();
  EXPECT_EQ(st.total_acquires(),
            static_cast<std::uint64_t>(kWorkers) * kIters);
}

}  // namespace
}  // namespace kex
