// Elastic lock table: epoch-based handover correctness, adaptive-k
// stepping through governor detention, crash-during-handover slot
// accounting, and the byte-identity of the stepped RMR meter against the
// static table for non-adapting configurations.
#include "service/elastic_lock_table.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <set>
#include <thread>
#include <utility>
#include <vector>

#include "platform/real.h"
#include "platform/sim.h"
#include "runtime/process_group.h"
#include "runtime/rmr_meter.h"
#include "runtime/workload.h"
#include "service/lock_table.h"
#include "service/session_registry.h"

namespace kex {
namespace {

using sim = sim_platform;
using real = real_platform;

elastic_options static_opts(int initial, int max_shards, int k) {
  elastic_options o;
  o.initial_shards = initial;
  o.max_shards = max_shards;
  o.k_min = 1;
  o.k_base = k;
  o.k_max = k < 4 ? 4 : k;
  o.adaptive = false;
  o.resharding = false;
  return o;
}

TEST(ElasticLockTable, AcquireReleaseAndStats) {
  elastic_lock_table<sim> t(4, static_opts(2, 4, 2), cost_model::none);
  sim::proc p(0, cost_model::none);

  {
    auto g = t.acquire(p, std::uint64_t{42});
    EXPECT_TRUE(static_cast<bool>(g));
    auto st = t.stats();
    EXPECT_EQ(st.total_acquires(), 1u);
    EXPECT_EQ(st.max_occupancy(), 1);
    EXPECT_EQ(st.active_shards, 2);
  }
  auto st = t.stats();
  EXPECT_EQ(st.total_fast_hits(), 1u);
  for (const auto& row : st.slots) EXPECT_EQ(row.occupancy, 0);
  EXPECT_EQ(t.epoch(), 0u);
}

TEST(ElasticLockTable, IdleSplitCommitsImmediately) {
  elastic_lock_table<sim> t(4, static_opts(2, 4, 2), cost_model::none);
  ASSERT_TRUE(t.request_split());
  // No holders anywhere: the publish pass itself drains every source.
  EXPECT_FALSE(t.handover_in_flight());
  EXPECT_EQ(t.epoch(), 1u);
  EXPECT_EQ(t.active_shards(), 3);
  EXPECT_EQ(t.stats().handovers, 1u);

  // Placement stays consistent with the directory after the move.
  sim::proc p(0, cost_model::none);
  for (std::uint64_t key = 0; key < 64; ++key) {
    const int slot = t.slot_of(key);
    EXPECT_TRUE((t.active_bits() >> slot) & 1);
    auto g = t.acquire(p, key);
    ASSERT_TRUE(static_cast<bool>(g));
  }
}

TEST(ElasticLockTable, HoldersPinTheHandoverOpenUntilRelease) {
  elastic_lock_table<sim> t(4, static_opts(2, 4, 2), cost_model::none);
  sim::proc holder(0, cost_model::none);
  sim::proc other(1, cost_model::none);

  auto g = t.acquire(holder, std::uint64_t{7});
  ASSERT_TRUE(t.request_split());
  // The holder's source shard cannot drain: commit is deferred.
  EXPECT_TRUE(t.handover_in_flight());
  EXPECT_EQ(t.epoch(), 0u);

  // New acquires already route by the pending epoch and are admitted
  // while the old regime drains.
  {
    auto g2 = t.acquire(other, std::uint64_t{1000});
    EXPECT_TRUE(static_cast<bool>(g2));
    EXPECT_TRUE(t.handover_in_flight());
  }

  g.release();  // last old-parity holder: this release commits
  EXPECT_FALSE(t.handover_in_flight());
  EXPECT_EQ(t.epoch(), 1u);
  EXPECT_EQ(t.stats().handovers, 1u);
  EXPECT_EQ(t.active_shards(), 3);
}

TEST(ElasticLockTable, MergeDrainsAndRetiresTheVictim) {
  elastic_lock_table<sim> t(4, static_opts(3, 4, 2), cost_model::none);
  sim::proc p(0, cost_model::none);

  // Hold a key on the victim slot, merge it away, verify the key lands
  // somewhere else afterwards and the old holder still releases cleanly.
  const std::uint64_t key = 5;
  const int victim = t.slot_of(key);
  auto g = t.acquire(p, key);
  ASSERT_TRUE(t.request_merge(victim));
  EXPECT_TRUE(t.handover_in_flight());
  EXPECT_NE(t.slot_of(key), victim);  // pending routing already applies
  g.release();
  EXPECT_FALSE(t.handover_in_flight());
  EXPECT_EQ(t.active_shards(), 2);
  EXPECT_FALSE((t.active_bits() >> victim) & 1);
}

TEST(ElasticLockTable, OneHandoverAtATime) {
  elastic_lock_table<sim> t(4, static_opts(2, 8, 2), cost_model::none);
  sim::proc p(0, cost_model::none);
  auto g = t.acquire(p, std::uint64_t{3});
  ASSERT_TRUE(t.request_split());
  EXPECT_TRUE(t.handover_in_flight());
  EXPECT_FALSE(t.request_split());  // second publish refused while draining
  EXPECT_FALSE(t.request_merge(t.slot_of(std::uint64_t{3})));
  g.release();
  EXPECT_FALSE(t.handover_in_flight());
  EXPECT_TRUE(t.request_split());
}

TEST(ElasticLockTable, CancellableAbandonIsCounted) {
  elastic_lock_table<sim> t(4, static_opts(1, 1, 1), cost_model::none);
  sim::proc a(0, cost_model::none), b(1, cost_model::none);
  auto g = t.acquire(a, std::uint64_t{9});
  cancel_token tk = cancel_token::fired_token();
  auto g2 = t.acquire(b, std::uint64_t{9}, tk);
  EXPECT_FALSE(static_cast<bool>(g2));
  auto st = t.stats();
  EXPECT_EQ(st.slots[0].timeouts + st.slots[0].aborts, 1u);
  EXPECT_EQ(st.total_acquires(), 1u);
}

// The per-key k bound must hold ACROSS a migration: while a split is
// draining, an acquirer of a moving key escorts through the source kex,
// so with k = 1 it cannot overlap the old-regime holder of that key.
TEST(ElasticLockTable, MovingKeyStaysExclusiveDuringHandover) {
  elastic_lock_table<sim> t(4, static_opts(2, 4, 1), cost_model::none);
  sim::proc holder(0, cost_model::none);
  sim::proc prober(1, cost_model::none);

  // Find a key the upcoming split will move (and one it will not).
  const shard_directory& dir = t.directory();
  const std::uint64_t before = dir.committed();
  const std::uint64_t after = before | (before + 1);
  std::uint64_t moving = 0, staying = 0;
  bool have_moving = false, have_staying = false;
  for (std::uint64_t key = 1; key < 512 && !(have_moving && have_staying);
       ++key) {
    const std::uint64_t h = lock_table_hash(key);
    if (hrw_place(h, before, dir.seed()) != hrw_place(h, after, dir.seed())) {
      if (!have_moving) { moving = key; have_moving = true; }
    } else if (!have_staying) {
      staying = key; have_staying = true;
    }
  }
  ASSERT_TRUE(have_moving && have_staying);

  auto g = t.acquire(holder, moving);
  const int source = t.slot_of(moving);
  ASSERT_TRUE(t.request_split());
  ASSERT_TRUE(t.handover_in_flight());
  ASSERT_NE(t.slot_of(moving), source);  // it really migrates

  // The prober routes to the fresh target shard — which is empty — but
  // the escort hold on the full source (k = 1, old holder) must refuse:
  // no overlap with the old regime.
  {
    cancel_token tk = cancel_token::fired_token();
    auto p1 = t.acquire(prober, moving, tk);
    EXPECT_FALSE(static_cast<bool>(p1));
  }
  // A non-moving key on another shard is untouched by the migration.
  if (t.slot_of(staying) != source) {
    auto p2 = t.acquire(prober, staying);
    EXPECT_TRUE(static_cast<bool>(p2));
  }

  g.release();  // drains the source; the handover commits
  EXPECT_FALSE(t.handover_in_flight());
  auto p3 = t.acquire(prober, moving);
  EXPECT_TRUE(static_cast<bool>(p3));
}

// Crash-at-every-statement sweep across a live handover: arm a crash
// fuse at each shared-statement offset of one acquirer's entry/exit path
// while a split is draining, and assert the handover still commits, at
// most the crasher's own slot is burned, and the table keeps serving.
TEST(ElasticLockTable, CrashDuringHandoverBurnsAtMostOneSlot) {
  bool reached_clean = false;
  for (std::uint64_t offset = 1; offset <= 400 && !reached_clean;
       ++offset) {
    SCOPED_TRACE(::testing::Message() << "offset=" << offset);
    elastic_lock_table<sim> t(4, static_opts(2, 4, 2), cost_model::none);
    sim::proc holder(1, cost_model::none);
    sim::proc crasher(0, cost_model::none);

    const std::uint64_t pinned_key = 7;
    auto g = t.acquire(holder, pinned_key);
    ASSERT_TRUE(t.request_split());
    ASSERT_TRUE(t.handover_in_flight());

    // The crasher dies `offset` shared statements into its acquire or
    // release (whichever the fuse reaches); a long enough fuse survives
    // the whole pair, which ends the sweep.
    crasher.fail_after(offset);
    bool crashed = false;
    try {
      auto g2 = t.acquire(crasher, std::uint64_t{1000});
      g2.release();
    } catch (const process_failed&) {
      crashed = true;  // died in the entry section
    }

    g.release();
    EXPECT_FALSE(t.handover_in_flight());
    EXPECT_EQ(t.epoch(), 1u);
    auto st = t.stats();
    EXPECT_LE(st.total_crashes(), 1u);  // at most its own slot
    if (!crashed && st.total_crashes() == 0) reached_clean = true;

    // The table still serves every shard (k=2 tolerates the one burn).
    sim::proc probe(2, cost_model::none);
    for (std::uint64_t key : {std::uint64_t{7}, std::uint64_t{1000},
                              std::uint64_t{31}, std::uint64_t{77}}) {
      auto pg = t.acquire(probe, key);
      EXPECT_TRUE(static_cast<bool>(pg));
      pg.release();
    }
  }
  EXPECT_TRUE(reached_clean)
      << "sweep never reached a crash-free offset; widen the range";
}

// Adaptive k: sustained contention steps a shard's effective k up (a
// governor is restored), sustained idleness steps it back down to k_min
// (governors re-detained).  Steps land only on maintenance ticks.
TEST(ElasticLockTable, AdaptiveKStepsUpUnderPressureAndDownAtRest) {
  elastic_options o;
  o.algorithm = "cc_fast";
  o.initial_shards = 1;
  o.max_shards = 1;
  o.k_min = 1;
  o.k_base = 2;
  o.k_max = 3;
  o.adaptive = true;
  o.resharding = false;
  elastic_lock_table<sim> t(4, o, cost_model::none);
  sim::proc holder(0, cost_model::none);
  sim::proc worker(1, cost_model::none);

  ASSERT_EQ(t.effective_k(0), 2);  // k_base at construction

  // Pressure: a parked holder means no acquire ever finds the shard
  // empty, so the fast-hit share pins to zero.
  auto g = t.acquire(holder, std::uint64_t{7});
  int ticks_to_step_up = 0;
  for (int tick = 0; tick < 10 && t.effective_k(0) < 3; ++tick) {
    for (int i = 0; i < 8; ++i) {
      auto w = t.acquire(worker, std::uint64_t{7});
      w.release();
    }
    t.maintenance();
    ++ticks_to_step_up;
  }
  EXPECT_EQ(t.effective_k(0), 3);
  EXPECT_GE(ticks_to_step_up, t.stats().k_steps_up > 0 ? 2 : 0)
      << "hysteresis should require at least two ticks";
  EXPECT_GE(t.stats().k_steps_up, 1u);
  g.release();

  // Relief: uncontended singles are all fast hits and the occupancy
  // window decays; k walks back down to the floor.
  for (int tick = 0; tick < 30 && t.effective_k(0) > 1; ++tick) {
    for (int i = 0; i < 8; ++i) {
      auto w = t.acquire(worker, std::uint64_t{7});
      w.release();
    }
    t.maintenance();
  }
  EXPECT_EQ(t.effective_k(0), 1);
  EXPECT_GE(t.stats().k_steps_down, 2u);

  // The floor holds: more idle ticks never step below k_min.
  for (int tick = 0; tick < 5; ++tick) t.maintenance();
  EXPECT_EQ(t.effective_k(0), 1);
}

// Threads hammer random keys while the main thread splits and merges
// mid-run; totals balance, occupancy never exceeds the protocol k, and
// every published handover commits.
TEST(ElasticLockTable, ConcurrentChurnWithResizes) {
  constexpr int kWorkers = 8;
  constexpr int kIters = 300;
  elastic_lock_table<sim> t(kWorkers, static_opts(2, 8, 2),
                            cost_model::none);
  process_set<sim> procs(kWorkers, cost_model::none);

  std::atomic<bool> stop{false};
  std::thread resizer([&] {
    int committed = 0;
    while (!stop.load(std::memory_order_relaxed)) {
      if (committed % 2 == 0) {
        if (t.request_split()) ++committed;
      } else {
        // Merge whatever slot currently owns key 0.
        if (t.request_merge(t.slot_of(std::uint64_t{0}))) ++committed;
      }
      std::this_thread::yield();
    }
  });

  auto result = run_workers<sim>(
      procs, all_pids(kWorkers), [&](sim::proc& p) {
        xorshift rng(static_cast<std::uint32_t>(p.id) * 2654435761u + 17u);
        for (int i = 0; i < kIters; ++i) {
          auto g = t.acquire(p, static_cast<std::uint64_t>(
                                    rng.next_below(64)));
          spin_work(rng.next_below(16));
          g.release();
        }
      });
  stop.store(true);
  resizer.join();

  EXPECT_EQ(result.completed, kWorkers);
  EXPECT_EQ(result.crashed, 0);
  auto st = t.stats();
  EXPECT_EQ(st.total_acquires(),
            static_cast<std::uint64_t>(kWorkers) * kIters);
  EXPECT_EQ(st.total_crashes(), 0u);
  EXPECT_LE(st.max_occupancy(), 2);  // protocol k, across every epoch
  for (const auto& row : st.slots) EXPECT_EQ(row.occupancy, 0);
  // Whatever was published either committed or is drainable by now: with
  // all guards released, one more release-path pass cannot be pending.
  EXPECT_FALSE(t.handover_in_flight());
  EXPECT_EQ(st.handovers, st.epoch);
}

// The elastic layer must not add a single remote reference: with
// adaptation off, the stepped amortized RMR meter over the elastic table
// is byte-identical to the static lock table at the same (n, k).
template <class Table>
struct table_rmr_adapter {
  Table& t;
  std::uint64_t key;
  std::vector<typename Table::guard> held;
  table_rmr_adapter(Table& table, int pids, std::uint64_t k)
      : t(table), key(k), held(static_cast<std::size_t>(pids)) {}
  void acquire(sim::proc& p) {
    held[static_cast<std::size_t>(p.id)] = t.acquire(p, key);
  }
  void release(sim::proc& p) {
    held[static_cast<std::size_t>(p.id)].release();
  }
};

TEST(ElasticLockTable, SteppedRmrMatchesStaticTableWhenNotAdapting) {
  constexpr int kProcs = 3;
  constexpr int kIters = 4;
  constexpr std::uint64_t kKey = 42;

  lock_table<sim> fixed(1, "cc_fast", kProcs, 2);
  elastic_lock_table<sim> elastic(kProcs, static_opts(1, 1, 2),
                                  cost_model::cc);

  table_rmr_adapter<lock_table<sim>> a(fixed, kProcs, kKey);
  table_rmr_adapter<elastic_lock_table<sim>> b(elastic, kProcs, kKey);

  const auto rs = measure_rmr_stepped(a, kProcs, kIters, cost_model::cc);
  const auto re = measure_rmr_stepped(b, kProcs, kIters, cost_model::cc);

  EXPECT_EQ(rs.pairs, re.pairs);
  EXPECT_EQ(rs.max_pair, re.max_pair);
  EXPECT_EQ(rs.mean_pair, re.mean_pair);  // exact: same integer sums
  EXPECT_EQ(rs.total_remote, re.total_remote);
  EXPECT_EQ(rs.max_occupancy, re.max_occupancy);
}

// The elastic twin of LockTableStats.SnapshotsAreConsistentUnderHammer:
// workers hammer random keys while the main thread runs controller
// ticks, splits and merges, and a sampler loops stats().  Every row must
// satisfy the per-shard invariants the counters promise without a reader
// protocol (service/shard_counters.h), and no acquire may be lost.
TEST(ElasticLockTableStats, SnapshotsAreConsistentUnderHammer) {
  constexpr int kWorkers = 4;
  constexpr int kIters = 2000;
  constexpr int kKMax = 4;
  elastic_options o;
  o.initial_shards = 2;
  o.max_shards = 8;
  o.k_min = 1;
  o.k_base = 2;
  o.k_max = kKMax;
  elastic_lock_table<real> t(kWorkers, o, cost_model::none);
  process_set<real> procs(kWorkers, cost_model::none);

  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> samples{0};
  std::thread sampler([&] {
    while (!done.load(std::memory_order_acquire)) {
      const auto st = t.stats();
      for (const auto& row : st.slots) {
        ASSERT_LE(row.fast_hits, row.acquires);
        ASSERT_GE(row.occupancy, 0);
        ASSERT_LE(row.occupancy, row.max_occupancy);
        ASSERT_LE(row.max_occupancy, kKMax);
      }
      samples.fetch_add(1, std::memory_order_relaxed);
    }
  });

  run_result result;
  std::thread clients([&] {
    result = run_workers<real>(
        procs, all_pids(kWorkers), [&](real::proc& p) {
          xorshift rng(static_cast<std::uint32_t>(p.id) * 7919u + 3u);
          for (int i = 0; i < kIters; ++i) {
            auto g = t.acquire(p, static_cast<std::uint64_t>(
                                      rng.next_below(64)));
            g.release();
          }
        });
    done.store(true, std::memory_order_release);
  });
  for (int tick = 0; !done.load(std::memory_order_acquire); ++tick) {
    t.maintenance();
    if (tick % 2 == 0)
      t.request_split();
    else
      t.request_merge(t.slot_of(std::uint64_t{0}));
    std::this_thread::yield();
  }
  clients.join();
  sampler.join();

  EXPECT_EQ(result.completed, kWorkers);
  EXPECT_GT(samples.load(), 0u);
  const auto st = t.stats();
  EXPECT_EQ(st.total_acquires(),
            static_cast<std::uint64_t>(kWorkers) * kIters);
  for (const auto& row : st.slots) EXPECT_EQ(row.occupancy, 0);
  EXPECT_FALSE(t.handover_in_flight());
}

// Exact counts while pids hop between OS threads.  Each round starts two
// fresh threads that attach through the registry, so the same pids pass
// to new threads every round, and the order of attaching alternates so
// each pid serves both roles.  The holder takes the key on its empty
// shard (a fast hit) and keeps it while the contender takes the same key
// (occupancy 2, no fast hit); then both release and detach.  Per round:
// 2 acquires, 1 fast hit, a peak of 2.
template <class Table>
void run_handoff_rounds(Table& table, int rounds) {
  constexpr std::uint64_t kKey = 7;
  session_registry<real> reg(4, cost_model::none);
  std::set<int> holder_pids, contender_pids;
  for (int r = 0; r < rounds; ++r) {
    std::atomic<int> phase{0};
    const auto wait_for = [&](int v) {
      while (phase.load() < v) std::this_thread::yield();
    };
    const bool holder_first = r % 2 == 0;
    int pid[2] = {-1, -1};  // [0] holder, [1] contender
    std::thread holder([&] {
      wait_for(holder_first ? 0 : 1);
      auto s = reg.attach();
      pid[0] = s.pid();
      phase.fetch_add(1);
      wait_for(2);
      auto g = table.acquire(s, kKey);
      phase.store(3);
      wait_for(4);
      g.release();
    });
    std::thread contender([&] {
      wait_for(holder_first ? 1 : 0);
      auto s = reg.attach();
      pid[1] = s.pid();
      phase.fetch_add(1);
      wait_for(3);
      auto g = table.acquire(s, kKey);
      g.release();
      s.detach();
      phase.store(4);
    });
    holder.join();
    contender.join();
    holder_pids.insert(pid[0]);
    contender_pids.insert(pid[1]);
  }
  // The premise: some pid served as holder in one round and contender in
  // another, each time on a different thread.
  bool hopped = false;
  for (int p : holder_pids) hopped = hopped || contender_pids.count(p) > 0;
  EXPECT_TRUE(hopped);
}

TEST(ShardCounters, ExactCountsAcrossSessionHandoffsStaticTable) {
  constexpr int kRounds = 20;
  lock_table<real> table(4, "cc_fast", 4, 2);
  run_handoff_rounds(table, kRounds);
  const auto st = table.stats();
  EXPECT_EQ(st.total_acquires(), 2u * kRounds);
  EXPECT_EQ(st.total_fast_hits(), 1u * kRounds);
  EXPECT_EQ(st.max_occupancy(), 2);
  const auto& row = st.shards[static_cast<std::size_t>(
      table.shard_of(std::uint64_t{7}))];
  EXPECT_EQ(row.acquires, 2u * kRounds);
  EXPECT_EQ(row.occupancy, 0);
}

TEST(ShardCounters, ExactCountsAcrossSessionHandoffsElasticTable) {
  constexpr int kRounds = 20;
  elastic_lock_table<real> table(4, static_opts(2, 4, 2), cost_model::none);
  run_handoff_rounds(table, kRounds);
  const auto st = table.stats();
  EXPECT_EQ(st.total_acquires(), 2u * kRounds);
  EXPECT_EQ(st.total_fast_hits(), 1u * kRounds);
  EXPECT_EQ(st.max_occupancy(), 2);
  const auto& row = st.slots[static_cast<std::size_t>(
      table.slot_of(std::uint64_t{7}))];
  EXPECT_EQ(row.acquires, 2u * kRounds);
  EXPECT_EQ(row.occupancy, 0);
}

}  // namespace
}  // namespace kex
