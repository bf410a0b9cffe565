// White-box unit tests of the single-level building blocks: the Figure-2
// cache-coherent level and the Figure-5/6 DSM levels, driven through
// scripted single-threaded interleavings (every statement is one method
// call on platform variables, so one thread can play several processes).
#include <gtest/gtest.h>

#include <chrono>
#include <mutex>
#include <thread>

#include "kex/cc_inductive.h"
#include "kex/dsm_bounded.h"
#include "kex/dsm_unbounded.h"
#include "runtime/cs_monitor.h"
#include "runtime/process_group.h"

namespace kex {
namespace {

using sim = sim_platform;

// --- cc_level ---------------------------------------------------------------

TEST(CcLevel, UncontendedPassThrough) {
  cc_level<sim> level(2);  // admits 2 of <= 3
  sim::proc p{0, cost_model::cc};
  level.acquire(p);  // slot available: no waiting
  level.release(p);
  level.acquire(p);
  level.release(p);
  EXPECT_EQ(level.debug_x(), 2);  // quiescent: all j slots free
}

TEST(CcLevel, AdmitsExactlyJWithoutWaiting) {
  cc_level<sim> level(3);
  sim::proc a{0, cost_model::cc}, b{1, cost_model::cc},
      c{2, cost_model::cc};
  // Three processes acquire back to back — none may block (j = 3 slots).
  level.acquire(a);
  level.acquire(b);
  level.acquire(c);
  level.release(c);
  level.release(b);
  level.release(a);
}

TEST(CcLevel, FourthWaitsUntilRelease) {
  // j = 3 level: the 4th concurrent process must spin until a release.
  cc_level<sim> level(3);
  process_set<sim> procs(4, cost_model::cc);
  // Occupy all three slots.
  level.acquire(procs[0]);
  level.acquire(procs[1]);
  level.acquire(procs[2]);
  // The 4th acquires on its own thread; verify it is released by exactly
  // one release of a holder.
  std::atomic<bool> acquired{false};
  std::thread waiter([&] {
    level.acquire(procs[3]);
    acquired.store(true);
  });
  // Give the waiter time to reach its spin.
  for (int i = 0; i < 1000 && !acquired.load(); ++i)
    std::this_thread::yield();
  EXPECT_FALSE(acquired.load()) << "4th process entered a full level";
  level.release(procs[0]);
  waiter.join();
  EXPECT_TRUE(acquired.load());
}

TEST(CcLevel, RmrCostPerAcquisitionIsSmall) {
  // The Theorem-1 ingredient: one level costs at most 7 remote references
  // (5 entry + 2 exit) per acquisition on a cache-coherent machine.
  cc_level<sim> level(1);
  process_set<sim> procs(2, cost_model::cc);
  cs_monitor monitor;
  std::uint64_t worst = 0;
  run_workers<sim>(procs, all_pids(2), [&](sim::proc& p) {
    std::uint64_t local_worst = 0;
    for (int i = 0; i < 100; ++i) {
      auto before = p.counters().remote;
      level.acquire(p);
      monitor.enter();
      monitor.exit();
      level.release(p);
      auto pair = p.counters().remote - before;
      if (pair > local_worst) local_worst = pair;
    }
    static std::mutex m;
    std::scoped_lock lk(m);
    if (local_worst > worst) worst = local_worst;
  });
  EXPECT_LE(monitor.max_occupancy(), 1);
  EXPECT_LE(worst, 7u);
}

// --- dsm levels ---------------------------------------------------------------

TEST(DsmUnboundedLevel, UncontendedPassThrough) {
  dsm_unbounded_level<sim> level(2, /*pid_space=*/4, /*capacity=*/64);
  sim::proc p{1, cost_model::dsm};
  for (int i = 0; i < 10; ++i) {
    level.acquire(p);
    level.release(p);
  }
}

TEST(DsmUnboundedLevel, CapacityExhaustionActsAsCrash) {
  // Deterministic script: capacity 2 means a process's *second* wait
  // episode throws spin_capacity_exhausted (its first wait consumed
  // location 1; location indices must stay below the capacity).  The
  // throw happens before any spinning, so nothing can hang.
  dsm_unbounded_level<sim> level(1, /*pid_space=*/2, /*capacity=*/2);
  process_set<sim> procs(2, cost_model::dsm);

  // Episode 1: p0 holds the only slot; p1 must wait (consumes loc 1).
  level.acquire(procs[0]);
  std::thread waiter([&] {
    level.acquire(procs[1]);
    level.release(procs[1]);
  });
  while (level.locations_used(1) == 0) std::this_thread::yield();
  level.release(procs[0]);
  waiter.join();
  EXPECT_EQ(level.locations_used(1), 1u);

  // Episode 2: p1 must wait again — budget spent, deterministic crash.
  level.acquire(procs[0]);
  bool threw = false;
  std::thread waiter2([&] {
    try {
      level.acquire(procs[1]);
    } catch (const spin_capacity_exhausted& e) {
      threw = (e.pid == 1);
    }
  });
  waiter2.join();
  EXPECT_TRUE(threw);
  level.release(procs[0]);
}

TEST(DsmUnboundedLevel, ExhaustionExceptionIsAProcessFailure) {
  // Type-level contract check.
  spin_capacity_exhausted e{{7}};
  process_failed& base = e;
  EXPECT_EQ(base.pid, 7);
  bool caught = false;
  try {
    throw spin_capacity_exhausted{{3}};
  } catch (const process_failed& f) {
    caught = true;
    EXPECT_EQ(f.pid, 3);
  }
  EXPECT_TRUE(caught);
}

TEST(DsmBoundedLevel, ReusesKPlus2Locations) {
  // The Figure-6 point: the same two processes alternate waiting forever
  // within k+2 locations per process — no capacity to exhaust.
  dsm_bounded_level<sim> level(1, /*pid_space=*/2);
  process_set<sim> procs(2, cost_model::dsm);
  cs_monitor monitor;
  auto result = run_workers<sim>(procs, all_pids(2), [&](sim::proc& p) {
    for (int i = 0; i < 300; ++i) {
      level.acquire(p);
      monitor.enter();
      ASSERT_EQ(monitor.occupancy(), 1);
      monitor.exit();
      level.release(p);
    }
  });
  EXPECT_EQ(result.completed, 2);
  EXPECT_EQ(monitor.max_occupancy(), 1);
}

TEST(DsmBoundedLevel, ConcurrencyPreconditionMatters) {
  // A single level j only guarantees exclusion when at most j+1 processes
  // are concurrently inside (the outer induction supplies that bound).
  // Running 3 processes through a bare j=1 level violates the
  // precondition, and the level is *allowed* to over-admit — demonstrating
  // why the chain/tree compositions are load-bearing, not decorative.
  dsm_bounded_level<sim> level(1, /*pid_space=*/3);
  process_set<sim> procs(3, cost_model::dsm);
  cs_monitor monitor;
  run_workers<sim>(procs, all_pids(3), [&](sim::proc& p) {
    for (int i = 0; i < 200; ++i) {
      level.acquire(p);
      monitor.enter();
      std::this_thread::yield();
      monitor.exit();
      level.release(p);
    }
  });
  // No assertion on occupancy <= 1: it may legitimately exceed it.  The
  // test documents the contract and checks nothing hangs or corrupts.
  EXPECT_GE(monitor.max_occupancy(), 1);
}

TEST(DsmBounded, SpinsAreLocalUnderDsm) {
  // Full (3,1) chain: waits lengthen with hold time, remote counts don't.
  dsm_bounded<sim> alg(3, 1);
  process_set<sim> procs(3, cost_model::dsm);
  cs_monitor monitor;
  std::atomic<std::uint64_t> worst{0};
  run_workers<sim>(procs, all_pids(3), [&](sim::proc& p) {
    std::uint64_t w = 0;
    for (int i = 0; i < 80; ++i) {
      auto before = p.counters().remote;
      alg.acquire(p);
      monitor.enter();
      std::this_thread::yield();  // lengthen holds: waits get longer,
      monitor.exit();             // remote counts must not
      alg.release(p);
      auto pair = p.counters().remote - before;
      if (pair > w) w = pair;
    }
    std::uint64_t cur = worst.load();
    while (w > cur && !worst.compare_exchange_weak(cur, w)) {
    }
  });
  EXPECT_LE(monitor.max_occupancy(), 1);
  // Theorem 5 at (3,1): at most 14(N-k) = 28 remote references.
  EXPECT_LE(worst.load(), 28u);
}

}  // namespace
}  // namespace kex
