// State invariants checked at *every state of every explored history* —
// the paper's Section-2 proof style ("a state assertion is an invariant
// iff it holds in each state of every history"), executed rather than
// proved: the stepper's probe runs at each global quiescent point between
// atomic statements, across exhaustively enumerated schedules.
#include <gtest/gtest.h>

#include <atomic>
#include <memory>

#include "kex/algorithms.h"
#include "platform/stepper.h"
#include "runtime/cs_monitor.h"

namespace kex {
namespace {

using sim = sim_platform;

// Invariant family for a Figure-2 level j (from the paper's (I2)):
//   X = j - |{p : p in statements 3..6}|   implies   -1 <= X <= j.
// Program counters are not observable from outside, but the implied range
// is, and a range violation would falsify (I2).  Checked together with
// occupancy <= k at every state.
TEST(Invariant, CcLevelXRangeEveryStateEverySchedule) {
  constexpr int n = 2, k = 1, depth = 10;
  std::atomic<bool> range_violation{false};
  std::atomic<bool> cs_violation{false};

  // Shared across make/probe: rebuilt per schedule.
  std::shared_ptr<cc_inductive<sim>> alg;
  std::shared_ptr<cs_monitor> monitor;

  auto make = [&] {
    alg = std::make_shared<cc_inductive<sim>>(n, k);
    monitor = std::make_shared<cs_monitor>();
    std::vector<std::function<void(sim::proc&)>> scripts;
    for (int pid = 0; pid < n; ++pid) {
      scripts.emplace_back([&](sim::proc& p) {
        alg->acquire(p);
        monitor->enter();
        monitor->exit();
        alg->release(p);
      });
    }
    return scripts;
  };

  auto probe = [&] {
    int x = alg->level(0).debug_x();
    if (x < -1 || x > alg->level_capacity(0)) range_violation.store(true);
    if (monitor->occupancy() > k) cs_violation.store(true);
  };

  std::vector<int> prefix(depth, 0);
  long runs = 0;
  for (;;) {
    auto outcome = run_stepped(make(), prefix, 200000, probe);
    ASSERT_FALSE(outcome.deadlocked) << outcome.schedule;
    ASSERT_FALSE(range_violation.load())
        << "X out of -1..j at schedule " << outcome.schedule;
    ASSERT_FALSE(cs_violation.load()) << outcome.schedule;
    ++runs;
    int i = depth - 1;
    while (i >= 0 && prefix[static_cast<std::size_t>(i)] == n - 1)
      prefix[static_cast<std::size_t>(i--)] = 0;
    if (i < 0) break;
    ++prefix[static_cast<std::size_t>(i)];
  }
  EXPECT_EQ(runs, 1L << depth);
}

// The multi-level chain: every level's X respects its own range at every
// state (the induction hypothesis of Theorem 1, observably).
TEST(Invariant, ChainAllLevelsXRange) {
  constexpr int n = 3, k = 1, depth = 7;
  std::atomic<bool> violation{false};
  std::shared_ptr<cc_inductive<sim>> alg;

  auto make = [&] {
    alg = std::make_shared<cc_inductive<sim>>(n, k);
    std::vector<std::function<void(sim::proc&)>> scripts;
    for (int pid = 0; pid < n; ++pid) {
      scripts.emplace_back([&](sim::proc& p) {
        alg->acquire(p);
        alg->release(p);
      });
    }
    return scripts;
  };

  auto probe = [&] {
    for (int i = 0; i < alg->depth(); ++i) {
      int x = alg->level(i).debug_x();
      if (x < -1 || x > alg->level_capacity(i)) violation.store(true);
    }
  };

  std::vector<int> prefix(depth, 0);
  for (;;) {
    auto outcome = run_stepped(make(), prefix, 200000, probe);
    ASSERT_FALSE(outcome.deadlocked) << outcome.schedule;
    ASSERT_FALSE(violation.load()) << outcome.schedule;
    int i = depth - 1;
    while (i >= 0 && prefix[static_cast<std::size_t>(i)] == n - 1)
      prefix[static_cast<std::size_t>(i--)] = 0;
    if (i < 0) break;
    ++prefix[static_cast<std::size_t>(i)];
  }
}

// Unless-style property ((U1)-flavored, observably): once the slot counter
// is negative, it can only become non-negative again via a release — i.e.
// along any history, X rising from -1 coincides with a completed exit.
// We check the coarse observable consequence: X never *jumps* by more
// than 1 between adjacent states.
TEST(Invariant, XChangesByAtMostOnePerStep) {
  constexpr int n = 2, k = 1, depth = 10;
  std::atomic<bool> violation{false};
  std::shared_ptr<cc_inductive<sim>> alg;
  int last_x = 0;
  bool have_last = false;

  auto make = [&] {
    alg = std::make_shared<cc_inductive<sim>>(n, k);
    have_last = false;
    std::vector<std::function<void(sim::proc&)>> scripts;
    for (int pid = 0; pid < n; ++pid) {
      scripts.emplace_back([&](sim::proc& p) {
        alg->acquire(p);
        alg->release(p);
      });
    }
    return scripts;
  };

  auto probe = [&] {
    int x = alg->level(0).debug_x();
    if (have_last && std::abs(x - last_x) > 1) violation.store(true);
    last_x = x;
    have_last = true;
  };

  std::vector<int> prefix(depth, 0);
  for (;;) {
    auto outcome = run_stepped(make(), prefix, 200000, probe);
    ASSERT_FALSE(violation.load()) << outcome.schedule;
    int i = depth - 1;
    while (i >= 0 && prefix[static_cast<std::size_t>(i)] == n - 1)
      prefix[static_cast<std::size_t>(i--)] = 0;
    if (i < 0) break;
    ++prefix[static_cast<std::size_t>(i)];
  }
}

}  // namespace
}  // namespace kex
