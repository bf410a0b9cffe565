// The wait-free universal construction and the snapshot core, tested
// directly (below the k-assignment wrapper): linearizability witnesses,
// helping, and wait-freedom under crash injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <vector>

#include "resilient/universal.h"
#include "resilient/wf_snapshot.h"
#include "platform/stepper.h"
#include "runtime/process_group.h"

namespace kex {
namespace {

using sim = sim_platform;

struct inc_op {
  long amount = 0;
};

using counter_u = universal<sim, long, inc_op, long>;

counter_u make_counter(int k, int pid_space) {
  return counter_u(k, pid_space, 0L, [](long& s, const inc_op& o) {
    long old = s;
    s += o.amount;
    return old;
  });
}

TEST(Universal, SequentialApply) {
  auto u = make_counter(2, 2);
  sim::proc p{0, cost_model::cc};
  EXPECT_EQ(u.apply(p, 0, inc_op{5}), 0);   // returns pre-state
  EXPECT_EQ(u.apply(p, 0, inc_op{3}), 5);
  EXPECT_EQ(u.snapshot(p), 8);
  EXPECT_EQ(u.log_length(p), 3);  // tail + 2 ops
}

TEST(Universal, RejectsBadName) {
  auto u = make_counter(2, 2);
  sim::proc p{0, cost_model::cc};
  EXPECT_THROW(u.apply(p, 2, inc_op{1}), invariant_violation);
}

TEST(Universal, ConcurrentIncrementsLinearize) {
  constexpr int k = 4, iters = 60;
  auto u = make_counter(k, k);
  process_set<sim> procs(k, cost_model::cc);
  std::vector<std::vector<long>> pre(static_cast<std::size_t>(k));
  auto result = run_workers<sim>(procs, all_pids(k), [&](sim::proc& p) {
    // Here pid == name: k processes, stable names.
    for (int i = 0; i < iters; ++i)
      pre[static_cast<std::size_t>(p.id)].push_back(
          u.apply(p, p.id, inc_op{1}));
  });
  EXPECT_EQ(result.completed, k);
  // Pre-values must be a permutation of 0..k*iters-1 — each increment sees
  // a distinct state.
  std::vector<long> all;
  for (auto& v : pre) all.insert(all.end(), v.begin(), v.end());
  std::sort(all.begin(), all.end());
  ASSERT_EQ(all.size(), static_cast<std::size_t>(k) * iters);
  for (std::size_t i = 0; i < all.size(); ++i) ASSERT_EQ(all[i], (long)i);
  sim::proc reader{0, cost_model::cc};
  EXPECT_EQ(u.snapshot(reader), static_cast<long>(k) * iters);
}

TEST(Universal, HelpingFinishesCrashedAnnouncedOp) {
  // A process crashes immediately after announcing; another process's
  // round-robin helping may append the orphan's op.  Either way, the
  // survivor is never blocked — the essential wait-freedom property.
  constexpr int k = 2;
  auto u = make_counter(k, k);
  process_set<sim> procs(k, cost_model::cc);
  auto result = run_workers<sim>(procs, all_pids(k), [&](sim::proc& p) {
    if (p.id == 0) {
      p.fail_after(2);  // announce (1 write), crash in the helping loop
      u.apply(p, 0, inc_op{1000});
      return;
    }
    for (int i = 0; i < 50; ++i) u.apply(p, 1, inc_op{1});
  });
  EXPECT_EQ(result.crashed, 1);
  EXPECT_EQ(result.completed, 1);
  sim::proc reader{1, cost_model::cc};
  long v = u.snapshot(reader);
  // 50 survivor increments, plus the orphan's 1000 iff helping got to it.
  EXPECT_TRUE(v == 50 || v == 1050) << "state: " << v;
}

TEST(Universal, SnapshotMonotone) {
  auto u = make_counter(2, 2);
  sim::proc p{0, cost_model::cc};
  long prev = u.snapshot(p);
  for (int i = 0; i < 10; ++i) {
    u.apply(p, 0, inc_op{2});
    long cur = u.snapshot(p);
    EXPECT_GE(cur, prev + 2);
    prev = cur;
  }
}

// The double-append window: pid 0 announces and passes the loop test
// (its node's seq still 0), then parks before max_head().  Pid 1's
// round-robin helping appends pid 0's op first, then its own, so the log
// has grown past pid 0's node when pid 0 resumes.  Pid 0 must notice its
// op is already in the log; proposing it again would make it the
// successor of pid 1's node and close the log into a cycle.
TEST(Universal, HelpedOpIsNeverAppendedTwice) {
  auto u = make_counter(2, 2);
  long got[2] = {-1, -1};
  std::vector<std::function<void(sim::proc&)>> scripts;
  for (int pid = 0; pid < 2; ++pid)
    scripts.push_back([&, pid](sim::proc& p) {
      got[pid] = u.apply(p, pid, inc_op{pid == 0 ? 1 : 10});
    });
  // Two steps of pid 0 (announce write, loop-test read), then pid 1 runs
  // its whole apply; the fair tail finishes pid 0.
  std::vector<int> prefix = {0, 0};
  prefix.insert(prefix.end(), 64, 1);
  const auto out = run_stepped(std::move(scripts), prefix);
  ASSERT_FALSE(out.deadlocked);

  constexpr long applies = 2;
  sim::proc reader{0, cost_model::cc};
  // ASSERT: snapshot() below would follow a cycle forever.
  ASSERT_EQ(u.chain_length(reader, 4 * (applies + 1)), applies + 1)
      << "the log is not a chain of tail + one node per apply";
  EXPECT_EQ(u.log_length(reader), applies + 1);
  EXPECT_EQ(got[0], 0);   // helped first by pid 1
  EXPECT_EQ(got[1], 1);
  EXPECT_EQ(u.snapshot(reader), 11);
}

// --- wf_snapshot -----------------------------------------------------------

TEST(WfSnapshot, SequentialUpdateScan) {
  wf_snapshot<sim> snap(3, 3);
  sim::proc p{0, cost_model::cc};
  auto v0 = snap.scan(p);
  EXPECT_EQ(v0, (std::vector<long>{0, 0, 0}));
  snap.update(p, 1, 42);
  auto v1 = snap.scan(p);
  EXPECT_EQ(v1, (std::vector<long>{0, 42, 0}));
  EXPECT_EQ(snap.read_slot(p, 1), 42);
}

TEST(WfSnapshot, ScansAreMonotonePerSlot) {
  constexpr int k = 3, iters = 40;
  wf_snapshot<sim> snap(k, k);
  process_set<sim> procs(k, cost_model::cc);
  std::atomic<bool> violation{false};
  auto result = run_workers<sim>(procs, all_pids(k), [&](sim::proc& p) {
    std::vector<long> last(static_cast<std::size_t>(k), -1);
    for (int i = 0; i < iters; ++i) {
      snap.update(p, p.id, static_cast<long>(i + 1));
      auto view = snap.scan(p);
      for (int j = 0; j < k; ++j) {
        auto idx = static_cast<std::size_t>(j);
        if (view[idx] < last[idx]) violation.store(true);
        last[idx] = view[idx];
      }
      // A scan after my own update must include it (or something newer).
      if (view[static_cast<std::size_t>(p.id)] < i + 1)
        violation.store(true);
    }
  });
  EXPECT_EQ(result.completed, k);
  EXPECT_FALSE(violation.load()) << "non-monotone or stale scan observed";
}

TEST(WfSnapshot, ScanUnaffectedByCrashedUpdater) {
  constexpr int k = 2;
  wf_snapshot<sim> snap(k, k);
  process_set<sim> procs(k, cost_model::cc);
  auto result = run_workers<sim>(procs, all_pids(k), [&](sim::proc& p) {
    if (p.id == 0) {
      snap.update(p, 0, 7);
      p.fail_after(3);  // dies mid-update (inside the embedded scan)
      snap.update(p, 0, 8);
      return;
    }
    for (int i = 0; i < 60; ++i) {
      snap.update(p, 1, i);
      auto v = snap.scan(p);
      ASSERT_EQ(v.size(), 2u);
    }
  });
  EXPECT_EQ(result.crashed, 1);
  EXPECT_EQ(result.completed, 1);
}

}  // namespace
}  // namespace kex
