// Topology discovery, pin plans, the topology-aware tree builder, and the
// arena layout contracts — including the load-bearing negative result:
// memory placement never changes what the simulated platform charges.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "kex/algorithms.h"
#include "kex/arena_layout.h"
#include "kex/hybrid_kex.h"
#include "platform/stepper.h"
#include "platform/real.h"
#include "platform/topology.h"
#include "renaming/tas_renaming.h"
#include "runtime/bounds.h"
#include "runtime/cs_monitor.h"
#include "runtime/process_group.h"
#include "runtime/rmr_meter.h"

namespace {

using kex::cpu_location;
using kex::parse_cpulist;
using kex::pin_plan;
using kex::pin_policy;
using kex::topology;
using sim = kex::sim_platform;

// --- cpulist parsing -------------------------------------------------------

TEST(ParseCpulist, RangesAndSingles) {
  EXPECT_EQ(parse_cpulist("0-3,8,10-11"),
            (std::vector<int>{0, 1, 2, 3, 8, 10, 11}));
  EXPECT_EQ(parse_cpulist("5"), (std::vector<int>{5}));
  EXPECT_EQ(parse_cpulist("0-0"), (std::vector<int>{0}));
}

TEST(ParseCpulist, ToleratesJunkAndDedupes) {
  EXPECT_EQ(parse_cpulist("  1, 0,1\n"), (std::vector<int>{0, 1}));
  EXPECT_EQ(parse_cpulist(""), (std::vector<int>{}));
  EXPECT_EQ(parse_cpulist("garbage"), (std::vector<int>{}));
  EXPECT_EQ(parse_cpulist("2-,3"), (std::vector<int>{2, 3}));
}

// --- synthetic topologies --------------------------------------------------

TEST(Topology, SyntheticShape) {
  auto t = topology::make_synthetic(2, 4, 2);
  EXPECT_EQ(t.cpu_count(), 16);
  EXPECT_EQ(t.nodes, 2);
  EXPECT_EQ(t.packages, 2);
  EXPECT_EQ(t.llcs, 2);
  EXPECT_EQ(t.cores, 8);
  EXPECT_TRUE(t.synthetic_source);
  // Hierarchy order: node-major, then core, then smt — for the synthetic
  // numbering that is exactly ascending cpu id.
  for (int i = 0; i < 16; ++i) EXPECT_EQ(t.cpus[std::size_t(i)].cpu, i);
  EXPECT_EQ(t.node_cpus(0), (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7}));
  EXPECT_EQ(t.node_cpus(1),
            (std::vector<int>{8, 9, 10, 11, 12, 13, 14, 15}));
  ASSERT_NE(t.find(9), nullptr);
  EXPECT_EQ(t.find(9)->node, 1);
  EXPECT_EQ(t.find(9)->smt, 1);
  EXPECT_EQ(t.find(99), nullptr);
}

TEST(Topology, FromSpecSynthetic) {
  auto t = topology::from_spec("synthetic:2x4x2");
  EXPECT_EQ(t.cpu_count(), 16);
  EXPECT_EQ(t.nodes, 2);
  // Malformed dimensions clamp to 1, never throw: a bad KEX_TOPOLOGY must
  // not take a bench down.
  auto bad = topology::from_spec("synthetic:zx-1x0");
  EXPECT_EQ(bad.cpu_count(), 1);
}

// --- canned sysfs trees ----------------------------------------------------

class SysfsTree {
 public:
  SysfsTree() {
    root_ = std::filesystem::temp_directory_path() /
            ("kex_topo_test_" + std::to_string(counter()++));
    std::filesystem::create_directories(root_);
  }
  ~SysfsTree() {
    std::error_code ec;
    std::filesystem::remove_all(root_, ec);
  }

  void file(const std::string& rel, const std::string& contents) {
    auto path = root_ / rel;
    std::filesystem::create_directories(path.parent_path());
    std::ofstream(path) << contents;
  }

  // One cpu directory with the attributes discover() reads.
  void cpu(int id, int package, int core_id, const std::string& siblings,
           const std::string& llc_shared = "") {
    const std::string base = "devices/system/cpu/cpu" + std::to_string(id);
    file(base + "/topology/physical_package_id",
         std::to_string(package) + "\n");
    file(base + "/topology/core_id", std::to_string(core_id) + "\n");
    file(base + "/topology/thread_siblings_list", siblings + "\n");
    if (!llc_shared.empty()) {
      file(base + "/cache/index0/level", "1\n");
      file(base + "/cache/index0/type", "Data\n");
      file(base + "/cache/index0/shared_cpu_list", siblings + "\n");
      file(base + "/cache/index1/level", "3\n");
      file(base + "/cache/index1/type", "Unified\n");
      file(base + "/cache/index1/shared_cpu_list", llc_shared + "\n");
    }
  }

  std::string path() const { return root_.string(); }

 private:
  static int& counter() {
    static int c = 0;
    return c;
  }
  std::filesystem::path root_;
};

TEST(TopologyDiscover, SingleSocketNoSmt) {
  SysfsTree fs;
  fs.file("devices/system/cpu/online", "0-3\n");
  fs.file("devices/system/node/online", "0\n");
  fs.file("devices/system/node/node0/cpulist", "0-3\n");
  for (int c = 0; c < 4; ++c)
    fs.cpu(c, 0, c, std::to_string(c), "0-3");
  auto t = topology::discover(fs.path());
  EXPECT_FALSE(t.synthetic_source);
  EXPECT_EQ(t.cpu_count(), 4);
  EXPECT_EQ(t.nodes, 1);
  EXPECT_EQ(t.packages, 1);
  EXPECT_EQ(t.llcs, 1);
  EXPECT_EQ(t.cores, 4);
  for (const auto& c : t.cpus) EXPECT_EQ(c.smt, 0);
}

TEST(TopologyDiscover, TwoSocketSmt) {
  SysfsTree fs;
  fs.file("devices/system/cpu/online", "0-7\n");
  fs.file("devices/system/node/online", "0-1\n");
  fs.file("devices/system/node/node0/cpulist", "0-3\n");
  fs.file("devices/system/node/node1/cpulist", "4-7\n");
  // Socket 0: cores {0,1} with sibling pairs (0,1) and (2,3); socket 1
  // mirrors it on cpus 4-7.  Note core_id restarts per package — the
  // global core key must still keep them distinct.
  for (int c = 0; c < 8; ++c) {
    const int pkg = c / 4;
    const int core = (c % 4) / 2;
    const int lo = pkg * 4 + core * 2;
    fs.cpu(c, pkg, core,
           std::to_string(lo) + "-" + std::to_string(lo + 1),
           pkg == 0 ? "0-3" : "4-7");
  }
  auto t = topology::discover(fs.path());
  EXPECT_EQ(t.cpu_count(), 8);
  EXPECT_EQ(t.nodes, 2);
  EXPECT_EQ(t.packages, 2);
  EXPECT_EQ(t.llcs, 2);
  EXPECT_EQ(t.cores, 4);
  ASSERT_NE(t.find(3), nullptr);
  EXPECT_EQ(t.find(3)->smt, 1);
  EXPECT_EQ(t.find(3)->node, 0);
  ASSERT_NE(t.find(4), nullptr);
  EXPECT_EQ(t.find(4)->smt, 0);
  EXPECT_EQ(t.find(4)->node, 1);
  // Hierarchy order groups node 0's cpus before node 1's.
  for (int i = 0; i < 4; ++i) EXPECT_EQ(t.cpus[std::size_t(i)].node, 0);
  for (int i = 4; i < 8; ++i) EXPECT_EQ(t.cpus[std::size_t(i)].node, 1);
}

TEST(TopologyDiscover, AsymmetricNodes) {
  SysfsTree fs;
  fs.file("devices/system/cpu/online", "0-5\n");
  fs.file("devices/system/node/online", "0-1\n");
  fs.file("devices/system/node/node0/cpulist", "0-3\n");
  fs.file("devices/system/node/node1/cpulist", "4-5\n");
  for (int c = 0; c < 6; ++c)
    fs.cpu(c, c < 4 ? 0 : 1, c, std::to_string(c),
           c < 4 ? "0-3" : "4-5");
  auto t = topology::discover(fs.path());
  EXPECT_EQ(t.nodes, 2);
  EXPECT_EQ(t.node_cpus(0).size(), 4u);
  EXPECT_EQ(t.node_cpus(1).size(), 2u);
}

TEST(TopologyDiscover, MissingCacheAndNodeInfoDegrades) {
  SysfsTree fs;
  fs.file("devices/system/cpu/online", "0-1\n");
  // No node directory, no cache directories, no core ids: everything
  // falls back — one node, LLC keyed by package, core keyed by cpu id.
  for (int c = 0; c < 2; ++c) {
    const std::string base = "devices/system/cpu/cpu" + std::to_string(c);
    fs.file(base + "/topology/physical_package_id", "0\n");
  }
  auto t = topology::discover(fs.path());
  EXPECT_EQ(t.cpu_count(), 2);
  EXPECT_EQ(t.nodes, 1);
  EXPECT_EQ(t.llcs, 1);
  EXPECT_EQ(t.cores, 2);
}

TEST(TopologyDiscover, EmptyTreeFallsBackToSynthetic) {
  SysfsTree fs;  // no files at all
  auto t = topology::discover(fs.path());
  EXPECT_TRUE(t.synthetic_source);
  EXPECT_GE(t.cpu_count(), 1);
}

// --- pin plans -------------------------------------------------------------

TEST(PinPlan, PolicyParsing) {
  EXPECT_EQ(kex::parse_pin_policy("compact"), pin_policy::compact);
  EXPECT_EQ(kex::parse_pin_policy("scatter"), pin_policy::scatter);
  EXPECT_EQ(kex::parse_pin_policy("numa"), pin_policy::numa);
  EXPECT_EQ(kex::parse_pin_policy("none"), pin_policy::none);
  EXPECT_EQ(kex::parse_pin_policy("bogus", pin_policy::numa),
            pin_policy::numa);
  EXPECT_STREQ(kex::to_string(pin_policy::scatter), "scatter");
}

TEST(PinPlan, NonePinsNothing) {
  auto topo = topology::make_synthetic(2, 4, 2);
  auto plan = kex::make_pin_plan(topo, pin_policy::none, 8);
  EXPECT_TRUE(plan.empty());
  EXPECT_EQ(plan.cpu_for(0), -1);
}

TEST(PinPlan, CompactFillsHierarchyInOrder) {
  auto topo = topology::make_synthetic(2, 4, 2);
  auto plan = kex::make_pin_plan(topo, pin_policy::compact, 20);
  // First 16 pids take the 16 cpus in hierarchy order; 16.. wrap around.
  for (int pid = 0; pid < 16; ++pid) EXPECT_EQ(plan.cpu_for(pid), pid);
  EXPECT_EQ(plan.cpu_for(16), 0);
  EXPECT_EQ(plan.cpu_for(19), 3);
  EXPECT_EQ(plan.cpu_for(-1), -1);
  EXPECT_EQ(plan.cpu_for(20), -1);  // beyond the plan: unpinned
}

TEST(PinPlan, ScatterAlternatesNodesDistinctCoresFirst) {
  auto topo = topology::make_synthetic(2, 4, 2);
  auto plan = kex::make_pin_plan(topo, pin_policy::scatter, 8);
  // Nodes round-robin; within a node smt-0 cpus (even ids) come first.
  EXPECT_EQ(plan.cpu_for(0), 0);
  EXPECT_EQ(plan.cpu_for(1), 8);
  EXPECT_EQ(plan.cpu_for(2), 2);
  EXPECT_EQ(plan.cpu_for(3), 10);
  EXPECT_EQ(plan.cpu_for(4), 4);
  EXPECT_EQ(plan.cpu_for(5), 12);
  EXPECT_EQ(plan.cpu_for(6), 6);
  EXPECT_EQ(plan.cpu_for(7), 14);
}

TEST(PinPlan, NumaMakesContiguousPidBlocks) {
  auto topo = topology::make_synthetic(2, 4, 2);
  auto plan = kex::make_pin_plan(topo, pin_policy::numa, 8);
  // pids 0-3 on node 0, pids 4-7 on node 1, compact within each block.
  for (int pid = 0; pid < 4; ++pid) EXPECT_EQ(plan.cpu_for(pid), pid);
  for (int pid = 4; pid < 8; ++pid) EXPECT_EQ(plan.cpu_for(pid), 4 + pid);
}

TEST(PinPlan, NumaAsymmetricCountsStayBalanced) {
  auto topo = topology::make_synthetic(2, 2, 1);  // 4 cpus, 2 per node
  auto plan = kex::make_pin_plan(topo, pin_policy::numa, 5);
  // floor(pid * 2 / 5): pids 0-2 -> node 0, pids 3-4 -> node 1.
  for (int pid = 0; pid < 3; ++pid)
    EXPECT_EQ(topo.find(plan.cpu_for(pid))->node, 0) << pid;
  for (int pid = 3; pid < 5; ++pid)
    EXPECT_EQ(topo.find(plan.cpu_for(pid))->node, 1) << pid;
}

TEST(PinCurrentThread, BestEffort) {
  EXPECT_FALSE(kex::pin_current_thread(-1));
#if defined(__linux__)
  // CPU 0 always exists; an absurd id must fail without side effects.
  EXPECT_TRUE(kex::pin_current_thread(0));
  EXPECT_FALSE(kex::pin_current_thread(1 << 20));
#endif
}

// --- topology-aware leaf assignment ---------------------------------------

TEST(LeafAssignment, UnpinnedDegeneratesToDefault) {
  auto topo = topology::make_synthetic(2, 4, 2);
  pin_plan none;  // empty: nothing to be local to
  auto leaf = kex::topology_leaf_assignment(topo, none, 10, 2);
  for (int pid = 0; pid < 10; ++pid)
    EXPECT_EQ(leaf[std::size_t(pid)], pid / 2) << pid;
}

TEST(LeafAssignment, NumaPlanKeepsBlocksTogether) {
  auto topo = topology::make_synthetic(2, 4, 1);
  auto plan = kex::make_pin_plan(topo, pin_policy::numa, 8);
  auto leaf = kex::topology_leaf_assignment(topo, plan, 8, 2);
  // Contiguous pid blocks on contiguous cpus: assignment is pid/k, and
  // leaf-mates always share a node.
  for (int pid = 0; pid < 8; ++pid)
    EXPECT_EQ(leaf[std::size_t(pid)], pid / 2) << pid;
}

TEST(LeafAssignment, ScatteredPidsAreRegroupedByMachinePosition) {
  auto topo = topology::make_synthetic(2, 4, 1);
  // A plan that alternates nodes pid by pid (what scatter produces):
  // aware assignment must undo the interleave so leaf-mates share a node.
  auto plan = kex::make_pin_plan(topo, pin_policy::scatter, 8);
  auto leaf = kex::topology_leaf_assignment(topo, plan, 8, 2);
  for (int pid = 0; pid < 8; pid += 2) {
    const int a = topo.find(plan.cpu_for(pid))->node;
    // Find this pid's leaf-mate and check it pins to the same node.
    for (int other = 0; other < 8; ++other) {
      if (other != pid &&
          leaf[std::size_t(other)] == leaf[std::size_t(pid)]) {
        EXPECT_EQ(topo.find(plan.cpu_for(other))->node, a)
            << "pid " << pid << " grouped with cross-node pid " << other;
      }
    }
  }
}

TEST(TreeKex, ExplicitAssignmentValidation) {
  using tree = kex::cc_tree<sim>;
  // n=10, k=2: 5 groups over 8 leaves (next pow2).  A valid non-default
  // assignment constructs fine.
  kex::leaf_assignment ok{4, 4, 3, 3, 2, 2, 1, 1, 0, 0};
  tree t(10, 2, 10, ok);
  EXPECT_EQ(t.block_count(), 7);
  EXPECT_EQ(t.leaf_of(0), 4);
  EXPECT_EQ(t.leaf_of(9), 0);
  // Overfull group: three pids in group 0.
  kex::leaf_assignment overfull{0, 0, 0, 1, 1, 2, 2, 3, 3, 4};
  EXPECT_THROW((tree(10, 2, 10, overfull)), kex::invariant_violation);
  // Out-of-range group index.
  kex::leaf_assignment oob{0, 0, 1, 1, 2, 2, 3, 3, 4, 7};
  EXPECT_THROW((tree(10, 2, 10, oob)), kex::invariant_violation);
  // Too short to cover the pids.
  kex::leaf_assignment shorty{0, 0, 1};
  EXPECT_THROW((tree(10, 2, 10, shorty)), kex::invariant_violation);
}

TEST(TreeKex, NonPow2AwareTreeStaysSafeAndInBound) {
  // End to end on the sim platform: a topology-derived assignment for a
  // non-power-of-two n keeps the safety property and the Theorem 2 bound.
  constexpr int n = 10, k = 2;
  auto topo = topology::make_synthetic(2, 4, 1);
  auto plan = kex::make_pin_plan(topo, pin_policy::scatter, n);
  kex::cc_tree<sim> alg(
      n, k, n, kex::topology_leaf_assignment(topo, plan, n, k));
  auto r = kex::measure_rmr(alg, n, 30, kex::cost_model::cc);
  EXPECT_LE(r.max_occupancy, k);
  EXPECT_EQ(r.pairs, static_cast<std::uint64_t>(n) * 30u);
  EXPECT_LE(r.max_pair,
            static_cast<std::uint64_t>(kex::bounds::thm2_cc_tree(n, k)));
}

// --- placement independence of the sim cost model --------------------------

// Drive the same deterministic schedule through a default tree and a
// grouping-preserving permuted tree (sibling leaf groups swapped: every
// pid's root path traverses the same blocks).  The simulated platform
// charges by variable identity, so the per-process remote counts must be
// *identical* — layout may move memory, never add remote references.
namespace {

std::vector<std::uint64_t> stepped_tree_rmr(kex::leaf_assignment leaf_of) {
  constexpr int n = 8, k = 2;
  auto alg = std::make_shared<kex::cc_tree<sim>>(n, k, n,
                                                 std::move(leaf_of));
  auto counts = std::make_shared<std::vector<std::uint64_t>>(n, 0);
  std::vector<std::function<void(sim::proc&)>> scripts;
  scripts.reserve(n);
  for (int pid = 0; pid < n; ++pid) {
    scripts.emplace_back([alg, counts, pid](sim::proc& p) {
      for (int it = 0; it < 2; ++it) {
        alg->acquire(p);
        alg->release(p);
      }
      (*counts)[std::size_t(pid)] = p.counters().remote;
    });
  }
  // A fixed contended prefix: every pid gets a few early steps in a
  // scrambled order, then fair round-robin completion.
  std::vector<int> prefix;
  for (int round = 0; round < 6; ++round)
    for (int pid = 0; pid < n; ++pid) prefix.push_back((pid * 3 + round) % n);
  kex::stepped_options opts;
  opts.model = kex::cost_model::cc;
  auto out = kex::run_stepped(std::move(scripts), prefix, opts);
  EXPECT_FALSE(out.deadlocked);
  return *counts;
}

}  // namespace

TEST(PlacementIndependence, SimRmrIdenticalAcrossEquivalentLayouts) {
  // Default pid/k grouping, spelled three ways: implicitly, explicitly,
  // and with sibling leaves swapped (paths are identical by heap
  // symmetry: leaves 0,1 share a parent, as do 2,3).
  const auto baseline = stepped_tree_rmr({});
  const auto explicit_default = stepped_tree_rmr({0, 0, 1, 1, 2, 2, 3, 3});
  const auto sibling_swap = stepped_tree_rmr({1, 1, 0, 0, 3, 3, 2, 2});
  EXPECT_EQ(baseline, explicit_default);
  EXPECT_EQ(baseline, sibling_swap);
  // Sanity: the runs actually did contended work.
  std::uint64_t total = 0;
  for (auto c : baseline) total += c;
  EXPECT_GT(total, 0u);
}

// --- arena layout contracts ------------------------------------------------

TEST(ArenaLayout, StrideAndAlignment) {
  static_assert(kex::arena_vector<int>::stride() == kex::cacheline_size);
  static_assert(kex::arena_vector<int>::alignment() >= kex::cacheline_size);
  static_assert(kex::round_up_to_line(1) == kex::cacheline_size);
  static_assert(kex::round_up_to_line(kex::cacheline_size) ==
                kex::cacheline_size);
  static_assert(kex::round_up_to_line(kex::cacheline_size + 1) ==
                2 * kex::cacheline_size);

  kex::arena_vector<int> v;
  v.reserve(5);
  for (int i = 0; i < 5; ++i) v.emplace_back(i);
  ASSERT_EQ(v.size(), 5u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(v[std::size_t(i)], i);
    auto addr = reinterpret_cast<std::uintptr_t>(&v[std::size_t(i)]);
    EXPECT_EQ(addr % kex::cacheline_size, 0u) << "element " << i;
  }
  // Range-for sees the same elements.
  int expect = 0;
  for (int x : v) EXPECT_EQ(x, expect++);
}

TEST(ArenaLayout, CapacityIsEnforced) {
  kex::arena_vector<int> v;
  v.reserve(1);
  v.emplace_back(1);
  EXPECT_THROW(v.emplace_back(2), kex::invariant_violation);
  kex::arena_vector<int> w;
  EXPECT_THROW(w.emplace_back(1), kex::invariant_violation);  // no reserve
}

TEST(ArenaLayout, SpinMatrixRowsNeverShareALine) {
  kex::spin_matrix<sim, int> m(4, 3, 7);
  for (int pid = 0; pid < 4; ++pid) {
    auto row = reinterpret_cast<std::uintptr_t>(m.row_address(pid));
    EXPECT_EQ(row % kex::cacheline_size, 0u) << "row " << pid;
    if (pid > 0) {
      auto prev = reinterpret_cast<std::uintptr_t>(m.row_address(pid - 1));
      EXPECT_GE(row - prev, kex::cacheline_size);
    }
  }
  // Cells are initialized and owned per row.
  sim::proc p(0, kex::cost_model::dsm);
  EXPECT_EQ(m.at(0, 0).read(p), 7);
}

// The per-worker outcome slots and the meter's per-process stats are what
// keep harness bookkeeping off the algorithms' cache lines; padded<> must
// actually pad.
TEST(ArenaLayout, PaddedOccupiesWholeLines) {
  struct three_words {
    std::uint64_t a, b, c;
  };
  static_assert(sizeof(kex::padded<three_words>) % kex::cacheline_size == 0);
  static_assert(alignof(kex::padded<three_words>) == kex::cacheline_size);
}

// --- line-packed blocks -----------------------------------------------------
//
// A Figure-2 chain packs its levels' X/Q words into one line-aligned arena
// of its own, and Figure 7 packs its bits the same way: on the real
// platform a (2k,k) block spans ceil(8k/64) lines, and distinct blocks
// never share one.

using real = kex::real_platform;

std::uintptr_t line_of(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) / kex::cacheline_size;
}

bool line_aligned(const void* p) {
  return reinterpret_cast<std::uintptr_t>(p) % kex::cacheline_size == 0;
}

// Every line a block occupies: its own object and its level arena.
template <class Platform>
std::vector<std::uintptr_t> block_lines(const kex::cc_inductive<Platform>& b) {
  std::vector<std::uintptr_t> lines;
  auto add = [&](const void* p, std::size_t bytes) {
    const auto* end = static_cast<const char*>(p) + bytes - 1;
    for (auto l = line_of(p); l <= line_of(end); ++l) lines.push_back(l);
  };
  add(&b, sizeof(b));
  add(&b.level(0),
      kex::packed_arena<kex::cc_level<Platform>>::footprint(
          static_cast<std::size_t>(b.depth())));
  return lines;
}

void expect_no_shared_line(
    const std::vector<std::vector<std::uintptr_t>>& blocks) {
  std::map<std::uintptr_t, std::size_t> owner;
  for (std::size_t b = 0; b < blocks.size(); ++b)
    for (auto line : blocks[b]) {
      auto [it, fresh] = owner.emplace(line, b);
      if (!fresh && it->second != b)
        ADD_FAILURE() << "blocks " << it->second << " and " << b
                      << " share a cache line";
    }
}

template <class Tree>
std::vector<std::vector<std::uintptr_t>> tree_block_lines(const Tree& t) {
  std::vector<std::vector<std::uintptr_t>> out;
  for (int node = 1; node <= t.block_count(); ++node)
    out.push_back(block_lines(t.block(node)));
  return out;
}

TEST(LinePacking, BlockIsLineAlignedAndSpansCeil8kOver64Lines) {
  static_assert(sizeof(kex::cc_level<real>) == 8);
  for (int k : {1, 2, 4, 8}) {
    kex::cc_inductive<real> block(2 * k, k);
    ASSERT_EQ(block.depth(), k);
    EXPECT_TRUE(line_aligned(&block.level(0))) << "k=" << k;
    const std::size_t lines = (8 * static_cast<std::size_t>(k) + 63) / 64;
    EXPECT_EQ(kex::packed_arena<kex::cc_level<real>>::footprint(
                  static_cast<std::size_t>(k)),
              lines * kex::cacheline_size)
        << "k=" << k;
    // The levels are back to back: the last word ends inside that span.
    const auto* last = &block.level(k - 1);
    EXPECT_EQ(reinterpret_cast<const char*>(last) -
                  reinterpret_cast<const char*>(&block.level(0)),
              static_cast<std::ptrdiff_t>(8 * (k - 1)));
    EXPECT_EQ(line_of(reinterpret_cast<const char*>(last + 1) - 1) -
                  line_of(&block.level(0)) + 1,
              lines)
        << "k=" << k;
  }
}

TEST(LinePacking, TreeBlocksNeverShareALine) {
  kex::cc_tree<real> tree(16, 2);
  ASSERT_EQ(tree.block_count(), 7);
  expect_no_shared_line(tree_block_lines(tree));
}

TEST(LinePacking, GracefulStageBlocksNeverShareALine) {
  kex::cc_graceful<real> g(16, 2);
  ASSERT_GE(g.stage_count(), 2);
  std::vector<std::vector<std::uintptr_t>> blocks;
  for (int i = 0; i <= g.stage_count(); ++i)
    blocks.push_back(block_lines(g.block(i)));
  expect_no_shared_line(blocks);
}

TEST(LinePacking, HybridTreeBlocksNeverShareALine) {
  kex::hybrid_kex<real> h(16, 4);
  ASSERT_EQ(h.tree().block_count(), 3);
  expect_no_shared_line(tree_block_lines(h.tree()));
}

TEST(LinePacking, RenamingBitsShareOneLine) {
  for (int k : {4, 8}) {
    kex::tas_renaming<real> names(k);
    EXPECT_TRUE(line_aligned(&names.bit(0))) << "k=" << k;
    EXPECT_EQ(line_of(&names.bit(0)), line_of(&names.bit(k - 2)))
        << "k=" << k;
  }
}

// Pinned run end to end: a numa-planned worker group completes and keeps
// the safety property regardless of whether the plan's cpus exist on the
// actual machine (pinning is best effort — the CI smoke path).
TEST(PinnedRun, SyntheticPlanIsBestEffort) {
  constexpr int n = 6, k = 2;
  auto topo = topology::make_synthetic(2, 4, 1);
  auto plan = kex::make_pin_plan(topo, pin_policy::numa, n);
  kex::cc_tree<sim> alg(n, k);
  kex::process_set<sim> procs(n, kex::cost_model::cc);
  kex::cs_monitor monitor;
  auto result = kex::run_workers<sim>(
      procs, kex::first_pids(n),
      [&](sim::proc& p) {
        for (int i = 0; i < 20; ++i) {
          alg.acquire(p);
          monitor.enter();
          monitor.exit();
          alg.release(p);
        }
      },
      plan);
  EXPECT_EQ(result.completed, n);
  EXPECT_EQ(result.crashed, 0);
  EXPECT_LE(monitor.max_occupancy(), k);
}

}  // namespace
