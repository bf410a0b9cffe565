// What the benchmark measures with: a latency histogram for the timed run,
// the span recorder of the traced run, and the RMR recorder and step gate
// of the lockstep replay.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <chrono>
#include <cstdint>
#include <vector>

#include "platform/sim.h"
#include "platform/stepper.h"
#include "service.h"

namespace svcbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Log-linear histogram with 128 linear sub-buckets per power of two
// (bucket width <= 0.8% of the value).  Percentiles interpolate inside the
// bucket, so a median does not snap to a bucket edge — runtime/
// latency_histogram.h reports bucket representatives 3% apart, coarser
// than the run-to-run differences this benchmark has to resolve.  One per
// client thread; merged after the threads join.
class fine_histogram {
  static constexpr int sub_bits = 7;
  static constexpr std::uint64_t sub = std::uint64_t{1} << sub_bits;

 public:
  fine_histogram() : b_(sub * (65 - sub_bits), 0) {}

  void record(std::uint64_t v) {
    ++b_[index(v)];
    ++count_;
  }
  void merge(const fine_histogram& o) {
    for (std::size_t i = 0; i < b_.size(); ++i) b_[i] += o.b_[i];
    count_ += o.count_;
  }

  double percentile(double q) const {
    if (count_ == 0) return 0;
    const double want = q / 100.0 * static_cast<double>(count_);
    std::uint64_t before = 0;
    for (std::size_t i = 0; i < b_.size(); ++i) {
      if (b_[i] == 0) continue;
      if (static_cast<double>(before + b_[i]) >= want) {
        const double frac =
            (want - static_cast<double>(before)) / static_cast<double>(b_[i]);
        return static_cast<double>(lo(i)) +
               frac * static_cast<double>(width(i));
      }
      before += b_[i];
    }
    return static_cast<double>(lo(b_.size() - 1));
  }

 private:
  static std::size_t index(std::uint64_t v) {
    if (v < sub) return static_cast<std::size_t>(v);
    const int e = std::bit_width(v) - 1;  // >= sub_bits
    return static_cast<std::size_t>(e - sub_bits + 1) * sub +
           static_cast<std::size_t>((v >> (e - sub_bits)) & (sub - 1));
  }
  static std::uint64_t lo(std::size_t i) {
    if (i < sub) return i;
    const int e = static_cast<int>(i / sub) + sub_bits - 1;
    return (sub + i % sub) << (e - sub_bits);
  }
  static std::uint64_t width(std::size_t i) {
    if (i < sub) return 1;
    const int e = static_cast<int>(i / sub) + sub_bits - 1;
    return std::uint64_t{1} << (e - sub_bits);
  }

  std::vector<std::uint64_t> b_;
  std::uint64_t count_ = 0;
};

// Exact percentile of a sample (nearest rank); reorders `v`.
template <class T>
double exact_percentile(std::vector<T>& v, double q) {
  if (v.empty()) return 0;
  auto rank = static_cast<std::size_t>(q / 100.0 * static_cast<double>(v.size()));
  rank = std::min(rank, v.size() - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return static_cast<double>(v[rank]);
}

// --- traced run ------------------------------------------------------------

inline constexpr std::uint64_t kNoRequest = ~std::uint64_t{0};

struct span {
  std::uint64_t request;  // shared by every span of one request
  std::int64_t t0, t1;
  std::int32_t parent;    // index of the enclosing span, -1 for a root
  layer what;
};

// Records one span per bracketed call into a per-thread buffer; nothing
// leaves the thread until the run ends.
class span_probe {
 public:
  span_probe(int client, std::size_t reserve) : client_(client) {
    spans_.reserve(reserve);
  }

  template <class Pr>
  void arm(Pr&) {}
  template <class Pr>
  void begin_request(Pr*) {
    request_ = (static_cast<std::uint64_t>(client_) << 40) | next_++;
    open(layer::request);
  }
  template <class Pr>
  void end_request(Pr*) {
    close();
    request_ = kNoRequest;
  }
  template <class Pr>
  void begin(layer l, Pr*) {
    open(l);
  }
  template <class Pr>
  void end(layer, Pr*) {
    close();
  }

  std::vector<span>& spans() { return spans_; }

 private:
  void open(layer l) {
    const std::int32_t parent = depth_ > 0 ? stack_[depth_ - 1] : -1;
    stack_[depth_++] = static_cast<std::int32_t>(spans_.size());
    spans_.push_back({request_, now_ns(), 0, parent, l});
  }
  void close() {
    spans_[static_cast<std::size_t>(stack_[--depth_])].t1 = now_ns();
  }

  int client_;
  std::uint64_t request_ = kNoRequest;
  std::uint64_t next_ = 0;
  std::vector<span> spans_;
  std::array<std::int32_t, 8> stack_{};
  int depth_ = 0;
};

// --- lockstep replay -------------------------------------------------------

// Forwards every shared access of a client's procs to the scheduler under
// the client's index.  Registry-leased procs change pid across sessions
// (and carry an out-of-band id during attach), so the gate is keyed by
// client, not by pid.
class client_gate final : public kex::sim_platform::proc::step_gate {
 public:
  client_gate(kex::step_scheduler& sched, int client)
      : sched_(sched), client_(client) {}
  void before_access(int) override { sched_.before_access(client_); }

 private:
  kex::step_scheduler& sched_;
  int client_;
};

// One replayed request's remote references, split by layer.  `total` is
// read around the whole request independently of the parts.
struct rmr_record {
  std::array<std::uint64_t, static_cast<int>(layer::count)> part{};
  std::uint64_t total = 0;
  int adds = 0, reads = 0;
};

class rmr_probe {
  using proc = kex::sim_platform::proc;

 public:
  explicit rmr_probe(client_gate& gate) : gate_(gate) {}

  void arm(proc& p) { p.set_step_gate(&gate_); }
  void begin_request(proc* p) {
    cur_ = {};
    base_total_ = remote(p);
  }
  void end_request(proc* p) {
    cur_.total = remote(p) - base_total_;
    records_.push_back(cur_);
  }
  void begin(layer l, proc* p) { base_[idx(l)] = remote(p); }
  void end(layer l, proc* p) {
    cur_.part[idx(l)] += remote(p) - base_[idx(l)];
    if (l == layer::add) ++cur_.adds;
    if (l == layer::read) ++cur_.reads;
  }

  const std::vector<rmr_record>& records() const { return records_; }

 private:
  static std::size_t idx(layer l) { return static_cast<std::size_t>(l); }
  // A request that attaches starts on a proc that does not exist yet:
  // it starts from zero.
  static std::uint64_t remote(proc* p) {
    return p != nullptr ? p->counters().remote : 0;
  }

  client_gate& gate_;
  rmr_record cur_;
  std::uint64_t base_total_ = 0;
  std::array<std::uint64_t, static_cast<int>(layer::count)> base_{};
  std::vector<rmr_record> records_;
};

}  // namespace svcbench
