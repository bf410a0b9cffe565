// Workload definitions and the seeded request generator.
//
// Every input the service sees comes from here: a client's request stream
// is a pure function of (workload, seed, client index), so the timed run,
// the traced run and the lockstep replay can all be driven from the same
// generator.
#pragma once

#include <cmath>
#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

namespace svcbench {

// The service shape every workload shares.
inline constexpr int kClients = 4;    // closed-loop client threads
inline constexpr int kCapacity = 8;   // registry capacity N = table pid space
inline constexpr int kShards = 8;     // static lock_table: S
inline constexpr int kTableK = 2;     // static lock_table: k
inline constexpr int kCounterK = 4;   // resilient_counter k (= kClients, so
                                      // the wrapper never sees contention > k)
inline constexpr int kKeys = 4096;    // key universe

struct workload_spec {
  std::string_view name;
  bool elastic = false;          // elastic_lock_table instead of lock_table
  bool churn = false;            // sessions attach/detach, counter in the CS
  int session_len = 0;           // requests per session (churn)
  int read_at = 0;               // session position that reads the counter
  double zipf_s = 0;             // 0 = uniform keys
  std::uint64_t phase_len = 0;   // requests per client before the hot set moves
  int maint_every = 0;           // client-0 requests between maintenance()
  int cs_work = 0;               // hold_work() rounds inside the CS
  int replay_requests = 0;       // per client, lockstep replay
  int trace_requests = 0;        // per client, traced run
};

inline const std::vector<workload_spec>& workloads() {
  static const std::vector<workload_spec> all = {
      {.name = "spread",
       .replay_requests = 2048,
       .trace_requests = 200000},
      {.name = "session_churn",
       .churn = true,
       .session_len = 5,
       .read_at = 2,
       .replay_requests = 500,
       .trace_requests = 100000},
      {.name = "hot_shift",
       .elastic = true,
       .zipf_s = 1.2,
       .phase_len = 1u << 20,
       .maint_every = 256,
       .cs_work = 200,
       .replay_requests = 2048,
       .trace_requests = 200000},
  };
  return all;
}

inline const workload_spec* find_workload(std::string_view name) {
  for (const auto& w : workloads())
    if (w.name == name) return &w;
  return nullptr;
}

// splitmix64: small, fast, and fully determined by its seed.
class rng64 {
 public:
  explicit rng64(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

 private:
  std::uint64_t s_;
};

// Inverse-CDF zipf sampler over ranks 0..n-1.
class zipf_table {
 public:
  zipf_table(int n, double s) : cdf_(static_cast<std::size_t>(n)) {
    double sum = 0;
    for (int r = 0; r < n; ++r) {
      sum += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[static_cast<std::size_t>(r)] = sum;
    }
    for (auto& c : cdf_) c /= sum;
  }
  int rank(double u) const {
    std::size_t lo = 0, hi = cdf_.size() - 1;
    while (lo < hi) {
      const std::size_t mid = (lo + hi) / 2;
      if (cdf_[mid] < u)
        lo = mid + 1;
      else
        hi = mid;
    }
    return static_cast<int>(lo);
  }

 private:
  std::vector<double> cdf_;
};

// Work on the locked resource: a dependent multiply chain the compiler
// cannot fold away, so a holder keeps its slot for a fixed time and other
// clients pile up behind it.
inline std::uint64_t hold_work(std::uint64_t x, int rounds) {
  for (int i = 0; i < rounds; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    asm volatile("" : "+r"(x));
  }
  return x;
}

// One request's inputs, as the client sends them.
struct request {
  std::uint64_t key = 0;
  bool attach = false;  // open a session first (churn)
  bool detach = false;  // close the session afterwards (churn)
  long add = 0;         // resilient_counter::add delta, 0 = none
  bool read = false;    // resilient_counter::read inside the CS
};

class request_stream {
 public:
  request_stream(const workload_spec& w, std::uint64_t seed, int client)
      : w_(&w),
        rng_(seed * 0x100000001b3ull + static_cast<std::uint64_t>(client) +
             1) {
    if (w.zipf_s > 0) zipf_ = std::make_shared<zipf_table>(kKeys, w.zipf_s);
  }

  // True when the next request starts a session (or sessions are
  // long-lived): the only points where a client may stop.
  bool at_boundary() const {
    return !w_->churn || i_ % static_cast<std::uint64_t>(w_->session_len) == 0;
  }

  request next() {
    request r;
    if (zipf_) {
      // The zipf rank says how hot a request is; the phase says which key
      // carries that heat, so the hot set moves every phase_len requests.
      const std::uint64_t phase = i_ / w_->phase_len;
      const int rank = zipf_->rank(rng_.unit());
      r.key = (static_cast<std::uint64_t>(rank) + phase * 1777) % kKeys;
    } else {
      r.key = rng_.next() % kKeys;
    }
    if (w_->churn) {
      // A session is attach+add, add, add+read, add, add+detach.
      const auto len = static_cast<std::uint64_t>(w_->session_len);
      const auto pos = i_ % len;
      r.attach = pos == 0;
      r.detach = pos == len - 1;
      r.add = 1 + static_cast<long>(rng_.next() % 8);
      r.read = pos == static_cast<std::uint64_t>(w_->read_at);
    }
    ++i_;
    return r;
  }

 private:
  const workload_spec* w_;
  rng64 rng_;
  std::shared_ptr<const zipf_table> zipf_;
  std::uint64_t i_ = 0;
};

}  // namespace svcbench
