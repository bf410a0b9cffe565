// Reproduces the double append in universal::apply (resilient/universal.h)
// that keeps resilient_kv, resilient_register and resilient_queue out of
// the service benchmark.
//
//   .bench_build/svcbench/universal_repro [trials]
//
// apply() loops while its own node is unappended, but decides to propose
// that node from the `mine->seq == 0` test made at the top of the loop,
// before it reads max_head().  If helpers append the node and the log
// grows past it inside that window, the CAS on the new end appends it a
// second time and the log closes into a cycle.  Every process then walks
// the cycle forever, copying the state once per step, so memory grows
// without bound.
//
// Each trial runs two real threads calling apply() 20000 times with names
// 0 and 1 under a 512 MiB address-space cap; a trial that runs out of
// memory has hit the fault.  Exits 1 if any trial did, 0 otherwise.
#include <sys/resource.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <string>
#include <thread>

#include "platform/platform.h"
#include "resilient/universal.h"

namespace {

using real = kex::real_platform;

struct add_op {
  long delta = 0;
};

constexpr int kApplies = 20000;
constexpr auto kTrialLimit = std::chrono::seconds(60);

// Returns true when the trial ran out of memory.
bool trial() {
  kex::universal<real, long, add_op, long> obj(
      2, 2, 0L, [](long& s, const add_op& o) {
        const long old = s;
        s += o.delta;
        return old;
      });
  std::atomic<int> out_of_memory{0};
  std::atomic<int> finished{0};
  auto client = [&](int name) {
    real::proc p(name);
    try {
      for (int i = 0; i < kApplies; ++i) obj.apply(p, name, add_op{1});
    } catch (const std::bad_alloc&) {
      out_of_memory.fetch_add(1);
    }
    finished.fetch_add(1);
  };
  const auto start = std::chrono::steady_clock::now();
  std::thread a(client, 0), b(client, 1);
  while (finished.load() < 2) {
    if (std::chrono::steady_clock::now() - start > kTrialLimit) {
      std::printf("trial hung for %lld s without running out of memory\n",
                  static_cast<long long>(kTrialLimit.count()));
      std::fflush(stdout);
      std::_Exit(1);  // the threads are still walking the cycle
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  a.join();
  b.join();
  return out_of_memory.load() > 0;
}

}  // namespace

int main(int argc, char** argv) {
  const int trials = argc > 1 ? std::atoi(argv[1]) : 10;
  rlimit cap{512ul << 20, 512ul << 20};
  if (setrlimit(RLIMIT_AS, &cap) != 0) {
    std::perror("setrlimit");
    return 2;
  }
  int faults = 0;
  for (int t = 1; t <= trials; ++t) {
    const bool fault = trial();
    faults += fault ? 1 : 0;
    std::printf("trial %d: %s\n", t,
                fault ? "out of memory: the log closed into a cycle"
                      : "completed");
    std::fflush(stdout);
  }
  std::printf("%d of %d trials hit the double append\n", faults, trials);
  return faults > 0 ? 1 : 0;
}
