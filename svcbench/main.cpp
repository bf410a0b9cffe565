// Service benchmark: one request through session registry -> lock table
// -> resilient counter, timed on real threads and counted in RMRs.
//
//   svcbench --workload <spread|session_churn|hot_shift> --seed <n>
//            --seconds <s> --trace <0|1>
//
// Each invocation runs one workload in three parts:
//   timed run   real platform, kClients closed-loop client threads for
//               --seconds; gives the wall-clock end-to-end metrics.
//   replay      the same generator replayed in lockstep on the simulated
//               platform (CC cost model) through the step scheduler; gives
//               exact RMR counts per request and per layer.
//   traced run  (--trace 1 only) a separate real-platform run with a span
//               around every public call; gives per-layer wall clock.
// Every part checks its outputs; a failed check names itself on stderr
// and the run exits non-zero.  The last stdout line is one JSON object.
#include <sched.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "platform/topology.h"
#include "probes.h"
#include "runtime/bounds.h"
#include "service.h"
#include "workload.h"

#ifndef SVCBENCH_BUILD_TYPE
#define SVCBENCH_BUILD_TYPE "unknown"
#endif
#ifndef SVCBENCH_CXX_FLAGS
#define SVCBENCH_CXX_FLAGS "unknown"
#endif

namespace svcbench {
namespace {

using real = kex::real_platform;
using sim = kex::sim_platform;

constexpr kex::pin_policy kPin = kex::pin_policy::compact;
// One client thread per CPU, so waiters spin.  Under the default adaptive
// policy (128 spins, then yields, then futex parks) waits on holds of a
// microsecond or two park, and session_churn's median latency moved
// between 1.2 and 2.9 us from one run to the next; spinning, within 3%.
constexpr kex::wait_mode kWait = kex::wait_mode::spin;
// The replay's inputs do not depend on --seed: its RMR counts are exact
// constants of the code under test, identical on every run.
constexpr std::uint64_t kReplaySeed = 1;
// Set-up is timed this many times per run and reported as the median.
constexpr int kSetupReps = 100;
constexpr std::int64_t kReplayLimitNs = 120'000'000'000;
// The timed run's request rate is the median over windows of this length,
// so a stall of the VM in one window does not move it.
constexpr std::chrono::milliseconds kWindow{100};

struct totals {
  std::uint64_t requests = 0;
  std::uint64_t attaches = 0;
  long added = 0;

  void add(const totals& o) {
    requests += o.requests;
    attaches += o.attaches;
    added += o.added;
  }
};

template <kex::Platform P>
totals totals_of(const client_state<P>& cl) {
  return {cl.requests, cl.attaches, cl.added};
}

// Output checks made after a run, from counts the benchmark kept itself.
template <kex::Platform P>
void final_checks(service_stack<P>& st, const totals& t, check_log& log,
                  const std::string& part) {
  std::uint64_t acquires = 0;
  int max_occupancy = 0;
  if (st.elastic) {
    const auto s = st.elastic->stats();
    acquires = s.total_acquires();
    max_occupancy = s.max_occupancy();
  } else {
    const auto s = st.table->stats();
    acquires = s.total_acquires();
    max_occupancy = s.max_occupancy();
  }
  auto fail = [&](const std::string& what) { log.fail(part + ": " + what); };
  if (acquires != t.requests)
    fail("acquire count: table total_acquires() = " +
         std::to_string(acquires) + ", requests sent = " +
         std::to_string(t.requests));
  if (max_occupancy > st.holder_limit)
    fail("max_occupancy: table reports " + std::to_string(max_occupancy) +
         " > k = " + std::to_string(st.holder_limit));
  if (st.registry.active() != 0 ||
      st.registry.capacity_remaining() != st.registry.capacity())
    fail("registry capacity: active() = " +
         std::to_string(st.registry.active()) +
         ", capacity_remaining() = " +
         std::to_string(st.registry.capacity_remaining()));
  if (st.registry.total_attaches() != t.attaches)
    fail("registry attaches: total_attaches() = " +
         std::to_string(st.registry.total_attaches()) +
         ", attaches sent = " + std::to_string(t.attaches));
  if (st.counter) {
    auto s = st.registry.attach();
    const long v = st.counter->read(s.context());
    s.detach();
    if (v != t.added)
      fail("counter total: read() = " + std::to_string(v) +
           ", sum of adds = " + std::to_string(t.added));
  }
}

// --- timed and traced runs (real platform) ---------------------------------

struct layer_counts {
  double fast_hit_share = 0;
  double imbalance = 0;
  std::uint64_t handovers = 0;
  std::uint64_t k_steps = 0;
  int active_shards = 0;
  std::uint64_t registry_attaches = 0;
};

layer_counts counts_of(service_stack<real>& st) {
  layer_counts c;
  c.registry_attaches = st.registry.total_attaches();
  if (st.elastic) {
    const auto s = st.elastic->stats();
    c.fast_hit_share = static_cast<double>(s.total_fast_hits()) /
                       static_cast<double>(s.total_acquires());
    // Max over mean across every slot that served an acquire.
    std::uint64_t max = 0, sum = 0;
    int used = 0;
    for (const auto& row : s.slots) {
      if (row.acquires == 0) continue;
      max = std::max(max, row.acquires);
      sum += row.acquires;
      ++used;
    }
    c.imbalance = used == 0 ? 0
                            : static_cast<double>(max) * used /
                                  static_cast<double>(sum);
    c.handovers = s.handovers;
    c.k_steps = s.k_steps_up + s.k_steps_down;
    c.active_shards = s.active_shards;
  } else {
    const auto s = st.table->stats();
    c.fast_hit_share = static_cast<double>(s.total_fast_hits()) /
                       static_cast<double>(s.total_acquires());
    c.imbalance = s.imbalance();
    c.active_shards = st.table->shards();
  }
  return c;
}

struct real_run {
  std::vector<double> setup_s;
  double wall_s = 0;
  std::vector<double> window_rates;  // requests/s in each kWindow of the run
  totals t;
  fine_histogram latency;
  std::vector<std::vector<span>> spans;
  layer_counts counts;
};

// Runs the clients until `seconds` elapse (0: no limit) or each client has
// sent `max_requests` (0: no limit), stopping only at session
// boundaries.
//
// Set-up — building the stack and attaching the long-lived sessions — is
// repeated `setup_reps` times on the main thread and timed each time; the
// last stack and its sessions go on to serve requests, each session handed
// to its client thread.  Starting the OS threads is left out of the
// timing: it costs 0.1-1 ms on this kind of VM and varies threefold from
// one process to the next, while no change to the service can move it.
template <class Probe, class MakeProbe>
real_run run_real(const workload_spec& w, std::uint64_t seed, double seconds,
                  std::uint64_t max_requests, int setup_reps, check_log& log,
                  MakeProbe make_probe) {
  using session = kex::session_registry<real>::session;
  real_run out;
  const kex::pin_plan plan =
      kex::make_pin_plan(kex::global_topology(), kPin, kClients);
  std::unique_ptr<service_stack<real>> st;
  std::vector<session> sessions;
  // The repetitions take turns on the clients' CPUs: one CPU of this VM
  // can run a single thread half again as fast as another, and a median
  // taken on whichever CPU the main thread happened to land on moved
  // twofold from one run to the next.
  cpu_set_t home;
  const bool rotate =
      setup_reps > 1 && sched_getaffinity(0, sizeof home, &home) == 0;
  for (int rep = 0; rep < setup_reps; ++rep) {
    if (rotate) kex::pin_current_thread(plan.cpu_for(rep % kClients));
    sessions.clear();  // the previous stack's sessions detach first
    st.reset();
    const std::int64_t t0 = now_ns();
    st = std::make_unique<service_stack<real>>(w, log, kex::cost_model::none);
    if (!w.churn)
      for (int c = 0; c < kClients; ++c)
        sessions.push_back(st->registry.attach());
    out.setup_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  if (rotate) sched_setaffinity(0, sizeof home, &home);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  // Each client publishes its request count; the main thread samples them
  // once per window.
  std::vector<kex::padded<std::atomic<std::uint64_t>>> progress(kClients);
  struct result {
    totals t;
    fine_histogram latency;
    std::vector<span> spans;
    std::int64_t end_ns = 0;
  };
  std::vector<result> res(kClients);
  std::vector<std::thread> threads;
  threads.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      auto& r = res[static_cast<std::size_t>(c)];
      bool counted = false;
      try {
        kex::pin_current_thread(plan.cpu_for(c));
        client_state<real> cl(w, seed, c);
        if (!w.churn) {
          cl.session = std::move(sessions[static_cast<std::size_t>(c)]);
          cl.attaches = 1;
        }
        Probe pr = make_probe(c);
        ready.fetch_add(1);
        ready.notify_one();
        counted = true;
        go.wait(false, std::memory_order_acquire);
        for (;;) {
          if (cl.gen.at_boundary() &&
              (stop.load(std::memory_order_relaxed) ||
               (max_requests != 0 && cl.requests >= max_requests)))
            break;
          maybe_maintain(*st, cl, c, pr);
          const request rq = cl.gen.next();
          const std::int64_t r0 = now_ns();
          run_request(*st, cl, rq, pr);
          r.latency.record(static_cast<std::uint64_t>(now_ns() - r0));
          progress[static_cast<std::size_t>(c)].value.store(
              cl.requests, std::memory_order_relaxed);
        }
        if (!w.churn) cl.session.detach();
        r.end_ns = now_ns();
        r.t = totals_of(cl);
        if constexpr (requires { pr.spans(); }) r.spans = std::move(pr.spans());
      } catch (const std::exception& e) {
        log.fail(std::string("client: ") + e.what());
        if (!counted) {
          ready.fetch_add(1);
          ready.notify_one();
        }
      }
    });
  }
  for (int n = ready.load(); n < kClients; n = ready.load()) ready.wait(n);
  const std::int64_t start = now_ns();
  go.store(true, std::memory_order_release);
  go.notify_all();
  if (seconds > 0) {
    auto done = [&] {
      std::uint64_t n = 0;
      for (auto& p : progress) n += p.value.load(std::memory_order_relaxed);
      return n;
    };
    const int windows =
        std::max(1, static_cast<int>(seconds / kWindow.count() * 1e3));
    std::int64_t t_prev = start;
    std::uint64_t n_prev = 0;
    for (int i = 1; i <= windows; ++i) {
      std::this_thread::sleep_until(
          std::chrono::steady_clock::time_point(
              std::chrono::nanoseconds(start)) + i * kWindow);
      const std::int64_t t = now_ns();
      const std::uint64_t n = done();
      out.window_rates.push_back(static_cast<double>(n - n_prev) * 1e9 /
                                 static_cast<double>(t - t_prev));
      t_prev = t;
      n_prev = n;
    }
    stop.store(true);
  }
  for (auto& th : threads) th.join();
  std::int64_t end = start;
  for (auto& r : res) {
    end = std::max(end, r.end_ns);
    out.t.add(r.t);
    out.latency.merge(r.latency);
    out.spans.push_back(std::move(r.spans));
  }
  out.wall_s = static_cast<double>(end - start) * 1e-9;
  final_checks(*st, out.t, log, "timed run");
  out.counts = counts_of(*st);
  return out;
}

// --- lockstep replay (simulated platform) ----------------------------------

struct replay_run {
  std::vector<rmr_record> records;
  totals t;
};

replay_run run_replay(const workload_spec& w, check_log& log) {
  service_stack<sim> st(w, log, kex::cost_model::cc);
  kex::step_scheduler sched(kClients);
  std::vector<std::unique_ptr<client_gate>> gates;
  std::vector<std::unique_ptr<rmr_probe>> probes;
  std::vector<totals> per_client(kClients);
  for (int c = 0; c < kClients; ++c) {
    gates.push_back(std::make_unique<client_gate>(sched, c));
    probes.push_back(std::make_unique<rmr_probe>(*gates.back()));
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      try {
        client_state<sim> cl(w, kReplaySeed, c);
        rmr_probe& pr = *probes[static_cast<std::size_t>(c)];
        if (!w.churn) attach(st, cl, pr);
        for (int i = 0; i < w.replay_requests; ++i) {
          maybe_maintain(st, cl, c, pr);
          run_request(st, cl, cl.gen.next(), pr);
        }
        if (!w.churn) cl.session.detach();
        per_client[static_cast<std::size_t>(c)] = totals_of(cl);
      } catch (const std::exception& e) {
        log.fail(std::string("replay client: ") + e.what());
      } catch (const kex::process_failed&) {
        log.fail("replay client: process_failed outside fault injection");
      }
      sched.retire(c);
    });
  }
  // Round-robin, one shared access per grant: the same schedule every run.
  const std::int64_t t0 = now_ns();
  while (!sched.all_done()) {
    for (int c = 0; c < kClients; ++c)
      if (!sched.done(c)) sched.grant(c);
    if (now_ns() - t0 > kReplayLimitNs) {
      std::cerr << "check failed: replay: no completion within "
                << kReplayLimitNs / 1'000'000'000 << " s (deadlock?)\n";
      std::_Exit(1);  // clients are parked mid-protocol; nothing to join
    }
  }
  for (auto& th : threads) th.join();

  replay_run out;
  for (int c = 0; c < kClients; ++c) {
    out.t.add(per_client[static_cast<std::size_t>(c)]);
    const auto& recs = probes[static_cast<std::size_t>(c)]->records();
    out.records.insert(out.records.end(), recs.begin(), recs.end());
  }
  final_checks(st, out.t, log, "replay");
  return out;
}

std::uint64_t part(const rmr_record& r, layer l) {
  return r.part[static_cast<std::size_t>(l)];
}

// Per-request RMR bounds from the paper (runtime/bounds.h).
struct rmr_bounds {
  std::uint64_t table;      // acquire + release
  std::uint64_t wrapper;    // one (N,k)-assignment entry+exit, Theorem 9
  std::uint64_t attach;     // gate + Figure-7 renaming entry at k = N
  std::uint64_t detach;     // renaming exit + gate
};

rmr_bounds bounds_for(const workload_spec& w) {
  rmr_bounds b{};
  if (w.elastic) {
    // A key moving mid-handover is acquired twice (escort + target), each
    // a Theorem-3 acquisition in the table's full pid space (clients plus
    // governors) at the protocol k.
    const auto o = elastic_config();
    b.table = 2 * static_cast<std::uint64_t>(kex::bounds::thm3_cc_fast_high(
                      kCapacity + o.k_max - o.k_min, o.k_max));
  } else {
    b.table = static_cast<std::uint64_t>(
        kex::bounds::thm3_cc_fast_high(kCapacity, kTableK));
  }
  b.wrapper = static_cast<std::uint64_t>(
      kex::bounds::thm9_cc_assignment_low(kCounterK));
  // Theorem 9's renaming term (assignment minus exclusion) at k = N is the
  // registry's rename; the admission gate adds one reference each way.
  const int rename_term = kex::bounds::thm9_cc_assignment_low(kCapacity) -
                          kex::bounds::thm3_cc_fast_low(kCapacity);
  b.attach = static_cast<std::uint64_t>(1 + rename_term);
  b.detach = 2;
  return b;
}

struct rmr_summary {
  double per_req = 0;
  std::uint64_t max_req = 0;
  std::uint64_t acquire_max = 0;
  double attach = 0, acquire = 0, resilient = 0, release = 0, detach = 0;
};

rmr_summary summarize(const workload_spec& w, const replay_run& rp,
                      check_log& log) {
  const rmr_bounds b = bounds_for(w);
  std::uint64_t sum[static_cast<int>(layer::count)] = {};
  std::uint64_t total = 0;
  rmr_summary s;
  auto fail = [&](std::size_t i, const std::string& what,
                  std::uint64_t got, std::uint64_t bound) {
    log.fail("replay request " + std::to_string(i) + ": " + what + " RMRs " +
             std::to_string(got) + " > bound " + std::to_string(bound));
  };
  for (std::size_t i = 0; i < rp.records.size(); ++i) {
    const rmr_record& r = rp.records[i];
    const std::uint64_t tbl = part(r, layer::acquire) + part(r, layer::release);
    const std::uint64_t res = part(r, layer::add) + part(r, layer::read);
    // Every add is one wrapper entry/exit plus one fetch_add on the
    // caller's slot; every read a wrapper entry/exit plus k slot reads.
    const std::uint64_t res_bound =
        static_cast<std::uint64_t>(r.adds) * (b.wrapper + 1) +
        static_cast<std::uint64_t>(r.reads) * (b.wrapper + kCounterK);
    if (tbl > b.table) fail(i, "table (Theorem 3)", tbl, b.table);
    if (res > res_bound) fail(i, "resilient (Theorem 9)", res, res_bound);
    if (part(r, layer::attach) > b.attach)
      fail(i, "attach (Theorem 9 renaming)", part(r, layer::attach), b.attach);
    if (part(r, layer::detach) > b.detach)
      fail(i, "detach", part(r, layer::detach), b.detach);
    const std::uint64_t parts = part(r, layer::attach) +
                                part(r, layer::acquire) + res +
                                part(r, layer::release) +
                                part(r, layer::detach);
    if (parts != r.total)
      log.fail("replay request " + std::to_string(i) +
               ": layer RMRs sum to " + std::to_string(parts) +
               " but the request made " + std::to_string(r.total));
    for (int l = 0; l < static_cast<int>(layer::count); ++l)
      sum[l] += r.part[static_cast<std::size_t>(l)];
    total += r.total;
    s.max_req = std::max(s.max_req, r.total);
    s.acquire_max = std::max(s.acquire_max, part(r, layer::acquire));
  }
  const double n = static_cast<double>(rp.records.size());
  auto avg = [&](layer l) {
    return static_cast<double>(sum[static_cast<int>(l)]) / n;
  };
  s.per_req = static_cast<double>(total) / n;
  s.attach = avg(layer::attach);
  s.acquire = avg(layer::acquire);
  s.resilient = avg(layer::add) + avg(layer::read);
  s.release = avg(layer::release);
  s.detach = avg(layer::detach);
  return s;
}

// --- traced-run analysis ---------------------------------------------------

struct trace_summary {
  std::map<layer, std::vector<std::int64_t>> self_ns;  // per layer
  double unattributed_share = 0;  // request time outside every layer span
};

trace_summary analyze(std::vector<std::vector<span>>& per_thread) {
  trace_summary out;
  std::int64_t request_ns = 0, request_self_ns = 0;
  for (auto& spans : per_thread) {
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i)
      self[i] = spans[i].t1 - spans[i].t0;
    for (const auto& s : spans)
      if (s.parent >= 0)
        self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].what == layer::request) {
        request_ns += spans[i].t1 - spans[i].t0;
        request_self_ns += self[i];
      }
      out.self_ns[spans[i].what].push_back(self[i]);
    }
  }
  out.unattributed_share =
      request_ns == 0 ? 0
                      : static_cast<double>(request_self_ns) /
                            static_cast<double>(request_ns);
  return out;
}

// --- machine fingerprint ---------------------------------------------------

std::string json_escape(const std::string& s) {
  std::string o;
  for (char ch : s) {
    if (ch == '"' || ch == '\\') o.push_back('\\');
    if (static_cast<unsigned char>(ch) >= 0x20) o.push_back(ch);
  }
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  return "unknown";
}

std::string fingerprint() {
  std::ostringstream os;
  os << "{\"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu_model\": \"" << json_escape(cpu_model())
     << "\", \"compiler\": \"" << json_escape("gcc " __VERSION__)
     << "\", \"flags\": \"" << json_escape(SVCBENCH_CXX_FLAGS)
     << "\", \"build_type\": \"" << SVCBENCH_BUILD_TYPE
     << "\", \"pin\": \"" << kex::to_string(kPin)
     << "\", \"wait\": \"" << kex::to_string(kex::global_wait_policy().mode)
     << "\", \"clients\": " << kClients << "}";
  return os.str();
}

// Timings from an unoptimised or instrumented build measure the build,
// not the service.
bool timing_build() {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return false;
#else
  return std::string(SVCBENCH_CXX_FLAGS).find("-fsanitize") ==
         std::string::npos;
#endif
}

// The process's own high-water mark.  getrusage's ru_maxrss would do, but
// Linux carries it across exec, so a child of a larger parent (the python
// wrapper) would report the parent's peak.
double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::stod(line.substr(6)) / 1024.0;  // the line is in kB
  return 0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string format_number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
};

bool parse(int argc, char** argv, options& o) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    try {
      if (flag == "--workload") o.workload = value;
      else if (flag == "--seed") o.seed = std::stoull(value);
      else if (flag == "--seconds") o.seconds = std::stod(value);
      else if (flag == "--trace") o.trace = value == "1";
      else return false;
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !o.workload.empty() && o.seconds > 0;
}

int run(int argc, char** argv) {
  options opt;
  if (!parse(argc, argv, opt)) {
    std::cerr << "usage: svcbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1>\n";
    return 2;
  }
  const workload_spec* w = find_workload(opt.workload);
  if (w == nullptr) {
    std::cerr << "unknown workload '" << opt.workload << "'\n";
    return 2;
  }
  if (!timing_build()) {
    std::cerr << "refusing to report timings from a debug or sanitizer "
                 "build\n";
    return 2;
  }

  kex::wait_policy policy;
  policy.mode = kWait;
  kex::set_wait_policy(policy);
  std::cout << "fingerprint: " << fingerprint() << "\n";

  check_log log;
  const real_run timed = run_real<no_probe>(
      *w, opt.seed, opt.seconds, 0, opt.trace ? 1 : kSetupReps, log,
      [](int) { return no_probe{}; });
  const replay_run rp = run_replay(*w, log);
  const rmr_summary rmr = summarize(*w, rp, log);
  std::uint64_t attempted = timed.t.requests + rp.t.requests;
  const double req_per_s = median(timed.window_rates);

  std::vector<metric> metrics;
  if (!opt.trace) {
    metrics = {
        {"req_per_s", req_per_s, "1/s"},
        {"req_p50_us", timed.latency.percentile(50) / 1e3, "us"},
        {"req_p99_us", timed.latency.percentile(99) / 1e3, "us"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        {"setup_s", median(timed.setup_s), "s"},
        {"rmr_per_req", rmr.per_req, "count"},
        {"rmr_max_req", static_cast<double>(rmr.max_req), "count"},
    };
  } else {
    // The traced run and its untraced twin serve the same fixed number of
    // requests on a fresh stack, so the rate ratio is the tracing overhead
    // alone.
    const auto trace_requests =
        static_cast<std::uint64_t>(w->trace_requests);
    const real_run twin = run_real<no_probe>(
        *w, opt.seed, 0, trace_requests, 1, log,
        [](int) { return no_probe{}; });
    real_run traced = run_real<span_probe>(
        *w, opt.seed, 0, trace_requests, 1, log, [&](int c) {
          return span_probe(c, static_cast<std::size_t>(trace_requests) * 8 +
                                   1024);
        });
    attempted += twin.t.requests + traced.t.requests;
    trace_summary ts = analyze(traced.spans);
    auto p = [&](layer l, double q, double scale) {
      return exact_percentile(ts.self_ns[l], q) / scale;
    };
    const double traced_rate =
        static_cast<double>(traced.t.requests) / traced.wall_s;
    const layer_counts& c = timed.counts;
    metrics = {
        {"registry.attach_ns_p50", p(layer::attach, 50, 1), "ns"},
        {"registry.detach_ns_p50", p(layer::detach, 50, 1), "ns"},
        {"table.acquire_ns_p50", p(layer::acquire, 50, 1), "ns"},
        {"table.acquire_ns_p99", p(layer::acquire, 99, 1), "ns"},
        {"table.release_ns_p50", p(layer::release, 50, 1), "ns"},
        {"elastic.maintenance_us_p50", p(layer::maintenance, 50, 1e3), "us"},
        {"resilient.add_ns_p50", p(layer::add, 50, 1), "ns"},
        {"resilient.read_ns_p50", p(layer::read, 50, 1), "ns"},
        {"table.fast_hit_share", c.fast_hit_share, "ratio"},
        {"table.imbalance", c.imbalance, "ratio"},
        {"elastic.handovers", static_cast<double>(c.handovers), "count"},
        {"elastic.k_steps", static_cast<double>(c.k_steps), "count"},
        {"elastic.active_shards", static_cast<double>(c.active_shards),
         "count"},
        {"registry.attaches", static_cast<double>(c.registry_attaches),
         "count"},
        {"rmr.attach", rmr.attach, "count"},
        {"rmr.acquire", rmr.acquire, "count"},
        {"rmr.resilient", rmr.resilient, "count"},
        {"rmr.release", rmr.release, "count"},
        {"rmr.detach", rmr.detach, "count"},
        {"rmr.acquire_max", static_cast<double>(rmr.acquire_max), "count"},
        {"trace.req_per_s", traced_rate, "1/s"},
        {"trace.overhead_share",
         1.0 - traced_rate * twin.wall_s / static_cast<double>(twin.t.requests),
         "ratio"},
        {"trace.unattributed_share", ts.unattributed_share, "ratio"},
    };
  }

  for (const auto& m : metrics)
    std::cout << "metric " << m.name << " = " << format_number(m.value) << ' '
              << m.unit << "\n";
  const bool correct = !log.failed.load();
  if (!correct) std::cerr << "check failed: " << log.first << "\n";
  std::ostringstream js;
  js << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": 0, \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i)
    js << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": "
       << format_number(metrics[i].value) << ", \"unit\": \""
       << metrics[i].unit << "\"}";
  js << "}}";
  std::cout << js.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace svcbench

int main(int argc, char** argv) { return svcbench::run(argc, argv); }
