// The service stack under test and the one request path every part of the
// benchmark drives through it.
//
// A request is what a client of the service does: (attach) -> acquire the
// key's lock -> critical section (resilient counter add/read) -> release
// -> (detach).  Only the public API is called.  The `Probe` parameter
// brackets each public call; the timed run passes a probe that compiles
// away, the traced run one that records spans, the replay one that reads
// RMR counters.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/cacheline.h"
#include "platform/platform.h"
#include "resilient/resilient.h"
#include "service/elastic_lock_table.h"
#include "service/lock_table.h"
#include "service/session_registry.h"
#include "workload.h"

namespace svcbench {

enum class layer : int {
  attach,
  acquire,
  cs,
  add,
  read,
  release,
  detach,
  maintenance,
  request,  // the whole request: the root span the others nest in
  count
};

// The elastic table's configuration on hot_shift.  k steps up on the shard
// holding the hot keys (hot_shift's critical sections do work, so holders
// queue there) and back down to k_base once the heat moves.  k_min stays
// at k_base: with k_min = 1 every cold shard drops to k = 1, the moving
// hot set keeps landing on such a shard, and the request rate swings
// between 1.1 and 2.2 M/s from one run to the next.
inline kex::elastic_options elastic_config() {
  kex::elastic_options o;
  o.algorithm = "cc_fast";
  o.initial_shards = 4;
  o.max_shards = 16;
  o.min_shards = 2;
  o.k_min = 2;
  o.k_base = 2;
  o.k_max = 4;
  o.adaptive = true;
  o.resharding = true;
  return o;
}

// Set when any output check fails; the first message wins.
struct check_log {
  std::atomic<bool> failed{false};
  std::string first;  // written once, by whoever flips `failed`

  void fail(const std::string& what) {
    bool expected = false;
    if (failed.compare_exchange_strong(expected, true)) first = what;
  }
};

template <kex::Platform P>
struct service_stack {
  const workload_spec& w;
  check_log& checks;
  kex::session_registry<P> registry;
  std::unique_ptr<kex::lock_table<P>> table;
  std::unique_ptr<kex::elastic_lock_table<P>> elastic;
  std::unique_ptr<kex::resilient_counter<P>> counter;
  // The benchmark's own holder count, kept apart from the table's stats:
  // per shard for the static table, per key for the elastic one (its
  // shard of a key can change mid-handover; every holder of a key shares
  // one kex instance at every instant, so <= k holds per key).
  std::vector<kex::padded<std::atomic<int>>> holders;
  int holder_limit;

  service_stack(const workload_spec& spec, check_log& log, kex::cost_model m)
      : w(spec), checks(log), registry(kCapacity, m) {
    if (w.elastic) {
      elastic = std::make_unique<kex::elastic_lock_table<P>>(
          kCapacity, elastic_config(), m);
      holders = std::vector<kex::padded<std::atomic<int>>>(kKeys);
      holder_limit = elastic_config().k_max;
    } else {
      table = std::make_unique<kex::lock_table<P>>(kShards, "cc_fast",
                                                   kCapacity, kTableK);
      holders = std::vector<kex::padded<std::atomic<int>>>(kShards);
      holder_limit = kTableK;
    }
    if (w.churn)
      counter = std::make_unique<kex::resilient_counter<P>>(kCapacity,
                                                            kCounterK);
  }

  std::size_t holder_slot(std::uint64_t key) const {
    return static_cast<std::size_t>(elastic ? key : table->shard_of(key));
  }
};

template <kex::Platform P>
struct client_state {
  request_stream gen;
  typename kex::session_registry<P>::session session;
  std::uint64_t requests = 0;
  std::uint64_t attaches = 0;
  long added = 0;  // sum of this client's completed counter adds
  std::uint64_t work = 0;

  client_state(const workload_spec& w, std::uint64_t seed, int client)
      : gen(w, seed, client) {}
};

// Attach through the registry; the probe may arm the fresh proc (the
// replay installs its step gate there, before attach touches memory).
template <kex::Platform P, class Probe>
void attach(service_stack<P>& st, client_state<P>& cl, Probe& pr) {
  cl.session = st.registry.attach([&](typename P::proc& p) { pr.arm(p); });
  ++cl.attaches;
}

template <kex::Platform P, class Probe>
void run_request(service_stack<P>& st, client_state<P>& cl,
                 const request& rq, Probe& pr) {
  using proc = typename P::proc;
  pr.begin_request(rq.attach ? nullptr : &cl.session.context());
  if (rq.attach) {
    pr.begin(layer::attach, static_cast<proc*>(nullptr));
    attach(st, cl, pr);
    pr.end(layer::attach, &cl.session.context());
  }
  proc& p = cl.session.context();

  auto locked = [&](auto& table) {
    pr.begin(layer::acquire, &p);
    auto g = table.acquire(p, rq.key);
    pr.end(layer::acquire, &p);

    pr.begin(layer::cs, &p);
    auto& h = st.holders[st.holder_slot(rq.key)].value;
    if (h.fetch_add(1, std::memory_order_acq_rel) + 1 > st.holder_limit)
      st.checks.fail("holder count: more than k holders inside one " +
                     std::string(st.elastic ? "key" : "shard"));
    cl.work = hold_work(cl.work ^ rq.key, st.w.cs_work);
    if (rq.add != 0) {
      pr.begin(layer::add, &p);
      st.counter->add(p, rq.add);
      pr.end(layer::add, &p);
      cl.added += rq.add;
    }
    if (rq.read) {
      pr.begin(layer::read, &p);
      const long v = st.counter->read(p);
      pr.end(layer::read, &p);
      // Linearizability implies a read sees at least this client's own
      // completed adds.
      if (v < cl.added)
        st.checks.fail("counter read: below the reader's own adds");
    }
    h.fetch_sub(1, std::memory_order_acq_rel);
    pr.end(layer::cs, &p);

    pr.begin(layer::release, &p);
    g.release();
    pr.end(layer::release, &p);
  };
  if (st.elastic)
    locked(*st.elastic);
  else
    locked(*st.table);

  if (rq.detach) {
    pr.begin(layer::detach, &p);
    cl.session.detach();
    pr.end(layer::detach, &p);
  }
  pr.end_request(&p);
  ++cl.requests;
}

// Client 0 runs the elastic table's maintenance inline, on a request-count
// cadence, so the controller sees the same request mix every run.
template <kex::Platform P, class Probe>
void maybe_maintain(service_stack<P>& st, client_state<P>& cl, int client,
                    Probe& pr) {
  if (client != 0 || st.w.maint_every == 0 ||
      cl.requests % static_cast<std::uint64_t>(st.w.maint_every) != 0)
    return;
  pr.begin(layer::maintenance,
           static_cast<typename P::proc*>(nullptr));
  st.elastic->maintenance();
  pr.end(layer::maintenance, static_cast<typename P::proc*>(nullptr));
}

// A probe that records nothing: the timed run's.
struct no_probe {
  template <class Pr>
  void arm(Pr&) {}
  template <class Pr>
  void begin_request(Pr*) {}
  template <class Pr>
  void end_request(Pr*) {}
  template <class Pr>
  void begin(layer, Pr*) {}
  template <class Pr>
  void end(layer, Pr*) {}
};

}  // namespace svcbench
