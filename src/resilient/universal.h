// A wait-free universal construction for k processes (Herlihy), the
// generic "wait-free core" of the paper's resiliency methodology.
//
// The paper (Section 5) observes that basing the methodology on universal
// wait-free constructions yields a generic approach to shared-object design
// in which resiliency is tuned to performance demands.  This is that
// component: given any sequential object (State, an apply function, and an
// operation type), `universal` provides a linearizable, wait-free,
// k-process concurrent version.  Wrapped in (N,k)-assignment (see
// resilient.h) it becomes a (k-1)-resilient N-process object.
//
// Construction (Herlihy's wait-free universal construction, in the form of
// Herlihy & Shavit ch. 6, adapted to reusable names): operations form a
// log.  A process announces its operation under its current name in
// 0..k-1, then repeatedly helps extend the log: it picks the announced
// operation whose name equals (head sequence + 1) mod k if one is pending
// (round-robin helping — this is what makes the construction wait-free
// rather than merely lock-free), otherwise its own, and runs consensus on
// the current head's `decide_next` field (a compare-and-swap from null).
// Whoever's operation wins is appended; every helper then computes the
// resulting state (deterministically, so all computed values agree),
// publishes it with a second CAS, stamps the node's sequence number, and
// advances its own head pointer.
//
// Names may be held by different physical processes over time: helping is
// keyed by *name*, allocation by *process id* (per-process arenas, see
// arena.h), and all shared fields are platform variables, so the RMR
// accounting and failure injection of the simulated platform reach inside
// the construction.
#pragma once

#include <functional>
#include <vector>

#include "common/cacheline.h"
#include "common/check.h"
#include "platform/platform.h"
#include "resilient/arena.h"

namespace kex {

// State: copyable sequential-object state.
// Op:    trivially copyable description of one operation.
// Ret:   operation result type.
template <Platform P, class State, class Op, class Ret>
class universal {
  using proc = typename P::proc;
  template <class T>
  using var = typename P::template var<T>;

  struct computed {
    State state;
    Ret result{};
    computed(State s, Ret r) : state(std::move(s)), result(std::move(r)) {}
    explicit computed(State s) : state(std::move(s)) {}
  };

  struct node {
    Op op{};
    var<node*> decide_next{nullptr};  // consensus object: successor
    var<long> seq{0};                 // 0 = not yet appended
    var<computed*> out{nullptr};      // state after this op + its result
  };

 public:
  using apply_fn = std::function<Ret(State&, const Op&)>;

  // k: max concurrent sessions (names 0..k-1).  pid_space: bound on the
  // physical process ids that may operate the object.  `apply` must be
  // deterministic and thread-safe (it is called concurrently by helpers on
  // private copies of the state).
  universal(int k, int pid_space, State initial, apply_fn apply)
      : k_(k),
        apply_(std::move(apply)),
        nodes_(pid_space),
        results_(pid_space),
        announce_(static_cast<std::size_t>(k)),
        head_(static_cast<std::size_t>(k)) {
    KEX_CHECK_MSG(k >= 1 && pid_space >= 1, "universal: bad parameters");
    tail_ = std::make_unique<node>();
    tail_root_ = std::make_unique<computed>(std::move(initial));
    // The tail is pre-appended with sequence 1 and carries the initial
    // state; every head pointer starts there.  (Platform writes need a
    // proc; initialization happens before publication, so direct stores
    // through a scratch proc are fine.)
    typename P::proc boot{0};
    tail_->seq.write(boot, 1);
    tail_->out.write(boot, tail_root_.get());
    for (auto& h : head_) h.value.write(boot, tail_.get());
    for (auto& a : announce_) a.value.write(boot, nullptr);
  }

  // Apply `op` while holding `name` (unique among concurrent sessions).
  Ret apply(proc& p, int name, const Op& op) {
    KEX_CHECK_MSG(name >= 0 && name < k_, "universal: bad name");
    node* mine = nodes_.alloc(p.id);
    mine->op = op;
    announce_[static_cast<std::size_t>(name)].value.write(p, mine);

    // kex-lint: allow(raw-spin): lock-free helping loop — every
    // iteration CASes another operation forward, it never waits in place
    while (mine->seq.read(p) == 0) {
      node* before = max_head(p);
      // Helpers may have appended `mine` and grown the log past it since
      // the loop test.  Every node up to `before` has its seq stamped
      // before `before` is published, so this re-test sees such an
      // append; proposing `mine` again would close the log into a cycle.
      if (mine->seq.read(p) != 0) break;
      long before_seq = before->seq.read(p);
      // Round-robin helping: give priority to the name whose turn it is.
      node* help =
          announce_[static_cast<std::size_t>((before_seq + 1) % k_)]
              .value.read(p);
      node* prefer =
          (help != nullptr && help->seq.read(p) == 0) ? help : mine;

      before->decide_next.compare_exchange(p, nullptr, prefer);
      node* after = before->decide_next.read(p);

      // Every helper computes the post-state of `after` (deterministic
      // apply => all agree); the first publication wins.
      computed* base = before->out.read(p);
      computed* fresh = results_.alloc(p.id, base->state);
      fresh->result = apply_(fresh->state, after->op);
      after->out.compare_exchange(p, nullptr, fresh);
      after->seq.write(p, before_seq + 1);
      head_[static_cast<std::size_t>(name)].value.write(p, after);
    }
    return mine->out.read(p)->result;
  }

  // A linearizable read of the current state (applies no operation): the
  // state recorded at the maximal appended node.
  State snapshot(proc& p) {
    node* h = max_head(p);
    // Follow any already-decided successors so the read is current.
    for (;;) {
      node* nx = h->decide_next.read(p);
      if (nx == nullptr || nx->seq.read(p) == 0) break;
      h = nx;
    }
    return h->out.read(p)->state;
  }

  int k() const { return k_; }
  long log_length(proc& p) { return max_head(p)->seq.read(p); }

  // Nodes reachable from the tail through decided successors, counting
  // the tail and stopping at `limit`.  A well-formed log is a chain, so
  // once every apply has returned this equals log_length(); a node
  // appended twice closes a cycle and the walk runs into `limit`.
  long chain_length(proc& p, long limit) {
    long len = 0;
    for (node* x = tail_.get(); x != nullptr && len < limit;
         x = x->decide_next.read(p))
      ++len;
    return len;
  }

 private:
  node* max_head(proc& p) {
    node* best = tail_.get();
    long best_seq = 1;
    for (auto& h : head_) {
      node* cand = h.value.read(p);
      long s = cand->seq.read(p);
      if (s > best_seq) {
        best_seq = s;
        best = cand;
      }
    }
    return best;
  }

  int k_;
  apply_fn apply_;
  pid_arena<node> nodes_;
  pid_arena<computed> results_;
  std::unique_ptr<node> tail_;
  std::unique_ptr<computed> tail_root_;
  std::vector<padded<var<node*>>> announce_;  // per name
  std::vector<padded<var<node*>>> head_;      // per name
};

}  // namespace kex
