// Per-shard contention controller: decides when a shard's effective k
// steps up or down, and when the table should split or merge shards.
//
// The paper's Theorems 4/8 price an acquisition at ⌈c/k⌉(7k+2) remote
// references — "k grows with contention c" is exactly the knob a service
// should turn.  This controller reads the signals the lock table already
// collects (fast-path hit rate, occupancy high water, abandon rate) on
// decayed windows (runtime/decay_counter.h) and emits pure decisions; the
// elastic table applies them on epoch boundaries by parking/releasing
// governor holders (the detain_slot re-dress) and by publishing directory
// resizes.  Nothing here touches shared protocol state: the controller is
// single-threaded maintenance code fed with per-shard stats samples
// (service/shard_counters.h), which is how adaptation stays off the acquire path entirely.
//
// Hysteresis: every step requires `hysteresis_ticks` consecutive ticks of
// the same signal, and resizes are additionally rate-limited, so a noisy
// window cannot thrash k or the shard set.
#pragma once

#include <cstdint>
#include <vector>

#include "common/check.h"
#include "runtime/decay_counter.h"
#include "service/shard_directory.h"

namespace kex {

struct adaptive_k_options {
  double alpha = 0.5;  // decay weight for all windows

  // Step k up when the decayed fast-hit share (acquires that found the
  // shard otherwise empty) sags below this — holders are queuing — or
  // when the decayed abandon share (aborts + timeouts per attempt)
  // exceeds the abandon threshold, or when the occupancy high water
  // saturates the current effective k.
  double promote_fast_hit_below = 0.55;
  double promote_abandon_above = 0.05;

  // Step k down when the shard is comfortably idle: fast-hit share above
  // this AND the decayed occupancy high water below half the effective k.
  double demote_fast_hit_above = 0.90;
  double demote_occupancy_share_below = 0.5;

  // Consecutive ticks of the same verdict before a step is emitted.
  int hysteresis_ticks = 2;

  // Shards seeing fewer than this many acquires per tick carry no signal:
  // they hold (and decay their streaks) rather than step on noise.
  double min_acquires_per_tick = 4.0;

  // Table-level resharding: split when the decayed acquire-rate imbalance
  // (max shard over mean) exceeds this; merge the coldest shard when its
  // share of the mean falls below merge_share_below.  Both wait out
  // min_ticks_between_resize after any resize (and any in-flight
  // handover) before acting again.
  double split_imbalance_above = 1.75;
  double merge_share_below = 0.20;
  int min_ticks_between_resize = 4;
};

enum class k_step : std::uint8_t { hold, up, down };

struct resize_decision {
  enum class kind : std::uint8_t { none, split, merge };
  kind action = kind::none;
  int merge_slot = -1;  // slot to deactivate when action == merge
};

// One tick's sample of a shard, read through shard_counters::sample
// (fast_hits <= acquires, occupancy <= max_occupancy).  Counters are
// lifetime totals; the controller differentiates them into decayed rates
// itself.
struct shard_sample {
  std::uint64_t acquires = 0;
  std::uint64_t fast_hits = 0;
  std::uint64_t aborts = 0;
  std::uint64_t timeouts = 0;
  int max_occupancy = 0;  // lifetime high water (reset not required)
  int occupancy = 0;
  int effective_k = 1;
};

class contention_controller {
 public:
  contention_controller(int max_slots, adaptive_k_options opts = {})
      : opts_(opts), slots_(static_cast<std::size_t>(max_slots), slot_state(opts)) {
    KEX_CHECK_MSG(max_slots >= 1 &&
                      max_slots <= shard_directory_max_slots,
                  "contention_controller: bad slot count");
  }

  const adaptive_k_options& options() const { return opts_; }

  // Feed one maintenance tick for `slot` and get its k verdict.  Call
  // once per active slot per tick, then tick_table() once.
  k_step tick_slot(int slot, const shard_sample& s) {
    auto& st = slots_[static_cast<std::size_t>(slot)];
    st.acq.tick(s.acquires);
    st.fast.tick(s.fast_hits);
    st.abandon.tick(s.aborts + s.timeouts);
    st.occ.observe(static_cast<double>(s.occupancy));

    const double acq_rate = st.acq.per_tick();
    if (acq_rate < opts_.min_acquires_per_tick) {
      // No signal: relax both streaks toward neutral.
      if (st.up_streak > 0) --st.up_streak;
      if (st.down_streak > 0) --st.down_streak;
      return k_step::hold;
    }

    const double fast_share = st.fast.per_tick() / acq_rate;
    const double abandon_share =
        st.abandon.per_tick() /
        (acq_rate + st.abandon.per_tick());
    const double occ_hw = st.occ.value();
    const double ek = static_cast<double>(s.effective_k);

    const bool pressure = fast_share < opts_.promote_fast_hit_below ||
                          abandon_share > opts_.promote_abandon_above ||
                          occ_hw >= ek - 0.5;
    const bool relief =
        fast_share > opts_.demote_fast_hit_above &&
        occ_hw < opts_.demote_occupancy_share_below * ek;

    if (pressure) {
      st.down_streak = 0;
      if (++st.up_streak >= opts_.hysteresis_ticks) {
        st.up_streak = 0;
        return k_step::up;
      }
    } else if (relief) {
      st.up_streak = 0;
      if (++st.down_streak >= opts_.hysteresis_ticks) {
        st.down_streak = 0;
        return k_step::down;
      }
    } else {
      st.up_streak = 0;
      st.down_streak = 0;
    }
    return k_step::hold;
  }

  // Table-level verdict for this tick, over the active set just ticked.
  // `resize_possible` is false while a handover is still draining (or at
  // the slot-count limits); the cooldown still advances so a long drain
  // does not bank up an immediate resize burst.
  resize_decision tick_table(std::uint64_t active, bool resize_possible) {
    ++ticks_since_resize_;
    resize_decision out;
    if (!resize_possible ||
        ticks_since_resize_ < opts_.min_ticks_between_resize) {
      return out;
    }

    double sum = 0.0, max_rate = 0.0, min_rate = 0.0;
    int count = 0, min_slot = -1;
    std::uint64_t bits = active;
    while (bits != 0) {
      const int slot = __builtin_ctzll(bits);
      bits &= bits - 1;
      const double r = slots_[static_cast<std::size_t>(slot)].acq.per_tick();
      sum += r;
      ++count;
      if (r > max_rate) max_rate = r;
      if (min_slot < 0 || r < min_rate) {
        min_rate = r;
        min_slot = slot;
      }
    }
    if (count == 0) return out;
    const double mean = sum / count;
    if (mean < opts_.min_acquires_per_tick) return out;

    if (max_rate > opts_.split_imbalance_above * mean) {
      out.action = resize_decision::kind::split;
      ticks_since_resize_ = 0;
    } else if (count > 1 && min_rate < opts_.merge_share_below * mean) {
      out.action = resize_decision::kind::merge;
      out.merge_slot = min_slot;
      ticks_since_resize_ = 0;
    }
    return out;
  }

  // Decayed acquire rate of one slot (diagnostics, tests).
  double acquire_rate(int slot) const {
    return slots_[static_cast<std::size_t>(slot)].acq.per_tick();
  }

 private:
  struct slot_state {
    decay_rate acq, fast, abandon;
    decay_window occ;
    int up_streak = 0, down_streak = 0;
    explicit slot_state(const adaptive_k_options& o)
        : acq(o.alpha), fast(o.alpha), abandon(o.alpha), occ(o.alpha) {}
  };

  adaptive_k_options opts_;
  std::vector<slot_state> slots_;
  int ticks_since_resize_ = 0;
};

}  // namespace kex
