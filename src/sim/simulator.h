// The discrete-event simulator: a clock plus a pending-event set.
//
// Components hold a Simulator& and schedule callbacks with at()/after().
// A run is fully deterministic given the scheduled events and RNG seeds.
//
// Periodic timers get a dedicated fast lane: a repeating tick is a pair of
// fields (next fire time, insertion seq) the run loop merges against the
// event heap, instead of a heap push + pop + two callback relocations per
// period. The lane draws its seq from the same counter the heap uses, at
// the same instant a pushed tick would have consumed it, so the merge
// order is exactly the order the heap-based implementation produced —
// sub-microsecond cadences (the memory controller ticks every 100ns) stop
// dominating the event core without perturbing any schedule.
//
// A lane whose owner has nothing to do can be marked idle: its ticks still
// fire in the same order and draw the same seqs, but only count themselves
// (idle_ticks) instead of invoking the callback. When only idle lanes of
// one period fire before the next heap event or busy lane, the run loop
// fires whole rotations of them in one step (fire_idle_lanes).
#pragma once

#include <algorithm>
#include <cassert>
#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.h"
#include "sim/time.h"

namespace hostcc::sim {

// Lane record for one repeating timer. Owned by its PeriodicTimer (whose
// address is stable: the timer is non-movable); the Simulator keeps only a
// pointer. next == Time::max() means "no tick armed" (stopped, or the
// tick currently executing has not re-armed yet).
struct PeriodicLane {
  Time next = Time::max();
  std::uint64_t seq = 0;
  Time period;
  Time armed_at;
  EventFn fn;
  bool active = false;
  bool idle = false;            // ticks count themselves instead of calling fn
  std::uint64_t idle_ticks = 0;  // cumulative ticks fired while idle
};

class Simulator {
 public:
  Time now() const { return now_; }

  // Schedules `fn` at absolute time `when` (must not be in the past).
  EventHandle at(Time when, EventFn fn) {
    assert(when >= now_ && "cannot schedule into the past");
    return queue_.push(when, std::move(fn));
  }

  // Schedules `fn` after a relative delay.
  EventHandle after(Time delay, EventFn fn) { return at(now_ + delay, std::move(fn)); }

  // Runs events until the queue is empty or the clock would pass `deadline`.
  // The clock is left at min(deadline, time of last event).
  void run_until(Time deadline) {
    for (;;) {
      const Time qt = queue_.next_time();  // Time::max() when empty
      PeriodicLane* const lane = next_lane_;
      const bool fire_lane =
          lane != nullptr && lane->next <= deadline &&
          (lane->next < qt || (lane->next == qt && lane->seq < queue_.top_seq()));
      if (fire_lane) {
        if (lane->idle) [[unlikely]] {
          fire_idle_lanes(deadline, qt);
          continue;
        }
        now_ = lane->next;
        ++events_executed_;
        lane->next = Time::max();  // in-tick marker; stop()/set_period() see "not armed"
        lane->fn();
        if (lane->active && lane->next == Time::max()) {
          lane->armed_at = now_;
          lane->next = now_ + lane->period;
          lane->seq = queue_.take_seq();
        }
        refresh_next_lane();
      } else if (!queue_.empty() && qt <= deadline) {
        now_ = qt;
        ++events_executed_;
        queue_.pop_top_and_run();
      } else {
        break;
      }
    }
    if (now_ < deadline) now_ = deadline;
  }

  // Runs until no events remain.
  void run() { run_until(Time::max()); }

  bool idle() const { return queue_.empty() && next_lane_ == nullptr; }
  std::uint64_t events_executed() const { return events_executed_; }
  // Live (non-cancelled) events pending in the heap; periodic lanes are
  // not counted. Feeds the profiler's queue-depth timeline.
  std::size_t pending_events() const { return queue_.size(); }

  // --- periodic-lane registry (used by PeriodicTimer) ---

  void register_lane(PeriodicLane* lane) {
    lanes_.push_back(lane);
    refresh_next_lane();
  }

  void unregister_lane(PeriodicLane* lane) {
    for (std::size_t i = 0; i < lanes_.size(); ++i) {
      if (lanes_[i] == lane) {
        lanes_[i] = lanes_.back();
        lanes_.pop_back();
        break;
      }
    }
    refresh_next_lane();
  }

  // Must be called after any mutation of a registered lane's fields.
  void lane_updated() { refresh_next_lane(); }

  std::uint64_t take_seq() { return queue_.take_seq(); }

 private:
  // Fires the earliest lane, which is idle. If it is due again before the
  // heap top, fires every tick of the idle lanes of its period that comes
  // strictly before the heap top, before every other armed lane and no
  // later than `deadline`, in one step. Nothing else runs in that span, so
  // the ticks fire in a fixed rotation: sorted by (next, seq), each lane
  // fires and re-arms behind all the others (every armed next lies within
  // one period of the earliest). Tick j of the span is therefore lane
  // j % L of the sorted order, `j / L` periods on, and draws seq base + j:
  // the clock, seqs, event count and per-lane state end up exactly as
  // firing the ticks one by one would leave them. Out of line, so the run
  // loop stays small.
  [[gnu::noinline]] void fire_idle_lanes(Time deadline, Time qt) {
    PeriodicLane* const head = next_lane_;
    const Time period = head->period;
    if (head->next + period < qt && head->next + period <= deadline) {
      // Ticks at or after `limit` are left to the one-by-one path.
      Time limit = deadline == Time::max() ? qt : std::min(qt, deadline + Time::picoseconds(1));
      idle_group_.clear();
      for (PeriodicLane* l : lanes_) {
        if (!l->active || l->next == Time::max()) continue;
        if (l->idle && l->period == period) {
          idle_group_.push_back(l);
        } else {
          limit = std::min(limit, l->next);
        }
      }
      std::sort(idle_group_.begin(), idle_group_.end(),
                [](const PeriodicLane* a, const PeriodicLane* b) {
                  return a->next < b->next || (a->next == b->next && a->seq < b->seq);
                });
      const std::uint64_t n_lanes = idle_group_.size();
      std::uint64_t fired = 0;
      for (const PeriodicLane* l : idle_group_) {
        if (l->next < limit) {
          fired += static_cast<std::uint64_t>((limit - l->next).ps() - 1) /
                       static_cast<std::uint64_t>(period.ps()) +
                   1;
        }
      }
      if (fired > 1) {
        const std::uint64_t base = queue_.take_seqs(fired);
        for (std::uint64_t i = 0; i < n_lanes && i < fired; ++i) {
          PeriodicLane* l = idle_group_[i];
          // Ticks i, i + L, i + 2L, ... of the span belong to lane i.
          const std::uint64_t count = (fired - i + n_lanes - 1) / n_lanes;
          const std::uint64_t last = i + (count - 1) * n_lanes;
          l->idle_ticks += count;
          l->armed_at =
              l->next + Time::picoseconds(period.ps() * static_cast<std::int64_t>(count - 1));
          l->next = l->armed_at + period;
          l->seq = base + last;
        }
        const std::uint64_t final_tick = fired - 1;
        now_ = idle_group_[final_tick % n_lanes]->armed_at;
        events_executed_ += fired;
        refresh_next_lane();
        return;
      }
    }
    now_ = head->next;
    ++events_executed_;
    ++head->idle_ticks;
    head->armed_at = now_;
    head->next = now_ + period;
    head->seq = queue_.take_seq();
    refresh_next_lane();
  }

  // Caches the earliest armed lane so the run loop pays one comparison per
  // event, not a scan. Lanes are few (one per PeriodicTimer) and mutate
  // rarely relative to event dispatch. Forced inline: it runs after every
  // lane tick, and with several callers the compiler stops inlining it.
  [[gnu::always_inline]] void refresh_next_lane() {
    next_lane_ = nullptr;
    for (PeriodicLane* l : lanes_) {
      if (!l->active || l->next == Time::max()) continue;
      if (next_lane_ == nullptr || l->next < next_lane_->next ||
          (l->next == next_lane_->next && l->seq < next_lane_->seq)) {
        next_lane_ = l;
      }
    }
  }

  Time now_ = Time::zero();
  EventQueue queue_;
  std::uint64_t events_executed_ = 0;
  std::vector<PeriodicLane*> lanes_;
  PeriodicLane* next_lane_ = nullptr;
  std::vector<PeriodicLane*> idle_group_;  // scratch for fire_idle_lanes
};

// A repeating timer: fires `fn` every `period` until stopped or destroyed.
// Backed by a Simulator periodic lane, so a tick costs no heap traffic.
class PeriodicTimer {
 public:
  PeriodicTimer(Simulator& sim, Time period, EventFn fn) : sim_(sim) {
    lane_.period = period;
    lane_.fn = std::move(fn);
    sim_.register_lane(&lane_);
  }
  ~PeriodicTimer() {
    stop();
    sim_.unregister_lane(&lane_);
  }

  PeriodicTimer(const PeriodicTimer&) = delete;
  PeriodicTimer& operator=(const PeriodicTimer&) = delete;

  void start() {
    if (lane_.active) return;
    lane_.active = true;
    lane_.armed_at = sim_.now();
    lane_.next = sim_.now() + lane_.period;
    lane_.seq = sim_.take_seq();
    sim_.lane_updated();
  }

  void stop() {
    lane_.active = false;
    lane_.next = Time::max();
    sim_.lane_updated();
  }

  bool running() const { return lane_.active; }
  Time period() const { return lane_.period; }

  // Idle mode: ticks keep their schedule but only count themselves; the
  // callback is not invoked until set_idle(false).
  void set_idle(bool on) { lane_.idle = on; }
  bool idle() const { return lane_.idle; }
  // Ticks fired while idle, cumulative over the timer's life.
  std::uint64_t idle_ticks() const { return lane_.idle_ticks; }

  // Changes the period, re-arming the in-flight tick so the new cadence
  // takes effect immediately: the next tick fires at (last arm time + new
  // period), or right away if that instant has already passed. The hostCC
  // sampler's cadence adjustments rely on not waiting out the old period.
  void set_period(Time period) {
    if (period == lane_.period) return;
    lane_.period = period;
    if (lane_.active && lane_.next != Time::max()) {
      const Time due = lane_.armed_at + period;
      lane_.next = due > sim_.now() ? due : sim_.now();
      lane_.seq = sim_.take_seq();
      sim_.lane_updated();
    }
  }

 private:
  Simulator& sim_;
  PeriodicLane lane_;
};

}  // namespace hostcc::sim
