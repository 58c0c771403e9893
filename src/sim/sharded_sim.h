// ShardedSimulator: runs one logical simulation as N per-cell event loops
// (sim::Simulator instances) advancing in lockstep under a conservative
// lookahead window L. Time is divided into the absolute epoch grid
// [k*L, (k+1)*L); within an epoch every cell runs independently (its
// inbound cross-cell traffic for the epoch was fully published before the
// epoch began), and a barrier separates consecutive epochs.
//
// The per-epoch hook fires on the cell's worker thread at its FIRST entry
// into each epoch, before any of the cell's events in that epoch execute —
// this is where ShardChannels::begin_epoch drains and schedules the
// epoch's cross-cell arrivals. run_until() may stop mid-epoch (warmup /
// measurement boundaries); resuming the same epoch later does not re-fire
// the hook.
//
// Workers: min(workers, cells) threads, the calling thread doubling as
// worker 0. Cells are not owned by a worker: in every epoch segment the
// workers claim cells one at a time from a shared cursor over a list
// ordered by measured cost (each cell's wall time since the list was last
// sorted, most expensive first), so the costly cells start first and the
// cheap ones fill in behind them. The last worker to reach the barrier
// re-sorts the list every kResortSegments segments. A cell's events never
// depend on which thread runs them, so the claim order is pure execution
// policy. With workers <= 1 the epoch loop runs serially on the caller —
// same hook sequence, same per-cell event order, byte-identical output
// (worker count is never schedule policy). Exceptions from any cell are
// captured and the lowest-worker-index one rethrown after all threads
// joined.
//
// Degenerate runs (1 cell, or zero lookahead) bypass the epoch machinery
// entirely: one run_until on cell 0, no hook calls.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace hostcc::sim {

class ShardedSimulator {
 public:
  using EpochHook = std::function<void(int cell, std::int64_t epoch, Time window_end)>;

  // Epoch segments between two re-sorts of the cell claim order.
  static constexpr int kResortSegments = 32;

  // `workers` <= 0 selects std::thread::hardware_concurrency(); the count
  // is clamped to the cell count either way.
  ShardedSimulator(int cells, Time lookahead, int workers);
  ~ShardedSimulator();

  ShardedSimulator(const ShardedSimulator&) = delete;
  ShardedSimulator& operator=(const ShardedSimulator&) = delete;

  Simulator& cell(int i) { return cells_[i]->sim; }
  const Simulator& cell(int i) const { return cells_[i]->sim; }
  int cell_count() const { return static_cast<int>(cells_.size()); }
  int workers() const { return workers_; }
  Time lookahead() const { return lookahead_; }

  void set_epoch_hook(EpochHook hook) { hook_ = std::move(hook); }

  // Advances every cell to `deadline` (global position; all cells end at
  // the same sim time).
  void run_until(Time deadline);
  Time now() const { return now_; }

  // Sum of per-cell executed events — independent of the worker count.
  std::uint64_t events_executed() const;
  // Epoch windows entered by the epoch loop (0 on degenerate runs).
  std::uint64_t epochs_entered() const { return epochs_entered_; }

  // Wall-clock figures (profiling only; excluded from the determinism
  // contract like every other wall-clock figure). Per cell: time inside
  // its run_until. Per worker: time spent running cells ("busy") and time
  // spent waiting at the epoch barrier for the slowest worker.
  double cell_wall_ms(int i) const { return static_cast<double>(cells_[i]->wall_ns) * 1e-6; }
  double max_cell_wall_ms() const;
  double worker_busy_wall_ms(int w) const { return static_cast<double>(busy_ns_[w]) * 1e-6; }
  double barrier_wait_wall_ms(int w) const { return static_cast<double>(wait_ns_[w]) * 1e-6; }

 private:
  // One barrier-delimited slice of epoch `epoch`, ending at `end` <=
  // window_end, the epoch's end.
  struct Segment {
    std::int64_t epoch = 0;
    Time end;
    Time window_end;
  };
  // The segment starting at `pos`; counts the epoch if it is a new one.
  Segment segment_at(Time pos, Time deadline);
  void step_cell(int c, const Segment& s);
  void sort_cells_by_cost();
  void run_epochs_serial(Time deadline);
  void run_epochs_parallel(Time deadline);

  // A cell's simulator and engine records, on cache lines of their own:
  // cells that share a line would make workers running them at the same
  // time fight over it.
  struct alignas(64) Cell {
    Simulator sim;
    std::int64_t epoch = -1;         // last epoch entered
    std::int64_t wall_ns = 0;
    std::int64_t sorted_at_ns = 0;  // wall_ns when order_ was last sorted
  };

  std::vector<std::unique_ptr<Cell>> cells_;
  Time lookahead_;
  int workers_;
  EpochHook hook_;

  Time now_ = Time::zero();
  std::int64_t last_epoch_ = -1;          // last epoch entered
  std::uint64_t epochs_entered_ = 0;

  std::vector<int> order_;  // cell claim order, costliest first
  int segments_since_sort_ = 0;

  std::vector<std::int64_t> busy_ns_;  // per worker
  std::vector<std::int64_t> wait_ns_;  // per worker
};

}  // namespace hostcc::sim
