#include "sim/sharded_sim.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <exception>
#include <numeric>
#include <thread>

namespace hostcc::sim {

namespace {

inline void cpu_relax() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#elif defined(__aarch64__)
  asm volatile("yield");
#endif
}

// Reusable generation barrier whose last arriving thread runs a completion
// step before it releases the others. Waiters spin briefly — an epoch's
// imbalance is usually a few microseconds — then park on the generation
// word with std::atomic::wait, so a long wait costs no CPU. The store of
// the new generation publishes everything every party and the completion
// step wrote. It is seq_cst, not just release: notify_all skips the wake
// when it sees no parked waiter, and that check must not be ordered
// before the store.
class EpochBarrier {
 public:
  explicit EpochBarrier(int parties) : parties_(parties) {}

  template <typename Completion>
  void arrive_and_wait(Completion&& completion) {
    // The generation cannot move before this thread arrives.
    const std::uint32_t gen = gen_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      completion();
      arrived_.store(0, std::memory_order_relaxed);
      gen_.store(gen + 1, std::memory_order_seq_cst);
      gen_.notify_all();
      return;
    }
    for (int i = 0; i < kSpins; ++i) {
      if (gen_.load(std::memory_order_acquire) != gen) return;
      cpu_relax();
    }
    while (gen_.load(std::memory_order_acquire) == gen) {
      gen_.wait(gen, std::memory_order_seq_cst);
    }
  }

 private:
  static constexpr int kSpins = 256;  // about 5 us at ~20 ns a pause
  const int parties_;
  std::atomic<int> arrived_{0};
  std::atomic<std::uint32_t> gen_{0};
};

std::int64_t elapsed_ns(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

ShardedSimulator::ShardedSimulator(int cells, Time lookahead, int workers)
    : lookahead_(lookahead) {
  if (cells < 1) cells = 1;
  cells_.reserve(cells);
  for (int i = 0; i < cells; ++i) cells_.push_back(std::make_unique<Cell>());
  if (workers <= 0) {
    workers = static_cast<int>(std::thread::hardware_concurrency());
    if (workers <= 0) workers = 1;
  }
  workers_ = std::min(workers, cells);
  order_.resize(cells);
  std::iota(order_.begin(), order_.end(), 0);
  busy_ns_.assign(workers_, 0);
  wait_ns_.assign(workers_, 0);
}

ShardedSimulator::~ShardedSimulator() = default;

std::uint64_t ShardedSimulator::events_executed() const {
  std::uint64_t n = 0;
  for (const auto& c : cells_) n += c->sim.events_executed();
  return n;
}

double ShardedSimulator::max_cell_wall_ms() const {
  std::int64_t w = 0;
  for (const auto& c : cells_) w = std::max(w, c->wall_ns);
  return static_cast<double>(w) * 1e-6;
}

ShardedSimulator::Segment ShardedSimulator::segment_at(Time pos, Time deadline) {
  Segment s;
  s.epoch = pos.ps() / lookahead_.ps();
  s.window_end = Time::picoseconds((s.epoch + 1) * lookahead_.ps());
  s.end = std::min(deadline, s.window_end);
  if (s.epoch != last_epoch_) {
    last_epoch_ = s.epoch;
    ++epochs_entered_;
  }
  return s;
}

void ShardedSimulator::step_cell(int c, const Segment& s) {
  const auto t0 = std::chrono::steady_clock::now();
  Cell& cell = *cells_[c];
  if (cell.epoch != s.epoch) {
    cell.epoch = s.epoch;
    if (hook_) hook_(c, s.epoch, s.window_end);
  }
  cell.sim.run_until(s.end);
  cell.wall_ns += elapsed_ns(t0);
}

void ShardedSimulator::sort_cells_by_cost() {
  // Cost = wall time since the last sort; ties (and the all-zero first
  // interval) keep index order.
  const auto cost = [this](int c) { return cells_[c]->wall_ns - cells_[c]->sorted_at_ns; };
  std::sort(order_.begin(), order_.end(), [&](int a, int b) {
    const std::int64_t ca = cost(a);
    const std::int64_t cb = cost(b);
    return ca != cb ? ca > cb : a < b;
  });
  for (auto& c : cells_) c->sorted_at_ns = c->wall_ns;
}

void ShardedSimulator::run_until(Time deadline) {
  if (deadline <= now_) return;
  const auto t0 = std::chrono::steady_clock::now();
  if (cells_.size() == 1 || lookahead_ <= Time::zero()) {
    // Degenerate: one cell (or no positive window) — a plain serial run.
    for (auto& c : cells_) c->sim.run_until(deadline);
    const std::int64_t ns = elapsed_ns(t0);
    cells_[0]->wall_ns += ns;
    busy_ns_[0] += ns;
  } else if (workers_ <= 1) {
    run_epochs_serial(deadline);
    busy_ns_[0] += elapsed_ns(t0);
  } else {
    run_epochs_parallel(deadline);
  }
  now_ = deadline;
}

void ShardedSimulator::run_epochs_serial(Time deadline) {
  for (Time pos = now_; pos < deadline;) {
    const Segment s = segment_at(pos, deadline);
    for (int c = 0; c < cell_count(); ++c) step_cell(c, s);
    pos = s.end;
  }
}

void ShardedSimulator::run_epochs_parallel(Time deadline) {
  const int W = workers_;
  const int n = cell_count();
  EpochBarrier barrier(W);
  std::atomic<int> cursor{0};
  std::atomic<bool> failed{false};
  bool stop = false;
  std::vector<std::exception_ptr> errors(W);
  Segment seg = segment_at(now_, deadline);

  // Runs on the last worker to reach the barrier while the others wait:
  // every cell has finished the segment, so per-cell state and the shared
  // schedule may be touched without races. The barrier's release is the
  // happens-before edge the channel buffers rely on. `stop` is decided
  // here, once per barrier: a worker that checked `failed` itself could
  // see a failure from the next segment and leave its peers one short.
  auto between_segments = [&] {
    stop = failed.load(std::memory_order_relaxed);
    if (++segments_since_sort_ == kResortSegments) {
      segments_since_sort_ = 0;
      sort_cells_by_cost();
    }
    if (seg.end < deadline) seg = segment_at(seg.end, deadline);
    cursor.store(0, std::memory_order_relaxed);
  };

  // All workers walk the same segments; within one, each claims the next
  // unrun cell of order_ until none is left, then waits for its peers. So
  // all of epoch k's cell segments complete (and their cross-cell buffers
  // are fully published) before any cell enters epoch k+1.
  auto worker = [&](int w) {
    try {
      for (Time pos = now_; pos < deadline;) {
        const Segment s = seg;
        const auto t0 = std::chrono::steady_clock::now();
        for (int i = cursor.fetch_add(1, std::memory_order_relaxed); i < n;
             i = cursor.fetch_add(1, std::memory_order_relaxed)) {
          step_cell(order_[i], s);
        }
        const auto t1 = std::chrono::steady_clock::now();
        busy_ns_[w] += std::chrono::duration_cast<std::chrono::nanoseconds>(t1 - t0).count();
        barrier.arrive_and_wait(between_segments);
        wait_ns_[w] += elapsed_ns(t1);
        if (stop) return;
        pos = s.end;
      }
    } catch (...) {
      errors[w] = std::current_exception();
      failed.store(true, std::memory_order_relaxed);
      barrier.arrive_and_wait(between_segments);
    }
  };

  std::vector<std::thread> threads;
  threads.reserve(W - 1);
  for (int w = 1; w < W; ++w) threads.emplace_back(worker, w);
  worker(0);
  for (std::thread& t : threads) t.join();
  for (int w = 0; w < W; ++w) {
    if (errors[w]) std::rethrow_exception(errors[w]);
  }
}

}  // namespace hostcc::sim
