// ShardedSimulator scheduling: workers claim cells from a cost-ordered
// list, so under skewed cell costs a cell moves between threads from one
// epoch to the next. None of that may reach the simulation: per-cell event
// order and cross-cell delivery order must be the same for every worker
// count.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/shard_channel.h"
#include "sim/sharded_sim.h"

namespace hostcc {
namespace {

constexpr int kCells = 12;
const sim::Time kLookahead = sim::Time::microseconds(1);

// Per-cell work: a few events per epoch, each burning `spin` LCG steps and
// sending a message to the next cell `kLookahead` later. Cells 3 and 8 are
// 50x more expensive than the rest.
struct Ring {
  struct Entry {
    std::int64_t ps;
    int from;   // -1: a local tick
    std::uint64_t value;
    bool operator==(const Entry&) const = default;
  };

  explicit Ring(int workers)
      : engine(kCells, kLookahead, workers), channels(kCells), log(kCells), threads(kCells),
        state(kCells, 1) {
    for (int c = 0; c < kCells; ++c) {
      const int to = (c + 1) % kCells;
      chan.push_back(channels.add_channel(c, to, [this, c, to](const std::uint64_t& v) {
        log[to].push_back({engine.cell(to).now().ps(), c, v});
        state[to] ^= v;
      }));
    }
    engine.set_epoch_hook([this](int cell, std::int64_t epoch, sim::Time window_end) {
      threads[cell].insert(std::this_thread::get_id());
      channels.begin_epoch(cell, epoch, window_end, engine.cell(cell));
    });
    for (int c = 0; c < kCells; ++c) schedule_tick(c, sim::Time::nanoseconds(100 + 37 * c));
  }

  void schedule_tick(int c, sim::Time at) {
    engine.cell(c).at(at, [this, c] { tick(c); });
  }

  void tick(int c) {
    sim::Simulator& s = engine.cell(c);
    const int spin = (c == 3 || c == 8) ? 20000 : 400;
    std::uint64_t x = state[c];
    for (int i = 0; i < spin; ++i) x = x * 6364136223846793005ULL + 1442695040888963407ULL;
    state[c] = x;
    log[c].push_back({s.now().ps(), -1, x});
    channels.push(chan[c], s.now() + kLookahead, x >> 3);
    schedule_tick(c, s.now() + sim::Time::nanoseconds(230 + (x % 200)));
  }

  sim::ShardedSimulator engine;
  sim::ShardChannels<std::uint64_t> channels;
  std::vector<int> chan;
  std::vector<std::vector<Entry>> log;           // per cell, in execution order
  std::vector<std::set<std::thread::id>> threads;  // per cell: threads that ran it
  std::vector<std::uint64_t> state;
};

// Runs the ring to 400 us in uneven steps, so some stops fall mid-epoch.
void run(Ring& r) {
  for (std::int64_t ns : {50'300, 171'000, 260'050, 400'000}) {
    r.engine.run_until(sim::Time::nanoseconds(ns));
  }
}

TEST(ShardedSimulatorTest, SkewedCellsMigrateWithoutChangingEventOrder) {
  Ring base(1);
  run(base);
  ASSERT_EQ(base.engine.epochs_entered(), 400u);
  for (int c = 0; c < kCells; ++c) ASSERT_GT(base.log[c].size(), 100u) << "cell " << c;

  for (int workers : {2, 4}) {
    Ring r(workers);
    run(r);
    EXPECT_EQ(r.engine.workers(), workers);
    EXPECT_EQ(r.engine.epochs_entered(), base.engine.epochs_entered()) << workers;
    EXPECT_EQ(r.engine.events_executed(), base.engine.events_executed()) << workers;
    EXPECT_EQ(r.channels.total_delivered(), base.channels.total_delivered()) << workers;
    for (int c = 0; c < kCells; ++c) {
      EXPECT_TRUE(r.log[c] == base.log[c]) << "cell " << c << ", " << workers << " workers";
    }
    // Cells are not bound to a worker: over 400 epochs, with two cells far
    // costlier than the rest, some cell runs on more than one thread.
    std::size_t most_threads = 0;
    for (const auto& t : r.threads) most_threads = std::max(most_threads, t.size());
    EXPECT_GE(most_threads, 2u) << workers << " workers";

    // Every cell's run time lies inside some worker's busy time.
    double cells_ms = 0.0;
    double busy_ms = 0.0;
    for (int c = 0; c < kCells; ++c) cells_ms += r.engine.cell_wall_ms(c);
    for (int w = 0; w < workers; ++w) {
      busy_ms += r.engine.worker_busy_wall_ms(w);
      EXPECT_GE(r.engine.barrier_wait_wall_ms(w), 0.0);
    }
    EXPECT_LE(cells_ms, busy_ms + 1e-3) << workers << " workers";
  }
}

TEST(ShardedSimulatorTest, SerialRunCountsAllTimeAsBusy) {
  Ring r(1);
  run(r);
  EXPECT_GT(r.engine.worker_busy_wall_ms(0), 0.0);
  EXPECT_EQ(r.engine.barrier_wait_wall_ms(0), 0.0);
}

TEST(ShardedSimulatorTest, CellExceptionIsRethrownAfterWorkersJoin) {
  for (int workers : {1, 4}) {
    Ring r(workers);
    r.engine.cell(5).at(sim::Time::nanoseconds(7'500),
                        [] { throw std::runtime_error("cell 5 failed"); });
    try {
      r.engine.run_until(sim::Time::microseconds(50));
      ADD_FAILURE() << "no exception with " << workers << " workers";
    } catch (const std::runtime_error& e) {
      EXPECT_EQ(std::string(e.what()), "cell 5 failed");
    }
  }
}

}  // namespace
}  // namespace hostcc
