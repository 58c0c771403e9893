// Unit tests for individual host-substrate components: MBA throttle, MSR
// bank, memory controller, DDIO model.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "apps/mem_app.h"
#include "host/config.h"
#include "host/ddio.h"
#include "host/host.h"
#include "host/mba.h"
#include "host/memctrl.h"
#include "host/msr.h"
#include "sim/random.h"
#include "sim/simulator.h"

namespace hostcc::host {
namespace {

// ------------------------------------------------------------------- MBA

TEST(MbaTest, LevelChangeTakesEffectAfterMsrWriteLatency) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  mba.request_level(2);
  EXPECT_EQ(mba.effective_level(), 0);
  sim.run_until(sim::Time::microseconds(21));
  EXPECT_EQ(mba.effective_level(), 0);  // still in flight
  sim.run_until(sim::Time::microseconds(23));
  EXPECT_EQ(mba.effective_level(), 2);
}

TEST(MbaTest, ConcurrentRequestsCoalesceToLatest) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  mba.request_level(1);
  mba.request_level(3);  // while the first write is in flight
  sim.run_until(sim::Time::microseconds(23));
  EXPECT_EQ(mba.effective_level(), 1);  // first write lands first
  sim.run_until(sim::Time::microseconds(45));
  EXPECT_EQ(mba.effective_level(), 3);  // follow-up write applies the latest
  EXPECT_EQ(mba.msr_writes_issued(), 2);
}

TEST(MbaTest, RapidChurnCoalescesWithoutIntermediateLevels) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  std::vector<int> applied;
  mba.set_on_level_change([&](int lvl) { applied.push_back(lvl); });
  // A burst of requests while the first write is in flight must collapse
  // to exactly one follow-up write for the most recent level — the
  // skipped intermediates (4, 3) never become effective.
  mba.request_level(1);
  mba.request_level(4);
  mba.request_level(3);
  mba.request_level(2);
  sim.run_until(sim::Time::microseconds(23));
  EXPECT_EQ(mba.effective_level(), 1);
  sim.run_until(sim::Time::microseconds(60));
  EXPECT_EQ(mba.effective_level(), 2);
  EXPECT_EQ(mba.msr_writes_issued(), 2);
  EXPECT_EQ(applied, (std::vector<int>{1, 2}));
  // A second burst: the first request starts a write immediately (the
  // actuator is idle), the second coalesces behind it.
  mba.request_level(4);
  mba.request_level(0);
  sim.run_until(sim::Time::microseconds(120));
  EXPECT_EQ(mba.effective_level(), 0);
  EXPECT_EQ(mba.msr_writes_issued(), 4);
  EXPECT_EQ(applied, (std::vector<int>{1, 2, 4, 0}));
}

TEST(MbaTest, OutOfRangeRequestsClampAndCount) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  mba.request_level(9);  // buggy policy: clamp, count, keep running
  sim.run_until(sim::Time::microseconds(25));
  EXPECT_EQ(mba.effective_level(), MbaThrottle::kMaxLevel);
  EXPECT_EQ(mba.out_of_range_requests(), 1u);
  mba.request_level(-2);
  sim.run_until(sim::Time::microseconds(50));
  EXPECT_EQ(mba.effective_level(), MbaThrottle::kMinLevel);
  EXPECT_EQ(mba.out_of_range_requests(), 2u);
}

TEST(MbaTest, PauseLevelHasNoAddedLatencyButPauses) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  mba.request_level(MbaThrottle::kMaxLevel);
  sim.run_until(sim::Time::microseconds(25));
  EXPECT_TRUE(mba.paused());
  EXPECT_EQ(mba.added_latency(), sim::Time::zero());
}

TEST(MbaTest, LatencyMonotoneInLevel) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  sim::Time prev = sim::Time::zero();
  for (int l = 0; l <= 3; ++l) {
    mba.request_level(l);
    sim.run_until(sim.now() + sim::Time::microseconds(25));
    EXPECT_GE(mba.added_latency(), prev) << "level " << l;
    prev = mba.added_latency();
  }
}

TEST(MbaTest, ObserverFiresOnEffectiveChange) {
  sim::Simulator sim;
  HostConfig cfg;
  MbaThrottle mba(sim, cfg);
  int observed = -1;
  mba.set_on_level_change([&](int l) { observed = l; });
  mba.request_level(2);
  sim.run();
  EXPECT_EQ(observed, 2);
}

// ------------------------------------------------------------------- MSR

TEST(MsrTest, OccupancyIntegratesOverTime) {
  sim::Simulator sim;
  HostConfig cfg;
  MsrBank msrs(sim, cfg);
  // 80 lines held for 2us at 500MHz: ROCC += 80 * 2e-6 * 5e8 = 80000.
  sim.after(sim::Time::microseconds(2), [&] { msrs.integrate_occupancy(sim.now(), 80.0); });
  sim.run();
  EXPECT_NEAR(msrs.rocc_raw(), 80000.0, 1.0);
}

TEST(MsrTest, ReadLatenciesMatchConfig) {
  sim::Simulator sim;
  HostConfig cfg;
  MsrBank msrs(sim, cfg);
  double total = 0.0;
  for (int i = 0; i < 1000; ++i) total += msrs.read_rocc().latency.ns();
  EXPECT_NEAR(total / 1000.0, cfg.msr_read_latency_mean.ns(), 30.0);
  EXPECT_EQ(msrs.read_tsc().latency, cfg.tsc_read_latency);
}

TEST(MsrTest, InsertionsAccumulate) {
  sim::Simulator sim;
  HostConfig cfg;
  MsrBank msrs(sim, cfg);
  msrs.count_insertions(10.0);
  msrs.count_insertions(5.5);
  EXPECT_DOUBLE_EQ(msrs.rins_raw(), 15.5);
}

// ------------------------------------------------- memory controller

class FixedSource : public MemSource {
 public:
  FixedSource(std::string name, double demand_per_quantum, double pressure)
      : name_(std::move(name)), demand_(demand_per_quantum), pressure_(pressure) {}
  std::string name() const override { return name_; }
  Offer mem_offer(sim::Time, sim::Time) override { return {demand_, pressure_}; }
  void mem_granted(sim::Time, double b) override { granted += b; }
  // Changes the offer; wakes an idle controller first (the MemSource wake
  // contract), so the next quantum polls the new offer.
  void set_offer(double demand_per_quantum, double pressure) {
    wake_memctrl();
    demand_ = demand_per_quantum;
    pressure_ = pressure;
  }
  double granted = 0.0;

 private:
  std::string name_;
  double demand_;
  double pressure_;
};

TEST(MemControllerTest, UnderloadedGrantsAllDemands) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  // Capacity per 100ns quantum = 44e9 * 100e-9 = 4400 bytes.
  FixedSource a("a", 1000, 1000), b("b", 2000, 500);
  mc.add_source(&a, true);
  mc.add_source(&b, false);
  sim.run_until(sim::Time::microseconds(10));  // 100 quanta
  EXPECT_NEAR(a.granted, 100 * 1000.0, 1500.0);
  EXPECT_NEAR(b.granted, 100 * 2000.0, 2500.0);
}

TEST(MemControllerTest, OverloadSharesProportionalToPressure) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource a("a", 10000, 3000), b("b", 10000, 1000);
  mc.add_source(&a, false);
  mc.add_source(&b, false);
  sim.run_until(sim::Time::microseconds(100));
  // Total granted per quantum = 4400; split 3:1.
  EXPECT_NEAR(a.granted / b.granted, 3.0, 0.05);
  EXPECT_NEAR(a.granted + b.granted, 1000 * 4400.0, 80000.0);
}

TEST(MemControllerTest, LeftoverRedistributedToHungrySources) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  // a has high pressure but tiny demand; b should soak up the rest.
  FixedSource a("a", 100, 100000), b("b", 100000, 100);
  mc.add_source(&a, false);
  mc.add_source(&b, false);
  sim.run_until(sim::Time::microseconds(100));
  EXPECT_NEAR(a.granted, 1000 * 100.0, 2000.0);
  EXPECT_NEAR(b.granted, 1000 * 4300.0, 50000.0);
}

TEST(MemControllerTest, UtilizationTracksLoad) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource a("a", 2200, 2200);  // half capacity
  mc.add_source(&a, false);
  sim.run_until(sim::Time::microseconds(100));
  EXPECT_NEAR(mc.utilization(), 0.5, 0.05);
}

TEST(MemControllerTest, LatencyRisesWithUtilization) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource low("low", 800, 800);
  mc.add_source(&low, false);
  sim.run_until(sim::Time::microseconds(50));
  const sim::Time l_low = mc.access_latency();
  FixedSource high("high", 8000, 8000);
  mc.add_source(&high, false);
  sim.run_until(sim::Time::microseconds(150));
  EXPECT_GT(mc.access_latency(), l_low);
  EXPECT_GT(mc.overload(), 1.0);  // offered demand exceeds capacity
}

TEST(MemControllerTest, HostLocalShareSeparatesClasses) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource net("net", 1100, 1100), local("local", 1100, 1100);
  mc.add_source(&net, true);
  mc.add_source(&local, false);
  sim.run_until(sim::Time::microseconds(100));
  EXPECT_NEAR(mc.host_local_share(), 0.25, 0.04);  // local = 11GB/s of 44
}

TEST(MemControllerTest, CheckpointReportsPerSourceRates) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource a("a", 1100, 1100);
  mc.add_source(&a, true);
  mc.checkpoint(sim.now());
  sim.run_until(sim::Time::milliseconds(1));
  const auto rates = mc.checkpoint(sim.now());
  ASSERT_EQ(rates.size(), 1u);
  EXPECT_NEAR(rates[0].as_gigabytes_per_sec(), 11.0, 0.5);
}

TEST(MemControllerTest, IdleNetworkSourcesSkipQuantaUntilWoken) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource a("a", 0.0, 0.0);
  mc.add_source(&a, true);
  sim.run_until(sim::Time::microseconds(10));  // 100 quanta, the first runs
  EXPECT_TRUE(mc.idle());
  EXPECT_EQ(mc.quanta_run(), 1u);
  EXPECT_EQ(mc.quanta_skipped(), 99u);

  a.set_offer(1000, 1000);
  EXPECT_FALSE(mc.idle());
  sim.run_until(sim::Time::microseconds(20));
  EXPECT_EQ(mc.quanta_run(), 101u);
  EXPECT_NEAR(a.granted, 100 * 1000.0, 1500.0);
}

TEST(MemControllerTest, HostLocalSourceKeepsControllerBusy) {
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  FixedSource net("net", 0.0, 0.0), local("local", 0.0, 0.0);
  mc.add_source(&net, true);
  mc.add_source(&local, false);
  sim.run_until(sim::Time::microseconds(10));
  EXPECT_FALSE(mc.idle());
  EXPECT_EQ(mc.quanta_run(), 100u);
  EXPECT_EQ(mc.quanta_skipped(), 0u);
}

// Reference arithmetic of one memory-controller quantum, as the controller
// computes it when it runs every tick. The replay test holds the
// controller to these bits at every read.
struct QuantumOracle {
  QuantumOracle(const HostConfig& c, std::size_t n)
      : cfg(c),
        cap(c.dram_bandwidth.bytes_per_sec() * c.mc_quantum.sec()),
        inv_cap(cap > 0.0 ? 1.0 / cap : 0.0),
        rate_scale(8.0 / c.mc_quantum.sec()),
        rate(n, sim::Ewma(0.02)),
        pressure(n, sim::Ewma(0.02)),
        util(c.mc_util_ewma_weight),
        granted(n, 0) {}

  void quantum(std::vector<MemSource::Offer> offers) {
    const std::size_t n = offers.size();
    std::vector<double> grants(n, 0.0);
    double total_demand = 0.0;
    double total_pressure = 0.0;
    for (auto& o : offers) {
      if (o.demand_bytes > 0.0) {
        o.pressure_bytes = std::max(o.pressure_bytes, static_cast<double>(sim::kCacheline));
      }
      total_demand += o.demand_bytes;
      total_pressure += o.pressure_bytes;
    }
    double cap_left = std::min(cap, total_demand);
    for (int round = 0; round < 8 && cap_left > 1.0; ++round) {
      double active_pressure = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        if (grants[i] < offers[i].demand_bytes) active_pressure += offers[i].pressure_bytes;
      }
      if (active_pressure <= 0.0) break;
      const double fill_per_pressure = cap_left / active_pressure;
      double distributed = 0.0;
      for (std::size_t i = 0; i < n; ++i) {
        const double want = offers[i].demand_bytes - grants[i];
        if (want <= 0.0) continue;
        const double take = std::min(want, fill_per_pressure * offers[i].pressure_bytes);
        grants[i] += take;
        distributed += take;
      }
      cap_left -= distributed;
      if (distributed < 1.0) break;
    }
    for (std::size_t i = 0; i < n; ++i) {
      if (grants[i] > 0.0) granted[i] += static_cast<sim::Bytes>(grants[i] + 0.5);
      rate[i].add(grants[i] * rate_scale);
      pressure[i].add(offers[i].pressure_bytes);
    }
    double served = 0.0;
    for (std::size_t i = 0; i < n; ++i) served += grants[i];
    const double backlog_penalty = std::min((total_demand - served) * inv_cap, 0.3);
    util.add(served * inv_cap + std::max(backlog_penalty, 0.0));

    const auto& curve = HostConfig::kDramExtraCurve;
    constexpr std::size_t kPoints = std::size(curve);
    const double u = std::clamp(util.value(), curve[0].util, curve[kPoints - 1].util);
    double extra_ns = curve[kPoints - 1].extra_ns;
    for (std::size_t i = 1; i < kPoints; ++i) {
      if (u <= curve[i].util) {
        const double f = (u - curve[i - 1].util) / (curve[i].util - curve[i - 1].util);
        extra_ns = curve[i - 1].extra_ns + f * (curve[i].extra_ns - curve[i - 1].extra_ns);
        break;
      }
    }
    extra = sim::Time::nanoseconds(extra_ns);
    queue_wait = sim::Time::seconds(total_pressure / cfg.dram_bandwidth.bytes_per_sec());
  }

  sim::Time source_wait(std::size_t i) const {
    const double r = rate[i].value() / 8.0;
    if (r < 1e6) return sim::Time::zero();
    return std::min(sim::Time::seconds(pressure[i].value() / r), sim::Time::microseconds(1));
  }

  const HostConfig& cfg;
  const double cap;
  const double inv_cap;
  const double rate_scale;
  std::vector<sim::Ewma> rate;
  std::vector<sim::Ewma> pressure;
  sim::Ewma util;
  std::vector<sim::Bytes> granted;
  sim::Time extra = sim::Time::zero();
  sim::Time queue_wait = sim::Time::zero();
};

std::uint64_t bits(double v) { return std::bit_cast<std::uint64_t>(v); }

// A network-path source whose offer follows a script over the controller's
// tick ordinals; it wakes the controller before each burst, per contract.
class ScriptedSource : public MemSource {
 public:
  ScriptedSource(std::string name, std::function<Offer(sim::Time)> offer)
      : name_(std::move(name)), offer_(std::move(offer)) {}
  std::string name() const override { return name_; }
  Offer mem_offer(sim::Time now, sim::Time) override { return offer_(now); }
  void mem_granted(sim::Time, double) override {}
  void wake() { wake_memctrl(); }

 private:
  std::string name_;
  std::function<Offer(sim::Time)> offer_;
};

// Idle quanta are replayed, not run: every getter must still return the
// bits of the per-quantum arithmetic, whether read mid-gap, at a tick
// instant (before or after that tick), right after a wake, or while the
// lane is parked. Gaps of 1, 2, 3 and 50 zero quanta, plus one long enough
// for every EWMA to reach its floating-point fixed point. Only the first
// read after a gap replays it, so every read starts with getter
// `first_getter`; the test runs the script once per getter.
constexpr std::size_t kReplayGetters = 13;

void run_idle_replay_script(std::size_t first_getter) {
  SCOPED_TRACE("first getter " + std::to_string(first_getter));
  sim::Simulator sim;
  HostConfig cfg;
  MemoryController mc(sim, cfg);
  const sim::Time q = cfg.mc_quantum;

  // Tick ordinal n fires at n*q until the park after tick kPark; the lane
  // restarts at the unpark instant and ticks every q from there.
  constexpr std::int64_t kPark = 60100;
  const auto ticks = [&](std::int64_t n) { return sim::Time::picoseconds(q.ps() * n); };
  const sim::Time t_park = ticks(kPark) + q / 2;
  const sim::Time t_unpark = t_park + sim::Time::nanoseconds(3330);
  const auto tick_time = [&](std::int64_t n) {
    return n <= kPark ? ticks(n) : t_unpark + ticks(n - kPark);
  };
  const auto ordinal_at = [&](sim::Time t) {
    return t <= t_park ? t.ps() / q.ps() : kPark + (t - t_unpark).ps() / q.ps();
  };

  // Bursts [begin, end) of non-zero offers per source; zero elsewhere.
  // Gaps of 63..66 and 128..131 quanta after tick 200 put the replay's
  // step count on both sides of its 64-step block boundaries.
  struct Burst {
    std::int64_t begin, end;
  };
  const std::vector<std::vector<Burst>> bursts = {
      {{1, 40}, {41, 60}, {62, 80}, {83, 100}, {150, 200}, {263, 270}, {334, 340}, {405, 410},
       {476, 480}, {608, 612}, {741, 745}, {875, 880}, {1011, 1015}, {60200, 60260}},
      {{10, 30}, {41, 55}, {150, 180}},
  };
  const auto offer = [&](std::size_t src, std::int64_t n) -> MemSource::Offer {
    for (const Burst& b : bursts[src]) {
      if (n < b.begin || n >= b.end) continue;
      // Overload during [150, 200): demand tops the 4400-byte quantum.
      const double demand = (n >= 150 && n < 200 ? 3000.0 : 500.0) + (n * 37 % 900);
      return {demand, 300.0 + static_cast<double>(n * 53 % 2000) + 100.0 * src};
    }
    return {};
  };
  ScriptedSource s0("s0", [&](sim::Time t) { return offer(0, ordinal_at(t)); });
  ScriptedSource s1("s1", [&](sim::Time t) { return offer(1, ordinal_at(t)); });
  mc.add_source(&s0, true);
  mc.add_source(&s1, true);
  std::vector<ScriptedSource*> srcs = {&s0, &s1};

  QuantumOracle oracle(cfg, srcs.size());
  std::int64_t oracle_ticks = 0;
  int checks = 0;
  // Every getter as (controller bits, oracle bits).
  using Read = std::pair<std::uint64_t, std::uint64_t>;
  const std::vector<std::function<Read()>> getters = {
      [&] { return Read{bits(mc.utilization()), bits(std::clamp(oracle.util.value(), 0.0, 1.0))}; },
      [&] { return Read{bits(mc.overload()), bits(std::max(oracle.util.value(), 0.0))}; },
      [&] { return Read(mc.extra_latency().ps(), oracle.extra.ps()); },
      [&] {
        return Read(mc.device_latency().ps(), (cfg.dram_latency_base + oracle.extra).ps());
      },
      [&] { return Read(mc.queue_wait().ps(), oracle.queue_wait.ps()); },
      [&] {
        return Read(mc.access_latency().ps(),
                    (cfg.dram_latency_base + oracle.extra + oracle.queue_wait).ps());
      },
      [&] { return Read{bits(mc.host_local_share()), bits(0.0)}; },
      [&] { return Read{bits(mc.granted_rate(0).bits_per_sec()), bits(oracle.rate[0].value())}; },
      [&] { return Read{bits(mc.granted_rate(1).bits_per_sec()), bits(oracle.rate[1].value())}; },
      [&] { return Read(mc.source_wait(&s0).ps(), oracle.source_wait(0).ps()); },
      [&] { return Read(mc.source_wait(&s1).ps(), oracle.source_wait(1).ps()); },
      [&] { return Read(mc.granted_bytes(0), oracle.granted[0]); },
      [&] { return Read(mc.granted_bytes(1), oracle.granted[1]); },
  };
  ASSERT_EQ(getters.size(), kReplayGetters);
  // Compares every getter against the oracle after `ticks` quanta.
  const auto check = [&](std::int64_t ticks, const std::string& where) {
    for (; oracle_ticks < ticks; ++oracle_ticks) {
      oracle.quantum({offer(0, oracle_ticks + 1), offer(1, oracle_ticks + 1)});
    }
    EXPECT_EQ(mc.quanta_run() + mc.quanta_skipped(), static_cast<std::uint64_t>(ticks)) << where;
    for (std::size_t k = 0; k < getters.size(); ++k) {
      const std::size_t g = (first_getter + k) % getters.size();
      const auto [got, want] = getters[g]();
      EXPECT_EQ(got, want) << where << ", getter " << g << (k == 0 ? " (first read)" : "");
    }
    ++checks;
  };

  // Each source wakes the controller half a quantum before its bursts.
  for (std::size_t i = 0; i < srcs.size(); ++i) {
    for (const Burst& b : bursts[i]) {
      sim.at(tick_time(b.begin) - q / 2, [&, i, b] {
        srcs[i]->wake();
        check(b.begin - 1, "after wake before tick " + std::to_string(b.begin));
      });
    }
  }
  // Mid-gap reads, half a quantum after tick n (none in the 50-quantum gap:
  // there the whole replay happens on wake).
  std::vector<std::int64_t> mid = {40, 60, 61, 80, 81, 82, 200, 205, 45200, 60150, 60270, 60400};
  for (std::int64_t n = 1200; n < 45000; n += 2000) mid.push_back(n);
  for (std::int64_t n : mid) {
    sim.at(tick_time(n) + q / 2, [&, n] { check(n, "mid-gap after tick " + std::to_string(n)); });
  }
  // 45000 quanta into the long gap every EWMA sits at its fixed point (a
  // denormal or zero), so the replay there ended early.
  sim.at(tick_time(45200) + q / 2,
         [&] { EXPECT_LT(mc.granted_rate(0).bits_per_sec(), 1e-300); });
  // At a tick instant: an event queued earlier runs before that tick, one
  // queued after the previous tick runs after it.
  sim.at(tick_time(3000), [&] { check(2999, "at tick 3000, before it"); });
  sim.at(tick_time(3500) - q / 2, [&] {
    sim.at(tick_time(3500), [&] { check(3500, "at tick 3500, after it"); });
  });
  // Park mid-gap with quanta pending, read while parked, unpark.
  sim.at(t_park, [&] {
    mc.set_quantum_active(false);
    check(kPark, "parked");
  });
  sim.at(t_park + sim::Time::nanoseconds(1000), [&] { check(kPark, "while parked"); });
  sim.at(t_unpark, [&] {
    mc.set_quantum_active(true);
    check(kPark, "unparked");
  });

  sim.run_until(tick_time(60400) + q);
  EXPECT_EQ(checks, static_cast<int>(mid.size() + bursts[0].size() + bursts[1].size()) + 2 + 3);
  EXPECT_TRUE(mc.idle());
  // The gaps really were skipped, not run.
  EXPECT_LT(mc.quanta_run(), 400u);
  EXPECT_GT(mc.quanta_skipped(), 60000u);
}

TEST(MemControllerTest, IdleReplayMatchesPerQuantumArithmeticBitwise) {
  for (std::size_t g = 0; g < kReplayGetters; ++g) run_idle_replay_script(g);
}

// ------------------------------------------------------------------ DDIO

TEST(DdioTest, DisabledAlwaysGoesToMemoryWithoutEviction) {
  HostConfig cfg;
  cfg.ddio_enabled = false;
  LlcDdio ddio(cfg, sim::Rng(1));
  for (int i = 0; i < 100; ++i) {
    const auto p = ddio.place(4096, 0.9);
    EXPECT_TRUE(p.to_memory);
    EXPECT_FALSE(p.eviction);
  }
  EXPECT_EQ(ddio.unconsumed(), 0);
}

TEST(DdioTest, EvictionProbabilityGrowsWithPollution) {
  HostConfig cfg;
  cfg.ddio_enabled = true;
  LlcDdio ddio(cfg, sim::Rng(1));
  EXPECT_LT(ddio.eviction_probability(0.0), ddio.eviction_probability(0.5));
  EXPECT_LE(ddio.eviction_probability(0.9), 1.0);
}

TEST(DdioTest, UnconsumedBacklogRaisesEviction) {
  HostConfig cfg;
  cfg.ddio_enabled = true;
  LlcDdio ddio(cfg, sim::Rng(2));
  const double before = ddio.eviction_probability(0.0);
  // Fill half the DDIO ways without consumption.
  sim::Bytes placed = 0;
  while (placed < cfg.ddio_way_bytes / 2) {
    if (!ddio.place(4096, 0.0).to_memory) placed += 4096;
  }
  EXPECT_GT(ddio.eviction_probability(0.0), before + 0.3);
  // Consumption drains the backlog back down.
  ddio.consumed(ddio.unconsumed());
  EXPECT_NEAR(ddio.eviction_probability(0.0), before, 1e-9);
}

TEST(DdioTest, PlacementFrequencyMatchesProbability) {
  HostConfig cfg;
  cfg.ddio_enabled = true;
  cfg.ddio_evict_base = 0.30;
  cfg.ddio_evict_pollution = 0.0;
  cfg.ddio_evict_overflow = 0.0;
  LlcDdio ddio(cfg, sim::Rng(3));
  int evictions = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    if (ddio.place(64, 0.0).eviction) ++evictions;
    ddio.consumed(ddio.unconsumed());
  }
  EXPECT_NEAR(static_cast<double>(evictions) / n, 0.30, 0.02);
}

}  // namespace
}  // namespace hostcc::host
