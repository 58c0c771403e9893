#include "host/memctrl.h"

#include <bit>
#include <cassert>
#include <cmath>

namespace hostcc::host {

namespace {

// One idle-quantum step of `e`: the add(0) a quantum with no grants and no
// pressure applies. Returns whether it changed anything.
bool decay_step(sim::Ewma& e) {
  const bool was_seeded = e.seeded();
  const auto before = std::bit_cast<std::uint64_t>(e.value());
  e.add(0.0);
  return !was_seeded || std::bit_cast<std::uint64_t>(e.value()) != before;
}

// Applies `steps` more add(0) steps to seeded EWMAs, kLanes at a time, as
// exactly v += w * (0.0 - v) in branch-free blocks of kBlock steps. Each
// value's sequence depends on nothing else, and once one step leaves every
// value unchanged (the floating-point fixed point) all further steps do
// too; that is checked once per block, so a long gap stops early with the
// same bits the one-by-one steps would give.
void decay_seeded(sim::Ewma* const* ewmas, std::size_t count, std::uint64_t steps) {
  constexpr std::size_t kLanes = 8;
  constexpr std::uint64_t kBlock = 64;
  for (std::size_t first = 0; first < count; first += kLanes) {
    const std::size_t lanes = std::min(kLanes, count - first);
    // Unused lanes hold 0 with weight 0: they stay 0 and never "move".
    double v[kLanes] = {};
    double w[kLanes] = {};
    for (std::size_t j = 0; j < lanes; ++j) {
      v[j] = ewmas[first + j]->value();
      w[j] = ewmas[first + j]->weight();
    }
    for (std::uint64_t left = steps; left > 0;) {
      const std::uint64_t block = std::min(left, kBlock);
      left -= block;
      for (std::uint64_t k = 1; k < block; ++k) {
        for (std::size_t j = 0; j < kLanes; ++j) v[j] += w[j] * (0.0 - v[j]);
      }
      bool moved = false;
      for (std::size_t j = 0; j < kLanes; ++j) {
        const auto before = std::bit_cast<std::uint64_t>(v[j]);
        v[j] += w[j] * (0.0 - v[j]);
        moved |= std::bit_cast<std::uint64_t>(v[j]) != before;
      }
      if (!moved) break;
    }
    for (std::size_t j = 0; j < lanes; ++j) ewmas[first + j]->set_value(v[j]);
  }
}

}  // namespace

sim::Time MemoryController::extra_latency_at(double util) {
  const auto& curve = HostConfig::kDramExtraCurve;
  constexpr std::size_t kPoints = std::size(curve);
  const double u = std::clamp(util, curve[0].util, curve[kPoints - 1].util);
  double extra_ns = curve[kPoints - 1].extra_ns;
  for (std::size_t i = 1; i < kPoints; ++i) {
    if (u <= curve[i].util) {
      const double f = (u - curve[i - 1].util) / (curve[i].util - curve[i - 1].util);
      extra_ns = curve[i - 1].extra_ns + f * (curve[i].extra_ns - curve[i - 1].extra_ns);
      break;
    }
  }
  return sim::Time::nanoseconds(extra_ns);
}

// An idle quantum grants nothing, so it only feeds a zero sample to every
// EWMA (rate 0 * scale, pressure 0, utilization 0 + 0), recomputes the load
// latency from the decayed utilization and sees zero resident bytes. The
// first step may seed an EWMA that never saw a sample, so it runs through
// add(); the rest run in bulk.
void MemoryController::replay_idle_quanta() const {
  const std::uint64_t pending = timer_.idle_ticks() - replayed_;
  replayed_ = timer_.idle_ticks();
  bool moved = false;
  for (std::size_t i = 0; i < sources_.size(); ++i) {
    moved |= decay_step(rate_ewma_[i]);
    moved |= decay_step(pressure_ewma_[i]);
  }
  moved |= decay_step(util_ewma_);
  if (moved && pending > 1) decay_seeded(replay_ewmas_.data(), replay_ewmas_.size(), pending - 1);
  extra_latency_ = extra_latency_at(util_ewma_.value());
  queue_wait_ = sim::Time::zero();
}

void MemoryController::quantum() {
  obs::ProfScope scope(prof_);
  ++quanta_run_;
  const sim::Time now = sim_.now();
  const double cap = quantum_cap_bytes_;

  const std::size_t n = sources_.size();
  offers_.resize(n);
  grants_.assign(n, 0.0);

  double total_demand = 0.0;
  double total_pressure = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    offers_[i] = sources_[i]->mem_offer(now, cfg_.mc_quantum);
    assert(offers_[i].demand_bytes >= 0.0 && offers_[i].pressure_bytes >= 0.0);
    // A source with demand always has at least a cacheline of pressure.
    if (offers_[i].demand_bytes > 0.0) {
      offers_[i].pressure_bytes =
          std::max(offers_[i].pressure_bytes, static_cast<double>(sim::kCacheline));
    }
    total_demand += offers_[i].demand_bytes;
    total_pressure += offers_[i].pressure_bytes;
  }

  // Water-fill: proportional to pressure among unsatisfied sources, with
  // unused share redistributed. Converges in a handful of rounds.
  double cap_left = std::min(cap, total_demand);
  for (int round = 0; round < 8 && cap_left > 1.0; ++round) {
    double active_pressure = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (grants_[i] < offers_[i].demand_bytes) active_pressure += offers_[i].pressure_bytes;
    }
    if (active_pressure <= 0.0) break;
    const double fill_per_pressure = cap_left / active_pressure;
    double distributed = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double want = offers_[i].demand_bytes - grants_[i];
      if (want <= 0.0) continue;
      const double share = fill_per_pressure * offers_[i].pressure_bytes;
      const double take = std::min(want, share);
      grants_[i] += take;
      distributed += take;
    }
    cap_left -= distributed;
    if (distributed < 1.0) break;
  }

  for (std::size_t i = 0; i < n; ++i) {
    if (grants_[i] > 0.0) {
      sources_[i]->mem_granted(now, grants_[i]);
      granted_[i].total_bytes += static_cast<sim::Bytes>(grants_[i] + 0.5);
    }
    rate_ewma_[i].add(grants_[i] * grant_rate_scale_);
    pressure_ewma_[i].add(offers_[i].pressure_bytes);
  }

  // Latency model: device load latency from smoothed utilization (service
  // plus a bounded backlog penalty when demand persistently exceeds
  // capacity) and a contention wait from resident request bytes (Little).
  double served = 0.0;
  for (std::size_t i = 0; i < n; ++i) served += grants_[i];
  const double backlog_penalty = std::min((total_demand - served) * inv_quantum_cap_, 0.3);
  const double rho = served * inv_quantum_cap_ + std::max(backlog_penalty, 0.0);
  util_ewma_.add(rho);

  extra_latency_ = extra_latency_at(util_ewma_.value());
  queue_wait_ = sim::Time::seconds(total_pressure / cfg_.dram_bandwidth.bytes_per_sec());

  // Nothing offered and nothing resident: until a network-path source
  // wakes the controller, every quantum would repeat this one with zero
  // inputs. A host-local source (MApp) changes its offer with time alone.
  if (!has_host_local_ && total_demand == 0.0 && total_pressure == 0.0) timer_.set_idle(true);
}

}  // namespace hostcc::host
