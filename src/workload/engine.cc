#include "workload/engine.h"

#include <cassert>

#include "apps/rpc_app.h"

namespace hostcc::workload {

HostWorkload::HostWorkload(sim::Simulator& sim, transport::Stack& stack, const Params& p)
    : sim_(sim),
      stack_(stack),
      p_(p),
      rng_(p.seed),
      slots_(static_cast<std::size_t>(p.n_hosts) *
             static_cast<std::size_t>(p.cfg->slots_per_pair)) {
  assert(p_.n_hosts >= 2 && "workload needs at least two hosts");
  assert(p_.rate_hz > 0.0);
  // MMPP normalization: with the ON state at burst_factor times the OFF
  // rate and stationary occupancies pi = dwell / (on + off), solving
  //   pi_off * r_off + pi_on * b * r_off = rate
  // keeps the long-run average at the configured load.
  const double on = p_.cfg->burst_on.sec();
  const double off = p_.cfg->burst_off.sec();
  const double pi_on = on / (on + off);
  const double pi_off = 1.0 - pi_on;
  rate_off_hz_ = p_.rate_hz / (pi_off + p_.cfg->burst_factor * pi_on);
  rate_on_hz_ = p_.cfg->burst_factor * rate_off_hz_;
}

void HostWorkload::start(sim::Time at) {
  burst_on_ = false;
  burst_until_ = at + rng_.exponential_time(p_.cfg->burst_off);
  sim_.at(at, [this] { schedule_next(); });
}

double HostWorkload::rate_multiplier_now() const {
  double mult = 1.0;
  for (const auto& [from, m] : p_.cfg->profile) {
    if (from > sim_.now()) break;
    mult = m;
  }
  return mult;
}

void HostWorkload::schedule_next() {
  double rate = p_.rate_hz;
  if (p_.cfg->arrival == ArrivalKind::kMmpp) {
    // Advance the two-state modulation to the present before drawing.
    while (sim_.now() >= burst_until_) {
      burst_on_ = !burst_on_;
      burst_until_ =
          burst_until_ + rng_.exponential_time(burst_on_ ? p_.cfg->burst_on : p_.cfg->burst_off);
    }
    rate = burst_on_ ? rate_on_hz_ : rate_off_hz_;
  }
  rate *= rate_multiplier_now();
  if (rate <= 0.0) return;
  sim_.after(sim::Time::seconds(rng_.exponential(1.0 / rate)), [this] { on_arrival(); });
}

void HostWorkload::on_arrival() {
  schedule_next();  // open loop: the next arrival does not wait on this one

  // Uniform destination among the other hosts; size from the CDF. Both are
  // drawn before slot selection so the RNG stream is a pure function of
  // the arrival sequence.
  std::int64_t d = rng_.uniform_int(0, p_.n_hosts - 2);
  if (d >= p_.self) ++d;
  const sim::Bytes bytes = p_.cdf->sample(rng_.uniform());

  const int spp = p_.cfg->slots_per_pair;
  const int base = static_cast<int>(d) * spp;
  int slot = -1;
  for (int k = 0; k < spp; ++k) {
    const Slot& s = slots_[static_cast<std::size_t>(base + k)];
    if (!s.in_use && sim_.now() >= s.free_at) {
      slot = base + k;
      break;
    }
  }
  if (slot < 0) {
    // Every slot for this destination is busy or cooling down; the
    // open-loop process drops the arrival rather than queueing it.
    ++skipped_;
    return;
  }

  slots_[static_cast<std::size_t>(slot)].in_use = true;
  transport::TcpConnection& conn =
      stack_.open(flow_of_slot(slot), static_cast<net::HostId>(d));
  conn.set_fin_on_complete(true);
  conn.set_on_send_complete([this, slot] { on_flow_complete(slot); });
  ++started_;
  bytes_offered_ += bytes;
  conn.write(bytes);
}

void HostWorkload::on_flow_complete(int slot) {
  slots_[static_cast<std::size_t>(slot)].in_use = false;
  slots_[static_cast<std::size_t>(slot)].free_at = sim_.now() + p_.cfg->reuse_cooldown;
  ++completed_;
  // The completion fires inside process_ack; retire the endpoint from an
  // immediate event instead of underneath the transport's own call stack.
  transport::Stack* s = &stack_;
  const net::FlowId flow = flow_of_slot(slot);
  sim_.after(sim::Time::zero(), [s, flow] { s->close_time_wait(flow); });
}

RpcTreeRoot::RpcTreeRoot(sim::Simulator& sim, std::vector<transport::TcpConnection*> children,
                         const RpcTreeConfig& cfg, std::uint64_t seed)
    : sim_(sim),
      children_(std::move(children)),
      cfg_(cfg),
      rng_(seed),
      received_(children_.size(), 0) {
  assert(!children_.empty());
  for (std::size_t i = 0; i < children_.size(); ++i) {
    children_[i]->set_on_delivered(
        [this, i = static_cast<int>(i)](sim::Bytes n) { on_child_bytes(i, n); });
  }
}

void RpcTreeRoot::start(sim::Time at) { sim_.at(at, [this] { schedule_next(); }); }

void RpcTreeRoot::schedule_next() {
  sim_.after(sim::Time::seconds(rng_.exponential(1.0 / cfg_.rate_hz)), [this] { on_arrival(); });
}

void RpcTreeRoot::on_arrival() {
  schedule_next();
  if (pending_children_ > 0) {
    // The previous fan-in has not closed; an open-loop tree invocation is
    // skipped, not queued (one outstanding tree per root).
    ++skipped_;
    return;
  }
  ++started_;
  pending_children_ = static_cast<int>(children_.size());
  issued_at_ = sim_.now();
  for (auto& r : received_) r = 0;
  for (transport::TcpConnection* c : children_) c->write(apps::kRpcRequestBytes);
}

void RpcTreeRoot::on_child_bytes(int child, sim::Bytes n) {
  if (pending_children_ == 0) return;
  auto& got = received_[static_cast<std::size_t>(child)];
  if (got >= cfg_.response_bytes) return;  // this child already reported in
  got += n;
  if (got >= cfg_.response_bytes && --pending_children_ == 0) {
    latency_.record_time(sim_.now() - issued_at_);
    ++completed_;
  }
}

}  // namespace hostcc::workload
