// Per-host transport stack: owns connections, dispatches packets coming up
// from the host datapath, and injects outbound packets into the host's TX
// path. Also answers receive-window queries against the host's processing
// backlog (socket-buffer accounting).
#pragma once

#include <algorithm>
#include <cassert>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "host/host.h"
#include "net/packet.h"
#include "obs/flow_stats.h"
#include "obs/metrics.h"
#include "obs/profiler.h"
#include "sim/simulator.h"
#include "transport/connection.h"

namespace hostcc::transport {

class Stack {
 public:
  Stack(sim::Simulator& sim, host::HostModel& host, net::HostId id, TransportConfig cfg)
      : sim_(sim), host_(host), id_(id), cfg_(cfg) {
    host_.set_stack_rx([this](net::Packet& p) { dispatch(p); });
    host_.set_on_tx_drained([this](net::FlowId f) {
      auto it = conns_.find(f);
      if (it != conns_.end()) it->second->on_tx_drained();
    });
  }

  // Creates this endpoint of connection `flow` to `peer`. Both endpoints
  // must be created (one per host) with the same flow id.
  TcpConnection& connect(net::FlowId flow, net::HostId peer) {
    auto conn = std::make_unique<TcpConnection>(sim_, *this, flow, id_, peer, cfg_);
    conn->set_flow_stats(flow_stats_);
    auto [it, inserted] = conns_.emplace(flow, std::move(conn));
    assert(inserted && "duplicate flow id on this host");
    return *it->second;
  }

  // --- flow churn (workload engine) ---
  // Pooled open: reuses a retired connection's map node and TcpConnection
  // object when one is free (zero allocation at churn steady state), else
  // falls back to connect(). The recycled endpoint is fully reset.
  TcpConnection& open(net::FlowId flow, net::HostId peer) {
    ++opens_;
    if (free_.empty()) return connect(flow, peer);
    ++pool_reuses_;
    auto nh = std::move(free_.back());
    free_.pop_back();
    nh.key() = flow;
    TcpConnection* conn = nh.mapped().get();
    conn->reopen(flow, peer);
    conn->set_flow_stats(flow_stats_);
    const auto res = conns_.insert(std::move(nh));
    assert(res.inserted && "duplicate flow id on this host");
    (void)res;
    return *conn;
  }

  // Retires a connection into the reuse pool. Its cumulative Stats are
  // folded into the stack-wide retired totals first, so register_metrics
  // counters never move backwards across a close.
  void close(net::FlowId flow) {
    auto nh = conns_.extract(flow);
    assert(!nh.empty() && "close() of unknown flow");
    ++closes_;
    retired_.add(nh.mapped()->stats());
    nh.mapped()->quiesce_timers();
    free_.push_back(std::move(nh));
  }

  // Retires an endpoint whose message completed (the receiver got and
  // ACKed the FIN, or the sender saw everything ACKed) like close(), and
  // enters it into TIME-WAIT, remembering the flow's final ACK. Late
  // segments of the flow then count as time_wait_segments, not orphans:
  // a FIN or data retransmit (its sender missed the final ACK) is
  // re-ACKed, and an ACK that crossed the sender's own completion is
  // dropped. The re-ACK covers the segment, never past the final ACK: a
  // sender rewound by an RTO discards ACKs beyond what it has resent, so
  // it walks to the final ACK one resent segment at a time. The table
  // keeps the last kTimeWaitSlots flows retired this way; it exists once
  // an accept hook is set.
  void close_time_wait(net::FlowId flow) {
    const net::SeqNum final_ack = connection(flow).rcv_nxt();
    close(flow);
    if (time_wait_.empty()) return;
    time_wait_[time_wait_next_] = {flow, final_ack, true};
    time_wait_next_ = (time_wait_next_ + 1) % time_wait_.size();
  }

  // Passive-open hook: a data packet for an unknown flow that starts the
  // stream (seq 0) or was sent before the sender's first ACK (syn) is
  // offered to the hook, which may open the receiving endpoint; the packet
  // is then re-dispatched to it. Opening on syn keeps the segments after a
  // lost first segment: the endpoint buffers them out of order until the
  // retransmitted seq 0 fills the hole. The
  // workload engine uses this so receiver endpoints come into existence
  // only when a message actually arrives.
  void set_accept(std::function<void(const net::Packet&)> fn) {
    accept_ = std::move(fn);
    time_wait_.assign(kTimeWaitSlots, TimeWait{});
  }

  std::uint64_t opens() const { return opens_; }
  std::uint64_t closes() const { return closes_; }
  std::uint64_t pool_reuses() const { return pool_reuses_; }
  std::uint64_t orphan_packets() const { return orphan_packets_; }
  // Late segments of flows in TIME-WAIT (see close_time_wait).
  std::uint64_t time_wait_segments() const { return time_wait_segments_; }
  std::size_t pooled_connections() const { return free_.size(); }
  std::size_t live_connections() const { return conns_.size(); }

  // Live + retired transport counters (workload runs retire thousands of
  // connections; their history must not vanish from results).
  TcpConnection::Stats total_stats() const {
    TcpConnection::Stats t = retired_;
    for (const auto& [flow, conn] : conns_) t.add(conn->stats());
    return t;
  }

  // Per-flow lifecycle accounting shared across this stack's connections;
  // set before connections are created (null disables). The scenarios
  // point every stack at one shared FlowStats.
  void set_flow_stats(obs::FlowStats* fs) {
    flow_stats_ = fs;
    for (auto& [flow, conn] : conns_) conn->set_flow_stats(fs);
  }
  obs::FlowStats* flow_stats() const { return flow_stats_; }

  // Self-profiler attribution for transport dispatch (ACK processing,
  // reassembly). Detached handle by default.
  void set_profiler(obs::ProfHandle h) { prof_ = h; }

  TcpConnection& connection(net::FlowId flow) { return *conns_.at(flow); }
  bool has_connection(net::FlowId flow) const { return conns_.count(flow) > 0; }

  net::HostId id() const { return id_; }
  const TransportConfig& config() const { return cfg_; }
  sim::Simulator& simulator() { return sim_; }
  host::HostModel& host() { return host_; }

  // --- used by TcpConnection ---
  // Connections build their outbound packets directly in the host's pool
  // and hand the ref down; no Packet is copied on the egress path.
  void output(net::PacketRef p) { host_.send(std::move(p)); }
  net::PacketPool& packet_pool() { return host_.packet_pool(); }
  std::uint64_t next_packet_id() {
    // Packet ids pack (host id << 40 | per-host sequence). The sequence
    // must never spill into the host-id bits: at ~10M packets per simulated
    // second, 2^40 covers ~30 hours of simulated time, so this is a
    // wraparound guard, not a practical limit.
    ++pkt_seq_;
    assert(pkt_seq_ < (1ULL << 40) && "Packet::id sequence overflow into host-id bits");
    return (static_cast<std::uint64_t>(id_) << 40) | pkt_seq_;
  }
  sim::Bytes advertised_window(net::FlowId flow, sim::Bytes ooo_bytes) const {
    const sim::Bytes w = host_.rwnd_for(flow) - ooo_bytes;
    return w > 0 ? w : 0;
  }
  // TSQ: allow more data into the local egress queue only while this
  // flow's queued bytes stay under the limit (Linux TCP Small Queues).
  bool tx_queue_ok(net::FlowId flow) const {
    return host_.tx_queued_bytes(flow) < cfg_.tsq_limit_packets * cfg_.mtu;
  }

  // Stack-wide transport metrics: each counter sums the per-connection
  // Stats at snapshot time, so connections added after registration are
  // still covered.
  void register_metrics(obs::MetricsRegistry& reg, const std::string& prefix) {
    auto sum = [this](std::uint64_t TcpConnection::Stats::* field) {
      std::uint64_t total = retired_.*field;
      for (const auto& [flow, conn] : conns_) total += conn->stats().*field;
      return total;
    };
    reg.counter_fn(prefix + "/data_packets_sent",
                   [sum] { return sum(&TcpConnection::Stats::data_packets_sent); });
    reg.counter_fn(prefix + "/acks_sent", [sum] { return sum(&TcpConnection::Stats::acks_sent); });
    reg.counter_fn(prefix + "/fast_retransmits",
                   [sum] { return sum(&TcpConnection::Stats::fast_retransmits); });
    reg.counter_fn(prefix + "/timeouts", [sum] { return sum(&TcpConnection::Stats::timeouts); });
    reg.counter_fn(prefix + "/tlp_probes",
                   [sum] { return sum(&TcpConnection::Stats::tlp_probes); });
    reg.counter_fn(prefix + "/ce_received",
                   [sum] { return sum(&TcpConnection::Stats::ce_received); });
    reg.counter_fn(prefix + "/ece_received",
                   [sum] { return sum(&TcpConnection::Stats::ece_received); });
    reg.counter_fn(prefix + "/retransmitted_bytes", [this] {
      auto total = static_cast<std::uint64_t>(retired_.retransmitted_bytes);
      for (const auto& [flow, conn] : conns_)
        total += static_cast<std::uint64_t>(conn->stats().retransmitted_bytes);
      return total;
    });
    reg.gauge(prefix + "/connections",
              [this] { return static_cast<double>(conns_.size()); });
  }

 private:
  struct TimeWait {
    net::FlowId flow = 0;
    net::SeqNum final_ack = 0;
    bool used = false;
  };
  static constexpr std::size_t kTimeWaitSlots = 256;

  void dispatch(const net::Packet& p) {
    if (p.dst != id_) return;  // mis-delivered; fabric bug guard
    obs::ProfScope scope(prof_);
    auto it = conns_.find(p.flow);
    if (it == conns_.end() && accept_ && p.payload > 0 && (p.seq == 0 || p.syn)) {
      accept_(p);  // passive open; may insert the flow
      it = conns_.find(p.flow);
    }
    if (it != conns_.end()) {
      it->second->on_packet(p);
      return;
    }
    // A straggling FIN or data retransmit for a retired flow means the
    // sender never saw the final ACK (it was lost). Re-ACK it so the
    // sender's episode completes instead of RTO-looping against a closed
    // endpoint; a late ACK to a retired sender needs no answer. Only FINs
    // are answered once the flow has left TIME-WAIT.
    if (const TimeWait* tw = find_time_wait(p.flow)) {
      ++time_wait_segments_;
      if (p.payload > 0) send_bare_ack(p, std::min(p.end_seq(), tw->final_ack));
      return;
    }
    ++orphan_packets_;
    if (accept_ && p.payload > 0 && p.fin) send_bare_ack(p, p.end_seq());
  }

  // Newest record first: a flow id retired again after a reuse shadows its
  // older record.
  const TimeWait* find_time_wait(net::FlowId flow) const {
    const std::size_t n = time_wait_.size();
    for (std::size_t k = 1; k <= n; ++k) {
      const TimeWait& tw = time_wait_[(time_wait_next_ + n - k) % n];
      if (!tw.used) return nullptr;  // slots fill in order; the rest are unused
      if (tw.flow == flow) return &tw;
    }
    return nullptr;
  }

  void send_bare_ack(const net::Packet& p, net::SeqNum ack) {
    net::PacketRef ar = packet_pool().make();
    net::Packet& a = *ar;
    a.id = next_packet_id();
    a.flow = p.flow;
    a.src = id_;
    a.dst = p.src;
    a.payload = 0;
    a.size = net::kHeaderBytes;
    a.has_ack = true;
    a.ack = ack;
    a.rwnd = cfg_.max_cwnd;
    a.sent_at = sim_.now();
    output(std::move(ar));
  }

  sim::Simulator& sim_;
  host::HostModel& host_;
  net::HostId id_;
  TransportConfig cfg_;
  using ConnMap = std::unordered_map<net::FlowId, std::unique_ptr<TcpConnection>>;
  ConnMap conns_;
  // Retired-connection pool: extracted map nodes (object + node in one),
  // so open/close churn recycles both without touching the allocator once
  // the pool reaches its high-water mark.
  std::vector<ConnMap::node_type> free_;
  TcpConnection::Stats retired_;
  std::function<void(const net::Packet&)> accept_;
  std::uint64_t opens_ = 0;
  std::uint64_t closes_ = 0;
  std::uint64_t pool_reuses_ = 0;
  std::uint64_t orphan_packets_ = 0;
  std::uint64_t time_wait_segments_ = 0;
  std::vector<TimeWait> time_wait_;  // ring; time_wait_next_ is the oldest
  std::size_t time_wait_next_ = 0;
  std::uint64_t pkt_seq_ = 0;
  obs::FlowStats* flow_stats_ = nullptr;
  obs::ProfHandle prof_;
};

}  // namespace hostcc::transport
