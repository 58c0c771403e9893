#include "transport/connection.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/log.h"
#include "transport/stack.h"

namespace hostcc::transport {

TcpConnection::TcpConnection(sim::Simulator& sim, Stack& stack, net::FlowId flow,
                             net::HostId self, net::HostId peer, const TransportConfig& cfg)
    : sim_(sim),
      stack_(stack),
      flow_(flow),
      self_(self),
      peer_(peer),
      cfg_(cfg),
      cc_(make_cc(cfg.cc, cfg.cc_config())),
      peer_rwnd_(cfg.max_cwnd),
      rto_(cfg.min_rto) {}

TcpConnection::~TcpConnection() { cancel_timers(); }

void TcpConnection::write(sim::Bytes n) {
  if (n > 0 && !infinite_source_ && !episode_open_ && write_limit_ == snd_una_) {
    episode_open_ = true;
    episode_base_ = snd_una_;
    if (fs_) fs_->episode_started(flow_, self_, sim_.now());
  }
  write_limit_ += n;
  try_send();
}

void TcpConnection::set_infinite_source(bool on) {
  if (on && episode_open_) {
    // The stream is no longer a discrete message; drop the open episode.
    episode_open_ = false;
    if (fs_) fs_->episode_abandoned(flow_, self_);
  }
  infinite_source_ = on;
  if (on) try_send();
}

sim::Bytes TcpConnection::send_window() const {
  return std::min<sim::Bytes>(cc_->cwnd(), std::max<sim::Bytes>(peer_rwnd_, cfg_.mss()));
}

void TcpConnection::try_send() {
  const sim::Bytes mss = cfg_.mss();
  while (stack_.tx_queue_ok(flow_)) {  // TSQ: bound the local egress queue
    if (infinite_source_ && write_limit_ < snd_nxt_ + mss) write_limit_ = snd_nxt_ + mss;
    const net::SeqNum app_limit = write_limit_;
    const net::SeqNum win_limit = snd_una_ + send_window();
    const sim::Bytes len = std::min<sim::Bytes>(mss, std::min(app_limit, win_limit) - snd_nxt_);
    if (len <= 0) break;
    // Nagle/TSO-style coalescing: a sub-MSS segment is sent only when the
    // application buffer is the limit (stream tail), never the window —
    // otherwise every small window opening emits a tiny packet.
    if (len < mss && win_limit < app_limit) break;
    // Advance before emitting: the egress path may synchronously drain the
    // TSQ queue and re-enter try_send(), which must see the new snd_nxt.
    const net::SeqNum seq = snd_nxt_;
    snd_nxt_ += len;
    send_segment(seq, len, /*is_retx=*/false, /*is_tlp=*/false);
  }
  arm_timers();
}

void TcpConnection::send_segment(net::SeqNum seq, sim::Bytes len, bool is_retx, bool is_tlp) {
  // Build directly in the host's packet pool; the ref rides the TX path
  // and fabric without the struct ever being copied.
  net::PacketRef pr = stack_.packet_pool().make();
  net::Packet& p = *pr;
  p.id = stack_.next_packet_id();
  p.flow = flow_;
  p.src = self_;
  p.dst = peer_;
  p.payload = len;
  p.size = len + net::kHeaderBytes;
  p.seq = seq;
  p.ecn = cc_->ecn_capable() ? net::Ecn::kEct0 : net::Ecn::kNotEct;
  p.sent_at = sim_.now();
  p.retransmit = is_retx;
  p.tlp_probe = is_tlp;
  // Flow-churn mode: the final segment of the message carries FIN so the
  // receiver can retire its endpoint once the stream is complete. A
  // retransmit or TLP of the tail recomputes it identically.
  p.fin = fin_on_complete_ && !infinite_source_ && seq + len == write_limit_;
  // Until the first ACK, any segment may be the first the receiver sees
  // (the fabric can drop seq 0): each one may open the receiving endpoint.
  p.syn = fin_on_complete_ && snd_una_ == 0;

  auto it = segs_.find(seq);
  if (it == segs_.end()) {
    segs_.emplace(seq, Segment{.len = len,
                               .sent_at = sim_.now(),
                               .retransmitted = is_retx,
                               .sacked = false,
                               .retx_epoch = is_retx ? recovery_epoch_ : 0});
  } else {
    it->second.sent_at = sim_.now();
    it->second.retransmitted = true;  // keeps Karn's rule honest
  }

  ++stats_.data_packets_sent;
  if (is_retx) {
    stats_.retransmitted_bytes += len;
    if (fs_) fs_->retransmitted(flow_, self_, len);
  }
  stack_.output(std::move(pr));
}

TcpConnection::TransferState TcpConnection::export_state() const {
  TransferState st;
  st.snd_una = snd_una_;
  st.snd_nxt = snd_nxt_;
  st.write_limit = write_limit_;
  st.infinite_source = infinite_source_;
  st.episode_open = episode_open_;
  st.episode_base = episode_base_;
  st.cwnd = static_cast<double>(cc_->cwnd());
  st.srtt = srtt_;
  st.rttvar = rttvar_;
  st.rcv_nxt = rcv_nxt_;
  st.ooo.assign(ooo_.begin(), ooo_.end());
  st.delivered_bytes = delivered_bytes_;
  return st;
}

void TcpConnection::restore(const TransferState& st) {
  cancel_timers();
  segs_.clear();
  dup_acks_ = 0;
  in_recovery_ = false;
  recovery_point_ = 0;
  rto_backoff_ = 1;

  // Go-back-N handoff: rewind to the cumulative ACK point and resend the
  // unacked range. Packets the previous tier still has in flight will be
  // discarded as duplicates at the receiver; ACKs for them may advance
  // snd_una past snd_nxt, which process_ack clamps.
  snd_una_ = st.snd_una;
  snd_nxt_ = st.snd_una;
  write_limit_ = st.write_limit;
  infinite_source_ = st.infinite_source;
  episode_open_ = st.episode_open;
  episode_base_ = st.episode_base;
  if (st.cwnd > 0.0) cc_->restore_cwnd(st.cwnd);
  srtt_ = st.srtt;
  rttvar_ = st.rttvar;
  rto_ = srtt_ > sim::Time::zero() ? std::max(cfg_.min_rto, srtt_ + rttvar_ * 4.0)
                                   : cfg_.min_rto;

  rcv_nxt_ = st.rcv_nxt;
  ooo_.clear();
  ooo_bytes_ = 0;
  for (const auto& [b, e] : st.ooo) {
    ooo_.emplace(b, e);
    ooo_bytes_ += e - b;
  }
  delivered_bytes_ = st.delivered_bytes;

  try_send();  // resume transmission under the restored window
}

// Pooled reuse (Stack::open): every field returns to its constructed value
// while the allocated capacity — map_mem_ pool chunks, scratch buffers, the
// cc object — is retained, so churning flows through a warmed pool never
// touches the allocator. Stats reset too: Stack::close folded the previous
// incarnation's counters into the stack-wide retired totals.
void TcpConnection::reopen(net::FlowId flow, net::HostId peer) {
  cancel_timers();
  flow_ = flow;
  peer_ = peer;
  cc_->reset();

  snd_una_ = 0;
  snd_nxt_ = 0;
  write_limit_ = 0;
  infinite_source_ = false;
  episode_open_ = false;
  episode_base_ = 0;
  fs_ = nullptr;
  peer_rwnd_ = cfg_.max_cwnd;
  segs_.clear();
  dup_acks_ = 0;
  in_recovery_ = false;
  recovery_point_ = 0;
  recovery_epoch_ = 0;

  srtt_ = sim::Time::zero();
  rttvar_ = sim::Time::zero();
  rto_ = cfg_.min_rto;
  rto_backoff_ = 1;

  fin_on_complete_ = false;
  on_fin_ = nullptr;

  rcv_nxt_ = 0;
  fin_seq_ = -1;
  ooo_.clear();
  ooo_bytes_ = 0;
  delivered_bytes_ = 0;

  on_delivered_ = nullptr;
  on_send_complete_ = nullptr;
  stats_ = {};
}

void TcpConnection::on_packet(const net::Packet& p) {
  if (p.payload > 0) {
    receive_data(p);
  } else if (p.has_ack) {
    process_ack(p);
  }
}

// ---------------------------------------------------------------- receiver

void TcpConnection::receive_data(const net::Packet& p) {
  if (p.ecn == net::Ecn::kCe) ++stats_.ce_received;
  if (p.fin) fin_seq_ = p.end_seq();  // message boundary (possibly out of order)

  const net::SeqNum begin = p.seq;
  const net::SeqNum end = p.end_seq();

  if (end > rcv_nxt_) {
    if (begin <= rcv_nxt_) {
      // In-order (possibly partially duplicate) data: advance rcv_nxt and
      // absorb any out-of-order intervals that become contiguous.
      net::SeqNum advance_to = end;
      auto it = ooo_.begin();
      while (it != ooo_.end() && it->first <= advance_to) {
        advance_to = std::max(advance_to, it->second);
        ooo_bytes_ -= it->second - it->first;
        it = ooo_.erase(it);
      }
      const sim::Bytes newly = advance_to - rcv_nxt_;
      rcv_nxt_ = advance_to;
      delivered_bytes_ += newly;
      if (fs_ && newly > 0) fs_->bytes_delivered(flow_, peer_, sim_.now(), newly);
      if (on_delivered_) on_delivered_(newly);
    } else {
      // Hole before this segment: stash as an out-of-order interval.
      net::SeqNum b = begin, e = end;
      auto it = ooo_.lower_bound(b);
      if (it != ooo_.begin()) {
        auto prev = std::prev(it);
        if (prev->second >= b) {
          b = prev->first;
          e = std::max(e, prev->second);
          ooo_bytes_ -= prev->second - prev->first;
          it = ooo_.erase(prev);
        }
      }
      while (it != ooo_.end() && it->first <= e) {
        e = std::max(e, it->second);
        ooo_bytes_ -= it->second - it->first;
        it = ooo_.erase(it);
      }
      ooo_.emplace(b, e);
      ooo_bytes_ += e - b;
    }
  }
  send_ack(p);
  // The stream has advanced through the FIN and its ACK is on the wire:
  // the message is complete and this endpoint can be retired. Fire last —
  // the callback typically schedules a close of this connection.
  if (fin_seq_ >= 0 && rcv_nxt_ >= fin_seq_) {
    fin_seq_ = -1;
    if (on_fin_) on_fin_();
  }
}

void TcpConnection::send_ack(const net::Packet& trigger) {
  net::PacketRef ar = stack_.packet_pool().make();
  net::Packet& a = *ar;
  a.id = stack_.next_packet_id();
  a.flow = flow_;
  a.src = self_;
  a.dst = peer_;
  a.payload = 0;
  a.size = net::kHeaderBytes;
  a.has_ack = true;
  a.ack = rcv_nxt_;
  a.ece = trigger.ecn == net::Ecn::kCe;  // per-packet exact ECN feedback
  a.rwnd = stack_.advertised_window(flow_, ooo_bytes_);
  // SACK option: report up to 3 out-of-order intervals.
  for (const auto& [b, e] : ooo_) {
    if (a.sack_count >= static_cast<int>(a.sack.size())) break;
    a.sack[a.sack_count++] = {b, e};
  }
  a.ts_echo = trigger.sent_at;
  a.ts_echo_valid = true;
  a.ts_echo_retx = trigger.retransmit;
  a.sent_at = sim_.now();

  ++stats_.acks_sent;
  stack_.output(std::move(ar));
}

// ------------------------------------------------------------------ sender

void TcpConnection::apply_sack(const net::Packet& p) {
  for (int i = 0; i < p.sack_count; ++i) {
    const auto [b, e] = p.sack[static_cast<std::size_t>(i)];
    for (auto it = segs_.lower_bound(b); it != segs_.end() && it->first < e; ++it) {
      if (it->first + it->second.len <= e) it->second.sacked = true;
    }
  }
}

sim::Bytes TcpConnection::sacked_bytes_above_una() const {
  sim::Bytes n = 0;
  for (const auto& [seq, seg] : segs_) {
    if (seg.sacked) n += seg.len;
  }
  return n;
}

sim::Time TcpConnection::rack_window() const {
  const sim::Time base = srtt_ > sim::Time::zero() ? srtt_ : cfg_.min_rto;
  return base + base * 0.25;
}

// Recovery must stay self-clocking even when no ACKs arrive (all repairs
// lost in a buffer-full episode): a RACK-style reordering timer keeps
// probing the holes, so a wedged recovery repairs in ~srtt instead of
// stalling until the 200ms-minimum RTO (RFC 8985's reo timer).
void TcpConnection::arm_rack_timer() {
  if (!in_recovery_) return;
  if (rack_timer_.pending()) return;
  rack_timer_ = sim_.after(rack_window(), [this] {
    if (!in_recovery_) return;
    retransmit_next_hole();
    arm_rack_timer();
  });
}

void TcpConnection::enter_recovery() {
  in_recovery_ = true;
  recovery_point_ = snd_nxt_;
  ++recovery_epoch_;
  ++stats_.fast_retransmits;
  cc_->on_loss();
  retransmit_next_hole();
  arm_rack_timer();
}

// SACK-based loss repair: resend the lowest unsacked segment below the
// highest SACKed sequence, at most one per incoming ACK (ACK-clocked).
// A segment already retransmitted this epoch becomes eligible again once
// a RACK-style reordering window has passed without it being cumulatively
// or selectively acknowledged — lost retransmissions must not wedge the
// connection until the (200ms minimum) RTO while the ACK clock still runs.
void TcpConnection::retransmit_next_hole() {
  net::SeqNum highest_sacked = -1;
  for (auto it = segs_.rbegin(); it != segs_.rend(); ++it) {
    if (it->second.sacked) {
      highest_sacked = it->first;
      break;
    }
  }
  const sim::Time rack_wnd = rack_window();
  for (auto& [seq, seg] : segs_) {
    if (seq > highest_sacked && seq != snd_una_) break;
    if (seg.sacked) continue;
    if (seg.retx_epoch == recovery_epoch_ && sim_.now() - seg.sent_at < rack_wnd) continue;
    seg.retx_epoch = recovery_epoch_;
    send_segment(seq, seg.len, /*is_retx=*/true, /*is_tlp=*/false);
    return;
  }
}

void TcpConnection::process_ack(const net::Packet& p) {
  // Churn guard: after a close/reopen, a duplicate ACK from the flow id's
  // previous incarnation can still straggle in carrying an ack beyond
  // anything this incarnation sent; real TCP discards such ACKs. Gated on
  // fin_on_complete_ — tier-transfer restores legitimately receive ACKs
  // past the rewound snd_nxt and rely on the clamp below instead.
  if (fin_on_complete_ && p.ack > snd_nxt_) return;
  peer_rwnd_ = p.rwnd;
  if (p.ece) ++stats_.ece_received;
  apply_sack(p);

  if (p.ack > snd_una_) {
    const sim::Bytes newly = p.ack - snd_una_;
    snd_una_ = p.ack;
    // After a tier-transfer restore() the previous tier's in-flight packets
    // can be ACKed past our rewound send cursor; never let snd_nxt lag.
    if (snd_nxt_ < snd_una_) snd_nxt_ = snd_una_;
    dup_acks_ = 0;
    rto_backoff_ = 1;

    // Drop fully-acked segments; trim a partially-acked head.
    while (!segs_.empty()) {
      auto head = segs_.begin();
      const net::SeqNum seg_end = head->first + head->second.len;
      if (seg_end <= snd_una_) {
        segs_.erase(head);
      } else if (head->first < snd_una_) {
        Segment rest = head->second;
        rest.len = seg_end - snd_una_;
        segs_.erase(head);
        segs_.emplace(snd_una_, rest);
        break;
      } else {
        break;
      }
    }

    // RTT sample (Karn's rule: never from retransmitted data).
    sim::Time rtt = sim::Time::zero();
    if (p.ts_echo_valid && !p.ts_echo_retx) {
      rtt = sim_.now() - p.ts_echo;
      if (srtt_ == sim::Time::zero()) {
        srtt_ = rtt;
        rttvar_ = rtt / 2;
      } else {
        const sim::Time err = rtt > srtt_ ? rtt - srtt_ : srtt_ - rtt;
        rttvar_ = rttvar_ * 0.75 + err * 0.25;
        srtt_ = srtt_ * 0.875 + rtt * 0.125;
      }
      rto_ = std::max(cfg_.min_rto, srtt_ + rttvar_ * 4.0);
    }

    cc_->on_ack(newly, p.ece, rtt, in_recovery_);

    cancel_timers();  // restart retransmission timers from this ACK
    if (in_recovery_) {
      if (snd_una_ >= recovery_point_) {
        in_recovery_ = false;
      } else {
        retransmit_next_hole();  // partial ACK: keep repairing
        arm_rack_timer();
      }
    }
    arm_timers();
    try_send();
    if (episode_open_ && !infinite_source_ && snd_una_ == write_limit_) {
      episode_open_ = false;
      if (fs_) fs_->episode_completed(flow_, self_, sim_.now(), snd_una_ - episode_base_);
      // May synchronously write() the next message, opening a new episode.
      if (on_send_complete_) on_send_complete_();
    }
    return;
  }

  if (p.ack == snd_una_ && !segs_.empty()) {
    ++dup_acks_;
    const bool sack_loss = sacked_bytes_above_una() >= 3 * cfg_.mss();
    if (!in_recovery_ && (dup_acks_ >= 3 || sack_loss)) {
      enter_recovery();
      arm_timers();
    } else if (in_recovery_) {
      retransmit_next_hole();  // ACK-clocked repair
    }
  }
  // A window update may unblock sending even without new data acked.
  try_send();
}

void TcpConnection::arm_timers() {
  if (segs_.empty()) {
    cancel_timers();
    return;
  }
  // Linux-style: while TLP is armed it substitutes for the RTO timer; the
  // probe itself (re)arms the RTO. TLP is armed only with >1 packet in
  // flight (§2.2's observation about small RPCs timing out).
  const bool tlp_eligible = cfg_.tlp_enabled && inflight_packets() > 1 && !in_recovery_ &&
                            srtt_ > sim::Time::zero();
  if (tlp_eligible) {
    if (tlp_deadline_ == sim::Time::max()) {
      rto_deadline_ = sim::Time::max();
      const sim::Time pto = std::max(srtt_ * 2.0, cfg_.tlp_min);
      schedule_tlp(sim_.now() + pto);
    }
  } else if (rto_deadline_ == sim::Time::max()) {
    tlp_deadline_ = sim::Time::max();
    schedule_rto(sim_.now() + rto_ * static_cast<double>(rto_backoff_));
  }
}

// Timers are lazy deadlines (see connection.h): arming just moves the
// deadline; the scheduled event re-checks it when it fires and either acts,
// re-arms for the remainder, or no-ops if disarmed. ACK clocking moves the
// deadline thousands of times per RTO, so this trades per-ACK event-heap
// cancel+push for one push per deadline chase.
void TcpConnection::cancel_timers() {
  rto_deadline_ = sim::Time::max();
  tlp_deadline_ = sim::Time::max();
  rack_timer_.cancel();
}

void TcpConnection::schedule_rto(sim::Time deadline) {
  rto_deadline_ = deadline;
  // A pending event that fires at or before the deadline re-checks then.
  if (rto_timer_.pending() && rto_event_at_ <= deadline) return;
  rto_timer_.cancel();
  rto_event_at_ = deadline;
  rto_timer_ = sim_.at(deadline, [this] { rto_event(); });
}

void TcpConnection::rto_event() {
  if (rto_deadline_ == sim::Time::max()) return;  // disarmed since scheduling
  if (sim_.now() < rto_deadline_) {               // deadline moved later: chase it
    rto_event_at_ = rto_deadline_;
    rto_timer_ = sim_.at(rto_deadline_, [this] { rto_event(); });
    return;
  }
  rto_deadline_ = sim::Time::max();
  on_rto();
}

void TcpConnection::schedule_tlp(sim::Time deadline) {
  tlp_deadline_ = deadline;
  if (tlp_timer_.pending() && tlp_event_at_ <= deadline) return;
  tlp_timer_.cancel();
  tlp_event_at_ = deadline;
  tlp_timer_ = sim_.at(deadline, [this] { tlp_event(); });
}

void TcpConnection::tlp_event() {
  if (tlp_deadline_ == sim::Time::max()) return;
  if (sim_.now() < tlp_deadline_) {
    tlp_event_at_ = tlp_deadline_;
    tlp_timer_ = sim_.at(tlp_deadline_, [this] { tlp_event(); });
    return;
  }
  tlp_deadline_ = sim::Time::max();
  on_tlp();
}


void TcpConnection::on_tlp() {
  if (segs_.empty()) return;
  // Probe with the highest-sequence unacked segment.
  auto last = std::prev(segs_.end());
  ++stats_.tlp_probes;
  send_segment(last->first, last->second.len, /*is_retx=*/true, /*is_tlp=*/true);
  schedule_rto(sim_.now() + rto_ * static_cast<double>(rto_backoff_));
}

void TcpConnection::on_rto() {
  if (segs_.empty()) return;
  ++stats_.timeouts;
  OBS_LOG(obs::LogLevel::kDebug, sim_.now(), "transport/connection",
          "RTO flow=%llu backoff=%d inflight=%lld", static_cast<unsigned long long>(flow_),
          rto_backoff_, static_cast<long long>(in_flight()));
  cc_->on_timeout();
  in_recovery_ = false;
  dup_acks_ = 0;
  rto_backoff_ = std::min(rto_backoff_ * 2, 64);

  // Go-back-N: treat everything in flight as lost and resend as the window
  // allows. The receiver discards duplicates.
  segs_.clear();
  snd_nxt_ = snd_una_;
  try_send();
  arm_timers();
}

}  // namespace hostcc::transport
