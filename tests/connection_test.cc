// Tests for TcpConnection over the two-host testbed: reliable in-order
// delivery, loss recovery (fast retransmit, SACK repair, RACK timer, RTO,
// TLP), RTT estimation, flow control, and bidirectional streams.
#include <gtest/gtest.h>

#include "testbed.h"

namespace hostcc::transport {
namespace {

using hostcc::testing::Testbed;

TEST(ConnectionTest, TransfersExactByteCount) {
  Testbed tb;
  auto [ca, cb] = tb.connect(1);
  sim::Bytes got = 0;
  cb->set_on_delivered([&](sim::Bytes n) { got += n; });
  ca->write(1'000'000);
  tb.run_for(sim::Time::milliseconds(20));
  EXPECT_EQ(got, 1'000'000);
  EXPECT_EQ(cb->delivered_bytes(), 1'000'000);
  EXPECT_EQ(ca->in_flight(), 0);
}

TEST(ConnectionTest, SmallWriteDeliversPromptly) {
  Testbed tb;
  auto [ca, cb] = tb.connect(1);
  sim::Time done;
  cb->set_on_delivered([&](sim::Bytes) { done = tb.sim.now(); });
  ca->write(100);
  tb.run_for(sim::Time::milliseconds(5));
  EXPECT_EQ(cb->delivered_bytes(), 100);
  // One-way: ~5us pipe + host datapath; well under 100us.
  EXPECT_LT(done.us(), 100.0);
}

TEST(ConnectionTest, InfiniteSourceSaturates) {
  Testbed tb;
  auto [ca, cb] = tb.connect(1);
  ca->set_infinite_source(true);
  tb.run_for(sim::Time::milliseconds(30));
  // Mark, then measure goodput over 20ms: one flow, one CPU core at the
  // receiver => ~25-28Gbps (core-limited), far above zero.
  const sim::Bytes before = cb->delivered_bytes();
  tb.run_for(sim::Time::milliseconds(20));
  const double gbps =
      static_cast<double>(cb->delivered_bytes() - before) * 8.0 / 20e-3 / 1e9;
  EXPECT_GT(gbps, 15.0);
}

TEST(ConnectionTest, RttEstimateTracksPathDelay) {
  Testbed tb;
  auto [ca, cb] = tb.connect(1);
  (void)cb;
  ca->write(100'000);
  tb.run_for(sim::Time::milliseconds(10));
  // One-way 5us pipe x2 + host datapaths: srtt in the 12-60us range.
  EXPECT_GT(ca->srtt().us(), 10.0);
  EXPECT_LT(ca->srtt().us(), 80.0);
}

TEST(ConnectionTest, BidirectionalStreamsAreIndependent) {
  Testbed tb;
  auto [ca, cb] = tb.connect(1);
  sim::Bytes a_got = 0, b_got = 0;
  ca->set_on_delivered([&](sim::Bytes n) { a_got += n; });
  cb->set_on_delivered([&](sim::Bytes n) { b_got += n; });
  ca->write(300'000);
  cb->write(200'000);
  tb.run_for(sim::Time::milliseconds(20));
  EXPECT_EQ(b_got, 300'000);
  EXPECT_EQ(a_got, 200'000);
}

TEST(ConnectionTest, ManyConnectionsShareFairly) {
  Testbed tb;
  std::vector<TcpConnection*> rx;
  for (net::FlowId f = 1; f <= 4; ++f) {
    auto [ca, cb] = tb.connect(f);
    ca->set_infinite_source(true);
    rx.push_back(cb);
  }
  tb.run_for(sim::Time::milliseconds(60));
  std::vector<sim::Bytes> marks;
  for (auto* c : rx) marks.push_back(c->delivered_bytes());
  tb.run_for(sim::Time::milliseconds(40));
  double min_g = 1e18, max_g = 0;
  for (std::size_t i = 0; i < rx.size(); ++i) {
    const double g = static_cast<double>(rx[i]->delivered_bytes() - marks[i]);
    min_g = std::min(min_g, g);
    max_g = std::max(max_g, g);
  }
  EXPECT_GT(min_g / max_g, 0.5);  // no starvation among equals
}

// Loss-injection harness: a lossy pipe that drops chosen data packets.
class LossyTestbed {
 public:
  explicit LossyTestbed(std::function<bool(const net::Packet&)> drop)
      : tb_(), drop_(std::move(drop)) {
    tb_.a_host.set_egress([this](const net::Packet& p) {
      if (!(p.payload > 0 && drop_(p))) {  // inject loss a->b
        tb_.sim.after(sim::Time::microseconds(5),
                      [this, p] { tb_.b_host.receive_from_wire(p); });
      }
      tb_.a_host.wire_dequeued(p);  // after scheduling: keeps wire order
    });
  }
  Testbed& tb() { return tb_; }

 private:
  Testbed tb_;
  std::function<bool(const net::Packet&)> drop_;
};

TEST(ConnectionLossTest, SingleLossRepairedBySackFastRetransmit) {
  int count = 0;
  LossyTestbed lt([&](const net::Packet& p) { return !p.retransmit && ++count == 20; });
  auto [ca, cb] = lt.tb().connect(1);
  ca->write(500'000);
  lt.tb().run_for(sim::Time::milliseconds(50));
  EXPECT_EQ(cb->delivered_bytes(), 500'000);
  EXPECT_GE(ca->stats().fast_retransmits, 1u);
  EXPECT_EQ(ca->stats().timeouts, 0u);  // recovered without RTO
}

TEST(ConnectionLossTest, BurstLossRepairedWithoutRto) {
  int count = 0;
  // Drop 12 consecutive original transmissions mid-stream.
  LossyTestbed lt([&](const net::Packet& p) {
    if (p.retransmit) return false;
    ++count;
    return count >= 30 && count < 42;
  });
  auto [ca, cb] = lt.tb().connect(1);
  ca->write(1'000'000);
  lt.tb().run_for(sim::Time::milliseconds(100));
  EXPECT_EQ(cb->delivered_bytes(), 1'000'000);
  EXPECT_EQ(ca->stats().timeouts, 0u);  // SACK + RACK repair, no 200ms stall
}

TEST(ConnectionLossTest, LostRetransmitRepairedByRackTimer) {
  int originals = 0;
  int retx = 0;
  // Drop one original AND the first retransmission of anything.
  LossyTestbed lt([&](const net::Packet& p) {
    if (p.retransmit) return ++retx == 1;
    return ++originals == 10;
  });
  auto [ca, cb] = lt.tb().connect(1);
  ca->write(400'000);
  lt.tb().run_for(sim::Time::milliseconds(100));
  EXPECT_EQ(cb->delivered_bytes(), 400'000);
  EXPECT_EQ(ca->stats().timeouts, 0u);
  EXPECT_GE(ca->stats().retransmitted_bytes, 2 * 4030);
}

// Flow churn: the fabric drops a message's first segment. The segments
// behind it were sent before any ACK, so they carry syn and the receiver
// opens its endpoint on the first one that arrives instead of discarding
// them; the retransmitted seq 0 fills the hole. Nothing is orphaned and
// every byte is delivered exactly once.
TEST(ConnectionLossTest, ChurnFlowSurvivesLostFirstSegment) {
  LossyTestbed lt([](const net::Packet& p) { return p.seq == 0 && !p.retransmit; });
  Testbed& tb = lt.tb();
  constexpr net::FlowId kFlow = 7;
  constexpr sim::Bytes kMessage = 20 * 4030;
  sim::Bytes delivered = 0;
  int fins = 0;
  tb.b->set_accept([&](const net::Packet& p) {
    transport::TcpConnection& rx = tb.b->open(p.flow, p.src);
    rx.set_on_delivered([&](sim::Bytes n) { delivered += n; });
    rx.set_on_fin([&] {
      ++fins;
      tb.sim.after(sim::Time::zero(), [&] { tb.b->close(kFlow); });
    });
  });
  transport::TcpConnection& tx = tb.a->open(kFlow, 1);
  tx.set_fin_on_complete(true);
  tx.write(kMessage);
  tb.run_for(sim::Time::milliseconds(50));

  EXPECT_EQ(tb.b->orphan_packets(), 0u);
  EXPECT_EQ(delivered, kMessage);
  EXPECT_EQ(fins, 1);
  EXPECT_EQ(tb.b->closes(), 1u);
  EXPECT_EQ(tx.snd_una(), kMessage);
}

// Flow churn: the ACKs of the last three segments of a message are all
// lost, so the receiver gets the whole message, ACKs its FIN and retires
// while the sender still waits. The sender's next transmissions reach the
// retired endpoint, whose TIME-WAIT record re-ACKs them: nothing is
// orphaned and the sender's message completes. With TLP the probe is the
// FIN segment; without it, the RTO resends plain data, one segment per
// re-ACK.
void run_stale_tail_into_time_wait(bool tlp) {
  TransportConfig tcfg;
  tcfg.tlp_enabled = tlp;
  Testbed tb(host::HostConfig{}, tcfg);
  constexpr net::FlowId kFlow = 7;
  constexpr sim::Bytes kMss = 4030;
  constexpr sim::Bytes kMessage = 20 * kMss;
  tb.b_host.set_egress([&](const net::Packet& p) {
    // Lost until the endpoint re-ACKs from TIME-WAIT.
    if (tb.b->time_wait_segments() > 0 || p.ack <= kMessage - 3 * kMss) {
      tb.sim.after(sim::Time::microseconds(5), [&tb, p] { tb.a_host.receive_from_wire(p); });
    }
    tb.b_host.wire_dequeued(p);
  });
  tb.b->set_accept([&](const net::Packet& p) {
    transport::TcpConnection& rx = tb.b->open(p.flow, p.src);
    rx.set_on_fin([&] { tb.sim.after(sim::Time::zero(), [&] { tb.b->close_time_wait(kFlow); }); });
  });
  transport::TcpConnection& tx = tb.a->open(kFlow, 1);
  tx.set_fin_on_complete(true);
  tx.write(kMessage);
  tb.run_for(sim::Time::milliseconds(1));
  ASSERT_EQ(tb.b->closes(), 1u);  // retired on FIN
  ASSERT_LT(tx.snd_una(), kMessage);
  tb.run_for(sim::Time::milliseconds(999));

  EXPECT_EQ(tx.stats().timeouts, tlp ? 0u : 1u);
  EXPECT_EQ(tb.b->time_wait_segments(), tlp ? 1u : 3u);
  EXPECT_EQ(tb.b->orphan_packets(), 0u);
  EXPECT_EQ(tb.b->opens(), 1u);  // no stale segment re-opened the flow
  EXPECT_EQ(tx.snd_una(), kMessage);
  EXPECT_TRUE(tx.transfer_idle());
}

TEST(ConnectionLossTest, RetiredReceiverReAcksStaleDataFromTimeWait) {
  run_stale_tail_into_time_wait(/*tlp=*/false);
}

TEST(ConnectionLossTest, RetiredReceiverReAcksStaleFinFromTimeWait) {
  run_stale_tail_into_time_wait(/*tlp=*/true);
}

TEST(ConnectionLossTest, TailLossOfSinglePacketNeedsRto) {
  // The very last packet of a stream is dropped; with nothing in flight
  // behind it and only one packet outstanding, TLP is ineligible (§2.2)
  // and only the RTO (min 200ms) recovers it.
  int count = 0;
  LossyTestbed lt([&](const net::Packet& p) { return !p.retransmit && ++count == 25; });
  auto [ca, cb] = lt.tb().connect(1);
  ca->write(25 * 4030);  // exactly 25 MSS, the last one dropped
  lt.tb().run_for(sim::Time::milliseconds(150));
  EXPECT_LT(cb->delivered_bytes(), 25 * 4030);  // still missing
  lt.tb().run_for(sim::Time::milliseconds(150));  // RTO fires at ~200ms
  EXPECT_EQ(cb->delivered_bytes(), 25 * 4030);
  EXPECT_GE(ca->stats().timeouts, 1u);
}

TEST(ConnectionLossTest, TailLossWithMultiplePacketsRecoveredByTlp) {
  // Last TWO packets dropped: >1 in flight => TLP eligible; the probe
  // (max(2*srtt, 10ms)) retransmits the tail and SACK repairs the rest,
  // far sooner than the 200ms RTO.
  int count = 0;
  LossyTestbed lt([&](const net::Packet& p) {
    if (p.retransmit || p.tlp_probe) return false;
    ++count;
    return count == 24 || count == 25;
  });
  auto [ca, cb] = lt.tb().connect(1);
  ca->write(25 * 4030);
  lt.tb().run_for(sim::Time::milliseconds(100));
  EXPECT_EQ(cb->delivered_bytes(), 25 * 4030);
  EXPECT_GE(ca->stats().tlp_probes, 1u);
  EXPECT_EQ(ca->stats().timeouts, 0u);
}

TEST(ConnectionLossTest, HeavyRandomLossEventuallyDeliversEverything) {
  sim::Rng rng(1234);
  LossyTestbed lt([&](const net::Packet& p) { return !p.retransmit && rng.bernoulli(0.05); });
  auto [ca, cb] = lt.tb().connect(1);
  ca->write(2'000'000);
  lt.tb().run_for(sim::Time::seconds(2));
  EXPECT_EQ(cb->delivered_bytes(), 2'000'000);  // reliability under 5% loss
}

TEST(ConnectionTest, ReceiverWindowBoundsInflight) {
  host::HostConfig hc;
  hc.socket_buffer_bytes = 64 * 1024;
  Testbed tb(hc);
  auto [ca, cb] = tb.connect(1);
  (void)cb;
  ca->set_infinite_source(true);
  for (int i = 0; i < 50; ++i) {
    tb.run_for(sim::Time::milliseconds(1));
    EXPECT_LE(ca->in_flight(), 64 * 1024 + 2 * 4030);
  }
}

TEST(ConnectionTest, EcnFeedbackReachesSender) {
  Testbed tb;
  // Mark every data packet at the receiver's ingress (forced CE).
  tb.a_host.set_ingress_filter([](net::Packet&) {});
  tb.b_host.set_ingress_filter([](net::Packet& p) {
    if (p.payload > 0 && p.ecn == net::Ecn::kEct0) p.ecn = net::Ecn::kCe;
  });
  auto [ca, cb] = tb.connect(1);
  (void)cb;
  ca->write(500'000);
  tb.run_for(sim::Time::milliseconds(20));
  EXPECT_GT(ca->stats().ece_received, 0u);
  EXPECT_GT(cb->stats().ce_received, 0u);
  // Persistent full marking holds DCTCP near minimum cwnd.
  EXPECT_LT(ca->cwnd(), 200'000);
}

}  // namespace
}  // namespace hostcc::transport

namespace hostcc::transport {
namespace {

TEST(ConnectionTest, MixedSizeWritesPreserveByteCount) {
  // Interleaved small and large writes (RPC-like framing) across both
  // directions must deliver exactly, byte for byte.
  hostcc::testing::Testbed tb;
  auto [ca, cb] = tb.connect(1);
  sim::Bytes got_b = 0;
  cb->set_on_delivered([&](sim::Bytes n) { got_b += n; });
  sim::Bytes sent = 0;
  sim::Rng rng(99);
  for (int i = 0; i < 200; ++i) {
    const sim::Bytes n = 1 + rng.uniform_int(0, 9999);
    ca->write(n);
    sent += n;
    if (i % 17 == 0) tb.run_for(sim::Time::microseconds(50));
  }
  tb.run_for(sim::Time::milliseconds(60));
  EXPECT_EQ(got_b, sent);
}

TEST(ConnectionTest, SwiftEndpointInteroperatesWithStack) {
  host::HostConfig hc;
  transport::TransportConfig tc;
  tc.cc = CcKind::kSwift;
  hostcc::testing::Testbed tb(hc, tc);
  auto [ca, cb] = tb.connect(1);
  ca->write(2'000'000);
  tb.run_for(sim::Time::milliseconds(40));
  EXPECT_EQ(cb->delivered_bytes(), 2'000'000);
  EXPECT_EQ(ca->cc().name(), "swift");
}

}  // namespace
}  // namespace hostcc::transport
