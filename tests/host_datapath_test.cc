// Tests for the assembled host datapath: NIC -> PCIe -> IIO -> memory ->
// CPU -> stack, including credit conservation, drop behaviour, descriptor
// recycling, and signal plumbing. Drives a bare HostModel directly with
// synthetic packets (no transport).
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "host/host.h"
#include "net/packet.h"
#include "sim/simulator.h"

namespace hostcc::host {
namespace {

net::Packet data_pkt(std::uint64_t id, net::FlowId flow, sim::Bytes payload) {
  net::Packet p;
  p.id = id;
  p.flow = flow;
  p.dst = 0;
  p.payload = payload;
  p.size = payload + net::kHeaderBytes;
  return p;
}

class HostDatapathTest : public ::testing::Test {
 protected:
  void make_host(HostConfig cfg = {}) {
    host = std::make_unique<HostModel>(sim, cfg, "t");
    host->set_stack_rx([this](net::Packet p) {
      ++delivered;
      delivered_bytes += p.payload;
      last = p;
    });
  }

  sim::Simulator sim;
  std::unique_ptr<HostModel> host;
  int delivered = 0;
  sim::Bytes delivered_bytes = 0;
  net::Packet last;
};

TEST_F(HostDatapathTest, SinglePacketTraversesToStack) {
  make_host();
  host->receive_from_wire(data_pkt(1, 7, 4030));
  sim.run_until(sim::Time::milliseconds(1));
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(last.flow, 7u);
  EXPECT_EQ(last.payload, 4030);
  // Everything inserted was admitted; buffer empty; descriptors recycled.
  EXPECT_EQ(host->iio().occupancy_bytes(), 0);
  EXPECT_EQ(host->nic().free_descriptors(), host->config().rx_descriptors);
}

TEST_F(HostDatapathTest, DeliveryPreservesOrderWithinFlow) {
  make_host();
  for (std::uint64_t i = 0; i < 50; ++i) host->receive_from_wire(data_pkt(i, 4, 4030));
  std::vector<std::uint64_t> ids;
  host->set_stack_rx([&](net::Packet p) { ids.push_back(p.id); });
  sim.run_until(sim::Time::milliseconds(1));
  ASSERT_EQ(ids.size(), 50u);
  for (std::uint64_t i = 0; i < 50; ++i) EXPECT_EQ(ids[i], i);
}

TEST_F(HostDatapathTest, LatencyIsSumOfStages) {
  make_host();
  sim::Time done;
  host->set_stack_rx([&](net::Packet) { done = sim.now(); });
  host->receive_from_wire(data_pkt(1, 0, 4030));
  sim.run_until(sim::Time::milliseconds(1));
  // DMA (~4KB/128G = 268ns, chunked) + pcie 40 + admit ~270+quantum + CPU
  // processing (~1.2us): total in the 1.5-4us range uncongested.
  EXPECT_GT(done.us(), 1.0);
  EXPECT_LT(done.us(), 5.0);
}

TEST_F(HostDatapathTest, NicDropsWhenBufferFull) {
  HostConfig cfg;
  cfg.nic_rx_buffer_bytes = 16 * sim::kKiB;
  make_host(cfg);
  // Burst far exceeding the buffer arrives at t=0 (no drain possible yet).
  for (std::uint64_t i = 0; i < 32; ++i) host->receive_from_wire(data_pkt(i, 0, 4030));
  sim.run_until(sim::Time::milliseconds(1));
  EXPECT_GT(host->nic().stats().dropped_pkts, 0u);
  EXPECT_EQ(host->nic().stats().arrived_pkts, 32u);
  EXPECT_EQ(delivered + static_cast<int>(host->nic().stats().dropped_pkts), 32);
}

TEST_F(HostDatapathTest, IioConservationInvariant) {
  make_host();
  for (std::uint64_t i = 0; i < 200; ++i) host->receive_from_wire(data_pkt(i, i % 4, 4030));
  sim.run_until(sim::Time::milliseconds(2));
  auto& iio = host->iio();
  EXPECT_EQ(iio.total_inserted(), iio.total_admitted() + iio.occupancy_bytes());
  EXPECT_EQ(iio.occupancy_bytes(), 0);
}

TEST_F(HostDatapathTest, CreditPoolBoundsOccupancy) {
  make_host();
  sim::Bytes max_occ = 0;
  for (std::uint64_t i = 0; i < 500; ++i) host->receive_from_wire(data_pkt(i, 0, 4030));
  // Sample occupancy while draining.
  for (int step = 0; step < 2000; ++step) {
    sim.run_until(sim.now() + sim::Time::nanoseconds(100));
    max_occ = std::max(max_occ, host->iio().occupancy_bytes());
  }
  EXPECT_LE(max_occ, host->pcie().credit_pool() + 2 * host->config().dma_chunk_bytes);
  EXPECT_GT(max_occ, host->pcie().credit_pool() / 2);  // burst did fill it
}

TEST_F(HostDatapathTest, RoccAndRinsAdvanceWithTraffic) {
  make_host();
  for (std::uint64_t i = 0; i < 100; ++i) host->receive_from_wire(data_pkt(i, 0, 4030));
  sim.run_until(sim::Time::milliseconds(1));
  // RINS counts (overheaded) cachelines: ~100 * 4096*1.05 / 64 = ~6700.
  EXPECT_NEAR(host->msrs().rins_raw(), 6700.0, 350.0);
  EXPECT_GT(host->msrs().rocc_raw(), 0.0);
}

TEST_F(HostDatapathTest, IngressFilterSeesAndMutatesPackets) {
  make_host();
  host->set_ingress_filter([](net::Packet& p) { p.ecn = net::Ecn::kCe; });
  net::Packet got;
  host->set_stack_rx([&](net::Packet p) { got = p; });
  host->receive_from_wire(data_pkt(1, 0, 1000));
  sim.run_until(sim::Time::milliseconds(1));
  EXPECT_EQ(got.ecn, net::Ecn::kCe);
}

TEST_F(HostDatapathTest, RwndShrinksWithBacklogAndRecovers) {
  make_host();
  const sim::Bytes full = host->rwnd_for(5);
  EXPECT_EQ(full, host->config().socket_buffer_bytes);
  for (std::uint64_t i = 0; i < 100; ++i) host->receive_from_wire(data_pkt(i, 5, 4030));
  // Immediately after the burst lands, the flow's backlog shrinks rwnd.
  sim.run_until(sim.now() + sim::Time::microseconds(40));
  EXPECT_LT(host->rwnd_for(5), full);
  sim.run_until(sim.now() + sim::Time::milliseconds(2));
  EXPECT_EQ(host->rwnd_for(5), full);  // drained
}

TEST_F(HostDatapathTest, TsqAccountingTracksSendAndDequeue) {
  make_host();
  net::Packet p = data_pkt(1, 9, 4030);
  p.src = 0;
  int egressed = 0;
  host->set_egress([&](const net::Packet&) { ++egressed; });
  host->send(p);
  sim.run_until(sim::Time::milliseconds(1));
  EXPECT_EQ(egressed, 1);
  EXPECT_GT(host->tx_queued_bytes(9), 0);  // not yet dequeued by the wire
  bool drained = false;
  host->set_on_tx_drained([&](net::FlowId f) { drained = f == 9; });
  host->wire_dequeued(p);
  EXPECT_TRUE(drained);
  EXPECT_EQ(host->tx_queued_bytes(9), 0);
}

TEST_F(HostDatapathTest, DdioHitsBypassMemoryBandwidth) {
  HostConfig cfg;
  cfg.ddio_enabled = true;
  cfg.ddio_evict_base = 0.0;
  cfg.ddio_evict_pollution = 0.0;
  cfg.ddio_evict_overflow = 0.0;  // all hits
  make_host(cfg);
  for (std::uint64_t i = 0; i < 100; ++i) host->receive_from_wire(data_pkt(i, 0, 4030));
  sim.run_until(sim::Time::milliseconds(1));
  EXPECT_EQ(delivered, 100);
  // The IIO DMA source consumed no DRAM grants (index 0 = iio_dma).
  EXPECT_EQ(host->memctrl().granted_bytes(0), 0);
}

// A host-local source that never offers anything. It keeps its memory
// controller running every quantum without changing any of the quantum's
// arithmetic, so a host carrying one is the per-quantum reference for a
// host whose idle controller skips quanta.
class ZeroSource : public MemSource {
 public:
  std::string name() const override { return "zero"; }
  Offer mem_offer(sim::Time, sim::Time) override { return {}; }
  void mem_granted(sim::Time, double) override {}
};

struct WakeTrace {
  std::vector<std::int64_t> events;  // delivery and egress ids and instants
  std::vector<std::uint64_t> memctrl;  // controller state sampled mid-gap
  std::uint64_t skipped = 0;
};

// Receives and sends bursts of packets separated by idle gaps (one
// quantum up to milliseconds) and records what the datapath did and what
// its memory controller reported.
WakeTrace run_wake_script(const HostConfig& cfg, bool reference) {
  sim::Simulator sim;
  HostModel host(sim, cfg, "t");
  ZeroSource zero;
  if (reference) host.add_host_local_source(&zero);
  WakeTrace tr;
  host.set_stack_rx([&](net::Packet& p) {
    tr.events.push_back(static_cast<std::int64_t>(p.id));
    tr.events.push_back(sim.now().ps());
  });
  host.set_egress([&](const net::Packet& p) {
    tr.events.push_back(-static_cast<std::int64_t>(p.id));
    tr.events.push_back(sim.now().ps());
  });
  const MemoryController& mc = host.memctrl();
  const auto sample = [&] {
    tr.memctrl.push_back(std::bit_cast<std::uint64_t>(mc.utilization()));
    tr.memctrl.push_back(std::bit_cast<std::uint64_t>(mc.overload()));
    tr.memctrl.push_back(static_cast<std::uint64_t>(mc.access_latency().ps()));
    tr.memctrl.push_back(static_cast<std::uint64_t>(mc.source_wait(&host.cpu()).ps()));
    for (std::size_t i = 0; i < 3; ++i) {
      tr.memctrl.push_back(std::bit_cast<std::uint64_t>(mc.granted_rate(i).bits_per_sec()));
      tr.memctrl.push_back(static_cast<std::uint64_t>(mc.granted_bytes(i)));
    }
  };
  // Receive-only and send-only bursts, so each datapath stage is the one
  // that wakes the controller at least once.
  struct Burst {
    double start_us;
    int rx, tx;
  };
  const Burst bursts[] = {
      {20.0, 6, 0}, {60.05, 0, 3}, {400.0, 6, 0}, {4000.0, 0, 3}, {4000.1, 6, 3},
  };
  std::uint64_t id = 1;
  for (const Burst& b : bursts) {
    sim.at(sim::Time::microseconds(b.start_us), [&] {
      for (int k = 0; k < b.rx; ++k) host.receive_from_wire(data_pkt(id++, 3, 4030));
      for (int k = 0; k < b.tx; ++k) {
        net::Packet out = data_pkt(id++, 5, 4030);
        out.src = 0;
        out.dst = 1;
        host.send(out);
      }
    });
    sim.at(sim::Time::microseconds(b.start_us + 30.0), sample);
  }
  sim.run_until(sim::Time::milliseconds(6));
  sample();
  tr.skipped = mc.quanta_skipped();
  return tr;
}

TEST(MemctrlWakeTest, IdleSkippingHostMatchesPerQuantumReference) {
  HostConfig memory_path;
  HostConfig llc_path;  // DDIO always hits: only copy traffic reaches DRAM
  llc_path.ddio_enabled = true;
  llc_path.ddio_evict_base = 0.0;
  llc_path.ddio_evict_pollution = 0.0;
  llc_path.ddio_evict_overflow = 0.0;
  // Busy cores without memory stalls offer no pressure, so the copy
  // backlog a finished packet leaves must wake the controller itself.
  HostConfig llc_no_stalls = llc_path;
  llc_no_stalls.cpu_mem_stalls_per_byte = 0.0;
  const std::pair<const char*, HostConfig> cases[] = {
      {"memory path", memory_path}, {"ddio hits", llc_path}, {"no stalls", llc_no_stalls}};
  for (const auto& [name, cfg] : cases) {
    SCOPED_TRACE(name);
    const WakeTrace skipping = run_wake_script(cfg, false);
    const WakeTrace reference = run_wake_script(cfg, true);
    EXPECT_EQ(reference.skipped, 0u);
    EXPECT_GT(skipping.skipped, 50000u);  // most of the 6 ms is idle
    EXPECT_EQ(skipping.events.size(), 2u * (18 + 9));  // every packet delivered or sent
    EXPECT_EQ(skipping.events, reference.events);
    EXPECT_EQ(skipping.memctrl, reference.memctrl);
  }
}

TEST_F(HostDatapathTest, AckPacketsProcessCheaply) {
  make_host();
  net::Packet ack;
  ack.id = 1;
  ack.flow = 0;
  ack.payload = 0;
  ack.size = net::kHeaderBytes;
  ack.has_ack = true;
  sim::Time done;
  host->set_stack_rx([&](net::Packet) { done = sim.now(); });
  host->receive_from_wire(ack);
  sim.run_until(sim::Time::milliseconds(1));
  EXPECT_LT(done.us(), 1.5);
}

}  // namespace
}  // namespace hostcc::host
