// The unit of data exchanged on the simulated network fabric and host
// datapath. Carries enough TCP/IP state for DCTCP: byte sequence numbers,
// cumulative ACKs, ECN codepoint and echo, and the advertised window.
#pragma once

#include <array>
#include <cstdint>
#include <ostream>

#include "sim/pool.h"
#include "sim/time.h"
#include "sim/units.h"

namespace hostcc::net {

using FlowId = std::uint64_t;
using HostId = std::uint32_t;
using SeqNum = std::int64_t;  // byte-granularity sequence space

// IP ECN codepoint (RFC 3168). hostCC's receiver-side echo rewrites
// kEct0 -> kCe when the host is congested (§4.3).
enum class Ecn : std::uint8_t {
  kNotEct,  // transport not ECN-capable
  kEct0,    // ECN-capable, no congestion experienced
  kCe,      // congestion experienced (set by switch or by hostCC echo)
};

struct Packet {
  std::uint64_t id = 0;    // unique per simulation, for tracing
  FlowId flow = 0;
  HostId src = 0;
  HostId dst = 0;

  sim::Bytes size = 0;     // wire size including headers
  sim::Bytes payload = 0;  // TCP payload bytes (0 for pure ACK)

  // TCP fields.
  SeqNum seq = 0;          // first payload byte's sequence number
  SeqNum ack = -1;         // cumulative ACK (valid if has_ack)
  bool has_ack = false;
  // Flow churn: set on data segments sent before the connection's first ACK,
  // so the receiver passive-opens on any of them, not only on seq 0.
  bool syn = false;
  bool fin = false;
  bool ece = false;        // ECN-echo flag on ACKs (DCTCP feedback)
  sim::Bytes rwnd = 0;     // advertised receive window (on ACKs)
  Ecn ecn = Ecn::kNotEct;

  // SACK option: up to 3 received-but-out-of-order intervals [first,second).
  struct SackBlock {
    SeqNum begin = 0;
    SeqNum end = 0;
  };
  std::array<SackBlock, 3> sack{};
  int sack_count = 0;

  // Timestamp option: ACKs echo the data packet's transmit time so the
  // sender can take RTT samples (Karn's rule via ts_echo_retx).
  sim::Time ts_echo;
  bool ts_echo_valid = false;
  bool ts_echo_retx = false;

  // Telemetry (not visible to protocols; used by the harness only).
  sim::Time sent_at;       // transport transmit time, for RTT/latency stats
  bool retransmit = false;
  bool tlp_probe = false;

  // PFC (802.1Qbb) lossless mode. `prio` is the packet's traffic class
  // (all data defaults to 0). The pfc_* fields make a Packet double as a
  // pause/resume control frame so cross-cell pause propagation can ride
  // the same sim::ShardChannels the data does; pfc frames never enter a
  // switch queue (they are consumed by the channel's deliver hook).
  std::uint8_t prio = 0;
  bool pfc_frame = false;  // this Packet is a pause/resume control frame
  bool pfc_xoff = false;   // true = XOFF (pause), false = XON (resume)
  // Switch-residence tag: the ingress index the packet entered the current
  // switch on, stamped at ingress and read back at drain time for the
  // per-(ingress, priority) PFC byte accounting. Meaningless outside a
  // single switch residence; re-stamped at every hop.
  std::int16_t sw_in = -1;

  SeqNum end_seq() const { return seq + payload; }
};

// Number of PFC traffic classes the fabric models. Data defaults to
// priority 0; the spare class exists so pause_storm faults can target a
// priority that carries no traffic (pure control-plane stress).
inline constexpr int kPfcPriorities = 2;

// Pooled packet handle: the datapath allocates Packets from a per-host
// sim::Pool and passes this 8-byte ref through NIC → PCIe → IIO → MC →
// CPU → transport instead of copying the ~168-byte struct at every hop.
// PoolRef's implicit `const Packet&` conversion keeps `const Packet&`
// call sites working unchanged.
using PacketPool = sim::Pool<Packet>;
using PacketRef = sim::PoolRef<Packet>;

inline constexpr sim::Bytes kHeaderBytes = 66;  // Eth+IP+TCP headers + CRC

inline std::ostream& operator<<(std::ostream& os, const Packet& p) {
  os << "pkt{flow=" << p.flow << " seq=" << p.seq << "+" << p.payload;
  if (p.has_ack) os << " ack=" << p.ack << (p.ece ? " ECE" : "");
  if (p.ecn == Ecn::kCe) os << " CE";
  return os << "}";
}

}  // namespace hostcc::net
