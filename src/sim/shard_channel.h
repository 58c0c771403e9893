// ShardChannels<P>: single-producer/single-consumer message channels that
// carry cross-cell payloads between the per-cell event loops of a
// sim::ShardedSimulator, preserving the byte-identical determinism
// contract.
//
// Protocol (conservative lookahead, window L):
//   - The producer cell, executing epoch E (sim time [E*L, (E+1)*L)),
//     stamps each message with its arrival time `due = now + link_delay`
//     and a per-channel monotone sequence number, and appends it to the
//     channel's parity-E buffer. Because link_delay >= L, due >= (E+1)*L.
//   - The consumer cell, at its FIRST entry into epoch E+1 (before any of
//     its events in that epoch run), drains every inbound channel's
//     parity-E buffer into a min-heap keyed (due, channel id, seq), then
//     moves every message with due < window_end into a FIFO delivery
//     window, scheduling one simulator event per message at its due time.
//     Messages due later stay in the heap for a future epoch.
//   - Delivery events fire in exactly the order they were scheduled
//     (the simulator breaks time ties by schedule order), which is the
//     heap's (due, channel, seq) order — a total order independent of
//     which thread ran which cell, or how many threads there were.
//
// Thread safety comes entirely from the epoch barrier: the producer only
// writes buffer parity E during epoch E; the consumer only reads parity E
// during epoch E+1; the barrier between epochs is the happens-before edge.
// No atomics, no locks, no data races per message — the whole cross-thread
// surface is two std::vectors per channel handed back and forth.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <utility>
#include <vector>

#include "sim/simulator.h"
#include "sim/time.h"

namespace hostcc::sim {

template <typename P>
class ShardChannels {
 public:
  using Deliver = std::function<void(const P&)>;

  explicit ShardChannels(int cells) : cells_(cells) {
    inbound_.resize(cells);
    queues_.resize(cells);
  }

  ShardChannels(const ShardChannels&) = delete;
  ShardChannels& operator=(const ShardChannels&) = delete;

  // Registers a directed channel. `deliver` runs on the consumer cell's
  // thread, in global (due, channel id, seq) order. Channel ids are dense
  // and assigned in registration order — register in a deterministic order
  // (e.g. topology arc order) to pin the tie-break.
  int add_channel(int from_cell, int to_cell, Deliver deliver) {
    const int id = static_cast<int>(channels_.size());
    channels_.push_back(std::make_unique<Channel>());
    Channel& ch = *channels_.back();
    ch.id = id;
    ch.from = from_cell;
    ch.deliver = std::move(deliver);
    inbound_[to_cell].push_back(&ch);
    return id;
  }

  // Producer side; must run on the producing cell's thread.
  void push(int chan_id, Time due, const P& payload) {
    Channel& ch = *channels_[chan_id];
    ch.bufs[queues_[ch.from].parity].msgs.push_back({due, ch.seq.next++, payload});
  }

  // Consumer side; must run on `cell`'s thread at its first entry into
  // `epoch`, with `sim.now()` at the epoch start and `window_end` the
  // epoch's end. Schedules the epoch's deliveries into `sim`.
  void begin_epoch(int cell, std::int64_t epoch, Time window_end, Simulator& sim) {
    // Flip this cell's outbound buffers to the new epoch's parity.
    CellQueue& q = queues_[cell];
    q.parity = static_cast<int>(epoch & 1);

    // Drain what producers published last epoch ((epoch-1)'s parity —
    // empty at epoch 0) into the arrival heap. An empty buffer is only
    // read, never written: its producer is busy with the other parity.
    std::vector<Msg>& heap = q.ready;
    const int drain = static_cast<int>((epoch + 1) & 1);
    for (Channel* ch : inbound_[cell]) {
      std::vector<Msg>& buf = ch->bufs[drain].msgs;
      if (buf.empty()) continue;
      for (Msg& m : buf) {
        m.chan = ch->id;
        heap.push_back(std::move(m));
        std::push_heap(heap.begin(), heap.end(), Later{});
      }
      buf.clear();
    }

    // Promote everything due inside this window to the delivery FIFO, one
    // event each. The tiny [this, cell] capture stays inside the event
    // queue's inline-callback budget; the payload rides the deque.
    std::deque<Msg>& window = q.window;
    while (!heap.empty() && heap.front().due < window_end) {
      std::pop_heap(heap.begin(), heap.end(), Later{});
      window.push_back(std::move(heap.back()));
      heap.pop_back();
      sim.at(window.back().due, [this, cell] { deliver_front(cell); });
      ++q.scheduled;
    }
  }

  int cell_count() const { return cells_; }
  int channel_count() const { return static_cast<int>(channels_.size()); }
  // Messages handed to deliver callbacks so far, per cell / total.
  std::uint64_t delivered(int cell) const { return queues_[cell].scheduled - pending(cell); }
  std::uint64_t total_delivered() const {
    std::uint64_t n = 0;
    for (int c = 0; c < cells_; ++c) n += delivered(c);
    return n;
  }

 private:
  struct Msg {
    Time due;
    std::uint64_t seq = 0;
    P payload;
    int chan = -1;
  };
  // Min-heap comparator: "a delivers later than b".
  struct Later {
    bool operator()(const Msg& a, const Msg& b) const {
      if (a.due != b.due) return a.due > b.due;
      if (a.chan != b.chan) return a.chan > b.chan;
      return a.seq > b.seq;
    }
  };
  // Per-cell queues, and the parts of a channel that its producer and its
  // consumer write, sit on cache lines of their own: cells on different
  // workers update theirs at the same time.
  struct alignas(64) Seq {
    std::uint64_t next = 0;
  };
  struct alignas(64) Buffer {
    std::vector<Msg> msgs;
  };
  struct Channel {
    int id = -1;
    int from = -1;  // producing cell
    Deliver deliver;
    Seq seq;         // producer only
    Buffer bufs[2];  // by epoch parity: one filling, one draining
  };

  struct alignas(64) CellQueue {
    std::vector<Msg> ready;      // arrival min-heap
    std::deque<Msg> window;      // delivery FIFO
    std::uint64_t scheduled = 0;  // delivery events
    int parity = 0;              // buffer parity this cell produces into
  };

  std::uint64_t pending(int cell) const {
    return static_cast<std::uint64_t>(queues_[cell].window.size());
  }

  void deliver_front(int cell) {
    std::deque<Msg>& window = queues_[cell].window;
    Msg m = std::move(window.front());
    window.pop_front();
    channels_[m.chan]->deliver(m.payload);
  }

  int cells_;
  std::vector<std::unique_ptr<Channel>> channels_;
  std::vector<std::vector<Channel*>> inbound_;   // per consumer cell
  std::vector<CellQueue> queues_;                // per consumer cell
};

}  // namespace hostcc::sim
