// In-process simulated message-passing network with byte accounting.
//
// Substitution for the paper's ZeroMQ-over-TCP deployment: nodes exchange
// fully serialized byte buffers through per-node mailboxes; a TrafficMeter
// records payload vs. metadata bytes per node (the split behind Figures 4/9),
// and a net::TimeModel (net/time_model.hpp) converts per-round byte volumes
// into simulated wall-clock time — the basis of the paper's time-to-accuracy
// comparisons. The TimeModel also owns failure injection (per-edge message
// drop, node crash/rejoin, burst outages) and per-edge
// bandwidth/latency heterogeneity; its default configuration is the flat
// LinkModel every result before the time-model subsystem was computed under
// (see docs/SIMULATION.md).
#pragma once

#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <vector>

#include "net/buffer.hpp"
#include "net/time_model.hpp"

namespace jwins::net {

/// One decentralized-learning message: a serialized body plus accounting of
/// how many of its bytes are sparsification metadata (index lists, seeds).
/// The body is an immutable SharedBytes: broadcasting one payload to d
/// neighbors copies a refcount d times, not the bytes (see net/buffer.hpp).
struct Message {
  std::uint32_t sender = 0;
  std::uint32_t round = 0;
  SharedBytes body;
  std::size_t metadata_bytes = 0;  ///< portion of body that is metadata

  /// Fixed per-message envelope: sender + round + body length (TCP/framing
  /// overhead abstracted into a flat constant, identical for all algorithms).
  static constexpr std::size_t kEnvelopeBytes = 12;

  std::size_t wire_size() const noexcept { return body.size() + kEnvelopeBytes; }
  std::size_t payload_bytes() const noexcept {
    return body.size() - metadata_bytes;
  }
};

/// Per-node cumulative traffic counters.
struct NodeTraffic {
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;           ///< wire bytes including envelope
  std::uint64_t payload_bytes_sent = 0;   ///< model parameter bytes
  std::uint64_t metadata_bytes_sent = 0;  ///< index/seed metadata bytes
};

/// Aggregates traffic across nodes and rounds. The engine updates node i's
/// counters only from the thread driving node i, so no locking is needed on
/// the hot path; totals are computed on demand.
class TrafficMeter {
 public:
  explicit TrafficMeter(std::size_t n) : per_node_(n) {}

  void record_send(std::uint32_t sender, const Message& msg);

  const NodeTraffic& node(std::size_t i) const { return per_node_.at(i); }
  std::size_t node_count() const noexcept { return per_node_.size(); }

  NodeTraffic total() const;

  /// Average wire bytes sent per node (the y-axis of the paper's
  /// "average cumulative data sent per node" plots).
  double average_bytes_per_node() const;

  void reset();

 private:
  std::vector<NodeTraffic> per_node_;
};

/// Interception point for the discrete-event engine (sim/event_engine.hpp):
/// when a sink is installed, send() hands every *non-dropped* message to the
/// sink instead of the destination mailbox, so delivery can be deferred to
/// the message's simulated arrival time. Drop verdicts, traffic accounting,
/// and the per-round byte bookkeeping all still happen inside send() — the
/// sink only sees messages that survive failure injection.
///
/// Contract: sink callbacks run inside send() on the sending thread; an
/// installed sink requires single-threaded senders (the event loop is
/// sequential). deliver() is how the sink eventually lands a message.
class DeliverySink {
 public:
  virtual ~DeliverySink() = default;
  virtual void on_deliver(std::uint32_t to, Message msg) = 0;
};

/// Synchronous mailbox fabric: all sends in round t are visible to receivers
/// in the same round's aggregate phase (D-PSGD is bulk-synchronous).
class Network {
 public:
  /// Flat-link fabric (the legacy constructor every test and bench used).
  Network(std::size_t n, LinkModel link = {})
      : Network(n, TimeModel(n, link)) {}

  /// Fabric over a full time model (heterogeneous links, stragglers,
  /// crash/burst fault injection — see net/time_model.hpp).
  Network(std::size_t n, TimeModel time)
      : mailboxes_(n), meter_(n), time_(std::move(time)) {
    if (time_.size() != n) {
      throw std::invalid_argument("Network: time model sized for a different "
                                  "node count");
    }
  }

  std::size_t size() const noexcept { return mailboxes_.size(); }

  /// Messages discarded by failure injection so far (all causes: per-edge,
  /// burst, crash; the TimeModel keeps the per-cause split). Dropped
  /// messages still count as sent bytes — the sender paid for them.
  std::uint64_t messages_dropped() const noexcept {
    return time_.dropped_total();
  }

  /// The simulated clock & fault oracle (per-edge attributes, crash
  /// schedules, drop statistics).
  const TimeModel& time_model() const noexcept { return time_; }

  /// Queues `msg` for `to` and records traffic against msg.sender.
  /// Thread-safe across concurrent senders (unless a DeliverySink is
  /// installed, which restricts sends to one thread — see DeliverySink).
  void send(std::uint32_t to, Message msg);

  /// Installs (or clears, with nullptr) the delivery interception hook.
  /// Installing one also switches the TimeModel to per-transfer edge-record
  /// retirement for the fabric's lifetime: every send appends its own
  /// record, and retire_transfer() erases it once the transfer is delivered
  /// or dropped. The event loop never calls finish_round(), so this bounds
  /// the records by the in-flight message count on arbitrarily long runs
  /// (the synchronous engine instead clears them at finish_round()).
  void set_delivery_sink(DeliverySink* sink) noexcept {
    sink_ = sink;
    if (sink != nullptr) time_.set_retire_records(true);
  }

  /// Lands a message in `to`'s mailbox directly: no drop verdict, no
  /// accounting — those already happened in the send() that produced the
  /// message. The event engine calls this at the simulated arrival time
  /// (or at aggregation time, for messages staged in a staleness inbox);
  /// the canonical (round, sender) drain order still applies.
  void deliver(std::uint32_t to, Message msg);

  /// Drains node i's mailbox (receiver's view of the round) into `out`
  /// (cleared first) by a swap, so the receiver's scratch vector and the
  /// mailbox circulate their heap capacity instead of reallocating every
  /// round. Messages come out sorted by (round, sender) — the sequential
  /// engine's arrival order — so aggregation is independent of thread
  /// scheduling.
  void drain_into(std::uint32_t node, std::vector<Message>& out);

  /// Advances the simulated clock by one round: compute phase plus the
  /// communication time implied by this round's send volumes (per-node
  /// totals under the flat model, the per-edge critical path under a
  /// heterogeneous one — see net/time_model.hpp).
  void finish_round(double compute_seconds);

  /// Event-granularity clock advance (the asynchronous engine's accounting
  /// path; never mixed with finish_round() in one run): attributes `delta`
  /// simulated seconds to the compute phase when `compute` is true, to the
  /// communication phase otherwise, then recomputes the total as the exact
  /// sum of the two buckets — so simulated_compute_seconds() +
  /// simulated_comm_seconds() == simulated_seconds() holds bit-exactly at
  /// every instant, and all three clocks are monotone (docs/SIMULATION.md
  /// "Phase attribution").
  void advance_time(double delta, bool compute);

  /// Retires the oldest live edge record of (sender -> receiver); no-op
  /// until a delivery sink has been installed. Thread-safe like send()'s
  /// accounting.
  void retire_transfer(std::uint32_t sender, std::uint32_t receiver);

  const TrafficMeter& traffic() const noexcept { return meter_; }
  double simulated_seconds() const noexcept { return sim_seconds_; }
  /// Per-phase split of simulated_seconds() (compute + comm == total).
  double simulated_compute_seconds() const noexcept {
    return sim_compute_seconds_;
  }
  double simulated_comm_seconds() const noexcept { return sim_comm_seconds_; }

  /// Send-buffer pool: senders encode into vectors acquired here, and the
  /// storage is recycled when the last receiver releases the body. One pool
  /// per fabric keeps the steady-state round loop free of body allocations.
  BufferPool& pool() noexcept { return pool_; }

 private:
  /// Striped mailbox locking: a fixed pool of mutexes shared round-robin by
  /// node index instead of one mutex per node. A std::mutex is 40 bytes on
  /// this ABI — per-node locks would cost 40 MB at a million nodes for
  /// objects that are idle outside the share phase. Correctness is
  /// unaffected (a mailbox is always guarded by the same stripe); the only
  /// cost is spurious contention between nodes sharing a stripe, invisible
  /// next to the model math around each send.
  static constexpr std::size_t kMailboxStripes = 64;

  std::mutex& mailbox_lock(std::uint32_t node) noexcept {
    return mailbox_locks_[node % kMailboxStripes];
  }

  std::vector<std::vector<Message>> mailboxes_;
  std::vector<std::mutex> mailbox_locks_{kMailboxStripes};
  TrafficMeter meter_;
  TimeModel time_;
  double sim_seconds_ = 0.0;
  double sim_compute_seconds_ = 0.0;
  double sim_comm_seconds_ = 0.0;
  std::mutex meter_lock_;
  BufferPool pool_;
  DeliverySink* sink_ = nullptr;
};

}  // namespace jwins::net
