#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace jwins::net {

void TrafficMeter::record_send(std::uint32_t sender, const Message& msg) {
  NodeTraffic& t = per_node_.at(sender);
  t.messages_sent += 1;
  t.bytes_sent += msg.wire_size();
  t.payload_bytes_sent += msg.payload_bytes();
  t.metadata_bytes_sent += msg.metadata_bytes;
}

NodeTraffic TrafficMeter::total() const {
  NodeTraffic sum;
  for (const NodeTraffic& t : per_node_) {
    sum.messages_sent += t.messages_sent;
    sum.bytes_sent += t.bytes_sent;
    sum.payload_bytes_sent += t.payload_bytes_sent;
    sum.metadata_bytes_sent += t.metadata_bytes_sent;
  }
  return sum;
}

double TrafficMeter::average_bytes_per_node() const {
  if (per_node_.empty()) return 0.0;
  return static_cast<double>(total().bytes_sent) /
         static_cast<double>(per_node_.size());
}

void TrafficMeter::reset() {
  std::fill(per_node_.begin(), per_node_.end(), NodeTraffic{});
}

void Network::send(std::uint32_t to, Message msg) {
  if (to >= mailboxes_.size()) {
    throw std::out_of_range("Network::send: destination out of range");
  }
  if (msg.sender >= mailboxes_.size()) {
    throw std::out_of_range("Network::send: sender out of range");
  }
  const std::size_t wire = msg.wire_size();
  // Failure-injection verdict: pure (hashes logical coordinates only), so
  // drop decisions are deterministic and independent of thread scheduling.
  const DropCause cause = time_.drop_cause(msg.sender, to, msg.round);
  {
    std::lock_guard<std::mutex> lock(meter_lock_);
    meter_.record_send(msg.sender, msg);
    time_.record_send(msg.sender, to, wire);
    time_.count_drop(cause);
    if (cause != DropCause::kNone) {
      // A dropped transfer never delivers, so its edge record retires here
      // (no-op without a delivery sink — the synchronous engine keeps the
      // records for finish_round()'s critical path).
      time_.retire_send(msg.sender, to);
    }
  }
  if (cause != DropCause::kNone) {
    return;  // the bytes left the sender but never arrive
  }
  if (sink_ != nullptr) {
    // Event-engine interception: the message survived failure injection and
    // was fully accounted; the sink decides *when* it lands (deliver()).
    sink_->on_deliver(to, std::move(msg));
    return;
  }
  std::lock_guard<std::mutex> lock(mailbox_lock(to));
  mailboxes_[to].push_back(std::move(msg));
}

void Network::deliver(std::uint32_t to, Message msg) {
  if (to >= mailboxes_.size()) {
    throw std::out_of_range("Network::deliver: destination out of range");
  }
  std::lock_guard<std::mutex> lock(mailbox_lock(to));
  mailboxes_[to].push_back(std::move(msg));
}

void Network::drain_into(std::uint32_t node, std::vector<Message>& out) {
  if (node >= mailboxes_.size()) {
    throw std::out_of_range("Network::drain_into: node out of range");
  }
  out.clear();
  {
    std::lock_guard<std::mutex> lock(mailbox_lock(node));
    out.swap(mailboxes_[node]);
  }
  // Canonical delivery order: concurrent senders append in scheduling order,
  // but receivers must fold contributions in a fixed order or float sums
  // (and downstream TopK tie-breaks) would vary run to run. (round, sender)
  // ascending is exactly the arrival order of the sequential engine, whose
  // share phase walks nodes in rank order; the sort is stable so multiple
  // messages from one sender keep their emission order.
  std::stable_sort(out.begin(), out.end(),
                   [](const Message& a, const Message& b) {
                     return a.round != b.round ? a.round < b.round
                                               : a.sender < b.sender;
                   });
}

void Network::finish_round(double compute_seconds) {
  const TimeModel::RoundTime rt = time_.finish_round(compute_seconds);
  sim_compute_seconds_ += rt.compute;
  sim_comm_seconds_ += rt.comm;
  // Same two doubles, same addition order as the legacy
  // `compute + comm_time(max_bytes)` expression — bit-identical clocks.
  sim_seconds_ += rt.compute + rt.comm;
}

void Network::advance_time(double delta, bool compute) {
  if (delta <= 0.0) return;  // simultaneous events advance nothing
  if (compute) {
    sim_compute_seconds_ += delta;
  } else {
    sim_comm_seconds_ += delta;
  }
  // The total is the exact sum of the buckets, recomputed after every
  // advance: compute + comm == total bit-exactly, and all three clocks are
  // monotone (non-negative increments, correctly rounded addition).
  sim_seconds_ = sim_compute_seconds_ + sim_comm_seconds_;
}

void Network::retire_transfer(std::uint32_t sender, std::uint32_t receiver) {
  std::lock_guard<std::mutex> lock(meter_lock_);
  time_.retire_send(sender, receiver);
}

}  // namespace jwins::net
