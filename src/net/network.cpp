#include "net/network.hpp"

#include <algorithm>
#include <stdexcept>

namespace jwins::net {

void Network::send(std::uint32_t to, Message msg) {
  if (to >= mailboxes_.size()) {
    throw std::out_of_range("Network::send: destination out of range");
  }
  if (msg.sender >= mailboxes_.size()) {
    throw std::out_of_range("Network::send: sender out of range");
  }
  // Failure-injection verdict: pure (hashes logical coordinates only), so
  // drop decisions are deterministic and independent of thread scheduling.
  const DropCause cause = time_.drop_cause(msg.sender, to, msg.round);
  double offset = 0.0;
  {
    std::lock_guard<std::mutex> lock(traffic_lock_);
    traffic_.messages_sent += 1;
    traffic_.bytes_sent += msg.wire_size();
    traffic_.payload_bytes_sent += msg.payload_bytes();
    traffic_.metadata_bytes_sent += msg.metadata_bytes;
    offset = time_.record_send(msg.sender, to, msg.round, msg.wire_size());
    time_.count_drop(cause);
  }
  if (cause != DropCause::kNone) {
    return;  // the bytes left the sender but never arrive
  }
  if (sink_ != nullptr) {
    // Event-engine interception: the message survived failure injection and
    // was fully accounted; the sink decides *when* it lands (deliver()).
    sink_->on_deliver(to, std::move(msg), offset);
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

}  // namespace jwins::net
