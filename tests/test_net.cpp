#include <gtest/gtest.h>

#include <atomic>

#include "net/network.hpp"
#include "net/serializer.hpp"
#include "net/thread_pool.hpp"

namespace jwins::net {
namespace {

TEST(Serializer, PodRoundTrip) {
  ByteWriter w;
  w.write_u8(0xAB);
  w.write_u32(0xDEADBEEF);
  w.write_u64(0x0123456789ABCDEFull);
  w.write_f32(3.25f);
  const auto bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_EQ(r.read_u8(), 0xAB);
  EXPECT_EQ(r.read_u32(), 0xDEADBEEFu);
  EXPECT_EQ(r.read_u64(), 0x0123456789ABCDEFull);
  EXPECT_FLOAT_EQ(r.read_f32(), 3.25f);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serializer, ArraysRoundTrip) {
  ByteWriter w;
  const std::vector<float> floats{1.5f, -2.5f, 0.0f};
  const std::vector<std::uint32_t> ints{7, 8, 9};
  const std::vector<std::uint8_t> blob{0xDE, 0xAD};
  w.write_f32_array(floats);
  w.write_u32_array(ints);
  w.write_bytes(blob);
  const auto bytes = std::move(w).take();
  ByteReader r(bytes);
  std::vector<float> got_floats{9.0f};  // stale contents are replaced
  std::vector<std::uint32_t> got_ints;
  r.read_f32_array_into(got_floats);
  r.read_u32_array_into(got_ints);
  EXPECT_EQ(got_floats, floats);
  EXPECT_EQ(got_ints, ints);
  const std::span<const std::uint8_t> got_blob = r.view_bytes();
  EXPECT_EQ(std::vector<std::uint8_t>(got_blob.begin(), got_blob.end()), blob);
  EXPECT_TRUE(r.exhausted());
}

TEST(Serializer, TruncatedReadThrows) {
  ByteWriter w;
  w.write_u8(42);
  w.write_u8(0);
  const auto bytes = std::move(w).take();
  ByteReader r(bytes);
  EXPECT_THROW(r.read_u32(), std::out_of_range);
  ByteReader r2(bytes);
  std::vector<float> out;
  EXPECT_THROW(r2.read_f32_array_into(out), std::out_of_range);
}

TEST(Message, WireSizeAndSplit) {
  Message msg;
  msg.sender = 1;
  msg.body = SharedBytes::zeros(100);
  msg.metadata_bytes = 30;
  EXPECT_EQ(msg.wire_size(), 100u + Message::kEnvelopeBytes);
  EXPECT_EQ(msg.payload_bytes(), 70u);
}

TEST(Network, SendAndDrain) {
  Network net(3);
  Message msg;
  msg.sender = 0;
  msg.round = 7;
  msg.body = {1, 2, 3};
  msg.metadata_bytes = 1;
  net.send(1, msg);
  net.send(1, msg);
  net.send(2, msg);
  std::vector<Message> inbox;
  net.drain_into(1, inbox);
  EXPECT_EQ(inbox.size(), 2u);
  EXPECT_EQ(inbox[0].round, 7u);
  net.drain_into(1, inbox);
  EXPECT_TRUE(inbox.empty());  // drained
  net.drain_into(2, inbox);
  EXPECT_EQ(inbox.size(), 1u);
  const NodeTraffic& sent = net.traffic();
  EXPECT_EQ(sent.messages_sent, 3u);
  EXPECT_EQ(sent.bytes_sent, 3 * (3 + Message::kEnvelopeBytes));
  EXPECT_EQ(sent.metadata_bytes_sent, 3u);
  EXPECT_EQ(sent.payload_bytes_sent, 6u);
}

TEST(Network, BoundsChecked) {
  Network net(2);
  Message msg;
  msg.sender = 0;
  EXPECT_THROW(net.send(5, msg), std::out_of_range);
  msg.sender = 9;
  EXPECT_THROW(net.send(1, msg), std::out_of_range);
  std::vector<Message> inbox;
  EXPECT_THROW(net.drain_into(4, inbox), std::out_of_range);
}

TEST(Network, RoundTimeUsesSlowestNode) {
  LinkModel link;
  link.bandwidth_bytes_per_sec = 1000.0;
  link.latency_sec = 0.5;
  Network net(2, link);
  Message big;
  big.sender = 0;
  big.body = SharedBytes::zeros(2000 - Message::kEnvelopeBytes);
  Message small;
  small.sender = 1;
  small.body = SharedBytes::zeros(100 - Message::kEnvelopeBytes);
  net.send(1, big);
  net.send(0, small);
  net.finish_round(/*compute_seconds=*/1.0);
  // compute 1.0 + latency 0.5 + 2000 bytes / 1000 Bps = 3.5 s.
  EXPECT_NEAR(net.simulated_seconds(), 3.5, 1e-9);
  // Round byte counters reset: an idle round costs compute + latency.
  net.finish_round(1.0);
  EXPECT_NEAR(net.simulated_seconds(), 5.0, 1e-9);
}

TEST(Network, ConcurrentSendsAreSafe) {
  Network net(8);
  ThreadPool pool(8);
  pool.parallel_for_lane(8, [&](unsigned, std::size_t sender) {
    for (int m = 0; m < 50; ++m) {
      Message msg;
      msg.sender = static_cast<std::uint32_t>(sender);
      msg.body = SharedBytes::zeros(16);
      net.send(static_cast<std::uint32_t>((sender + 1) % 8), msg);
    }
  });
  EXPECT_EQ(net.traffic().messages_sent, 400u);
  std::size_t received = 0;
  std::vector<Message> inbox;
  for (std::uint32_t i = 0; i < 8; ++i) {
    net.drain_into(i, inbox);
    received += inbox.size();
  }
  EXPECT_EQ(received, 400u);
}

TEST(Network, DrainReturnsCanonicalSenderOrder) {
  // Whatever order concurrent senders appended in, drain must hand back the
  // sequential engine's arrival order: (round, sender) ascending, stable
  // within one sender.
  Network net(4);
  auto send = [&](std::uint32_t sender, std::uint32_t round, std::uint8_t tag) {
    Message msg;
    msg.sender = sender;
    msg.round = round;
    msg.body = {tag};
    net.send(0, msg);
  };
  send(2, 1, 0);
  send(0, 1, 1);
  send(3, 0, 2);
  send(0, 1, 3);  // second message from sender 0, same round
  send(1, 1, 4);
  std::vector<Message> inbox;
  net.drain_into(0, inbox);
  ASSERT_EQ(inbox.size(), 5u);
  EXPECT_EQ(inbox[0].sender, 3u);  // round 0 first
  EXPECT_EQ(inbox[1].sender, 0u);
  EXPECT_EQ(inbox[1].body[0], 1);  // emission order kept within a sender
  EXPECT_EQ(inbox[2].sender, 0u);
  EXPECT_EQ(inbox[2].body[0], 3);
  EXPECT_EQ(inbox[3].sender, 1u);
  EXPECT_EQ(inbox[4].sender, 2u);
}

}  // namespace
}  // namespace jwins::net
