// Tests for the extension features: QSGD quantization, CHOCO-with-
// quantization, lossy-network failure injection, and the JWINS band-share
// diagnostics.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <utility>
#include <vector>

#include "algo/choco.hpp"
#include "algo/jwins_node.hpp"
#include "compress/bitstream.hpp"
#include "compress/quantize.hpp"
#include "graph/graph.hpp"
#include "net/network.hpp"
#include "net/serializer.hpp"
#include "sim/experiment.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

// ------------------------------------------------------------ quantization

TEST(Qsgd, RoundTripSerialization) {
  std::mt19937_64 rng(1);
  std::vector<float> values(257);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::mt19937 vrng(2);
  for (float& v : values) v = dist(vrng);
  compress::QuantizedVector q;
  compress::qsgd_quantize_into(values, 15, rng, q);
  net::ByteWriter writer;
  compress::qsgd_serialize_into(q, writer);
  // norm + levels + count + the length-prefixed packed blob.
  EXPECT_EQ(writer.size(), sizeof(float) + 3 * sizeof(std::uint32_t) +
                               q.packed.size());
  const compress::QuantizedView back = compress::qsgd_view(writer.buffer());
  EXPECT_EQ(back.norm, q.norm);
  EXPECT_EQ(back.levels, q.levels);
  EXPECT_EQ(back.count, q.count);
  EXPECT_TRUE(std::ranges::equal(back.packed, q.packed));
}

TEST(Qsgd, DequantizedValuesBoundedByNorm) {
  std::mt19937_64 rng(3);
  std::vector<float> values{1.0f, -2.0f, 0.5f, 0.0f};
  compress::QuantizedVector q;
  compress::qsgd_quantize_into(values, 4, rng, q);
  std::vector<float> back;
  compress::qsgd_dequantize_into(q, back);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_LE(std::fabs(back[i]), q.norm + 1e-5f);
    // Sign preserved (zero stays zero or snaps to +/- small).
    if (values[i] > 0.1f) {
      EXPECT_GE(back[i], 0.0f);
    }
    if (values[i] < -0.1f) {
      EXPECT_LE(back[i], 0.0f);
    }
  }
}

TEST(Qsgd, InfiniteCoordinateTakesTheTopLevel) {
  // An infinite coordinate makes the norm infinite: the finite ones scale to
  // level 0 and the infinite ones (inf / inf) to the top level s.
  std::mt19937_64 rng(5);
  const std::vector<float> values{2.0f, INFINITY, -INFINITY};
  compress::QuantizedVector q;
  compress::qsgd_quantize_into(values, 4, rng, q);
  compress::BitReader reader(q.packed);
  const std::vector<std::pair<bool, std::uint64_t>> expected{
      {false, 0}, {false, 4}, {true, 4}};
  for (const auto& [negative, level] : expected) {
    EXPECT_EQ(reader.read_bit(), negative);
    EXPECT_EQ(reader.read_bits(3), level);  // bit_width(4) level bits
  }
}

TEST(Qsgd, UnbiasedInExpectation) {
  // E[Q(x)] = x: average many stochastic quantizations of one vector.
  const std::vector<float> values{0.7f, -0.3f, 0.05f, -0.9f};
  std::vector<double> mean(values.size(), 0.0);
  const int trials = 4000;
  std::mt19937_64 rng(7);
  compress::QuantizedVector q;
  std::vector<float> back;
  for (int t = 0; t < trials; ++t) {
    compress::qsgd_quantize_into(values, 4, rng, q);
    compress::qsgd_dequantize_into(q, back);
    for (std::size_t i = 0; i < values.size(); ++i) mean[i] += back[i];
  }
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_NEAR(mean[i] / trials, values[i], 0.02) << "coord " << i;
  }
}

TEST(Qsgd, MoreLevelsLessError) {
  std::vector<float> values(512);
  std::mt19937 vrng(5);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (float& v : values) v = dist(vrng);
  auto error = [&](std::uint32_t levels) {
    std::mt19937_64 rng(9);
    compress::QuantizedVector q;
    compress::qsgd_quantize_into(values, levels, rng, q);
    std::vector<float> back;
    compress::qsgd_dequantize_into(q, back);
    double err = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
      err += (back[i] - values[i]) * (back[i] - values[i]);
    }
    return err;
  };
  EXPECT_LT(error(63), error(7));
  EXPECT_LT(error(7), error(1));
}

TEST(Qsgd, WireSizeScalesWithLevels) {
  std::vector<float> values(1000, 0.5f);
  std::mt19937_64 rng(11);
  // 1 level: 1 sign + 1 level bit = 2 bits/elem; 15 levels: 1 + 4 bits.
  compress::QuantizedVector q1, q15;
  compress::qsgd_quantize_into(values, 1, rng, q1);
  compress::qsgd_quantize_into(values, 15, rng, q15);
  EXPECT_NEAR(static_cast<double>(q1.packed.size()), 2.0 * 1000 / 8, 2.0);
  EXPECT_NEAR(static_cast<double>(q15.packed.size()), 5.0 * 1000 / 8, 2.0);
  // Both are far below the 4000-byte float payload.
  EXPECT_LT(q15.packed.size() * 4u, values.size() * sizeof(float));
}

TEST(Qsgd, ZeroLevelsThrows) {
  std::mt19937_64 rng(1);
  std::vector<float> values{1.0f};
  compress::QuantizedVector q;
  EXPECT_THROW(compress::qsgd_quantize_into(values, 0, rng, q),
               std::invalid_argument);
}

// --------------------------------------------------- choco with quantizer

TEST(ChocoQsgd, ConvergesOnQuadratics) {
  using testutil::DummyDataset;
  using testutil::QuadraticModel;
  const std::size_t n = 8, dim = 24;
  DummyDataset dataset;
  net::Network network(n);
  core::RoundScratch scratch;
  std::mt19937 grng(7);
  const graph::Graph g = graph::random_regular(n, 4, grng);
  const graph::MixingWeights weights = graph::metropolis_hastings(g);
  std::vector<std::unique_ptr<algo::DlNode>> nodes;
  auto target = [&](std::size_t r) {
    tensor::Tensor t({dim});
    for (std::size_t i = 0; i < dim; ++i) {
      t[i] = std::sin(0.3f * float(i + 1) * float(r + 1)) * 2.0f;
    }
    return t;
  };
  tensor::Tensor mean({dim});
  for (std::size_t r = 0; r < n; ++r) mean += target(r);
  mean *= 1.0f / float(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::mt19937 irng(1000 + unsigned(r));
    algo::ChocoNode::Options opt;
    opt.gamma = 0.4;
    opt.compressor = algo::ChocoNode::Compressor::kQsgd;
    opt.qsgd_levels = 15;
    algo::TrainConfig tc;
    tc.sgd.learning_rate = 0.1f;
    nodes.push_back(std::make_unique<algo::ChocoNode>(
        std::uint32_t(r),
        std::make_unique<QuadraticModel>(target(r),
                                         tensor::Tensor::normal({dim}, 0, 1, irng)),
        data::Sampler(dataset, {0, 1, 2, 3}, 4, 1), tc, opt));
  }
  auto round = [&](std::uint32_t t) {
    for (auto& node : nodes) node->local_train();
    for (auto& node : nodes) node->share(network, g, weights, t, scratch);
    for (auto& node : nodes) node->aggregate(network, g, weights, t, scratch);
  };
  for (std::uint32_t t = 0; t < 300; ++t) round(t);
  for (auto& node : nodes) node->set_learning_rate(0.01f);
  for (std::uint32_t t = 300; t < 500; ++t) round(t);
  float worst = 0.0f;
  for (auto& node : nodes) {
    const auto x = node->flat_params();
    for (std::size_t i = 0; i < dim; ++i) {
      worst = std::max(worst, std::fabs(x[i] - mean[i]));
    }
  }
  EXPECT_LT(worst, 0.3f);
}

// A QSGD body's count sizes the dequantized vector, so the receiver checks it
// against its own model, and the packed section against the count, before
// the payload slot is sized from it.
TEST(ChocoQsgd, RejectsAMismatchedCountBeforeDequantizing) {
  using testutil::DummyDataset;
  using testutil::QuadraticModel;
  const std::size_t dim = 24;
  const std::uint32_t levels = 15;  // 1 + 4 bits per element
  DummyDataset dataset;
  net::Network network(2);
  core::RoundScratch scratch;
  const graph::Graph g = graph::complete(2);
  const graph::MixingWeights weights = graph::metropolis_hastings(g);
  algo::ChocoNode::Options opt;
  opt.compressor = algo::ChocoNode::Compressor::kQsgd;
  opt.qsgd_levels = levels;
  std::mt19937 irng(3);
  algo::ChocoNode node(
      1,
      std::make_unique<QuadraticModel>(tensor::Tensor({dim}),
                                       tensor::Tensor::normal({dim}, 0, 1, irng)),
      data::Sampler(dataset, {0, 1, 2, 3}, 4, 1), algo::TrainConfig{}, opt);
  auto qsgd_body = [&](std::uint32_t count, std::size_t packed_bytes) {
    net::ByteWriter body;
    body.write_f32(1.0f);
    body.write_u32(levels);
    body.write_u32(count);
    body.write_bytes(std::vector<std::uint8_t>(packed_bytes, 0));
    return std::move(body).take();
  };
  auto deliver_and_aggregate = [&](std::vector<std::uint8_t> bytes) {
    net::Message msg;
    msg.body = std::move(bytes);
    network.send(1, msg);
    node.aggregate(network, g, weights, 0, scratch);
  };

  const std::vector<std::uint8_t> huge = qsgd_body(1u << 24, 0);
  ASSERT_EQ(huge.size(), 16u);
  EXPECT_THROW(deliver_and_aggregate(huge), std::runtime_error);
  for (std::size_t i = 0; i < scratch.payloads.used(); ++i) {
    EXPECT_LE(scratch.payloads[i].values.capacity(), dim);
  }
  // The model's count, with a packed section one byte short of 24 * 5 bits.
  EXPECT_THROW(deliver_and_aggregate(qsgd_body(dim, 14)), std::runtime_error);
  EXPECT_NO_THROW(deliver_and_aggregate(qsgd_body(dim, 15)));
  EXPECT_EQ(scratch.payloads[0].values.size(), dim);
}

// -------------------------------------------------------- failure injection

TEST(NetworkDrop, DropsDeterministicFraction) {
  net::TimeModelConfig lossy;
  lossy.edge_drop = {net::EdgeDropDist::Kind::kFixed, 0.3, 0.0};
  net::Network a(4, net::TimeModel(4, {}, lossy, 99));
  net::Network b(4, net::TimeModel(4, {}, lossy, 99));
  std::vector<net::Message> inbox;
  std::size_t delivered_a = 0, delivered_b = 0;
  for (std::uint32_t round = 0; round < 200; ++round) {
    for (std::uint32_t s = 0; s < 4; ++s) {
      net::Message msg;
      msg.sender = s;
      msg.round = round;
      msg.body = net::SharedBytes::zeros(8);
      a.send((s + 1) % 4, msg);
      b.send((s + 1) % 4, msg);
    }
    for (std::uint32_t i = 0; i < 4; ++i) {
      a.drain_into(i, inbox);
      delivered_a += inbox.size();
      b.drain_into(i, inbox);
      delivered_b += inbox.size();
    }
  }
  EXPECT_EQ(delivered_a, delivered_b);  // deterministic given seed
  const double drop_rate = 1.0 - static_cast<double>(delivered_a) / 800.0;
  EXPECT_NEAR(drop_rate, 0.3, 0.06);
  EXPECT_EQ(a.time_model().dropped_total(), 800 - delivered_a);
  // Dropped messages still count as sent (the bytes left the sender).
  EXPECT_EQ(a.traffic().messages_sent, 800u);
}

TEST(NetworkDrop, InvalidProbabilityThrows) {
  // A drop probability outside [0, 1) never reaches a Network: the
  // experiment refuses the config.
  const sim::Workload w = sim::make_celeba_like(4, 3);
  for (const double p : {-0.1, 1.0}) {
    sim::ExperimentConfig cfg;
    cfg.time.edge_drop = {net::EdgeDropDist::Kind::kFixed, p, 0.0};
    std::mt19937 rng(3);
    EXPECT_THROW(sim::Experiment(cfg, w.model_factory, *w.train, w.partition,
                                 *w.test,
                                 std::make_unique<graph::StaticTopology>(
                                     graph::random_regular(4, 3, rng))),
                 std::invalid_argument)
        << "p = " << p;
  }
}

TEST(ExperimentDrop, JwinsToleratesLossyLinks) {
  // The paper credits JWINS' statelessness for robustness to nodes leaving
  // and joining; partial averaging simply renormalizes over whoever arrived,
  // so a 15%-lossy network must still learn.
  const std::size_t n = 8;
  const sim::Workload w = sim::make_cifar_like(n, 21);
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kJwins;
  cfg.rounds = 40;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = 40;
  cfg.eval_sample_limit = 160;
  cfg.eval_node_limit = 4;
  cfg.time.edge_drop = {net::EdgeDropDist::Kind::kFixed, 0.15, 0.0};
  std::mt19937 rng(21);
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::random_regular(n, 4, rng)));
  const auto result = exp.run();
  EXPECT_GT(result.final_accuracy, 0.4);  // well above 10-class chance
  EXPECT_GT(exp.network().time_model().dropped_total(), 0u);
}

// ----------------------------------------------------------- band stats

TEST(JwinsBandStats, TracksSharedBands) {
  using testutil::DummyDataset;
  using testutil::QuadraticModel;
  const std::size_t n = 4, dim = 64;
  DummyDataset dataset;
  net::Network network(n);
  core::RoundScratch scratch;
  const graph::Graph g = graph::complete(n);
  const graph::MixingWeights weights = graph::metropolis_hastings(g);
  std::vector<std::unique_ptr<algo::JwinsNode>> nodes;
  for (std::size_t r = 0; r < n; ++r) {
    std::mt19937 irng(50 + unsigned(r));
    algo::JwinsNode::Options opt;
    opt.cutoff = core::RandomizedCutoff::fixed(0.25);  // always sparse
    algo::TrainConfig tc;
    tc.sgd.learning_rate = 0.1f;
    // Constant target and constant (zero) init: every round's model change
    // is a constant vector, whose wavelet energy lives entirely in the
    // coarse approximation band.
    tensor::Tensor target({dim}, float(r + 1));
    nodes.push_back(std::make_unique<algo::JwinsNode>(
        std::uint32_t(r),
        std::make_unique<QuadraticModel>(target, tensor::Tensor({dim})),
        data::Sampler(dataset, {0, 1, 2, 3}, 4, 1), tc, opt));
    (void)irng;
  }
  for (std::uint32_t t = 0; t < 10; ++t) {
    for (auto& node : nodes) node->local_train();
    for (auto& node : nodes) node->share(network, g, weights, t, scratch);
    for (auto& node : nodes) node->aggregate(network, g, weights, t, scratch);
  }
  const auto& counts = nodes[0]->band_share_counts();
  EXPECT_EQ(counts.size(), 5u);  // a4, d4, d3, d2, d1
  const std::uint64_t total = std::accumulate(counts.begin(), counts.end(),
                                              std::uint64_t{0});
  // alpha = 0.25 of 64 coefficients over 10 rounds.
  EXPECT_EQ(total, 10u * 16u);
  // The targets are constant vectors, so changes concentrate in the coarse
  // approximation band: band 0 (4 coefficients) must be shared every round.
  EXPECT_EQ(counts[0], 10u * 4u);
}

TEST(JwinsBandStats, IdentityTransformHasOneBand) {
  using testutil::DummyDataset;
  using testutil::QuadraticModel;
  DummyDataset dataset;
  algo::JwinsNode::Options opt;
  opt.ranker.wavelet = core::WaveletRanker::kIdentity;
  algo::TrainConfig tc;
  std::mt19937 irng(3);
  algo::JwinsNode node(0,
                       std::make_unique<QuadraticModel>(
                           tensor::Tensor({8}, 1.0f),
                           tensor::Tensor::normal({8}, 0, 1, irng)),
                       data::Sampler(dataset, {0, 1, 2, 3}, 4, 1), tc, opt);
  EXPECT_EQ(node.band_share_counts().size(), 1u);
}

}  // namespace
}  // namespace jwins
