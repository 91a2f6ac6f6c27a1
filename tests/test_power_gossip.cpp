// PowerGossip tests: shared-randomness agreement, pairwise averaging along
// the rank-1 direction, consensus contraction, and the O(sqrt(d)) traffic
// footprint.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "algo/power_gossip.hpp"
#include "graph/graph.hpp"
#include "net/network.hpp"
#include "test_util.hpp"

namespace jwins::algo {
namespace {

using testutil::DummyDataset;
using testutil::QuadraticModel;
using tensor::Tensor;

constexpr std::size_t kDim = 64;

TrainConfig no_train() {
  TrainConfig cfg;
  cfg.sgd.learning_rate = 0.0f;
  return cfg;
}

TrainConfig train(float lr) {
  TrainConfig cfg;
  cfg.sgd.learning_rate = lr;
  return cfg;
}

std::unique_ptr<QuadraticModel> quad(const Tensor& target, const Tensor& init) {
  return std::make_unique<QuadraticModel>(target, init);
}

struct Pair {
  DummyDataset dataset;
  net::Network network{2};
  core::RoundScratch scratch;
  graph::Graph graph = graph::complete(2);
  graph::MixingWeights weights = graph::metropolis_hastings(graph);
  std::unique_ptr<PowerGossipNode> a, b;

  Pair(Tensor xa, Tensor xb, TrainConfig cfg = no_train()) {
    PowerGossipNode::Options opt;
    Tensor target(xa.shape());
    a = std::make_unique<PowerGossipNode>(
        0, quad(target, std::move(xa)),
        data::Sampler(dataset, {0, 1, 2, 3}, 4, 1), cfg, opt);
    b = std::make_unique<PowerGossipNode>(
        1, quad(target, std::move(xb)),
        data::Sampler(dataset, {0, 1, 2, 3}, 4, 1), cfg, opt);
  }

  void gossip_iteration(std::uint32_t base_round) {
    for (std::uint32_t phase = 0; phase < 2; ++phase) {
      const std::uint32_t r = base_round * 2 + phase;
      a->share(network, graph, weights, r, scratch);
      b->share(network, graph, weights, r, scratch);
      a->aggregate(network, graph, weights, r, scratch);
      b->aggregate(network, graph, weights, r, scratch);
    }
  }

  float difference() {
    const auto xa = a->flat_params();
    const auto xb = b->flat_params();
    float d = 0.0f;
    for (std::size_t i = 0; i < xa.size(); ++i) {
      d = std::max(d, std::fabs(xa[i] - xb[i]));
    }
    return d;
  }
};

TEST(PowerGossip, BlocksFollowParameterTensors) {
  DummyDataset dataset;
  // A vector-shaped parameter becomes a single-row block (rank-1 exact).
  PowerGossipNode vec_node(0, quad(Tensor({kDim}), Tensor({kDim})),
                           data::Sampler(dataset, {0, 1, 2, 3}, 4, 1),
                           no_train(), {});
  ASSERT_EQ(vec_node.blocks().size(), 1u);
  EXPECT_EQ(vec_node.blocks()[0].rows, 1u);
  EXPECT_EQ(vec_node.blocks()[0].cols, kDim);
  // A matrix-shaped parameter keeps its leading axis as rows, so one gossip
  // iteration ships rows+cols = O(sqrt(d)) floats instead of d.
  PowerGossipNode mat_node(0, quad(Tensor({8, 8}), Tensor({8, 8})),
                           data::Sampler(dataset, {0, 1, 2, 3}, 4, 1),
                           no_train(), {});
  ASSERT_EQ(mat_node.blocks().size(), 1u);
  EXPECT_EQ(mat_node.blocks()[0].rows, 8u);
  EXPECT_EQ(mat_node.blocks()[0].cols, 8u);
  EXPECT_EQ(mat_node.floats_per_edge_iteration(), 16u);
}

TEST(PowerGossip, RankOneDifferenceResolvedInOneIteration) {
  // If M_a - M_b is exactly rank one, a single power iteration recovers it
  // exactly and the symmetric gamma=1 gossip step moves both endpoints to
  // their average — the difference vanishes in ONE iteration.
  Tensor xa({8, 8}), xb({8, 8});
  // M_a - M_b = outer(e_2, ramp).
  for (std::size_t c = 0; c < 8; ++c) {
    xa[2 * 8 + c] = static_cast<float>(c + 1);
  }
  Pair pair(xa, xb);
  EXPECT_GT(pair.difference(), 1.0f);
  pair.gossip_iteration(0);
  EXPECT_NEAR(pair.difference(), 0.0f, 1e-4f);
}

TEST(PowerGossip, GeneralMatrixDifferenceContracts) {
  // A full-rank difference needs several warm-started iterations: each one
  // removes (roughly) the current top singular direction.
  std::mt19937 rng(3);
  Pair pair(Tensor::normal({8, 8}, 0, 1, rng), Tensor::normal({8, 8}, 0, 1, rng));
  const float before = pair.difference();
  for (std::uint32_t it = 0; it < 60; ++it) pair.gossip_iteration(it);
  EXPECT_LT(pair.difference(), before * 0.05f);
}

TEST(PowerGossip, PreservesPairMean) {
  // The symmetric +/- update keeps the average of the two models fixed.
  std::mt19937 rng(5);
  const Tensor xa = Tensor::normal({8, 8}, 0, 1, rng);
  const Tensor xb = Tensor::normal({8, 8}, 0, 1, rng);
  Pair pair(xa, xb);
  std::vector<float> mean_before(xa.size());
  for (std::size_t i = 0; i < xa.size(); ++i) mean_before[i] = (xa[i] + xb[i]) / 2;
  for (std::uint32_t it = 0; it < 10; ++it) pair.gossip_iteration(it);
  const auto fa = pair.a->flat_params();
  const auto fb = pair.b->flat_params();
  for (std::size_t i = 0; i < xa.size(); ++i) {
    EXPECT_NEAR((fa[i] + fb[i]) / 2, mean_before[i], 2e-4f) << "coord " << i;
  }
}

TEST(PowerGossip, TrafficIsSquareRootOfDimension) {
  std::mt19937 rng(7);
  Pair pair(Tensor::normal({8, 8}, 0, 1, rng), Tensor::normal({8, 8}, 0, 1, rng));
  pair.gossip_iteration(0);
  // Per node, one iteration = p (rows floats) + q (cols floats) + headers.
  // Both nodes send the same shapes, so each sent half the total.
  const auto sent = pair.network.traffic().payload_bytes_sent / 2;
  EXPECT_LE(sent, (8 + 8) * sizeof(float) + 8);
  EXPECT_LT(sent, 64 * sizeof(float) / 2);  // far below dense sharing
}

TEST(PowerGossip, MultiNodeConsensusOnQuadratics) {
  const std::size_t n = 8;
  DummyDataset dataset;
  net::Network network(n);
  core::RoundScratch scratch;
  std::mt19937 grng(9);
  const graph::Graph g = graph::random_regular(n, 4, grng);
  const graph::MixingWeights weights = graph::metropolis_hastings(g);
  std::vector<std::unique_ptr<PowerGossipNode>> nodes;
  auto target = [&](std::size_t r) {
    Tensor t({kDim});
    for (std::size_t i = 0; i < kDim; ++i) {
      t[i] = std::sin(0.2f * float(i + 1) * float(r + 1));
    }
    return t;
  };
  Tensor mean({kDim});
  for (std::size_t r = 0; r < n; ++r) mean += target(r);
  mean *= 1.0f / float(n);
  for (std::size_t r = 0; r < n; ++r) {
    std::mt19937 irng(100 + unsigned(r));
    nodes.push_back(std::make_unique<PowerGossipNode>(
        std::uint32_t(r), quad(target(r), Tensor::normal({kDim}, 0, 1, irng)),
        data::Sampler(dataset, {0, 1, 2, 3}, 4, 1), train(0.1f),
        PowerGossipNode::Options{}));
  }
  auto run_rounds = [&](std::uint32_t from, std::uint32_t to) {
    for (std::uint32_t t = from; t < to; ++t) {
      for (auto& node : nodes) node->local_train();
      for (auto& node : nodes) node->share(network, g, weights, t, scratch);
      for (auto& node : nodes) node->aggregate(network, g, weights, t, scratch);
    }
  };
  run_rounds(0, 400);
  for (auto& node : nodes) node->set_learning_rate(0.01f);
  run_rounds(400, 800);
  float worst = 0.0f;
  for (auto& node : nodes) {
    const auto x = node->flat_params();
    for (std::size_t i = 0; i < kDim; ++i) {
      worst = std::max(worst, std::fabs(x[i] - mean[i]));
    }
  }
  EXPECT_LT(worst, 0.25f);
}

}  // namespace
}  // namespace jwins::algo
