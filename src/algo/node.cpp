#include "algo/node.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace jwins::algo {

namespace {

/// Salt of the byzantine victim *choice* hash (derive_seed stream tag) —
/// distinct from kByzantineStream (the per-round corruption draws) and from
/// every net::TimeModel salt, so the byzantine set is an independent draw
/// from the crash set.
constexpr std::uint64_t kSaltByzantineChoice = 0xBADC;

}  // namespace

const char* byzantine_mode_name(ByzantineMode mode) {
  switch (mode) {
    case ByzantineMode::kRandom: return "random";
    case ByzantineMode::kSignFlip: return "sign_flip";
    case ByzantineMode::kScale: return "scale";
  }
  return "unknown";
}

std::vector<std::uint32_t> byzantine_victims(std::uint64_t seed,
                                             std::size_t nodes,
                                             std::size_t count) {
  // Mirror of net::TimeModel's crash-set construction: hash every node,
  // sort, take the first `count`. A pure function of (seed, nodes), so the
  // same set is reproducible from config validation, the Experiment wiring,
  // and tests.
  std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
  order.reserve(nodes);
  for (std::size_t i = 0; i < nodes; ++i) {
    order.emplace_back(core::derive_seed(seed, i, 0, kSaltByzantineChoice),
                       static_cast<std::uint32_t>(i));
  }
  std::sort(order.begin(), order.end());
  std::vector<std::uint32_t> victims;
  const std::size_t k = std::min(count, nodes);
  victims.reserve(k);
  for (std::size_t i = 0; i < k; ++i) victims.push_back(order[i].second);
  std::sort(victims.begin(), victims.end());
  return victims;
}

DlNode::DlNode(std::uint32_t rank, std::unique_ptr<nn::SupervisedModel> model,
               data::Sampler sampler, TrainConfig config)
    : rank_(rank),
      model_(std::move(model)),
      sampler_(std::move(sampler)),
      config_(config),
      optimizer_(*model_, config.sgd) {}

float DlNode::local_train() {
  double total = 0.0;
  for (std::size_t s = 0; s < config_.local_steps; ++s) {
    const nn::Batch batch = sampler_.next();
    model_->zero_grad();
    total += model_->loss_and_grad(batch);
    optimizer_.step();
  }
  return static_cast<float>(total / static_cast<double>(config_.local_steps));
}

std::vector<float> DlNode::flat_params() {
  const std::span<const float> x = model_->flat_params();
  return {x.begin(), x.end()};
}

void DlNode::flat_params_into(std::vector<float>& out) {
  const std::span<const float> x = model_->flat_params();
  out.assign(x.begin(), x.end());
}

void DlNode::flat_params_into(std::span<float> out) {
  const std::span<const float> x = model_->flat_params();
  if (out.size() != x.size()) {
    throw std::invalid_argument("DlNode::flat_params_into: size mismatch");
  }
  std::ranges::copy(x, out.begin());
}

void DlNode::set_flat_params(std::span<const float> flat) {
  const std::span<float> x = model_->flat_params();
  if (flat.size() != x.size()) {
    throw std::invalid_argument("DlNode::set_flat_params: size mismatch");
  }
  std::ranges::copy(flat, x.begin());
}

std::size_t DlNode::param_count() { return model_->parameter_count(); }

double DlNode::weight_of(const graph::Graph& g,
                         const graph::MixingWeights& weights,
                         std::uint32_t receiver, std::uint32_t sender) {
  const auto& nbrs = g.neighbors(receiver);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (nbrs[k] == sender) return weights.neighbor_weight[receiver][k];
  }
  return 0.0;
}

double DlNode::contribution_weight(const graph::Graph& g,
                                   const graph::MixingWeights& weights,
                                   const net::Message& msg,
                                   std::uint32_t round) const {
  // Messages from the current round or ahead of it (possible under free
  // aggregation) carry no staleness; decay applies only to genuinely old
  // tags. Otherwise the scale is exactly 1.0 and base * 1.0 == base.
  const double scale =
      staleness_decay_ >= 1.0 || msg.round >= round
          ? 1.0
          : std::pow(staleness_decay_, static_cast<double>(round - msg.round));
  return weight_of(g, weights, rank_, msg.sender) * scale;
}

void DlNode::broadcast(net::Network& network, const graph::Graph& g,
                       const net::Message& msg) {
  const auto& neighbors = g.neighbors(rank_);
  for (std::size_t j : neighbors) {
    network.send(static_cast<std::uint32_t>(j), msg);
  }
  if (byzantine_) note_corrupted_sends(neighbors.size());
}

void DlNode::receive(net::Network& network, const graph::Graph& g,
                     const graph::MixingWeights& weights, std::uint32_t round,
                     std::size_t expected_length,
                     core::RoundScratch& scratch) {
  network.drain_into(rank_, scratch.inbox);
  // A body this lane already decoded for an earlier receiver in the pass is
  // read from the cache; cached references stay valid through aggregate().
  for (const net::Message& msg : scratch.inbox) {
    scratch.contributions.push_back(
        {contribution_weight(g, weights, msg, round),
         &scratch.decoded.decode(msg.body, expected_length, scratch.arena)});
  }
}

void DlNode::aggregate(net::Network& network, const graph::Graph& g,
                       const graph::MixingWeights& weights,
                       std::uint32_t round, core::RoundScratch& scratch) {
  scratch.reset();
  // Averages straight into the parameters (in a compact run, the node's
  // store slot the model views).
  const std::span<float> x = model_->flat_params();
  receive(network, g, weights, round, x.size(), scratch);
  robust_average(x, weights.self_weight[rank_], scratch.contributions,
                 scratch.arena);
}

void DlNode::corrupt_wire_values(std::span<float> values, std::uint32_t round,
                                 std::uint64_t salt) {
  switch (byzantine_mode_) {
    case ByzantineMode::kSignFlip:
      for (float& v : values) v = -v;
      break;
    case ByzantineMode::kScale: {
      const float k = static_cast<float>(byzantine_scale_);
      for (float& v : values) v *= k;
      break;
    }
    case ByzantineMode::kRandom: {
      // Seeded garbage of roughly unit magnitude, decoupled from the honest
      // values: a fresh counter stream per (node, round, span), so threaded
      // and replayed runs corrupt identically.
      core::CounterRng rng = round_rng(round, kByzantineStream + salt);
      for (float& v : values) {
        v = static_cast<float>((rng() >> 11) * 0x1.0p-53 * 2.0 - 1.0);
      }
      break;
    }
  }
}

void DlNode::robust_average(
    std::span<float> own, double self_weight,
    std::span<const core::WeightedContribution> contributions,
    core::Arena& arena) {
  core::robust_partial_average(robust_, own, self_weight, contributions,
                               arena, &robust_counters_);
}

}  // namespace jwins::algo
