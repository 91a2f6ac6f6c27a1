#include "algo/random_sampling.hpp"

#include <algorithm>
#include <stdexcept>

#include "compress/topk.hpp"

namespace jwins::algo {

RandomSamplingNode::RandomSamplingNode(
    std::uint32_t rank, std::unique_ptr<nn::SupervisedModel> model,
    data::Sampler sampler, TrainConfig config, double fraction,
    std::uint64_t seed_base)
    : DlNode(rank, std::move(model), std::move(sampler), config),
      fraction_(fraction),
      seed_base_(seed_base) {
  if (fraction <= 0.0 || fraction > 1.0) {
    throw std::invalid_argument("RandomSamplingNode: fraction must be in (0, 1]");
  }
}

void RandomSamplingNode::share(net::Network& network, const graph::Graph& g,
                               const graph::MixingWeights& /*weights*/,
                               std::uint32_t round,
                               core::RoundScratch& scratch) {
  scratch.reset();
  const std::span<const float> x = model().flat_params();
  const std::size_t n = x.size();
  const std::size_t k = std::max<std::size_t>(
      1, static_cast<std::size_t>(fraction_ * static_cast<double>(n) + 0.5));
  // Per-(node, round) subset seed, derived like every other stream
  // (core::derive_seed, no offset collisions); the receiver reconstructs the
  // subset from the 8 bytes in the message, not from this derivation.
  const std::uint64_t seed = core::derive_seed(seed_base_, rank(), round);
  compress::random_indices_into(n, k, seed, indices_, scratch.arena);
  const std::span<float> values = scratch.arena.alloc<float>(indices_.size());
  compress::gather_into(x, indices_, values);
  // Wire-only corruption: the gathered values are arena staging, the model
  // itself stays honest.
  if (is_byzantine()) corrupt_wire_values(values, round);
  core::PayloadView payload;
  payload.vector_length = static_cast<std::uint32_t>(n);
  payload.indices = indices_;
  payload.values = values;
  core::PayloadOptions options;
  options.index_encoding = core::IndexEncoding::kSeed;
  options.seed = seed;
  const net::Message msg = core::make_message(
      rank(), round, payload, options, network.pool(), scratch.bits);
  broadcast(network, g, msg);
}

}  // namespace jwins::algo
