#include "algo/choco.hpp"

#include <algorithm>
#include <stdexcept>

#include "compress/quantize.hpp"
#include "compress/topk.hpp"
#include "net/serializer.hpp"

namespace jwins::algo {

ChocoNode::ChocoNode(std::uint32_t rank,
                     std::unique_ptr<nn::SupervisedModel> model,
                     data::Sampler sampler, TrainConfig config, Options options)
    : DlNode(rank, std::move(model), std::move(sampler), config),
      options_(options) {
  if (options_.fraction <= 0.0 || options_.fraction > 1.0) {
    throw std::invalid_argument("ChocoNode: fraction must be in (0, 1]");
  }
  // x̂ and s start at zero; the first rounds "fill in" the public copies,
  // matching the CHOCO initialization x̂_i^0 = 0.
  x_hat_.assign(param_count(), 0.0f);
  s_.assign(param_count(), 0.0f);
}

void ChocoNode::share(net::Network& network, const graph::Graph& g,
                      const graph::MixingWeights& /*weights*/,
                      std::uint32_t round, core::RoundScratch& scratch) {
  scratch.reset();
  const std::size_t n = param_count();
  const std::span<float> x = scratch.arena.alloc<float>(n);
  flat_params_into(x);
  const std::span<float> diff = scratch.arena.alloc<float>(n);
  for (std::size_t i = 0; i < n; ++i) diff[i] = x[i] - x_hat_[i];

  net::Message msg;
  if (options_.compressor == Compressor::kQsgd) {
    // Dense stochastic quantization: the node must apply the *same* lossy
    // values it broadcast, so own_values_ holds the dequantized vector.
    core::CounterRng rng = round_rng(round);
    compress::qsgd_quantize_into(diff, options_.qsgd_levels, rng,
                                 scratch.quantized);
    own_indices_.clear();  // dense
    compress::qsgd_dequantize_into(scratch.quantized, own_values_);
    if (is_byzantine()) {
      // Wire-only corruption: own_values_ keeps the honest dequantized
      // vector (the node self-applies it in aggregate()), while the wire
      // carries a corrupted diff re-quantized under a salted stream.
      const std::span<float> bad = scratch.arena.alloc<float>(n);
      std::copy(diff.begin(), diff.end(), bad.begin());
      corrupt_wire_values(bad, round);
      core::CounterRng bad_rng = round_rng(round, kByzantineStream + 1);
      compress::qsgd_quantize_into(bad, options_.qsgd_levels, bad_rng,
                                   scratch.quantized);
    }
    net::ByteWriter writer(network.pool().acquire());
    compress::qsgd_serialize_into(scratch.quantized, writer);
    msg.sender = rank();
    msg.round = round;
    msg.body = network.pool().adopt(std::move(writer).take());
    msg.metadata_bytes = 12;  // norm + levels + count header
  } else {
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(options_.fraction * static_cast<double>(n) + 0.5));
    compress::topk_indices_into(diff, k, own_indices_);
    compress::gather_into(diff, own_indices_, own_values_);

    core::PayloadView payload;
    payload.vector_length = static_cast<std::uint32_t>(n);
    payload.indices = own_indices_;
    if (is_byzantine()) {
      // own_values_ is self-applied in aggregate(), so the wire gets a
      // corrupted arena copy and the attacker's own state stays honest.
      const std::span<float> wire =
          scratch.arena.alloc<float>(own_values_.size());
      std::copy(own_values_.begin(), own_values_.end(), wire.begin());
      corrupt_wire_values(wire, round);
      payload.values = wire;
    } else {
      payload.values = own_values_;
    }
    core::PayloadOptions msg_options;
    msg_options.index_encoding = options_.index_encoding;
    msg_options.value_encoding = options_.value_encoding;
    msg = core::make_message(rank(), round, payload, msg_options,
                             network.pool(), scratch.bits);
  }
  broadcast(network, g, msg);
}

void ChocoNode::aggregate(net::Network& network, const graph::Graph& g,
                          const graph::MixingWeights& weights,
                          std::uint32_t round, core::RoundScratch& scratch) {
  scratch.reset();
  const double w_self = weights.self_weight[rank()];
  // x̂_i += q_i and s += w_ii * q_i (own contribution).
  if (own_indices_.empty() && !own_values_.empty()) {  // dense (qsgd)
    for (std::size_t i = 0; i < own_values_.size(); ++i) {
      x_hat_[i] += own_values_[i];
      s_[i] += static_cast<float>(w_self * own_values_[i]);
    }
  } else {
    for (std::size_t i = 0; i < own_indices_.size(); ++i) {
      const std::uint32_t idx = own_indices_[i];
      x_hat_[idx] += own_values_[i];
      s_[idx] += static_cast<float>(w_self * own_values_[i]);
    }
  }
  // s += Σ_j w_ij q_j over every neighbour diff, through the configured
  // robust rule; without one this is the literal in-order weighted scatter.
  // Under weighted async mode the mixing weight carries the λ^staleness
  // decay.
  if (options_.compressor == Compressor::kQsgd) {
    // Dense diffs: the packed bitstream is read in place from the
    // refcounted body and dequantized into a pool slot.
    network.drain_into(rank(), scratch.inbox);
    for (const net::Message& msg : scratch.inbox) {
      core::SparsePayload& payload = scratch.payloads.next();
      compress::qsgd_dequantize_into(compress::qsgd_view(msg.body),
                                     payload.values);
      payload.vector_length = static_cast<std::uint32_t>(payload.values.size());
    }
    // Pool references are stable once every payload is decoded.
    for (std::size_t i = 0; i < scratch.inbox.size(); ++i) {
      scratch.contributions.push_back(
          {contribution_weight(g, weights, scratch.inbox[i], round),
           &scratch.payloads[i]});
    }
  } else {
    receive(network, g, weights, round, s_.size(), scratch);
  }
  core::robust_accumulate_diffs(robust_agg(), s_, scratch.contributions,
                                scratch.arena, &robust_counters_mutable());
  // Consensus step: x += γ (s - x̂) where s - x̂ = Σ_j w_ij (x̂_j - x̂_i).
  const std::span<float> x = scratch.arena.alloc<float>(param_count());
  flat_params_into(x);
  const float gamma = static_cast<float>(options_.gamma);
  for (std::size_t i = 0; i < x.size(); ++i) {
    x[i] += gamma * (s_[i] - x_hat_[i]);
  }
  set_flat_params(x);
}

}  // namespace jwins::algo
