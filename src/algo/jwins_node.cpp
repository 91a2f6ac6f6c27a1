#include "algo/jwins_node.hpp"

#include <algorithm>
#include <numeric>

#include "compress/topk.hpp"

namespace jwins::algo {

JwinsNode::JwinsNode(std::uint32_t rank,
                     std::unique_ptr<nn::SupervisedModel> model,
                     data::Sampler sampler, TrainConfig config, Options options)
    : DlNode(rank, std::move(model), std::move(sampler), config),
      options_(std::move(options)),
      ranker_(param_count(), options_.ranker) {
  x0_ = flat_params();
  band_share_counts_.assign(ranker_.band_count(), 0);
}

void JwinsNode::share(net::Network& network, const graph::Graph& g,
                      const graph::MixingWeights& /*weights*/,
                      std::uint32_t round, core::RoundScratch& scratch) {
  scratch.reset();
  flat_params_into(x_tau_);
  // Eq. (3): V' = V + T(x^{t,tau} - x^{t,0}).
  const std::span<const float> scores = ranker_.accumulate_round_change(
      x0_, x_tau_, scratch.arena, scratch.dwt);
  // Randomized cut-off picks this round's sharing fraction independently;
  // the draw is keyed on (seed, rank, round), not on engine call history.
  core::CounterRng rng = round_rng(round);
  last_alpha_ = options_.cutoff.sample(rng);
  const std::size_t coeff_len = ranker_.coeff_length();
  own_coeffs_.resize(coeff_len);
  ranker_.transform_into(x_tau_, own_coeffs_, scratch.dwt);

  core::PayloadView payload;
  payload.vector_length = static_cast<std::uint32_t>(coeff_len);
  core::PayloadOptions msg_options;
  msg_options.value_encoding = options_.value_encoding;
  if (last_alpha_ >= 1.0) {
    // Full share: dense wavelet vector, no index metadata.
    sent_dense_ = true;
    sent_indices_.clear();
    if (is_byzantine()) {
      // own_coeffs_ is reused as this node's own contribution in
      // aggregate(), so corruption goes through an arena copy: the wire is
      // poisoned, the attacker's own aggregation stays honest.
      const std::span<float> wire = scratch.arena.alloc<float>(coeff_len);
      std::copy(own_coeffs_.begin(), own_coeffs_.end(), wire.begin());
      corrupt_wire_values(wire, round);
      payload.values = wire;
    } else {
      payload.values = own_coeffs_;
    }
    msg_options.index_encoding = core::IndexEncoding::kDense;
  } else {
    sent_dense_ = false;
    const std::size_t k = std::max<std::size_t>(
        1, static_cast<std::size_t>(last_alpha_ * static_cast<double>(coeff_len) + 0.5));
    compress::topk_indices_into(scores, k, sent_indices_);
    for (std::uint32_t idx : sent_indices_) {
      ++band_share_counts_[ranker_.band_of(idx)];
    }
    const std::span<float> values =
        scratch.arena.alloc<float>(sent_indices_.size());
    compress::gather_into(own_coeffs_, sent_indices_, values);
    // The gathered span is wire staging (own_coeffs_ keeps the honest
    // coefficients), so sparse corruption happens in place.
    if (is_byzantine()) corrupt_wire_values(values, round);
    payload.indices = sent_indices_;
    payload.values = values;
    msg_options.index_encoding = options_.index_encoding;
  }
  // One refcounted, pool-recycled body shared by every neighbor.
  broadcast(network, g,
            core::make_message(rank(), round, payload, msg_options,
                               network.pool(), scratch.bits));
}

void JwinsNode::aggregate(net::Network& network, const graph::Graph& g,
                          const graph::MixingWeights& weights,
                          std::uint32_t round, core::RoundScratch& scratch) {
  scratch.reset();
  receive(network, g, weights, round, ranker_.coeff_length(), scratch);
  // Algorithm 1, line 10: average received wavelet coefficients with our
  // own (through the robust rule when one is configured).
  robust_average(own_coeffs_, weights.self_weight[rank()],
                 scratch.contributions, scratch.arena);
  // Line 11: invert back to the parameter domain, straight into the model.
  const std::span<float> x_next = model().flat_params();
  ranker_.inverse_into(own_coeffs_, x_next, scratch.dwt);
  // Line 12 / eq. (4): fold in the averaging change, reset shared entries.
  if (sent_dense_) {
    const std::span<std::uint32_t> all =
        scratch.arena.alloc<std::uint32_t>(ranker_.coeff_length());
    std::iota(all.begin(), all.end(), 0u);
    ranker_.finish_round(x_tau_, x_next, all, scratch.arena, scratch.dwt);
  } else {
    ranker_.finish_round(x_tau_, x_next, sent_indices_, scratch.arena,
                         scratch.dwt);
  }
  x0_.assign(x_next.begin(), x_next.end());
}

}  // namespace jwins::algo
