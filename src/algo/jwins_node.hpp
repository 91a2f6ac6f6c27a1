// JWINS (paper Algorithm 1): wavelet-domain ranking + accumulation,
// randomized cut-off TopK selection, Elias-gamma metadata, and averaging in
// the wavelet domain before inverting back to parameters.
//
// The three ablation arms of Figure 8 are configuration, not code:
//  * without wavelet      -> Options::ranker.wavelet = "identity"
//  * without accumulation -> Options::ranker.use_accumulation = false
//  * without random cut-off -> Options::cutoff = RandomizedCutoff::fixed(E[alpha])
#pragma once

#include "algo/node.hpp"
#include "core/cutoff.hpp"
#include "core/ranker.hpp"
#include "core/sparse_payload.hpp"

namespace jwins::algo {

class JwinsNode final : public DlNode {
 public:
  struct Options {
    core::WaveletRanker::Options ranker;
    core::RandomizedCutoff cutoff = core::RandomizedCutoff::paper_default();
    core::IndexEncoding index_encoding = core::IndexEncoding::kEliasGamma;
    core::ValueEncoding value_encoding = core::ValueEncoding::kXorCodec;
  };

  JwinsNode(std::uint32_t rank, std::unique_ptr<nn::SupervisedModel> model,
            data::Sampler sampler, TrainConfig config, Options options);

  void share(net::Network& network, const graph::Graph& g,
             const graph::MixingWeights& weights, std::uint32_t round,
             core::RoundScratch& scratch) override;
  void aggregate(net::Network& network, const graph::Graph& g,
                 const graph::MixingWeights& weights, std::uint32_t round,
                 core::RoundScratch& scratch) override;

  /// Sharing fraction chosen in the most recent round (for Figure 3).
  double last_alpha() const noexcept { return last_alpha_; }

  /// How many coefficients this node has shared from each wavelet band
  /// (band 0 = coarsest approximation) across all sparse rounds so far —
  /// a diagnostic of where the ranking concentrates.
  const std::vector<std::uint64_t>& band_share_counts() const noexcept {
    return band_share_counts_;
  }

 private:
  Options options_;
  core::WaveletRanker ranker_;
  // Round state. x0_ is x^{t,0} (start-of-round model); after share() the
  // model itself holds x^{t,tau}, and own_coeffs_ its wavelet coefficients.
  std::vector<float> x0_;
  std::vector<float> own_coeffs_;
  std::vector<std::uint32_t> sent_indices_;
  bool sent_dense_ = false;
  double last_alpha_ = 0.0;
  std::vector<std::uint64_t> band_share_counts_;
};

}  // namespace jwins::algo
