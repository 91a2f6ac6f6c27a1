// Full-sharing D-PSGD baseline: every round the entire model is exchanged
// with all neighbors and averaged with Metropolis-Hastings weights (Lian et
// al. 2017). This is the paper's accuracy upper-bound baseline.
#pragma once

#include "algo/node.hpp"
#include "core/sparse_payload.hpp"

namespace jwins::algo {

class FullSharingNode final : public DlNode {
 public:
  FullSharingNode(std::uint32_t rank, std::unique_ptr<nn::SupervisedModel> model,
                  data::Sampler sampler, TrainConfig config,
                  core::ValueEncoding value_encoding = core::ValueEncoding::kXorCodec);

  void share(net::Network& network, const graph::Graph& g,
             const graph::MixingWeights& weights, std::uint32_t round,
             core::RoundScratch& scratch) override;

 private:
  core::ValueEncoding value_encoding_;
};

}  // namespace jwins::algo
