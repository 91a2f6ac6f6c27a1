// Full-sharing D-PSGD baseline: every round the entire model is exchanged
// with all neighbors and averaged with Metropolis-Hastings weights (Lian et
// al. 2017). This is the paper's accuracy upper-bound baseline. Values go
// out XOR-coded (core::ValueEncoding::kXorCodec), the payload default.
#pragma once

#include "algo/node.hpp"

namespace jwins::algo {

class FullSharingNode final : public DlNode {
 public:
  using DlNode::DlNode;

  void share(net::Network& network, const graph::Graph& g,
             const graph::MixingWeights& weights, std::uint32_t round,
             core::RoundScratch& scratch) override;
};

}  // namespace jwins::algo
