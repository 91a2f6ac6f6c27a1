// PowerGossip (Vogels, Karimireddy & Jaggi, NeurIPS 2020): low-rank gossip
// compression via power iteration on pairwise model differences.
//
// The paper cites PowerGossip as the other state-of-the-art
// communication-efficient DL algorithm and skips the comparison because "it
// performs as good as tuned CHOCO"; implementing it here lets the
// reproduction check that claim directly (scenarios/baselines_powergossip,
// run at equal bytes by bench_ablation_baselines).
//
// Faithful to the original, compression is per *layer*: every parameter
// tensor is viewed as a rows x cols matrix M_b (matrices by their leading
// axis, vectors as a single row), and each matrix is compressed to rank one
// per gossip iteration with warm-started power iteration. One iteration
// spans two engine rounds:
//   phase A (even round): exchange p_b = M_b v_b per block  (rows_b floats)
//   phase B (odd round):  u_b = normalize(p_b,lo - p_b,hi) — identical on
//            both ends; exchange q_b = M_b^T u_b (cols_b floats);
//            rank-1 difference estimate (M_b,i - M_b,j) ~ u_b dq_b^T;
//            x_lo -= gamma/2 u dq^T, x_hi += gamma/2 u dq^T per block;
//            v_b <- normalize(dq_b) (warm start).
// Per-edge traffic per iteration is sum_b (rows_b + cols_b) floats —
// O(sqrt(params)) per matrix — instead of the dense parameter count.
//
// Like CHOCO, PowerGossip keeps per-neighbor state (the warm-start
// vectors), so it assumes a static topology.
#pragma once

#include <unordered_map>

#include "algo/node.hpp"

namespace jwins::algo {

class PowerGossipNode final : public DlNode {
 public:
  struct Options {
    double gamma = 1.0;   ///< consensus step on the rank-1 estimates
    std::uint64_t seed = 0x9055FEEDull;  ///< shared-randomness base seed
  };

  PowerGossipNode(std::uint32_t rank, std::unique_ptr<nn::SupervisedModel> model,
                  data::Sampler sampler, TrainConfig config, Options options);

  void share(net::Network& network, const graph::Graph& g,
             const graph::MixingWeights& weights, std::uint32_t round,
             core::RoundScratch& scratch) override;
  void aggregate(net::Network& network, const graph::Graph& g,
                 const graph::MixingWeights& weights, std::uint32_t round,
                 core::RoundScratch& scratch) override;

  /// Matrix blocks the model decomposes into (offset into the flat vector).
  struct Block {
    std::size_t offset = 0;
    std::size_t rows = 0;
    std::size_t cols = 0;
  };
  const std::vector<Block>& blocks() const noexcept { return blocks_; }

  /// Floats a node ships per neighbor per gossip iteration (p + q phases).
  std::size_t floats_per_edge_iteration() const noexcept;

 private:
  struct BlockState {
    std::vector<float> v;      ///< shared iteration vector (cols)
    std::vector<float> u;      ///< current left singular estimate (rows)
    std::vector<float> own_p;  ///< this node's M v of phase A
    std::vector<float> own_q;  ///< this node's M^T u of phase B
  };
  struct EdgeState {
    std::vector<BlockState> block_state;  ///< aligned with blocks_
  };

  EdgeState& edge(std::size_t neighbor);

  Options options_;
  std::vector<Block> blocks_;
  std::unordered_map<std::size_t, EdgeState> edges_;
};

}  // namespace jwins::algo
