#include "algo/power_gossip.hpp"

#include <cmath>
#include <stdexcept>

#include "net/serializer.hpp"

namespace jwins::algo {

PowerGossipNode::PowerGossipNode(std::uint32_t rank,
                                 std::unique_ptr<nn::SupervisedModel> model,
                                 data::Sampler sampler, TrainConfig config,
                                 Options options)
    : DlNode(rank, std::move(model), std::move(sampler), config),
      options_(options) {
  // One block per parameter tensor: matrices keep their leading axis as
  // rows; vectors (biases, norms) become a single row, for which rank-1 is
  // exact.
  std::size_t offset = 0;
  for (const tensor::Tensor* p : this->model().parameters()) {
    Block block;
    block.offset = offset;
    if (p->rank() >= 2) {
      block.rows = p->dim(0);
      block.cols = p->size() / p->dim(0);
    } else {
      block.rows = 1;
      block.cols = p->size();
    }
    blocks_.push_back(block);
    offset += p->size();
  }
}

std::size_t PowerGossipNode::floats_per_edge_iteration() const noexcept {
  std::size_t total = 0;
  for (const Block& b : blocks_) total += b.rows + b.cols;
  return total;
}

PowerGossipNode::EdgeState& PowerGossipNode::edge(std::size_t neighbor) {
  auto it = edges_.find(neighbor);
  if (it != edges_.end()) return it->second;
  EdgeState state;
  // Both endpoints must start from the *same* iteration vectors: seed the
  // generator from the canonical (lo, hi) edge id.
  const std::size_t lo = std::min<std::size_t>(rank(), neighbor);
  const std::size_t hi = std::max<std::size_t>(rank(), neighbor);
  std::mt19937_64 rng(options_.seed ^ (lo * 0x9E3779B97F4A7C15ull) ^
                      (hi * 0xBF58476D1CE4E5B9ull));
  std::normal_distribution<float> dist(0.0f, 1.0f);
  state.block_state.resize(blocks_.size());
  for (std::size_t b = 0; b < blocks_.size(); ++b) {
    BlockState& bs = state.block_state[b];
    bs.v.resize(blocks_[b].cols);
    for (float& x : bs.v) x = dist(rng);
    bs.u.assign(blocks_[b].rows, 0.0f);
  }
  return edges_.emplace(neighbor, std::move(state)).first->second;
}

void PowerGossipNode::share(net::Network& network, const graph::Graph& g,
                            const graph::MixingWeights& /*weights*/,
                            std::uint32_t round, core::RoundScratch& scratch) {
  scratch.reset();
  const std::span<const float> x = model().flat_params();
  const bool phase_a = (round % 2 == 0);
  // Wire-only corruption: own_p/own_q members must stay honest (the node
  // compares them against the neighbor's reply in aggregate()), so a
  // byzantine node writes a corrupted arena copy per block. Payloads differ
  // per edge, so the salt folds in (neighbor, block) to decorrelate the
  // random-mode garbage across edges.
  const auto wire_span = [&](const std::vector<float>& honest, std::size_t j,
                             std::size_t b) -> std::span<const float> {
    if (!is_byzantine()) return honest;
    const std::span<float> wire = scratch.arena.alloc<float>(honest.size());
    std::copy(honest.begin(), honest.end(), wire.begin());
    corrupt_wire_values(wire, round, (j + 1) * 256 + b);
    return wire;
  };
  for (std::size_t j : g.neighbors(rank())) {
    EdgeState& state = edge(j);
    // The per-edge payload differs, so each neighbor gets its own pooled
    // buffer (no fan-out sharing here, unlike the broadcast algorithms).
    net::ByteWriter writer(network.pool().acquire());
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const Block& block = blocks_[b];
      BlockState& bs = state.block_state[b];
      const float* m = x.data() + block.offset;
      if (phase_a) {
        // p = M v.
        bs.own_p.assign(block.rows, 0.0f);
        for (std::size_t r = 0; r < block.rows; ++r) {
          double acc = 0.0;
          for (std::size_t c = 0; c < block.cols; ++c) {
            acc += static_cast<double>(m[r * block.cols + c]) * bs.v[c];
          }
          bs.own_p[r] = static_cast<float>(acc);
        }
        writer.write_f32_array(wire_span(bs.own_p, j, b));
      } else {
        // q = M^T u.
        bs.own_q.assign(block.cols, 0.0f);
        for (std::size_t r = 0; r < block.rows; ++r) {
          const float ur = bs.u[r];
          if (ur == 0.0f) continue;
          for (std::size_t c = 0; c < block.cols; ++c) {
            bs.own_q[c] += ur * m[r * block.cols + c];
          }
        }
        writer.write_f32_array(wire_span(bs.own_q, j, b));
      }
    }
    net::Message msg;
    msg.sender = rank();
    msg.round = round;
    msg.body = network.pool().adopt(std::move(writer).take());
    msg.metadata_bytes = 4 * blocks_.size();  // array length prefixes
    network.send(static_cast<std::uint32_t>(j), msg);
    if (is_byzantine()) note_corrupted_sends(1);
  }
}

void PowerGossipNode::aggregate(net::Network& network, const graph::Graph& g,
                                const graph::MixingWeights& weights,
                                std::uint32_t round,
                                core::RoundScratch& scratch) {
  scratch.reset();
  const bool phase_a = (round % 2 == 0);
  network.drain_into(rank(), scratch.inbox);
  const std::vector<net::Message>& inbox = scratch.inbox;
  // Phase B's gossip steps update the parameters in place.
  const std::span<float> x = model().flat_params();
  for (const net::Message& msg : inbox) {
    EdgeState& state = edge(msg.sender);
    const bool lower = rank() < msg.sender;
    net::ByteReader reader(msg.body);
    for (std::size_t b = 0; b < blocks_.size(); ++b) {
      const Block& block = blocks_[b];
      BlockState& bs = state.block_state[b];
      reader.read_f32_array_into(scratch.floats);
      const std::vector<float>& theirs = scratch.floats;
      if (phase_a) {
        if (theirs.size() != block.rows || bs.own_p.size() != block.rows) continue;
        // Both endpoints derive the same u by orienting the difference from
        // the lower-ranked node to the higher-ranked one.
        const std::span<float> diff = scratch.arena.alloc<float>(block.rows);
        double norm_sq = 0.0;
        for (std::size_t r = 0; r < block.rows; ++r) {
          diff[r] = lower ? bs.own_p[r] - theirs[r] : theirs[r] - bs.own_p[r];
          norm_sq += static_cast<double>(diff[r]) * diff[r];
        }
        const double norm = std::sqrt(norm_sq);
        if (norm < 1e-12) {
          bs.u.assign(block.rows, 0.0f);
        } else {
          for (std::size_t r = 0; r < block.rows; ++r) {
            diff[r] = static_cast<float>(diff[r] / norm);
          }
          bs.u.assign(diff.begin(), diff.end());
        }
      } else {
        if (theirs.size() != block.cols || bs.own_q.size() != block.cols) continue;
        // dq = q_lo - q_hi; the rank-1 estimate of (M_lo - M_hi) is u dq^T.
        const std::span<float> dq = scratch.arena.alloc<float>(block.cols);
        for (std::size_t c = 0; c < block.cols; ++c) {
          dq[c] = lower ? bs.own_q[c] - theirs[c] : theirs[c] - bs.own_q[c];
        }
        // norm_clip robust rule: dq is the only magnitude a neighbor
        // controls (phase A's u is normalized away), so clipping ||dq||
        // bounds a byzantine neighbor's per-step influence. The other
        // order-statistic rules are undefined for per-edge rank-1 payloads
        // and rejected at config validation.
        if (robust_agg().kind == core::RobustAggKind::kNormClip) {
          double clip_sq = 0.0;
          for (const float v : dq) clip_sq += static_cast<double>(v) * v;
          const double dq_norm = std::sqrt(clip_sq);
          if (dq_norm > robust_agg().clip_norm) {
            const float f =
                static_cast<float>(robust_agg().clip_norm / dq_norm);
            for (float& v : dq) v *= f;
            ++robust_counters_mutable().clipped_contributions;
          }
        }
        // Gossip step, scaled by the Metropolis-Hastings weight as in the
        // original (x_i += gamma w_ij (x_j - x_i) along the estimated
        // direction): simultaneous updates from several neighbors then stay
        // a stable convex-combination-like step. w_ij is symmetric, so the
        // pair's mean is preserved. Under weighted async mode the weight
        // additionally carries the λ^staleness age decay (weight_of()
        // exactly, outside it).
        const double w_ij = contribution_weight(g, weights, msg, round);
        const float sign = lower ? -1.0f : 1.0f;
        const float scale =
            sign * static_cast<float>(options_.gamma * w_ij);
        float* m = x.data() + block.offset;
        for (std::size_t r = 0; r < block.rows; ++r) {
          const float ur = bs.u[r];
          if (ur == 0.0f) continue;
          for (std::size_t c = 0; c < block.cols; ++c) {
            m[r * block.cols + c] += scale * ur * dq[c];
          }
        }
        // Warm start the next power iteration from dq (normalized).
        double norm_sq = 0.0;
        for (float v : dq) norm_sq += static_cast<double>(v) * v;
        const double norm = std::sqrt(norm_sq);
        if (norm > 1e-12) {
          for (float& v : dq) v = static_cast<float>(v / norm);
          bs.v.assign(dq.begin(), dq.end());
        }
      }
    }
  }
}

}  // namespace jwins::algo
