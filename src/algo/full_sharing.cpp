#include "algo/full_sharing.hpp"

#include "core/sparse_payload.hpp"

namespace jwins::algo {

void FullSharingNode::share(net::Network& network, const graph::Graph& g,
                            const graph::MixingWeights& /*weights*/,
                            std::uint32_t round, core::RoundScratch& scratch) {
  scratch.reset();
  const std::span<float> x = scratch.arena.alloc<float>(param_count());
  flat_params_into(x);
  // Wire-only corruption: x is the arena staging copy, never written back,
  // so a byzantine node poisons its broadcast while training honestly.
  if (is_byzantine()) corrupt_wire_values(x, round);
  core::PayloadView payload;
  payload.vector_length = static_cast<std::uint32_t>(x.size());
  payload.values = x;
  core::PayloadOptions options;
  options.index_encoding = core::IndexEncoding::kDense;
  const net::Message msg = core::make_message(
      rank(), round, payload, options, network.pool(), scratch.bits);
  broadcast(network, g, msg);
}

}  // namespace jwins::algo
