// Decentralized-learning node framework — the base class every algorithm
// in src/algo/ derives from, and the interface the sim/ engine drives.
//
// Every algorithm follows the paper's train-communicate-aggregate round
// structure (§II-A): the engine calls local_train() on every node (tau SGD
// steps on the node's partition), then share() (messages go out through the
// simulated net::Network), then aggregate() (mailboxes are drained and
// models merged under the topology's mixing weights). Algorithms differ
// only in what share()/aggregate() put on the wire — full_sharing sends the
// dense model, random_sampling a seeded index sample, choco an
// error-feedback-compressed difference, and jwins_node the wavelet-ranked
// randomized-cut-off payload of Algorithm 1. JWINS' claim is precisely that
// it is independent of the rest of the DL stack: DlNode gives every
// algorithm the identical model/optimizer/data substrate so byte and
// accuracy comparisons isolate the communication policy.
//
// The shared communication steps live here too. broadcast() sends one
// message to every neighbour and books corrupted sends. receive() is the
// input side of Algorithm 1, line 10 for every payload algorithm: it drains
// the inbox, reads each body's sparse payload (decoded once per body,
// whichever lane or pass reads it first; every other reader shares that
// decode), checks its length against the receiver's vector, and weighs it
// (mixing weight times the staleness decay). The default aggregate() averages those contributions into the
// model in the parameter domain; JWINS averages them in the wavelet domain
// and CHOCO accumulates them as diffs.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "core/averaging.hpp"
#include "core/rng.hpp"
#include "core/scratch.hpp"
#include "data/dataset.hpp"
#include "graph/graph.hpp"
#include "net/network.hpp"
#include "nn/model.hpp"
#include "nn/sgd.hpp"

namespace jwins::algo {

/// How a byzantine node corrupts the payloads it transmits. Corruption is
/// wire-only: the attacker trains and aggregates honestly (its own model
/// stays sane), but every value span it encodes for the network is replaced
/// just before serialization, so the corruption flows through the real
/// codec/network path on both engines (docs/SIMULATION.md "Adversarial
/// behavior").
enum class ByzantineMode {
  kRandom,    ///< replace values with seeded uniform [-1, 1) noise
  kSignFlip,  ///< negate every value
  kScale,     ///< multiply every value by a constant k
};

const char* byzantine_mode_name(ByzantineMode mode);

/// Seeded byzantine victim choice — the same construction net::TimeModel
/// uses for its crash set (sort every node by a derived hash, take the first
/// `count`), under a distinct salt so crash and byzantine sets are
/// independent draws. A pure function of (seed, nodes), so validation code
/// can reproduce the set without building an Experiment. Returned ascending.
std::vector<std::uint32_t> byzantine_victims(std::uint64_t seed,
                                             std::size_t nodes,
                                             std::size_t count);

struct TrainConfig {
  std::size_t local_steps = 1;  ///< tau in the paper
  nn::Sgd::Options sgd;

  /// Experiment seed; every per-node random stream (round_rng) derives from
  /// (seed, rank, round) so runs are reproducible at any thread count.
  std::uint64_t seed = 1;
};

class DlNode {
 public:
  DlNode(std::uint32_t rank, std::unique_ptr<nn::SupervisedModel> model,
         data::Sampler sampler, TrainConfig config);
  virtual ~DlNode() = default;

  DlNode(const DlNode&) = delete;
  DlNode& operator=(const DlNode&) = delete;

  std::uint32_t rank() const noexcept { return rank_; }

  /// Retargets this node object at another simulated node's identity: rank,
  /// data shard, and sampler-stream position (counter-mode samplers only —
  /// the shuffle sampler's stream is stateful and cannot be repositioned).
  /// The compact node-state engine binds one lane-worker node per execution
  /// lane to millions of (rank, shard, params) triples this way; the model
  /// is pointed at the node's parameters separately
  /// (nn::SupervisedModel::bind_params()).
  void rebind(std::uint32_t rank, std::span<const std::size_t> shard,
              std::uint64_t sampler_seed, std::size_t sampler_step) {
    rank_ = rank;
    sampler_.rebind(shard, sampler_seed, sampler_step);
  }

  /// Runs tau mini-batch SGD steps on local data. Returns mean train loss.
  float local_train();

  /// Sends this round's messages to the neighbors in `g`. `scratch` is this
  /// call's workspace (reset by the implementation on entry): the engine
  /// hands each execution lane its own RoundScratch, so steady-state rounds
  /// allocate nothing. Anything that must survive into aggregate() lives in
  /// node members, never in scratch.
  virtual void share(net::Network& network, const graph::Graph& g,
                     const graph::MixingWeights& weights, std::uint32_t round,
                     core::RoundScratch& scratch) = 0;

  /// Drains the mailbox and merges neighbor contributions into the model.
  /// Same scratch contract as share(). The default is partial averaging of
  /// received payloads in the parameter domain (full sharing, random
  /// sampling), through the configured robust rule.
  virtual void aggregate(net::Network& network, const graph::Graph& g,
                         const graph::MixingWeights& weights,
                         std::uint32_t round, core::RoundScratch& scratch);

  nn::SupervisedModel& model() noexcept { return *model_; }

  /// Copy of the current model parameters (model().flat_params() is the
  /// vector itself).
  std::vector<float> flat_params();
  /// Reuse variants: copy into caller storage (resized / sized to
  /// param_count()) instead of allocating.
  void flat_params_into(std::vector<float>& out);
  void flat_params_into(std::span<float> out);
  /// Copies `flat` (param_count() floats) into the model's parameters.
  void set_flat_params(std::span<const float> flat);
  std::size_t param_count();

  /// Adjusts the local optimizer's step size.
  void set_learning_rate(float lr) noexcept { optimizer_.set_learning_rate(lr); }

  /// Staleness-weighted mixing (sim::AsyncMode::kWeighted): a contribution
  /// tagged s rounds before the aggregating round mixes with weight
  /// w_ij * lambda^s (contribution_weight()). The default lambda of 1.0
  /// scales by exactly 1.0, a no-op in IEEE arithmetic, so the synchronous
  /// and barrier paths stay bit-identical.
  void set_staleness_decay(double lambda) noexcept { staleness_decay_ = lambda; }
  double staleness_decay() const noexcept { return staleness_decay_; }

  /// Marks this node as a byzantine attacker: from now on share() corrupts
  /// every value span it puts on the wire (ByzantineMode semantics). Never
  /// called on honest nodes, whose share() path stays bit-identical to the
  /// pre-adversarial engine.
  void set_byzantine(ByzantineMode mode, double scale) noexcept {
    byzantine_ = true;
    byzantine_mode_ = mode;
    byzantine_scale_ = scale;
  }
  bool is_byzantine() const noexcept { return byzantine_; }

  /// Robust-aggregation countermeasure applied at this node's aggregation
  /// step. The default (kNone) routes through core::partial_average
  /// unchanged — the exact legacy path.
  void set_robust_agg(const core::RobustAggConfig& config) noexcept {
    robust_ = config;
  }

  /// Messages this node put on the wire with corrupted values (0 on honest
  /// nodes); collected into the result JSON's "byzantine" block.
  std::uint64_t corrupted_messages() const noexcept {
    return corrupted_messages_;
  }
  /// What the robust rule discarded/shrank at this node's aggregations.
  const core::RobustAggCounters& robust_counters() const noexcept {
    return robust_counters_;
  }

 protected:
  /// Mixing weight w_{rank,sender}; returns 0 for non-neighbors.
  static double weight_of(const graph::Graph& g,
                          const graph::MixingWeights& weights,
                          std::uint32_t receiver, std::uint32_t sender);

  /// The mixing weight of `msg` at aggregation time: weight_of() times
  /// lambda^(round - msg.round). The scale is exactly 1.0 when no decay is
  /// set or the message is current/future-tagged, so the result is then
  /// weight_of() bit for bit.
  double contribution_weight(const graph::Graph& g,
                             const graph::MixingWeights& weights,
                             const net::Message& msg,
                             std::uint32_t round) const;

  /// Sends `msg` to every neighbour in `g`, and books the sends as corrupted
  /// on a byzantine node.
  void broadcast(net::Network& network, const graph::Graph& g,
                 const net::Message& msg);

  /// Drains this node's inbox into scratch.inbox, decodes every message
  /// through core::decoded_payload (once per body, however many receivers
  /// on any lane read it), and pushes one
  /// {contribution_weight(), &payload} per message into
  /// scratch.contributions, in inbox order. Throws, before decoding its
  /// sections, when a payload's vector_length is not `expected_length`
  /// (param_count(), or the coefficient length for JWINS). The caller
  /// resets `scratch` first.
  void receive(net::Network& network, const graph::Graph& g,
               const graph::MixingWeights& weights, std::uint32_t round,
               std::size_t expected_length, core::RoundScratch& scratch);

  /// Fresh counter-based random stream for this node's draws in `round`.
  /// A pure function of (experiment seed, rank, round, salt): the k-th draw
  /// never depends on earlier rounds or other nodes, so threaded execution
  /// is bit-identical to sequential (see docs/DESIGN.md).
  core::CounterRng round_rng(std::uint32_t round,
                             std::uint64_t salt = 0) const noexcept {
    return core::CounterRng(config_.seed, rank_, round, salt);
  }

  /// Stream tag of the byzantine corruption draws (round_rng salt base);
  /// algorithms needing a second adversarial stream in the same round (e.g.
  /// CHOCO's re-quantization of the corrupted diff) offset from it.
  static constexpr std::uint64_t kByzantineStream = 0xBAD1;

  /// Applies the configured corruption to a wire-bound value span, in place.
  /// Only ever called under is_byzantine(); `salt` disambiguates multiple
  /// corrupted spans in one round (per-edge payloads, per-block arrays).
  void corrupt_wire_values(std::span<float> values, std::uint32_t round,
                           std::uint64_t salt = 0);

  /// Books `messages` corrupted sends (broadcast() does this itself; for
  /// per-edge sends that bypass it).
  void note_corrupted_sends(std::size_t messages) noexcept {
    corrupted_messages_ += static_cast<std::uint64_t>(messages);
  }

  /// Routes Algorithm 1's partial averaging through the configured robust
  /// rule; kNone is core::partial_average itself.
  void robust_average(std::span<float> own, double self_weight,
                      std::span<const core::WeightedContribution> contributions,
                      core::Arena& arena);

  const core::RobustAggConfig& robust_agg() const noexcept { return robust_; }
  core::RobustAggCounters& robust_counters_mutable() noexcept {
    return robust_counters_;
  }

 private:
  std::uint32_t rank_;
  std::unique_ptr<nn::SupervisedModel> model_;
  data::Sampler sampler_;
  TrainConfig config_;
  nn::Sgd optimizer_;
  double staleness_decay_ = 1.0;  ///< 1.0 = no decay (exact no-op scaling)
  bool byzantine_ = false;
  ByzantineMode byzantine_mode_ = ByzantineMode::kSignFlip;
  double byzantine_scale_ = 1.0;
  core::RobustAggConfig robust_;
  core::RobustAggCounters robust_counters_;
  std::uint64_t corrupted_messages_ = 0;
};

}  // namespace jwins::algo
