#include "sim/experiment.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/rng.hpp"
#include "data/dataset.hpp"
#include "dwt/wavelet.hpp"

namespace jwins::sim {

const char* algorithm_name(Algorithm algorithm) {
  switch (algorithm) {
    case Algorithm::kFullSharing: return "full-sharing";
    case Algorithm::kRandomSampling: return "random-sampling";
    case Algorithm::kJwins: return "jwins";
    case Algorithm::kChoco: return "choco";
    case Algorithm::kPowerGossip: return "power-gossip";
  }
  return "unknown";
}

const char* engine_name(EngineKind kind) {
  switch (kind) {
    case EngineKind::kSync: return "sync";
    case EngineKind::kAsync: return "async";
  }
  return "unknown";
}

const char* async_mode_name(AsyncMode mode) {
  switch (mode) {
    case AsyncMode::kBarrier: return "barrier";
    case AsyncMode::kFree: return "free";
    case AsyncMode::kWeighted: return "weighted";
  }
  return "unknown";
}

namespace {

/// Stream tag separating each node's mini-batch sampler from its other
/// random draws (see core::derive_seed).
constexpr std::uint64_t kSamplerStream = 0xDA7A;

/// Stream tag of the per-round eval-subset draw (eval_sample).
constexpr std::uint64_t kEvalSampleStream = 0xE7A1;

/// Full-engine batch-size rule; the compact lane workers use the cap alone
/// (Sampler::next() clamps to the bound shard, so the effective batch is
/// min(kBatchCap, shard size) in both layouts).
constexpr std::size_t kBatchCap = 16;

}  // namespace

std::vector<std::string> ExperimentConfig::validate(std::size_t nodes) const {
  std::vector<std::string> errors;
  auto require = [&](bool ok, const char* message) {
    if (!ok) errors.emplace_back(message);
  };
  require(rounds >= 1, "rounds: must be >= 1");
  require(local_steps >= 1, "local_steps: must be >= 1");
  require(std::isfinite(sgd.learning_rate) && sgd.learning_rate > 0.0f &&
              sgd.learning_rate <= 1e3f,
          "learning_rate: must be in (0, 1e3]");
  require(target_accuracy <= 1.0,
          "target_accuracy: must be in (0, 1] (a fraction, not a percentage; "
          "<= 0 = off)");
  require(eval_every >= 1,
          "eval_every: must be >= 1 (0 would divide by zero in the round loop)");
  require(eval_sample_limit >= 1, "eval_sample_limit: must be >= 1");
  require(threads <= net::ThreadPool::kMaxThreads,
          "threads: must be <= 1024 (0 = all hardware threads)");
  require(eval_sample == 0 || eval_node_limit == 0,
          "eval_sample: conflicts with eval_node_limit (two node-subset "
          "rules; pick one)");
  if (node_state == NodeState::kCompact) {
    require(engine == EngineKind::kSync,
            "node_state: compact requires engine = sync");
    require(batch_sampler == BatchSampler::kCounter,
            "node_state: compact requires batch_sampler = counter (the "
            "shuffle sampler's stream is stateful and cannot be rebound "
            "across nodes)");
    require(algorithm == Algorithm::kRandomSampling ||
                algorithm == Algorithm::kFullSharing,
            "node_state: compact supports algorithm = random-sampling or "
            "full-sharing (algorithms whose node state is the parameter "
            "vector alone)");
    require(byzantine_nodes == 0,
            "node_state: compact does not support byzantine_nodes (per-node "
            "attacker flags need full node objects)");
    require(robust_agg.kind == core::RobustAggKind::kNone,
            "node_state: compact requires robust_agg = none (per-node "
            "robust counters need full node objects)");
  }
  require(compute_seconds_per_round >= 0.0,
          "compute_seconds_per_round: must be >= 0");
  require(staleness_bound == 0 || engine == EngineKind::kAsync,
          "staleness_bound: requires engine = async (the synchronous loop "
          "has no staleness to bound)");
  require(async_mode == AsyncMode::kBarrier || engine == EngineKind::kAsync,
          "async_mode: free/weighted require engine = async (the "
          "synchronous loop has no asynchrony to aggregate under)");
  require(async_mode == AsyncMode::kBarrier || staleness_bound == 0,
          "staleness_bound: only async_mode = barrier has a staleness gate "
          "to bound (free/weighted apply every arrival)");
  require(std::isfinite(staleness_decay) && staleness_decay > 0.0 &&
              staleness_decay <= 1.0,
          "staleness_decay: must be in (0, 1] (1 = no decay)");
  require(std::isfinite(stop_at_sim_time) && stop_at_sim_time >= 0.0,
          "stop_at_sim_time: must be >= 0 (seconds of simulated time; 0 = "
          "off)");
  require(link.bandwidth_bytes_per_sec > 0.0 &&
              link.bandwidth_bytes_per_sec <= 1e9 * 1e6 / 8.0,
          "bandwidth_mbit: must be in (0, 1e9]");
  require(std::isfinite(link.latency_sec) && link.latency_sec >= 0.0,
          "latency_ms: must be >= 0");
  for (std::string& e : time.validate()) errors.push_back(std::move(e));
  require(random_sampling_fraction > 0.0 && random_sampling_fraction <= 1.0,
          "random_sampling_fraction: must be in (0, 1]");
  if (jwins.ranker.wavelet != core::WaveletRanker::kIdentity) {
    try {
      dwt::wavelet_by_name(jwins.ranker.wavelet);
    } catch (const std::exception&) {
      errors.push_back("jwins_wavelet: unknown value \"" +
                       jwins.ranker.wavelet +
                       "\" (valid: haar, db2, sym2, db4, identity)");
    }
  }
  require(choco.gamma > 0.0 && choco.gamma <= 1.0,
          "choco_gamma: must be in (0, 1]");
  require(choco.fraction > 0.0 && choco.fraction <= 1.0,
          "choco_fraction: must be in (0, 1]");
  require(choco.qsgd_levels >= 1, "choco_qsgd_levels: must be >= 1");
  require(power_gossip.gamma > 0.0 && power_gossip.gamma <= 1e3,
          "power_gossip_gamma: must be in (0, 1e3]");
  require(std::isfinite(byzantine_scale),
          "byzantine_mode: scale multiplier must be finite");
  require(robust_agg.trim_fraction >= 0.0 && robust_agg.trim_fraction < 0.5,
          "robust_agg: trimmed_mean:<f> trim fraction must be in [0, 0.5) "
          "(trimming half or more leaves no survivors)");
  require(robust_agg.kind != core::RobustAggKind::kNormClip ||
              (std::isfinite(robust_agg.clip_norm) &&
               robust_agg.clip_norm > 0.0),
          "robust_agg: norm_clip:<c> clip norm must be > 0");
  require(algorithm != Algorithm::kPowerGossip ||
              (robust_agg.kind != core::RobustAggKind::kTrimmedMean &&
               robust_agg.kind != core::RobustAggKind::kMedian),
          "robust_agg: trimmed_mean/median are undefined for power-gossip "
          "(per-edge rank-1 payloads have no coordinate-wise aggregate); "
          "use none or norm_clip");
  if (nodes > 0 && time.crash_nodes >= nodes) {
    errors.push_back("crash_nodes: must leave at least one node alive (got "
                     "crash_nodes=" + std::to_string(time.crash_nodes) +
                     ", nodes=" + std::to_string(nodes) + ")");
  }
  if (nodes > 0 && byzantine_nodes > 0) {
    if (byzantine_nodes >= nodes) {
      errors.push_back("byzantine_nodes: must leave at least one honest node "
                       "(got byzantine_nodes=" +
                       std::to_string(byzantine_nodes) +
                       ", nodes=" + std::to_string(nodes) + ")");
    } else if (time.crash_nodes > 0 && time.crash_nodes < nodes) {
      // Latent-gap fix: the crash and byzantine victim sets are independent
      // seeded draws, so they can collide — a node that is simultaneously
      // crashed and byzantine would silently mount no attack during its
      // crash window. Reproduce both sets (pure functions of seed/nodes)
      // and reject the overlap.
      const net::TimeModel probe(nodes, link, time, seed);
      std::string overlap;
      for (const std::uint32_t v :
           algo::byzantine_victims(seed, nodes, byzantine_nodes)) {
        if (probe.node_crashes(v)) {
          if (!overlap.empty()) overlap += ", ";
          overlap += std::to_string(v);
        }
      }
      if (!overlap.empty()) {
        errors.push_back(
            "byzantine_nodes: node(s) " + overlap +
            " are both crashed and byzantine (the seeded victim sets "
            "overlap; change seed, crash_nodes, or byzantine_nodes)");
      }
    }
  }
  return errors;
}

namespace {

/// Throws on an invalid config, before the members built from it (the time
/// model, the thread pool's OS threads) exist.
ExperimentConfig validated(ExperimentConfig config, std::size_t nodes) {
  if (nodes == 0) throw std::invalid_argument("Experiment: empty partition");
  if (const auto errors = config.validate(nodes); !errors.empty()) {
    std::string joined = "Experiment: invalid config";
    for (const std::string& e : errors) joined += "\n  " + e;
    throw std::invalid_argument(joined);
  }
  return config;
}

}  // namespace

Experiment::Experiment(ExperimentConfig config, nn::ModelFactory factory,
                       const data::Dataset& train, data::Partition partition,
                       const data::Dataset& test,
                       std::unique_ptr<graph::TopologyProvider> topology)
    : config_(validated(std::move(config), partition.size())),
      test_(&test),
      topology_(std::move(topology)),
      network_(partition.size(),
               net::TimeModel(partition.size(), config_.link, config_.time,
                              config_.seed)),
      pool_(config_.threads) {
  const std::size_t n = partition.size();
  n_ = n;
  algo::TrainConfig train_config{config_.local_steps, config_.sgd,
                                 config_.seed};
  // PowerGossip's edge vectors are shared randomness: both endpoints must
  // derive them from the same base seed, so fold the experiment seed in
  // once, identically for every node (not per rank).
  config_.power_gossip.seed =
      core::derive_seed(config_.seed, 0, 0, config_.power_gossip.seed);
  const data::Sampler::Mode sampler_mode =
      config_.batch_sampler == BatchSampler::kCounter
          ? data::Sampler::Mode::kCounter
          : data::Sampler::Mode::kShuffle;
  if (compact()) {
    // Compact layout: no per-node objects. One lane-worker DlNode per
    // execution lane (rebound to each simulated node in turn) over a shared
    // COW parameter store; the partition is retained for rebinds and each
    // node keeps only a sampler-stream position.
    partition_ = std::move(partition);
    for (const auto& shard : partition_) {
      if (shard.empty()) {
        throw std::invalid_argument("Experiment: empty partition shard");
      }
    }
    const unsigned lanes = pool_.thread_count();
    workers_.reserve(lanes);
    for (unsigned l = 0; l < lanes; ++l) {
      auto model = factory();
      data::Sampler sampler(
          train, partition_[0], kBatchCap,
          core::derive_seed(config_.seed, 0, 0, kSamplerStream),
          data::Sampler::Mode::kCounter);
      // Placeholder identity; bind_worker() retargets before every use.
      if (config_.algorithm == Algorithm::kRandomSampling) {
        workers_.push_back(std::make_unique<algo::RandomSamplingNode>(
            0, std::move(model), std::move(sampler), train_config,
            config_.random_sampling_fraction, config_.seed));
      } else {
        workers_.push_back(std::make_unique<algo::FullSharingNode>(
            0, std::move(model), std::move(sampler), train_config));
      }
    }
    // All nodes start from the factory's identical x^(0,0): worker 0's
    // fresh parameters ARE the shared base.
    store_ = std::make_unique<NodeStateStore>(
        n, workers_.front()->model().flat_params());
    steps_done_.assign(n, 0);
  } else {
    nodes_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      auto model = factory();
      data::Sampler sampler(
          train, partition[i], /*batch_size=*/
          std::max<std::size_t>(
              1, std::min<std::size_t>(kBatchCap, partition[i].size())),
          core::derive_seed(config_.seed, i, 0, kSamplerStream),
          sampler_mode);
      const auto rank = static_cast<std::uint32_t>(i);
      switch (config_.algorithm) {
        case Algorithm::kFullSharing:
          nodes_.push_back(std::make_unique<algo::FullSharingNode>(
              rank, std::move(model), std::move(sampler), train_config));
          break;
        case Algorithm::kRandomSampling:
          nodes_.push_back(std::make_unique<algo::RandomSamplingNode>(
              rank, std::move(model), std::move(sampler), train_config,
              config_.random_sampling_fraction, config_.seed));
          break;
        case Algorithm::kJwins:
          nodes_.push_back(std::make_unique<algo::JwinsNode>(
              rank, std::move(model), std::move(sampler), train_config,
              config_.jwins));
          break;
        case Algorithm::kChoco:
          nodes_.push_back(std::make_unique<algo::ChocoNode>(
              rank, std::move(model), std::move(sampler), train_config,
              config_.choco));
          break;
        case Algorithm::kPowerGossip:
          nodes_.push_back(std::make_unique<algo::PowerGossipNode>(
              rank, std::move(model), std::move(sampler), train_config,
              config_.power_gossip));
          break;
      }
    }
  }
  // Staleness-weighted mixing (AsyncMode::kWeighted): nodes scale each
  // contribution by staleness_decay^age at aggregation time. The other
  // modes leave the default decay of 1.0, whose scaling path is the
  // bit-identical no-op every golden test pins.
  if (config_.async_mode == AsyncMode::kWeighted) {
    for (auto& node : nodes_) {
      node->set_staleness_decay(config_.staleness_decay);
    }
  }
  // Adversarial behavior: mark the seeded victim set (corruption is applied
  // inside share(), so it flows through the real codec/network path on both
  // engines) and install the robust countermeasure on every node. Honest,
  // defense-free runs never enter either branch — the bit-identical legacy
  // path tests/test_byzantine.cpp pins.
  if (config_.byzantine_nodes > 0) {
    for (const std::uint32_t v : algo::byzantine_victims(
             config_.seed, n, config_.byzantine_nodes)) {
      nodes_[v]->set_byzantine(config_.byzantine_mode,
                               config_.byzantine_scale);
    }
  }
  if (config_.robust_agg.kind != core::RobustAggKind::kNone) {
    for (auto& node : nodes_) node->set_robust_agg(config_.robust_agg);
  }
  eval_batch_ = data::full_batch(*test_, config_.eval_sample_limit);
  // One scratch per execution lane, arena pre-sized from the model so the
  // very first round already runs without heap growth. Lanes are exclusive
  // (static chunking), so scratches are never shared between running calls.
  scratch_.resize(pool_.thread_count());
  const std::size_t params = compact() ? workers_.front()->param_count()
                                       : nodes_.front()->param_count();
  for (core::RoundScratch& s : scratch_) s.reserve_for_model(params);
}

std::vector<std::uint32_t> Experiment::eval_sample_indices(std::uint64_t seed,
                                                           std::size_t round,
                                                           std::size_t nodes,
                                                           std::size_t k) {
  std::vector<std::uint32_t> out;
  if (k >= nodes) {
    out.resize(nodes);
    for (std::size_t i = 0; i < nodes; ++i) {
      out[i] = static_cast<std::uint32_t>(i);
    }
    return out;
  }
  // Rejection-sampled distinct draw from a counter stream keyed on the
  // metric round alone: no topology, thread, or history input.
  core::CounterRng rng(seed, 0, round, kEvalSampleStream);
  std::vector<std::uint8_t> taken(nodes, 0);
  out.reserve(k);
  while (out.size() < k) {
    const auto u = static_cast<std::uint32_t>(rng() % nodes);
    if (!taken[u]) {
      taken[u] = 1;
      out.push_back(u);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

double Experiment::mean_loss_over(
    std::span<const float> losses, std::span<const std::uint32_t> population,
    const std::function<bool(std::size_t)>& alive) {
  double sum = 0.0;
  std::size_t count = 0;
  if (population.empty()) {
    for (std::size_t i = 0; i < losses.size(); ++i) {
      if (!alive(i)) continue;
      sum += losses[i];
      ++count;
    }
  } else {
    for (const std::uint32_t i : population) {
      if (!alive(i)) continue;
      sum += losses[i];
      ++count;
    }
  }
  return count == 0 ? 0.0 : sum / static_cast<double>(count);
}

std::span<const std::uint32_t> Experiment::metric_population(
    std::size_t metric_round) {
  if (!eval_sample_active()) return {};
  if (subset_cache_round_ != metric_round) {
    subset_cache_ = eval_sample_indices(config_.seed, metric_round, n_,
                                        config_.eval_sample);
    subset_cache_round_ = metric_round;
  }
  return subset_cache_;
}

const graph::MixingWeights& Experiment::mixing_weights(const graph::Graph& g,
                                                       std::size_t t) {
  const std::size_t epoch = topology_->round_epoch(t);
  if (!mh_valid_ || mh_epoch_ != epoch) {
    mh_cache_ = graph::metropolis_hastings(g);
    mh_epoch_ = epoch;
    mh_valid_ = true;
  }
  return mh_cache_;
}

void Experiment::bind_worker(algo::DlNode& w, std::size_t i) {
  w.rebind(static_cast<std::uint32_t>(i), partition_[i],
           core::derive_seed(config_.seed, i, 0, kSamplerStream),
           steps_done_[i]);
  w.model().bind_params(store_->slot(i));
}

MetricPoint Experiment::evaluate(std::size_t round, double train_loss) {
  MetricPoint point;
  point.round = round;
  point.sim_seconds = network_.simulated_seconds();
  point.sim_compute_seconds = network_.simulated_compute_seconds();
  point.sim_comm_seconds = network_.simulated_comm_seconds();
  point.train_loss = train_loss;
  // The metric population: the seeded per-round subset under eval_sample,
  // the first-N prefix under eval_node_limit, every node otherwise (the two
  // subset rules are mutually exclusive by validation).
  const std::span<const std::uint32_t> subset = metric_population(round);
  const std::size_t count =
      !subset.empty() ? subset.size()
                      : (config_.eval_node_limit == 0
                             ? n_
                             : std::min(config_.eval_node_limit, n_));
  // Ordered reduction: per-node metrics are computed in parallel but summed
  // in rank order, so the reported means are thread-count independent.
  nn::EvalMetrics sums;
  timed_phase(wall_.evaluate_seconds, [&] {
    sums = pool_.parallel_reduce(
        count, nn::EvalMetrics{},
        [&](unsigned lane, std::size_t j) {
          const std::size_t node = subset.empty() ? j : subset[j];
          if (!compact()) return nodes_[node]->model().evaluate(eval_batch_);
          // Never through a view bound to a slot: evaluation copies the
          // node into the worker's own buffer and materializes nothing.
          algo::DlNode& w = *workers_[lane];
          w.model().unbind_params();
          w.set_flat_params(store_->view(node));
          return w.model().evaluate(eval_batch_);
        },
        [](nn::EvalMetrics a, const nn::EvalMetrics& b) {
          a.accuracy += b.accuracy;
          a.loss += b.loss;
          return a;
        });
  });
  point.test_accuracy = sums.accuracy / static_cast<double>(count);
  point.test_loss = sums.loss / static_cast<double>(count);
  const net::NodeTraffic& traffic = network_.traffic();
  point.avg_bytes_per_node =
      static_cast<double>(traffic.bytes_sent) / static_cast<double>(n_);
  point.avg_metadata_bytes_per_node =
      static_cast<double>(traffic.metadata_bytes_sent) /
      static_cast<double>(n_);
  return point;
}

template <class Fn>
void Experiment::for_each_alive(std::size_t t, Fn&& fn) {
  // Crash/rejoin fault injection: a node inside its crash window neither
  // trains nor communicates (its model freezes until rejoin). The check is
  // a pure function of (node, round), so skipping preserves the bit-exact
  // determinism contract; with no crash schedule every node is alive.
  const net::TimeModel& time_model = network_.time_model();
  pool_.parallel_for_lane(n_, [&](unsigned lane, std::size_t i) {
    if (!time_model.node_alive(static_cast<std::uint32_t>(i), t)) return;
    if (!compact()) {
      fn(*nodes_[i], lane, i);
      return;
    }
    algo::DlNode& w = *workers_[lane];
    bind_worker(w, i);
    fn(w, lane, i);
  });
}

ExperimentResult Experiment::run() {
  if (config_.engine == EngineKind::kAsync) {
    return run_async();  // the discrete-event driver (event_engine.cpp)
  }
  const auto run_start = std::chrono::steady_clock::now();
  ExperimentResult result;
  std::vector<float> train_losses(n_, 0.0f);
  for (std::size_t t = 0; t < config_.rounds; ++t) {
    const graph::Graph& g = topology_->round_graph(t);
    if (g.size() != n_) {
      throw std::logic_error("Experiment: topology size != node count");
    }
    const graph::MixingWeights& weights = mixing_weights(g, t);
    const auto round = static_cast<std::uint32_t>(t);

    if (compact()) {
      // Fused train+share pass: one worker bind covers both. share() reads
      // only the sharing node's own state and every mailbox drain sorts
      // canonically by (round, sender), so fusing the two passes changes no
      // bytes — it halves the binds, the dominant per-round cost at 100k+
      // nodes.
      timed_phase(wall_.train_seconds, [&] {
        for_each_alive(t, [&](algo::DlNode& node, unsigned lane,
                              std::size_t i) {
          train_losses[i] = node.local_train();
          node.share(network_, g, weights, round, scratch_[lane]);
          // The sampler-stream position advances only when the node
          // trained: a crashed node resumes its stream where it froze, like
          // the full layout's stateful per-node sampler.
          steps_done_[i] += config_.local_steps;
        });
      });
    } else {
      timed_phase(wall_.train_seconds, [&] {
        for_each_alive(t, [&](algo::DlNode& node, unsigned, std::size_t i) {
          train_losses[i] = node.local_train();
        });
      });
      timed_phase(wall_.share_seconds, [&] {
        for_each_alive(t, [&](algo::DlNode& node, unsigned lane,
                              std::size_t) {
          node.share(network_, g, weights, round, scratch_[lane]);
        });
      });
    }
    timed_phase(wall_.aggregate_seconds, [&] {
      for_each_alive(t, [&](algo::DlNode& node, unsigned lane, std::size_t) {
        node.aggregate(network_, g, weights, round, scratch_[lane]);
      });
    });
    network_.finish_round(config_.compute_seconds_per_round);
    if (end_round(t, train_losses, result)) break;
  }
  finish_run(run_start, result);
  return result;
}

bool Experiment::end_round(std::size_t t, std::span<const float> train_losses,
                           ExperimentResult& result) {
  result.rounds_run = t + 1;
  const net::TimeModel& time_model = network_.time_model();
  const auto alive = [&](std::size_t i) {
    return time_model.node_alive(static_cast<std::uint32_t>(i), t);
  };

  if (config_.algorithm == Algorithm::kJwins) {
    // Alpha over the alive nodes of the metric population, in rank order
    // (crashed nodes drew no cut-off). Under eval_sample that is the seeded
    // per-round subset the evaluation reduces over, so mean_alpha stays an
    // average over exactly the sampled nodes.
    const auto account = [&](std::size_t i) {
      if (!alive(i)) return;
      alpha_sum_ += static_cast<algo::JwinsNode&>(*nodes_[i]).last_alpha();
      ++alpha_samples_;
    };
    const std::span<const std::uint32_t> population = metric_population(t + 1);
    if (population.empty()) {
      for (std::size_t i = 0; i < n_; ++i) account(i);
    } else {
      for (const std::uint32_t i : population) account(i);
    }
  }

  // Simulated-time budget: once the clock passes the budget the round that
  // crossed it is the last one (it still gets its evaluation below).
  // Default 0 = off, leaving the loop byte-identical to the budget-free
  // engine.
  const bool budget_hit = config_.stop_at_sim_time > 0.0 &&
                          network_.simulated_seconds() >=
                              config_.stop_at_sim_time;
  const bool last_round = (t + 1 == config_.rounds) || budget_hit;
  if (t % config_.eval_every == 0 || last_round) {
    // Mean over the metric population that actually trained this round: a
    // crashed node's slot holds a stale (or never-written) loss, not a loss
    // of this round; under eval_sample the divisor is the subset's size
    // (the off-by-population rule mean_loss_over pins).
    const double mean_train_loss =
        mean_loss_over(train_losses, metric_population(t + 1), alive);
    const MetricPoint point = evaluate(t + 1, mean_train_loss);
    result.series.push_back(point);
    if (config_.target_accuracy > 0.0 &&
        point.test_accuracy >= config_.target_accuracy) {
      result.reached_target = true;
      return true;
    }
  }
  return budget_hit;
}

void Experiment::finish_run(std::chrono::steady_clock::time_point run_start,
                            ExperimentResult& result) {
  collect_summary(result);
  wall_.total_seconds +=
      std::chrono::duration<double>(std::chrono::steady_clock::now() - run_start)
          .count();
  result.wall = wall_;
}

void Experiment::collect_summary(ExperimentResult& result) {
  if (result.series.empty()) {
    result.series.push_back(evaluate(result.rounds_run, 0.0));
  }
  const MetricPoint& last = result.series.back();
  result.final_accuracy = last.test_accuracy;
  result.final_loss = last.test_loss;
  result.sim_seconds = network_.simulated_seconds();
  result.total_traffic = network_.traffic();
  result.mean_alpha =
      alpha_samples_ == 0 ? 0.0 : alpha_sum_ / static_cast<double>(alpha_samples_);
  const net::TimeModel& tm = network_.time_model();
  result.sim_time.compute_seconds = network_.simulated_compute_seconds();
  result.sim_time.comm_seconds = network_.simulated_comm_seconds();
  result.sim_time.dropped_total = tm.dropped_total();
  result.sim_time.dropped_edge = tm.dropped_edge();
  result.sim_time.dropped_burst = tm.dropped_burst();
  result.sim_time.dropped_crash = tm.dropped_crash();
  result.sim_time.crashed_node_rounds = tm.crashed_node_rounds();
  result.sim_time.stragglers = tm.straggler_count();
  result.byzantine.mode = config_.byzantine_mode;
  result.byzantine.robust_agg = config_.robust_agg.kind;
  for (const auto& node : nodes_) {
    if (node->is_byzantine()) {
      result.byzantine.attackers.push_back(node->rank());
    }
    result.byzantine.corrupted_messages += node->corrupted_messages();
    result.byzantine.trimmed_entries += node->robust_counters().trimmed_entries;
    result.byzantine.clipped_contributions +=
        node->robust_counters().clipped_contributions;
  }
}

std::uint64_t EventEngineStats::local_steps_min() const noexcept {
  std::uint64_t lo = 0;
  for (std::size_t i = 0; i < local_steps.size(); ++i) {
    lo = i == 0 ? local_steps[i] : std::min(lo, local_steps[i]);
  }
  return lo;
}

std::uint64_t EventEngineStats::local_steps_max() const noexcept {
  std::uint64_t hi = 0;
  for (const std::uint64_t s : local_steps) hi = std::max(hi, s);
  return hi;
}

double EventEngineStats::local_steps_mean() const noexcept {
  if (local_steps.empty()) return 0.0;
  double sum = 0.0;
  for (const std::uint64_t s : local_steps) sum += static_cast<double>(s);
  return sum / static_cast<double>(local_steps.size());
}

double EventEngineStats::mean_contribution_age() const noexcept {
  if (contributions_applied == 0) return 0.0;
  return static_cast<double>(contribution_age_sum) /
         static_cast<double>(contributions_applied);
}

}  // namespace jwins::sim
