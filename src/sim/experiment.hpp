// Experiment runner — the top of the simulation stack and the entry point
// every bench and example drives.
//
// An Experiment wires a dataset partition (data/), a model factory (nn/), a
// topology provider (graph/) and one of the algorithms (algo/) into the
// bulk-synchronous D-PSGD round loop (train -> share -> aggregate),
// collecting the metrics the paper reports (paper §IV-B g): average test
// accuracy/loss across nodes, bytes transferred (payload vs metadata via
// net::Network's accounting), and simulated wall-clock time (net::TimeModel
// — flat link by default, per-edge heterogeneity/stragglers/faults via
// ExperimentConfig::time; docs/SIMULATION.md). It also owns the
// cross-cutting protocol knobs — target-accuracy stopping (the
// Figure 5/6 protocol), fault injection, and the threaded execution
// engine (a persistent net::ThreadPool whose
// static chunking + counter-based per-node RNG streams keep `threads = N`
// bit-identical to `threads = 1`; see docs/DESIGN.md "Determinism &
// threading model"). For a minimal end-to-end use see
// examples/quickstart.cpp.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "algo/choco.hpp"
#include "algo/full_sharing.hpp"
#include "algo/jwins_node.hpp"
#include "algo/power_gossip.hpp"
#include "algo/random_sampling.hpp"
#include "core/scratch.hpp"
#include "data/partition.hpp"
#include "graph/graph.hpp"
#include "net/network.hpp"
#include "net/thread_pool.hpp"
#include "nn/model.hpp"
#include "sim/node_state.hpp"

namespace jwins::sim {

enum class Algorithm {
  kFullSharing,
  kRandomSampling,
  kJwins,
  kChoco,
  kPowerGossip,
};

const char* algorithm_name(Algorithm algorithm);

/// Which execution engine drives the round structure:
///
///  * kSync — the bulk-synchronous reference loop (train -> share ->
///    aggregate in global lockstep rounds), the golden reference every
///    result so far was produced under;
///  * kAsync — the discrete-event scheduler (sim/event_engine.hpp): nodes
///    are state machines advanced by TrainDone / MessageArrival / LocalStep
///    events, messages arrive when their link says they arrive, and slow
///    nodes genuinely fall behind. Under async_mode = kBarrier a bound
///    B = staleness_bound lets a node run up to B rounds ahead of its
///    neighbors; at B == 0 on loss-free links every node ends on kSync's
///    final model bytes, while the clock and the evaluation points are the
///    event loop's own (docs/SIMULATION.md "Asynchronous engine").
enum class EngineKind { kSync, kAsync };

const char* engine_name(EngineKind kind);

/// Aggregation discipline of the asynchronous engine — how a node treats the
/// messages that have (or have not) arrived when its local step fires:
///
///  * kBarrier — the bounded-staleness rule: a node waits until every
///    expected neighbor has been heard within `staleness_bound` rounds, or
///    can never be (B == 0 is the tightest gate: every live neighbor's
///    same-round message). The only mode with a staleness *gate*.
///  * kFree — fully asynchronous gossip: no gate, no staleness drops. A node
///    aggregates whatever has arrived when its local step completes; mixing
///    weights renormalize over the neighbors actually heard (the partial-
///    averaging denominator already does exactly this).
///  * kWeighted — like kFree, but each contribution is down-weighted by its
///    age: a payload produced s rounds before the receiver's current round
///    mixes with weight w_ij * staleness_decay^s (stale gossip fades instead
///    of being dropped).
///
/// docs/SIMULATION.md "Aggregation modes" gives the three update formulas.
enum class AsyncMode { kBarrier, kFree, kWeighted };

const char* async_mode_name(AsyncMode mode);

/// Per-node state layout of the synchronous engine:
///
///  * kFull — one DlNode object per simulated node (model, optimizer,
///    sampler). The reference layout; every pre-existing result was
///    produced under it.
///  * kCompact — the 100k–1M-node memory diet: node state is a shared
///    read-only base parameter vector plus a lazily-materialized per-node
///    slot (sim::NodeStateStore), driven through one lane-worker DlNode per
///    execution lane. Requires the counter batch sampler (rebindable
///    streams) and a stateless-node algorithm; with both, results are
///    byte-identical to kFull at any thread count.
enum class NodeState { kFull, kCompact };

const char* node_state_name(NodeState state);

/// Mini-batch sampling discipline (data::Sampler::Mode):
///  * kShuffle — per-epoch reshuffle of the node's shard (the legacy
///    stateful loop; every pre-existing result used it);
///  * kCounter — counter-keyed draws with replacement, a pure function of
///    (node stream seed, step). Seekable/rebindable, hence required by
///    NodeState::kCompact; also valid under kFull (same stream, so full and
///    compact runs of the same config match byte for byte).
enum class BatchSampler { kShuffle, kCounter };

const char* batch_sampler_name(BatchSampler sampler);

struct ExperimentConfig {
  Algorithm algorithm = Algorithm::kJwins;
  std::size_t rounds = 100;

  /// If > 0, stop as soon as mean test accuracy reaches this value (the
  /// Figure 5/6 "rounds to target accuracy" protocol). `rounds` then acts
  /// as the cap.
  double target_accuracy = -1.0;

  std::size_t local_steps = 1;  ///< tau
  nn::Sgd::Options sgd;

  std::size_t eval_every = 10;
  std::size_t eval_sample_limit = 512;  ///< test subsample per evaluation
  std::size_t eval_node_limit = 0;      ///< 0 = evaluate every node

  /// Sampled evaluation: when 0 < eval_sample < nodes, every evaluation
  /// (test metrics, mean train loss, JWINS alpha accounting) reduces over a
  /// seeded per-round subset of eval_sample nodes instead of all n — the
  /// O(n)-per-eval fix the 100k–1M scale runs need. The draw is a pure
  /// function of (seed, metric round, n, k) — Experiment::eval_sample_indices
  /// — so it is thread-count invariant and independent of topology state.
  /// 0 or k >= nodes disables sampling (byte-identical to the full reduce).
  /// Mutually exclusive with eval_node_limit.
  std::size_t eval_sample = 0;

  /// Per-node state layout (see NodeState). kCompact trades generality for
  /// memory: validate() enforces its restrictions (sync engine, counter
  /// sampler, stateless-node algorithm, no byzantine/robust).
  NodeState node_state = NodeState::kFull;

  /// Mini-batch sampling discipline (see BatchSampler). The default keeps
  /// every pre-existing result byte-identical.
  BatchSampler batch_sampler = BatchSampler::kShuffle;

  /// Execution lanes for the per-node phases. Results are bit-identical at
  /// any value (see docs/DESIGN.md); 1 runs fully inline. Benches and
  /// examples default to net::ThreadPool::default_thread_count(). At most
  /// net::ThreadPool::kMaxThreads.
  unsigned threads = 1;
  std::uint64_t seed = 1;

  /// Simulated compute cost per round (identical across algorithms; the
  /// paper's compute is dominated by the same tau SGD steps everywhere).
  /// Straggler multipliers (see `time`) scale this per node.
  double compute_seconds_per_round = 0.05;
  net::LinkModel link;

  /// Heterogeneous link-time & fault-injection configuration (per-edge
  /// bandwidth/latency distributions, stragglers, crash/rejoin schedules,
  /// burst outages — net/time_model.hpp, docs/SIMULATION.md). The default
  /// is the flat `link` model above, under which every result is
  /// byte-identical to the pre-TimeModel engine.
  net::TimeModelConfig time;

  /// Execution engine (see EngineKind). The default is the synchronous
  /// reference loop; every pre-existing result is byte-identical under it.
  EngineKind engine = EngineKind::kSync;

  /// Bounded-staleness window B for the asynchronous engine: a node may
  /// aggregate round r once it has heard from every expected neighbor at
  /// round r - B or later (0 = every live neighbor's round-r message).
  /// Only meaningful with engine = kAsync; validate() rejects it otherwise.
  std::size_t staleness_bound = 0;

  /// Simulated-time budget in seconds: stop the run once the simulated
  /// clock passes this value (0 = off, run to `rounds`). Works under both
  /// engines; under kAsync it is the natural termination mode for runs
  /// where nodes complete different round counts.
  double stop_at_sim_time = 0.0;

  /// Aggregation discipline under engine = kAsync (see AsyncMode). The
  /// default is the bounded-staleness gate. free and weighted require
  /// engine = kAsync and drop the staleness gate, so staleness_bound must
  /// stay 0 under them; validate() enforces both.
  AsyncMode async_mode = AsyncMode::kBarrier;

  /// Age-decay base lambda for async_mode = kWeighted: a contribution s
  /// rounds stale mixes with weight w_ij * lambda^s. Must be in (0, 1];
  /// 1.0 makes kWeighted coincide with kFree. Ignored by the other modes.
  double staleness_decay = 0.5;

  /// Adversarial participants: this many nodes (a seeded deterministic
  /// choice, algo::byzantine_victims — independent of the crash set) corrupt
  /// every payload they transmit under `byzantine_mode`, while training and
  /// aggregating honestly themselves. 0 = no attack, the bit-identical
  /// legacy path (docs/SIMULATION.md "Adversarial behavior").
  std::size_t byzantine_nodes = 0;
  algo::ByzantineMode byzantine_mode = algo::ByzantineMode::kSignFlip;
  /// Multiplier for byzantine_mode = kScale (scenario key
  /// `byzantine_mode = scale:<k>`); ignored by the other modes.
  double byzantine_scale = 1.0;

  /// Robust-aggregation countermeasure applied at every node's aggregation
  /// step (core/averaging.hpp). kNone = plain partial averaging, the exact
  /// legacy path.
  core::RobustAggConfig robust_agg;

  // Algorithm-specific knobs.
  double random_sampling_fraction = 0.37;
  algo::JwinsNode::Options jwins;
  algo::ChocoNode::Options choco;
  algo::PowerGossipNode::Options power_gossip;

  /// Cross-field sanity checks. Returns one "<field>: <why>" message per
  /// violation (empty = valid). Experiment's constructor throws on any
  /// violation; config::expand_grid and the jwins_run CLI report them as
  /// `error: <key>: <why>` diagnostics before anything runs.
  ///
  /// `nodes` enables the checks that need the node count (byzantine_nodes
  /// bounds and the crash/byzantine victim-set overlap); 0 skips them (for
  /// callers that validate before the topology is known).
  std::vector<std::string> validate(std::size_t nodes = 0) const;
};

struct MetricPoint {
  std::size_t round = 0;
  double sim_seconds = 0.0;
  /// Per-phase split of sim_seconds (cumulative, compute + comm == total).
  double sim_compute_seconds = 0.0;
  double sim_comm_seconds = 0.0;
  double test_accuracy = 0.0;
  double test_loss = 0.0;
  double train_loss = 0.0;
  double avg_bytes_per_node = 0.0;
  double avg_metadata_bytes_per_node = 0.0;
};

/// Real (host) wall-clock spent per engine phase, summed over all rounds —
/// the scalability bench's raw material. Unlike sim_seconds these measure
/// this process, so they vary run to run and are excluded from the
/// determinism contract.
struct PhaseTimings {
  double train_seconds = 0.0;
  /// Under NodeState::kCompact the share pass is fused into the train pass
  /// (one worker bind per node covers both), so share time is booked under
  /// train_seconds and share_seconds stays 0.
  double share_seconds = 0.0;
  double aggregate_seconds = 0.0;
  double evaluate_seconds = 0.0;
  double total_seconds = 0.0;  ///< whole run(), including bookkeeping
};

/// Simulated-time & fault summary of a run (the "sim_time" result-JSON
/// block; zero drop and straggler counters under the flat link model).
struct SimTimeBreakdown {
  double compute_seconds = 0.0;  ///< cumulative simulated compute phase
  double comm_seconds = 0.0;     ///< cumulative simulated communication phase
  std::uint64_t dropped_total = 0;
  std::uint64_t dropped_edge = 0;
  std::uint64_t dropped_burst = 0;
  std::uint64_t dropped_crash = 0;
  std::uint64_t crashed_node_rounds = 0;  ///< sum over rounds of down nodes
  std::size_t stragglers = 0;             ///< nodes with a compute multiplier
};

/// Counters of one asynchronous-engine run (sim/event_engine.hpp), the
/// "event_engine" result-JSON block. `enabled` is true whenever the run used
/// EngineKind::kAsync; a synchronous run leaves every counter 0 and every
/// array empty.
struct EventEngineStats {
  bool enabled = false;
  /// Aggregation discipline the run used (mirrors config).
  AsyncMode mode = AsyncMode::kBarrier;
  std::uint64_t events_processed = 0;
  std::size_t max_queue_depth = 0;
  /// Messages that survived failure injection and reached their receiver's
  /// inbox. sent == delivered + dropped (per-cause) + in_flight.
  std::uint64_t messages_delivered = 0;
  /// Arrival events still queued when the event loop was cut short (budget
  /// cut or target stop).
  std::uint64_t messages_in_flight = 0;
  /// Delivered messages discarded unapplied because their round tag had
  /// fallen below the receiver's staleness window.
  std::uint64_t messages_stale_dropped = 0;
  /// Blocked nodes force-unblocked by quiescence detection (the event queue
  /// drained while staleness gates still held — e.g. the unblocking message
  /// was lost to failure injection).
  std::uint64_t staleness_overrides = 0;
  /// staleness_histogram[s] = messages applied s rounds after the round
  /// they were produced in (s <= staleness_bound under kBarrier; free and
  /// weighted runs grow the histogram to whatever ages actually occurred).
  std::vector<std::uint64_t> staleness_histogram;
  /// effective_neighbors[k] = local steps that aggregated exactly k heard
  /// contributions (free/weighted modes only — under the barrier gate the
  /// count is pinned by the gate, so the histogram is not collected).
  std::vector<std::uint64_t> effective_neighbors;
  /// Sum of contribution ages (receiver round - message round tag, floored
  /// at 0) over every applied contribution; with contributions_applied it
  /// yields mean_contribution_age(). Free/weighted modes only.
  std::uint64_t contribution_age_sum = 0;
  std::uint64_t contributions_applied = 0;
  /// High-water mark of live per-sender transfer records inside
  /// net::TimeModel (the round_edges_ cache). Records retire as their
  /// transfers deliver or drop, so this stays bounded by the in-flight
  /// message count no matter how long a stop_at_sim_time run gets.
  std::size_t edge_records_high_water = 0;
  /// Local rounds completed per node; under stragglers + a budget these
  /// genuinely diverge (the paper-motivating asynchrony signal).
  std::vector<std::uint64_t> local_steps;

  std::uint64_t local_steps_min() const noexcept;
  std::uint64_t local_steps_max() const noexcept;
  double local_steps_mean() const noexcept;
  double mean_contribution_age() const noexcept;
};

/// Attack/defense accounting of one run, the "byzantine" result-JSON block
/// (no attackers and zero counters on a benign, defense-free run).
struct ByzantineStats {
  algo::ByzantineMode mode = algo::ByzantineMode::kSignFlip;
  core::RobustAggKind robust_agg = core::RobustAggKind::kNone;
  /// The seeded victim set (ascending ranks; empty without an attack).
  std::vector<std::uint32_t> attackers;
  /// Messages put on the wire with corrupted values, summed over attackers.
  std::uint64_t corrupted_messages = 0;
  /// Coordinate entries discarded by trimmed_mean, summed over all nodes.
  std::uint64_t trimmed_entries = 0;
  /// Contributions shrunk by norm_clip, summed over all nodes.
  std::uint64_t clipped_contributions = 0;
};

struct ExperimentResult {
  std::vector<MetricPoint> series;
  std::size_t rounds_run = 0;
  double sim_seconds = 0.0;
  net::NodeTraffic total_traffic;
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  bool reached_target = false;
  double mean_alpha = 0.0;  ///< JWINS only: observed mean sharing fraction
  SimTimeBreakdown sim_time;
  EventEngineStats event_engine;  ///< async engine only (enabled == false
                                  ///< under the synchronous engine)
  ByzantineStats byzantine;  ///< attack/defense accounting
  PhaseTimings wall;        ///< host wall-clock per phase (not simulated)
};

class EventEngine;

class Experiment {
 public:
  Experiment(ExperimentConfig config, nn::ModelFactory factory,
             const data::Dataset& train, data::Partition partition,
             const data::Dataset& test,
             std::unique_ptr<graph::TopologyProvider> topology);

  ExperimentResult run();

  /// Direct access for tests and probes. node() requires the full node-state
  /// layout (compact runs keep no per-node DlNode objects).
  algo::DlNode& node(std::size_t i) { return *nodes_.at(i); }
  std::size_t node_count() const noexcept { return n_; }
  const net::Network& network() const noexcept { return network_; }

  /// The seeded eval-subset draw: k distinct node indices for metric round
  /// `round`, ascending. A pure function of (seed, round, nodes, k) — no
  /// topology or thread-schedule input, so the subset survives topology
  /// churn and is identical at any thread count. k >= nodes returns all
  /// nodes. Exposed so tests reproduce the engine's draw exactly.
  static std::vector<std::uint32_t> eval_sample_indices(std::uint64_t seed,
                                                        std::size_t round,
                                                        std::size_t nodes,
                                                        std::size_t k);

  /// Mean of `losses` over the metric population (`population` empty = all
  /// indices), excluding nodes failing `alive` from the numerator AND the
  /// denominator — the sampled-population accounting rule. An off-by-
  /// population bug (k-node sum divided by n) cannot hide here: this is the
  /// single mean both engines report as train_loss. Pure; exposed for the
  /// accounting tests.
  static double mean_loss_over(std::span<const float> losses,
                               std::span<const std::uint32_t> population,
                               const std::function<bool(std::size_t)>& alive);

 private:
  /// The discrete-event driver (sim/event_engine.hpp) runs the same nodes,
  /// network, and evaluation machinery this class owns.
  friend class EventEngine;
  /// White-box access for the compact-state tests (bind and evaluate).
  friend struct ExperimentTestPeer;

  /// Times one engine phase, accumulating host seconds into `slot`.
  template <class Fn>
  static void timed_phase(double& slot, Fn&& fn) {
    const auto start = std::chrono::steady_clock::now();
    fn();
    slot += std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                          start)
                .count();
  }

  MetricPoint evaluate(std::size_t round, double train_loss);
  /// Asynchronous-engine entry point (implemented in event_engine.cpp).
  ExperimentResult run_async();
  /// Runs fn(node, lane, i) for every node i alive in round t, across the
  /// pool's lanes. Under kFull `node` is i's own DlNode; under kCompact it
  /// is the lane's worker, bound to i before fn and written back after.
  template <class Fn>
  void for_each_alive(std::size_t t, Fn&& fn);
  /// Round-boundary bookkeeping of the sync loop: rounds_run, JWINS alpha
  /// accounting, the sim-time budget, the eval cadence and the target
  /// stop. Returns true when the run stops after round t.
  bool end_round(std::size_t t, std::span<const float> train_losses,
                 ExperimentResult& result);
  /// Shared end of run under every engine: collect_summary(), then the
  /// host total since `run_start` and the phase timings into `result`.
  void finish_run(std::chrono::steady_clock::time_point run_start,
                  ExperimentResult& result);
  /// Final metrics, traffic totals, and the sim_time summary.
  void collect_summary(ExperimentResult& result);

  bool compact() const noexcept {
    return config_.node_state == NodeState::kCompact;
  }
  bool eval_sample_active() const noexcept {
    return config_.eval_sample > 0 && config_.eval_sample < n_;
  }
  /// The metric population of `metric_round`: the seeded eval_sample subset
  /// (cached per round) when active, empty (= every node) otherwise.
  std::span<const std::uint32_t> metric_population(std::size_t metric_round);
  /// Metropolis-Hastings weights of round t, cached per topology epoch so
  /// static/slow-churn topologies stop recomputing O(n) weights every round.
  const graph::MixingWeights& mixing_weights(const graph::Graph& g,
                                             std::size_t t);
  /// Points lane-worker `w` at simulated node `i` (compact only): rank,
  /// shard and sampler stream position, and its model's parameter views at
  /// i's store slot, which the first bind materializes. Nothing is copied
  /// in or out: training, share and aggregate update the slot in place.
  void bind_worker(algo::DlNode& w, std::size_t i);

  ExperimentConfig config_;
  const data::Dataset* test_;
  std::unique_ptr<graph::TopologyProvider> topology_;
  net::Network network_;
  net::ThreadPool pool_;  ///< workers live as long as the Experiment
  /// One round scratch per execution lane, sized once from the model; the
  /// share/aggregate phases hand lane k's scratch to every node that lane
  /// processes (see docs/PERFORMANCE.md "Memory model of the round loop").
  std::vector<core::RoundScratch> scratch_;
  std::vector<std::unique_ptr<algo::DlNode>> nodes_;
  std::size_t n_ = 0;  ///< simulated node count (nodes_.size() under kFull)
  /// Compact node-state machinery (empty under kFull): the COW parameter
  /// store, one lane-worker DlNode per execution lane, the retained
  /// partition for worker rebinds, and each node's sampler-stream position
  /// (advanced only on rounds the node is alive, mirroring kFull's
  /// per-node samplers under crash schedules).
  std::unique_ptr<NodeStateStore> store_;
  std::vector<std::unique_ptr<algo::DlNode>> workers_;
  data::Partition partition_;
  std::vector<std::uint64_t> steps_done_;
  graph::MixingWeights mh_cache_;
  std::size_t mh_epoch_ = 0;
  bool mh_valid_ = false;
  std::vector<std::uint32_t> subset_cache_;
  std::size_t subset_cache_round_ = static_cast<std::size_t>(-1);
  nn::Batch eval_batch_;
  double alpha_sum_ = 0.0;
  std::size_t alpha_samples_ = 0;
  PhaseTimings wall_;
};

}  // namespace jwins::sim
