// Discrete-event asynchronous execution engine (ROADMAP open item 1).
//
// The synchronous Experiment loop runs the paper's bulk-synchronous rounds:
// PR 5's per-edge latencies and straggler multipliers shape a *cost
// accounting* but never the order of events. This engine makes time causal:
// a priority queue of (sim_time, node, seq) records drives each node as a
// state machine —
//
//   TrainDone(i)        node i finished its tau local SGD steps; it shares
//                       this round's messages, whose arrival times are the
//                       share instant + uplink serialization + edge latency
//                       (the same per-edge TimeModel math finish_round uses);
//   MessageArrival(j)   a message lands in node j's inbox at its simulated
//                       arrival time;
//   LocalStep(i)        node i aggregates its eligible inbox under the
//                       bounded-staleness rule and starts its next round.
//
// Tie-break rule: events are processed in strictly increasing (time, node,
// seq) order — seq is a global monotone issue counter, so simultaneous
// events resolve by node rank, then by scheduling order. The pop sequence is
// a pure function of the experiment seed: runs replay bit-identically.
//
// Reduction guarantee (the golden-tested contract): with staleness_bound ==
// 0 the engine runs in *barrier mode* — real events fire at their simulated
// times, but every node's LocalStep waits for the global round barrier, and
// the round clock advances through the very same Network::finish_round()
// call the synchronous loop makes. Every model byte, metric point, and
// result-JSON byte is then identical to EngineKind::kSync, under ANY
// TimeModel (flat or heterogeneous, with or without fault injection).
// With staleness_bound B > 0 nodes genuinely desynchronize: a node may run
// up to B rounds ahead of its slowest expected neighbor, messages more than
// B rounds stale are discarded (counted), and quiescence detection
// force-unblocks gated nodes whose unblocking message was lost — the engine
// can never deadlock. docs/SIMULATION.md "Asynchronous engine" is the full
// specification.
#pragma once

#include <cstdint>
#include <map>
#include <vector>

#include "graph/graph.hpp"
#include "net/network.hpp"
#include "sim/experiment.hpp"

namespace jwins::sim {

enum class EventKind : std::uint8_t { kTrainDone, kMessageArrival, kLocalStep };

const char* event_kind_name(EventKind kind);

/// One scheduled event. `round` is the local round the event concerns (the
/// message's round tag for arrivals); `message` is only populated for
/// kMessageArrival.
struct Event {
  double time = 0.0;
  std::uint32_t node = 0;
  std::uint64_t seq = 0;
  EventKind kind = EventKind::kTrainDone;
  std::uint32_t round = 0;
  net::Message message;
};

/// Min-heap of events under the strict (time, node, seq) order, with the
/// queue invariants the tests pin enforced at the boundary: seq values are
/// unique and monotone in push order, pop times never decrease, and
/// scheduling an event earlier than the last pop ("in the past") throws.
class EventQueue {
 public:
  EventQueue();

  /// Schedules an event; returns its (unique, monotone) sequence number.
  std::uint64_t push(double time, std::uint32_t node, EventKind kind,
                     std::uint32_t round, net::Message message = {});

  /// Removes and returns the minimum event. Throws std::logic_error when
  /// empty or if the pop time would regress (a scheduling bug, not a state).
  Event pop();

  bool empty() const noexcept { return heap_.empty(); }
  std::size_t size() const noexcept { return heap_.size(); }
  /// High-water mark of size() over the queue's lifetime.
  std::size_t max_depth() const noexcept { return max_depth_; }
  /// Time of the most recent pop (-infinity before the first).
  double last_pop_time() const noexcept { return last_pop_time_; }

 private:
  std::vector<Event> heap_;
  std::uint64_t next_seq_ = 0;
  std::size_t max_depth_ = 0;
  double last_pop_time_;
};

/// Per-sender uplink serialization: a node's messages of one round leave
/// through its NIC in send order, each transferring at the destination
/// edge's bandwidth; a message's delivery offset (relative to the share
/// instant) is its queued-transfer completion plus the edge's own latency.
/// This is precisely the per-edge critical-path math of
/// net::TimeModel::finish_round, applied per message instead of per round.
class UplinkSerializer {
 public:
  explicit UplinkSerializer(std::size_t n) : queued_(n, 0.0) {}

  /// Accounts one message and returns its delivery offset in seconds.
  double enqueue(const net::TimeModel& time, std::uint32_t sender,
                 std::uint32_t receiver, std::uint64_t wire_bytes);

  /// Seconds of transfer already queued on `sender`'s uplink this round.
  double queued(std::uint32_t sender) const { return queued_.at(sender); }

  /// Starts a fresh round for `sender` (its uplink drained at the barrier /
  /// by the time it next trains).
  void reset(std::uint32_t sender) { queued_.at(sender) = 0.0; }

 private:
  std::vector<double> queued_;
};

/// The driver: owns the queue and the per-node asynchrony state, borrows
/// everything else (nodes, network, evaluation) from the Experiment that
/// constructed it. Single-threaded by design — determinism comes from the
/// event order, and threads=N stays bit-identical to threads=1 because the
/// only pooled phase (evaluation) already reduces in rank order.
class EventEngine : private net::DeliverySink {
 public:
  explicit EventEngine(Experiment& experiment);
  ~EventEngine() override;

  EventEngine(const EventEngine&) = delete;
  EventEngine& operator=(const EventEngine&) = delete;

  ExperimentResult run();

 private:
  // net::DeliverySink: called inside Network::send for every message that
  // survives failure injection, while some node's share() is running.
  void on_deliver(std::uint32_t to, net::Message msg) override;

  ExperimentResult run_barrier();
  /// The genuine event loop: bounded-staleness barrier aggregation
  /// (async_mode = barrier, staleness_bound > 0) and the gate-free
  /// free/weighted modes all run here; only the exact sync reduction
  /// (barrier with B == 0) takes run_barrier().
  ExperimentResult run_event_loop();

  // --- bounded-staleness helpers -----------------------------------------
  struct RoundTopo {
    graph::Graph graph;
    graph::MixingWeights weights;
  };
  /// Topology of local round `round`, cached per round (round_graph()
  /// references die on the next call, and nodes occupy different rounds).
  const RoundTopo& topo(std::size_t round);
  /// Drops cache entries below the lowest live local round.
  void evict_topo_below(std::size_t round);

  void start_round(std::uint32_t i, double now);
  void process_train_done(const Event& event);
  void process_arrival(Event& event);
  void process_local_step(const Event& event, ExperimentResult& result);
  /// True when node i may aggregate its current round under the staleness
  /// bound: every expected neighbor has been heard at round r_i - B or
  /// later (neighbors that can never produce such a round are exempt).
  bool gate_open(std::uint32_t i);
  /// True if `neighbor` may still share a round >= `min_tag` in the future.
  bool may_yet_hear(std::uint32_t neighbor, std::int64_t min_tag) const;
  /// Re-checks blocked nodes after progress; schedules their LocalStep.
  void unblock_ready(double now);
  /// Emits due global evaluations (all nodes past the eval round) and the
  /// target-accuracy stop. Returns true when the run should terminate.
  bool maybe_evaluate(ExperimentResult& result);

  Experiment& exp_;
  EventQueue queue_;
  UplinkSerializer uplink_;
  EventEngineStats stats_;

  /// Share-context: while a node's share() runs, its messages' arrival
  /// times are share_time_ + uplink + latency.
  double share_time_ = 0.0;
  /// Barrier mode routes arrivals straight to the Network mailbox; bounded
  /// mode stages them in inbox_ under the staleness rule.
  bool barrier_mode_ = true;
  /// Aggregation discipline (config mirror): kBarrier gates on the
  /// staleness bound; kFree/kWeighted never gate and apply every arrival.
  AsyncMode mode_ = AsyncMode::kBarrier;
  /// Nodes currently inside a training interval — the event loop's phase
  /// attribution: an elapsed slice counts as compute while any node trains,
  /// as communication otherwise (docs/SIMULATION.md "Phase attribution").
  std::size_t training_count_ = 0;

  // Per-node asynchrony state (bounded mode).
  std::vector<std::uint32_t> round_;        ///< current local round
  std::vector<double> round_start_;         ///< when that round began
  std::vector<bool> blocked_;               ///< gated at its staleness bound
  std::vector<bool> done_;                  ///< reached the rounds cap
  std::vector<float> train_losses_;
  std::vector<bool> trained_;               ///< has >= 1 completed train
  std::vector<std::vector<net::Message>> inbox_;
  /// heard_[i * n + j]: highest round tag received by i from j (-1 = none).
  std::vector<std::int64_t> heard_;
  std::map<std::size_t, RoundTopo> topo_cache_;
  std::size_t next_eval_round_ = 0;  ///< next 0-based round index to evaluate
  double now_ = 0.0;                 ///< time of the event being processed
};

}  // namespace jwins::sim
