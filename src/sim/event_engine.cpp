#include "sim/event_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "algo/jwins_node.hpp"

namespace jwins::sim {

const char* event_kind_name(EventKind kind) {
  switch (kind) {
    case EventKind::kTrainDone: return "train-done";
    case EventKind::kMessageArrival: return "message-arrival";
    case EventKind::kLocalStep: return "local-step";
  }
  return "unknown";
}

// --- EventQueue -------------------------------------------------------------

namespace {

/// Min-heap comparator: true when `a` should pop AFTER `b` — the strict
/// (time, node, seq) tie-break rule.
struct PopsLater {
  bool operator()(const Event& a, const Event& b) const noexcept {
    if (a.time != b.time) return a.time > b.time;
    if (a.node != b.node) return a.node > b.node;
    return a.seq > b.seq;
  }
};

}  // namespace

EventQueue::EventQueue()
    : last_pop_time_(-std::numeric_limits<double>::infinity()) {}

std::uint64_t EventQueue::push(double time, std::uint32_t node, EventKind kind,
                               std::uint32_t round, net::Message message) {
  // `!(time >= ...)` also rejects NaN. Scheduling before the last pop would
  // silently reorder causality, so it is a hard error, not a clamp.
  if (!(time >= last_pop_time_)) {
    throw std::logic_error("EventQueue: event scheduled in the past");
  }
  Event event;
  event.time = time;
  event.node = node;
  event.seq = next_seq_++;
  event.kind = kind;
  event.round = round;
  event.message = std::move(message);
  const std::uint64_t seq = event.seq;
  heap_.push_back(std::move(event));
  std::push_heap(heap_.begin(), heap_.end(), PopsLater{});
  max_depth_ = std::max(max_depth_, heap_.size());
  return seq;
}

Event EventQueue::pop() {
  if (heap_.empty()) {
    throw std::logic_error("EventQueue: pop from an empty queue");
  }
  std::pop_heap(heap_.begin(), heap_.end(), PopsLater{});
  Event event = std::move(heap_.back());
  heap_.pop_back();
  if (event.time < last_pop_time_) {
    throw std::logic_error("EventQueue: pop time regressed");
  }
  last_pop_time_ = event.time;
  return event;
}

// --- UplinkSerializer -------------------------------------------------------

double UplinkSerializer::enqueue(const net::TimeModel& time,
                                 std::uint32_t sender, std::uint32_t receiver,
                                 std::uint64_t wire_bytes) {
  // Identical per-message math to TimeModel::finish_round's critical path:
  // the transfer queues behind everything the sender already put on its
  // uplink this round, then the edge pays its own latency.
  double& queued = queued_.at(sender);
  queued +=
      static_cast<double>(wire_bytes) / time.edge_bandwidth(sender, receiver);
  return queued + time.edge_latency(sender, receiver);
}

// --- EventEngine ------------------------------------------------------------

EventEngine::EventEngine(Experiment& experiment)
    : exp_(experiment), uplink_(experiment.nodes_.size()) {
  exp_.network_.set_delivery_sink(this);
}

EventEngine::~EventEngine() { exp_.network_.set_delivery_sink(nullptr); }

void EventEngine::on_deliver(std::uint32_t to, net::Message msg) {
  // Called from inside Network::send while some node's share() runs: the
  // message survived failure injection, so schedule its arrival at the
  // share instant + uplink serialization + edge latency.
  const double arrival =
      share_time_ + uplink_.enqueue(exp_.network_.time_model(), msg.sender, to,
                                    msg.wire_size());
  const std::uint32_t tag = msg.round;
  queue_.push(arrival, to, EventKind::kMessageArrival, tag, std::move(msg));
}

ExperimentResult EventEngine::run() {
  const auto run_start = std::chrono::steady_clock::now();
  const std::size_t n = exp_.nodes_.size();
  mode_ = exp_.config_.async_mode;
  stats_.enabled = true;
  stats_.mode = mode_;
  // Barrier runs size the histogram to the gate's window; free/weighted
  // start at size 1 (age 0) and grow to whatever ages actually occur.
  stats_.staleness_histogram.assign(exp_.config_.staleness_bound + 1, 0);
  stats_.local_steps.assign(n, 0);
  barrier_mode_ =
      exp_.config_.staleness_bound == 0 && mode_ == AsyncMode::kBarrier;
  if (!barrier_mode_) {
    // The event loop never calls finish_round(), so edge records must
    // retire per transfer or a stop_at_sim_time run accumulates them
    // forever (the ROADMAP-named leak this engine revision fixes).
    exp_.network_.enable_transfer_retirement();
  }

  ExperimentResult result = barrier_mode_ ? run_barrier() : run_event_loop();

  stats_.max_queue_depth = queue_.max_depth();
  stats_.edge_records_high_water =
      exp_.network_.time_model().edge_records_high_water();
  result.event_engine = stats_;
  exp_.finish_run(run_start, result);
  return result;
}

// --- barrier mode (staleness_bound == 0): the exact sync reduction ----------

ExperimentResult EventEngine::run_barrier() {
  ExperimentResult result;
  const ExperimentConfig& cfg = exp_.config_;
  net::Network& network = exp_.network_;
  const net::TimeModel& tm = network.time_model();
  const std::size_t n = exp_.nodes_.size();
  std::vector<float> train_losses(n, 0.0f);

  for (std::size_t t = 0; t < cfg.rounds; ++t) {
    const graph::Graph& g = exp_.topology_->round_graph(t);
    if (g.size() != n) {
      throw std::logic_error("EventEngine: topology size != node count");
    }
    const graph::MixingWeights& weights = exp_.mixing_weights(g, t);
    const double round_start = network.simulated_seconds();

    // Phase events: every alive node finishes its tau local steps at the
    // simulated compute time its multiplier implies, then its messages
    // arrive per-edge. All of round t's events drain before the barrier.
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!tm.node_alive(i, t)) continue;
      queue_.push(round_start +
                      cfg.compute_seconds_per_round * tm.compute_multiplier(i),
                  i, EventKind::kTrainDone, static_cast<std::uint32_t>(t));
    }
    while (!queue_.empty()) {
      Event event = queue_.pop();
      ++stats_.events_processed;
      if (event.kind == EventKind::kTrainDone) {
        const std::uint32_t i = event.node;
        Experiment::timed_phase(exp_.wall_.train_seconds, [&] {
          train_losses[i] = exp_.nodes_[i]->local_train();
        });
        uplink_.reset(i);
        share_time_ = event.time;
        Experiment::timed_phase(exp_.wall_.share_seconds, [&] {
          exp_.nodes_[i]->share(network, g, weights, event.round,
                                exp_.scratch_[0]);
        });
      } else {  // kMessageArrival (no LocalStep is queued yet)
        ++stats_.messages_delivered;
        ++stats_.staleness_histogram[0];
        network.deliver(event.node, std::move(event.message));
      }
    }

    // The barrier: the same finish_round() call — and therefore the same
    // clock doubles, in the same addition order — as the synchronous loop.
    network.finish_round(cfg.compute_seconds_per_round);

    // Every arrival above is provably <= the barrier in exact arithmetic;
    // the max() guards the event-time invariant against the one-ulp
    // differences the two summation orders can produce.
    const double barrier =
        std::max(network.simulated_seconds(), queue_.last_pop_time());
    for (std::uint32_t i = 0; i < n; ++i) {
      if (!tm.node_alive(i, t)) continue;
      queue_.push(barrier, i, EventKind::kLocalStep,
                  static_cast<std::uint32_t>(t));
    }
    while (!queue_.empty()) {
      const Event event = queue_.pop();
      ++stats_.events_processed;
      const std::uint32_t i = event.node;
      Experiment::timed_phase(exp_.wall_.aggregate_seconds, [&] {
        exp_.nodes_[i]->aggregate(network, g, weights, event.round,
                                  exp_.scratch_[0]);
      });
      ++stats_.local_steps[i];
    }
    // The round tail (alpha, budget, eval, target stop) is the
    // synchronous loop's own.
    if (exp_.end_round(t, train_losses, result)) break;
  }
  return result;
}

// --- bounded-staleness mode (staleness_bound > 0) ---------------------------

const EventEngine::RoundTopo& EventEngine::topo(std::size_t round) {
  auto it = topo_cache_.find(round);
  if (it == topo_cache_.end()) {
    // round_graph() references die on the next call, and nodes occupy
    // different local rounds concurrently — so cache a copy per round.
    const graph::Graph& g = exp_.topology_->round_graph(round);
    if (g.size() != exp_.nodes_.size()) {
      throw std::logic_error("EventEngine: topology size != node count");
    }
    RoundTopo entry{g, graph::metropolis_hastings(g)};
    it = topo_cache_.emplace(round, std::move(entry)).first;
  }
  return it->second;
}

void EventEngine::evict_topo_below(std::size_t round) {
  topo_cache_.erase(topo_cache_.begin(), topo_cache_.lower_bound(round));
}

void EventEngine::start_round(std::uint32_t i, double now) {
  if (round_[i] >= exp_.config_.rounds) {
    done_[i] = true;
    return;
  }
  round_start_[i] = now;
  const net::TimeModel& tm = exp_.network_.time_model();
  const double duration =
      exp_.config_.compute_seconds_per_round * tm.compute_multiplier(i);
  // A node inside its crash window neither trains nor communicates: it
  // idles one compute-duration per local round (a documented refinement of
  // the sync engine's round-granularity crash semantics) so its local clock
  // still advances toward its rejoin round.
  const EventKind kind = tm.node_alive(i, round_[i]) ? EventKind::kTrainDone
                                                     : EventKind::kLocalStep;
  // Phase attribution: node i trains from now until its TrainDone pops
  // (idle crash rounds are not compute — nothing runs on the node).
  if (kind == EventKind::kTrainDone) ++training_count_;
  queue_.push(now + duration, i, kind, round_[i]);
}

bool EventEngine::may_yet_hear(std::uint32_t neighbor,
                               std::int64_t min_tag) const {
  // Will `neighbor` ever share a round >= min_tag? It shares every alive
  // local round below the cap, and its local round only moves forward.
  const net::TimeModel& tm = exp_.network_.time_model();
  const std::int64_t cap = static_cast<std::int64_t>(exp_.config_.rounds);
  std::int64_t q = std::max<std::int64_t>(min_tag, round_[neighbor]);
  for (; q < cap; ++q) {
    if (tm.node_alive(neighbor, static_cast<std::size_t>(q))) return true;
  }
  return false;
}

bool EventEngine::gate_open(std::uint32_t i) {
  // Free/weighted aggregation has no staleness gate: a node's local step
  // fires the moment its training ends, with whatever has arrived.
  if (mode_ != AsyncMode::kBarrier) return true;
  const std::int64_t bound =
      static_cast<std::int64_t>(exp_.config_.staleness_bound);
  const std::int64_t min_tag = static_cast<std::int64_t>(round_[i]) - bound;
  if (min_tag < 0) return true;  // early rounds can never be gated
  const std::size_t n = exp_.nodes_.size();
  const graph::Graph& g = topo(round_[i]).graph;
  for (const std::size_t nb : g.neighbors(i)) {
    if (heard_[i * n + nb] >= min_tag) continue;
    if (may_yet_hear(static_cast<std::uint32_t>(nb), min_tag)) return false;
  }
  return true;
}

void EventEngine::unblock_ready(double now) {
  // Gates open on arrivals AND on neighbor round progress (a neighbor that
  // finished all its rounds can never send again, exempting it), so re-check
  // every blocked node after each state change — in rank order, so the
  // resulting LocalStep schedule is deterministic.
  for (std::uint32_t i = 0; i < blocked_.size(); ++i) {
    if (!blocked_[i]) continue;
    if (!gate_open(i)) continue;
    blocked_[i] = false;
    queue_.push(std::max(now, queue_.last_pop_time()), i,
                EventKind::kLocalStep, round_[i]);
  }
}

void EventEngine::process_train_done(const Event& event) {
  const std::uint32_t i = event.node;
  Experiment::timed_phase(exp_.wall_.train_seconds, [&] {
    train_losses_[i] = exp_.nodes_[i]->local_train();
  });
  trained_[i] = true;
  const RoundTopo& tp = topo(round_[i]);
  uplink_.reset(i);
  share_time_ = event.time;
  Experiment::timed_phase(exp_.wall_.share_seconds, [&] {
    exp_.nodes_[i]->share(exp_.network_, tp.graph, tp.weights, round_[i],
                          exp_.scratch_[0]);
  });
  if (gate_open(i)) {
    queue_.push(event.time, i, EventKind::kLocalStep, round_[i]);
  } else {
    blocked_[i] = true;
  }
}

void EventEngine::process_arrival(Event& event) {
  ++stats_.messages_delivered;
  const std::uint32_t j = event.node;
  const std::uint32_t sender = event.message.sender;
  const std::uint32_t tag = event.message.round;
  // The transfer completed: its TimeModel edge record retires here, keeping
  // the live-record count bounded by the in-flight message count.
  exp_.network_.retire_transfer(sender, j);
  const std::size_t n = exp_.nodes_.size();
  heard_[j * n + sender] =
      std::max(heard_[j * n + sender], static_cast<std::int64_t>(tag));
  const std::int64_t min_tag =
      static_cast<std::int64_t>(round_[j]) -
      static_cast<std::int64_t>(exp_.config_.staleness_bound);
  if (mode_ == AsyncMode::kBarrier &&
      static_cast<std::int64_t>(tag) < min_tag) {
    // Arrived after the receiver's staleness window already passed it.
    // Free/weighted modes never drop on age — every arrival is applied
    // (weighted merely fades it by lambda^staleness at aggregation).
    ++stats_.messages_stale_dropped;
  } else {
    inbox_[j].push_back(std::move(event.message));
  }
  unblock_ready(event.time);
}

void EventEngine::process_local_step(const Event& event,
                                     ExperimentResult& result) {
  const std::uint32_t i = event.node;
  const std::uint32_t r = round_[i];
  const ExperimentConfig& cfg = exp_.config_;
  if (exp_.network_.time_model().node_alive(i, r)) {
    std::vector<net::Message>& box = inbox_[i];
    if (mode_ == AsyncMode::kBarrier) {
      // Stage the eligible inbox into the Network mailbox: messages tagged
      // within [r - B, r] are applied (the canonical (round, sender) drain
      // order still holds), newer ones wait for their round, older ones —
      // possible after idle crash rounds — are dropped as stale.
      const std::int64_t min_tag =
          static_cast<std::int64_t>(r) -
          static_cast<std::int64_t>(cfg.staleness_bound);
      std::size_t kept = 0;
      for (net::Message& msg : box) {
        const std::int64_t tag = static_cast<std::int64_t>(msg.round);
        if (tag > static_cast<std::int64_t>(r)) {
          box[kept++] = std::move(msg);  // early: not this round's business yet
        } else if (tag < min_tag) {
          ++stats_.messages_stale_dropped;
        } else {
          ++stats_.staleness_histogram[static_cast<std::size_t>(
              static_cast<std::int64_t>(r) - tag)];
          exp_.network_.deliver(i, std::move(msg));
        }
      }
      box.resize(kept);
    } else {
      // Free/weighted aggregation: the node mixes with whatever has arrived
      // — the whole inbox, early tags included (a fast neighbor's newer
      // model is gossip too), ages floored at 0. The per-mode stats feed
      // the effective-neighbor histogram and mean contribution age of the
      // result JSON.
      const std::size_t applied = box.size();
      for (net::Message& msg : box) {
        const std::size_t age =
            msg.round >= r ? 0 : static_cast<std::size_t>(r - msg.round);
        if (age >= stats_.staleness_histogram.size()) {
          stats_.staleness_histogram.resize(age + 1, 0);
        }
        ++stats_.staleness_histogram[age];
        stats_.contribution_age_sum += age;
        ++stats_.contributions_applied;
        exp_.network_.deliver(i, std::move(msg));
      }
      box.clear();
      if (applied >= stats_.effective_neighbors.size()) {
        stats_.effective_neighbors.resize(applied + 1, 0);
      }
      ++stats_.effective_neighbors[applied];
    }
    const RoundTopo& tp = topo(r);
    Experiment::timed_phase(exp_.wall_.aggregate_seconds, [&] {
      exp_.nodes_[i]->aggregate(exp_.network_, tp.graph, tp.weights, r,
                                exp_.scratch_[0]);
    });
    if (cfg.algorithm == Algorithm::kJwins) {
      exp_.alpha_sum_ +=
          static_cast<algo::JwinsNode&>(*exp_.nodes_[i]).last_alpha();
      ++exp_.alpha_samples_;
    }
  }
  ++round_[i];
  ++stats_.local_steps[i];
  std::size_t min_round = round_[0];
  for (const std::uint32_t rr : round_) {
    min_round = std::min<std::size_t>(min_round, rr);
  }
  evict_topo_below(min_round);
  if (maybe_evaluate(result)) return;  // target reached
  start_round(i, event.time);
  unblock_ready(event.time);
}

bool EventEngine::maybe_evaluate(ExperimentResult& result) {
  const ExperimentConfig& cfg = exp_.config_;
  while (next_eval_round_ < cfg.rounds) {
    std::uint64_t min_completed = round_[0];
    for (const std::uint32_t r : round_) {
      min_completed = std::min<std::uint64_t>(min_completed, r);
    }
    // Global evaluation point: every node has finished round index
    // next_eval_round_ (mirroring the sync schedule t = 0, eval_every, ...).
    if (min_completed < next_eval_round_ + 1) return false;
    const double mean_train_loss = Experiment::mean_loss_over(
        train_losses_,
        exp_.metric_population(next_eval_round_ + 1),
        [&](std::size_t i) { return static_cast<bool>(trained_[i]); });
    // evaluate() reads the Network clock, which the event loop advances at
    // event granularity (advance_time): sim_seconds is the time of the
    // event being processed, and the compute/comm split is cumulative,
    // monotone, and sums to it exactly.
    const MetricPoint point =
        exp_.evaluate(next_eval_round_ + 1, mean_train_loss);
    result.series.push_back(point);
    if (cfg.target_accuracy > 0.0 &&
        point.test_accuracy >= cfg.target_accuracy) {
      result.reached_target = true;
      return true;
    }
    next_eval_round_ += cfg.eval_every;
  }
  return false;
}

void EventEngine::cut_queue() {
  // Whatever is still queued when the loop stops early (budget cut or target
  // stop) never happens. Arrivals among it are the in-flight messages of the
  // conservation ledger; their edge records retire too, so every record is
  // accounted for (delivered, dropped, or cut) by the time the run ends.
  while (!queue_.empty()) {
    const Event cut = queue_.pop();
    if (cut.kind == EventKind::kMessageArrival) {
      ++stats_.messages_in_flight;
      exp_.network_.retire_transfer(cut.message.sender, cut.node);
    }
  }
}

ExperimentResult EventEngine::run_event_loop() {
  ExperimentResult result;
  const ExperimentConfig& cfg = exp_.config_;
  const std::size_t n = exp_.nodes_.size();
  round_.assign(n, 0);
  round_start_.assign(n, 0.0);
  blocked_.assign(n, false);
  done_.assign(n, false);
  train_losses_.assign(n, 0.0f);
  trained_.assign(n, false);
  inbox_.assign(n, {});
  heard_.assign(n * n, -1);

  for (std::uint32_t i = 0; i < n; ++i) start_round(i, 0.0);

  while (!queue_.empty()) {
    // Budget cut: events at times <= the budget are processed; the rest are
    // cut below, unprocessed.
    if (cfg.stop_at_sim_time > 0.0 &&
        queue_.top_time() > cfg.stop_at_sim_time) {
      break;
    }
    Event event = queue_.pop();
    // Phase attribution at event granularity (the mid-flight compute/comm
    // fix): the slice since the previous event counts as compute while any
    // node is inside a training interval, as communication otherwise. The
    // Network clock therefore advances with the event clock, its split
    // monotone and summing to the total exactly.
    exp_.network_.advance_time(event.time - now_, training_count_ > 0);
    now_ = event.time;
    ++stats_.events_processed;
    if (event.kind == EventKind::kTrainDone) {
      --training_count_;  // i's training interval ends at this instant
    }
    switch (event.kind) {
      case EventKind::kTrainDone:
        process_train_done(event);
        break;
      case EventKind::kMessageArrival:
        process_arrival(event);
        break;
      case EventKind::kLocalStep:
        process_local_step(event, result);
        break;
    }
    if (result.reached_target) break;
    if (queue_.empty()) {
      bool all_done = true;
      for (const bool d : done_) all_done = all_done && d;
      if (all_done) break;
      // Quiescence: nothing can happen, yet nodes are still gated — the
      // messages that would open their gates were lost to failure
      // injection. Force-unblock them (counted) rather than deadlock.
      bool any_blocked = false;
      for (std::uint32_t i = 0; i < n; ++i) {
        if (!blocked_[i]) continue;
        any_blocked = true;
        blocked_[i] = false;
        ++stats_.staleness_overrides;
        queue_.push(queue_.last_pop_time(), i, EventKind::kLocalStep,
                    round_[i]);
      }
      if (!any_blocked) {
        throw std::logic_error(
            "EventEngine: quiescent with live nodes and nothing blocked");
      }
    }
  }

  cut_queue();

  std::uint64_t min_completed = round_.empty() ? 0 : round_[0];
  for (const std::uint32_t r : round_) {
    min_completed = std::min<std::uint64_t>(min_completed, r);
  }
  result.rounds_run = static_cast<std::size_t>(min_completed);
  if (result.series.empty() ||
      result.series.back().round < result.rounds_run) {
    const double mean_train_loss = Experiment::mean_loss_over(
        train_losses_,
        exp_.metric_population(result.rounds_run),
        [&](std::size_t i) { return static_cast<bool>(trained_[i]); });
    // The Network clock stands at the last processed event (advance_time),
    // so the final point's sim_seconds and its compute/comm split need no
    // override — collect_summary() reads the same clocks.
    const MetricPoint point = exp_.evaluate(result.rounds_run, mean_train_loss);
    result.series.push_back(point);
  }
  return result;
}

ExperimentResult Experiment::run_async() { return EventEngine(*this).run(); }

}  // namespace jwins::sim
