#include "sim/event_engine.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "algo/jwins_node.hpp"

namespace jwins::sim {

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

// --- EventEngine ------------------------------------------------------------

EventEngine::EventEngine(Experiment& experiment) : exp_(experiment) {
  exp_.network_.set_delivery_sink(this);
}

EventEngine::~EventEngine() { exp_.network_.set_delivery_sink(nullptr); }

void EventEngine::on_deliver(std::uint32_t to, net::Message msg,
                             double offset) {
  // Called from inside Network::send while some node's share() runs: the
  // message survived failure injection, so schedule its arrival at the
  // share instant + its delivery offset on the sender's uplink.
  const double arrival = share_time_ + offset;
  const std::uint32_t tag = msg.round;
  if (mode_ == AsyncMode::kBarrier) {
    std::int64_t& sent = sent_[to * exp_.nodes_.size() + msg.sender];
    sent = std::max(sent, static_cast<std::int64_t>(tag));
  }
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

  ExperimentResult result = run_event_loop();

  stats_.max_queue_depth = queue_.max_depth();
  result.event_engine = stats_;
  exp_.finish_run(run_start, result);
  return result;
}

// --- the event loop ----------------------------------------------------------

const EventEngine::RoundTopo& EventEngine::topo(std::size_t round) {
  const std::size_t epoch = exp_.topology_->round_epoch(round);
  auto it = topo_cache_.find(epoch);
  if (it == topo_cache_.end()) {
    // round_graph() references die on the next call, and nodes occupy
    // different local rounds concurrently — so cache a copy per epoch.
    const graph::Graph& g = exp_.topology_->round_graph(round);
    if (g.size() != exp_.nodes_.size()) {
      throw std::logic_error("EventEngine: topology size != node count");
    }
    RoundTopo entry{g, graph::metropolis_hastings(g)};
    it = topo_cache_.emplace(epoch, std::move(entry)).first;
  }
  return it->second;
}

void EventEngine::start_round(std::uint32_t i, double now) {
  if (round_[i] >= exp_.config_.rounds) return;
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
    // A message tagged >= min_tag still on its way opens the gate when it
    // lands, even if its sender has finished its last round since.
    if (sent_[i * n + nb] >= min_tag) return false;
    if (may_yet_hear(static_cast<std::uint32_t>(nb), min_tag)) return false;
  }
  return true;
}

void EventEngine::unblock_ready(double now) {
  if (mode_ != AsyncMode::kBarrier) return;  // nothing is ever gated
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
  // Free/weighted modes never drop on age — every arrival is applied
  // (weighted merely fades it by lambda^staleness at aggregation).
  bool stale = false;
  if (mode_ == AsyncMode::kBarrier) {
    const std::int64_t tag = event.message.round;
    std::int64_t& heard = heard_[j * exp_.nodes_.size() + event.message.sender];
    heard = std::max(heard, tag);
    // Arrived after the receiver's staleness window already passed it?
    stale = tag < static_cast<std::int64_t>(round_[j]) -
                      static_cast<std::int64_t>(exp_.config_.staleness_bound);
  }
  if (stale) {
    ++stats_.messages_stale_dropped;
  } else if (round_[j] < exp_.config_.rounds) {
    inbox_[j].push_back(std::move(event.message));
  }  // else j has taken its last step: nothing will read its inbox again
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
  ++stats_.local_steps[i];
  --at_round_[round_[i]];
  if (++round_[i] == at_round_.size()) at_round_.push_back(0);
  ++at_round_[round_[i]];
  while (at_round_[min_round_] == 0) ++min_round_;
  // No node will ask for an epoch below the lowest round's again.
  topo_cache_.erase(topo_cache_.begin(),
                    topo_cache_.lower_bound(
                        exp_.topology_->round_epoch(min_round_)));
  if (maybe_evaluate(result)) return;  // target reached
  start_round(i, event.time);
  unblock_ready(event.time);
}

bool EventEngine::maybe_evaluate(ExperimentResult& result) {
  const ExperimentConfig& cfg = exp_.config_;
  while (next_eval_round_ < cfg.rounds) {
    // Global evaluation point: every node has finished round index
    // next_eval_round_ (mirroring the sync schedule t = 0, eval_every, ...).
    if (min_round_ < next_eval_round_ + 1) return false;
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
  // conservation ledger.
  while (!queue_.empty()) {
    if (queue_.pop().kind == EventKind::kMessageArrival) {
      ++stats_.messages_in_flight;
    }
  }
}

ExperimentResult EventEngine::run_event_loop() {
  ExperimentResult result;
  const ExperimentConfig& cfg = exp_.config_;
  const std::size_t n = exp_.nodes_.size();
  round_.assign(n, 0);
  at_round_.assign(1, static_cast<std::uint32_t>(n));
  blocked_.assign(n, false);
  train_losses_.assign(n, 0.0f);
  trained_.assign(n, false);
  inbox_.assign(n, {});
  if (mode_ == AsyncMode::kBarrier) {
    heard_.assign(n * n, -1);
    sent_.assign(n * n, -1);
  }

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
      if (min_round_ >= cfg.rounds) break;  // every node reached the cap
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

  result.rounds_run = min_round_;
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
