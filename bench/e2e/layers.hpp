// The traced half of the end-to-end benchmark: where one round's host time
// goes, layer by layer, measured from the bench's own files around public
// calls into each module (nothing inside src/ is instrumented).
//
// Three sources feed the per-layer numbers of one workload:
//  * the engine's own phase counters (ExperimentResult::wall), read after
//    Experiment::run() — sim.train_ms / share_ms / aggregate_ms /
//    evaluate_ms / other_ms per round;
//  * the bench-timed setup split — config.workload_s, graph.topology_s and
//    sim.construct_s, which sum exactly to setup_s;
//  * layer probes: after run() the bench replays a few rounds through the
//    public DlNode calls on a bench-owned net::Network (on the compact
//    workload: a bench-owned NodeStateStore and lane worker), in the run's
//    engine's call order. Probe rounds then time the per-node calls the
//    engine makes in their real sequence, the first one's mailbox traffic is
//    captured, and every other public layer call is timed on that traffic,
//    cycling over every node.
//
// Reconciliation ties the three together: the replayed phases must match the
// in-run phases, and the probes of each large phase must add up to it.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "config/scenario.hpp"
#include "sim/experiment.hpp"
#include "sim/workloads.hpp"

namespace jwins::bench::e2e {

using Clock = std::chrono::steady_clock;

/// One timed region: its name, the span (or phase) that caused it, and
/// microseconds relative to the tracer's construction. `arg_key`, when set,
/// names one numeric argument (a probe's sample count, a round number).
struct Span {
  std::string name;
  std::string parent;
  double ts_us = 0.0;
  double dur_us = 0.0;
  std::string arg_key;
  double arg = 0.0;
};

/// Spans kept in memory and written as Chrome trace events at exit.
class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  void record(std::string name, std::string parent, Clock::time_point start,
              Clock::time_point end, std::string arg_key = "",
              double arg = 0.0);

  /// Times `fn` as one span; returns its duration in seconds.
  template <class Fn>
  double span(const std::string& name, const std::string& parent, Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    const Clock::time_point end = Clock::now();
    record(name, parent, start, end);
    return std::chrono::duration<double>(end - start).count();
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

struct LayerMetric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a traced trial reports: every per-layer metric, the reconciliation
/// failures (empty when the split adds up), and the layer with the most ms
/// per round.
struct LayerReport {
  std::vector<LayerMetric> metrics;
  std::vector<std::string> checks;
  std::string largest_layer;
};

/// Host time of the three setup steps of one trial, in integer nanoseconds
/// so the parts sum to the whole exactly.
struct SetupSplit {
  std::int64_t workload_ns = 0;   ///< config::make_run_workload
  std::int64_t topology_ns = 0;   ///< config::make_run_topology
  std::int64_t construct_ns = 0;  ///< resolve_config + Experiment constructor
  std::int64_t total_ns() const noexcept {
    return workload_ns + topology_ns + construct_ns;
  }
};

/// Everything a traced trial hands to the probes. The experiment has
/// already run; the probes continue from its final node states.
struct TraceInput {
  const config::ScenarioRun& run;
  const sim::ExperimentConfig& config;  ///< resolved (auto lr/steps applied)
  const sim::Workload& workload;
  sim::Experiment& experiment;
  const sim::ExperimentResult& result;
  SetupSplit setup;
};

/// Replays, probes and reconciles one workload; spans go to `tracer`.
LayerReport trace_layers(const TraceInput& in, Tracer& tracer);

}  // namespace jwins::bench::e2e
