#include "sim/check.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <functional>
#include <numeric>

#include "sim/report.hpp"

namespace jwins::sim {

namespace {

using std::to_string;

std::uint64_t total(const std::vector<std::uint64_t>& counts) {
  return std::accumulate(counts.begin(), counts.end(), std::uint64_t{0});
}

/// The same double, or both NaN (a diverged run's loss).
bool same(double a, double b) {
  return a == b || (std::isnan(a) && std::isnan(b));
}

std::string flag(bool value) { return value ? "true" : "false"; }

}  // namespace

std::vector<std::string> check_result(const ExperimentResult& result,
                                      const ExperimentConfig& config,
                                      std::size_t nodes) {
  std::vector<std::string> out;
  const auto fail = [&](const char* field, const std::string& why) {
    out.push_back(std::string(field) + ": " + why);
  };
  const SimTimeBreakdown& st = result.sim_time;
  const EventEngineStats& ee = result.event_engine;
  const ByzantineStats& bz = result.byzantine;
  const bool async = config.engine == EngineKind::kAsync;
  const bool budget = config.stop_at_sim_time > 0.0;
  // The event engine's exact sync reduction (sim/event_engine.hpp).
  const bool plain_barrier = config.async_mode == AsyncMode::kBarrier &&
                             config.staleness_bound == 0;
  const core::RobustAggKind rule = config.robust_agg.kind;

  // --- the mode fields mirror the config
  if (ee.enabled != async) {
    fail("event_engine.enabled", flag(ee.enabled) + " under engine = " +
                                     engine_name(config.engine));
  }
  if (async && ee.mode != config.async_mode) {
    fail("event_engine.mode", std::string(async_mode_name(ee.mode)) +
                                  " under async_mode = " +
                                  async_mode_name(config.async_mode));
  }
  if (bz.mode != config.byzantine_mode) {
    fail("byzantine.mode",
         std::string(algo::byzantine_mode_name(bz.mode)) +
             " under byzantine_mode = " +
             algo::byzantine_mode_name(config.byzantine_mode));
  }
  if (bz.robust_agg != rule) {
    fail("byzantine.robust_agg",
         std::string(core::robust_agg_name(bz.robust_agg)) +
             " under robust_agg = " + core::robust_agg_name(rule));
  }

  // --- rounds and the series
  if (result.rounds_run > config.rounds) {
    fail("rounds_run", to_string(result.rounds_run) + " exceeds rounds = " +
                           to_string(config.rounds));
  } else if (!budget && !result.reached_target &&
             result.rounds_run != config.rounds) {
    fail("rounds_run", to_string(result.rounds_run) + " of " +
                           to_string(config.rounds) +
                           " rounds with neither a budget nor a reached "
                           "target");
  }
  if (result.reached_target &&
      !(config.target_accuracy > 0.0 &&
        result.final_accuracy >= config.target_accuracy)) {
    fail("reached_target", "set with final_accuracy " +
                               json_number(result.final_accuracy) +
                               " and target_accuracy " +
                               json_number(config.target_accuracy));
  }
  if (result.series.empty()) {
    fail("series", "no metric point");
  } else {
    for (std::size_t i = 1; i < result.series.size(); ++i) {
      if (result.series[i].round <= result.series[i - 1].round) {
        fail("series", "point " + to_string(i) + " (round " +
                           to_string(result.series[i].round) +
                           ") does not follow round " +
                           to_string(result.series[i - 1].round));
        break;
      }
    }
    const MetricPoint& last = result.series.back();
    if (!same(result.final_accuracy, last.test_accuracy)) {
      fail("final_accuracy", json_number(result.final_accuracy) +
                                 " != the last point's test_accuracy " +
                                 json_number(last.test_accuracy));
    }
    if (!same(result.final_loss, last.test_loss)) {
      fail("final_loss", json_number(result.final_loss) +
                             " != the last point's test_loss " +
                             json_number(last.test_loss));
    }
  }

  // --- simulated time: the event loop splits the clock exactly
  if (async && !plain_barrier) {
    if (st.compute_seconds + st.comm_seconds != result.sim_seconds) {
      fail("sim_time.comm_seconds",
           "compute_seconds " + json_number(st.compute_seconds) +
               " + comm_seconds " + json_number(st.comm_seconds) +
               " != sim_seconds " + json_number(result.sim_seconds));
    } else {
      for (const MetricPoint& p : result.series) {
        if (p.sim_compute_seconds + p.sim_comm_seconds != p.sim_seconds) {
          fail("sim_time.series",
               "round " + to_string(p.round) + ": compute_seconds " +
                   json_number(p.sim_compute_seconds) + " + comm_seconds " +
                   json_number(p.sim_comm_seconds) + " != sim_seconds " +
                   json_number(p.sim_seconds));
          break;
        }
      }
    }
  }

  // --- message ledgers
  if (st.dropped_total != st.dropped_edge + st.dropped_burst + st.dropped_crash) {
    fail("sim_time.dropped_total",
         to_string(st.dropped_total) + " != dropped_edge " +
             to_string(st.dropped_edge) + " + dropped_burst " +
             to_string(st.dropped_burst) + " + dropped_crash " +
             to_string(st.dropped_crash));
  }
  if (!budget && !result.reached_target && ee.messages_in_flight != 0) {
    fail("event_engine.messages_in_flight",
         to_string(ee.messages_in_flight) +
             " with neither a budget cut nor a target stop to cut them");
  }
  if (async) {
    const std::uint64_t sent = result.total_traffic.messages_sent;
    if (sent !=
        ee.messages_delivered + st.dropped_total + ee.messages_in_flight) {
      fail("traffic.messages_sent",
           to_string(sent) + " != messages_delivered " +
               to_string(ee.messages_delivered) + " + dropped_total " +
               to_string(st.dropped_total) + " + messages_in_flight " +
               to_string(ee.messages_in_flight));
    }
    // Every applied message is in the histogram once; plain barrier mode
    // applies every delivery, the event loop may end with some buffered.
    const std::uint64_t applied = total(ee.staleness_histogram);
    const std::uint64_t settled = applied + ee.messages_stale_dropped;
    if (plain_barrier ? settled != ee.messages_delivered
                      : settled > ee.messages_delivered) {
      fail("event_engine.messages_delivered",
           "staleness_histogram total " + to_string(applied) +
               " + messages_stale_dropped " +
               to_string(ee.messages_stale_dropped) +
               (plain_barrier ? " != " : " > ") + "messages_delivered " +
               to_string(ee.messages_delivered));
    }
    if (config.async_mode == AsyncMode::kBarrier) {
      if (ee.staleness_histogram.size() != config.staleness_bound + 1) {
        fail("event_engine.staleness_histogram",
             to_string(ee.staleness_histogram.size()) +
                 " buckets for staleness_bound = " +
                 to_string(config.staleness_bound));
      }
      if (!ee.effective_neighbors.empty() || ee.contributions_applied != 0 ||
          ee.contribution_age_sum != 0) {
        fail("event_engine.contributions_applied",
             "effective_neighbors, contributions_applied and "
             "contribution_age_sum are gate-free statistics; barrier mode "
             "collects none");
      }
    } else {
      if (ee.messages_stale_dropped != 0 || ee.staleness_overrides != 0) {
        fail("event_engine.staleness_overrides",
             "messages_stale_dropped " + to_string(ee.messages_stale_dropped) +
                 " and staleness_overrides " +
                 to_string(ee.staleness_overrides) +
                 " under a mode with no staleness gate");
      }
      if (applied != ee.contributions_applied) {
        fail("event_engine.staleness_histogram",
             "total " + to_string(applied) + " != contributions_applied " +
                 to_string(ee.contributions_applied));
      }
      std::uint64_t mixed = 0;
      for (std::size_t k = 0; k < ee.effective_neighbors.size(); ++k) {
        mixed += k * ee.effective_neighbors[k];
      }
      if (mixed != ee.contributions_applied) {
        fail("event_engine.effective_neighbors",
             "sum of k * count " + to_string(mixed) +
                 " != contributions_applied " +
                 to_string(ee.contributions_applied));
      }
      std::uint64_t aged = 0;
      for (std::size_t age = 0; age < ee.staleness_histogram.size(); ++age) {
        aged += age * ee.staleness_histogram[age];
      }
      if (aged != ee.contribution_age_sum) {
        fail("event_engine.contribution_age_sum",
             to_string(ee.contribution_age_sum) +
                 " != the staleness_histogram's age-weighted total " +
                 to_string(aged));
      }
      // One sample per alive local step; idle crash rounds take none.
      const std::uint64_t samples = total(ee.effective_neighbors);
      if (samples > total(ee.local_steps)) {
        fail("event_engine.effective_neighbors",
             to_string(samples) + " samples exceed the " +
                 to_string(total(ee.local_steps)) + " local steps");
      }
    }
    if (ee.local_steps.size() != nodes) {
      fail("event_engine.local_steps",
           to_string(ee.local_steps.size()) + " counters for " +
               to_string(nodes) + " nodes");
    }
    // The barrier steps every alive node once per round; the event loop
    // ends with the slowest node at rounds_run and none past the cap.
    if (plain_barrier) {
      if (ee.local_steps_max() > result.rounds_run) {
        fail("event_engine.local_steps",
             "max " + to_string(ee.local_steps_max()) + " exceeds rounds_run " +
                 to_string(result.rounds_run));
      }
    } else if (ee.local_steps_min() != result.rounds_run) {
      fail("event_engine.local_steps",
           "min " + to_string(ee.local_steps_min()) + " != rounds_run " +
               to_string(result.rounds_run));
    } else if (ee.local_steps_max() > config.rounds) {
      fail("event_engine.local_steps",
           "max " + to_string(ee.local_steps_max()) + " exceeds rounds = " +
               to_string(config.rounds));
    }
  }

  // --- attack and defense accounting
  if (bz.attackers.size() != config.byzantine_nodes) {
    fail("byzantine.attackers",
         to_string(bz.attackers.size()) + " ranks for byzantine_nodes = " +
             to_string(config.byzantine_nodes));
  }
  if (std::adjacent_find(bz.attackers.begin(), bz.attackers.end(),
                         std::greater_equal<>()) != bz.attackers.end()) {
    fail("byzantine.attackers", "ranks are not strictly ascending");
  }
  if (!bz.attackers.empty()) {
    const std::uint32_t top =
        *std::max_element(bz.attackers.begin(), bz.attackers.end());
    if (top >= nodes) {
      fail("byzantine.attackers", "rank " + to_string(top) +
                                      " out of range for " +
                                      to_string(nodes) + " nodes");
    }
  }
  if (bz.attackers.empty() && bz.corrupted_messages != 0) {
    fail("byzantine.corrupted_messages",
         to_string(bz.corrupted_messages) + " without attackers");
  }
  if (bz.trimmed_entries != 0 && rule != core::RobustAggKind::kTrimmedMean &&
      rule != core::RobustAggKind::kMedian) {
    fail("byzantine.trimmed_entries",
         to_string(bz.trimmed_entries) + " under robust_agg = " +
             core::robust_agg_name(rule) + ", which trims nothing");
  }
  if (bz.clipped_contributions != 0 && rule != core::RobustAggKind::kNormClip) {
    fail("byzantine.clipped_contributions",
         to_string(bz.clipped_contributions) + " under robust_agg = " +
             core::robust_agg_name(rule) + ", which clips nothing");
  }
  return out;
}

}  // namespace jwins::sim
