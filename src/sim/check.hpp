// Result invariants: the one definition of every identity a finished run's
// ExperimentResult satisfies, whatever the engine, aggregation mode, fault
// model or attack. jwins_run checks every run it executes (exit code 3 on a
// violation), and the determinism, property and engine test suites check
// every run they make (docs/SIMULATION.md "Result invariants").
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "sim/experiment.hpp"

namespace jwins::sim {

/// Checks `result` against the identities that hold for every run of
/// `config`. Returns one "<field>: <why>" diagnostic per violated identity,
/// naming the result field by its JSON path (empty = consistent):
///
///  * sim_time.dropped_total == iid + edge + burst + crash;
///  * async engine: messages_sent == delivered + dropped_total + in_flight
///    (the conservation ledger); after an event-loop target stop, which
///    leaves its queued arrivals uncounted, messages_sent >= that sum;
///  * async engine: staleness-histogram total + stale drops <= delivered,
///    with equality in plain barrier mode (staleness_bound 0); barrier runs
///    size the histogram to the window and collect no gate-free stats;
///    free/weighted runs drop nothing for age, force-unblock nothing, and
///    their histogram total, sum of k * effective_neighbors[k] and
///    contributions_applied agree, as do the histogram's age-weighted total
///    and contribution_age_sum, with at most one effective-neighbour sample
///    per local step;
///  * rounds_run <= rounds, and == rounds with neither a budget nor a
///    reached target; reached_target needs a target it really reached;
///  * messages_in_flight == 0 without a budget;
///  * async engine: per-node local steps stay within the run's rounds
///    (barrier: at most rounds_run; event loop: the slowest node's count is
///    rounds_run);
///  * outside plain barrier mode, compute + comm == sim_seconds exactly, run
///    total and every series point;
///  * byzantine.attackers has byzantine_nodes ascending ranks below the node
///    count; no corrupted messages without attackers; trim and clip counters
///    stay 0 unless the configured robust rule is the one that moves them;
///  * each `extended`/`enabled` flag equals what the config implies, and the
///    mode fields mirror the config;
///  * the series is non-empty with ascending rounds, and final_accuracy and
///    final_loss are its last point's.
///
/// `nodes` is the run's node count (attacker ranks, one local-step counter
/// per node).
std::vector<std::string> check_result(const ExperimentResult& result,
                                      const ExperimentConfig& config,
                                      std::size_t nodes);

}  // namespace jwins::sim
