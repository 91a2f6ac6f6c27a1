// Console reporting helpers: the benches print the same rows/series the
// paper's tables and figures show, via these formatters.
#pragma once

#include <iosfwd>
#include <string>

#include "sim/experiment.hpp"

namespace jwins::sim {

/// "1.23 KiB" / "4.56 MiB" / "7.89 GiB" formatting.
std::string format_bytes(double bytes);

/// "12.3 s" / "4.5 min" formatting.
std::string format_seconds(double seconds);

/// Prints a metric series as CSV: round,sim_seconds,acc,loss,bytes,metadata.
void print_series_csv(std::ostream& os, const std::string& label,
                      const ExperimentResult& result);

/// One Table-I style summary row.
void print_summary_row(std::ostream& os, const std::string& dataset,
                       const std::string& algorithm,
                       const ExperimentResult& result);

/// Round-trip-exact, locale-independent JSON number (%.17g). Non-finite
/// values have no JSON representation and become null.
std::string json_number(double v);

/// JSON string literal with quote/backslash/control-character escaping.
std::string json_string(const std::string& s);

/// Identifies the result-JSON shape: the first key of every document
/// write_result_json emits (docs/SIMULATION.md "Result JSON").
inline constexpr const char* kResultSchema = "jwins.result/2";

/// Machine-readable result for downstream plotting (the jwins_run CLI's
/// output format). Every run emits the same blocks in the same order: the
/// summary, traffic, "sim_time" (simulated compute/comm split and per-cause
/// drop counters), "event_engine" (event and queue counters, the message
/// conservation ledger, staleness statistics and the per-node local-step
/// spread; all zero under the synchronous engine), "byzantine" (attackers
/// and defense counters), the host "wall_seconds" and the metric series,
/// whose points carry the cumulative simulated compute/comm split.
/// The output is deterministic — the same ExperimentResult always produces
/// the same bytes (doubles are emitted round-trip exactly via %.17g) —
/// EXCEPT the "wall_seconds" block, which measures this host (tests that
/// compare JSON across runs strip it).
void write_result_json(std::ostream& os, const std::string& label,
                       const ExperimentResult& result);

}  // namespace jwins::sim
