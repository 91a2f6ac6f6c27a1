// Declarative scenario engine (paper §IV: the evaluation is a *grid* —
// 5 workloads x 5 algorithms x topologies x budgets x failure modes — so the
// grid is data, not C++).
//
// A `.scenario` file is a flat INI/TOML-subset: `key = value` lines, `#`/`;`
// comments, no sections, no quoting. Spec atoms with internal structure —
// the cut-off distribution, the link-time distributions, the per-edge drop
// spec — are colon-separated (`two-point:0.05:0.05`, `lognormal:100:0.75`),
// so sweep commas stay unambiguous. Any key except `name` may hold a
// comma-separated sweep list (`algorithm = jwins, choco, full-sharing`);
// expand_grid() takes the Cartesian product of every sweep list, in file
// order with the last-listed sweep key varying fastest (odometer order), and
// yields one fully-validated ScenarioRun per grid cell. Every key is
// registered in scenario_keys() with its type, default, and valid range —
// docs/EXPERIMENTS.md documents exactly that table (a test enforces the
// correspondence) and `jwins_run --list-keys` prints it.
//
// All diagnostics are thrown as ScenarioError with a "<key>: <why>" (or
// "line N: <why>") message; callers prepend "error: ".
#pragma once

#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "sim/experiment.hpp"

namespace jwins::config {

/// Parse/validation diagnostic; .what() is "<key>: <why>" or "line N: <why>".
class ScenarioError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// One row of the scenario-key reference.
struct KeyInfo {
  const char* key;
  const char* type;           ///< "uint", "float", "bool", "enum", "string"
  const char* default_value;  ///< as spelled in a scenario file
  const char* valid;          ///< range / enum values, human-readable
  const char* description;
};

/// The full key registry, in documentation order.
const std::vector<KeyInfo>& scenario_keys();

/// Parsed-but-unexpanded scenario: ordered (key, sweep values) entries.
/// Keys are validated on expansion, not here, so callers can layer
/// overrides (CLI --set, bench flags) before committing.
struct RawScenario {
  std::string name;  ///< `name = ...` or the file stem; "scenario" if neither
  std::vector<std::pair<std::string, std::vector<std::string>>> entries;
};

/// Parses scenario text. Throws ScenarioError("line N: <why>") on syntax
/// errors (missing '=', [section] headers, empty sweep elements, duplicates).
RawScenario parse_scenario_text(std::string_view text,
                                const std::string& name = "scenario");

/// Reads and parses a .scenario file; the file stem becomes the default name.
RawScenario load_scenario_file(const std::string& path);

/// Replaces `key`'s values (or appends the entry), keeping file order —
/// the override channel for `jwins_run --set` and bench/example flags.
/// `value` may itself be a comma-separated sweep list.
void set_value(RawScenario& raw, const std::string& key,
               const std::string& value);

/// One fully-resolved grid cell, ready to execute.
struct ScenarioRun {
  std::string scenario;   ///< scenario name
  std::string label;      ///< swept "key=value" pairs, comma-joined ("run" if unswept)
  /// Every "key=value" the cell was built from, comma-joined in file order,
  /// except `threads` (results are bit-identical at any thread count). Two
  /// cells with the same spec compute the same result; run_file_base
  /// digests it into the output file names.
  std::string spec;
  std::size_t index = 0;  ///< position in the expanded grid

  std::string workload = "cifar";
  std::size_t nodes = 16;
  double scale = 1.0;

  std::string topology = "regular";  ///< regular | ring | torus | full
  std::size_t topology_degree = 0;   ///< 0 = auto (paper degree schedule)
  std::size_t churn_every = 0;       ///< 0 = static; N = re-randomize every N rounds

  /// True until `learning_rate` / `local_steps` appear in the file: the
  /// runner then takes the workload's grid-searched suggestion (§IV-B).
  bool auto_learning_rate = true;
  bool auto_local_steps = true;

  /// Everything the Experiment itself consumes. `config.threads == 0` here
  /// means "all hardware threads", resolved by the runner.
  sim::ExperimentConfig config;
};

/// Paper degree schedule for auto topology_degree: 4-regular at base scale,
/// growing with node count (96:4, 192:5, 288:5, 384:6, scaled down).
std::size_t auto_degree(std::size_t nodes);

/// The degree a run actually uses: topology_degree, or when 0 the paper
/// schedule for regular graphs and 2 (nearest neighbors) for rings.
std::size_t effective_degree(const ScenarioRun& run);

/// Torus factorization: the largest divisor of `nodes` that is >= 2 and
/// <= sqrt(nodes) (rows of the most-square rows x cols grid), or 0 when
/// none exists (prime/degenerate counts). Shared by validation and the
/// topology builder so they can never disagree on the grid shape.
std::size_t torus_rows(std::size_t nodes);

/// Expands sweep lists into the run grid and validates every cell (key
/// syntax, enum membership, ranges, cross-field rules, and
/// ExperimentConfig::validate()). Throws ScenarioError on the first problem.
std::vector<ScenarioRun> expand_grid(const RawScenario& raw);

}  // namespace jwins::config
