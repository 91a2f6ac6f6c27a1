// Sharded/resumable sweep execution — the engine behind jwins_run's
// --shard/--merge/--resume flags, factored out of the CLI so the scale test
// suite drives the exact production path.
//
// Sharding contract: `--shard i/N` deterministically partitions the expanded
// grid by run index (index % N == i), so N independent processes — or N CI
// jobs — each execute a disjoint slice and write a fragment index
// (grid.shard-<i>-of-<N>.json). merge_shards() reassembles the fragments
// into a grid.json that is BYTE-IDENTICAL to the one an unsharded run would
// have written: fragments carry the same per-entry bytes, and the merge
// re-derives the separators for the combined set. Resume reads the three
// summary numbers back from an existing result JSON via strtod — an exact
// %.17g round-trip — so a resumed grid entry is byte-identical too.
#pragma once

#include <cstddef>
#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "config/scenario.hpp"

namespace jwins::config {

/// One slice of a sharded sweep. The default (0 of 1) is the unsharded run.
struct ShardSpec {
  std::size_t index = 0;
  std::size_t count = 1;
};

/// Parses "i/N" (i < N, N >= 1). Throws ScenarioError on malformed specs.
ShardSpec parse_shard(const std::string& text);

/// True when this shard executes grid cell `run_index` (index % N == i).
/// Every run index is owned by exactly one of the N shards.
inline bool shard_owns(const ShardSpec& shard,
                       std::size_t run_index) noexcept {
  return run_index % shard.count == shard.index;
}

/// Fragment-index filename of one shard: "grid.shard-<i>-of-<N>.json".
std::string shard_fragment_name(const ShardSpec& shard);

/// One-line human description of a run (the CLI's grid/progress listing).
std::string describe_run(const ScenarioRun& run);

/// Output-file stem of a run: "run%03zu_" + a slug of its label — the names
/// both the writer and --resume's probe derive independently.
std::string run_file_base(const ScenarioRun& run);

struct SweepOptions {
  std::string out_dir = "jwins_results";  ///< root; files land in out/<name>/
  bool write_files = true;
  bool resume = false;      ///< skip runs whose result JSON already parses
  ShardSpec shard;          ///< default: the whole grid
  std::ostream* console = nullptr;  ///< progress stream (null = silent)
};

struct SweepOutcome {
  std::size_t executed = 0;  ///< runs actually simulated
  std::size_t skipped = 0;   ///< grid cells owned by other shards
  std::size_t resumed = 0;   ///< completed runs reused by --resume
  /// sim::check_result diagnostics over the executed runs (resumed runs
  /// are not re-checked).
  std::size_t violations = 0;
  std::string grid_path;     ///< grid.json, or this shard's fragment
};

/// Executes (this shard's slice of) the expanded grid and writes the result
/// files plus the grid index — the loop jwins_run runs. Every executed run
/// is checked with sim::check_result; each diagnostic is printed as
/// `check: <field>: <why>` and counted in SweepOutcome::violations, and the
/// run's files are still written. Throws ScenarioError on I/O failures.
SweepOutcome run_sweep(const std::vector<ScenarioRun>& runs,
                       const std::string& scenario_name,
                       const SweepOptions& options);

/// The summary triple --resume needs to reproduce a grid entry byte-for-byte.
struct CompletedRun {
  double final_accuracy = 0.0;
  double final_loss = 0.0;
  std::size_t rounds_run = 0;
};

/// Reads the summary triple back from a result JSON written by
/// sim::write_result_json. nullopt when the file is missing or any field
/// fails to parse (the run then simply re-executes).
std::optional<CompletedRun> probe_completed_run(const std::string& path);

/// Merges every grid.shard-<i>-of-<N>.json in `dir` into dir/grid.json,
/// byte-identical to an unsharded run's index. Validates that all fragments
/// agree on N, every shard 0..N-1 is present, and the entry indices cover
/// 0..total-1 exactly once. Returns the grid.json path; throws ScenarioError
/// on any violation.
std::string merge_shards(const std::string& dir);

}  // namespace jwins::config
