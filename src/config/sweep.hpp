// Sharded/resumable sweep execution — the engine behind jwins_run's
// --shard/--resume flags, factored out of the CLI so the scale test suite
// drives the exact production path.
//
// Every run's output files are named by its grid index, its label and a
// digest of its full spec (run_file_base), so a file on disk belongs to
// exactly one configuration. `--resume` keeps a run whose complete result
// JSON already exists under that name and re-executes every other; it reads
// the three summary numbers back via strtod — an exact %.17g round-trip —
// so a kept run's grid entry is byte-identical to a fresh one.
//
// Sharding contract: `--shard i/N` deterministically partitions the
// expanded grid by run index (index % N == i), so N independent processes —
// or N CI jobs — each execute a disjoint slice and write only those runs'
// JSON and CSV. A `--resume` over the union of the shards' output then
// executes nothing that a shard finished and writes a grid.json that is
// BYTE-IDENTICAL to the one an unsharded run would have written.
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

/// One-line human description of a run (the CLI's grid/progress listing).
std::string describe_run(const ScenarioRun& run);

/// Output-file stem of a run: "run%03zu_" + a slug of its label + "_" + the
/// 8-hex-digit FNV-1a digest of its spec — the names both the writer and
/// --resume's probe derive independently. A run computed under another spec
/// has another name, so resume never keeps it.
std::string run_file_base(const ScenarioRun& run);

struct SweepOptions {
  std::string out_dir = "jwins_results";  ///< root; files land in out/<name>/
  bool write_files = true;
  bool resume = false;      ///< keep runs whose complete result JSON exists
  ShardSpec shard;          ///< default: the whole grid (writes grid.json)
  std::ostream* console = nullptr;  ///< progress stream (null = silent)
};

struct SweepOutcome {
  std::size_t executed = 0;  ///< runs actually simulated
  std::size_t skipped = 0;   ///< grid cells owned by other shards
  std::size_t resumed = 0;   ///< completed runs reused by --resume
  /// sim::check_result diagnostics over the executed runs (resumed runs
  /// are not re-checked).
  std::size_t violations = 0;
  std::string grid_path;     ///< grid.json; empty for a shard or --no-files
};

/// Executes (this shard's slice of) the expanded grid and writes the result
/// files, plus the grid.json index when the run covers the whole grid — the
/// loop jwins_run runs. Every executed run
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
/// sim::write_result_json (a null loss or accuracy reads as NaN). nullopt
/// when the file is missing, does not open with the current schema line,
/// lacks its closing brace, or any field fails to parse (the run then simply
/// re-executes).
std::optional<CompletedRun> probe_completed_run(const std::string& path);

}  // namespace jwins::config
