// jwins_run — the declarative experiment driver.
//
//   jwins_run <file.scenario> [options]
//
// Loads a .scenario spec (docs/EXPERIMENTS.md is the key reference; the
// simulated-time & fault keys are specified in docs/SIMULATION.md), expands
// its sweep lists into a run grid, executes every cell, streams per-run
// progress to the console, and writes one JSON (full metric series, traffic
// split, per-phase wall-clock, and — for heterogeneous/faulty time models —
// the simulated compute/comm split) plus one CSV (the series) per run, and a
// grid.json index — so downstream plotting needs no C++. Every executed run
// is checked against the result invariants (sim::check_result); a violation
// prints `check: <field>: <why>` under that run.
//
// Options:
//   --set key=value   Override/add a scenario key before expansion
//                     (repeatable; the value may be a comma sweep list)
//   --out=DIR         Output root (default jwins_results); files land in
//                     DIR/<scenario-name>/
//   --no-files        Console summary only, write nothing
//   --dry-run         Print the expanded grid and exit without running
//   --shard i/N       Execute only grid cells with index % N == i and write
//                     their JSON + CSV, no grid.json (run all N shards — any
//                     machines — into one DIR, then --resume)
//   --resume          Keep runs whose complete jwins.result/4 JSON already
//                     exists under their spec-digested file name and rebuild
//                     their grid entries from it; execute the rest (older
//                     jwins.result/3 files re-run). Over the shards' output
//                     it writes the unsharded grid.json
//   --list-keys       Print the scenario key reference and exit
//
// Exit codes: 0 success, 2 usage/spec error (message: `error: <key>: <why>`),
// 3 a result failed an invariant (the files are still written).

#include <iomanip>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "config/scenario.hpp"
#include "config/sweep.hpp"

namespace {

using namespace jwins;

void print_usage(std::ostream& os) {
  os << "usage: jwins_run <file.scenario> [--set key=value]... [--out=DIR]\n"
        "                 [--no-files] [--dry-run] [--shard i/N] [--resume]\n"
        "                 [--list-keys]\n"
        "Scenario key reference: jwins_run --list-keys, or docs/EXPERIMENTS.md\n"
        "Exit codes: 0 success, 2 usage/spec error, 3 a result failed an\n"
        "invariant (the `check:` lines name it; files are still written)\n";
}

void print_key_reference(std::ostream& os) {
  os << "Scenario keys (flat `key = value` lines; any key except `name` may\n"
        "hold a comma-separated sweep list, expanded as a run grid):\n\n";
  for (const config::KeyInfo& k : config::scenario_keys()) {
    os << "  " << std::left << std::setw(26) << k.key << std::setw(8) << k.type
       << "default: " << k.default_value << "\n"
       << std::setw(36) << "" << "valid: " << k.valid << "\n"
       << std::setw(36) << "" << k.description << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  std::string scenario_path;
  std::vector<std::pair<std::string, std::string>> overrides;
  config::SweepOptions options;
  options.console = &std::cout;
  bool dry_run = false;
  std::string shard_text;

  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--list-keys") {
      print_key_reference(std::cout);
      return 0;
    }
    if (arg == "--help" || arg == "-h") {
      print_usage(std::cout);
      return 0;
    }
    if (arg == "--no-files") {
      options.write_files = false;
    } else if (arg == "--dry-run") {
      dry_run = true;
    } else if (arg == "--resume") {
      options.resume = true;
    } else if (arg.rfind("--out=", 0) == 0) {
      options.out_dir = std::string(arg.substr(6));
    } else if (arg == "--shard") {
      if (i + 1 >= argc) {
        std::cerr << "error: --shard: expects a following i/N argument\n";
        return 2;
      }
      shard_text = argv[++i];
    } else if (arg == "--set") {
      if (i + 1 >= argc) {
        std::cerr << "error: --set: expects a following key=value argument\n";
        return 2;
      }
      const std::string_view kv = argv[++i];
      const auto eq = kv.find('=');
      if (eq == std::string_view::npos || eq == 0) {
        std::cerr << "error: --set: \"" << kv << "\" is not key=value\n";
        return 2;
      }
      overrides.emplace_back(std::string(kv.substr(0, eq)),
                             std::string(kv.substr(eq + 1)));
    } else if (arg.rfind("--", 0) == 0) {
      std::cerr << "error: unknown option " << arg << "\n";
      print_usage(std::cerr);
      return 2;
    } else if (scenario_path.empty()) {
      scenario_path = std::string(arg);
    } else {
      std::cerr << "error: more than one scenario file given\n";
      return 2;
    }
  }
  if (scenario_path.empty()) {
    std::cerr << "error: no scenario file given\n";
    print_usage(std::cerr);
    return 2;
  }

  std::vector<config::ScenarioRun> runs;
  std::string scenario_name;
  try {
    if (!shard_text.empty()) options.shard = config::parse_shard(shard_text);
    config::RawScenario raw = config::load_scenario_file(scenario_path);
    for (const auto& [key, value] : overrides) {
      config::set_value(raw, key, value);
    }
    runs = config::expand_grid(raw);
    scenario_name = raw.name;
  } catch (const config::ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  std::cout << "scenario " << scenario_name << ": " << runs.size()
            << (runs.size() == 1 ? " run" : " runs") << " ("
            << scenario_path << ")\n";
  if (dry_run) {
    for (const config::ScenarioRun& run : runs) {
      std::cout << "  [" << run.index + 1 << "/" << runs.size() << "] "
                << run.label << "  (" << config::describe_run(run) << ")"
                << (config::shard_owns(options.shard, run.index)
                        ? ""
                        : "  [other shard]")
                << "\n";
    }
    return 0;
  }

  config::SweepOutcome outcome;
  try {
    outcome = config::run_sweep(runs, scenario_name, options);
  } catch (const config::ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }
  if (outcome.violations > 0) {
    std::cerr << "error: " << outcome.violations << " result invariant "
              << (outcome.violations == 1 ? "violation" : "violations")
              << " (see the check: lines)\n";
    return 3;
  }
  return 0;
}
