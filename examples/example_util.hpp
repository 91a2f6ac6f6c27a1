// Shared helpers for the examples: strict --key=value flag parsing
// (std::from_chars rejects negatives and trailing garbage, which std::stoul
// silently accepts; clean error + exit 2 on bad input) and scenario-preset
// loading — every example's experiment wiring lives in a checked-in
// scenarios/*.scenario file (docs/EXPERIMENTS.md).
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>

#include "config/scenario.hpp"

namespace jwins::examples {

/// If `arg` starts with `key` (e.g. "--nodes="), parses the rest into `out`
/// and returns true; exits with a diagnostic when the value is not a valid
/// unsigned integer. Returns false when the flag does not match.
inline bool match_flag(std::string_view arg, std::string_view key,
                       std::size_t& out) {
  if (arg.rfind(key, 0) != 0) return false;
  const std::string_view value = arg.substr(key.size());
  std::size_t parsed = 0;
  const auto [end, ec] =
      std::from_chars(value.data(), value.data() + value.size(), parsed);
  if (ec != std::errc{} || end != value.data() + value.size()) {
    std::cerr << "error: " << arg << " is not an unsigned integer\n";
    std::exit(2);
  }
  out = parsed;
  return true;
}

/// Loads the example's scenario preset and layers the standard
/// --nodes/--rounds/--threads overrides on top. Exits 2 with a clean
/// diagnostic on malformed flags, on any other argument (a stale or
/// misspelt flag would otherwise run the preset without a word), or on a
/// broken scenario file.
inline config::RawScenario load_preset_with_flags(const char* filename,
                                                  int argc, char** argv) {
  try {
    config::RawScenario raw = config::load_scenario_file(
        std::string(JWINS_SCENARIO_DIR "/") + filename);
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg = argv[i];
      std::size_t value = 0;
      if (match_flag(arg, "--nodes=", value)) {
        config::set_value(raw, "nodes", std::to_string(value));
      } else if (match_flag(arg, "--rounds=", value)) {
        config::set_value(raw, "rounds", std::to_string(value));
      } else if (match_flag(arg, "--threads=", value)) {
        config::set_value(raw, "threads", std::to_string(value));
      } else {
        std::cerr << "error: " << arg << ": not a flag of this example "
                  << "(flags: --nodes= --rounds= --threads=)\n";
        std::exit(2);
      }
    }
    return raw;
  } catch (const config::ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// Expands the preset's sweep grid, mapping ScenarioError (e.g. a --nodes
/// override that breaks topology feasibility) to the examples' clean
/// `error: ...` + exit 2 contract instead of an escaping exception.
inline std::vector<config::ScenarioRun> expand_or_die(
    const config::RawScenario& raw) {
  try {
    return config::expand_grid(raw);
  } catch (const config::ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

}  // namespace jwins::examples
