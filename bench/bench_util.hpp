// Shared helpers for the benches: tiny --key=value flag parsing (each bench
// runs standalone with sensible defaults but can be scaled up to paper
// size) and the preset plumbing. The figure benches load their wiring from
// scenarios/*.scenario via load_preset() and keep only protocol logic in
// C++ (Fig. 5's derived target accuracy, the baselines' equal-bytes round
// count); the kernel-level and thread-study benches that still wire an
// ExperimentConfig use static_regular() for the benches' topology.
#pragma once

#include <charconv>
#include <cstdlib>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "config/runner.hpp"
#include "config/scenario.hpp"
#include "graph/graph.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"

namespace jwins::bench {

class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      // string_view parsing (rather than std::string::substr chains, which
      // trip GCC 12's -Wrestrict false positive, GCC PR 105651) keeps
      // -Werror builds clean.
      const std::string_view arg = argv[i];
      if (arg.rfind("--", 0) != 0) continue;
      const std::string_view body = arg.substr(2);
      const auto eq = body.find('=');
      if (eq == std::string_view::npos) {
        values_.insert_or_assign(std::string(body), std::string("1"));
      } else {
        values_.insert_or_assign(std::string(body.substr(0, eq)),
                                 std::string(body.substr(eq + 1)));
      }
    }
  }

  // std::from_chars rather than std::stoul/stod: the latter silently accept
  // negative values (wrapping to huge size_t) and trailing garbage ("5x").
  std::size_t get(const std::string& key, std::size_t fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    std::size_t out = 0;
    if (!parse_full(it->second, out)) die(key, it->second, "an unsigned integer");
    return out;
  }

  double get(const std::string& key, double fallback) const {
    const auto it = values_.find(key);
    if (it == values_.end()) return fallback;
    double out = 0.0;
    if (!parse_full(it->second, out)) die(key, it->second, "a number");
    return out;
  }

  std::string get(const std::string& key, const std::string& fallback) const {
    const auto it = values_.find(key);
    return it == values_.end() ? fallback : it->second;
  }

  bool contains(const std::string& key) const {
    return values_.find(key) != values_.end();
  }

 private:
  template <typename T>
  static bool parse_full(const std::string& text, T& out) {
    const char* const end = text.data() + text.size();
    const auto [parsed_end, ec] = std::from_chars(text.data(), end, out);
    return ec == std::errc{} && parsed_end == end;
  }

  [[noreturn]] static void die(const std::string& key,
                               const std::string& value,
                               const char* expected) {
    std::cerr << "error: --" << key << "=" << value << " is not " << expected
              << "\n";
    std::exit(2);
  }

  std::map<std::string, std::string> values_;
};

/// The --threads flag, defaulting to every hardware thread: the engine is
/// bit-identical at any thread count (docs/DESIGN.md "Determinism &
/// threading model"), so benches take the parallel speedup for free.
inline unsigned thread_flag(const Flags& flags) {
  return static_cast<unsigned>(flags.get(
      "threads",
      static_cast<std::size_t>(net::ThreadPool::default_thread_count())));
}

inline std::unique_ptr<graph::TopologyProvider> static_regular(
    std::size_t nodes, std::size_t degree, unsigned seed) {
  std::mt19937 rng(seed);
  return std::make_unique<graph::StaticTopology>(
      graph::random_regular(nodes, degree, rng));
}

/// Loads a figure's scenario preset: --scenario=PATH override, else the
/// checked-in scenarios/ copy (JWINS_SCENARIO_DIR is baked in by CMake).
inline config::RawScenario load_preset(const Flags& flags,
                                       const char* filename) {
  const std::string fallback = std::string(JWINS_SCENARIO_DIR "/") + filename;
  try {
    return config::load_scenario_file(flags.get("scenario", fallback));
  } catch (const config::ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// Expands a preset's grid; an invalid override exits 2 with the scenario
/// diagnostic, like a malformed flag.
inline std::vector<config::ScenarioRun> expand_preset(
    const config::RawScenario& raw) {
  try {
    return config::expand_grid(raw);
  } catch (const config::ScenarioError& e) {
    std::cerr << "error: " << e.what() << "\n";
    std::exit(2);
  }
}

/// Forwards a bench flag into the scenario (only when given on the command
/// line, so the preset's value stays the default).
inline void override_if(const Flags& flags, config::RawScenario& raw,
                        const std::string& flag_key,
                        const std::string& scenario_key) {
  if (flags.contains(flag_key)) {
    config::set_value(raw, scenario_key, flags.get(flag_key, std::string{}));
  }
}

}  // namespace jwins::bench
