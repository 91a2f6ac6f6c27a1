#include "config/sweep.hpp"

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "config/runner.hpp"
#include "net/time_model.hpp"
#include "sim/check.hpp"
#include "sim/report.hpp"

namespace jwins::config {

namespace {

namespace fs = std::filesystem;

/// "workload=cifar,algorithm=jwins" -> "workload-cifar_algorithm-jwins".
std::string file_slug(const std::string& label) {
  std::string slug;
  for (const char c : label) {
    if (std::isalnum(static_cast<unsigned char>(c)) || c == '.' || c == '-') {
      slug += c;
    } else if (c == ',') {
      slug += '_';
    } else {
      slug += '-';
    }
  }
  return slug;
}

/// Strict decimal size_t parse of the whole string; throws on anything else.
std::size_t parse_size(const std::string& text, const std::string& what) {
  if (text.empty() ||
      !std::all_of(text.begin(), text.end(), [](unsigned char c) {
        return std::isdigit(c) != 0;
      })) {
    throw ScenarioError(what + ": \"" + text + "\" is not a number");
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (errno != 0 || end != text.c_str() + text.size()) {
    throw ScenarioError(what + ": \"" + text + "\" is not a number");
  }
  return static_cast<std::size_t>(v);
}

/// Finds `"<key>": ` in a result-JSON line and returns the value text (up to
/// the next ',' or the line end). Empty when the line is not that field.
std::string field_value(const std::string& line, const std::string& key) {
  const std::string prefix = "  \"" + key + "\": ";
  if (line.rfind(prefix, 0) != 0) return {};
  std::string value = line.substr(prefix.size());
  const std::size_t comma = value.find(',');
  if (comma != std::string::npos) value.resize(comma);
  return value;
}

/// strtod over the exact %.17g text the writer emitted — round-trips to the
/// same double, so re-emitting via json_number reproduces the bytes. The
/// writer's null (a non-finite value, e.g. a diverged loss) reads as NaN,
/// which json_number writes back as null.
bool parse_double(const std::string& text, double& out) {
  if (text == "null") {
    out = std::numeric_limits<double>::quiet_NaN();
    return true;
  }
  if (text.empty()) return false;
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (errno != 0 || end != text.c_str() + text.size()) return false;
  out = v;
  return true;
}

}  // namespace

ShardSpec parse_shard(const std::string& text) {
  const std::size_t slash = text.find('/');
  if (slash == std::string::npos || slash == 0 || slash + 1 == text.size()) {
    throw ScenarioError("--shard: \"" + text + "\" is not i/N");
  }
  ShardSpec spec;
  spec.index = parse_size(text.substr(0, slash), "--shard");
  spec.count = parse_size(text.substr(slash + 1), "--shard");
  if (spec.count == 0) {
    throw ScenarioError("--shard: shard count must be positive");
  }
  if (spec.index >= spec.count) {
    throw ScenarioError("--shard: index " + std::to_string(spec.index) +
                        " out of range for " + std::to_string(spec.count) +
                        " shards");
  }
  return spec;
}

std::string describe_run(const ScenarioRun& run) {
  std::string text = "workload=" + run.workload +
                     " algorithm=" + sim::algorithm_name(run.config.algorithm) +
                     " nodes=" + std::to_string(run.nodes) +
                     " rounds=" + std::to_string(run.config.rounds) +
                     " topology=" + run.topology;
  if (run.churn_every > 0) {
    text += " churn_every=" + std::to_string(run.churn_every);
  }
  if (run.config.time.extended()) {
    // Heterogeneous/faulty time model: results carry the sim_time JSON
    // block; the per-run summary line prints the simulated phase split.
    text += " time-model=extended";
  }
  if (run.config.engine == sim::EngineKind::kAsync) {
    text += " engine=async";
    if (run.config.staleness_bound > 0) {
      text += " staleness=" + std::to_string(run.config.staleness_bound);
    }
    if (run.config.async_mode != sim::AsyncMode::kBarrier) {
      text += " mode=";
      text += sim::async_mode_name(run.config.async_mode);
      if (run.config.async_mode == sim::AsyncMode::kWeighted) {
        std::ostringstream decay;
        decay << run.config.staleness_decay;
        text += " decay=" + decay.str();
      }
    }
  }
  if (run.config.node_state == sim::NodeState::kCompact) {
    text += " node_state=compact";
  }
  if (run.config.eval_sample > 0) {
    text += " eval_sample=" + std::to_string(run.config.eval_sample);
  }
  return text;
}

std::string run_file_base(const ScenarioRun& run) {
  std::uint32_t digest = 2166136261u;  // 32-bit FNV-1a
  for (const char c : run.spec) {
    digest = (digest ^ static_cast<unsigned char>(c)) * 16777619u;
  }
  char prefix[16];
  char suffix[16];
  std::snprintf(prefix, sizeof prefix, "run%03zu_", run.index);
  std::snprintf(suffix, sizeof suffix, "_%08x",
                static_cast<unsigned>(digest));
  return prefix + file_slug(run.label) + suffix;
}

std::optional<CompletedRun> probe_completed_run(const std::string& path) {
  std::ifstream in(path);
  std::string line;
  // A complete result file opens with the schema line and ends with the
  // document's closing brace; anything else (an older shape, a write cut
  // short) is re-run.
  if (!std::getline(in, line) || line != "{" || !std::getline(in, line) ||
      field_value(line, "schema") !=
          std::string("\"") + sim::kResultSchema + "\"") {
    return std::nullopt;
  }
  CompletedRun probe;
  bool have_acc = false, have_loss = false, have_rounds = false;
  bool closed = false;
  while (std::getline(in, line)) {
    closed = line == "}";
    if (std::string v = field_value(line, "final_accuracy"); !v.empty()) {
      have_acc = parse_double(v, probe.final_accuracy);
    } else if (std::string w = field_value(line, "final_loss"); !w.empty()) {
      have_loss = parse_double(w, probe.final_loss);
    } else if (std::string r = field_value(line, "rounds_run"); !r.empty()) {
      try {
        probe.rounds_run = parse_size(r, "rounds_run");
        have_rounds = true;
      } catch (const ScenarioError&) {
        return std::nullopt;
      }
    }
  }
  if (!(closed && have_acc && have_loss && have_rounds)) return std::nullopt;
  return probe;
}

SweepOutcome run_sweep(const std::vector<ScenarioRun>& runs,
                       const std::string& scenario_name,
                       const SweepOptions& options) {
  SweepOutcome outcome;
  std::ostream* console = options.console;

  fs::path run_dir;
  if (options.write_files) {
    run_dir = fs::path(options.out_dir) / scenario_name;
    std::error_code ec;
    fs::create_directories(run_dir, ec);
    if (ec) {
      throw ScenarioError("--out: cannot create " + run_dir.string() + ": " +
                          ec.message());
    }
  }

  // Only a run over the whole grid writes the index; a shard's runs are
  // indexed by a later --resume over every shard's output.
  const bool write_grid = options.write_files && options.shard.count == 1;
  std::ostringstream grid_index;
  grid_index << "[";
  bool first_entry = true;
  for (const ScenarioRun& run : runs) {
    if (!shard_owns(options.shard, run.index)) {
      ++outcome.skipped;
      continue;
    }
    const std::string base = run_file_base(run);
    const fs::path json_path = run_dir / (base + ".json");
    const fs::path csv_path = run_dir / (base + ".csv");

    // The grid-entry summary triple: either probed back from a finished
    // run's JSON (--resume) or taken from a fresh execution.
    double final_accuracy = 0.0;
    double final_loss = 0.0;
    std::size_t rounds_run = 0;

    std::optional<CompletedRun> done;
    if (options.resume && options.write_files) {
      done = probe_completed_run(json_path.string());
    }
    if (done) {
      ++outcome.resumed;
      final_accuracy = done->final_accuracy;
      final_loss = done->final_loss;
      rounds_run = done->rounds_run;
      if (console) {
        *console << "[" << run.index + 1 << "/" << runs.size() << "] "
                 << run.label << "  [resume: kept " << base << ".json]"
                 << std::endl;
      }
    } else {
      if (console) {
        *console << "[" << run.index + 1 << "/" << runs.size() << "] "
                 << run.label << "  (" << describe_run(run) << ")"
                 << std::endl;
        if (run.config.time.extended()) {
          // Same construction the Experiment performs, so the printed summary
          // (drawn straggler count included) matches the run exactly.
          const net::TimeModel model(run.nodes, run.config.link,
                                     run.config.time, run.config.seed);
          *console << "    time model: " << model.describe() << "\n";
        }
      }
      const sim::ExperimentResult result = execute(run);
      ++outcome.executed;
      const std::vector<std::string> violations =
          sim::check_result(result, run.config, run.nodes);
      outcome.violations += violations.size();
      final_accuracy = result.final_accuracy;
      final_loss = result.final_loss;
      rounds_run = result.rounds_run;
      if (console) {
        *console << "    acc=" << std::fixed << std::setprecision(1)
                 << result.final_accuracy * 100.0 << "%  loss="
                 << std::setprecision(3) << result.final_loss
                 << "  rounds=" << result.rounds_run << "  data/node="
                 << sim::format_bytes(
                        result.series.empty()
                            ? 0.0
                            : result.series.back().avg_bytes_per_node)
                 << "  sim-time=" << sim::format_seconds(result.sim_seconds)
                 << (result.reached_target ? "  [reached target]" : "")
                 << "\n";
        if (run.config.time.extended()) {
          const sim::SimTimeBreakdown& st = result.sim_time;
          *console << "    sim: compute="
                   << sim::format_seconds(st.compute_seconds)
                   << "  comm=" << sim::format_seconds(st.comm_seconds)
                   << "  dropped=" << st.dropped_total
                   << " (edge=" << st.dropped_edge
                   << " burst=" << st.dropped_burst
                   << " crash=" << st.dropped_crash << ")"
                   << "  crashed-rounds=" << st.crashed_node_rounds
                   << "  stragglers=" << st.stragglers << "\n";
        }
        if (result.event_engine.enabled) {
          const sim::EventEngineStats& ee = result.event_engine;
          *console << "    events: processed=" << ee.events_processed
                   << "  max-queue=" << ee.max_queue_depth
                   << "  delivered=" << ee.messages_delivered
                   << "  in-flight=" << ee.messages_in_flight
                   << "  stale=" << ee.messages_stale_dropped
                   << "  overrides=" << ee.staleness_overrides
                   << "  local-steps=" << ee.local_steps_min() << ".."
                   << ee.local_steps_max() << "\n";
        }
        for (const std::string& v : violations) {
          *console << "    check: " << v << "\n";
        }
      }
      if (options.write_files) {
        {
          std::ofstream json(json_path);
          sim::write_result_json(json, scenario_name + "/" + run.label,
                                 result);
        }
        {
          std::ofstream csv(csv_path);
          sim::print_series_csv(csv, scenario_name + "/" + run.label, result);
        }
      }
    }

    if (!write_grid) continue;
    grid_index << (first_entry ? "\n" : ",\n");
    first_entry = false;
    grid_index << "  {\"index\": " << run.index
               << ", \"label\": " << sim::json_string(run.label)
               << ", \"json\": " << sim::json_string(base + ".json")
               << ", \"csv\": " << sim::json_string(base + ".csv")
               << ", \"final_accuracy\": " << sim::json_number(final_accuracy)
               << ", \"final_loss\": " << sim::json_number(final_loss)
               << ", \"rounds_run\": " << rounds_run << "}";
  }

  if (write_grid) {
    grid_index << (first_entry ? "]\n" : "\n]\n");
    const fs::path grid_path = run_dir / "grid.json";
    std::ofstream grid(grid_path);
    grid << grid_index.str();
    outcome.grid_path = grid_path.string();
  }
  if (options.write_files && console) {
    const std::size_t results = outcome.executed + outcome.resumed;
    *console << "wrote " << results << " result" << (results == 1 ? "" : "s")
             << " (JSON + CSV)" << (write_grid ? " and grid.json" : "")
             << " to " << run_dir.string() << "\n";
  }
  return outcome;
}

}  // namespace jwins::config
