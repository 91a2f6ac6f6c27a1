// End-to-end benchmark of the simulator: the four pinned workloads in
// workloads/*.scenario, each driven through the public entry points
// (config::make_run_workload / make_run_topology / resolve_config, the
// sim::Experiment constructor and run()).
//
// Load shape: closed loop, one experiment at a time from a single process,
// threads = 1. Every trial is a fresh child process (the bench re-executes
// itself with --child), so setup_s and peak_rss_mib belong to that trial, and
// trials are interleaved round-robin across workloads (W1 t0, W2 t0, ...,
// W1 t1, ...): back-to-back trials let one slow spell of the host shift a
// whole workload's median. Parallel scaling stays out of the benchmark.
//
// setup_s is the cold setup a user pays once per process. A trial sets up
// once, and kSetupProbes setup-only child processes follow each trial, so a
// workload's setup_s median rests on (1 + kSetupProbes) cold setups per
// trial instead of one.
//
//   bench_e2e --json=PATH            every workload, 3 trials, report to PATH
//   bench_e2e --trace=DIR            one traced run per workload: per-layer
//                                    split in DIR/layers.json, spans in
//                                    DIR/trace.json; exits 3 if the layers
//                                    do not reconcile with the run in any
//                                    of three traced trials
//   --workload=NAME[,NAME]  --trials=N  --seed=S  --smoke
//   --seconds=T                      trials until T seconds are spent (at
//                                    least two), instead of --trials
//   --pin                            write the observed outputs to
//                                    expected.txt (run once per seed)
//
// Outputs are checked against the pinned values in expected.txt (rounds,
// bytes per node, final accuracy, simulated seconds and a digest of the
// whole metric series); at a seed with no pinned values, only agreement
// across trials is required. Exit codes: 0 ok, 1 a trial failed, 2 usage,
// 3 trace reconciliation failed. README.md documents the metrics.
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "config/runner.hpp"
#include "config/scenario.hpp"
#include "layers.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"

namespace {

using jwins::bench::e2e::Clock;
using jwins::sim::json_number;
using jwins::sim::json_string;
namespace config = jwins::config;
namespace e2e = jwins::bench::e2e;
namespace sim = jwins::sim;

const std::vector<std::string> kWorkloads = {
    "cifar96_jwins", "movielens192_jwins", "scale100k_compact",
    "movielens192_choco_async"};

constexpr std::size_t kDefaultTrials = 3;
/// Setup-only processes after each trial (see the file comment).
constexpr std::size_t kSetupProbes = 4;
/// --seconds runs at least this many trials, so agreement can be checked.
constexpr std::size_t kMinBudgetTrials = 2;
constexpr std::size_t kMaxBudgetTrials = 50;
/// Traced trials per workload before a failed reconciliation is reported.
constexpr std::size_t kTraceAttempts = 3;
/// --smoke shrinks every workload to this many rounds and, unless --trials
/// says otherwise, runs this many trials: the whole preflight takes ~10 s.
constexpr const char* kSmokeRounds = "2";
constexpr std::size_t kSmokeTrials = 2;

/// End-to-end metrics of one trial. `bound` is the share of the median by
/// which a metric may worsen before it counts as a regression, the same
/// value BENCHMARK.json gives it (run.py checks that they agree); a
/// min-to-max spread wider than the bound flags the workload unstable.
/// Deterministic metrics have bound 0: any difference between trials is a
/// failure.
struct MetricSpec {
  const char* name;
  const char* unit;
  const char* better;
  double bound;
};

constexpr MetricSpec kMetrics[] = {
    {"round_ms", "ms", "lower", 0.24},
    {"run_s", "s", "lower", 0.24},
    {"setup_s", "s", "lower", 0.25},
    {"peak_rss_mib", "MiB", "lower", 0.16},
    {"bytes_per_node_kib", "KiB", "lower", 0.0},
    {"final_accuracy", "fraction", "higher", 0.0},
    {"sim_s", "s", "lower", 0.0},
};

/// The outputs every trial of one (workload, seed) must reproduce exactly,
/// in the column order of expected.txt.
const std::vector<std::string> kPinnedOutputs = {
    "rounds_run", "bytes_per_node_kib", "final_accuracy", "sim_s", "digest"};

struct Options {
  std::vector<std::string> workloads = kWorkloads;
  std::size_t trials = 0;  ///< 0 = kDefaultTrials (kSmokeTrials with --smoke)
  std::optional<std::uint64_t> seed;
  double seconds = 0.0;  ///< > 0: run trials until this budget is spent
  bool smoke = false;
  bool pin = false;
  std::string json_path;
  std::string trace_dir;
  std::string child;        ///< internal: run one trial of this workload
  bool setup_only = false;  ///< internal: the child only sets up
};

[[noreturn]] void usage_error(const std::string& why) {
  std::cerr << "error: " << why << "\n"
            << "usage: bench_e2e [--json=PATH | --trace=DIR] "
               "[--workload=NAME[,NAME]] [--trials=N] [--seed=S] "
               "[--seconds=T] [--smoke] [--pin]\n";
  std::exit(2);
}

template <typename T>
T parse_flag(const std::string& key, const std::string& text) {
  T out{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, out);
  if (ec != std::errc{} || ptr != end || text.empty()) {
    usage_error("--" + key + "=" + text + " is not a valid value");
  }
  return out;
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) usage_error("unexpected argument " + arg);
    const std::size_t eq = arg.find('=');
    const std::string key =
        arg.substr(2, eq == std::string::npos ? eq : eq - 2);
    const std::string value = eq == std::string::npos ? "" : arg.substr(eq + 1);
    const bool has_value = eq != std::string::npos;
    if (key == "smoke" && !has_value) {
      opt.smoke = true;
    } else if (key == "pin" && !has_value) {
      opt.pin = true;
    } else if (key == "setup-only" && !has_value) {
      opt.setup_only = true;
    } else if (key == "workload" && has_value) {
      opt.workloads.clear();
      std::stringstream list(value);
      for (std::string name; std::getline(list, name, ',');) {
        if (std::find(kWorkloads.begin(), kWorkloads.end(), name) ==
            kWorkloads.end()) {
          usage_error("unknown workload \"" + name + "\"");
        }
        opt.workloads.push_back(name);
      }
      if (opt.workloads.empty()) usage_error("--workload needs a name");
    } else if (key == "trials" && has_value) {
      opt.trials = parse_flag<std::size_t>(key, value);
      if (opt.trials == 0) usage_error("--trials must be >= 1");
    } else if (key == "seed" && has_value) {
      opt.seed = parse_flag<std::uint64_t>(key, value);
    } else if (key == "seconds" && has_value) {
      opt.seconds = parse_flag<double>(key, value);
      if (!(opt.seconds > 0.0)) usage_error("--seconds must be > 0");
    } else if (key == "json" && has_value && !value.empty()) {
      opt.json_path = value;
    } else if (key == "trace" && has_value && !value.empty()) {
      opt.trace_dir = value;
    } else if (key == "child" && has_value) {
      opt.child = value;
    } else {
      usage_error("unknown flag " + arg);
    }
  }
  if (!opt.trace_dir.empty() && !opt.json_path.empty()) {
    usage_error("--trace and --json are separate runs");
  }
  if (opt.pin && (opt.smoke || !opt.trace_dir.empty())) {
    usage_error("--pin records full, untraced runs only");
  }
  if (opt.trials == 0) opt.trials = opt.smoke ? kSmokeTrials : kDefaultTrials;
  return opt;
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t mid = v.size() / 2;
  return v.size() % 2 == 1 ? v[mid] : 0.5 * (v[mid - 1] + v[mid]);
}

std::string fixed(double v, int digits) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
  return buf;
}

// --- one trial (child process) ---------------------------------------------
//
// A child prints its results to stdout, one per line: `KEY VALUE` for each
// output, and under --trace also `metric NAME VALUE UNIT`, `check TEXT`,
// `largest_layer NAME` and `span NAME PARENT TS_US DUR_US [ARG_KEY ARG]`.
// Numbers are written with sim::json_number, so they read back exactly.

config::ScenarioRun load_run(const Options& opt, const std::string& name) {
  config::RawScenario raw = config::load_scenario_file(
      std::string(JWINS_E2E_DIR "/workloads/") + name + ".scenario");
  if (opt.seed) config::set_value(raw, "seed", std::to_string(*opt.seed));
  config::set_value(raw, "threads", "1");
  if (opt.smoke) {
    config::set_value(raw, "rounds", kSmokeRounds);
    config::set_value(raw, "target_accuracy", "off");
  }
  std::vector<config::ScenarioRun> runs = config::expand_grid(raw);
  if (runs.size() != 1) {
    throw std::runtime_error("workload file must describe exactly one run");
  }
  return runs.front();
}

std::int64_t nanos(Clock::duration d) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/// VmHWM of this process: its peak resident set, in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // reported in kB
    }
  }
  throw std::runtime_error("VmHWM not found in /proc/self/status");
}

/// FNV-1a over the %.17g text of the metric series and traffic totals: a
/// result-schema change cannot move it, any changed number does.
std::string digest(const sim::ExperimentResult& r) {
  std::string text;
  const auto add = [&text](double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g;", v);
    text += buf;
  };
  add(static_cast<double>(r.rounds_run));
  for (const sim::MetricPoint& p : r.series) {
    add(static_cast<double>(p.round));
    for (const double v :
         {p.sim_seconds, p.sim_compute_seconds, p.sim_comm_seconds,
          p.test_accuracy, p.test_loss, p.train_loss, p.avg_bytes_per_node,
          p.avg_metadata_bytes_per_node}) {
      add(v);
    }
  }
  for (const double v : {r.sim_seconds, r.final_accuracy, r.final_loss,
                         r.mean_alpha}) {
    add(v);
  }
  for (const std::uint64_t v :
       {r.total_traffic.messages_sent, r.total_traffic.bytes_sent,
        r.total_traffic.payload_bytes_sent,
        r.total_traffic.metadata_bytes_sent}) {
    add(static_cast<double>(v));
  }
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : text) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  char hex[17];
  std::snprintf(hex, sizeof(hex), "%016" PRIx64, h);
  return hex;
}

void print(const std::string& key, double value) {
  std::cout << key << ' ' << json_number(value) << '\n';
}

void run_trial(const Options& opt, const std::string& name) {
  const config::ScenarioRun run = load_run(opt, name);
  e2e::Tracer tracer;
  const Clock::time_point t0 = Clock::now();
  const sim::Workload workload = config::make_run_workload(run);
  const Clock::time_point t1 = Clock::now();
  auto topology = config::make_run_topology(run);
  const Clock::time_point t2 = Clock::now();
  const sim::ExperimentConfig resolved = config::resolve_config(run, workload);
  sim::Experiment experiment(resolved, workload.model_factory,
                             *workload.train, workload.partition,
                             *workload.test, std::move(topology));
  const Clock::time_point t3 = Clock::now();
  const e2e::SetupSplit split{nanos(t1 - t0), nanos(t2 - t1), nanos(t3 - t2)};
  print("setup_s", static_cast<double>(split.total_ns()) * 1e-9);
  if (opt.setup_only) return;

  tracer.record("config.workload", "setup", t0, t1);
  tracer.record("graph.topology", "setup", t1, t2);
  tracer.record("sim.construct", "setup", t2, t3);
  const Clock::time_point start = Clock::now();
  const sim::ExperimentResult result = experiment.run();
  tracer.record("run", "trial", start, Clock::now());

  std::cout << "workload " << name << '\n';
  print("seed", static_cast<double>(run.config.seed));
  print("run_s", result.wall.total_seconds);
  print("round_ms", result.wall.total_seconds * 1e3 /
                        static_cast<double>(result.rounds_run));
  print("peak_rss_mib", peak_rss_mib());
  print("rounds_run", static_cast<double>(result.rounds_run));
  print("bytes_per_node_kib",
        static_cast<double>(result.total_traffic.bytes_sent) /
            static_cast<double>(run.nodes) / 1024.0);
  print("final_accuracy", result.final_accuracy);
  print("sim_s", result.sim_seconds);
  std::cout << "digest " << digest(result) << '\n';
  if (opt.trace_dir.empty()) return;

  const e2e::LayerReport report = e2e::trace_layers(
      {run, resolved, workload, experiment, result, split}, tracer);
  for (const e2e::LayerMetric& m : report.metrics) {
    std::cout << "metric " << m.name << ' ' << json_number(m.value) << ' '
              << m.unit << '\n';
  }
  for (const std::string& c : report.checks) std::cout << "check " << c << '\n';
  std::cout << "largest_layer " << report.largest_layer << '\n';
  for (const e2e::Span& s : tracer.spans()) {
    std::cout << "span " << s.name << ' ' << s.parent << ' '
              << json_number(s.ts_us) << ' ' << json_number(s.dur_us);
    if (!s.arg_key.empty()) {
      std::cout << ' ' << s.arg_key << ' ' << json_number(s.arg);
    }
    std::cout << '\n';
  }
}

int child_main(const Options& opt) {
  try {
    run_trial(opt, opt.child);
    std::cout.flush();
    return std::cout ? 0 : 1;
  } catch (const std::exception& e) {
    std::cerr << "error: " << opt.child << ": " << e.what() << "\n";
    return 1;
  }
}

// --- trial processes (parent) ----------------------------------------------

/// What a child printed, parsed.
struct TrialOutput {
  std::map<std::string, std::string> values;
  std::vector<e2e::LayerMetric> metrics;
  std::vector<std::string> checks;
  std::string largest_layer;
  std::vector<e2e::Span> spans;

  const std::string& at(const std::string& key) const {
    const auto it = values.find(key);
    if (it == values.end()) {
      throw std::runtime_error("trial output lacks " + key);
    }
    return it->second;
  }
  double number(const std::string& key) const { return std::stod(at(key)); }
};

TrialOutput parse_output(const std::string& text) {
  TrialOutput out;
  std::istringstream lines(text);
  for (std::string line; std::getline(lines, line);) {
    std::istringstream fields(line);
    std::string key;
    if (!(fields >> key)) continue;
    if (key == "metric") {
      e2e::LayerMetric m;
      fields >> m.name >> m.value >> m.unit;
      out.metrics.push_back(std::move(m));
    } else if (key == "check") {
      std::getline(fields >> std::ws, out.checks.emplace_back());
    } else if (key == "span") {
      e2e::Span s;
      fields >> s.name >> s.parent >> s.ts_us >> s.dur_us;
      if (!fields || (fields >> s.arg_key && !(fields >> s.arg))) {
        throw std::runtime_error("unreadable line: " + line);
      }
      out.spans.push_back(std::move(s));
      continue;
    } else if (key == "largest_layer") {
      fields >> out.largest_layer;
    } else {
      fields >> out.values[key];
    }
    if (!fields) throw std::runtime_error("unreadable line: " + line);
  }
  return out;
}

struct Trial {
  bool ok = false;
  TrialOutput out;
  std::vector<double> setups;  ///< s: the trial's own setup, then the probes'
  std::string error;
  double host_s = 0.0;
};

std::string self_exe() {
  std::error_code ec;
  const auto path = std::filesystem::read_symlink("/proc/self/exe", ec);
  if (ec) throw std::runtime_error("cannot resolve /proc/self/exe");
  return path.string();
}

/// Runs a child process with `args` and returns what it printed; `error` is
/// set when it did not exit with status 0. Its stderr passes through.
std::string run_child(std::vector<std::string> args, std::string& error) {
  args.insert(args.begin(), self_exe());
  std::vector<char*> argv;
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  int fds[2];
  if (pipe(fds) != 0) throw std::runtime_error("pipe failed");
  std::cout.flush();
  const pid_t pid = fork();
  if (pid < 0) throw std::runtime_error("fork failed");
  if (pid == 0) {
    dup2(fds[1], STDOUT_FILENO);
    close(fds[0]);
    close(fds[1]);
    execv(argv[0], argv.data());
    _exit(127);
  }
  close(fds[1]);
  std::string output;
  char buf[65536];
  for (;;) {
    const ssize_t got = read(fds[0], buf, sizeof(buf));
    if (got > 0) {
      output.append(buf, static_cast<std::size_t>(got));
    } else if (got == 0 || errno != EINTR) {
      break;
    }
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    error = WIFEXITED(status)
                ? "exited with status " + std::to_string(WEXITSTATUS(status))
                : "killed by signal " + std::to_string(WTERMSIG(status));
  }
  return output;
}

/// One trial of `workload` in a fresh process, followed (untraced) by
/// kSetupProbes setup-only processes.
Trial spawn_trial(const Options& opt, const std::string& workload) {
  std::vector<std::string> args = {"--child=" + workload};
  if (opt.seed) args.push_back("--seed=" + std::to_string(*opt.seed));
  if (opt.smoke) args.push_back("--smoke");
  if (!opt.trace_dir.empty()) args.push_back("--trace=" + opt.trace_dir);

  Trial trial;
  const Clock::time_point start = Clock::now();
  try {
    const std::size_t runs = 1 + (opt.trace_dir.empty() ? kSetupProbes : 0);
    for (std::size_t r = 0; r < runs && trial.error.empty(); ++r) {
      if (r == 1) args.push_back("--setup-only");
      const std::string text = run_child(args, trial.error);
      if (!trial.error.empty()) break;
      const TrialOutput out = parse_output(text);
      trial.setups.push_back(out.number("setup_s"));
      if (r == 0) trial.out = out;
    }
  } catch (const std::exception& e) {
    trial.error = std::string("unreadable trial output: ") + e.what();
  }
  trial.host_s = std::chrono::duration<double>(Clock::now() - start).count();
  trial.ok = trial.error.empty();
  return trial;
}

/// expected.txt: one line per (workload, seed) with the kPinnedOutputs
/// columns, as the children print them.
using Pins =
    std::map<std::pair<std::string, std::uint64_t>, std::vector<std::string>>;

constexpr const char* kPinsPath = JWINS_E2E_DIR "/expected.txt";

Pins load_pins() {
  Pins pins;
  std::ifstream in(kPinsPath);
  for (std::string line; std::getline(in, line);) {
    if (line.empty() || line.front() == '#') continue;
    std::istringstream fields(line);
    std::string workload;
    std::uint64_t seed = 0;
    std::vector<std::string> outputs(kPinnedOutputs.size());
    fields >> workload >> seed;
    for (std::string& v : outputs) fields >> v;
    if (!fields) throw std::runtime_error("bad line in expected.txt: " + line);
    pins[{workload, seed}] = std::move(outputs);
  }
  return pins;
}

std::vector<std::string> outputs_of(const TrialOutput& out) {
  std::vector<std::string> v;
  for (const std::string& key : kPinnedOutputs) v.push_back(out.at(key));
  return v;
}

std::uint64_t seed_of(const TrialOutput& out) {
  return static_cast<std::uint64_t>(out.number("seed"));
}

/// Checks one workload's trials: each must have exited cleanly and
/// reproduce the pinned outputs for its seed (or, with none pinned, the
/// first successful trial). Returns the reference outputs (empty when no
/// trial succeeded); failures are marked on the trials.
std::vector<std::string> check_outputs(const Options& opt, const Pins& pins,
                                       const std::string& workload,
                                       std::vector<Trial>& trials,
                                       bool& pinned) {
  std::vector<std::string> reference;
  pinned = false;
  for (Trial& t : trials) {
    if (!t.ok) continue;
    const std::vector<std::string> got = outputs_of(t.out);
    if (reference.empty()) {
      const auto want = pins.find({workload, seed_of(t.out)});
      pinned = want != pins.end() && !opt.smoke && !opt.pin;
      reference = pinned ? want->second : got;
    }
    for (std::size_t k = 0; k < got.size(); ++k) {
      if (got[k] == reference[k]) continue;
      t.ok = false;
      t.error = (pinned ? "pinned output mismatch: " : "trials disagree: ") +
                kPinnedOutputs[k] + " " + got[k] + " != " + reference[k];
      break;
    }
  }
  return reference;
}

struct Summary {
  double median = 0.0, min = 0.0, max = 0.0;
  std::size_t n = 0;
};

Summary summarize(const std::vector<double>& v) {
  Summary s;
  if (v.empty()) return s;
  s.median = median(v);
  s.min = *std::min_element(v.begin(), v.end());
  s.max = *std::max_element(v.begin(), v.end());
  s.n = v.size();
  return s;
}

bool unstable(const MetricSpec& spec, const Summary& s) {
  const double spread = s.max - s.min;
  if (spec.bound == 0.0) return spread != 0.0;
  return spread > spec.bound * std::abs(s.median);
}

std::string json_list(const std::vector<std::string>& items) {
  std::string out = "[";
  for (std::size_t i = 0; i < items.size(); ++i) {
    out += (i ? ", " : "") + json_string(items[i]);
  }
  return out + "]";
}

/// Aggregates and prints one workload's trials; returns its entry of the
/// --json report and adds its failed trials to `failed`.
std::string report_workload(const Options& opt, const Pins& pins,
                            const std::string& name,
                            std::vector<Trial>& trials, std::size_t& failed,
                            std::vector<std::string>& outputs) {
  bool pinned = false;
  outputs = check_outputs(opt, pins, name, trials, pinned);
  std::vector<std::string> errors;
  for (const Trial& t : trials) {
    if (!t.ok) errors.push_back(t.error);
  }
  failed += errors.size();

  std::cout << "workload " << name << ": " << trials.size() << " trials, "
            << errors.size() << " failed"
            << (pinned ? ", outputs checked against the pinned values"
                       : ", no pinned values for this seed")
            << "\n";
  std::string metrics;
  std::vector<std::string> flagged;
  for (const MetricSpec& spec : kMetrics) {
    const std::string key = spec.name;
    std::vector<double> values;
    for (const Trial& t : trials) {
      if (!t.ok) continue;
      if (key == "setup_s") {
        values.insert(values.end(), t.setups.begin(), t.setups.end());
      } else {
        values.push_back(t.out.number(key));
      }
    }
    const Summary s = summarize(values);
    const bool shaky = s.n > 1 && unstable(spec, s);
    if (shaky) flagged.push_back(key);
    metrics += json_string(key) + ": {\"median\": " + json_number(s.median) +
               ", \"min\": " + json_number(s.min) +
               ", \"max\": " + json_number(s.max) +
               ", \"n\": " + std::to_string(s.n) +
               ", \"unit\": " + json_string(spec.unit) +
               ", \"better\": " + json_string(spec.better) +
               ", \"bound\": " + json_number(spec.bound) + "}, ";
    std::printf("  %-20s %14s %-8s [%s, %s] n=%zu%s\n", spec.name,
                fixed(s.median, 4).c_str(), spec.unit, fixed(s.min, 4).c_str(),
                fixed(s.max, 4).c_str(), s.n, shaky ? "  unstable" : "");
  }
  metrics += "\"failed_trials\": {\"value\": " + std::to_string(errors.size()) +
             ", \"attempted\": " + std::to_string(trials.size()) +
             ", \"unit\": \"count\", \"better\": \"lower\", \"bound\": 0}";
  std::printf("  %-20s %14zu %-8s of %zu\n", "failed_trials", errors.size(),
              "count", trials.size());
  for (const std::string& e : errors) std::cout << "  failed: " << e << "\n";
  std::cout.flush();

  std::string pinned_outputs;
  for (std::size_t k = 0; k < outputs.size(); ++k) {
    const bool text = kPinnedOutputs[k] == "digest";
    pinned_outputs += (k ? ", " : "") + json_string(kPinnedOutputs[k]) + ": " +
                      (text ? json_string(outputs[k]) : outputs[k]);
  }
  const Trial* first = trials.empty() ? nullptr : &trials.front();
  return "{\"seed\": " +
         (first && first->ok ? first->out.at("seed") : std::string("null")) +
         ", \"trials\": " + std::to_string(trials.size()) +
         ", \"failed_trials\": " + std::to_string(errors.size()) +
         ", \"pinned\": " + (pinned ? "true" : "false") +
         ", \"unstable\": " + json_list(flagged) +
         ", \"errors\": " + json_list(errors) + ", \"metrics\": {" + metrics +
         "}, \"outputs\": {" + pinned_outputs + "}}";
}

void write_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  std::ofstream out(p);
  out << text;
  if (!out) throw std::runtime_error("cannot write " + path);
}

void write_pins(const Pins& pins) {
  std::string text = "# workload seed";
  for (const std::string& key : kPinnedOutputs) text += " " + key;
  text += "\n";
  for (const auto& [key, outputs] : pins) {
    text += key.first + " " + std::to_string(key.second);
    for (const std::string& v : outputs) text += " " + v;
    text += "\n";
  }
  write_file(kPinsPath, text);
}

int run_trials(const Options& opt) {
  Pins pins = load_pins();
  std::map<std::string, std::vector<Trial>> trials;
  const Clock::time_point start = Clock::now();
  // Round-robin: one trial of every workload per pass.
  for (std::size_t pass = 0;; ++pass) {
    if (opt.seconds > 0.0) {
      if (pass >= kMaxBudgetTrials) break;
      if (pass >= kMinBudgetTrials) {
        double per_pass = 0.0;
        for (const std::string& w : opt.workloads) {
          std::vector<double> host;
          for (const Trial& t : trials[w]) host.push_back(t.host_s);
          per_pass += median(host);
        }
        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (elapsed + per_pass > opt.seconds) break;
      }
    } else if (pass >= opt.trials) {
      break;
    }
    for (const std::string& w : opt.workloads) {
      trials[w].push_back(spawn_trial(opt, w));
    }
  }

  std::string entries;
  std::size_t failed = 0;
  for (const std::string& w : opt.workloads) {
    std::vector<std::string> outputs;
    const std::size_t before = failed;
    entries += (entries.empty() ? "" : ", ") + json_string(w) + ": " +
               report_workload(opt, pins, w, trials[w], failed, outputs);
    if (opt.pin && failed == before && !outputs.empty()) {
      pins[{w, seed_of(trials[w].front().out)}] = outputs;
    }
  }
  if (!opt.json_path.empty()) {
    write_file(opt.json_path,
               "{\"schema\": \"jwins.bench_e2e/2\", \"threads\": 1, "
               "\"smoke\": " +
                   std::string(opt.smoke ? "true" : "false") +
                   ", \"setup_probes\": " + std::to_string(kSetupProbes) +
                   ", \"workloads\": {" + entries + "}}\n");
  }
  if (opt.pin) write_pins(pins);
  return failed == 0 ? 0 : 1;
}

// --- traced runs -------------------------------------------------------------

int run_traces(const Options& opt) {
  const Pins pins = load_pins();
  std::string events;
  std::string layers;
  std::size_t failed = 0;
  std::vector<std::string> violations;
  int pid = 0;
  for (const std::string& w : opt.workloads) {
    ++pid;
    // The replay is held against the run's own phase times, measured seconds
    // earlier; a slow spell of the host in between is retried in a fresh
    // trial rather than reported as a broken split.
    std::vector<Trial> trials;
    bool pinned = false;
    std::size_t attempts = 0;
    while (attempts < kTraceAttempts) {
      ++attempts;
      trials = {spawn_trial(opt, w)};
      check_outputs(opt, pins, w, trials, pinned);
      if (!trials.front().ok || trials.front().out.checks.empty()) break;
      for (const std::string& c : trials.front().out.checks) {
        std::cout << "workload " << w << ": attempt " << attempts
                  << " did not reconcile: " << c << "\n";
      }
    }
    const Trial& t = trials.front();
    std::string entry = "{\"ok\": " + std::string(t.ok ? "true" : "false") +
                        ", \"attempts\": " + std::to_string(attempts);
    layers += (layers.empty() ? "" : ", ") + json_string(w) + ": " + entry;
    if (!t.ok) {
      ++failed;
      std::cout << "workload " << w << ": traced trial failed: " << t.error
                << "\n";
      layers += ", \"error\": " + json_string(t.error) + "}";
      continue;
    }
    const TrialOutput& out = t.out;
    events += std::string(events.empty() ? "" : ",\n") +
              "{\"name\": \"process_name\", \"ph\": \"M\", \"pid\": " +
              std::to_string(pid) + ", \"args\": {\"name\": " +
              json_string(w) + "}}";
    for (const e2e::Span& s : out.spans) {
      events += ",\n{\"name\": " + json_string(s.name) +
                ", \"ph\": \"X\", \"ts\": " + json_number(s.ts_us) +
                ", \"dur\": " + json_number(s.dur_us) +
                ", \"pid\": " + std::to_string(pid) +
                ", \"tid\": 1, \"args\": {\"parent\": " +
                json_string(s.parent);
      if (!s.arg_key.empty()) {
        events += ", " + json_string(s.arg_key) + ": " + json_number(s.arg);
      }
      events += "}}";
    }
    std::cout << "workload " << w << " (traced, seed " << out.at("seed")
              << ", attempt " << attempts << "): largest layer "
              << out.largest_layer << "\n";
    std::string metrics;
    for (const e2e::LayerMetric& m : out.metrics) {
      std::printf("  %-28s %14s %s\n", m.name.c_str(),
                  fixed(m.value, 4).c_str(), m.unit.c_str());
      metrics += std::string(metrics.empty() ? "" : ", ") +
                 json_string(m.name) + ": {\"value\": " + json_number(m.value) +
                 ", \"unit\": " + json_string(m.unit) + "}";
    }
    for (const std::string& c : out.checks) violations.push_back(w + ": " + c);
    layers += ", \"seed\": " + out.at("seed") +
              ", \"pinned\": " + (pinned ? "true" : "false") +
              ", \"largest_layer\": " + json_string(out.largest_layer) +
              ", \"checks\": " + json_list(out.checks) + ", \"metrics\": {" +
              metrics + "}}";
  }
  write_file(opt.trace_dir + "/trace.json",
             "{\"traceEvents\": [\n" + events +
                 "\n], \"displayTimeUnit\": \"ms\"}\n");
  write_file(opt.trace_dir + "/layers.json",
             "{\"schema\": \"jwins.bench_e2e.layers/2\", \"threads\": 1, "
             "\"workloads\": {" +
                 layers + "}}\n");
  for (const std::string& v : violations) {
    std::cout << "reconciliation failed: " << v << "\n";
  }
  if (failed > 0) return 1;
  return violations.empty() ? 0 : 3;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_options(argc, argv);
  if (!opt.child.empty()) return child_main(opt);
  try {
    return opt.trace_dir.empty() ? run_trials(opt) : run_traces(opt);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
}
