#include "config/scenario.hpp"

#include <charconv>
#include <cmath>
#include <fstream>
#include <functional>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <tuple>

#include "core/cutoff.hpp"

namespace jwins::config {

namespace {

[[noreturn]] void fail(const std::string& key, const std::string& why) {
  throw ScenarioError(key + ": " + why);
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t' || s.back() == '\r'))
    s.remove_suffix(1);
  return s;
}

/// Strict full-string numeric parse: rejects sign-wrapped negatives,
/// trailing garbage, and empty strings (same contract as bench_util.hpp).
template <typename T>
bool parse_full(std::string_view text, T& out) {
  const char* const end = text.data() + text.size();
  const auto [parsed_end, ec] = std::from_chars(text.data(), end, out);
  return ec == std::errc{} && parsed_end == end;
}

std::uint64_t parse_u64(const std::string& key, const std::string& value) {
  std::uint64_t out = 0;
  if (!parse_full(std::string_view(value), out)) {
    fail(key, "\"" + value + "\" is not an unsigned integer");
  }
  return out;
}

/// parse_u64 bounded to the width of T, so a value wider than the field is
/// rejected instead of wrapping.
template <typename T = std::size_t>
T parse_uint(const std::string& key, const std::string& value) {
  const std::uint64_t out = parse_u64(key, value);
  if (out > std::numeric_limits<T>::max()) {
    fail(key, "must be <= " + std::to_string(std::numeric_limits<T>::max()) +
                  " (got " + value + ")");
  }
  return static_cast<T>(out);
}

double parse_double(const std::string& key, const std::string& value) {
  double out = 0.0;
  if (!parse_full(std::string_view(value), out) || !std::isfinite(out)) {
    fail(key, "\"" + value + "\" is not a finite number");
  }
  return out;
}

/// A finite number filling all of `text` (one field of a colon grammar);
/// anything else fails as "<key>: <what> (got "<text>")".
double parse_field(const std::string& key, std::string_view text,
                   const std::string& what) {
  double v = 0.0;
  if (!parse_full(text, v) || !std::isfinite(v)) {
    fail(key, what + " (got \"" + std::string(text) + "\")");
  }
  return v;
}

bool parse_bool(const std::string& key, const std::string& value) {
  if (value == "true" || value == "on" || value == "1") return true;
  if (value == "false" || value == "off" || value == "0") return false;
  fail(key, "\"" + value + "\" is not a bool (true/false/on/off/1/0)");
}

void expect_enum(const std::string& key, const std::string& value,
                 std::initializer_list<const char*> allowed) {
  for (const char* a : allowed) {
    if (value == a) return;
  }
  std::string list;
  for (const char* a : allowed) {
    if (!list.empty()) list += ", ";
    list += a;
  }
  fail(key, "unknown value \"" + value + "\" (valid: " + list + ")");
}

sim::Algorithm parse_algorithm(const std::string& key,
                               const std::string& value) {
  if (value == "full-sharing") return sim::Algorithm::kFullSharing;
  if (value == "random-sampling") return sim::Algorithm::kRandomSampling;
  if (value == "jwins") return sim::Algorithm::kJwins;
  if (value == "choco") return sim::Algorithm::kChoco;
  if (value == "power-gossip") return sim::Algorithm::kPowerGossip;
  expect_enum(key, value,
              {"full-sharing", "random-sampling", "jwins", "choco",
               "power-gossip"});
  return sim::Algorithm::kJwins;  // unreachable
}

/// Cutoff spec grammar (colon-separated so sweep commas stay unambiguous):
///   paper                       uniform over {10,15,20,25,30,40,100}%
///   fixed:<alpha>               degenerate distribution (the ablation arm)
///   two-point:<alpha_low>:<p_full>   budget distribution (paper §IV-D)
core::RandomizedCutoff parse_cutoff(const std::string& key,
                                    const std::string& value) {
  if (value == "paper") return core::RandomizedCutoff::paper_default();
  const auto number = [&](std::string_view text, const char* what) {
    double v = 0.0;
    if (!parse_full(text, v)) {
      fail(key, std::string(what) + " must be a number (got \"" +
                    std::string(text) + "\")");
    }
    return v;
  };
  // The distribution's own constructors own the range rules; their
  // invalid_argument becomes this key's diagnostic.
  const auto build = [&](auto make) {
    try {
      return make();
    } catch (const std::invalid_argument& e) {
      fail(key, e.what());
    }
  };
  const std::string_view sv = value;
  if (sv.rfind("fixed:", 0) == 0) {
    const double alpha = number(sv.substr(6), "fixed:<alpha> alpha");
    return build([&] { return core::RandomizedCutoff::fixed(alpha); });
  }
  if (sv.rfind("two-point:", 0) == 0) {
    const std::string_view rest = sv.substr(10);
    const auto colon = rest.find(':');
    if (colon == std::string_view::npos) {
      fail(key, "two-point needs two fields: two-point:<alpha_low>:<p_full>");
    }
    const double alpha_low = number(rest.substr(0, colon), "alpha_low");
    const double p_full = number(rest.substr(colon + 1), "p_full");
    return build([&] {
      return core::RandomizedCutoff::two_point(alpha_low, p_full);
    });
  }
  fail(key, "unknown cutoff \"" + value +
                "\" (valid: paper, fixed:<alpha>, two-point:<alpha_low>:<p_full>)");
}

/// Link-parameter distribution grammar (colon-separated, like the cutoff
/// spec, so sweep commas stay unambiguous):
///   fixed                         every edge uses the flat knob
///   uniform:<lo>:<hi>             per-edge value uniform in [lo, hi]
///   lognormal:<median>:<sigma>    median * exp(sigma * N(0,1)) per edge
/// Values are in display units (Mbit/s for bandwidth, ms for latency);
/// `unit_scale` converts to engine units (bytes/sec, seconds). The ranges
/// are net::TimeModelConfig::validate()'s.
net::LinkDist parse_link_dist(const std::string& key, const std::string& value,
                              double unit_scale) {
  net::LinkDist dist;
  if (value == "fixed") return dist;
  const auto field = [&](std::string_view text, const char* what) {
    return parse_field(key, text,
                       std::string(what) + " must be a non-negative number");
  };
  const auto two_fields = [&](std::string_view rest, const char* a_name,
                              const char* b_name) {
    const auto colon = rest.find(':');
    if (colon == std::string_view::npos) {
      fail(key, std::string("needs two fields: <") + a_name + ">:<" + b_name +
                    ">");
    }
    return std::pair<double, double>{field(rest.substr(0, colon), a_name),
                                     field(rest.substr(colon + 1), b_name)};
  };
  const std::string_view sv = value;
  if (sv.rfind("uniform:", 0) == 0) {
    dist.kind = net::LinkDist::Kind::kUniform;
    std::tie(dist.a, dist.b) = two_fields(sv.substr(8), "lo", "hi");
    dist.a *= unit_scale;
    dist.b *= unit_scale;
    return dist;
  }
  if (sv.rfind("lognormal:", 0) == 0) {
    dist.kind = net::LinkDist::Kind::kLognormal;
    std::tie(dist.a, dist.b) = two_fields(sv.substr(10), "median", "sigma");
    dist.a *= unit_scale;
    return dist;
  }
  fail(key, "unknown distribution \"" + value +
                "\" (valid: fixed, uniform:<lo>:<hi>, "
                "lognormal:<median>:<sigma>)");
}

/// Per-edge drop grammar: off | fixed:<p> | uniform:<lo>:<hi>, p in [0, 1)
/// (net::TimeModelConfig::validate() checks the range).
net::EdgeDropDist parse_edge_drop(const std::string& key,
                                  const std::string& value) {
  net::EdgeDropDist dist;
  if (value == "off") return dist;
  const auto prob = [&](std::string_view text, const char* what) {
    return parse_field(key, text,
                       std::string(what) + " must be a probability in [0, 1)");
  };
  const std::string_view sv = value;
  if (sv.rfind("fixed:", 0) == 0) {
    dist.kind = net::EdgeDropDist::Kind::kFixed;
    dist.a = prob(sv.substr(6), "fixed:<p> p");
    return dist;
  }
  if (sv.rfind("uniform:", 0) == 0) {
    const std::string_view rest = sv.substr(8);
    const auto colon = rest.find(':');
    if (colon == std::string_view::npos) {
      fail(key, "uniform needs two fields: uniform:<lo>:<hi>");
    }
    dist.kind = net::EdgeDropDist::Kind::kUniform;
    dist.a = prob(rest.substr(0, colon), "lo");
    dist.b = prob(rest.substr(colon + 1), "hi");
    return dist;
  }
  fail(key, "unknown drop spec \"" + value +
                "\" (valid: off, fixed:<p>, uniform:<lo>:<hi>)");
}

/// Byzantine attack-mode grammar (colon-separated like the cutoff spec):
///   random        replace wire values with seeded uniform [-1, 1) noise
///   sign_flip     negate every wire value
///   scale:<k>     multiply every wire value by k (finite)
/// Writes both the mode and the scale multiplier into `config`.
void parse_byzantine_mode(const std::string& key, const std::string& value,
                          sim::ExperimentConfig& config) {
  if (value == "random") {
    config.byzantine_mode = algo::ByzantineMode::kRandom;
    return;
  }
  if (value == "sign_flip") {
    config.byzantine_mode = algo::ByzantineMode::kSignFlip;
    return;
  }
  const std::string_view sv = value;
  if (sv.rfind("scale:", 0) == 0) {
    config.byzantine_mode = algo::ByzantineMode::kScale;
    config.byzantine_scale = parse_field(
        key, sv.substr(6), "scale:<k> multiplier must be a finite number");
    return;
  }
  fail(key, "unknown attack mode \"" + value +
                "\" (valid: random, sign_flip, scale:<k>)");
}

/// Robust-aggregation grammar (sim::ExperimentConfig::validate() checks
/// the ranges of f and c):
///   none                 plain partial averaging (the exact legacy path)
///   trimmed_mean:<f>     trim fraction f in [0, 0.5) from each end
///   median               coordinate-wise unweighted median
///   norm_clip:<c>        clip each contribution's L2 deviation to c > 0
core::RobustAggConfig parse_robust_agg(const std::string& key,
                                       const std::string& value) {
  core::RobustAggConfig config;
  if (value == "none") return config;
  if (value == "median") {
    config.kind = core::RobustAggKind::kMedian;
    return config;
  }
  const std::string_view sv = value;
  if (sv.rfind("trimmed_mean:", 0) == 0) {
    config.kind = core::RobustAggKind::kTrimmedMean;
    config.trim_fraction = parse_field(
        key, sv.substr(13),
        "trimmed_mean:<f> trim fraction must be a number in [0, 0.5)");
    return config;
  }
  if (sv.rfind("norm_clip:", 0) == 0) {
    config.kind = core::RobustAggKind::kNormClip;
    config.clip_norm = parse_field(
        key, sv.substr(10), "norm_clip:<c> clip norm must be a finite number");
    return config;
  }
  fail(key, "unknown robust rule \"" + value +
                "\" (valid: none, trimmed_mean:<f>, median, norm_clip:<c>)");
}

core::IndexEncoding parse_index_encoding(const std::string& key,
                                         const std::string& value) {
  if (value == "elias-gamma") return core::IndexEncoding::kEliasGamma;
  if (value == "raw") return core::IndexEncoding::kRaw;
  expect_enum(key, value, {"elias-gamma", "raw"});
  return core::IndexEncoding::kEliasGamma;  // unreachable
}

core::ValueEncoding parse_value_encoding(const std::string& key,
                                         const std::string& value) {
  if (value == "xor") return core::ValueEncoding::kXorCodec;
  if (value == "raw") return core::ValueEncoding::kRaw;
  expect_enum(key, value, {"xor", "raw"});
  return core::ValueEncoding::kXorCodec;  // unreachable
}

/// Splits a value into its comma-separated sweep list. `where` names the
/// error site ("line N" in a file, the key itself for --set overrides).
std::vector<std::string> split_sweep(const std::string& where,
                                     const std::string& key,
                                     std::string_view text) {
  std::vector<std::string> values;
  while (true) {
    const std::size_t comma = text.find(',');
    const std::string_view piece =
        trim(comma == std::string_view::npos ? text : text.substr(0, comma));
    if (piece.empty()) {
      fail(where, "empty value in \"" + key + "\" (sweep lists are "
                  "comma-separated, no trailing commas)");
    }
    values.emplace_back(piece);
    if (comma == std::string_view::npos) break;
    text = text.substr(comma + 1);
  }
  return values;
}

struct KeySpec {
  KeyInfo info;
  std::function<void(ScenarioRun&, const std::string&)> apply;
};

const std::vector<KeySpec>& key_specs() {
  static const std::vector<KeySpec> specs = [] {
    std::vector<KeySpec> s;
    auto add = [&s](KeyInfo info,
                    std::function<void(ScenarioRun&, const std::string&)> fn) {
      s.push_back({info, std::move(fn)});
    };

    // --- experiment grid -------------------------------------------------
    add({"workload", "enum", "cifar",
         "cifar, cifar4, movielens, shakespeare, celeba, femnist, scale",
         "Paper dataset stand-in (cifar4 = the 4-shards-per-node split of "
         "the scalability study; scale = the fixed-pool tiny-model workload "
         "for 100k-1M-node runs)"},
        [](ScenarioRun& r, const std::string& v) {
          expect_enum("workload", v,
                      {"cifar", "cifar4", "movielens", "shakespeare", "celeba",
                       "femnist", "scale"});
          r.workload = v;
        });
    add({"nodes", "uint", "16", ">= 2", "Number of simulated nodes"},
        [](ScenarioRun& r, const std::string& v) {
          r.nodes = parse_uint("nodes", v);
          if (r.nodes < 2) fail("nodes", "must be >= 2 (got " + v + ")");
        });
    add({"scale", "float", "1.0", "(0, 1e9]",
         "Dataset size multiplier (1.0 = bench-sized; paper-scale runs use "
         "more)"},
        [](ScenarioRun& r, const std::string& v) {
          r.scale = parse_double("scale", v);
          if (r.scale <= 0.0 || r.scale > 1e9) {
            fail("scale", "must be in (0, 1e9]");
          }
        });
    add({"algorithm", "enum", "jwins",
         "full-sharing, random-sampling, jwins, choco, power-gossip",
         "Decentralized learning algorithm"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.algorithm = parse_algorithm("algorithm", v);
        });
    add({"seed", "uint", "1", "any",
         "Master seed: data, model init, topology, cut-off draws"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.seed = parse_u64("seed", v);
        });

    // --- topology --------------------------------------------------------
    add({"topology", "enum", "regular", "regular, ring, torus, full",
         "Communication graph: random k-regular (the paper's test bed), "
         "ring lattice, 2-D torus, or fully connected"},
        [](ScenarioRun& r, const std::string& v) {
          expect_enum("topology", v, {"regular", "ring", "torus", "full"});
          r.topology = v;
        });
    add({"topology_degree", "uint", "0 (auto)",
         "0 = paper schedule (3 below 16 nodes, 4 at 16-191, 5 at 192-383, "
         "6 at 384+; ring: 2); ring needs an even degree",
         "Node degree; ignored for torus (always 4) and full"},
        [](ScenarioRun& r, const std::string& v) {
          r.topology_degree = parse_uint("topology_degree", v);
        });
    add({"churn_every", "uint", "0 (static)", "requires topology = regular",
         "Churn schedule: re-randomize neighbors every N rounds (1 = every "
         "round, the Figure 7 dynamic setting)"},
        [](ScenarioRun& r, const std::string& v) {
          r.churn_every = parse_uint("churn_every", v);
        });

    // --- round loop ------------------------------------------------------
    add({"rounds", "uint", "100", ">= 1",
         "Communication rounds (the cap when target_accuracy is set)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.rounds = parse_uint("rounds", v);
        });
    add({"target_accuracy", "float", "off", "off, or (0, 1]",
         "Stop once mean test accuracy reaches this fraction (the Figure 5/6 "
         "protocol)"},
        [](ScenarioRun& r, const std::string& v) {
          if (v == "off") {
            r.config.target_accuracy = -1.0;
          } else {
            // The grammar: a positive value, as "off" holds the negative
            // sentinel. The upper bound is ExperimentConfig::validate()'s.
            r.config.target_accuracy = parse_double("target_accuracy", v);
            if (r.config.target_accuracy <= 0.0) {
              fail("target_accuracy", "must be in (0, 1] (off disables it)");
            }
          }
        });
    add({"local_steps", "uint", "auto", "auto, or >= 1",
         "Local SGD steps per round (tau); auto = the workload's suggestion"},
        [](ScenarioRun& r, const std::string& v) {
          if (v == "auto") {
            r.auto_local_steps = true;
          } else {
            r.config.local_steps = parse_uint("local_steps", v);
            r.auto_local_steps = false;
          }
        });
    add({"learning_rate", "float", "auto", "auto, or (0, 1e3]",
         "Constant step size of plain SGD; auto = the workload's grid-searched "
         "suggestion"},
        [](ScenarioRun& r, const std::string& v) {
          if (v == "auto") {
            r.auto_learning_rate = true;
          } else {
            r.config.sgd.learning_rate =
                static_cast<float>(parse_double("learning_rate", v));
            r.auto_learning_rate = false;
          }
        });

    // --- evaluation ------------------------------------------------------
    add({"eval_every", "uint", "10", ">= 1", "Evaluate every N rounds"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.eval_every = parse_uint("eval_every", v);
        });
    add({"eval_sample_limit", "uint", "512", ">= 1",
         "Test-set subsample per evaluation"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.eval_sample_limit = parse_uint("eval_sample_limit", v);
        });
    add({"eval_node_limit", "uint", "0 (all)", "any",
         "Evaluate only the first N nodes (0 = every node)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.eval_node_limit = parse_uint("eval_node_limit", v);
        });
    add({"eval_sample", "uint", "0 (all)", "0, or < nodes",
         "Sampled evaluation: reduce every evaluation (test metrics, mean "
         "train loss, JWINS alpha) over a seeded per-round subset of N nodes "
         "instead of all of them — the O(n)-per-eval fix for 100k-1M-node "
         "runs. 0 or >= nodes = full reduce; mutually exclusive with "
         "eval_node_limit"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.eval_sample = parse_uint("eval_sample", v);
        });

    // --- execution -------------------------------------------------------
    add({"threads", "uint", "0 (auto)", "<= 1024 (0 = all hardware threads)",
         "Execution lanes; results are bit-identical at any value"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.threads = parse_uint<unsigned>("threads", v);
        });
    add({"node_state", "enum", "full", "full, compact",
         "Per-node state layout: full = one model/optimizer/sampler object "
         "per node (the reference layout), compact = shared base weights + "
         "per-node copy-on-write deltas driven by per-lane workers — the "
         "100k-1M-node memory diet. compact requires engine = sync, "
         "batch_sampler = counter, algorithm = random-sampling or "
         "full-sharing, and no byzantine/robust_agg; results are "
         "byte-identical to full under the same config"},
        [](ScenarioRun& r, const std::string& v) {
          expect_enum("node_state", v, {"full", "compact"});
          r.config.node_state = v == "compact" ? sim::NodeState::kCompact
                                               : sim::NodeState::kFull;
        });
    add({"batch_sampler", "enum", "shuffle", "shuffle, counter",
         "Mini-batch sampling discipline: shuffle = per-epoch reshuffle of "
         "the node's shard (the legacy stateful stream), counter = "
         "counter-keyed draws with replacement, a pure function of (node "
         "stream, step) — seekable, hence required by node_state = compact"},
        [](ScenarioRun& r, const std::string& v) {
          expect_enum("batch_sampler", v, {"shuffle", "counter"});
          r.config.batch_sampler = v == "counter"
                                       ? sim::BatchSampler::kCounter
                                       : sim::BatchSampler::kShuffle;
        });
    add({"compute_seconds_per_round", "float", "0.05", ">= 0",
         "Simulated compute cost per round (identical across algorithms)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.compute_seconds_per_round =
              parse_double("compute_seconds_per_round", v);
        });
    add({"bandwidth_mbit", "float", "100", "(0, 1e9]",
         "Link bandwidth in Mbit/s (the simulated-time model)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.link.bandwidth_bytes_per_sec =
              parse_double("bandwidth_mbit", v) * 1e6 / 8.0;
        });
    add({"latency_ms", "float", "2", ">= 0", "Link latency in milliseconds"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.link.latency_sec = parse_double("latency_ms", v) / 1000.0;
        });

    // --- simulated time & faults (net/time_model.hpp) --------------------
    add({"bandwidth_dist", "string", "fixed",
         "fixed, uniform:<lo>:<hi>, lognormal:<median>:<sigma> (Mbit/s)",
         "Per-edge bandwidth distribution; any value but fixed switches the "
         "clock to the critical-path engine (docs/SIMULATION.md)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.bandwidth_dist =
              parse_link_dist("bandwidth_dist", v, 1e6 / 8.0);
        });
    add({"latency_dist", "string", "fixed",
         "fixed, uniform:<lo>:<hi>, lognormal:<median>:<sigma> (ms)",
         "Per-edge latency distribution (same grammar as bandwidth_dist)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.latency_dist = parse_link_dist("latency_dist", v, 1e-3);
        });
    add({"straggler_fraction", "float", "0", "[0, 1)",
         "Probability each node is a compute straggler (seeded per-node "
         "decision); takes effect with straggler_slowdown > 1"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.straggler_fraction =
              parse_double("straggler_fraction", v);
        });
    add({"straggler_slowdown", "float", "1", ">= 1",
         "Compute-time multiplier applied to straggler nodes"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.straggler_slowdown =
              parse_double("straggler_slowdown", v);
        });
    add({"edge_drop", "string", "off",
         "off, fixed:<p>, uniform:<lo>:<hi> with probabilities in [0, 1)",
         "Per-edge message-drop probability (drawn once per edge for "
         "uniform); every message draws its own drop decision"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.edge_drop = parse_edge_drop("edge_drop", v);
        });
    add({"crash_nodes", "uint", "0 (off)", "< nodes",
         "Number of nodes that crash (seeded deterministic victim choice)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.crash_nodes = parse_uint("crash_nodes", v);
        });
    add({"crash_at", "uint", "0", "any",
         "First round the crash set is down (with crash_nodes > 0)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.crash_at = parse_uint("crash_at", v);
        });
    add({"rejoin_at", "uint", "0 (never)", "0, or > crash_at",
         "Round at which crashed nodes come back (their models resume from "
         "the pre-crash state)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.rejoin_at = parse_uint("rejoin_at", v);
        });
    add({"burst_every", "uint", "0 (off)", "any",
         "Correlated burst outages: a window opens every N rounds (first at "
         "round N)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.burst_every = parse_uint("burst_every", v);
        });
    add({"burst_length", "uint", "1", ">= 1, <= burst_every",
         "Rounds each burst-outage window lasts"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.burst_length = parse_uint("burst_length", v);
        });
    add({"burst_drop", "float", "1.0", "(0, 1]",
         "Per-message drop probability inside a burst window (1 = total "
         "outage)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.time.burst_drop = parse_double("burst_drop", v);
        });

    // --- execution engine (sim/event_engine.hpp) -------------------------
    add({"engine", "enum", "sync", "sync, async",
         "Execution engine: the bulk-synchronous reference loop, or the "
         "discrete-event asynchronous scheduler (with staleness_bound = 0 "
         "on loss-free links the latter ends on the former's final "
         "models)"},
        [](ScenarioRun& r, const std::string& v) {
          expect_enum("engine", v, {"sync", "async"});
          r.config.engine = v == "async" ? sim::EngineKind::kAsync
                                         : sim::EngineKind::kSync;
        });
    add({"staleness_bound", "uint", "0 (barrier)", "requires engine = async",
         "Bounded-staleness window B: a node may aggregate round r once it "
         "has heard every expected neighbor at round r - B or later (0 = "
         "every live neighbor's round-r message; async_mode = barrier "
         "only)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.staleness_bound = parse_uint("staleness_bound", v);
        });
    add({"stop_at_sim_time", "float", "0 (off)", ">= 0 seconds",
         "Simulated-time budget: stop the run once the simulated clock "
         "passes this many seconds (the natural termination mode for "
         "asynchronous runs, where nodes complete different round counts)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.stop_at_sim_time = parse_double("stop_at_sim_time", v);
        });
    add({"async_mode", "enum", "barrier", "barrier, free, weighted",
         "Asynchronous aggregation discipline (engine = async), all in one "
         "event loop: barrier = the staleness_bound gate, free = aggregate "
         "whatever has arrived (weights renormalize over heard neighbors), "
         "weighted = free with contributions faded by staleness_decay^age "
         "instead of dropped"},
        [](ScenarioRun& r, const std::string& v) {
          expect_enum("async_mode", v, {"barrier", "free", "weighted"});
          r.config.async_mode = v == "free"       ? sim::AsyncMode::kFree
                                : v == "weighted" ? sim::AsyncMode::kWeighted
                                                  : sim::AsyncMode::kBarrier;
        });
    add({"staleness_decay", "float", "0.5", "(0, 1]",
         "Age-decay base lambda for async_mode = weighted: a contribution "
         "s rounds stale mixes with weight w_ij * lambda^s (1 = no decay, "
         "i.e. free mode)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.staleness_decay = parse_double("staleness_decay", v);
        });

    // --- adversarial behavior --------------------------------------------
    add({"byzantine_nodes", "uint", "0 (off)", "< nodes",
         "Number of byzantine attackers: a seeded hash over node ids picks "
         "the victim set (like crash_nodes, under a distinct salt), and each "
         "attacker corrupts its outgoing payloads per byzantine_mode while "
         "training and aggregating honestly"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.byzantine_nodes = parse_uint("byzantine_nodes", v);
        });
    add({"byzantine_mode", "string", "sign_flip",
         "random, sign_flip, scale:<k>",
         "Wire-corruption rule for byzantine attackers: random = seeded "
         "uniform [-1, 1) garbage, sign_flip = negate every value, "
         "scale:<k> = multiply every value by k"},
        [](ScenarioRun& r, const std::string& v) {
          parse_byzantine_mode("byzantine_mode", v, r.config);
        });
    add({"robust_agg", "string", "none",
         "none, trimmed_mean:<f>, median, norm_clip:<c>",
         "Robust aggregation rule applied to received contributions: none = "
         "plain partial averaging (the exact legacy path), trimmed_mean:<f> "
         "= coordinate-wise mean after trimming fraction f in [0, 0.5) from "
         "each end, median = coordinate-wise median, norm_clip:<c> = shrink "
         "each contribution's deviation to L2 norm at most c"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.robust_agg = parse_robust_agg("robust_agg", v);
        });

    // --- algorithm knobs -------------------------------------------------
    add({"random_sampling_fraction", "float", "0.37", "(0, 1]",
         "Random-sampling baseline: fraction of parameters shared per round"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.random_sampling_fraction =
              parse_double("random_sampling_fraction", v);
        });
    add({"jwins_wavelet", "enum", "sym2", "haar, db2, sym2, db4, identity",
         "Wavelet family for the JWINS ranking transform (4 levels); "
         "identity = rank in the raw parameter domain (the Fig. 8 ablation)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.jwins.ranker.wavelet = v;
        });
    add({"jwins_use_accumulation", "bool", "true", "true, false",
         "false = clear importance scores every round (the Fig. 8 ablation)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.jwins.ranker.use_accumulation =
              parse_bool("jwins_use_accumulation", v);
        });
    add({"jwins_cutoff", "string", "paper",
         "paper, fixed:<alpha>, two-point:<alpha_low>:<p_full>",
         "Randomized cut-off distribution for the per-round sharing fraction"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.jwins.cutoff = parse_cutoff("jwins_cutoff", v);
        });
    add({"index_encoding", "enum", "elias-gamma", "elias-gamma, raw",
         "Sparse-index compression for JWINS and CHoCo payloads (the Fig. 9 "
         "arms)"},
        [](ScenarioRun& r, const std::string& v) {
          const core::IndexEncoding e = parse_index_encoding("index_encoding", v);
          r.config.jwins.index_encoding = e;
          r.config.choco.index_encoding = e;
        });
    add({"value_encoding", "enum", "xor", "xor, raw",
         "Coefficient-value compression for JWINS and CHoCo payloads"},
        [](ScenarioRun& r, const std::string& v) {
          const core::ValueEncoding e = parse_value_encoding("value_encoding", v);
          r.config.jwins.value_encoding = e;
          r.config.choco.value_encoding = e;
        });
    add({"choco_gamma", "float", "0.6", "(0, 1]",
         "CHoCo consensus step size (the sensitive knob)"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.choco.gamma = parse_double("choco_gamma", v);
        });
    add({"choco_fraction", "float", "0.2", "(0, 1]",
         "CHoCo TopK fraction of parameters per round"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.choco.fraction = parse_double("choco_fraction", v);
        });
    add({"choco_compressor", "enum", "topk", "topk, qsgd",
         "CHoCo compressor choice"},
        [](ScenarioRun& r, const std::string& v) {
          expect_enum("choco_compressor", v, {"topk", "qsgd"});
          r.config.choco.compressor = v == "topk"
                                          ? algo::ChocoNode::Compressor::kTopK
                                          : algo::ChocoNode::Compressor::kQsgd;
        });
    add({"choco_qsgd_levels", "uint", "15", "1 .. 4294967295",
         "Quantization levels for the qsgd compressor"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.choco.qsgd_levels =
              parse_uint<std::uint32_t>("choco_qsgd_levels", v);
        });
    add({"power_gossip_gamma", "float", "1.0", "(0, 1e3]",
         "PowerGossip consensus step on the rank-1 estimates"},
        [](ScenarioRun& r, const std::string& v) {
          r.config.power_gossip.gamma = parse_double("power_gossip_gamma", v);
        });
    return s;
  }();
  return specs;
}

const KeySpec* find_key(const std::string& key) {
  for (const KeySpec& spec : key_specs()) {
    if (key == spec.info.key) return &spec;
  }
  return nullptr;
}

/// Scenario-level rules that span several keys (the per-key appliers above
/// can only see one value at a time).
void validate_cross_field(const ScenarioRun& run) {
  const std::size_t degree = effective_degree(run);
  if (run.topology == "regular") {
    if (degree >= run.nodes || (run.nodes * degree) % 2 != 0) {
      fail("topology",
           "random regular requires degree < nodes and nodes*degree even "
           "(got nodes=" + std::to_string(run.nodes) +
               ", degree=" + std::to_string(degree) + ")");
    }
  } else if (run.topology == "ring") {
    if (degree < 2 || degree % 2 != 0 || degree >= run.nodes) {
      fail("topology_degree",
           "ring requires an even degree >= 2 and < nodes (got degree=" +
               std::to_string(degree) +
               ", nodes=" + std::to_string(run.nodes) + ")");
    }
  } else if (run.topology == "torus") {
    if (torus_rows(run.nodes) == 0) {
      fail("nodes", "torus requires a composite node count (rows x cols, "
                    "both >= 2; got " + std::to_string(run.nodes) + ")");
    }
  }
  if (run.churn_every > 0 && run.topology != "regular") {
    fail("churn_every",
         "churn re-randomizes a random regular graph; set topology = regular "
         "(got topology = " + run.topology + ")");
  }
  // Every value-range and cross-field rule of the config fields lives in
  // the Experiment's own validator, surfaced with the same
  // "error: <key>: <why>" shape before anything is built.
  //
  // learning_rate/local_steps may still be the "auto" sentinels here; they
  // resolve to the workload's (validated) suggestions in the runner, so
  // validate a resolved copy.
  sim::ExperimentConfig probe = run.config;
  if (run.auto_learning_rate) probe.sgd.learning_rate = 0.05f;
  if (run.auto_local_steps) probe.local_steps = 1;
  const std::vector<std::string> errors = probe.validate(run.nodes);
  if (!errors.empty()) throw ScenarioError(errors.front());
}

}  // namespace

const std::vector<KeyInfo>& scenario_keys() {
  static const std::vector<KeyInfo> keys = [] {
    std::vector<KeyInfo> out;
    out.push_back({"name", "string", "the file stem", "any",
                   "Scenario label used for output files (not sweepable)"});
    for (const KeySpec& spec : key_specs()) out.push_back(spec.info);
    return out;
  }();
  return keys;
}

RawScenario parse_scenario_text(std::string_view text,
                                const std::string& name) {
  RawScenario raw;
  raw.name = name;
  bool name_set = false;
  std::size_t line_no = 0;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t eol = text.find('\n', pos);
    std::string_view line = text.substr(
        pos, eol == std::string_view::npos ? text.size() - pos : eol - pos);
    pos = eol == std::string_view::npos ? text.size() + 1 : eol + 1;
    ++line_no;
    const std::string where = "line " + std::to_string(line_no);

    // Strip comments ('#' or ';' to end of line), then whitespace.
    const std::size_t comment = line.find_first_of("#;");
    if (comment != std::string_view::npos) line = line.substr(0, comment);
    line = trim(line);
    if (line.empty()) continue;
    if (line.front() == '[') {
      fail(where, "sections are not supported (flat `key = value` only)");
    }
    const std::size_t eq = line.find('=');
    if (eq == std::string_view::npos) {
      fail(where, "expected `key = value`");
    }
    const std::string key(trim(line.substr(0, eq)));
    if (key.empty()) fail(where, "empty key before '='");
    for (const auto& [existing, values] : raw.entries) {
      (void)values;
      if (existing == key) {
        fail(where, "duplicate key \"" + key + "\" (each key appears once; "
                    "use a comma-separated sweep list for multiple values)");
      }
    }

    std::vector<std::string> values =
        split_sweep(where, key, line.substr(eq + 1));

    if (key == "name") {
      if (values.size() != 1) fail("name", "is not sweepable");
      if (name_set) fail(where, "duplicate key \"name\"");
      raw.name = values[0];
      name_set = true;
      continue;
    }
    raw.entries.emplace_back(key, std::move(values));
  }
  return raw;
}

RawScenario load_scenario_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw ScenarioError(path + ": cannot open scenario file");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  // Default name: file stem ("scenarios/fig5_convergence.scenario" ->
  // "fig5_convergence"), overridable by a `name =` line.
  std::string stem = path;
  if (const auto slash = stem.find_last_of("/\\"); slash != std::string::npos) {
    stem = stem.substr(slash + 1);
  }
  if (const auto dot = stem.rfind('.'); dot != std::string::npos && dot > 0) {
    stem = stem.substr(0, dot);
  }
  return parse_scenario_text(buffer.str(), stem);
}

void set_value(RawScenario& raw, const std::string& key,
               const std::string& value) {
  std::vector<std::string> values = split_sweep(key, key, value);
  if (key == "name") {
    if (values.size() != 1) fail("name", "is not sweepable");
    raw.name = values[0];
    return;
  }
  for (auto& [existing, existing_values] : raw.entries) {
    if (existing == key) {
      existing_values = std::move(values);
      return;
    }
  }
  raw.entries.emplace_back(key, std::move(values));
}

std::size_t auto_degree(std::size_t nodes) {
  if (nodes >= 384) return 6;
  if (nodes >= 192) return 5;
  if (nodes >= 16) return 4;
  return 3;
}

std::size_t effective_degree(const ScenarioRun& run) {
  if (run.topology_degree != 0) return run.topology_degree;
  return run.topology == "ring" ? 2 : auto_degree(run.nodes);
}

std::size_t torus_rows(std::size_t nodes) {
  std::size_t rows = 0;
  for (std::size_t r = 2; r * r <= nodes; ++r) {
    if (nodes % r == 0) rows = r;
  }
  return rows;
}

std::vector<ScenarioRun> expand_grid(const RawScenario& raw) {
  // Resolve every key up front so "unknown key" fires even for grids of one.
  std::vector<const KeySpec*> specs;
  specs.reserve(raw.entries.size());
  std::size_t total = 1;
  for (const auto& [key, values] : raw.entries) {
    const KeySpec* spec = find_key(key);
    if (spec == nullptr) {
      fail(key, "unknown key (see docs/EXPERIMENTS.md or "
                "`jwins_run --list-keys`)");
    }
    specs.push_back(spec);
    total *= values.size();
    if (total > 4096) fail("sweep", "grid expands past the 4096-run cap");
  }

  std::vector<ScenarioRun> runs;
  runs.reserve(total);
  for (std::size_t index = 0; index < total; ++index) {
    ScenarioRun run;
    run.scenario = raw.name;
    run.index = index;
    run.config.threads = 0;  // scenario default: all hardware threads

    // Odometer order: the last-listed sweep key varies fastest.
    std::size_t rem = index;
    std::vector<std::size_t> choice(raw.entries.size(), 0);
    for (std::size_t k = raw.entries.size(); k-- > 0;) {
      const std::size_t radix = raw.entries[k].second.size();
      choice[k] = rem % radix;
      rem /= radix;
    }

    std::string label;
    for (std::size_t k = 0; k < raw.entries.size(); ++k) {
      const auto& [key, values] = raw.entries[k];
      const std::string& value = values[choice[k]];
      specs[k]->apply(run, value);
      if (values.size() > 1) {
        if (!label.empty()) label += ',';
        label += key + "=" + value;
      }
      if (key != "threads") {
        if (!run.spec.empty()) run.spec += ',';
        run.spec += key + "=" + value;
      }
    }
    run.label = label.empty() ? "run" : label;
    validate_cross_field(run);
    runs.push_back(std::move(run));
  }
  return runs;
}

}  // namespace jwins::config
