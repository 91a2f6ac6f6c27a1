#include "net/time_model.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "core/rng.hpp"

namespace jwins::net {

namespace {

// Stream tags separating the model's independent random draws (see
// core::derive_seed). Decision salts fold the round in so per-message dice
// are fresh each round while per-edge attributes stay fixed.
constexpr std::uint64_t kSaltBandwidth = 0xB12D;
constexpr std::uint64_t kSaltLatency = 0x1A7E;
constexpr std::uint64_t kSaltEdgeDrop = 0xED12;
constexpr std::uint64_t kSaltStraggler = 0x57A6;
constexpr std::uint64_t kSaltCrash = 0xC2A5;
constexpr std::uint64_t kSaltEdgeDecision = 0xED0D;
constexpr std::uint64_t kSaltBurstDecision = 0xB025;
constexpr std::uint64_t kSaltPhase = 0x9E37;

/// Uniform double in [0, 1) from a mixed 64-bit hash: the top 53 bits scaled
/// down. Platform-independent (no <random> involved), so every distribution
/// draw in this file is reproducible across standard libraries too.
double u01(std::uint64_t h) noexcept {
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

}  // namespace

bool TimeModelConfig::heterogeneous_time() const noexcept {
  return !bandwidth_dist.is_base() || !latency_dist.is_base() ||
         (straggler_fraction > 0.0 && straggler_slowdown != 1.0);
}

bool TimeModelConfig::any_faults() const noexcept {
  return !edge_drop.is_off() || crash_nodes > 0 || burst_every > 0;
}

std::vector<std::string> TimeModelConfig::validate() const {
  std::vector<std::string> errors;
  auto require = [&](bool ok, const char* message) {
    if (!ok) errors.emplace_back(message);
  };
  // One message per distribution: the first rule it breaks.
  auto check_dist = [&](const LinkDist& d, const std::string& key,
                        bool allow_zero) {
    const auto finite_non_negative = [](double v) {
      return std::isfinite(v) && v >= 0.0;
    };
    const char* why = nullptr;
    if (d.kind == LinkDist::Kind::kUniform) {
      if (!finite_non_negative(d.a)) {
        why = "lo must be a non-negative number";
      } else if (!finite_non_negative(d.b)) {
        why = "hi must be a non-negative number";
      } else if (d.b < d.a) {
        why = "uniform needs lo <= hi";
      } else if (!allow_zero && d.a == 0.0) {
        why = "uniform lo must be > 0";
      }
    } else if (d.kind == LinkDist::Kind::kLognormal) {
      if (!(std::isfinite(d.a) && d.a > 0.0)) {
        why = "lognormal median must be > 0";
      } else if (!finite_non_negative(d.b)) {
        why = "sigma must be a non-negative number";
      }
    }
    if (why != nullptr) errors.push_back(key + ": " + why);
  };
  check_dist(bandwidth_dist, "bandwidth_dist", /*allow_zero=*/false);
  check_dist(latency_dist, "latency_dist", /*allow_zero=*/true);
  require(straggler_fraction >= 0.0 && straggler_fraction < 1.0,
          "straggler_fraction: must be in [0, 1)");
  require(straggler_slowdown >= 1.0,
          "straggler_slowdown: must be >= 1 (a compute-time multiplier)");
  const auto probability = [](double p) { return p >= 0.0 && p < 1.0; };
  if (edge_drop.kind == EdgeDropDist::Kind::kFixed) {
    require(probability(edge_drop.a),
            "edge_drop: fixed:<p> p must be a probability in [0, 1)");
  } else if (edge_drop.kind == EdgeDropDist::Kind::kUniform) {
    if (!probability(edge_drop.a) || !probability(edge_drop.b)) {
      errors.emplace_back(
          "edge_drop: uniform:<lo>:<hi> bounds must be probabilities in "
          "[0, 1)");
    } else {
      require(edge_drop.a <= edge_drop.b, "edge_drop: uniform needs lo <= hi");
    }
  }
  require(rejoin_at == 0 || rejoin_at > crash_at,
          "rejoin_at: must be 0 (never) or > crash_at");
  require(burst_length >= 1, "burst_length: must be >= 1");
  require(burst_every == 0 || burst_length <= burst_every,
          "burst_length: must be <= burst_every (windows must not overlap)");
  require(burst_drop > 0.0 && burst_drop <= 1.0,
          "burst_drop: must be in (0, 1]");
  return errors;
}

TimeModel::TimeModel(std::size_t n, LinkModel base, TimeModelConfig config,
                     std::uint64_t seed)
    : n_(n),
      base_(base),
      config_(std::move(config)),
      seed_(seed),
      hetero_time_(config_.heterogeneous_time()),
      uplinks_(n) {
  if (config_.crash_nodes >= n && config_.crash_nodes > 0) {
    throw std::invalid_argument(
        "crash_nodes: must leave at least one node alive (crash_nodes < "
        "nodes)");
  }
  if (config_.crash_nodes > 0) {
    // Seeded deterministic victim choice: rank nodes by a per-node hash
    // (ties by id) and crash the first crash_nodes of that order. Pure
    // function of (seed, n), so every thread count and every run agrees.
    std::vector<std::pair<std::uint64_t, std::uint32_t>> order;
    order.reserve(n);
    for (std::uint32_t i = 0; i < n; ++i) {
      order.emplace_back(core::derive_seed(seed_, i, 0, kSaltCrash), i);
    }
    std::sort(order.begin(), order.end());
    crash_set_.assign(n, false);
    for (std::size_t k = 0; k < config_.crash_nodes; ++k) {
      crash_set_[order[k].second] = true;
    }
  }
}

double TimeModel::edge_u01(std::uint32_t u, std::uint32_t v,
                           std::uint64_t salt) const {
  const std::uint32_t a = std::min(u, v), b = std::max(u, v);
  return u01(core::derive_seed(seed_, a, b, salt));
}

double TimeModel::edge_normal(std::uint32_t u, std::uint32_t v,
                              std::uint64_t salt) const {
  // Box-Muller over two independent per-edge hashes; the max() guards the
  // log against a zero draw. Dependency-free, so identical on every stdlib.
  const double u1 = std::max(edge_u01(u, v, salt), 0x1.0p-60);
  const double u2 = edge_u01(u, v, salt ^ kSaltPhase);
  return std::sqrt(-2.0 * std::log(u1)) *
         std::cos(2.0 * 3.14159265358979323846 * u2);
}

double TimeModel::draw_link(const LinkDist& dist, double base_value,
                            std::uint32_t u, std::uint32_t v,
                            std::uint64_t salt) const {
  switch (dist.kind) {
    case LinkDist::Kind::kBase:
      return base_value;
    case LinkDist::Kind::kUniform:
      return dist.a + (dist.b - dist.a) * edge_u01(u, v, salt);
    case LinkDist::Kind::kLognormal:
      return dist.a * std::exp(dist.b * edge_normal(u, v, salt));
  }
  return base_value;  // unreachable
}

double TimeModel::edge_bandwidth(std::uint32_t u, std::uint32_t v) const {
  return draw_link(config_.bandwidth_dist, base_.bandwidth_bytes_per_sec, u, v,
                   kSaltBandwidth);
}

double TimeModel::edge_latency(std::uint32_t u, std::uint32_t v) const {
  return draw_link(config_.latency_dist, base_.latency_sec, u, v,
                   kSaltLatency);
}

double TimeModel::edge_drop_probability(std::uint32_t u,
                                        std::uint32_t v) const {
  switch (config_.edge_drop.kind) {
    case EdgeDropDist::Kind::kOff:
      return 0.0;
    case EdgeDropDist::Kind::kFixed:
      return config_.edge_drop.a;
    case EdgeDropDist::Kind::kUniform:
      return config_.edge_drop.a +
             (config_.edge_drop.b - config_.edge_drop.a) *
                 edge_u01(u, v, kSaltEdgeDrop);
  }
  return 0.0;  // unreachable
}

bool TimeModel::is_straggler(std::uint32_t node) const {
  // A "straggler" is a node the clock actually slows: with the multiplier
  // at 1 the fraction knob is inert and nobody is reported as one (the
  // sim_time block must never claim injection that had no effect).
  return config_.straggler_fraction > 0.0 &&
         config_.straggler_slowdown != 1.0 &&
         u01(core::derive_seed(seed_, node, 0, kSaltStraggler)) <
             config_.straggler_fraction;
}

double TimeModel::compute_multiplier(std::uint32_t node) const {
  return is_straggler(node) ? config_.straggler_slowdown : 1.0;
}

std::size_t TimeModel::straggler_count() const {
  std::size_t count = 0;
  for (std::uint32_t i = 0; i < n_; ++i) {
    if (is_straggler(i)) ++count;
  }
  return count;
}

bool TimeModel::node_crashes(std::uint32_t node) const {
  return !crash_set_.empty() && node < crash_set_.size() && crash_set_[node];
}

bool TimeModel::node_alive(std::uint32_t node, std::size_t round) const {
  if (!node_crashes(node)) return true;
  if (round < config_.crash_at) return true;
  return config_.rejoin_at != 0 && round >= config_.rejoin_at;
}

bool TimeModel::burst_active(std::size_t round) const {
  return config_.burst_every > 0 && round >= config_.burst_every &&
         round % config_.burst_every < config_.burst_length;
}

DropCause TimeModel::drop_cause(std::uint32_t sender, std::uint32_t receiver,
                                std::uint32_t round) const {
  if (has_crashes() &&
      (!node_alive(sender, round) || !node_alive(receiver, round))) {
    return DropCause::kCrash;
  }
  if (burst_active(round)) {
    if (config_.burst_drop >= 1.0 ||
        u01(core::derive_seed(
            seed_, sender,
            (std::uint64_t{round} << 32) | receiver, kSaltBurstDecision)) <
            config_.burst_drop) {
      return DropCause::kBurst;
    }
  }
  if (!config_.edge_drop.is_off()) {
    const double p = edge_drop_probability(sender, receiver);
    if (p > 0.0 &&
        u01(core::derive_seed(
            seed_, sender,
            (std::uint64_t{round} << 32) | receiver, kSaltEdgeDecision)) < p) {
      return DropCause::kEdge;
    }
  }
  return DropCause::kNone;
}

double TimeModel::record_send(std::uint32_t sender, std::uint32_t receiver,
                              std::uint32_t round, std::uint64_t wire_bytes) {
  Uplink& up = uplinks_.at(sender);
  if (up.round != round) up = Uplink{round};
  up.bytes += wire_bytes;
  up.queue +=
      static_cast<double>(wire_bytes) / edge_bandwidth(sender, receiver);
  const double offset = up.queue + edge_latency(sender, receiver);
  up.done = std::max(up.done, offset);
  any_send_ = true;
  return offset;
}

void TimeModel::count_drop(DropCause cause) {
  switch (cause) {
    case DropCause::kNone: break;
    case DropCause::kCrash: ++dropped_crash_; break;
    case DropCause::kBurst: ++dropped_burst_; break;
    case DropCause::kEdge: ++dropped_edge_; break;
  }
}

TimeModel::RoundTime TimeModel::finish_round(double compute_seconds) {
  const std::size_t round = round_cursor_++;
  if (has_crashes()) {
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (!node_alive(i, round)) ++crashed_node_rounds_;
    }
  }
  RoundTime rt;
  if (!hetero_time_) {
    // Exact legacy reduction: the same uint64 per-node totals and the same
    // single comm_time() expression the flat LinkModel engine evaluated.
    rt.compute = compute_seconds;
    std::uint64_t max_bytes = 0;
    for (const Uplink& up : uplinks_) max_bytes = std::max(max_bytes, up.bytes);
    rt.comm = base_.comm_time(max_bytes);
  } else {
    // Compute phase: the slowest *alive* node gates the bulk-synchronous
    // round (crashed nodes are not waited for).
    double compute = 0.0;
    for (std::uint32_t i = 0; i < n_; ++i) {
      if (has_crashes() && !node_alive(i, round)) continue;
      compute = std::max(compute, compute_seconds * compute_multiplier(i));
    }
    rt.compute = compute;
    // Critical path: the phase ends when the last message is delivered. An
    // idle round still pays the synchronization barrier, mirroring the
    // legacy formula's latency floor.
    double comm = 0.0;
    for (const Uplink& up : uplinks_) comm = std::max(comm, up.done);
    rt.comm = any_send_ ? comm : base_.latency_sec;
  }
  for (Uplink& up : uplinks_) up = Uplink{up.round};
  any_send_ = false;
  return rt;
}

std::string TimeModel::describe() const {
  if (!extended()) return "flat link model";
  std::ostringstream os;
  const char* sep = "";
  auto dist_text = [](const LinkDist& d, double scale, const char* unit) {
    std::ostringstream s;
    if (d.kind == LinkDist::Kind::kUniform) {
      s << "uniform " << d.a * scale << ".." << d.b * scale << ' ' << unit;
    } else {
      s << "lognormal median " << d.a * scale << ' ' << unit << " sigma "
        << d.b;
    }
    return s.str();
  };
  if (!config_.bandwidth_dist.is_base()) {
    os << sep << "bandwidth "
       << dist_text(config_.bandwidth_dist, 8.0 / 1e6, "Mbit/s");
    sep = ", ";
  }
  if (!config_.latency_dist.is_base()) {
    os << sep << "latency " << dist_text(config_.latency_dist, 1e3, "ms");
    sep = ", ";
  }
  if (config_.straggler_fraction > 0.0 && config_.straggler_slowdown != 1.0) {
    os << sep << straggler_count() << " straggler(s) x"
       << config_.straggler_slowdown;
    sep = ", ";
  }
  if (!config_.edge_drop.is_off()) {
    os << sep << "edge drop ";
    if (config_.edge_drop.kind == EdgeDropDist::Kind::kFixed) {
      os << config_.edge_drop.a;
    } else {
      os << "uniform " << config_.edge_drop.a << ".." << config_.edge_drop.b;
    }
    sep = ", ";
  }
  if (config_.crash_nodes > 0) {
    os << sep << config_.crash_nodes << " crash(es) at round "
       << config_.crash_at;
    if (config_.rejoin_at > 0) os << " rejoin " << config_.rejoin_at;
    sep = ", ";
  }
  if (config_.burst_every > 0) {
    os << sep << "burst outage every " << config_.burst_every << " for "
       << config_.burst_length << " round(s) p=" << config_.burst_drop;
  }
  return os.str();
}

}  // namespace jwins::net
