// Heterogeneous link-time & fault-injection engine — the simulated clock.
//
// The paper's time-to-accuracy comparisons (Figs. 6/8, Table 1) depend on
// how communication time is modeled. The flat LinkModel (every node on an
// identical link) is the degenerate case of this subsystem: a TimeModel
// additionally supports per-edge bandwidth/latency drawn from seeded
// distributions, per-node compute-speed multipliers (stragglers), and fault
// injection — per-edge drop probabilities, node crash/rejoin schedules, and
// correlated burst outages. Every message is priced on its sender's uplink
// when it is sent (record_send), and both engines read that one record:
// the synchronous round clock and the event engine's arrival times. Every
// random attribute is a pure function of (experiment seed, entity
// coordinates) via core::derive_seed, so results are bit-identical at any
// thread count and the attributes survive topology churn (an edge's
// bandwidth depends only on its endpoints, not on when the edge first
// appears).
//
// With heterogeneity off the round clock reduces EXACTLY (same doubles, same
// operation order) to the legacy flat formula
//     compute + latency + max_node_bytes / bandwidth,
// which keeps all pre-existing results byte-identical; the golden test in
// tests/test_time_model.cpp pins this. docs/SIMULATION.md is the full
// reference: formulas, fault semantics, determinism guarantees, and the
// scenario keys that drive this file.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace jwins::net {

/// Legacy flat bandwidth/latency link model: the simulated duration of one
/// communication phase is latency + max_node_bytes / bandwidth — every node
/// on an identical link, the slowest sender gating the bulk-synchronous
/// round. Kept as the TimeModel's base (and its exact reduction target).
struct LinkModel {
  double bandwidth_bytes_per_sec = 12.5e6;  ///< 100 Mbit/s default
  double latency_sec = 2e-3;

  double comm_time(std::uint64_t max_node_bytes) const noexcept {
    return latency_sec +
           static_cast<double>(max_node_bytes) / bandwidth_bytes_per_sec;
  }
};

/// Distribution spec for a per-edge link parameter (bandwidth or latency).
/// `kBase` follows the flat LinkModel knob; the other kinds draw one value
/// per undirected edge, keyed on (seed, min(u,v), max(u,v)).
struct LinkDist {
  enum class Kind {
    kBase,       ///< every edge uses the LinkModel base value (the default)
    kUniform,    ///< uniform in [a, b]
    kLognormal,  ///< a * exp(b * Z), Z ~ N(0,1): median a, log-space sigma b
  };
  Kind kind = Kind::kBase;
  double a = 0.0;
  double b = 0.0;

  bool is_base() const noexcept { return kind == Kind::kBase; }
};

/// Per-edge drop-probability spec. Each edge gets its own probability —
/// the same p everywhere for `kFixed`, drawn once per edge for `kUniform` —
/// and every message then draws its own decision keyed on (edge, round).
struct EdgeDropDist {
  enum class Kind {
    kOff,      ///< no per-edge drops (the default)
    kFixed,    ///< every edge drops with probability a
    kUniform,  ///< per-edge probability uniform in [a, b]
  };
  Kind kind = Kind::kOff;
  double a = 0.0;
  double b = 0.0;

  bool is_off() const noexcept { return kind == Kind::kOff; }
};

/// Everything beyond the flat LinkModel: heterogeneity distributions,
/// stragglers, and the fault-injection schedule. Field names match the
/// scenario keys that set them (docs/SIMULATION.md documents both).
struct TimeModelConfig {
  LinkDist bandwidth_dist;  ///< per-edge bandwidth, bytes/sec
  LinkDist latency_dist;    ///< per-edge latency, seconds

  /// Stragglers: each node is independently a straggler with this
  /// probability (decided once per node from the seed); a straggler's
  /// simulated compute time is multiplied by `straggler_slowdown`. Both
  /// knobs must be set for effect: with the multiplier at its default 1 the
  /// fraction is inert (no node counts as a straggler, the clock stays on
  /// the legacy path).
  double straggler_fraction = 0.0;
  double straggler_slowdown = 1.0;

  EdgeDropDist edge_drop;

  /// Crash/rejoin schedule: `crash_nodes` nodes (a seeded deterministic
  /// choice) are down for rounds [crash_at, rejoin_at); rejoin_at = 0 means
  /// they never come back. A crashed node neither trains nor communicates,
  /// and messages addressed to it are dropped at the fabric.
  std::size_t crash_nodes = 0;
  std::size_t crash_at = 0;
  std::size_t rejoin_at = 0;

  /// Correlated burst outages: every `burst_every` rounds (starting at round
  /// burst_every) the whole fabric degrades for `burst_length` rounds, each
  /// in-flight message dropped with probability `burst_drop`.
  std::size_t burst_every = 0;
  std::size_t burst_length = 1;
  double burst_drop = 1.0;

  /// True when the round clock must take the per-edge critical-path engine
  /// instead of the exact legacy formula.
  bool heterogeneous_time() const noexcept;
  /// True when any fault-injection feature is configured.
  bool any_faults() const noexcept;
  /// heterogeneous_time() || any_faults(): anything beyond the flat link
  /// model (jwins_run then prints the time-model and drop summary lines).
  bool extended() const noexcept { return heterogeneous_time() || any_faults(); }

  /// Every value-range rule of these fields, one "<scenario key>: <why>" per
  /// violation (empty = valid); folded into sim::ExperimentConfig::validate(),
  /// so scenario files and C++ callers meet the same rules.
  std::vector<std::string> validate() const;
};

/// Why a message was discarded by failure injection. Precedence is the enum
/// order: a message on a crashed endpoint is counted as kCrash even if the
/// burst/edge dice would also have dropped it.
enum class DropCause { kNone, kCrash, kBurst, kEdge };

/// The simulated clock and fault oracle for one Network. Prices every
/// message on its sender's uplink at send time and turns each round's
/// records into simulated time:
///
///  * uplink: a sender's messages of one round serialize through its NIC in
///    send order, each transferring at its edge's bandwidth, then paying the
///    edge's latency; record_send() returns that delivery offset, which the
///    event engine uses as the message's arrival time after the share;
///  * legacy path (heterogeneous_time() == false): the flat LinkModel
///    formula over the per-sender byte totals, bit-identical to the pre-
///    TimeModel engine;
///  * critical path (heterogeneous): the communication phase is the latest
///    delivery offset of the round, and the compute phase is the max over
///    alive nodes of compute_seconds * multiplier.
///
/// Thread-safety contract (matching Network's locking): the attribute
/// getters and drop_cause() are pure and callable concurrently;
/// record_send()/count_drop() must be serialized by the caller (Network
/// calls them under its traffic lock); finish_round() runs between rounds,
/// single-threaded.
class TimeModel {
 public:
  explicit TimeModel(std::size_t n, LinkModel base = {},
                     TimeModelConfig config = {}, std::uint64_t seed = 0);

  std::size_t size() const noexcept { return n_; }
  const LinkModel& base() const noexcept { return base_; }
  const TimeModelConfig& config() const noexcept { return config_; }
  bool extended() const noexcept { return config_.extended(); }
  bool has_crashes() const noexcept { return config_.crash_nodes > 0; }

  // --- per-entity attributes (pure functions of the seed) -----------------
  double edge_bandwidth(std::uint32_t u, std::uint32_t v) const;
  double edge_latency(std::uint32_t u, std::uint32_t v) const;
  double edge_drop_probability(std::uint32_t u, std::uint32_t v) const;
  bool is_straggler(std::uint32_t node) const;
  double compute_multiplier(std::uint32_t node) const;
  std::size_t straggler_count() const;

  /// True when `node` participates in `round` (not inside its crash window).
  bool node_alive(std::uint32_t node, std::size_t round) const;
  /// True when `node` is in the seeded crash set (regardless of round).
  bool node_crashes(std::uint32_t node) const;
  /// True when `round` falls inside a burst-outage window.
  bool burst_active(std::size_t round) const;

  // --- send-path hooks (see the thread-safety contract above) -------------
  /// Failure-injection verdict for one message. Pure: the decision hashes
  /// logical coordinates only, so it is independent of thread scheduling.
  DropCause drop_cause(std::uint32_t sender, std::uint32_t receiver,
                       std::uint32_t round) const;

  /// Queues `wire_bytes` on `sender`'s uplink behind what it already sent
  /// in `round` (a new round tag starts an empty uplink) and returns the
  /// message's delivery offset from the send instant: queued transfer time
  /// plus the edge's latency. Dropped messages are recorded too — the
  /// sender paid.
  double record_send(std::uint32_t sender, std::uint32_t receiver,
                     std::uint32_t round, std::uint64_t wire_bytes);
  void count_drop(DropCause cause);

  /// One round of simulated time, split into phases (the Network adds
  /// compute + comm to its clock; the report keeps the split). Clears the
  /// uplink records and advances the internal round cursor used for crash
  /// bookkeeping.
  struct RoundTime {
    double compute = 0.0;
    double comm = 0.0;
  };
  RoundTime finish_round(double compute_seconds);

  // --- fault bookkeeping ---------------------------------------------------
  /// Messages discarded so far, all causes. A dropped message still counts
  /// as sent bytes: the sender paid for it.
  std::uint64_t dropped_total() const noexcept {
    return dropped_edge_ + dropped_burst_ + dropped_crash_;
  }
  std::uint64_t dropped_edge() const noexcept { return dropped_edge_; }
  std::uint64_t dropped_burst() const noexcept { return dropped_burst_; }
  std::uint64_t dropped_crash() const noexcept { return dropped_crash_; }
  /// Sum over finished rounds of the number of crashed nodes in that round.
  std::uint64_t crashed_node_rounds() const noexcept {
    return crashed_node_rounds_;
  }

  /// One-line human summary ("bandwidth lognormal(100 Mbit, σ=0.75), 2
  /// stragglers ×4, ...") for CLI progress output; "flat link model" when
  /// nothing is configured.
  std::string describe() const;

 private:
  double edge_u01(std::uint32_t u, std::uint32_t v, std::uint64_t salt) const;
  double edge_normal(std::uint32_t u, std::uint32_t v,
                     std::uint64_t salt) const;
  double draw_link(const LinkDist& dist, double base_value, std::uint32_t u,
                   std::uint32_t v, std::uint64_t salt) const;

  std::size_t n_;
  LinkModel base_;
  TimeModelConfig config_;
  std::uint64_t seed_;
  bool hetero_time_;

  std::vector<bool> crash_set_;  ///< seeded choice of crash_nodes victims

  /// One sender's uplink in its latest round: bytes sent, seconds of
  /// transfer queued, and the latest delivery offset.
  struct Uplink {
    std::uint32_t round = 0;
    std::uint64_t bytes = 0;
    double queue = 0.0;
    double done = 0.0;
  };
  std::vector<Uplink> uplinks_;
  bool any_send_ = false;  ///< some message was recorded this round
  std::size_t round_cursor_ = 0;

  std::uint64_t dropped_edge_ = 0;
  std::uint64_t dropped_burst_ = 0;
  std::uint64_t dropped_crash_ = 0;
  std::uint64_t crashed_node_rounds_ = 0;
};

}  // namespace jwins::net
