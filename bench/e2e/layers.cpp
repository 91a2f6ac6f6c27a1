#include "layers.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <deque>
#include <memory>
#include <optional>

#include "algo/random_sampling.hpp"
#include "compress/topk.hpp"
#include "config/runner.hpp"
#include "core/averaging.hpp"
#include "core/ranker.hpp"
#include "core/rng.hpp"
#include "core/scratch.hpp"
#include "core/sparse_payload.hpp"
#include "data/dataset.hpp"
#include "net/network.hpp"
#include "net/serializer.hpp"
#include "sim/node_state.hpp"

namespace jwins::bench::e2e {

void Tracer::record(std::string name, std::string parent,
                    Clock::time_point start, Clock::time_point end,
                    std::string arg_key, double arg) {
  using us = std::chrono::duration<double, std::micro>;
  spans_.push_back({std::move(name), std::move(parent),
                    us(start - origin_).count(), us(end - start).count(),
                    std::move(arg_key), arg});
}

namespace {

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.4g", v);
  return buf;
}

enum Phase : std::size_t { kTrain, kShare, kAggregate, kEvaluate, kPhases };
constexpr std::array<const char*, kPhases> kPhaseNames{"train", "share",
                                                       "aggregate", "evaluate"};

/// A probe takes at least this many samples, so that ten lie beyond p90.
constexpr std::size_t kMinSamples = 100;
/// Rounds replayed after run() (fewer when the run itself was shorter).
constexpr std::size_t kReplayRounds = 5;
/// On every phase that takes at least kCheckedPhaseShare of the round, the
/// replayed phase must match the in-run phase within kReplayTolerance, and
/// the phase's probes must sum to it within kCoverageTolerance.
constexpr double kCheckedPhaseShare = 0.20;
constexpr double kReplayTolerance = 0.10;
constexpr double kCoverageTolerance = 0.20;
/// The bench-owned compact worker: the compact engine's lane-worker batch
/// size, and a sampler stream of its own (the probes time the calls, they do
/// not reproduce the run's batches).
constexpr std::size_t kCompactBatch = 16;
constexpr std::uint64_t kProbeSamplerStream = 0xB0B0;

double micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}

/// Median cost of an empty timed region, subtracted from every sample so
/// sub-microsecond calls (compact bind/writeback) are not dominated by the
/// clock reads around them.
double timer_overhead_us() {
  std::vector<double> samples(1001);
  for (double& s : samples) {
    const Clock::time_point a = Clock::now();
    const Clock::time_point b = Clock::now();
    s = micros(b - a);
  }
  std::nth_element(samples.begin(), samples.begin() + 500, samples.end());
  return samples[500];
}

/// Per-call host times of one public layer call, plus how often the run
/// makes that call per round in each phase.
class Probe {
 public:
  Probe(std::string layer, double overhead_us)
      : layer_(std::move(layer)), overhead_us_(overhead_us) {}

  template <class Fn>
  void time(Fn&& fn) {
    const Clock::time_point start = Clock::now();
    fn();
    samples_.push_back(
        std::max(0.0, micros(Clock::now() - start) - overhead_us_));
  }

  bool enough() const noexcept { return samples_.size() >= kMinSamples; }
  std::size_t samples() const noexcept { return samples_.size(); }
  const std::string& layer() const noexcept { return layer_; }

  void set_calls(Phase phase, double per_round) { calls_[phase] = per_round; }
  double calls() const {
    double total = 0.0;
    for (const double c : calls_) total += c;
    return total;
  }

  double mean_us() const {
    double sum = 0.0;
    for (const double s : samples_) sum += s;
    return samples_.empty() ? 0.0 : sum / static_cast<double>(samples_.size());
  }
  /// Nearest-rank percentile.
  double percentile_us(double q) const {
    if (samples_.empty()) return 0.0;
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(q * static_cast<double>(sorted.size())));
    return sorted[std::clamp<std::size_t>(rank, 1, sorted.size()) - 1];
  }
  /// Host ms per round this layer costs in `phase` (calls x mean).
  double phase_ms(Phase phase) const { return calls_[phase] * mean_us() / 1e3; }
  double ms() const { return calls() * mean_us() / 1e3; }

 private:
  std::string layer_;
  double overhead_us_;
  std::vector<double> samples_;
  std::array<double, kPhases> calls_{};
};

/// Repeats `pass` (one sweep over the population) until `probe` has enough
/// samples; stops early if a pass adds none.
template <class Fn>
void until_enough(const Probe& probe, Fn&& pass) {
  std::size_t before = 0;
  do {
    before = probe.samples();
    pass();
  } while (!probe.enough() && probe.samples() > before);
}

double weight_of(const graph::Graph& g, const graph::MixingWeights& w,
                 std::size_t receiver, std::uint32_t sender) {
  const auto& nbrs = g.neighbors(receiver);
  for (std::size_t k = 0; k < nbrs.size(); ++k) {
    if (nbrs[k] == sender) return w.neighbor_weight[receiver][k];
  }
  return 0.0;
}

/// One sender's wire message and its payload header: [index_mode u8]
/// [value_mode u8][vector_len u32][count u32], then a u64 seed under
/// IndexEncoding::kSeed (the layout core/sparse_payload.hpp documents). The
/// core.encode probe re-encodes every payload with these options and fails
/// the trace unless the bytes match the wire, so a layout change shows.
struct SentPayload {
  const net::Message* msg = nullptr;
  core::PayloadOptions options;  ///< the encoding it was produced with
  std::uint32_t length = 0;      ///< vector_len
  std::uint32_t count = 0;       ///< entries sent (k)
};

SentPayload read_header(const net::Message& msg) {
  net::ByteReader reader(msg.body.span());
  SentPayload p;
  p.msg = &msg;
  p.options.index_encoding = static_cast<core::IndexEncoding>(reader.read_u8());
  p.options.value_encoding = static_cast<core::ValueEncoding>(reader.read_u8());
  p.length = reader.read_u32();
  p.count = reader.read_u32();
  if (p.options.index_encoding == core::IndexEncoding::kSeed) {
    p.options.seed = reader.read_u64();
  }
  return p;
}

class LayerTrace {
 public:
  LayerTrace(const TraceInput& in, Tracer& tracer)
      : in_(in),
        tracer_(tracer),
        overhead_us_(timer_overhead_us()),
        n_(in.run.nodes),
        compact_(in.config.node_state == sim::NodeState::kCompact),
        jwins_(in.config.algorithm == sim::Algorithm::kJwins),
        topology_(config::make_run_topology(in.run)),
        graph_(&topology_->round_graph(in.result.rounds_run)),
        weights_(graph::metropolis_hastings(*graph_)),
        network_(n_),
        eval_batch_(data::full_batch(*in.workload.test,
                                     in.config.eval_sample_limit)) {
    if (compact_) {
      const sim::ExperimentConfig& cfg = in.config;
      worker_ = std::make_unique<algo::RandomSamplingNode>(
          0, in.workload.model_factory(),
          data::Sampler(*in.workload.train, in.workload.partition[0],
                        kCompactBatch, cfg.seed, data::Sampler::Mode::kCounter),
          algo::TrainConfig{cfg.local_steps, cfg.sgd, cfg.seed},
          cfg.random_sampling_fraction, cfg.seed);
      store_ = std::make_unique<sim::NodeStateStore>(n_,
                                                     worker_->flat_params());
      steps_.assign(n_, 0);
    }
    params_ = node(0).param_count();
    scratch_.reserve_for_model(params_);
    if (jwins_) {
      ranker_.emplace(params_, in.config.jwins.ranker);
      coeffs_.resize(ranker_->coeff_length());
    }
    const std::size_t rounds = in.result.rounds_run;
    const std::size_t evals = in.result.series.size();
    eval_nodes_ = eval_population();
    round_ms_ =
        in.result.wall.total_seconds * 1e3 / static_cast<double>(rounds);
    in_run_[kTrain] = in.result.wall.train_seconds * 1e3 / rounds;
    in_run_[kShare] = in.result.wall.share_seconds * 1e3 / rounds;
    in_run_[kAggregate] = in.result.wall.aggregate_seconds * 1e3 / rounds;
    in_run_[kEvaluate] = in.result.wall.evaluate_seconds * 1e3 / rounds;
    in_run_eval_ms_ = in.result.wall.evaluate_seconds * 1e3 /
                      static_cast<double>(std::max<std::size_t>(evals, 1));
    evals_per_round_ = static_cast<double>(evals) / static_cast<double>(rounds);
    messages_per_round_ =
        static_cast<double>(in.result.total_traffic.messages_sent) / rounds;
    train_calls_ = static_cast<double>(n_);
    if (in.result.event_engine.enabled) {
      // Asynchronous nodes complete their own local-step counts.
      double steps = 0.0;
      for (const auto s : in.result.event_engine.local_steps) {
        steps += static_cast<double>(s);
      }
      train_calls_ = steps / static_cast<double>(rounds);
    }
  }

  LayerReport run() {
    replay();
    probe_params();
    probe_evaluate();
    probe_traffic();
    probe_select();
    if (jwins_) probe_dwt();
    return report();
  }

 private:
  Probe& probe(const std::string& layer) {
    for (Probe& p : probes_) {
      if (p.layer() == layer) return p;
    }
    return probes_.emplace_back(layer, overhead_us_);
  }

  /// Fills `p` by repeating `pass` (see until_enough), as one span.
  template <class Fn>
  void sweep(Probe& p, Fn&& pass) {
    const Clock::time_point start = Clock::now();
    until_enough(p, pass);
    tracer_.record(p.layer(), "probe", start, Clock::now(), "samples",
                   static_cast<double>(p.samples()));
  }

  /// Node `i` ready for a public call: the experiment's own node under full
  /// state, the bench's lane worker bound to i's slot under compact state.
  algo::DlNode& node(std::size_t i) {
    if (!compact_) return in_.experiment.node(i);
    worker_->rebind(static_cast<std::uint32_t>(i), in_.workload.partition[i],
                    core::derive_seed(in_.config.seed, i, 0,
                                      kProbeSamplerStream),
                    steps_[i]);
    worker_->set_flat_params(store_->view(i));
    return *worker_;
  }

  void writeback(std::size_t i) { worker_->flat_params_into(store_->slot(i)); }

  std::vector<std::size_t> eval_population() const {
    const sim::ExperimentConfig& cfg = in_.config;
    std::vector<std::size_t> out;
    if (cfg.eval_sample > 0 && cfg.eval_sample < n_) {
      for (const std::uint32_t i : sim::Experiment::eval_sample_indices(
               cfg.seed, in_.result.rounds_run, n_, cfg.eval_sample)) {
        out.push_back(i);
      }
      return out;
    }
    const std::size_t count =
        cfg.eval_node_limit == 0 ? n_ : std::min(cfg.eval_node_limit, n_);
    for (std::size_t i = 0; i < count; ++i) out.push_back(i);
    return out;
  }

  // --- replay ---------------------------------------------------------------

  /// Drives a few more rounds with the engine's phase structure, timing each
  /// phase, then probe rounds that time the per-node calls the engine itself
  /// makes, in their real sequence. The first probe round's mailbox traffic
  /// is captured for the layer probes.
  void replay() {
    const std::size_t rounds = std::min(kReplayRounds, in_.result.rounds_run);
    auto t = static_cast<std::uint32_t>(in_.result.rounds_run);
    std::array<double, kPhases> total{};
    for (std::size_t r = 0; r < rounds; ++r) {
      const std::array<double, kPhases> seconds = round(t++, false);
      for (std::size_t p = 0; p < kPhases; ++p) total[p] += seconds[p];
    }
    for (const Phase p : {kTrain, kShare, kAggregate}) {
      replay_[p] = total[p] * 1e3 / static_cast<double>(rounds);
    }
    Probe& train = probe("nn.train_step");
    sweep(train, [&] { round(t++, true); });
    train.set_calls(kTrain, train_calls_);
    if (compact_) {
      // One bind and one writeback per node in each of the two passes.
      for (const char* layer : {"sim.bind", "sim.writeback"}) {
        probe(layer).set_calls(kTrain, train_calls_);
        probe(layer).set_calls(kAggregate, train_calls_);
      }
    }
  }

  /// One round in the run's engine's call order: phase by phase under the
  /// sync engine, train+share fused into one pass (booked as train) under
  /// compact state, train then share node by node under the event engine. A
  /// probe round also times local_train and the compact bind/writeback per
  /// call, and captures the traffic if none is captured yet. Returns seconds
  /// per phase.
  std::array<double, kPhases> round(std::uint32_t t, bool probe_calls) {
    Probe* train = probe_calls ? &probe("nn.train_step") : nullptr;
    Probe* bind = probe_calls && compact_ ? &probe("sim.bind") : nullptr;
    Probe* back = probe_calls && compact_ ? &probe("sim.writeback") : nullptr;
    const auto call = [](Probe* p, auto&& fn) {
      if (p != nullptr) {
        p->time(fn);
      } else {
        fn();
      }
    };
    const std::string parent = probe_calls ? "probe.round" : "replay.round";
    const Clock::time_point start = Clock::now();
    std::array<double, kPhases> s{};
    if (compact_) {
      s[kTrain] = tracer_.span("train", parent, [&] {
        for (std::size_t i = 0; i < n_; ++i) {
          algo::DlNode* w = nullptr;
          call(bind, [&] { w = &node(i); });
          call(train, [&] { w->local_train(); });
          w->share(network_, *graph_, weights_, t, scratch_);
          call(back, [&] { writeback(i); });
          steps_[i] += in_.config.local_steps;
        }
      });
    } else if (in_.result.event_engine.enabled) {
      // The event engine trains and then shares at each node's TrainDone
      // event, timing the two calls one node at a time.
      tracer_.span("train+share", parent, [&] {
        for (std::size_t i = 0; i < n_; ++i) {
          algo::DlNode& d = node(i);
          const Clock::time_point a = Clock::now();
          call(train, [&] { d.local_train(); });
          const Clock::time_point b = Clock::now();
          d.share(network_, *graph_, weights_, t, scratch_);
          s[kTrain] += std::chrono::duration<double>(b - a).count();
          s[kShare] += std::chrono::duration<double>(Clock::now() - b).count();
        }
      });
    } else {
      s[kTrain] = tracer_.span("train", parent, [&] {
        for (std::size_t i = 0; i < n_; ++i) {
          algo::DlNode& d = node(i);
          call(train, [&] { d.local_train(); });
        }
      });
      s[kShare] = tracer_.span("share", parent, [&] {
        for (std::size_t i = 0; i < n_; ++i) {
          node(i).share(network_, *graph_, weights_, t, scratch_);
        }
      });
    }
    if (probe_calls && captured_.empty()) {
      tracer_.span("capture", parent, [&] { capture(); });
    }
    s[kAggregate] = tracer_.span("aggregate", parent, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        algo::DlNode* w = nullptr;
        call(bind, [&] { w = &node(i); });
        w->aggregate(network_, *graph_, weights_, t, scratch_);
        if (compact_) call(back, [&] { writeback(i); });
      }
    });
    network_.finish_round(in_.config.compute_seconds_per_round);
    tracer_.record(parent, probe_calls ? "probe" : "replay", start,
                   Clock::now(), "round", static_cast<double>(t));
    return s;
  }

  /// Drains every mailbox (timing each drain) and delivers the messages
  /// back, so the round's aggregate still sees them; the copies kept in
  /// captured_ are the probes' real traffic.
  void capture() {
    Probe& drain = probe("net.drain");
    captured_.assign(n_, {});
    until_enough(drain, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        drain.time([&] {
          network_.drain_into(static_cast<std::uint32_t>(i), captured_[i]);
        });
      }
      for (std::size_t i = 0; i < n_; ++i) {
        for (const net::Message& msg : captured_[i]) {
          network_.deliver(static_cast<std::uint32_t>(i), msg);
        }
      }
    });
    drain.set_calls(kAggregate, train_calls_);
    // One wire message per sender (its body is shared by every neighbor).
    std::vector<bool> seen(n_, false);
    for (const auto& inbox : captured_) {
      for (const net::Message& msg : inbox) {
        if (seen[msg.sender]) continue;
        seen[msg.sender] = true;
        senders_.push_back(read_header(msg));
      }
    }
  }

  // --- probes ---------------------------------------------------------------

  /// The copies between a node's model tensors and flat parameter vectors.
  void probe_params() {
    Probe& get = probe("algo.flat_params_into");
    sweep(get, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        algo::DlNode& d = node(i);
        get.time([&] { d.flat_params_into(params_buf_); });
      }
    });
    Probe& set = probe("algo.set_flat_params");
    sweep(set, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        algo::DlNode& d = node(i);
        d.flat_params_into(params_buf_);
        set.time([&] { d.set_flat_params(params_buf_); });
      }
    });
    // Every share reads the parameters once and every aggregate writes them
    // back; CHOCO and random sampling also re-read them to average (JWINS
    // averages the coefficients its share kept).
    get.set_calls(compact_ ? kTrain : kShare, train_calls_);
    if (!jwins_) get.set_calls(kAggregate, train_calls_);
    set.set_calls(kAggregate, train_calls_);
  }

  void probe_evaluate() {
    Probe& eval = probe("nn.evaluate");
    sweep(eval, [&] {
      for (const std::size_t i : eval_nodes_) {
        algo::DlNode& d = node(i);
        eval.time([&] { d.model().evaluate(eval_batch_); });
      }
    });
    // One pass over the population is one replayed evaluation.
    replay_eval_ms_ =
        eval.mean_us() * 1e-3 * static_cast<double>(eval_nodes_.size());
    eval.set_calls(kEvaluate, evals_per_round_ *
                                  static_cast<double>(eval_nodes_.size()));
    replay_[kEvaluate] = replay_eval_ms_ * evals_per_round_;
  }

  /// Send, decode, encode and average, on the captured traffic.
  void probe_traffic() {
    const Phase send_phase = compact_ ? kTrain : kShare;

    Probe& send = probe("net.send");
    std::vector<net::Message> sink;
    sweep(send, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        for (const net::Message& msg : captured_[i]) {
          send.time([&] { network_.send(static_cast<std::uint32_t>(i), msg); });
        }
      }
      for (std::size_t i = 0; i < n_; ++i) {
        network_.drain_into(static_cast<std::uint32_t>(i), sink);
      }
      sink.clear();
      network_.finish_round(0.0);
    });
    send.set_calls(send_phase, messages_per_round_);

    Probe& decode = probe("core.decode");
    sweep(decode, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        scratch_.reset();
        for (const net::Message& msg : captured_[i]) {
          core::SparsePayload& out = scratch_.payloads.next();
          decode.time([&] {
            core::decode_payload_into(msg.body, out, scratch_.arena);
          });
        }
      }
    });
    decode.set_calls(kAggregate, messages_per_round_);

    Probe& encode = probe("core.encode");
    core::SparsePayload payload;
    core::Arena arena;
    sweep(encode, [&] {
      for (const SentPayload& sent : senders_) {
        const net::Message& msg = *sent.msg;
        arena.reset();
        core::decode_payload_into(msg.body, payload, arena);
        net::Message out;
        encode.time([&] {
          out = core::make_message(msg.sender, msg.round, payload, sent.options,
                                   network_.pool(), scratch_.bits);
        });
        const std::span<const std::uint8_t> got = out.body.span();
        const std::span<const std::uint8_t> wire = msg.body.span();
        if (!std::equal(got.begin(), got.end(), wire.begin(), wire.end())) {
          encode_mismatch_ = true;
        }
      }
    });
    encode.set_calls(send_phase, train_calls_);

    // CHOCO scatter-adds neighbor diffs instead of partial averaging.
    if (in_.config.algorithm == sim::Algorithm::kChoco) return;
    Probe& average = probe("core.average");
    std::vector<float> own;
    sweep(average, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        own_vector(i, own);
        scratch_.reset();
        for (const net::Message& msg : captured_[i]) {
          core::decode_payload_into(msg.body, scratch_.payloads.next(),
                                    scratch_.arena);
        }
        for (std::size_t k = 0; k < captured_[i].size(); ++k) {
          scratch_.contributions.push_back(
              {weight_of(*graph_, weights_, i, captured_[i][k].sender),
               &scratch_.payloads[k]});
        }
        average.time([&] {
          core::partial_average(own, weights_.self_weight[i],
                                scratch_.contributions, scratch_.arena);
        });
      }
    });
    average.set_calls(kAggregate, train_calls_);
  }

  /// The vector node i ranks and averages: its wavelet coefficients under
  /// JWINS, its parameters otherwise.
  void own_vector(std::size_t i, std::vector<float>& out) {
    node(i).flat_params_into(params_buf_);
    if (!jwins_) {
      out = params_buf_;
      return;
    }
    out.resize(ranker_->coeff_length());
    ranker_->transform_into(params_buf_, out, scratch_.dwt);
  }

  void probe_dwt() {
    Probe& forward = probe("dwt.forward");
    sweep(forward, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        node(i).flat_params_into(params_buf_);
        forward.time([&] {
          ranker_->transform_into(params_buf_, coeffs_, scratch_.dwt);
        });
      }
    });
    Probe& inverse = probe("dwt.inverse");
    std::vector<float> back(params_);
    sweep(inverse, [&] {
      for (std::size_t i = 0; i < n_; ++i) {
        own_vector(i, coeffs_);
        inverse.time([&] {
          ranker_->inverse_into(coeffs_, back, scratch_.dwt);
        });
      }
    });
    // Share: accumulate_round_change + transform_into; aggregate: the
    // inverse plus finish_round's forward transform of the averaging change.
    forward.set_calls(kShare, 2.0 * train_calls_);
    forward.set_calls(kAggregate, train_calls_);
    inverse.set_calls(kAggregate, train_calls_);
  }

  /// compress.select, the selection step of every sender's share:
  /// topk_indices_into at the message's k over the sender's own vector
  /// (JWINS, CHOCO), or random_indices_into from the message's seed (random
  /// sampling). Dense shares select nothing.
  void probe_select() {
    Probe& select = probe("compress.select");
    std::vector<float> scores;
    std::vector<std::uint32_t> selected;
    std::size_t selections = 0;
    sweep(select, [&] {
      selections = 0;
      for (const SentPayload& sent : senders_) {
        const core::IndexEncoding mode = sent.options.index_encoding;
        if (mode == core::IndexEncoding::kDense) continue;
        ++selections;
        if (mode == core::IndexEncoding::kSeed) {
          scratch_.reset();
          select.time([&] {
            compress::random_indices_into(sent.length, sent.count,
                                          sent.options.seed, selected,
                                          scratch_.arena);
          });
        } else {
          own_vector(sent.msg->sender, scores);
          select.time([&] {
            compress::topk_indices_into(scores, sent.count, selected);
          });
        }
      }
    });
    // Selections per round, as counted in the captured round.
    select.set_calls(compact_ ? kTrain : kShare,
                     static_cast<double>(selections) * train_calls_ /
                         static_cast<double>(n_));
  }

  // --- report ---------------------------------------------------------------

  /// Reconciliation covers the phases that carry the round; a phase below
  /// kCheckedPhaseShare is reported but too small to check against noise.
  bool checked(Phase p) const {
    return in_run_[p] > 0.0 && in_run_[p] >= kCheckedPhaseShare * round_ms_;
  }

  LayerReport report() {
    LayerReport out;
    auto put = [&](const std::string& name, double value, const char* unit) {
      out.metrics.push_back({name, value, unit});
    };
    const SetupSplit& s = in_.setup;
    put("setup_s", static_cast<double>(s.total_ns()) * 1e-9, "s");
    put("config.workload_s", static_cast<double>(s.workload_ns) * 1e-9, "s");
    put("graph.topology_s", static_cast<double>(s.topology_ns) * 1e-9, "s");
    put("sim.construct_s", static_cast<double>(s.construct_ns) * 1e-9, "s");
    put("run_s", in_.result.wall.total_seconds, "s");
    put("round_ms", round_ms_, "ms");
    double phases = 0.0;
    for (std::size_t p = 0; p < kPhases; ++p) {
      put(std::string("sim.") + kPhaseNames[p] + "_ms", in_run_[p], "ms");
      phases += in_run_[p];
    }
    put("sim.other_ms", round_ms_ - phases, "ms");
    for (std::size_t p = 0; p < kPhases; ++p) {
      put(std::string("replay.") + kPhaseNames[p] + "_ms", replay_[p], "ms");
    }
    put("net.messages_per_round", messages_per_round_, "count");
    put("net.kib_per_round",
        static_cast<double>(in_.result.total_traffic.bytes_sent) / 1024.0 /
            static_cast<double>(in_.result.rounds_run),
        "KiB");

    double largest_ms = -1.0;
    for (const Probe& p : probes_) {
      const std::string& layer = p.layer();
      put(layer + ".us_p50", p.percentile_us(0.5), "us");
      put(layer + ".us_p90", p.percentile_us(0.9), "us");
      put(layer + ".calls", p.calls(), "count");
      put(layer + ".ms", p.ms(), "ms");
      put(layer + ".samples", static_cast<double>(p.samples()), "count");
      if (p.ms() > largest_ms) {
        largest_ms = p.ms();
        out.largest_layer = layer;
      }
    }
    put("trace.timer_overhead_us", overhead_us_, "us");

    std::vector<std::string>& checks = out.checks;
    if (s.workload_ns + s.topology_ns + s.construct_ns != s.total_ns()) {
      checks.push_back("setup: parts do not sum to setup_s");
    }
    if (encode_mismatch_) {
      checks.push_back(
          "core.encode: re-encoded payload differs from the wire bytes");
    }
    for (const Phase p : {kTrain, kShare, kAggregate, kEvaluate}) {
      // The asynchronous engine interleaves phases per event, which a
      // lockstep replay does not reproduce: only sync replays are checked.
      if (!checked(p) || in_.result.event_engine.enabled) continue;
      const std::string name = kPhaseNames[p];
      // Evaluation is compared per evaluation: a short replay cannot hit
      // the run's evaluation cadence.
      const double replayed = p == kEvaluate ? replay_eval_ms_ : replay_[p];
      const double measured = p == kEvaluate ? in_run_eval_ms_ : in_run_[p];
      if (std::abs(replayed / measured - 1.0) > kReplayTolerance) {
        checks.push_back("replay: " + name + " " + fmt(replayed) +
                         " ms vs in-run " + fmt(measured) + " ms (tolerance " +
                         fmt(kReplayTolerance) + ")");
      }
    }
    for (const Phase p : {kTrain, kShare, kAggregate, kEvaluate}) {
      if (in_run_[p] <= 0.0) continue;
      double covered = 0.0;
      for (const Probe& probe : probes_) covered += probe.phase_ms(p);
      const double coverage = covered / in_run_[p];
      const std::string name = kPhaseNames[p];
      put("trace." + name + "_coverage", coverage, "ratio");
      if (checked(p) && std::abs(coverage - 1.0) > kCoverageTolerance) {
        checks.push_back("coverage: " + name + " probes sum to " +
                         fmt(covered) + " ms of " + fmt(in_run_[p]) +
                         " ms (tolerance " + fmt(kCoverageTolerance) + ")");
      }
    }
    return out;
  }

  const TraceInput& in_;
  Tracer& tracer_;
  double overhead_us_;
  std::size_t n_;
  bool compact_;
  bool jwins_;
  std::unique_ptr<graph::TopologyProvider> topology_;
  const graph::Graph* graph_;
  graph::MixingWeights weights_;
  net::Network network_;
  nn::Batch eval_batch_;
  core::RoundScratch scratch_;
  std::size_t params_ = 0;
  std::optional<core::WaveletRanker> ranker_;
  std::vector<float> coeffs_;
  std::vector<float> params_buf_;

  // Compact state: one lane worker over a bench-owned store.
  std::unique_ptr<algo::DlNode> worker_;
  std::unique_ptr<sim::NodeStateStore> store_;
  std::vector<std::size_t> steps_;

  std::vector<std::size_t> eval_nodes_;
  std::vector<std::vector<net::Message>> captured_;
  std::vector<SentPayload> senders_;
  std::deque<Probe> probes_;  ///< first-use order; references stay valid
  bool encode_mismatch_ = false;

  double round_ms_ = 0.0;
  std::array<double, kPhases> in_run_{};  ///< engine phase ms per round
  std::array<double, kPhases> replay_{};  ///< replayed phase ms per round
  double in_run_eval_ms_ = 0.0;           ///< engine ms per evaluation
  double replay_eval_ms_ = 0.0;           ///< replayed ms per evaluation
  double evals_per_round_ = 0.0;
  double messages_per_round_ = 0.0;
  double train_calls_ = 0.0;
};

}  // namespace

LayerReport trace_layers(const TraceInput& in, Tracer& tracer) {
  return LayerTrace(in, tracer).run();
}

}  // namespace jwins::bench::e2e
