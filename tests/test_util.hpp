// Shared test fixtures: a quadratic model with a known global optimum (the
// classic consensus-optimization testbed for decentralized SGD), a dummy
// dataset to drive it through the Sampler machinery, the result-invariant
// report every suite that runs experiments asserts on, and the final-model
// digest the pinned runs compare.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <sstream>
#include <string>

#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "sim/check.hpp"
#include "sim/experiment.hpp"
#include "sim/node_state.hpp"
#include "sim/report.hpp"

namespace jwins::sim {

/// White-box access to an Experiment's node-state layout and, under compact
/// state, its lane workers, state store and metric round.
struct ExperimentTestPeer {
  static algo::DlNode& worker(Experiment& e, unsigned lane) {
    return *e.workers_.at(lane);
  }
  static void bind_worker(Experiment& e, algo::DlNode& w, std::size_t i) {
    e.bind_worker(w, i);
  }
  static const NodeStateStore& store(const Experiment& e) { return *e.store_; }
  static bool compact(const Experiment& e) { return e.compact(); }
  static MetricPoint evaluate(Experiment& e, std::size_t round) {
    return e.evaluate(round, 0.0);
  }
};

}  // namespace jwins::sim

namespace jwins::testutil {

/// sim::check_result's diagnostics, one per line ("" = the run holds every
/// result invariant), so `EXPECT_EQ(check_report(...), "")` prints them all.
inline std::string check_report(const sim::ExperimentResult& result,
                                const sim::ExperimentConfig& config,
                                std::size_t nodes) {
  std::string report;
  for (const std::string& d : sim::check_result(result, config, nodes)) {
    report += d + "\n";
  }
  return report;
}

/// `json`, a sim::write_result_json document, without its top-level
/// `"<name>": {...}` block: compares two reports that differ only there
/// (the async engine's barrier reduction against kSync differs only in its
/// "event_engine" counters).
inline std::string strip_json_block(const std::string& json,
                                    const std::string& name) {
  const std::size_t at = json.find("\n  \"" + name + "\": {");
  if (at == std::string::npos) return json;
  // Every block is followed by another key, so it closes with "\n  },".
  return json.substr(0, at) + json.substr(json.find("\n  },", at) + 5);
}

/// sim::write_result_json's document for `result` without its host-timing
/// "wall_seconds" block, the one part that differs between identical runs.
inline std::string deterministic_json(const sim::ExperimentResult& result,
                                      const std::string& label) {
  std::ostringstream os;
  sim::write_result_json(os, label, result);
  return strip_json_block(os.str(), "wall_seconds");
}

/// FNV-1a over the bytes of the first `n` nodes' final models, in rank
/// order: each node's own parameters under full node state, its store slot
/// under compact state.
inline std::uint64_t model_digest(sim::Experiment& exp, std::size_t n) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto absorb = [&h](std::span<const float> params) {
    const auto* bytes = reinterpret_cast<const unsigned char*>(params.data());
    for (std::size_t b = 0; b < params.size() * sizeof(float); ++b) {
      h = (h ^ bytes[b]) * 0x100000001b3ull;
    }
  };
  using Peer = sim::ExperimentTestPeer;
  for (std::size_t i = 0; i < n; ++i) {
    if (Peer::compact(exp)) {
      absorb(Peer::store(exp).view(i));
    } else {
      absorb(exp.node(i).model().flat_params());
    }
  }
  return h;
}

/// Live heap bytes currently held through the global operator new, tracked
/// by test_arena.cpp's counting-allocator hook (the single new/delete
/// replacement the test binary is allowed). Returns -1 when the hook is
/// compiled out (sanitized builds replace the allocator themselves) — memory
/// pin tests must GTEST_SKIP on that value.
std::int64_t live_heap_bytes() noexcept;

/// High-water mark of live_heap_bytes() since the last
/// reset_peak_heap_bytes() (-1 when the hook is compiled out).
std::int64_t peak_heap_bytes() noexcept;
void reset_peak_heap_bytes() noexcept;

/// f_i(x) = 0.5 ||x - c_i||^2. The global objective (1/n) sum f_i is
/// minimized at mean(c_i), so D-PSGD variants can be checked for convergence
/// to a known point.
class QuadraticModel final : public nn::SupervisedModel {
 public:
  QuadraticModel(tensor::Tensor target, tensor::Tensor init)
      : target_(std::move(target)), x_(std::move(init)), grad_(x_.shape()) {}

  float loss_and_grad(const nn::Batch&) override {
    float loss = 0.0f;
    for (std::size_t i = 0; i < x_.size(); ++i) {
      const float d = x_[i] - target_[i];
      grad_[i] += d;
      loss += 0.5f * d * d;
    }
    return loss;
  }

  nn::EvalMetrics evaluate(const nn::Batch&) override {
    float loss = 0.0f;
    for (std::size_t i = 0; i < x_.size(); ++i) {
      const float d = x_[i] - target_[i];
      loss += 0.5f * d * d;
    }
    return {loss, 1.0 / (1.0 + loss), 1};
  }

  std::vector<tensor::Tensor*> parameters() override { return {&x_}; }
  std::vector<tensor::Tensor*> gradients() override { return {&grad_}; }

  const tensor::Tensor& x() const noexcept { return x_; }

 private:
  tensor::Tensor target_;
  tensor::Tensor x_;
  tensor::Tensor grad_;
};

/// Minimal dataset: batches carry no information (QuadraticModel ignores
/// them), but the Sampler contract requires a non-empty index set.
class DummyDataset final : public data::Dataset {
 public:
  std::size_t size() const override { return 4; }
  nn::Batch make_batch(std::span<const std::size_t> indices) const override {
    nn::Batch b;
    b.x = tensor::Tensor({indices.size(), 1});
    return b;
  }
};

}  // namespace jwins::testutil
