// Shared test fixtures: a quadratic model with a known global optimum (the
// classic consensus-optimization testbed for decentralized SGD), a dummy
// dataset to drive it through the Sampler machinery, and the result-
// invariant report every suite that runs experiments asserts on.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

#include "data/dataset.hpp"
#include "nn/model.hpp"
#include "sim/check.hpp"

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

/// Live heap bytes currently held through the global operator new, tracked
/// by test_arena.cpp's counting-allocator hook (the single new/delete
/// replacement the test binary is allowed). Returns -1 when the hook is
/// compiled out (sanitized builds replace the allocator themselves) — memory
/// pin tests must GTEST_SKIP on that value.
std::int64_t live_heap_bytes() noexcept;

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
