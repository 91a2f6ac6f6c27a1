// Central-difference gradient checking for layers and models: the test
// suite's check of every hand-written backward pass.
#pragma once

#include <functional>

#include "nn/model.hpp"
#include "nn/module.hpp"

namespace jwins::nn {

struct GradCheckResult {
  double max_abs_error = 0.0;
  double max_rel_error = 0.0;
  bool ok(double tol = 1e-2) const { return max_rel_error < tol; }
};

/// Checks d(sum of outputs weighted by `seed_grad`)/d(params and input) of a
/// layer against central differences on `input`.
GradCheckResult grad_check_module(Module& module, const Tensor& input,
                                  double epsilon = 1e-3);

/// Checks a full model's parameter gradients on one batch against central
/// differences of the scalar loss.
GradCheckResult grad_check_model(SupervisedModel& model, const Batch& batch,
                                 double epsilon = 1e-3,
                                 std::size_t max_coords = 200);

}  // namespace jwins::nn
