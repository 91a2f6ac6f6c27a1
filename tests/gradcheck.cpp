#include "gradcheck.hpp"

#include <cmath>

namespace jwins::nn {

namespace {

void track(GradCheckResult& result, double analytic, double numeric) {
  const double abs_err = std::fabs(analytic - numeric);
  // Floor the denominator at 1e-3: float32 losses give the central
  // difference ~5e-5 of absolute noise (eps_f32 * |loss| / (2*epsilon)), so
  // gradients below ~1e-3 cannot be distinguished from noise and must not
  // dominate the relative-error statistic.
  const double denom = std::max({std::fabs(analytic), std::fabs(numeric), 1e-3});
  result.max_abs_error = std::max(result.max_abs_error, abs_err);
  result.max_rel_error = std::max(result.max_rel_error, abs_err / denom);
}

}  // namespace

GradCheckResult grad_check_module(Module& module, const Tensor& input,
                                  double epsilon) {
  // Scalar objective: sum of all outputs (seed gradient of ones).
  auto objective = [&](const Tensor& x) {
    return static_cast<double>(module.forward(x).sum());
  };

  Tensor out = module.forward(input);
  module.zero_grad();
  Tensor ones(out.shape(), 1.0f);
  Tensor grad_input = module.backward(ones);

  GradCheckResult result;
  // Input gradient.
  Tensor x = input;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const float orig = x[i];
    x[i] = orig + static_cast<float>(epsilon);
    const double plus = objective(x);
    x[i] = orig - static_cast<float>(epsilon);
    const double minus = objective(x);
    x[i] = orig;
    track(result, grad_input[i], (plus - minus) / (2 * epsilon));
  }
  // Parameter gradients.
  auto params = module.params();
  auto grads = module.grads();
  for (std::size_t p = 0; p < params.size(); ++p) {
    Tensor& theta = *params[p];
    const Tensor& analytic = *grads[p];
    for (std::size_t i = 0; i < theta.size(); ++i) {
      const float orig = theta[i];
      theta[i] = orig + static_cast<float>(epsilon);
      const double plus = objective(input);
      theta[i] = orig - static_cast<float>(epsilon);
      const double minus = objective(input);
      theta[i] = orig;
      track(result, analytic[i], (plus - minus) / (2 * epsilon));
    }
  }
  return result;
}

GradCheckResult grad_check_model(SupervisedModel& model, const Batch& batch,
                                 double epsilon, std::size_t max_coords) {
  model.zero_grad();
  model.loss_and_grad(batch);
  auto params = model.parameters();
  auto grads = model.gradients();

  GradCheckResult result;
  std::size_t checked = 0;
  for (std::size_t p = 0; p < params.size() && checked < max_coords; ++p) {
    Tensor& theta = *params[p];
    const Tensor& analytic = *grads[p];
    // Stride through large tensors so every parameter block gets coverage.
    const std::size_t stride =
        std::max<std::size_t>(1, theta.size() / std::max<std::size_t>(
                                                    1, max_coords / params.size()));
    for (std::size_t i = 0; i < theta.size() && checked < max_coords;
         i += stride, ++checked) {
      const float orig = theta[i];
      theta[i] = orig + static_cast<float>(epsilon);
      const double plus = model.evaluate(batch).loss;
      theta[i] = orig - static_cast<float>(epsilon);
      const double minus = model.evaluate(batch).loss;
      theta[i] = orig;
      track(result, analytic[i], (plus - minus) / (2 * epsilon));
    }
  }
  return result;
}

}  // namespace jwins::nn
