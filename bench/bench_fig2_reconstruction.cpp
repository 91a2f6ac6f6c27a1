// Figure 2: cumulative reconstruction error of DWT vs FFT vs random-sampling
// sparsification during single-node training (10% communication budget).
//
// Protocol (paper §III-A a): train one GN-LeNet-style CNN on the CIFAR-10
// stand-in; after each epoch, sparsify the current model to 10% of its
// floats in each transform domain, reconstruct, and accumulate the MSE
// against the uncompressed model. The paper's result — wavelet loses the
// least information, then FFT, then random sampling — must reproduce.
//
// Two closing tables hold the design ablation's reconstruction columns: the
// trained model's error at the same budget under each wavelet family (four
// levels), and under Sym2 at 1-6 levels. The paper picked Sym2 and saw no
// gain past four levels. Their learning arms are
// scenarios/ablation_wavelet.scenario.

#include <iomanip>
#include <iostream>
#include <random>
#include <span>

#include "bench_util.hpp"
#include "compress/topk.hpp"
#include "data/partition.hpp"
#include "dwt/dwt.hpp"
#include "dwt/fft.hpp"
#include "nn/sgd.hpp"

namespace {

using namespace jwins;

double reconstruction_mse(std::span<const float> a,
                          std::span<const float> b) {
  double acc = 0.0;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const double d = static_cast<double>(a[i]) - b[i];
    acc += d * d;
  }
  return acc / static_cast<double>(a.size());
}

std::vector<float> dwt_sparsify(const dwt::DwtPlan& plan,
                                std::span<const float> x, std::size_t k) {
  dwt::DwtWorkspace ws;
  std::vector<float> coeffs(plan.coeff_length());
  plan.forward_into(x, coeffs, ws);
  std::vector<std::uint32_t> keep;
  compress::topk_indices_into(coeffs, k, keep);
  std::vector<float> sparse(coeffs.size(), 0.0f);
  for (auto idx : keep) sparse[idx] = coeffs[idx];
  std::vector<float> back(x.size());
  plan.inverse_into(sparse, back, ws);
  return back;
}

std::vector<float> random_sparsify(std::span<const float> x, std::size_t k,
                                   std::uint64_t seed) {
  core::Arena arena;
  std::vector<std::uint32_t> keep;
  compress::random_indices_into(x.size(), k, seed, keep, arena);
  std::vector<float> sparse(x.size(), 0.0f);
  for (auto idx : keep) sparse[idx] = x[idx];
  return sparse;
}

}  // namespace

int main(int argc, char** argv) {
  const bench::Flags flags(argc, argv, {"epochs", "budget", "seed"});
  const std::size_t epochs = flags.get("epochs", std::size_t{16});
  const double budget = flags.get("budget", 0.10);
  const std::size_t seed = flags.get("seed", std::size_t{1});

  std::cout << "=== Figure 2: cumulative reconstruction error (budget "
            << budget * 100 << "%) ===\n";

  // Single node: the whole CIFAR-like dataset, GN-LeNet-style CNN.
  sim::Workload w = sim::make_cifar_like(1, static_cast<std::uint32_t>(seed));
  auto model = w.model_factory();
  nn::Sgd opt(*model, {.learning_rate = 0.05f});
  data::Sampler sampler(*w.train, w.partition[0], 16, seed);

  const std::size_t dim = model->parameter_count();
  const std::size_t k = std::max<std::size_t>(1, static_cast<std::size_t>(
                                                     budget * double(dim)));
  const dwt::DwtPlan plan(dwt::sym2(), dim, 4);

  double cum_wavelet = 0.0, cum_fft = 0.0, cum_random = 0.0;
  std::cout << "epoch,cum_mse_wavelet,cum_mse_fft,cum_mse_random\n";
  for (std::size_t epoch = 1; epoch <= epochs; ++epoch) {
    for (std::size_t b = 0; b < sampler.batches_per_epoch(); ++b) {
      const nn::Batch batch = sampler.next();
      model->zero_grad();
      model->loss_and_grad(batch);
      opt.step();
    }
    const std::span<const float> x = model->flat_params();
    cum_wavelet += reconstruction_mse(x, dwt_sparsify(plan, x, k));
    // A complex FFT bin costs two floats of budget (handled inside).
    cum_fft += reconstruction_mse(x, dwt::fft_sparsify_reconstruct(x, k));
    cum_random += reconstruction_mse(x, random_sparsify(x, k, seed * 131 + epoch));
    std::cout << epoch << ',' << std::setprecision(6) << cum_wavelet << ','
              << cum_fft << ',' << cum_random << "\n";
  }

  std::cout << "\npaper shape check: wavelet < fft < random sampling\n";
  std::cout << "  wavelet " << cum_wavelet << (cum_wavelet < cum_fft ? "  <  " : "  >! ")
            << "fft " << cum_fft << (cum_fft < cum_random ? "  <  " : "  >! ")
            << "random " << cum_random << "\n";

  const std::span<const float> trained = model->flat_params();
  std::cout << "\ntrained model, reconstruction MSE by wavelet family "
               "(4 levels)\nwavelet,mse\n";
  for (const char* name : {"haar", "sym2", "db4"}) {
    const dwt::DwtPlan family(dwt::wavelet_by_name(name), dim, 4);
    std::cout << name << ','
              << reconstruction_mse(trained, dwt_sparsify(family, trained, k))
              << "\n";
  }
  std::cout << "\ntrained model, reconstruction MSE by sym2 levels\n"
               "levels,mse\n";
  for (std::size_t levels = 1; levels <= 6; ++levels) {
    const dwt::DwtPlan deep(dwt::sym2(), dim, levels);
    std::cout << levels << ','
              << reconstruction_mse(trained, dwt_sparsify(deep, trained, k))
              << "\n";
  }
  return 0;
}
