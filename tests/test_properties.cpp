// Cross-cutting property and invariant tests: end-to-end determinism,
// equivalences between algorithm paths, and randomized sweeps that tie the
// modules together.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <random>
#include <sstream>

#include "compress/float_codec.hpp"
#include "core/averaging.hpp"
#include "compress/topk.hpp"
#include "core/sparse_payload.hpp"
#include "dwt/dwt.hpp"
#include "graph/graph.hpp"
#include "net/serializer.hpp"
#include "net/time_model.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

// ------------------------------------------------------------- determinism

sim::ExperimentResult run_once(unsigned threads) {
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 31);
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kJwins;
  cfg.rounds = 12;
  cfg.local_steps = 2;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = 4;
  cfg.eval_sample_limit = 96;
  cfg.eval_node_limit = 4;
  cfg.threads = threads;
  cfg.seed = 31;
  std::mt19937 rng(31);
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::random_regular(n, 4, rng)));
  return exp.run();
}

TEST(Determinism, SequentialRunsAreBitIdentical) {
  const auto a = run_once(1);
  const auto b = run_once(1);
  ASSERT_EQ(a.series.size(), b.series.size());
  for (std::size_t i = 0; i < a.series.size(); ++i) {
    EXPECT_EQ(a.series[i].test_accuracy, b.series[i].test_accuracy);
    EXPECT_EQ(a.series[i].test_loss, b.series[i].test_loss);
    EXPECT_EQ(a.series[i].avg_bytes_per_node, b.series[i].avg_bytes_per_node);
  }
  EXPECT_EQ(a.total_traffic.bytes_sent, b.total_traffic.bytes_sent);
  EXPECT_EQ(a.mean_alpha, b.mean_alpha);
}

// -------------------------------------------- averaging equivalence sweeps

TEST(AveragingEquivalence, DensePartialAverageEqualsMixingMatrix) {
  // When every neighbor contributes a dense vector, partial_average must
  // reproduce the plain Metropolis-Hastings weighted average exactly.
  std::mt19937 rng(5);
  const graph::Graph g = graph::erdos_renyi(10, 0.4, rng);
  const graph::MixingWeights w = graph::metropolis_hastings(g);
  const std::size_t dim = 33;
  std::vector<std::vector<float>> models(10);
  for (auto& m : models) {
    m.resize(dim);
    std::normal_distribution<float> dist(0.0f, 1.0f);
    for (float& v : m) v = dist(rng);
  }
  for (std::size_t i = 0; i < 10; ++i) {
    // Reference: x_i' = w_ii x_i + sum_j w_ij x_j.
    std::vector<double> reference(dim);
    for (std::size_t d = 0; d < dim; ++d) {
      reference[d] = w.self_weight[i] * models[i][d];
    }
    const auto& nbrs = g.neighbors(i);
    std::vector<core::SparsePayload> payloads(nbrs.size());
    std::vector<core::WeightedContribution> contribs;
    for (std::size_t k = 0; k < nbrs.size(); ++k) {
      payloads[k].vector_length = static_cast<std::uint32_t>(dim);
      payloads[k].values = models[nbrs[k]];
      contribs.push_back({w.neighbor_weight[i][k], &payloads[k]});
      for (std::size_t d = 0; d < dim; ++d) {
        reference[d] += w.neighbor_weight[i][k] * models[nbrs[k]][d];
      }
    }
    std::vector<float> result = models[i];
    core::Arena arena;
    core::partial_average(result, w.self_weight[i], contribs, arena);
    for (std::size_t d = 0; d < dim; ++d) {
      EXPECT_NEAR(result[d], reference[d], 1e-5f) << "node " << i << " dim " << d;
    }
  }
}

TEST(AveragingEquivalence, WaveletDomainEqualsParameterDomainWhenDense) {
  // Orthonormal transform + linear averaging commute: averaging dense
  // wavelet vectors then inverting equals averaging the raw parameters.
  const std::size_t dim = 77;
  std::mt19937 rng(9);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> a(dim), b(dim);
  for (float& v : a) v = dist(rng);
  for (float& v : b) v = dist(rng);
  const dwt::DwtPlan plan(dwt::sym2(), dim, 4);
  dwt::DwtWorkspace ws;
  std::vector<float> wa(plan.coeff_length()), wb(plan.coeff_length());
  plan.forward_into(a, wa, ws);
  plan.forward_into(b, wb, ws);
  std::vector<float> wavg(wa.size());
  for (std::size_t i = 0; i < wa.size(); ++i) wavg[i] = 0.5f * (wa[i] + wb[i]);
  std::vector<float> from_wavelet(dim);
  plan.inverse_into(wavg, from_wavelet, ws);
  for (std::size_t i = 0; i < dim; ++i) {
    EXPECT_NEAR(from_wavelet[i], 0.5f * (a[i] + b[i]), 1e-4f);
  }
}

// --------------------------------------------------------- codec sweeps

class FloatCodecDistributions : public ::testing::TestWithParam<int> {};

TEST_P(FloatCodecDistributions, LosslessAcrossValueDistributions) {
  std::mt19937 rng(static_cast<unsigned>(GetParam()));
  std::vector<float> values(999);
  switch (GetParam() % 4) {
    case 0: {  // typical trained weights
      std::normal_distribution<float> d(0.0f, 0.05f);
      for (float& v : values) v = d(rng);
      break;
    }
    case 1: {  // heavy-tailed
      std::cauchy_distribution<float> d(0.0f, 1.0f);
      for (float& v : values) v = d(rng);
      break;
    }
    case 2: {  // mostly zeros with spikes (sparse residuals)
      std::uniform_real_distribution<float> d(0.0f, 1.0f);
      for (float& v : values) v = d(rng) < 0.9f ? 0.0f : d(rng) * 100.0f;
      break;
    }
    default: {  // tiny magnitudes near denormals
      std::uniform_real_distribution<float> d(-1e-37f, 1e-37f);
      for (float& v : values) v = d(rng);
      break;
    }
  }
  compress::BitWriter bits;
  compress::compress_floats(values, bits);
  std::vector<float> back;
  compress::decompress_floats_into(bits.bytes(), values.size(), back);
  ASSERT_EQ(back.size(), values.size());
  for (std::size_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back[i]),
              std::bit_cast<std::uint32_t>(values[i]));
  }
}

INSTANTIATE_TEST_SUITE_P(Distributions, FloatCodecDistributions,
                         ::testing::Range(0, 8));

// -------------------------------------------------------- dwt random sweep

class DwtRandomLengths : public ::testing::TestWithParam<unsigned> {};

TEST_P(DwtRandomLengths, ReconstructionForArbitraryLengths) {
  std::mt19937 rng(GetParam());
  std::uniform_int_distribution<std::size_t> len_dist(1, 3000);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (int trial = 0; trial < 5; ++trial) {
    const std::size_t n = len_dist(rng);
    std::vector<float> x(n);
    for (float& v : x) v = dist(rng);
    const dwt::DwtPlan plan(dwt::sym2(), n, 4);
    dwt::DwtWorkspace ws;
    std::vector<float> coeffs(plan.coeff_length()), back(n);
    plan.forward_into(x, coeffs, ws);
    plan.inverse_into(coeffs, back, ws);
    float worst = 0.0f;
    for (std::size_t i = 0; i < n; ++i) {
      worst = std::max(worst, std::fabs(back[i] - x[i]));
    }
    EXPECT_LT(worst, 5e-4f) << "length " << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DwtRandomLengths, ::testing::Range(1u, 7u));

// ----------------------------------------------------- serializer property

TEST(SerializerProperty, InterleavedSequencesRoundTrip) {
  std::mt19937_64 rng(77);
  for (int trial = 0; trial < 30; ++trial) {
    net::ByteWriter w;
    std::vector<int> script;
    std::vector<std::uint64_t> ints;
    std::vector<std::vector<float>> arrays;
    for (int op = 0; op < 20; ++op) {
      const int kind = static_cast<int>(rng() % 2);
      script.push_back(kind);
      if (kind == 0) {
        ints.push_back(rng());
        w.write_u64(ints.back());
      } else {
        std::vector<float> arr(rng() % 17);
        for (float& v : arr) {
          v = static_cast<float>(static_cast<double>(rng()) / 1e18);
        }
        arrays.push_back(arr);
        w.write_f32_array(arr);
      }
    }
    net::ByteReader r(w.buffer());
    std::size_t ii = 0, ai = 0;
    for (int kind : script) {
      if (kind == 0) {
        EXPECT_EQ(r.read_u64(), ints[ii++]);
      } else {
        EXPECT_EQ(r.read_f32_array(), arrays[ai++]);
      }
    }
    EXPECT_TRUE(r.exhausted());
  }
}

// ------------------------------------------------ async engine fuzz sweep
//
// Randomized end-to-end sweep over the discrete-event engine
// (sim/event_engine.hpp): each seed draws a small topology, a staleness
// bound, heterogeneous link times, and a fault cocktail (stragglers, i.i.d.
// drops, crash/rejoin, correlated bursts, a simulated-time budget), then
// checks what must hold for EVERY configuration — termination without
// deadlock (the engine throws on quiescence with live blocked nodes rather
// than hanging), every result invariant of sim::check_result (the
// message-conservation ledger, staleness-histogram consistency, the
// termination shape, the attack ledger), and bit-identical replay of the
// result JSON.

struct FuzzRun {
  sim::ExperimentConfig cfg;
  std::size_t nodes = 0;
  sim::ExperimentResult result;
  std::string json;
};

FuzzRun run_async_fuzz(unsigned seed) {
  std::mt19937 rng(seed);
  const std::size_t n = 3 + rng() % 6;       // 3..8 nodes
  const std::size_t rounds = 3 + rng() % 6;  // 3..8 rounds

  FuzzRun out;
  out.nodes = n;
  sim::ExperimentConfig& cfg = out.cfg;
  cfg.algorithm = sim::Algorithm::kFullSharing;
  cfg.rounds = rounds;
  cfg.local_steps = 1;
  cfg.sgd.learning_rate = 0.05f;
  cfg.eval_every = rounds;
  cfg.eval_sample_limit = 4;
  cfg.seed = seed * 7919ull + 1;
  cfg.engine = sim::EngineKind::kAsync;
  cfg.staleness_bound = rng() % 4;  // 0 = barrier .. 3
  cfg.compute_seconds_per_round =
      0.01 + 0.001 * static_cast<double>(rng() % 50);
  if (rng() % 2 == 0) {  // WAN-like latency spread: arrivals interleave
    cfg.time.latency_dist = {net::LinkDist::Kind::kUniform, 0.001,
                             0.001 + 0.002 * static_cast<double>(1 + rng() % 30)};
  }
  if (rng() % 3 == 0) {  // heterogeneous bandwidth
    cfg.time.bandwidth_dist = {net::LinkDist::Kind::kLognormal, 1e6, 0.5};
  }
  if (rng() % 3 == 0) {  // slow minority
    cfg.time.straggler_fraction = 0.4;
    cfg.time.straggler_slowdown = 2.0 + static_cast<double>(rng() % 4);
  }
  if (rng() % 3 == 0) {  // lossy fabric
    cfg.message_drop_probability = 0.05 * static_cast<double>(1 + rng() % 5);
  }
  if (rng() % 4 == 0) {  // crash, sometimes permanent
    cfg.time.crash_nodes = 1;
    cfg.time.crash_at = 1 + rng() % (rounds - 1);
    cfg.time.rejoin_at =
        rng() % 2 == 0 ? 0 : cfg.time.crash_at + 1 + rng() % 2;
  }
  if (rng() % 4 == 0) {  // correlated burst outages
    cfg.time.burst_every = 2 + rng() % 3;
    cfg.time.burst_length = 1;
    cfg.time.burst_drop = 0.5;
  }
  if (rng() % 3 == 0) {  // simulated-time budget cutting the run mid-flight
    cfg.stop_at_sim_time =
        cfg.compute_seconds_per_round * static_cast<double>(rounds) * 0.6;
  }
  // Aggregation mode, drawn LAST so barrier seeds keep their exact draw
  // sequence. Free/weighted have no staleness gate: the drawn bound is
  // overridden to 0 (config validation enforces the same rule).
  switch (rng() % 3) {
    case 0:
      break;  // barrier, whatever bound was drawn
    case 1:
      cfg.async_mode = sim::AsyncMode::kFree;
      cfg.staleness_bound = 0;
      break;
    default:
      cfg.async_mode = sim::AsyncMode::kWeighted;
      cfg.staleness_bound = 0;
      cfg.staleness_decay = 0.25 + 0.25 * static_cast<double>(rng() % 3);
      break;
  }
  // Adversarial cocktail, drawn after EVERYTHING else so benign seeds keep
  // the exact configurations they had before the byzantine layer existed.
  // Attacks are only drawn for crash-free seeds: the seeded crash and
  // victim sets can collide, and validate() (correctly) rejects a node
  // that is both crashed and byzantine.
  if (cfg.time.crash_nodes == 0 && rng() % 3 == 0) {
    cfg.byzantine_nodes = 1 + rng() % 2;  // n >= 3 keeps an honest majority
    switch (rng() % 3) {
      case 0:
        cfg.byzantine_mode = algo::ByzantineMode::kRandom;
        break;
      case 1:
        cfg.byzantine_mode = algo::ByzantineMode::kSignFlip;
        break;
      default:
        cfg.byzantine_mode = algo::ByzantineMode::kScale;
        cfg.byzantine_scale = -5.0 + static_cast<double>(rng() % 11);
        break;
    }
  }
  if (rng() % 3 == 0) {  // defense, with or without an attack to defend from
    switch (rng() % 3) {
      case 0:
        cfg.robust_agg.kind = core::RobustAggKind::kTrimmedMean;
        cfg.robust_agg.trim_fraction =
            0.1 + 0.1 * static_cast<double>(rng() % 4);
        break;
      case 1:
        cfg.robust_agg.kind = core::RobustAggKind::kMedian;
        break;
      default:
        cfg.robust_agg.kind = core::RobustAggKind::kNormClip;
        cfg.robust_agg.clip_norm = 0.5 + 0.5 * static_cast<double>(rng() % 4);
        break;
    }
  }

  data::Partition partition(n, {0, 1, 2, 3});
  auto counter = std::make_shared<std::size_t>(0);
  nn::ModelFactory factory =
      [counter]() -> std::unique_ptr<nn::SupervisedModel> {
    const std::size_t r = (*counter)++;
    constexpr std::size_t kDim = 12;
    tensor::Tensor target({kDim});
    for (std::size_t i = 0; i < kDim; ++i) {
      target[i] = std::sin(0.4f * static_cast<float>(i + 1) *
                           static_cast<float>(r + 1));
    }
    std::mt19937 init_rng(2000 + static_cast<unsigned>(r));
    return std::make_unique<jwins::testutil::QuadraticModel>(
        target, tensor::Tensor::normal({kDim}, 0.0f, 1.0f, init_rng));
  };
  static jwins::testutil::DummyDataset dataset;
  std::mt19937 topo_rng(seed + 13);
  graph::Graph g =
      n >= 4 ? graph::random_regular(n, 2, topo_rng) : graph::complete(n);
  sim::Experiment exp(cfg, factory, dataset, partition, dataset,
                      std::make_unique<graph::StaticTopology>(g));
  out.result = exp.run();
  out.json = testutil::deterministic_json(out.result, "fuzz");
  return out;
}

class AsyncEngineFuzz : public ::testing::TestWithParam<unsigned> {};

TEST_P(AsyncEngineFuzz, TerminatesConservesAndReplaysBitIdentically) {
  const unsigned seed = GetParam();
  FuzzRun a;
  ASSERT_NO_THROW(a = run_async_fuzz(seed)) << "seed " << seed;
  const sim::ExperimentResult& r = a.result;
  const sim::EventEngineStats& ee = r.event_engine;
  SCOPED_TRACE(::testing::Message()
               << "seed " << seed << " mode "
               << sim::async_mode_name(a.cfg.async_mode) << " bound "
               << a.cfg.staleness_bound);
  ASSERT_TRUE(ee.enabled);
  EXPECT_GT(ee.events_processed, 0u);

  // Conservation, histogram consistency, phase attribution, termination
  // shape and the attack ledger: every identity a result must satisfy.
  EXPECT_EQ(testutil::check_report(r, a.cfg, a.nodes), "");

  // Replay: the same seed must reproduce the result JSON byte for byte.
  const FuzzRun b = run_async_fuzz(seed);
  EXPECT_EQ(a.json, b.json);
}

INSTANTIATE_TEST_SUITE_P(Seeds, AsyncEngineFuzz, ::testing::Range(0u, 100u));

// ------------------------------------------------- payload fuzz-ish check

TEST(PayloadProperty, RandomSparsitiesRoundTripAllEncodings) {
  std::mt19937_64 rng(123);
  std::mt19937 vrng(321);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  for (int trial = 0; trial < 25; ++trial) {
    const std::size_t n = 1 + rng() % 5000;
    const std::size_t k = 1 + rng() % n;
    core::SparsePayload payload;
    payload.vector_length = static_cast<std::uint32_t>(n);
    core::Arena arena;
    compress::random_indices_into(n, k, rng(), payload.indices, arena);
    payload.values.resize(payload.indices.size());
    for (float& v : payload.values) v = dist(vrng);
    for (const auto index_mode :
         {core::IndexEncoding::kEliasGamma, core::IndexEncoding::kRaw}) {
      for (const auto value_mode :
           {core::ValueEncoding::kXorCodec, core::ValueEncoding::kRaw}) {
        core::PayloadOptions options;
        options.index_encoding = index_mode;
        options.value_encoding = value_mode;
        net::ByteWriter body;
        compress::BitWriter bits;
        core::encode_payload_into(payload, options, body, bits);
        core::SparsePayload back;
        core::decode_payload_into(body.buffer(), back, arena);
        EXPECT_EQ(back.indices, payload.indices);
        EXPECT_EQ(back.values, payload.values);
      }
    }
  }
}

}  // namespace
}  // namespace jwins
