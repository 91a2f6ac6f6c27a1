// Micro-benchmarks for the primitives on JWINS' hot path: DWT/IDWT, TopK,
// Elias index coding, the XOR float codec, payload serialization, partial
// averaging, seed-mode random index draws, QSGD quantization, message
// fan-out, the Conv2d forward and backward passes at the cifar model's two
// shapes, and one CNN/LSTM training step.
//
// Every hot-path kernel has one API, writing into caller-owned buffers,
// arenas or workspaces; its row, <name>/scratch, measures it with that
// scratch kept across iterations, as the engine runs it. The kernels that
// the tests pin against a simple reference (DWT, top-k, the seed-mode index
// draw, XOR codec, QSGD) carry two rows from the same run:
// <name>/scratch/fast times the shipped kernel, <name>/scratch/scalar the
// reference from tests/*_reference.hpp (group "reference"), so their ratio
// is the kernel's speedup. The /fresh
// rows that timed the deleted allocating twins are retired (the names stay
// in BENCH_baseline.json and BENCH_1.json); the kernels without scratch
// state (fft_real, the Conv2d passes, the train steps) keep their /fresh
// names.
//
// The harness is dependency-free: a steady_clock loop that also reports
// heap allocations per op via a global operator new/delete counting hook.
// It prints one line per kernel to stderr and emits the stable JSON schema
// documented in docs/PERFORMANCE.md to PATH (--json=PATH) or to stdout.
// BENCH_baseline.json at the repo root is a checked-in snapshot.
//
// Usage: bench_micro [--json[=PATH]] [--filter=SUBSTR] [--min-time-ms=N]
//                    [--list]

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <iostream>
#include <memory>
#include <new>
#include <random>
#include <string>
#include <tuple>
#include <vector>

#include "compress/elias.hpp"
#include "compress/float_codec.hpp"
#include "compress/quantize.hpp"
#include "compress/topk.hpp"
#include "core/averaging.hpp"
#include "core/scratch.hpp"
#include "core/sparse_payload.hpp"
#include "dwt/dwt.hpp"
#include "dwt/fft.hpp"
#include "net/buffer.hpp"
#include "net/serializer.hpp"
#include "nn/models.hpp"
#include "nn/sgd.hpp"

// The test references, from tests/ (on this target's include path only).
#include "bit_reference.hpp"
#include "dwt_reference.hpp"
#include "float_codec_reference.hpp"
#include "quantize_reference.hpp"
#include "random_indices_reference.hpp"
#include "topk_reference.hpp"

// ---------------------------------------------------------------------------
// Allocation-counting hook: global operator new/delete overrides tallying
// every heap allocation made by this binary. The harness snapshots the
// counters around each timed loop, so allocs/op and bytes/op come straight
// from the allocator, not from estimates. JWINS_NOINLINE keeps the
// replacement functions out of inlined call sites (GCC would otherwise pair
// an inlined std::free with the standard operator new and warn).
#if defined(__GNUC__) || defined(__clang__)
#define JWINS_NOINLINE __attribute__((noinline))
#else
#define JWINS_NOINLINE
#endif

namespace {
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};
}  // namespace

JWINS_NOINLINE void* operator new(std::size_t size) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) return p;
  throw std::bad_alloc();
}

JWINS_NOINLINE void* operator new[](std::size_t size) {
  return ::operator new(size);
}

JWINS_NOINLINE void* operator new(std::size_t size, std::align_val_t align) {
  g_alloc_count.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  if (void* p = std::aligned_alloc(static_cast<std::size_t>(align),
                                   (size + static_cast<std::size_t>(align) - 1) &
                                       ~(static_cast<std::size_t>(align) - 1))) {
    return p;
  }
  throw std::bad_alloc();
}

JWINS_NOINLINE void* operator new[](std::size_t size, std::align_val_t align) {
  return ::operator new(size, align);
}

JWINS_NOINLINE void operator delete(void* p) noexcept { std::free(p); }
JWINS_NOINLINE void operator delete[](void* p) noexcept { std::free(p); }
JWINS_NOINLINE void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
JWINS_NOINLINE void operator delete[](void* p, std::size_t) noexcept {
  std::free(p);
}
JWINS_NOINLINE void operator delete(void* p, std::align_val_t) noexcept {
  std::free(p);
}
JWINS_NOINLINE void operator delete[](void* p, std::align_val_t) noexcept {
  std::free(p);
}
JWINS_NOINLINE void operator delete(void* p, std::size_t,
                                    std::align_val_t) noexcept {
  std::free(p);
}
JWINS_NOINLINE void operator delete[](void* p, std::size_t,
                                      std::align_val_t) noexcept {
  std::free(p);
}

namespace {

using namespace jwins;

std::vector<float> random_floats(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> out(n);
  for (float& v : out) v = dist(rng);
  return out;
}

/// Keeps the optimizer from deleting a kernel's result (a DoNotOptimize).
#if defined(__GNUC__) || defined(__clang__)
inline void consume(const void* p) {
  asm volatile("" : : "g"(p) : "memory");
}
#else
inline void consume(const void* p) {
  static volatile const void* sink;
  sink = p;
}
#endif

struct Kernel {
  std::string name;   ///< e.g. "dwt_forward/16384/scratch"
  std::string group;  ///< "fig5" (hot path), "sampling", "choco", "train",
                      ///< or "reference" (test references)
  std::function<void()> fn;
};

// Kernel state is owned by shared_ptr closures so one registry serves both
// frontends; scratch variants deliberately keep their buffers across
// iterations — that persistence IS the steady state being measured.
std::vector<Kernel> build_kernels() {
  std::vector<Kernel> kernels;
  auto add = [&](std::string name, std::string group, std::function<void()> fn) {
    kernels.push_back({std::move(name), std::move(group), std::move(fn)});
  };
  // A kernel with a test reference: the kernel as <name>/fast in `group`,
  // the reference as <name>/scalar in the "reference" group, so the fig5
  // summary sums the same rows as a run without references. Consumers
  // comparing across documents strip the suffix (tests/test_bench_schema.cpp).
  auto add_with_reference = [&](const std::string& name, std::string group,
                                std::function<void()> kernel,
                                std::function<void()> reference) {
    add(name + "/fast", std::move(group), std::move(kernel));
    add(name + "/scalar", "reference", std::move(reference));
  };

  // --- DWT ----------------------------------------------------------------
  {
    const std::size_t n = 1 << 14;
    auto plan = std::make_shared<dwt::DwtPlan>(dwt::sym2(), n, 4);
    auto x = std::make_shared<std::vector<float>>(random_floats(n, 1));
    auto coeffs = std::make_shared<std::vector<float>>(plan->coeff_length());
    auto ws = std::make_shared<dwt::DwtWorkspace>();
    auto ref_coeffs = std::make_shared<std::vector<float>>(plan->coeff_length());
    auto ref_ws = std::make_shared<dwt::DwtWorkspace>();
    add_with_reference(
        "dwt_forward/16384/scratch", "fig5",
        [=] {
          plan->forward_into(*x, *coeffs, *ws);
          consume(coeffs->data());
        },
        [=] {
          testref::ref_dwt_forward(*plan, *x, *ref_coeffs, *ref_ws);
          consume(ref_coeffs->data());
        });
    auto fwd = std::make_shared<std::vector<float>>(plan->coeff_length());
    plan->forward_into(*x, *fwd, *ws);
    auto out = std::make_shared<std::vector<float>>(n);
    auto ws2 = std::make_shared<dwt::DwtWorkspace>();
    auto ref_out = std::make_shared<std::vector<float>>(n);
    auto ref_ws2 = std::make_shared<dwt::DwtWorkspace>();
    add_with_reference(
        "dwt_inverse/16384/scratch", "fig5",
        [=] {
          plan->inverse_into(*fwd, *out, *ws2);
          consume(out->data());
        },
        [=] {
          testref::ref_dwt_inverse(*plan, *fwd, *ref_out, *ref_ws2);
          consume(ref_out->data());
        });
  }

  // --- TopK ---------------------------------------------------------------
  {
    const std::size_t n = 1 << 16;
    auto x = std::make_shared<std::vector<float>>(random_floats(n, 4));
    auto idx = std::make_shared<std::vector<std::uint32_t>>();
    auto ref_idx = std::make_shared<std::vector<std::uint32_t>>();
    add_with_reference(
        "topk/65536/scratch", "fig5",
        [=] {
          compress::topk_indices_into(*x, n / 10, *idx);
          consume(idx->data());
        },
        [=] {
          testref::ref_topk_indices(*x, n / 10, *ref_idx);
          consume(ref_idx->data());
        });
  }
  {
    // The movielens model size at alpha = 0.25, on JWINS-like scores: 87 %
    // exact zeros (+0.0 and -0.0), so the k-th magnitude is a zero tie.
    const std::size_t n = 3360;
    auto x = std::make_shared<std::vector<float>>(random_floats(n, 6));
    std::mt19937 rng(6);
    for (float& v : *x) {
      const unsigned pick = rng() % 100;
      if (pick < 87) v = pick % 2 == 0 ? 0.0f : -0.0f;
    }
    auto idx = std::make_shared<std::vector<std::uint32_t>>();
    auto ref_idx = std::make_shared<std::vector<std::uint32_t>>();
    add_with_reference(
        "topk/3360/scratch", "fig5",
        [=] {
          compress::topk_indices_into(*x, n / 4, *idx);
          consume(idx->data());
        },
        [=] {
          testref::ref_topk_indices(*x, n / 4, *ref_idx);
          consume(ref_idx->data());
        });
  }

  // --- Elias index gaps ---------------------------------------------------
  {
    const std::size_t n = 1 << 16;
    const auto values = random_floats(n, 5);
    auto indices = std::make_shared<std::vector<std::uint32_t>>();
    compress::topk_indices_into(values, n / 10, *indices);
    auto bits = std::make_shared<compress::BitWriter>();
    add("elias_encode/6554/scratch", "fig5", [=] {
      bits->clear();
      compress::encode_index_gaps(*indices, *bits);
      consume(bits->bytes().data());
    });
    compress::BitWriter encoder;
    compress::encode_index_gaps(*indices, encoder);
    auto encoded = std::make_shared<std::vector<std::uint8_t>>(
        std::move(encoder).finish());
    auto decoded = std::make_shared<std::vector<std::uint32_t>>();
    add("elias_decode/6554/scratch", "fig5", [=] {
      compress::decode_index_gaps_into(*encoded, indices->size(), *decoded);
      consume(decoded->data());
    });
  }

  // --- XOR float codec ----------------------------------------------------
  {
    const std::size_t n = 1 << 14;
    auto x = std::make_shared<std::vector<float>>(random_floats(n, 7));
    auto bits = std::make_shared<compress::BitWriter>();
    auto ref_bits = std::make_shared<compress::BitWriter>();
    add_with_reference(
        "xor_compress/16384/scratch", "fig5",
        [=] {
          bits->clear();
          compress::compress_floats(*x, *bits);
          consume(bits->bytes().data());
        },
        [=] {
          ref_bits->clear();
          testref::ref_compress_floats(*x, *ref_bits);
          consume(ref_bits->bytes().data());
        });
    compress::BitWriter encoder;
    compress::compress_floats(*x, encoder);
    auto encoded = std::make_shared<std::vector<std::uint8_t>>(
        std::move(encoder).finish());
    auto decoded = std::make_shared<std::vector<float>>();
    auto ref_decoded = std::make_shared<std::vector<float>>();
    // The decoder's reference reads one bit per step (bit_reference.hpp).
    add_with_reference(
        "xor_decompress/16384/scratch", "fig5",
        [=] {
          compress::decompress_floats_into(*encoded, n, *decoded);
          consume(decoded->data());
        },
        [=] {
          testref::ref_decompress_floats(*encoded, n, *ref_decoded);
          consume(ref_decoded->data());
        });
  }

  // --- Payload codec ------------------------------------------------------
  {
    const std::size_t n = 1 << 14;
    auto payload = std::make_shared<core::SparsePayload>();
    payload->vector_length = static_cast<std::uint32_t>(n);
    const auto values = random_floats(n, 9);
    compress::topk_indices_into(values, n / 10, payload->indices);
    compress::gather_into(values, payload->indices, payload->values);
    auto writer = std::make_shared<net::ByteWriter>();
    auto bits = std::make_shared<compress::BitWriter>();
    add("payload_encode/16384/scratch", "fig5", [=] {
      writer->clear();
      core::encode_payload_into(*payload, {}, *writer, *bits);
      consume(writer->buffer().data());
    });
    core::encode_payload_into(*payload, {}, *writer, *bits);
    auto body = std::make_shared<std::vector<std::uint8_t>>(writer->buffer());
    auto out = std::make_shared<core::SparsePayload>();
    auto arena = std::make_shared<core::Arena>();
    add("payload_decode/16384/scratch", "fig5", [=] {
      arena->reset();
      core::decode_payload_into(*body, *out, *arena);
      consume(out->values.data());
    });
  }

  // --- Partial averaging --------------------------------------------------
  {
    const std::size_t n = 1 << 14;
    auto own = std::make_shared<std::vector<float>>(random_floats(n, 10));
    auto payloads = std::make_shared<std::vector<core::SparsePayload>>(4);
    auto contribs = std::make_shared<std::vector<core::WeightedContribution>>();
    auto arena = std::make_shared<core::Arena>();
    for (std::size_t j = 0; j < 4; ++j) {
      (*payloads)[j].vector_length = static_cast<std::uint32_t>(n);
      compress::random_indices_into(n, n / 3, j + 1, (*payloads)[j].indices,
                                    *arena);
      (*payloads)[j].values =
          random_floats(n / 3, 11 + static_cast<unsigned>(j));
      contribs->push_back({0.2, &(*payloads)[j]});
    }
    auto x = std::make_shared<std::vector<float>>(n);
    // `payloads` must be captured explicitly: contribs holds raw pointers
    // into it, and [=] would only copy the shared_ptrs the body names.
    add("partial_average/16384/scratch", "fig5",
        [x, own, contribs, payloads, arena] {
          arena->reset();
          *x = *own;
          core::partial_average(*x, 0.2, *contribs, *arena);
          consume(x->data());
        });
  }

  // --- Seed-mode index draw (random sampling) ----------------------------
  // scale100k_compact's shape: 21 of a 58-parameter model, a fresh seed per
  // call as every sender and receiver draws. Its own group, so the fig5
  // summary keeps its meaning.
  {
    auto indices = std::make_shared<std::vector<std::uint32_t>>();
    auto arena = std::make_shared<core::Arena>();
    auto seed = std::make_shared<std::uint64_t>(0);
    auto ref_indices = std::make_shared<std::vector<std::uint32_t>>();
    auto ref_seed = std::make_shared<std::uint64_t>(0);
    add_with_reference(
        "random_indices/58/21/scratch", "sampling",
        [=] {
          arena->reset();
          compress::random_indices_into(58, 21, ++*seed, *indices, *arena);
          consume(indices->data());
        },
        [=] {
          testref::ref_random_indices(58, 21, ++*ref_seed, *ref_indices);
          consume(ref_indices->data());
        });
  }
  {
    // The whole decode a scale100k_compact receiver runs per message: the
    // header, the index set re-drawn from the seed, the XOR-coded values.
    // Each call decodes the next of 1024 bodies with distinct seeds, as
    // every message carries its own, so no branch history repeats.
    auto bodies = std::make_shared<std::vector<std::vector<std::uint8_t>>>();
    core::Arena draw_arena;
    net::ByteWriter writer;
    compress::BitWriter bits;
    for (std::uint64_t seed = 1; seed <= 1024; ++seed) {
      core::SparsePayload payload;
      payload.vector_length = 58;
      const auto values = random_floats(58, static_cast<unsigned>(seed));
      draw_arena.reset();
      compress::random_indices_into(58, 21, seed, payload.indices, draw_arena);
      compress::gather_into(values, payload.indices, payload.values);
      core::PayloadOptions options;
      options.index_encoding = core::IndexEncoding::kSeed;
      options.seed = seed;
      writer.clear();
      core::encode_payload_into(payload, options, writer, bits);
      bodies->push_back(writer.buffer());
    }
    auto out = std::make_shared<core::SparsePayload>();
    auto arena = std::make_shared<core::Arena>();
    auto next = std::make_shared<std::size_t>(0);
    add("payload_decode/seed/58/21/scratch", "sampling", [=] {
      arena->reset();
      core::decode_payload_into((*bodies)[*next], *out, *arena);
      *next = (*next + 1) % bodies->size();
      consume(out->values.data());
    });
  }

  // --- Message fan-out (share to 4 neighbors) -----------------------------
  {
    const std::size_t n = 1 << 14;
    auto payload = std::make_shared<core::SparsePayload>();
    payload->vector_length = static_cast<std::uint32_t>(n);
    const auto values = random_floats(n, 12);
    compress::topk_indices_into(values, n / 10, payload->indices);
    compress::gather_into(values, payload->indices, payload->values);
    auto sink = std::make_shared<std::vector<net::Message>>();
    auto pool = std::make_shared<net::BufferPool>();
    auto bits = std::make_shared<compress::BitWriter>();
    add("message_fanout4/16384/scratch", "fig5", [=] {
      // Pooled body, refcount-shared across the 4 receivers.
      sink->clear();
      const net::Message msg =
          core::make_message(0, 0, *payload, {}, *pool, *bits);
      for (int j = 0; j < 4; ++j) sink->push_back(msg);
      consume(sink->data());
    });
  }

  // --- QSGD (CHOCO's quantizing arm) --------------------------------------
  {
    const std::size_t n = 1 << 14;
    auto x = std::make_shared<std::vector<float>>(random_floats(n, 13));
    auto rng = std::make_shared<std::mt19937_64>(17);
    auto q = std::make_shared<compress::QuantizedVector>();
    auto ref_rng = std::make_shared<std::mt19937_64>(17);
    auto ref_q = std::make_shared<compress::QuantizedVector>();
    add_with_reference(
        "qsgd_quantize/16384/scratch", "choco",
        [=] {
          compress::qsgd_quantize_into(*x, 15, *rng, *q);
          consume(q->packed.data());
        },
        [=] {
          testref::ref_qsgd_quantize(std::span<const float>(*x), 15, *ref_rng,
                                     *ref_q);
          consume(ref_q->packed.data());
        });
  }

  // --- FFT (kept for the reconstruction study; no scratch variant) --------
  {
    const std::size_t n = 1 << 14;
    auto x = std::make_shared<std::vector<float>>(random_floats(n, 3));
    add("fft_real/16384/fresh", "dwt", [=] {
      auto spectrum = dwt::fft_real(*x);
      consume(spectrum.data());
    });
  }

  // --- Conv2d at the cifar model's two shapes (batch 16) -----------------
  for (const auto& [tag, in_ch, out_ch, side] :
       {std::tuple{"b16_3to8_8x8", 3, 8, 8}, std::tuple{"b16_8to16_4x4", 8, 16, 4}}) {
    std::mt19937 rng(14);
    auto conv = std::make_shared<nn::Conv2d>(in_ch, out_ch, 3, 1, 1, rng);
    const tensor::Tensor x = tensor::Tensor::normal(
        {16, static_cast<std::size_t>(in_ch), static_cast<std::size_t>(side),
         static_cast<std::size_t>(side)},
        0.0f, 1.0f, rng);
    // Backward reads the input cached by this first forward.
    auto gy = std::make_shared<tensor::Tensor>(
        tensor::Tensor::normal(conv->forward(x).shape(), 0.0f, 1.0f, rng));
    add(std::string("conv_forward/") + tag + "/fresh", "train", [conv, x] {
      const tensor::Tensor y = conv->forward(x);
      consume(y.raw());
    });
    add(std::string("conv_backward/") + tag + "/fresh", "train", [conv, gy] {
      conv->zero_grad();
      const tensor::Tensor gx = conv->backward(*gy);
      consume(gx.raw());
    });
  }

  // --- Model training steps ----------------------------------------------
  {
    nn::CnnClassifier::Config cfg;
    auto model = std::make_shared<nn::CnnClassifier>(cfg, 1);
    auto opt = std::make_shared<nn::Sgd>(
        *model, nn::Sgd::Options{.learning_rate = 0.05f});
    auto batch = std::make_shared<nn::Batch>();
    std::mt19937 rng(2);
    batch->x = tensor::Tensor::normal({16, 3, 8, 8}, 0.0f, 1.0f, rng);
    batch->labels.resize(16);
    for (std::size_t i = 0; i < 16; ++i) {
      batch->labels[i] = static_cast<int>(i % 10);
    }
    add("cnn_train_step/fresh", "train", [=] {
      model->zero_grad();
      volatile float loss = model->loss_and_grad(*batch);
      (void)loss;
      opt->step();
    });
  }
  {
    nn::CharLstm::Config cfg;
    cfg.vocab = 30;
    cfg.embedding_dim = 12;
    cfg.hidden = 24;
    cfg.layers = 2;
    auto model = std::make_shared<nn::CharLstm>(cfg, 1);
    auto opt = std::make_shared<nn::Sgd>(
        *model, nn::Sgd::Options{.learning_rate = 0.05f});
    auto batch = std::make_shared<nn::Batch>();
    batch->x = tensor::Tensor({8, 16});
    batch->labels.resize(8 * 16);
    std::mt19937 rng(3);
    std::uniform_int_distribution<int> tok(0, 29);
    for (std::size_t i = 0; i < batch->x.size(); ++i) {
      batch->x[i] = static_cast<float>(tok(rng));
      batch->labels[i] = tok(rng);
    }
    add("lstm_train_step/fresh", "train", [=] {
      model->zero_grad();
      volatile float loss = model->loss_and_grad(*batch);
      (void)loss;
      opt->step();
    });
  }

  return kernels;
}

// ---------------------------------------------------------------------------
// Dependency-free harness + JSON emitter

struct KernelResult {
  std::string name;
  std::string group;
  std::uint64_t iterations = 0;
  double ns_per_op = 0.0;
  double allocs_per_op = 0.0;
  double alloc_bytes_per_op = 0.0;
};

KernelResult measure(const Kernel& kernel, double min_time_ms) {
  using clock = std::chrono::steady_clock;
  // Warm up: reach the scratch buffers' steady state (capacities grown,
  // arenas consolidated) before anything is recorded.
  for (int i = 0; i < 3; ++i) kernel.fn();
  // Calibrate batch size until the timed loop spans min_time_ms.
  std::uint64_t iters = 1;
  double elapsed_ns = 0.0;
  std::uint64_t alloc_count = 0;
  std::uint64_t alloc_bytes = 0;
  for (;;) {
    const std::uint64_t count0 = g_alloc_count.load(std::memory_order_relaxed);
    const std::uint64_t bytes0 = g_alloc_bytes.load(std::memory_order_relaxed);
    const auto start = clock::now();
    for (std::uint64_t i = 0; i < iters; ++i) kernel.fn();
    elapsed_ns = std::chrono::duration<double, std::nano>(clock::now() - start)
                     .count();
    alloc_count = g_alloc_count.load(std::memory_order_relaxed) - count0;
    alloc_bytes = g_alloc_bytes.load(std::memory_order_relaxed) - bytes0;
    if (elapsed_ns >= min_time_ms * 1e6 || iters >= (1ull << 30)) break;
    const double target = min_time_ms * 1e6 * 1.2;
    const double grow = elapsed_ns > 0 ? target / elapsed_ns : 16.0;
    iters = std::max(iters + 1, static_cast<std::uint64_t>(
                                    static_cast<double>(iters) * grow));
  }
  KernelResult r;
  r.name = kernel.name;
  r.group = kernel.group;
  r.iterations = iters;
  r.ns_per_op = elapsed_ns / static_cast<double>(iters);
  r.allocs_per_op =
      static_cast<double>(alloc_count) / static_cast<double>(iters);
  r.alloc_bytes_per_op =
      static_cast<double>(alloc_bytes) / static_cast<double>(iters);
  return r;
}

void write_json(std::ostream& os, const std::vector<KernelResult>& results,
                const std::string& filter) {
  // Hand-rolled like sim/report.cpp: stable key order, no dependencies.
  double fig5_scratch = 0.0, fig5_scratch_bytes = 0.0;
  for (const KernelResult& r : results) {
    if (r.group != "fig5") continue;
    fig5_scratch += r.allocs_per_op;
    fig5_scratch_bytes += r.alloc_bytes_per_op;
  }
  char buf[64];
  auto num = [&](double v) {
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return std::string(buf);
  };
  os << "{\n";
  os << "  \"schema\": \"jwins.bench_micro/1\",\n";
  os << "  \"filter\": \"" << filter << "\",\n";
  // Build provenance lives here, in the bench document — never in
  // experiment result JSON, which must not depend on the build.
  os << "  \"host\": {\"compiled_march\": \"" << JWINS_MARCH_TIER << "\"},\n";
  os << "  \"units\": {\"time\": \"ns/op\", \"allocs\": \"count/op\", "
        "\"alloc_bytes\": \"bytes/op\"},\n";
  os << "  \"kernels\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const KernelResult& r = results[i];
    os << "    {\"name\": \"" << r.name << "\", \"group\": \"" << r.group
       << "\", \"iterations\": " << r.iterations
       << ", \"ns_per_op\": " << num(r.ns_per_op)
       << ", \"allocs_per_op\": " << num(r.allocs_per_op)
       << ", \"alloc_bytes_per_op\": " << num(r.alloc_bytes_per_op) << "}"
       << (i + 1 < results.size() ? "," : "") << "\n";
  }
  os << "  ]";
  if (!filter.empty()) {
    // A filtered run is a partial document: the fig5 aggregate would be
    // computed over a subset and read like a complete trajectory point,
    // so it is omitted on purpose.
    os << "\n}\n";
    return;
  }
  os << ",\n";
  os << "  \"summary\": {\n";
  os << "    \"fig5_scratch_allocs_per_op\": " << num(fig5_scratch) << ",\n";
  os << "    \"fig5_scratch_alloc_bytes_per_op\": " << num(fig5_scratch_bytes)
     << "\n";
  os << "  }\n";
  os << "}\n";
}

int run_harness(const std::vector<Kernel>& kernels, const std::string& filter,
                double min_time_ms, const std::string& json_path) {
  std::vector<KernelResult> results;
  for (const Kernel& kernel : kernels) {
    if (!filter.empty() && kernel.name.find(filter) == std::string::npos) {
      continue;
    }
    const KernelResult r = measure(kernel, min_time_ms);
    std::fprintf(stderr, "%-34s %12.1f ns/op %10.2f allocs/op %14.1f B/op\n",
                 r.name.c_str(), r.ns_per_op, r.allocs_per_op,
                 r.alloc_bytes_per_op);
    results.push_back(r);
  }
  if (results.empty()) {
    std::fprintf(stderr, "error: filter matched no kernels\n");
    return 2;
  }
  if (!json_path.empty()) {
    std::ofstream out(json_path);
    if (!out) {
      std::fprintf(stderr, "error: cannot open %s for writing\n",
                   json_path.c_str());
      return 2;
    }
    write_json(out, results, filter);
    std::fprintf(stderr, "wrote %s\n", json_path.c_str());
  } else {
    write_json(std::cout, results, filter);
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string json_path;
  std::string filter;
  double min_time_ms = 20.0;
  bool list_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--json=", 0) == 0) {
      json_path = arg.substr(7);
    } else if (arg == "--json") {
      json_path.clear();  // JSON to stdout
    } else if (arg.rfind("--filter=", 0) == 0) {
      filter = arg.substr(9);
    } else if (arg.rfind("--min-time-ms=", 0) == 0) {
      min_time_ms = std::atof(arg.c_str() + 14);
      if (min_time_ms <= 0.0) {
        std::fprintf(stderr, "error: --min-time-ms must be > 0\n");
        return 2;
      }
    } else if (arg == "--list") {
      list_only = true;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: bench_micro [--json[=PATH]] [--filter=SUBSTR]\n"
          "                   [--min-time-ms=N] [--list]\n"
          "Emits the jwins.bench_micro/1 schema (docs/PERFORMANCE.md) to\n"
          "PATH, or to stdout without one.\n");
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown flag %s (see --help)\n",
                   arg.c_str());
      return 2;
    }
  }

  const std::vector<Kernel> kernels = build_kernels();
  if (list_only) {
    for (const Kernel& k : kernels) std::printf("%s\n", k.name.c_str());
    return 0;
  }

  return run_harness(kernels, filter, min_time_ms, json_path);
}
