// Round-scratch memory facility: core::Arena invariants (alignment, growth,
// reset/reuse, consolidation), net::BufferPool / SharedBytes recycling,
// PayloadPool slot reuse, no-aliasing across concurrently used arenas, and
// the reuse guard — every kernel API must give the same bits on scratch
// warmed by an earlier, larger call as on fresh scratch, and arena-backed
// engine runs must stay byte-identical across thread counts (the same
// contract test_determinism.cpp pins on the metric level).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <random>
#include <sstream>
#include <thread>
#include <vector>

#include "bit_reference.hpp"
#include "compress/elias.hpp"
#include "compress/float_codec.hpp"
#include "compress/quantize.hpp"
#include "compress/topk.hpp"
#include "core/arena.hpp"
#include "core/averaging.hpp"
#include "core/ranker.hpp"
#include "core/scratch.hpp"
#include "core/sparse_payload.hpp"
#include "dwt/dwt.hpp"
#include "graph/graph.hpp"
#include "net/buffer.hpp"
#include "net/serializer.hpp"
#include "sim/experiment.hpp"
#include "sim/report.hpp"
#include "sim/workloads.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

std::vector<float> random_floats(std::size_t n, unsigned seed) {
  std::mt19937 rng(seed);
  std::normal_distribution<float> dist(0.0f, 1.0f);
  std::vector<float> out(n);
  for (float& v : out) v = dist(rng);
  return out;
}

// --- Arena basics ----------------------------------------------------------

TEST(Arena, AllocatesAlignedSpans) {
  core::Arena arena;
  const auto bytes = arena.alloc<std::uint8_t>(3);
  ASSERT_EQ(bytes.size(), 3u);
  const auto doubles = arena.alloc<double>(4);
  ASSERT_EQ(doubles.size(), 4u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(doubles.data()) % alignof(double),
            0u);
  const auto u32 = arena.alloc<std::uint32_t>(5);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(u32.data()) % alignof(std::uint32_t),
            0u);
  // Spans are writable and disjoint.
  for (auto& v : doubles) v = 1.5;
  for (auto& v : u32) v = 7;
  EXPECT_EQ(doubles[3], 1.5);
  EXPECT_EQ(u32[4], 7u);
}

TEST(Arena, ZeroCountReturnsEmptySpanWithoutTouchingArena) {
  core::Arena arena;
  const std::size_t used_before = arena.used();
  const auto span = arena.alloc<float>(0);
  EXPECT_TRUE(span.empty());
  EXPECT_EQ(arena.used(), used_before);
}

TEST(Arena, RejectsUnsupportedAlignment) {
  core::Arena arena;
  EXPECT_THROW(arena.allocate(8, 3), std::invalid_argument);
  EXPECT_THROW(arena.allocate(8, 4096), std::invalid_argument);
}

TEST(Arena, GrowsAcrossBlocksAndConsolidatesOnReset) {
  core::Arena arena(1024);
  EXPECT_EQ(arena.block_count(), 1u);
  // Overflow the first block several times.
  for (int i = 0; i < 8; ++i) arena.alloc<std::uint8_t>(4096);
  EXPECT_GT(arena.block_count(), 1u);
  const std::size_t grown_capacity = arena.capacity();
  EXPECT_GE(grown_capacity, 8u * 4096u);
  EXPECT_GE(arena.high_water(), 8u * 4096u);

  arena.reset();
  EXPECT_EQ(arena.block_count(), 1u);  // consolidated
  EXPECT_GE(arena.capacity(), grown_capacity);
  EXPECT_EQ(arena.used(), 0u);

  // The same workload now fits in the single block: steady state.
  for (int i = 0; i < 8; ++i) arena.alloc<std::uint8_t>(4096);
  EXPECT_EQ(arena.block_count(), 1u);
  const std::size_t steady_capacity = arena.capacity();
  for (int round = 0; round < 16; ++round) {
    arena.reset();
    for (int i = 0; i < 8; ++i) arena.alloc<std::uint8_t>(4096);
    EXPECT_EQ(arena.block_count(), 1u);
    EXPECT_EQ(arena.capacity(), steady_capacity);  // no further growth
  }
}

TEST(Arena, ReserveGuaranteesSingleBlock) {
  core::Arena arena;
  arena.reserve(1 << 16);
  EXPECT_EQ(arena.block_count(), 1u);
  EXPECT_GE(arena.capacity(), std::size_t{1} << 16);
  arena.alloc<double>(4096);  // exactly the reserved bytes
  EXPECT_EQ(arena.block_count(), 1u);
  arena.reset();
  EXPECT_THROW(
      [&] {
        arena.alloc<float>(1);
        arena.reserve(1 << 20);  // outstanding allocations -> logic_error
      }(),
      std::logic_error);
}

TEST(Arena, UsedTracksPaddingAndPayload) {
  core::Arena arena(4096);
  arena.alloc<std::uint8_t>(1);
  const std::size_t after_byte = arena.used();
  EXPECT_EQ(after_byte, 1u);
  arena.alloc<double>(1);  // 7 bytes padding + 8 payload
  EXPECT_EQ(arena.used(), 16u);
  EXPECT_GE(arena.high_water(), arena.used());
}

TEST(Arena, NoAliasingAcrossConcurrentWorkers) {
  // One arena per worker, hammered concurrently: every span must hold
  // exactly the pattern its owner wrote (TSan-clean by construction).
  constexpr int kWorkers = 4;
  constexpr int kRounds = 50;
  std::vector<core::Arena> arenas(kWorkers);
  std::vector<std::thread> threads;
  std::vector<int> failures(kWorkers, 0);
  for (int w = 0; w < kWorkers; ++w) {
    threads.emplace_back([&, w] {
      for (int r = 0; r < kRounds; ++r) {
        arenas[w].reset();
        auto a = arenas[w].alloc<std::uint32_t>(512 + static_cast<std::size_t>(w));
        auto b = arenas[w].alloc<double>(256);
        const auto tag = static_cast<std::uint32_t>(w * 1000 + r);
        for (auto& v : a) v = tag;
        for (auto& v : b) v = static_cast<double>(tag) + 0.5;
        for (const auto& v : a) {
          if (v != tag) ++failures[w];
        }
        for (const auto& v : b) {
          if (v != static_cast<double>(tag) + 0.5) ++failures[w];
        }
      }
    });
  }
  for (auto& t : threads) t.join();
  for (int w = 0; w < kWorkers; ++w) EXPECT_EQ(failures[w], 0) << "worker " << w;
}

// --- BufferPool / SharedBytes ----------------------------------------------

TEST(BufferPool, RecyclesStorageThroughAdopt) {
  net::BufferPool pool;
  std::vector<std::uint8_t> buf = pool.acquire();
  buf.assign(1000, 42);
  const std::uint8_t* storage = buf.data();
  {
    const net::SharedBytes body = pool.adopt(std::move(buf));
    EXPECT_EQ(body.size(), 1000u);
    EXPECT_EQ(body.data(), storage);  // adopted, not copied
    EXPECT_EQ(pool.idle_count(), 0u);
  }
  // Last reference dropped -> storage returned to the pool.
  EXPECT_EQ(pool.idle_count(), 1u);
  const std::vector<std::uint8_t> again = pool.acquire();
  EXPECT_EQ(again.data(), storage);  // same heap buffer, cleared
  EXPECT_TRUE(again.empty());
  EXPECT_GE(again.capacity(), 1000u);
}

TEST(BufferPool, FanOutSharesOneBuffer) {
  net::BufferPool pool;
  auto buf = pool.acquire();
  buf.assign(64, 7);
  const net::SharedBytes body = pool.adopt(std::move(buf));
  net::Message msg;
  msg.body = body;
  const net::Message copy1 = msg;
  const net::Message copy2 = msg;
  EXPECT_TRUE(copy1.body.shares_storage_with(copy2.body));
  EXPECT_TRUE(copy1.body.shares_storage_with(body));
  EXPECT_EQ(copy2.body.span().data(), body.span().data());
}

TEST(BufferPool, BodiesSurviveThePool) {
  net::SharedBytes body;
  {
    net::BufferPool pool;
    auto buf = pool.acquire();
    buf.assign(16, 3);
    body = pool.adopt(std::move(buf));
  }  // pool destroyed first
  EXPECT_EQ(body.size(), 16u);
  EXPECT_EQ(body[15], 3u);
}  // body destroyed after: frees instead of recycling — must not crash

TEST(SharedBytes, ValueSemanticsForTests) {
  const net::SharedBytes empty;
  EXPECT_TRUE(empty.empty());
  EXPECT_EQ(empty.span().size(), 0u);
  const net::SharedBytes listed = {1, 2, 3};
  EXPECT_EQ(listed.size(), 3u);
  EXPECT_EQ(listed[2], 3u);
  const net::SharedBytes zeros = net::SharedBytes::zeros(10);
  EXPECT_EQ(zeros.size(), 10u);
  EXPECT_EQ(zeros[9], 0u);
}

// --- PayloadPool ------------------------------------------------------------

TEST(PayloadPool, ReusesSlotCapacityAcrossResets) {
  core::PayloadPool pool;
  core::SparsePayload& first = pool.next();
  first.indices.assign(100, 1);
  first.values.assign(100, 2.0f);
  const std::uint32_t* index_storage = first.indices.data();
  pool.reset();
  core::SparsePayload& again = pool.next();
  EXPECT_EQ(&again, &first);           // same slot
  EXPECT_TRUE(again.indices.empty());  // cleared...
  again.indices.resize(50);
  EXPECT_EQ(again.indices.data(), index_storage);  // ...but capacity kept
}

// --- Dirty reuse: warmed scratch gives the same bits as fresh scratch ------
//
// Each kernel has one API, writing into caller-owned buffers, arenas or
// workspaces that the engine reuses round over round. Every case first warms
// the scratch on a larger, different input (or soils the arena), then checks
// the result is bit-identical to a call on fresh scratch. Fast-vs-scalar
// agreement is test_kernel_equivalence.cpp's job.

// Fills the arena's single block with a garbage pattern, so every later
// alloc() hands out dirty bytes.
void soil(core::Arena& arena) {
  arena.reset();
  arena.reserve(std::size_t{1} << 20);
  const auto bytes = arena.alloc<std::uint8_t>(arena.capacity());
  std::fill(bytes.begin(), bytes.end(), std::uint8_t{0xA5});
  arena.reset();
}

TEST(ScratchEquivalence, TopKGatherAndRandomIndices) {
  const auto warm = random_floats(8192, 11);
  const auto values = random_floats(4096, 1);
  std::vector<std::uint32_t> dirty;
  std::vector<float> gathered_dirty;
  for (const std::size_t k : {1u, 409u, 4096u, 9999u}) {
    std::vector<std::uint32_t> fresh;
    std::vector<float> gathered_fresh;
    compress::topk_indices_into(values, k, fresh);
    compress::gather_into(values, fresh, gathered_fresh);
    compress::topk_indices_into(warm, 5000, dirty);
    compress::gather_into(warm, dirty, gathered_dirty);
    compress::topk_indices_into(values, k, dirty);
    compress::gather_into(values, dirty, gathered_dirty);
    EXPECT_EQ(fresh, dirty) << "k=" << k;
    EXPECT_EQ(gathered_fresh, gathered_dirty) << "k=" << k;
  }
  for (std::uint64_t seed = 0; seed < 5; ++seed) {
    // Stale membership flags must not leak into the draw.
    core::Arena fresh_arena, dirty_arena;
    std::vector<std::uint32_t> fresh;
    compress::random_indices_into(4096, 1365, seed, fresh, fresh_arena);
    soil(dirty_arena);
    compress::random_indices_into(4096, 1365, seed, dirty, dirty_arena);
    EXPECT_EQ(fresh, dirty) << "seed=" << seed;
  }
}

TEST(ScratchEquivalence, EliasAndFloatCodec) {
  const auto warm = random_floats(16384, 12);
  const auto values = random_floats(8192, 2);
  std::vector<std::uint32_t> warm_indices, indices, fresh_idx, dirty_idx;
  compress::topk_indices_into(warm, 3000, warm_indices);
  compress::topk_indices_into(values, 800, indices);
  compress::BitWriter fresh, dirty;
  compress::encode_index_gaps(indices, fresh);
  compress::decode_index_gaps_into(fresh.bytes(), 800, fresh_idx);
  compress::encode_index_gaps(warm_indices, dirty);
  compress::decode_index_gaps_into(dirty.bytes(), 3000, dirty_idx);
  dirty.clear();
  compress::encode_index_gaps(indices, dirty);
  compress::decode_index_gaps_into(dirty.bytes(), 800, dirty_idx);
  EXPECT_EQ(testref::as_vector(fresh.bytes()),
            testref::as_vector(dirty.bytes()));
  EXPECT_EQ(fresh_idx, dirty_idx);

  compress::BitWriter fresh_floats;
  std::vector<float> fresh_back, dirty_back;
  compress::compress_floats(values, fresh_floats);
  compress::decompress_floats_into(fresh_floats.bytes(), 8192, fresh_back);
  dirty.clear();
  compress::compress_floats(warm, dirty);
  compress::decompress_floats_into(dirty.bytes(), 16384, dirty_back);
  dirty.clear();
  compress::compress_floats(values, dirty);
  compress::decompress_floats_into(dirty.bytes(), 8192, dirty_back);
  EXPECT_EQ(testref::as_vector(fresh_floats.bytes()),
            testref::as_vector(dirty.bytes()));
  EXPECT_EQ(fresh_back, dirty_back);
}

TEST(ScratchEquivalence, QsgdQuantizer) {
  const auto warm = random_floats(4096, 13);
  const auto values = random_floats(2048, 3);
  std::mt19937_64 rng_fresh(9), rng_warm(4), rng_dirty(9);
  compress::QuantizedVector fresh, dirty, parsed;
  std::vector<float> fresh_deq, dirty_deq;
  compress::qsgd_quantize_into(values, 15, rng_fresh, fresh);
  compress::qsgd_dequantize_into(fresh, fresh_deq);
  compress::qsgd_quantize_into(warm, 63, rng_warm, dirty);
  compress::qsgd_dequantize_into(dirty, dirty_deq);
  net::ByteWriter warm_wire, wire;
  compress::qsgd_serialize_into(dirty, warm_wire);
  compress::qsgd_deserialize_into(warm_wire.buffer(), parsed);
  compress::qsgd_quantize_into(values, 15, rng_dirty, dirty);
  compress::qsgd_dequantize_into(dirty, dirty_deq);
  compress::qsgd_serialize_into(dirty, wire);
  compress::qsgd_deserialize_into(wire.buffer(), parsed);
  for (const compress::QuantizedVector* q : {&dirty, &parsed}) {
    EXPECT_EQ(q->norm, fresh.norm);
    EXPECT_EQ(q->levels, fresh.levels);
    EXPECT_EQ(q->count, fresh.count);
    EXPECT_EQ(q->packed, fresh.packed);
  }
  EXPECT_EQ(fresh_deq, dirty_deq);
}

TEST(ScratchEquivalence, DwtWorkspaceTransforms) {
  // One workspace warmed by a longer plan on another wavelet serves every
  // shorter plan: the zero padding must be rewritten, not inherited.
  dwt::DwtWorkspace dirty;
  const dwt::DwtPlan warm_plan(dwt::db4(), 9001, 5);
  std::vector<float> warm_coeffs(warm_plan.coeff_length()), warm_out(9001);
  warm_plan.forward_into(random_floats(9001, 14), warm_coeffs, dirty);
  warm_plan.inverse_into(warm_coeffs, warm_out, dirty);
  for (const std::size_t n : {63u, 1024u, 1000u, 4097u}) {
    const dwt::DwtPlan plan(dwt::sym2(), n, 4);
    const auto x = random_floats(n, static_cast<unsigned>(n));
    dwt::DwtWorkspace fresh_fwd, fresh_inv;
    std::vector<float> fresh(plan.coeff_length()), coeffs(fresh.size());
    std::vector<float> fresh_back(n), back(n);
    plan.forward_into(x, fresh, fresh_fwd);
    plan.inverse_into(fresh, fresh_back, fresh_inv);
    plan.forward_into(x, coeffs, dirty);
    plan.inverse_into(coeffs, back, dirty);
    EXPECT_EQ(fresh, coeffs) << "n=" << n;
    EXPECT_EQ(fresh_back, back) << "n=" << n;
  }
}

TEST(ScratchEquivalence, WaveletRankerArenaAndWorkspace) {
  const std::size_t n = 1000;
  const auto before = random_floats(n, 15);
  const auto after = random_floats(n, 16);
  const auto averaged = random_floats(n, 17);
  auto scores = [&](core::Arena& arena, dwt::DwtWorkspace& ws) {
    core::WaveletRanker ranker(n, {});
    ranker.accumulate_round_change(before, after, arena, ws);
    ranker.finish_round(after, averaged, std::vector<std::uint32_t>{0, 5},
                        arena, ws);
    return std::vector<float>(ranker.scores().begin(), ranker.scores().end());
  };
  core::Arena fresh_arena, dirty_arena;
  dwt::DwtWorkspace fresh_ws, dirty_ws;
  const dwt::DwtPlan warm_plan(dwt::sym2(), 4097, 4);
  std::vector<float> warm_coeffs(warm_plan.coeff_length());
  warm_plan.forward_into(random_floats(4097, 18), warm_coeffs, dirty_ws);
  soil(dirty_arena);
  EXPECT_EQ(scores(fresh_arena, fresh_ws), scores(dirty_arena, dirty_ws));
}

TEST(ScratchEquivalence, PartialAverageWithArena) {
  const std::size_t n = 2048;
  std::vector<core::SparsePayload> payloads(3);
  std::vector<core::WeightedContribution> contribs;
  core::Arena draw_arena;
  for (std::size_t j = 0; j < payloads.size(); ++j) {
    payloads[j].vector_length = static_cast<std::uint32_t>(n);
    compress::random_indices_into(n, n / 4, j + 1, payloads[j].indices,
                                  draw_arena);
    payloads[j].values = random_floats(n / 4, static_cast<unsigned>(j) + 10);
    contribs.push_back({0.25, &payloads[j]});
  }
  // The same contributions under staleness decay: weights pre-multiplied.
  const std::vector<double> scales{1.0, 0.5, 0.25};
  std::vector<core::WeightedContribution> decayed = contribs;
  for (std::size_t j = 0; j < decayed.size(); ++j) decayed[j].weight *= scales[j];
  const auto own = random_floats(n, 77);
  // Runs one averaging entry point on a fresh arena and on a soiled one.
  auto check = [&](auto&& average) {
    core::Arena fresh_arena, dirty_arena;
    soil(dirty_arena);
    auto fresh = own, dirty = own;
    average(fresh, fresh_arena);
    average(dirty, dirty_arena);
    EXPECT_EQ(fresh, dirty);
  };
  check([&](std::vector<float>& x, core::Arena& arena) {
    core::partial_average(x, 0.25, contribs, arena);
  });
  check([&](std::vector<float>& x, core::Arena& arena) {
    core::partial_average(x, 0.25, decayed, arena);
  });
  for (const auto kind :
       {core::RobustAggKind::kTrimmedMean, core::RobustAggKind::kMedian,
        core::RobustAggKind::kNormClip}) {
    SCOPED_TRACE(core::robust_agg_name(kind));
    const core::RobustAggConfig cfg{kind, 0.25, 2.0};
    check([&](std::vector<float>& x, core::Arena& arena) {
      core::robust_partial_average(cfg, x, 0.25, decayed, arena);
    });
  }
}

TEST(ScratchEquivalence, PayloadCodecRoundTrip) {
  const std::size_t n = 4096;
  const auto values = random_floats(n, 5);
  const auto warm_values = random_floats(2 * n, 6);
  core::SparsePayload payload, warm;
  payload.vector_length = static_cast<std::uint32_t>(n);
  compress::topk_indices_into(values, n / 8, payload.indices);
  compress::gather_into(values, payload.indices, payload.values);
  warm.vector_length = static_cast<std::uint32_t>(2 * n);
  compress::topk_indices_into(warm_values, n, warm.indices);
  compress::gather_into(warm_values, warm.indices, warm.values);

  std::vector<core::PayloadOptions> modes{
      {core::IndexEncoding::kSeed, core::ValueEncoding::kXorCodec, 0xFEEDu}};
  for (const auto index : {core::IndexEncoding::kEliasGamma,
                           core::IndexEncoding::kRaw}) {
    for (const auto value :
         {core::ValueEncoding::kXorCodec, core::ValueEncoding::kRaw}) {
      modes.push_back({index, value, 0});
    }
  }
  for (const core::PayloadOptions& options : modes) {
    SCOPED_TRACE(static_cast<int>(options.index_encoding) * 10 +
                 static_cast<int>(options.value_encoding));
    net::ByteWriter fresh_body, warm_body;
    compress::BitWriter fresh_bits, dirty_bits;
    core::Arena fresh_arena, dirty_arena;
    core::SparsePayload fresh, dirty;
    const std::size_t fresh_meta =
        core::encode_payload_into(payload, options, fresh_body, fresh_bits);
    core::decode_payload_into(fresh_body.buffer(), fresh, fresh_arena);
    // Warm the bit scratch, the body buffer (recycled, as make_message's
    // pooled writer is) and the decoded vectors on the larger payload.
    core::encode_payload_into(warm, options, warm_body, dirty_bits);
    core::decode_payload_into(warm_body.buffer(), dirty, dirty_arena);
    soil(dirty_arena);
    net::ByteWriter dirty_body(std::move(warm_body).take());
    EXPECT_EQ(fresh_meta, core::encode_payload_into(payload, options,
                                                    dirty_body, dirty_bits));
    EXPECT_EQ(fresh_body.buffer(), dirty_body.buffer());
    core::decode_payload_into(dirty_body.buffer(), dirty, dirty_arena);
    EXPECT_EQ(fresh.vector_length, dirty.vector_length);
    EXPECT_EQ(fresh.indices, dirty.indices);
    EXPECT_EQ(fresh.values, dirty.values);
  }

  // Pooled make_message on a pool holding a larger recycled body.
  net::BufferPool fresh_pool, dirty_pool;
  compress::BitWriter fresh_bits, dirty_bits;
  const net::Message fresh =
      core::make_message(3, 7, payload, {}, fresh_pool, fresh_bits);
  (void)core::make_message(0, 0, warm, {}, dirty_pool, dirty_bits);
  const net::Message dirty =
      core::make_message(3, 7, payload, {}, dirty_pool, dirty_bits);
  EXPECT_EQ(fresh.metadata_bytes, dirty.metadata_bytes);
  EXPECT_TRUE(std::ranges::equal(fresh.body.span(), dirty.body.span()));
}

// --- Arena-backed engine runs stay byte-identical --------------------------

sim::ExperimentResult run_fig5_like(unsigned threads) {
  const std::size_t n = 8;
  const sim::Workload w = sim::make_femnist_like(n, 23);
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kJwins;
  cfg.rounds = 5;
  cfg.local_steps = 2;
  cfg.eval_every = 2;
  cfg.eval_sample_limit = 64;
  cfg.threads = threads;
  cfg.seed = 23;
  std::mt19937 topo_rng(23);
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::random_regular(n, 4, topo_rng)));
  return exp.run();
}

TEST(ArenaDeterminism, EngineJsonByteIdenticalAcrossThreadCounts) {
  // The whole point of the scratch design: per-lane arenas must not leak
  // any state into results. Serialize the full result to JSON (the golden
  // format test_determinism.cpp validates structurally) and compare bytes
  // across thread counts and across repeated runs.
  const auto sequential = run_fig5_like(1);
  const auto threaded = run_fig5_like(4);
  const auto threaded_again = run_fig5_like(4);
  auto to_json = [](const sim::ExperimentResult& r) {
    return testutil::deterministic_json(r, "arena/jwins");
  };
  const std::string a = to_json(sequential);
  EXPECT_EQ(a, to_json(threaded));
  EXPECT_EQ(a, to_json(threaded_again));
}

}  // namespace
}  // namespace jwins

// --- LSTM train-step allocation pin ----------------------------------------
// The LSTM arena treatment (member workspaces + in-place caches in
// nn::Lstm, rank-2 ensure_shape) took the bench's lstm_train_step from
// ~1218 allocs/op to a few dozen. Pin that reduction with a counting
// operator new, mirroring bench_micro's hook. Sanitized builds replace the
// allocator themselves, so the hook (and the test) is compiled out there —
// the plain Debug/Release CI jobs keep the pin.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define JWINS_TEST_ALLOC_HOOK 0
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define JWINS_TEST_ALLOC_HOOK 0
#else
#define JWINS_TEST_ALLOC_HOOK 1
#endif
#else
#define JWINS_TEST_ALLOC_HOOK 1
#endif

#if JWINS_TEST_ALLOC_HOOK

#include <atomic>
#include <cstdlib>
#include <malloc.h>
#include <new>

#include "nn/models.hpp"
#include "nn/sgd.hpp"

namespace {
std::atomic<std::uint64_t> g_test_alloc_count{0};
// Net bytes currently held through this hook (usable size, so it matches
// what the heap actually charges). test_scale.cpp's per-node memory pin
// reads it through testutil::live_heap_bytes().
std::atomic<std::int64_t> g_test_live_bytes{0};
}  // namespace

std::int64_t jwins::testutil::live_heap_bytes() noexcept {
  return g_test_live_bytes.load(std::memory_order_relaxed);
}

void* operator new(std::size_t size) {
  g_test_alloc_count.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size)) {
    g_test_live_bytes.fetch_add(
        static_cast<std::int64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
    return p;
  }
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void operator delete(void* p) noexcept {
  if (p) {
    g_test_live_bytes.fetch_sub(
        static_cast<std::int64_t>(malloc_usable_size(p)),
        std::memory_order_relaxed);
  }
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept { ::operator delete(p); }

namespace jwins {
namespace {

TEST(LstmArena, SteadyStateTrainStepAllocationBound) {
  nn::CharLstm::Config cfg;
  cfg.vocab = 30;
  cfg.embedding_dim = 12;
  cfg.hidden = 24;
  cfg.layers = 2;
  nn::CharLstm model(cfg, 1);
  nn::Sgd opt(model, nn::Sgd::Options{.learning_rate = 0.05f});
  nn::Batch batch;
  batch.x = tensor::Tensor({8, 16});
  batch.labels.resize(8 * 16);
  std::mt19937 rng(3);
  std::uniform_int_distribution<int> tok(0, 29);
  for (std::size_t i = 0; i < batch.x.size(); ++i) {
    batch.x[i] = static_cast<float>(tok(rng));
    batch.labels[i] = tok(rng);
  }
  auto step = [&] {
    model.zero_grad();
    (void)model.loss_and_grad(batch);
    opt.step();
  };
  // Warm the member workspaces and caches.
  for (int i = 0; i < 3; ++i) step();
  const std::uint64_t before =
      g_test_alloc_count.load(std::memory_order_relaxed);
  constexpr int kIters = 16;
  for (int i = 0; i < kIters; ++i) step();
  const std::uint64_t per_op =
      (g_test_alloc_count.load(std::memory_order_relaxed) - before) / kIters;
  // Measured 26/op with flat parameter buffers (34 before, ~1218 before
  // the workspace rework). The bound leaves room for
  // the per-call return tensors the Module interface requires, but fails
  // loudly if per-timestep churn ever comes back.
  EXPECT_LE(per_op, 80u) << "LSTM train step allocation churn regressed";
}

// --- CNN train-step pins ---------------------------------------------------
// The cifar workload keeps one CnnClassifier per node resident (96 in the
// paper's test bed), so per-model memory is multiplied by the node count
// while a few allocations per step cost microseconds. Pin both.

struct CnnStepper {
  nn::CnnClassifier model{nn::CnnClassifier::Config{}, 1};
  nn::Sgd opt{model, nn::Sgd::Options{.learning_rate = 0.05f}};
  nn::Batch batch;

  CnnStepper() {
    std::mt19937 rng(2);
    batch.x = tensor::Tensor::normal({16, 3, 8, 8}, 0.0f, 1.0f, rng);
    batch.labels.resize(16);
    for (std::size_t i = 0; i < 16; ++i) {
      batch.labels[i] = static_cast<int>(i % 10);
    }
  }

  void step() {
    model.zero_grad();
    (void)model.loss_and_grad(batch);
    opt.step();
  }
};

TEST(CnnArena, SteadyStateTrainStepAllocationBound) {
  CnnStepper s;
  for (int i = 0; i < 3; ++i) s.step();
  const std::uint64_t before =
      g_test_alloc_count.load(std::memory_order_relaxed);
  constexpr int kIters = 16;
  for (int i = 0; i < kIters; ++i) s.step();
  const std::uint64_t per_op =
      (g_test_alloc_count.load(std::memory_order_relaxed) - before) / kIters;
  // Measured 52/op (glibc 2.36, libstdc++ 12), nearly all of them the
  // per-call return tensors of the Module interface; 64/op before the
  // parameters moved to one flat buffer (zero_grad rebuilt the gradient
  // lists) and conv1 stopped computing its unread input gradient.
  EXPECT_LE(per_op, 52u) << "CNN train step allocation churn regressed";
}

TEST(CnnArena, WarmedModelLiveHeapBound) {
  // A first model grows whatever per-thread scratch the layers share; the
  // second one's steady-state heap is what each resident node pays.
  CnnStepper first;
  for (int i = 0; i < 2; ++i) first.step();
  const std::int64_t before = testutil::live_heap_bytes();
  auto second = std::make_unique<CnnStepper>();
  for (int i = 0; i < 2; ++i) second->step();
  const std::int64_t held = testutil::live_heap_bytes() - before;
  // Parameters, gradients and each layer's cached forward state at batch 16:
  // 144280 bytes (glibc 2.36, libstdc++ 12) with the parameters and
  // gradients in two flat buffers (143768 before: the views add 24 bytes
  // per Tensor object), down from 180600 before ReLU
  // cached a byte mask instead of a float copy of its input. The slack
  // absorbs allocator differences and is below the smallest batch-sized
  // buffer, the second ReLU's 4 KiB mask.
  EXPECT_LE(held, 144 * 1024) << "a warmed CnnClassifier holds " << held
                              << " heap bytes; per-node resident memory grew";
}

// --- Compact node-round pin -------------------------------------------------
// Under node_state = compact one lane worker is bound to every node in turn,
// so anything a bind, train, share or aggregate allocates is paid per node
// per round, 100k times a round on the scale_100k preset.

/// Heap allocations made by run() of a compact scale experiment.
std::uint64_t compact_run_allocations(std::size_t nodes, std::size_t rounds) {
  const sim::Workload w = sim::make_scale_like(nodes, 7);
  sim::ExperimentConfig cfg;
  cfg.algorithm = sim::Algorithm::kRandomSampling;
  cfg.rounds = rounds;
  cfg.eval_every = 100;  // metric rounds: the first and the last
  cfg.eval_sample = 16;
  cfg.eval_sample_limit = 32;
  cfg.node_state = sim::NodeState::kCompact;
  cfg.batch_sampler = sim::BatchSampler::kCounter;
  cfg.threads = 1;
  cfg.seed = 7;
  sim::Experiment exp(cfg, w.model_factory, *w.train, w.partition, *w.test,
                      std::make_unique<graph::StaticTopology>(
                          graph::ring(nodes)));
  const std::uint64_t before =
      g_test_alloc_count.load(std::memory_order_relaxed);
  (void)exp.run();
  return g_test_alloc_count.load(std::memory_order_relaxed) - before;
}

TEST(CompactArena, SteadyStateNodeRoundAllocationBound) {
  // The third round's allocations: a 3-round run minus a 2-round one (both
  // evaluate at their first and last round).
  constexpr std::size_t kNodes = 300;
  const std::uint64_t two = compact_run_allocations(kNodes, 2);
  const std::uint64_t three = compact_run_allocations(kNodes, 3);
  ASSERT_GT(three, two);
  const std::uint64_t per_node_round = (three - two) / kNodes;
  // Measured 32 (glibc 2.36, libstdc++ 12), down from 86 when every bind,
  // writeback, share, aggregate and zero_grad rebuilt the model's tensor
  // lists and copied it tensor by tensor. What is left is the per-call
  // return tensors of the Module interface, the batch, and the message.
  EXPECT_LE(per_node_round, 40u)
      << "compact node-round allocation churn regressed";
}

}  // namespace
}  // namespace jwins

#else  // !JWINS_TEST_ALLOC_HOOK

std::int64_t jwins::testutil::live_heap_bytes() noexcept { return -1; }

#endif  // JWINS_TEST_ALLOC_HOOK
