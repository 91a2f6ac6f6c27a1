// One decode per message body (core::decoded_payload, the decode slot on
// net::SharedBytes): every holder of a body reads the payload its first
// reader decoded, each receiver's length is checked against it, a rejected
// decode leaves the slot empty, and the payload dies with the body. The
// engines then decode each broadcast body once, at any thread count.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <latch>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "config/runner.hpp"
#include "config/scenario.hpp"
#include "core/sparse_payload.hpp"
#include "sim/experiment.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

constexpr std::uint32_t kLength = 64;

/// A pooled message body carrying `count` entries of a length-kLength
/// vector: Elias-gamma indices 0, 1, 2, ... and XOR-coded values, or the
/// dense vector when count == kLength.
net::SharedBytes make_body(net::BufferPool& pool, std::size_t count,
                           float base = 1.0f) {
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
  for (std::size_t i = 0; i < count; ++i) {
    if (count != kLength) indices.push_back(static_cast<std::uint32_t>(i));
    values.push_back(base + 0.25f * static_cast<float>(i));
  }
  core::PayloadOptions options;
  if (count == kLength) options.index_encoding = core::IndexEncoding::kDense;
  compress::BitWriter bits;
  return core::make_message(0, 0, core::PayloadView(kLength, indices, values),
                            options, pool, bits)
      .body;
}

core::SparsePayload decode_fresh(const net::SharedBytes& body) {
  core::SparsePayload out;
  core::Arena arena;
  core::decode_payload_into(body, out, arena, kLength);
  return out;
}

void expect_same(const core::SparsePayload& a, const core::SparsePayload& b) {
  EXPECT_EQ(a.vector_length, b.vector_length);
  EXPECT_EQ(a.indices, b.indices);
  EXPECT_EQ(a.values, b.values);
}

/// decode_payload_into calls made through core::decoded_payload since the
/// counter was built.
class Decodes {
 public:
  std::uint64_t operator()() const {
    return core::decoded_payload_count() - start_;
  }

 private:
  std::uint64_t start_ = core::decoded_payload_count();
};

TEST(PayloadSlot, DecodesEachBodyOnceAcrossReceivers) {
  net::BufferPool pool;
  core::Arena arena;
  const Decodes decodes;
  // One body in five receivers' inboxes (copies share the block).
  const net::SharedBytes body = make_body(pool, 10);
  const std::vector<net::SharedBytes> inboxes(5, body);
  const core::SparsePayload* first = nullptr;
  for (const net::SharedBytes& inbox : inboxes) {
    const core::SparsePayload& p =
        core::decoded_payload(inbox, kLength, arena);
    if (first == nullptr) first = &p;
    EXPECT_EQ(&p, first);
  }
  EXPECT_EQ(decodes(), 1u);
  expect_same(*first, decode_fresh(body));

  // Another body is another decode.
  const net::SharedBytes other = make_body(pool, 10, 7.0f);
  expect_same(core::decoded_payload(other, kLength, arena),
              decode_fresh(other));
  EXPECT_EQ(decodes(), 2u);
}

TEST(PayloadSlot, ReadWithAnotherLengthIsRejectedAndTheSlotStaysIntact) {
  net::BufferPool pool;
  core::Arena arena;
  const net::SharedBytes body = make_body(pool, 10);
  const core::SparsePayload& p = core::decoded_payload(body, kLength, arena);
  const Decodes decodes;
  for (const std::size_t other : {std::size_t{kLength + 1}, std::size_t{0}}) {
    try {
      core::decoded_payload(body, other, arena);
      ADD_FAILURE() << "length " << other << " was accepted";
    } catch (const std::runtime_error& e) {
      EXPECT_STREQ(e.what(), "decode_payload: vector length mismatch");
    }
  }
  // Compared, not decoded again, and intact for the receivers that expect
  // the header's length.
  EXPECT_EQ(decodes(), 0u);
  EXPECT_EQ(&core::decoded_payload(body, kLength, arena), &p);
  expect_same(p, decode_fresh(body));
}

TEST(PayloadSlot, RejectedBodyLeavesTheSlotEmpty) {
  net::BufferPool pool;
  core::Arena arena;
  const Decodes decodes;
  // The first reader expects another length: the decoder rejects the
  // header, and the next reader decodes afresh.
  const net::SharedBytes body = make_body(pool, 10);
  EXPECT_THROW(core::decoded_payload(body, kLength + 1, arena),
               std::runtime_error);
  expect_same(core::decoded_payload(body, kLength, arena),
              decode_fresh(body));
  EXPECT_EQ(decodes(), 2u);

  // A malformed body is rejected by every reader, each with the decoder's
  // own exception.
  const net::SharedBytes truncated{0, 0, 1};
  EXPECT_THROW(core::decoded_payload(truncated, kLength, arena),
               std::out_of_range);
  EXPECT_THROW(core::decoded_payload(truncated, kLength, arena),
               std::out_of_range);
  EXPECT_EQ(decodes(), 4u);
}

TEST(PayloadSlot, EmptyBodyGoesStraightToTheDecoder) {
  core::Arena arena;
  const Decodes decodes;
  const net::SharedBytes empty;
  EXPECT_THROW(core::decoded_payload(empty, kLength, arena),
               std::out_of_range);
  EXPECT_THROW(core::decoded_payload(empty, kLength, arena),
               std::out_of_range);
  EXPECT_EQ(decodes(), 2u);
}

TEST(PayloadSlot, LastHolderFreesThePayloadAndReturnsTheBytesToThePool) {
  net::BufferPool pool;
  core::Arena arena;
  // Warm the pool's free list, so returning a buffer allocates nothing.
  (void)make_body(pool, 40);
  const std::size_t idle = pool.idle_count();
  ASSERT_EQ(idle, 1u);

  std::vector<net::SharedBytes> mailboxes(2, make_body(pool, 40));
  const std::int64_t before_decode = testutil::live_heap_bytes();
  (void)core::decoded_payload(mailboxes[0], kLength, arena);
  const std::int64_t after_decode = testutil::live_heap_bytes();
  mailboxes[0] = {};
  EXPECT_EQ(pool.idle_count(), idle - 1);  // the other mailbox still holds it
  EXPECT_EQ(testutil::live_heap_bytes(), after_decode);
  // The second receiver reads the same payload, then lets go: the block
  // goes, its payload vectors with it, and the bytes go back to the pool.
  expect_same(core::decoded_payload(mailboxes[1], kLength, arena),
              decode_fresh(mailboxes[1]));
  mailboxes[1] = {};
  EXPECT_EQ(pool.idle_count(), idle);
  if (before_decode >= 0) {  // the allocator hook is compiled in
    // 40 indices and 40 values outweigh the block itself.
    EXPECT_GT(after_decode - before_decode, 256);
    EXPECT_LT(testutil::live_heap_bytes(), before_decode);
  }
}

TEST(PayloadSlot, ConcurrentReadersDecodeEachBodyOnce) {
  // Four threads read the same bodies at once, each with its own arena (as
  // lanes do): every body is decoded once, and every reader gets that one
  // payload. Run under TSan, this is the race check of the slot's states.
  constexpr std::size_t kBodies = 64;
  constexpr unsigned kReaders = 4;
  net::BufferPool pool;
  std::vector<net::SharedBytes> bodies;
  for (std::size_t b = 0; b < kBodies; ++b) {
    bodies.push_back(make_body(pool, 1 + b % kLength, static_cast<float>(b)));
  }
  const Decodes decodes;
  std::vector<std::vector<const core::SparsePayload*>> seen(
      kReaders, std::vector<const core::SparsePayload*>(kBodies));
  std::latch start(kReaders);
  std::vector<std::thread> readers;
  for (unsigned r = 0; r < kReaders; ++r) {
    readers.emplace_back([&, r] {
      core::Arena arena;
      start.arrive_and_wait();
      // Two readers start at body 0 and two halfway: each pair races for
      // every slot, and meets the other pair's slots ready.
      for (std::size_t k = 0; k < kBodies; ++k) {
        const std::size_t b = (k + (r % 2) * kBodies / 2) % kBodies;
        seen[r][b] = &core::decoded_payload(bodies[b], kLength, arena);
      }
    });
  }
  for (std::thread& t : readers) t.join();
  EXPECT_EQ(decodes(), kBodies);
  for (std::size_t b = 0; b < kBodies; ++b) {
    for (unsigned r = 1; r < kReaders; ++r) EXPECT_EQ(seen[r][b], seen[0][b]);
    expect_same(*seen[0][b], decode_fresh(bodies[b]));
  }
}

// --- the engines: decodes per body -------------------------------------------

/// One scenario cell, run to the end; the workload outlives the experiment.
struct Cell {
  config::ScenarioRun run;
  sim::Workload workload;
  sim::ExperimentConfig cfg;
  std::unique_ptr<sim::Experiment> exp;
  sim::ExperimentResult result;
  std::uint64_t decodes = 0;  ///< decoded_payload decodes during run()
};

std::unique_ptr<Cell> run_cell(const std::string& scenario) {
  const std::vector<config::ScenarioRun> runs =
      config::expand_grid(config::parse_scenario_text(scenario));
  EXPECT_EQ(runs.size(), 1u);
  auto cell = std::make_unique<Cell>();
  cell->run = runs.front();
  cell->workload = config::make_run_workload(cell->run);
  cell->cfg = config::resolve_config(cell->run, cell->workload);
  cell->exp = std::make_unique<sim::Experiment>(
      cell->cfg, cell->workload.model_factory, *cell->workload.train,
      cell->workload.partition, *cell->workload.test,
      config::make_run_topology(cell->run));
  const Decodes decodes;
  cell->result = cell->exp->run();
  cell->decodes = decodes();
  return cell;
}

TEST(DecodeCount, SyncPassDecodesEachBodyOnce) {
  struct Case {
    const char* name;
    const char* scenario;
    std::uint64_t degree;
  };
  const Case cases[] = {
      {"random sampling on an 8-node ring (seed-mode index draws)",
       "workload = scale\nalgorithm = random-sampling\nnodes = 8\n"
       "topology = ring\nrounds = 3\nseed = 7\neval_every = 3\n",
       2},
      {"jwins on a 16-node 5-regular graph",
       "workload = movielens\nalgorithm = jwins\nnodes = 16\n"
       "topology = regular\ntopology_degree = 5\nrounds = 3\nseed = 1\n"
       "eval_every = 3\neval_node_limit = 4\n",
       5},
  };
  for (const Case& c : cases) {
    for (const unsigned threads : {1u, 4u}) {
      SCOPED_TRACE(std::string(c.name) + ", threads = " +
                   std::to_string(threads));
      const auto cell = run_cell(std::string(c.scenario) + "threads = " +
                                 std::to_string(threads));
      // Each node broadcasts one body per round to `degree` receivers,
      // spread over the lanes; each body is decoded once.
      const std::uint64_t bodies = cell->run.nodes * cell->result.rounds_run;
      EXPECT_EQ(cell->result.total_traffic.messages_sent, bodies * c.degree);
      EXPECT_EQ(cell->decodes, bodies);
    }
  }
}

TEST(DecodeCount, EventEngineDecodesEachAppliedBodyOnce) {
  // Barrier mode on a loss-free ring: both neighbours apply every body, and
  // it is decoded once.
  const auto barrier = run_cell(
      "workload = scale\nalgorithm = random-sampling\nnodes = 8\n"
      "topology = ring\nrounds = 3\nseed = 7\neval_every = 3\n"
      "engine = async\nthreads = 1\n");
  EXPECT_EQ(testutil::check_report(barrier->result, barrier->cfg, 8), "");
  const std::vector<std::uint64_t>& ages =
      barrier->result.event_engine.staleness_histogram;
  const std::uint64_t applied =
      std::accumulate(ages.begin(), ages.end(), std::uint64_t{0});
  EXPECT_EQ(applied, 2u * 8u * 3u);
  EXPECT_EQ(barrier->decodes, applied / 2);

  // Free mode with stragglers on a regular graph: a body reaches up to
  // `degree` steps, some of them several local rounds later, and is decoded
  // at most once. The last round's bodies, and those that land only at neighbours
  // that have taken their last step, are applied by no step and never
  // decoded.
  const auto free = run_cell(
      "workload = movielens\nalgorithm = choco\nchoco_fraction = 0.10\n"
      "choco_gamma = 0.1\nnodes = 16\ntopology = regular\nrounds = 6\n"
      "seed = 13\nengine = async\nasync_mode = free\n"
      "bandwidth_dist = lognormal:100:0.75\nlatency_dist = uniform:2:40\n"
      "straggler_fraction = 0.3\nstraggler_slowdown = 4\nthreads = 1\n");
  EXPECT_EQ(testutil::check_report(free->result, free->cfg, 16), "");
  const std::uint64_t contributions =
      free->result.event_engine.contributions_applied;
  const std::uint64_t degree =
      config::make_run_topology(free->run)->round_graph(0).neighbors(0).size();
  const std::uint64_t bodies = 16 * free->result.rounds_run;
  EXPECT_EQ(free->result.total_traffic.messages_sent, bodies * degree);
  EXPECT_GT(contributions, 0u);
  EXPECT_LT(free->decodes, contributions);
  EXPECT_GE(free->decodes * degree, contributions);
  EXPECT_LT(free->decodes, bodies);
}

}  // namespace
}  // namespace jwins
