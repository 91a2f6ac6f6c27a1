// The per-lane decode cache (core/decode_cache.hpp): one decode per message
// body per aggregation pass, the receiver's length check on every hit,
// eviction once the body has no other holder, the engines' flush at the end
// of every pass, and best-fit slot reuse.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <numeric>
#include <set>
#include <stdexcept>
#include <string>
#include <vector>

#include "config/runner.hpp"
#include "config/scenario.hpp"
#include "core/decode_cache.hpp"
#include "core/scratch.hpp"
#include "core/sparse_payload.hpp"
#include "sim/experiment.hpp"
#include "test_util.hpp"

namespace jwins {
namespace {

constexpr std::uint32_t kLength = 64;

/// A pooled message body carrying `count` entries of a length-kLength
/// vector: Elias-gamma indices 0, 2, 4, ... and XOR-coded values, or the
/// dense vector when count == kLength.
net::SharedBytes make_body(net::BufferPool& pool, std::size_t count,
                           float base = 1.0f) {
  std::vector<std::uint32_t> indices;
  std::vector<float> values;
  for (std::size_t i = 0; i < count; ++i) {
    if (count != kLength) indices.push_back(static_cast<std::uint32_t>(2 * i));
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

TEST(DecodeCache, DecodesEachBodyOnceAcrossReceivers) {
  net::BufferPool pool;
  core::Arena arena;
  core::DecodeCache cache;
  // One body in five receivers' inboxes (copies share the storage).
  const net::SharedBytes body = make_body(pool, 10);
  const std::vector<net::SharedBytes> inboxes(5, body);
  const core::SparsePayload* first = nullptr;
  for (const net::SharedBytes& inbox : inboxes) {
    const core::SparsePayload& p = cache.decode(inbox, kLength, arena);
    if (first == nullptr) first = &p;
    EXPECT_EQ(&p, first);
  }
  EXPECT_EQ(cache.decodes(), 1u);
  EXPECT_EQ(cache.size(), 1u);
  expect_same(*first, decode_fresh(body));

  // Another body is another decode.
  const net::SharedBytes other = make_body(pool, 10, 7.0f);
  expect_same(cache.decode(other, kLength, arena), decode_fresh(other));
  EXPECT_EQ(cache.decodes(), 2u);
}

TEST(DecodeCache, HitWithAnotherExpectedLengthIsStillRejected) {
  net::BufferPool pool;
  core::Arena arena;
  core::DecodeCache cache;
  const net::SharedBytes body = make_body(pool, 10);
  const core::SparsePayload& p = cache.decode(body, kLength, arena);
  EXPECT_THROW(cache.decode(body, kLength + 1, arena), std::runtime_error);
  EXPECT_THROW(cache.decode(body, 0, arena), std::runtime_error);
  // The entry is intact for receivers that expect the header's length.
  EXPECT_EQ(&cache.decode(body, kLength, arena), &p);
  expect_same(p, decode_fresh(body));
  EXPECT_EQ(cache.size(), 1u);
}

TEST(DecodeCache, RejectedBodyLeavesNoEntry) {
  net::BufferPool pool;
  core::Arena arena;
  core::DecodeCache cache;
  const net::SharedBytes body = make_body(pool, 10);
  EXPECT_THROW(cache.decode(body, kLength + 1, arena), std::runtime_error);
  EXPECT_THROW(cache.decode(net::SharedBytes{0, 0, 1}, kLength, arena),
               std::out_of_range);
  EXPECT_EQ(cache.size(), 0u);
  expect_same(cache.decode(body, kLength, arena), decode_fresh(body));
}

TEST(DecodeCache, EntryIsDroppedOnceItsBodyHasNoOtherHolder) {
  net::BufferPool pool;
  core::Arena arena;
  core::DecodeCache cache;
  std::vector<net::SharedBytes> mailboxes(2, make_body(pool, 10));
  const std::size_t idle = pool.idle_count();

  // The first receiver reads the body; the second still holds it.
  {
    const net::SharedBytes inbox = std::move(mailboxes[0]);
    cache.decode(inbox, kLength, arena);
  }
  cache.release_unshared();
  EXPECT_EQ(cache.size(), 1u);

  // The last receiver reads it: a hit. Once its inbox lets go, the cache
  // is the only holder and drops the entry, returning the body to the pool.
  {
    const net::SharedBytes inbox = std::move(mailboxes[1]);
    cache.decode(inbox, kLength, arena);
  }
  EXPECT_EQ(cache.decodes(), 1u);
  cache.release_unshared();
  EXPECT_EQ(cache.size(), 0u);
  EXPECT_EQ(pool.idle_count(), idle + 1);
}

TEST(DecodeCache, ScratchResetDropsWhatThePreviousReceiverAloneHeld) {
  net::BufferPool pool;
  core::RoundScratch scratch;
  net::Message msg;
  msg.body = make_body(pool, 10);
  scratch.inbox.push_back(msg);
  msg = {};
  scratch.decoded.decode(scratch.inbox.front().body, kLength, scratch.arena);
  EXPECT_EQ(scratch.decoded.size(), 1u);
  scratch.reset();  // clears the inbox, then releases the unshared entry
  EXPECT_EQ(scratch.decoded.size(), 0u);
}

TEST(DecodeCache, FlushEmptiesTheCache) {
  net::BufferPool pool;
  core::Arena arena;
  core::DecodeCache cache;
  std::vector<net::SharedBytes> held;
  for (int i = 0; i < 40; ++i) {
    held.push_back(make_body(pool, 10, static_cast<float>(i)));
    cache.decode(held.back(), kLength, arena);
  }
  EXPECT_EQ(cache.size(), 40u);
  cache.flush();
  EXPECT_EQ(cache.size(), 0u);
  for (const net::SharedBytes& body : held) EXPECT_TRUE(body.sole_owner());
  // After a flush the same body is a fresh decode, and still the same bytes.
  expect_same(cache.decode(held[3], kLength, arena), decode_fresh(held[3]));
  EXPECT_EQ(cache.decodes(), 41u);
}

TEST(DecodeCache, ManyLiveEntriesSurviveEvictionsBetweenThem) {
  // Exercises the table's growth and backward-shift deletion: every other
  // body loses its last outside holder, the rest must still hit.
  net::BufferPool pool;
  core::Arena arena;
  core::DecodeCache cache;
  std::vector<net::SharedBytes> held;
  std::vector<const core::SparsePayload*> first;
  for (int i = 0; i < 200; ++i) {
    held.push_back(make_body(pool, 1 + i % 20, static_cast<float>(i)));
    first.push_back(&cache.decode(held.back(), kLength, arena));
  }
  for (std::size_t i = 0; i < held.size(); i += 2) held[i] = {};
  cache.release_unshared();
  EXPECT_EQ(cache.size(), 100u);
  for (std::size_t i = 1; i < held.size(); i += 2) {
    EXPECT_EQ(&cache.decode(held[i], kLength, arena), first[i]) << i;
  }
  EXPECT_EQ(cache.decodes(), 200u);
}

TEST(DecodeCache, SlotsAreReusedBestFit) {
  // A dense body grows its slot to the full length. After a flush, a small
  // body must get a small slot, not the dense one: recycled in any order,
  // every slot would grow to the dense size over time.
  net::BufferPool pool;
  core::Arena arena;
  core::DecodeCache cache;
  std::vector<net::SharedBytes> held{make_body(pool, 4),
                                     make_body(pool, kLength)};
  const core::SparsePayload* small = &cache.decode(held[0], kLength, arena);
  const core::SparsePayload* dense = &cache.decode(held[1], kLength, arena);
  ASSERT_GE(dense->values.capacity(), kLength);
  cache.flush();
  held = {make_body(pool, kLength, 2.0f), make_body(pool, 3, 2.0f)};
  // Both slots are free; each body takes the one that fits it, whatever
  // the arrival order.
  EXPECT_EQ(&cache.decode(held[1], kLength, arena), small);
  EXPECT_EQ(&cache.decode(held[0], kLength, arena), dense);
}

// --- the engines: decodes per pass ------------------------------------------

/// One scenario cell, run to the end; the workload outlives the experiment.
struct Cell {
  config::ScenarioRun run;
  sim::Workload workload;
  sim::ExperimentConfig cfg;
  std::unique_ptr<sim::Experiment> exp;
  sim::ExperimentResult result;
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
  cell->result = cell->exp->run();
  return cell;
}

/// Distinct senders whose messages reach lane k's receivers, summed over
/// the lanes: one decode per (lane, body) per pass. The lanes take
/// contiguous chunks of the node range (net::ThreadPool's static chunking).
std::uint64_t decodes_per_pass(const graph::Graph& g, unsigned lanes) {
  const std::size_t n = g.size();
  std::uint64_t total = 0;
  std::size_t begin = 0;
  for (unsigned k = 0; k < lanes; ++k) {
    const std::size_t end = begin + n / lanes + (k < n % lanes ? 1 : 0);
    std::set<std::size_t> senders;
    for (std::size_t i = begin; i < end; ++i) {
      for (const std::size_t j : g.neighbors(i)) senders.insert(j);
    }
    total += senders.size();
    begin = end;
  }
  return total;
}

using Peer = sim::ExperimentTestPeer;

TEST(DecodeCount, SyncPassDecodesEachBodyOncePerLane) {
  const char* const cells[] = {
      // An 8-node ring, random sampling (seed-mode index draws).
      "workload = scale\nalgorithm = random-sampling\nnodes = 8\n"
      "topology = ring\nrounds = 3\nseed = 7\neval_every = 3\n",
      // A 5-regular JWINS cell.
      "workload = movielens\nalgorithm = jwins\nnodes = 16\n"
      "topology = regular\ntopology_degree = 5\nrounds = 3\nseed = 1\n"
      "eval_every = 3\neval_node_limit = 4\n",
  };
  for (const char* const scenario : cells) {
    for (const unsigned threads : {1u, 4u}) {
      const auto cell = run_cell(std::string(scenario) + "threads = " +
                                 std::to_string(threads));
      SCOPED_TRACE(cell->run.config.algorithm == sim::Algorithm::kJwins
                       ? "jwins"
                       : "random sampling");
      SCOPED_TRACE("threads = " + std::to_string(threads));
      const std::uint64_t per_pass =
          decodes_per_pass(config::make_run_topology(cell->run)->round_graph(0),
                           Peer::lanes(*cell->exp));
      const std::uint64_t rounds = cell->result.rounds_run;
      // One lane decodes each of the n broadcast bodies exactly once.
      if (threads == 1) {
        EXPECT_EQ(per_pass, cell->run.nodes);
      }
      // A message is one (body, receiver) pair, and no lane decodes any
      // body twice. (On the 8-node ring at 4 lanes of 2 nodes, the two
      // receivers of every body sit on different lanes: equality.)
      EXPECT_LE(per_pass * rounds, cell->result.total_traffic.messages_sent);
      EXPECT_EQ(Peer::decodes(*cell->exp), per_pass * rounds);
      EXPECT_EQ(Peer::cached_entries(*cell->exp), 0u);
    }
  }
}

TEST(DecodeCount, EventEngineFlushesEveryPass) {
  // Barrier mode: each local step is its own pass too, so every message
  // the gate applies is a decode of its own.
  const auto barrier = run_cell(
      "workload = scale\nalgorithm = random-sampling\nnodes = 8\n"
      "topology = ring\nrounds = 3\nseed = 7\neval_every = 3\n"
      "engine = async\nthreads = 1\n");
  EXPECT_EQ(testutil::check_report(barrier->result, barrier->cfg, 8), "");
  const std::vector<std::uint64_t>& ages =
      barrier->result.event_engine.staleness_histogram;
  const std::uint64_t applied =
      std::accumulate(ages.begin(), ages.end(), std::uint64_t{0});
  EXPECT_GT(applied, 0u);
  EXPECT_EQ(Peer::decodes(*barrier->exp), applied);
  EXPECT_EQ(Peer::cached_entries(*barrier->exp), 0u);

  // Free mode: each local step is its own pass, so every applied
  // contribution is a decode of its own.
  const auto free = run_cell(
      "workload = movielens\nalgorithm = choco\nchoco_fraction = 0.10\n"
      "choco_gamma = 0.1\nnodes = 16\ntopology = regular\nrounds = 6\n"
      "seed = 13\nengine = async\nasync_mode = free\n"
      "bandwidth_dist = lognormal:100:0.75\nlatency_dist = uniform:2:40\n"
      "straggler_fraction = 0.3\nstraggler_slowdown = 4\nthreads = 1\n");
  EXPECT_EQ(testutil::check_report(free->result, free->cfg, 16), "");
  EXPECT_GT(free->result.event_engine.contributions_applied, 0u);
  EXPECT_EQ(Peer::decodes(*free->exp),
            free->result.event_engine.contributions_applied);
  EXPECT_EQ(Peer::cached_entries(*free->exp), 0u);
}

}  // namespace
}  // namespace jwins
