// Unit and stress tests for the persistent fork-join engine
// (net/thread_pool.hpp): coverage, ordering, nested-call behavior,
// first-error exception semantics, bit-exact ordered reduction, and a
// construction/dispatch churn loop that must stay clean under
// ASan/UBSan/TSan (the CI sanitizer jobs run this file).
#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/thread_pool.hpp"

namespace jwins::net {
namespace {

TEST(ThreadPool, ZeroIterationsIsNoop) {
  ThreadPool pool(4);
  bool called = false;
  pool.parallel_for_lane(0, [&](unsigned, std::size_t) { called = true; });
  EXPECT_FALSE(called);
}

TEST(ThreadPool, ThreadCountClampedToAtLeastOne) {
  EXPECT_EQ(ThreadPool(0).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(1).thread_count(), 1u);
  EXPECT_EQ(ThreadPool(3).thread_count(), 3u);
  EXPECT_GE(ThreadPool::default_thread_count(), 1u);
}

TEST(ThreadPool, FewerIterationsThanWorkersCoversAllOnce) {
  ThreadPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.parallel_for_lane(
      3, [&](unsigned, std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ManyIterationsCoverAllOnce) {
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(10000);
  pool.parallel_for_lane(
      hits.size(), [&](unsigned, std::size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, SequentialOrderWhenOneThread) {
  ThreadPool pool(1);
  std::vector<int> order;
  pool.parallel_for_lane(10, [&](unsigned, std::size_t i) {
    order.push_back(static_cast<int>(i));
  });
  std::vector<int> expected(10);
  std::iota(expected.begin(), expected.end(), 0);
  EXPECT_EQ(order, expected);
}

TEST(ThreadPool, ChunksAreContiguousAndInIndexOrderPerThread) {
  // Static chunking: each thread's indices must be one ascending contiguous
  // range — a work-stealing pool would interleave them.
  ThreadPool pool(4);
  constexpr std::size_t n = 1000;
  std::vector<std::thread::id> owner(n);
  std::vector<std::atomic<int>> seq(n);
  std::atomic<int> ticket{0};
  pool.parallel_for_lane(n, [&](unsigned, std::size_t i) {
    owner[i] = std::this_thread::get_id();
    seq[i] = ticket.fetch_add(1);
  });
  for (std::size_t i = 1; i < n; ++i) {
    if (owner[i] == owner[i - 1]) {
      EXPECT_LT(seq[i - 1].load(), seq[i].load()) << "index " << i;
    }
  }
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock) {
  // Documented behavior: a parallel_for_lane issued from inside a worker
  // body executes inline sequentially on that thread (no re-entrant
  // dispatch).
  ThreadPool pool(4);
  std::vector<std::atomic<int>> hits(16 * 8);
  pool.parallel_for_lane(16, [&](unsigned outer_lane, std::size_t outer) {
    const auto self = std::this_thread::get_id();
    pool.parallel_for_lane(8, [&](unsigned inner_lane, std::size_t inner) {
      EXPECT_EQ(std::this_thread::get_id(), self);
      EXPECT_EQ(inner_lane, outer_lane);
      hits[outer * 8 + inner].fetch_add(1);
    });
  });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ExceptionPropagatesExactlyOnce) {
  ThreadPool pool(4);
  int caught = 0;
  try {
    pool.parallel_for_lane(64, [&](unsigned, std::size_t i) {
      if (i == 17) throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error& e) {
    ++caught;
    EXPECT_STREQ(e.what(), "boom");
  }
  EXPECT_EQ(caught, 1);
  // The pool must stay usable after a failed job.
  std::atomic<int> ok{0};
  pool.parallel_for_lane(8, [&](unsigned, std::size_t) { ok.fetch_add(1); });
  EXPECT_EQ(ok.load(), 8);
}

TEST(ThreadPool, FirstErrorSemanticsMatchSequential) {
  // Every index >= 10 throws, tagged with its index; the surfaced error must
  // be index 10 — what a sequential loop would hit first — at any width.
  for (const unsigned threads : {1u, 2u, 4u, 7u}) {
    ThreadPool pool(threads);
    std::string what;
    try {
      pool.parallel_for_lane(100, [&](unsigned, std::size_t i) {
        if (i >= 10) throw std::runtime_error(std::to_string(i));
      });
    } catch (const std::runtime_error& e) {
      what = e.what();
    }
    EXPECT_EQ(what, "10") << "threads=" << threads;
  }
}

TEST(ThreadPool, OrderedReduceMatchesAccumulateBitForBit) {
  // Values spanning ~16 orders of magnitude make float addition visibly
  // non-associative, so any chunk-local partial summing would diverge.
  constexpr std::size_t n = 4097;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i) {
    values[i] = std::pow(-1.1, static_cast<double>(i % 67)) * 1e-8 +
                static_cast<double>(i) * 1e7;
  }
  const double expected = std::accumulate(values.begin(), values.end(), 0.0);
  for (const unsigned threads : {1u, 2u, 3u, 8u}) {
    ThreadPool pool(threads);
    const double got = pool.parallel_reduce(
        n, 0.0, [&](unsigned, std::size_t i) { return values[i]; },
        [](double a, double b) { return a + b; });
    EXPECT_EQ(got, expected) << "threads=" << threads;
  }
}

TEST(ThreadPool, ReduceEmptyRangeReturnsInit) {
  ThreadPool pool(4);
  const double got = pool.parallel_reduce(
      0, 42.0, [](unsigned, std::size_t) { return 1.0; },
      [](double a, double b) { return a + b; });
  EXPECT_EQ(got, 42.0);
}

TEST(ThreadPool, ExceptionInReduceMapPropagates) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_reduce(
                   32, 0.0,
                   [](unsigned, std::size_t i) -> double {
                     if (i == 5) throw std::logic_error("map");
                     return 1.0;
                   },
                   [](double a, double b) { return a + b; }),
               std::logic_error);
}

TEST(ThreadPoolStress, DispatchChurnIsClean) {
  // Many small dispatches through one pool: exercises the wake/finish
  // handshake under scheduling noise (sanitizer jobs run this threaded).
  ThreadPool pool(4);
  std::atomic<long> total{0};
  for (int iter = 0; iter < 500; ++iter) {
    pool.parallel_for_lane(64, [&](unsigned, std::size_t i) {
      total.fetch_add(static_cast<long>(i));
    });
  }
  EXPECT_EQ(total.load(), 500L * (64 * 63 / 2));
}

TEST(ThreadPoolStress, ConstructionChurnIsClean) {
  // Pools created and torn down in a loop, including ones that never run a
  // job and ones destroyed right after a dispatch.
  for (int iter = 0; iter < 50; ++iter) {
    for (const unsigned threads : {1u, 2u, 5u}) {
      ThreadPool pool(threads);
      if (iter % 3 == 0) continue;  // destroy without dispatching
      std::atomic<int> hits{0};
      pool.parallel_for_lane(17,
                             [&](unsigned, std::size_t) { hits.fetch_add(1); });
      EXPECT_EQ(hits.load(), 17);
    }
  }
}

}  // namespace
}  // namespace jwins::net
