// Persistent fork-join thread pool with deterministic work assignment.
//
// Replaces the old spawn-threads-per-call net::parallel_for helper: workers
// are created once (per Experiment) and parked on a condition variable, so a
// phase dispatch costs a notify + join handshake instead of N pthread
// creates, and the per-call std::function allocation is gone (jobs are a raw
// function pointer + context pointer into the caller's stack frame).
//
// Determinism contract:
//  * parallel_for splits [0, n) into one contiguous chunk per thread using
//    only (n, thread_count) — no atomic work-stealing, so which thread runs
//    which index never depends on scheduling. Each index runs exactly once.
//  * parallel_reduce materializes map(lane, i) per index and folds them in
//    index order on the calling thread, so floating-point reductions are
//    bit-identical to a sequential std::accumulate at any thread count.
//  * Exceptions: chunks run to completion independently; afterwards the
//    exception of the lowest-index chunk (= the error a sequential loop
//    would have hit first, since a chunk stops at its first throw) is
//    rethrown exactly once on the calling thread.
//  * Nested calls execute inline sequentially on the calling thread —
//    documented behavior, not an error, so library code can use the pool
//    without caring who called it. The guard is process-wide (a thread_local
//    flag, not per-pool): a parallel_for on ANY pool from inside ANY pool's
//    region runs inline. That is deliberate — it also stops an outer pool's
//    workers from driving an inner pool from several threads at once, which
//    the single-orchestrator contract below forbids.
//
// One orchestrating thread drives the pool; concurrent parallel_for calls
// from different external threads on the same pool are not supported.
#pragma once

#include <algorithm>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace jwins::net {

class ThreadPool {
 public:
  /// `threads` counts the calling thread: the pool spawns `threads - 1`
  /// workers and the caller executes chunk 0. 0 and 1 both mean "no
  /// workers, run everything inline" (the fully sequential engine).
  explicit ThreadPool(unsigned threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution lanes, including the calling thread (>= 1).
  unsigned thread_count() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Most lanes a configuration may ask for: each is an OS thread, and
  /// every lane carries its own scratch (and, under compact node state, its
  /// own model).
  static constexpr unsigned kMaxThreads = 1024;

  /// Default for "as fast as the hardware allows" callers.
  static unsigned default_thread_count() noexcept {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : std::min(hw, kMaxThreads);
  }

  /// Runs fn(i) for every i in [0, n), statically chunked across threads.
  template <class Fn>
  void parallel_for(std::size_t n, Fn&& fn) {
    using Body = std::remove_reference_t<Fn>;
    run_job(n,
            [](void* ctx, unsigned, std::size_t begin, std::size_t end) {
              Body& body = *static_cast<Body*>(ctx);
              for (std::size_t i = begin; i < end; ++i) body(i);
            },
            &fn);
  }

  /// Lane-aware variant: runs fn(lane, i), where `lane` identifies the
  /// execution lane in [0, thread_count()). Two invocations running
  /// concurrently always see different lanes, so per-lane scratch state
  /// (e.g. sim::Experiment's core::RoundScratch arenas) is race-free by
  /// construction. Lane assignment is as deterministic as the chunking: it
  /// depends only on (n, thread_count), never on scheduling. Nested calls
  /// run inline on the caller's current lane.
  template <class Fn>
  void parallel_for_lane(std::size_t n, Fn&& fn) {
    using Body = std::remove_reference_t<Fn>;
    run_job(n,
            [](void* ctx, unsigned lane, std::size_t begin, std::size_t end) {
              Body& body = *static_cast<Body*>(ctx);
              for (std::size_t i = begin; i < end; ++i) body(lane, i);
            },
            &fn);
  }

  /// Ordered reduction: parallel lane-aware map(lane, i) (lanes as in
  /// parallel_for_lane), sequential index-order fold. T must be
  /// default-constructible (the map buffer is pre-sized).
  template <class T, class Map, class Combine>
  T parallel_reduce(std::size_t n, T init, Map&& map, Combine&& combine) {
    std::vector<T> mapped(n);
    parallel_for_lane(
        n, [&](unsigned lane, std::size_t i) { mapped[i] = map(lane, i); });
    T acc = std::move(init);
    for (std::size_t i = 0; i < n; ++i) {
      acc = combine(std::move(acc), std::move(mapped[i]));
    }
    return acc;
  }

 private:
  using ChunkFn = void (*)(void* ctx, unsigned lane, std::size_t begin,
                           std::size_t end);

  /// Chunk `k` of `chunks` over [0, n): contiguous, sizes differ by <= 1.
  static std::pair<std::size_t, std::size_t> chunk_range(
      std::size_t n, unsigned k, unsigned chunks) noexcept;

  void run_job(std::size_t n, ChunkFn run, void* ctx);
  void worker_loop(unsigned chunk_index);

  std::vector<std::thread> workers_;
  std::mutex mutex_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::exception_ptr> errors_;  ///< one slot per chunk
  std::size_t job_n_ = 0;
  ChunkFn job_run_ = nullptr;
  void* job_ctx_ = nullptr;
  std::uint64_t generation_ = 0;
  unsigned remaining_ = 0;
  bool stop_ = false;
};

}  // namespace jwins::net
