#include "net/thread_pool.hpp"

#include <algorithm>

namespace jwins::net {

namespace {

// Set while a thread (worker or caller) is executing a chunk body; a
// parallel_for_lane issued from inside runs inline instead of deadlocking on
// the pool's single job slot.
thread_local bool tls_in_parallel_region = false;

// Lane of the chunk this thread is currently executing. Nested (inline)
// calls inherit it, so per-lane scratch stays exclusive to one OS thread
// even through nesting.
thread_local unsigned tls_current_lane = 0;

}  // namespace

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned total = std::max(1u, threads);
  errors_.resize(total);
  workers_.reserve(total - 1);
  for (unsigned w = 1; w < total; ++w) {
    workers_.emplace_back([this, w] { worker_loop(w); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  cv_work_.notify_all();
  for (std::thread& t : workers_) t.join();
}

std::pair<std::size_t, std::size_t> ThreadPool::chunk_range(
    std::size_t n, unsigned k, unsigned chunks) noexcept {
  const std::size_t base = n / chunks;
  const std::size_t extra = n % chunks;
  const std::size_t begin = k * base + std::min<std::size_t>(k, extra);
  return {begin, begin + base + (k < extra ? 1 : 0)};
}

void ThreadPool::worker_loop(unsigned chunk_index) {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    cv_work_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    const std::size_t n = job_n_;
    const ChunkFn run = job_run_;
    void* ctx = job_ctx_;
    lock.unlock();
    const auto [begin, end] = chunk_range(n, chunk_index, thread_count());
    tls_in_parallel_region = true;
    tls_current_lane = chunk_index;
    try {
      if (begin < end) run(ctx, chunk_index, begin, end);
    } catch (...) {
      errors_[chunk_index] = std::current_exception();
    }
    tls_in_parallel_region = false;
    tls_current_lane = 0;
    lock.lock();
    if (--remaining_ == 0) cv_done_.notify_one();
  }
}

void ThreadPool::run_job(std::size_t n, ChunkFn run, void* ctx) {
  if (n == 0) return;
  const unsigned total = thread_count();
  if (total == 1 || n == 1 || tls_in_parallel_region) {
    // Inline: exceptions propagate directly. The lane is whatever the
    // calling thread already executes on (0 outside any pool region).
    run(ctx, tls_current_lane, 0, n);
    return;
  }
  {
    std::lock_guard<std::mutex> lock(mutex_);
    job_n_ = n;
    job_run_ = run;
    job_ctx_ = ctx;
    std::fill(errors_.begin(), errors_.end(), nullptr);
    remaining_ = static_cast<unsigned>(workers_.size());
    ++generation_;
  }
  cv_work_.notify_all();
  const auto [begin, end] = chunk_range(n, 0, total);
  tls_in_parallel_region = true;
  tls_current_lane = 0;
  try {
    if (begin < end) run(ctx, 0, begin, end);
  } catch (...) {
    errors_[0] = std::current_exception();
  }
  tls_in_parallel_region = false;
  {
    std::unique_lock<std::mutex> lock(mutex_);
    cv_done_.wait(lock, [&] { return remaining_ == 0; });
  }
  // First-error semantics: chunks partition [0, n) in index order and each
  // chunk stops at its first throw, so the lowest-chunk error is exactly the
  // error a sequential loop would have surfaced.
  for (std::exception_ptr& e : errors_) {
    if (e) {
      std::exception_ptr first = std::move(e);
      e = nullptr;
      std::rethrow_exception(first);
    }
  }
}

}  // namespace jwins::net
