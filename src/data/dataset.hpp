// Dataset abstraction + batching for the decentralized training loop.
//
// A Dataset is an indexable collection of samples that can materialize any
// index subset as an nn::Batch. Nodes own index lists produced by the
// partitioners (non-IID splits) and draw mini-batches through a Sampler.
#pragma once

#include <cstdint>
#include <memory>
#include <random>
#include <span>
#include <vector>

#include "nn/model.hpp"

namespace jwins::data {

using nn::Batch;

class Dataset {
 public:
  virtual ~Dataset() = default;

  virtual std::size_t size() const = 0;

  /// Materializes the given sample indices as one batch.
  virtual Batch make_batch(std::span<const std::size_t> indices) const = 0;

  /// Class label of a sample, or -1 for non-classification tasks. Used by
  /// the label-sharding partitioner.
  virtual std::int32_t label_of(std::size_t index) const { (void)index; return -1; }

  /// Client (data producer) of a sample, or -1 if the dataset has no client
  /// structure. Used by the client partitioner (LEAF-style datasets).
  virtual std::int32_t client_of(std::size_t index) const { (void)index; return -1; }

  /// Number of distinct clients (0 if none).
  virtual std::size_t client_count() const { return 0; }
};

/// Draws shuffled mini-batches from a fixed index subset (one node's shard),
/// reshuffling each epoch — the standard local SGD sampling loop.
///
/// kCounter mode replaces the stateful shuffle with a counter-keyed draw:
/// step s samples `batch_size` indices with replacement from a fresh
/// core::CounterRng keyed on (seed, s). The stream is a pure function of
/// (seed, step), so it can be repositioned with seek() and the whole sampler
/// retargeted to another node's shard with rebind() — the property the
/// compact node-state engine uses to run millions of simulated nodes through
/// a handful of lane-worker samplers without per-node sampler state.
class Sampler {
 public:
  enum class Mode { kShuffle, kCounter };

  Sampler(const Dataset& dataset, std::vector<std::size_t> indices,
          std::size_t batch_size, std::uint64_t seed,
          Mode mode = Mode::kShuffle);

  /// Next mini-batch; wraps around (new shuffle) at epoch end. In kCounter
  /// mode: the step_-keyed with-replacement draw, then step_ advances.
  Batch next();

  std::size_t batch_size() const noexcept { return batch_size_; }
  Mode mode() const noexcept { return mode_; }

  /// Number of batches per full pass over the local data.
  std::size_t batches_per_epoch() const noexcept;

  /// Repositions the counter stream so the next draw is step `step`'s
  /// (kCounter only; throws in kShuffle mode, whose stream is stateful).
  void seek(std::size_t step);

  /// Retargets this sampler at another shard/stream without allocating in
  /// steady state (kCounter only): `indices` are copied into the existing
  /// storage, the stream key becomes `seed`, and the position `step`.
  void rebind(std::span<const std::size_t> indices, std::uint64_t seed,
              std::size_t step);

 private:
  const Dataset* dataset_;
  std::vector<std::size_t> indices_;
  std::size_t batch_size_;
  std::size_t cursor_ = 0;
  std::mt19937_64 rng_;
  Mode mode_ = Mode::kShuffle;
  std::uint64_t seed_ = 0;    ///< kCounter stream key
  std::size_t step_ = 0;      ///< kCounter position
  std::vector<std::size_t> pick_;  ///< kCounter per-draw scratch
};

/// Materializes the whole dataset (or an `limit`-sized prefix subsample) as
/// a single batch — used for test-set evaluation.
Batch full_batch(const Dataset& dataset, std::size_t limit = 0);

}  // namespace jwins::data
