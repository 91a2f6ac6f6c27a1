#include <gtest/gtest.h>

#include <set>

#include "data/partition.hpp"
#include "data/synthetic.hpp"

namespace jwins::data {
namespace {

// ---------------------------------------------------------------- images

SyntheticImages::Config small_images() {
  SyntheticImages::Config cfg;
  cfg.classes = 4;
  cfg.channels = 1;
  cfg.image_size = 4;
  cfg.samples = 256;
  cfg.noise = 0.3f;
  cfg.seed = 7;
  cfg.sample_seed = 70;
  return cfg;
}

TEST(SyntheticImages, DeterministicForSameSeeds) {
  const SyntheticImages a(small_images());
  const SyntheticImages b(small_images());
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); i += 17) {
    EXPECT_EQ(a.label_of(i), b.label_of(i));
    const auto pa = a.pixels(i), pb = b.pixels(i);
    for (std::size_t j = 0; j < pa.size(); ++j) EXPECT_EQ(pa[j], pb[j]);
  }
}

TEST(SyntheticImages, DifferentSampleSeedsShareDistribution) {
  // Same prototypes (seed), different draws (sample_seed): samples of the
  // same class across the two datasets must be much closer than samples of
  // different classes.
  auto cfg = small_images();
  const SyntheticImages train(cfg);
  cfg.sample_seed = 71;
  const SyntheticImages test(cfg);
  // Find one sample per class in each set.
  auto find_class = [](const SyntheticImages& ds, std::int32_t c) {
    for (std::size_t i = 0; i < ds.size(); ++i) {
      if (ds.label_of(i) == c) return i;
    }
    return std::size_t{0};
  };
  auto dist = [](std::span<const float> a, std::span<const float> b) {
    double d = 0.0;
    for (std::size_t i = 0; i < a.size(); ++i) {
      d += (a[i] - b[i]) * (a[i] - b[i]);
    }
    return d;
  };
  const auto t0 = train.pixels(find_class(train, 0));
  const auto same = test.pixels(find_class(test, 0));
  const auto diff = test.pixels(find_class(test, 1));
  EXPECT_LT(dist(t0, same), dist(t0, diff));
}

TEST(SyntheticImages, BatchLayoutMatchesPixels) {
  const SyntheticImages ds(small_images());
  const std::vector<std::size_t> idx{3, 10};
  const nn::Batch batch = ds.make_batch(idx);
  EXPECT_EQ(batch.x.shape(), (tensor::Shape{2, 1, 4, 4}));
  EXPECT_EQ(batch.labels.size(), 2u);
  const auto px = ds.pixels(10);
  for (std::size_t j = 0; j < px.size(); ++j) {
    EXPECT_EQ(batch.x[16 + j], px[j]);
  }
  EXPECT_EQ(batch.labels[1], ds.label_of(10));
}

TEST(SyntheticImages, ClientsAssignedWhenConfigured) {
  auto cfg = small_images();
  cfg.clients = 8;
  cfg.client_style = 0.3f;
  const SyntheticImages ds(cfg);
  EXPECT_EQ(ds.client_count(), 8u);
  std::set<std::int32_t> seen;
  for (std::size_t i = 0; i < ds.size(); ++i) {
    const auto c = ds.client_of(i);
    ASSERT_GE(c, 0);
    ASSERT_LT(c, 8);
    seen.insert(c);
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(SyntheticImages, OutOfRangeThrows) {
  const SyntheticImages ds(small_images());
  const std::vector<std::size_t> idx{ds.size()};
  EXPECT_THROW(ds.make_batch(idx), std::out_of_range);
  EXPECT_THROW(ds.pixels(ds.size()), std::out_of_range);
}

// --------------------------------------------------------------- ratings

TEST(SyntheticRatings, RatingsInRangeAndMeanSane) {
  SyntheticRatings::Config cfg;
  cfg.users = 16;
  cfg.items = 32;
  cfg.ratings_per_user = 10;
  const SyntheticRatings ds(cfg);
  EXPECT_EQ(ds.size(), 160u);
  const nn::Batch b = full_batch(ds);
  for (std::size_t i = 0; i < b.y.size(); ++i) {
    EXPECT_GE(b.y[i], 1.0f);
    EXPECT_LE(b.y[i], 5.0f);
  }
  EXPECT_GT(ds.rating_mean(), 2.0f);
  EXPECT_LT(ds.rating_mean(), 4.0f);
}

TEST(SyntheticRatings, ClientIsUser) {
  SyntheticRatings::Config cfg;
  cfg.users = 4;
  cfg.items = 8;
  cfg.ratings_per_user = 3;
  const SyntheticRatings ds(cfg);
  const nn::Batch b = full_batch(ds);
  for (std::size_t i = 0; i < ds.size(); ++i) {
    EXPECT_EQ(ds.client_of(i), static_cast<std::int32_t>(b.x[i * 2]));
  }
}

// ------------------------------------------------------------------ text

TEST(SyntheticText, TokensWithinVocabAndShifted) {
  SyntheticText::Config cfg;
  cfg.vocab = 8;
  cfg.seq_len = 5;
  cfg.clients = 3;
  cfg.samples_per_client = 4;
  const SyntheticText ds(cfg);
  EXPECT_EQ(ds.size(), 12u);
  const std::vector<std::size_t> idx{0, 5};
  const nn::Batch b = ds.make_batch(idx);
  EXPECT_EQ(b.x.shape(), (tensor::Shape{2, 5}));
  EXPECT_EQ(b.labels.size(), 10u);
  for (std::size_t i = 0; i < b.x.size(); ++i) {
    EXPECT_GE(b.x[i], 0.0f);
    EXPECT_LT(b.x[i], 8.0f);
  }
  // Next-character structure: labels[t] == x[t+1] within each row.
  for (std::size_t r = 0; r < 2; ++r) {
    for (std::size_t t = 0; t + 1 < 5; ++t) {
      EXPECT_EQ(static_cast<float>(b.labels[r * 5 + t]), b.x[r * 5 + t + 1]);
    }
  }
}

TEST(SyntheticText, ClientStyleZeroMakesClientsStatisticallySimilar) {
  // With style 0 every client shares the base transition matrix; with style
  // 1 they are independent. Compare client-wise bigram histograms.
  auto bigram_distance = [](float style) {
    SyntheticText::Config cfg;
    cfg.vocab = 6;
    cfg.seq_len = 40;
    cfg.clients = 2;
    cfg.samples_per_client = 40;
    cfg.client_style = style;
    const SyntheticText ds(cfg);
    std::vector<std::vector<double>> hist(2, std::vector<double>(36, 0.0));
    for (std::size_t s = 0; s < ds.size(); ++s) {
      const nn::Batch b = ds.make_batch(std::vector<std::size_t>{s});
      const auto c = static_cast<std::size_t>(ds.client_of(s));
      for (std::size_t t = 0; t + 1 < 40; ++t) {
        const auto from = static_cast<std::size_t>(b.x[t]);
        const auto to = static_cast<std::size_t>(b.x[t + 1]);
        hist[c][from * 6 + to] += 1.0;
      }
    }
    for (auto& h : hist) {
      double total = 0.0;
      for (double v : h) total += v;
      for (double& v : h) v /= total;
    }
    double d = 0.0;
    for (std::size_t i = 0; i < 36; ++i) d += std::abs(hist[0][i] - hist[1][i]);
    return d;
  };
  EXPECT_LT(bigram_distance(0.0f), bigram_distance(1.0f));
}

// ------------------------------------------------------------- partitions

TEST(ShardPartition, LimitsClassesPerNode) {
  // 2 shards per node over label-sorted data -> each node sees <= 2*shards
  // label runs; with 2 shards that is at most 4 classes (paper §IV-B d).
  SyntheticImages::Config cfg = small_images();
  cfg.classes = 10;
  cfg.samples = 1000;
  const SyntheticImages ds(cfg);
  const Partition p = shard_partition(ds, 10, 2, 3);
  EXPECT_EQ(p.size(), 10u);
  for (const auto& shard : p) {
    EXPECT_LE(distinct_labels(ds, shard), 4u);
    EXPECT_FALSE(shard.empty());
  }
}

TEST(ShardPartition, CoversAllSamples) {
  const SyntheticImages ds(small_images());
  const Partition p = shard_partition(ds, 8, 2, 5);
  std::set<std::size_t> all;
  for (const auto& shard : p) all.insert(shard.begin(), shard.end());
  EXPECT_EQ(all.size(), ds.size());
}

TEST(ShardPartition, DifferentSeedsGiveDifferentDeals) {
  const SyntheticImages ds(small_images());
  const Partition a = shard_partition(ds, 8, 2, 1);
  const Partition b = shard_partition(ds, 8, 2, 2);
  EXPECT_NE(a[0], b[0]);
}

TEST(ClientPartition, KeepsClientsWhole) {
  SyntheticImages::Config cfg = small_images();
  cfg.clients = 16;
  const SyntheticImages ds(cfg);
  const Partition p = client_partition(ds, 4, 9);
  EXPECT_EQ(p.size(), 4u);
  // No client's samples may span two nodes.
  std::vector<int> owner(16, -1);
  for (std::size_t node = 0; node < 4; ++node) {
    for (std::size_t idx : p[node]) {
      const auto c = static_cast<std::size_t>(ds.client_of(idx));
      if (owner[c] == -1) owner[c] = static_cast<int>(node);
      EXPECT_EQ(owner[c], static_cast<int>(node));
    }
  }
}

TEST(ClientPartition, RequiresEnoughClients) {
  SyntheticImages::Config cfg = small_images();
  cfg.clients = 2;
  const SyntheticImages ds(cfg);
  EXPECT_THROW(client_partition(ds, 4, 1), std::invalid_argument);
}

TEST(ShardPartition, DatasetWithoutLabelsThrows) {
  SyntheticRatings::Config cfg;
  cfg.users = 4;
  cfg.items = 8;
  const SyntheticRatings ds(cfg);
  EXPECT_THROW(shard_partition(ds, 2, 2, 1), std::invalid_argument);
}

// --------------------------------------------------------------- sampler

TEST(Sampler, BatchesHaveRequestedSize) {
  const SyntheticImages ds(small_images());
  std::vector<std::size_t> indices;
  for (std::size_t i = 0; i < 40; ++i) indices.push_back(i);
  Sampler sampler(ds, indices, 8, 123);
  EXPECT_EQ(sampler.batches_per_epoch(), 5u);
  for (int i = 0; i < 12; ++i) {  // crosses two epoch boundaries
    const nn::Batch b = sampler.next();
    EXPECT_EQ(b.size(), 8u);
  }
}

TEST(Sampler, CoversEveryIndexEachEpoch) {
  const SyntheticImages ds(small_images());
  std::vector<std::size_t> indices;
  for (std::size_t i = 100; i < 116; ++i) indices.push_back(i);
  Sampler sampler(ds, indices, 4, 5);
  // One epoch = 4 batches; collect the labels of returned samples by
  // matching against dataset pixels is overkill — instead check the sampler
  // returns exactly 16 samples per epoch (shuffled wrap happens at epoch
  // boundaries only).
  std::size_t count = 0;
  for (int i = 0; i < 4; ++i) count += sampler.next().size();
  EXPECT_EQ(count, 16u);
}

TEST(Sampler, EmptyIndexSetThrows) {
  const SyntheticImages ds(small_images());
  EXPECT_THROW(Sampler(ds, {}, 4, 1), std::invalid_argument);
}

TEST(FullBatch, RespectsLimit) {
  const SyntheticImages ds(small_images());
  EXPECT_EQ(full_batch(ds).size(), ds.size());
  EXPECT_EQ(full_batch(ds, 10).size(), 10u);
}

}  // namespace
}  // namespace jwins::data
