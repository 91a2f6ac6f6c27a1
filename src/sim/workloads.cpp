#include "sim/workloads.hpp"

#include <algorithm>
#include <stdexcept>

namespace jwins::sim {

namespace {

std::size_t scaled(std::size_t base, double scale) {
  return std::max<std::size_t>(1, static_cast<std::size_t>(
                                      static_cast<double>(base) * scale));
}

/// The scale workload's model: a ~50-parameter MLP over 1-channel 2x2
/// images, small enough for the 100k–1M-node runs.
constexpr std::size_t kScaleFeatures = 4;
constexpr std::size_t kScaleHidden = 8;
constexpr std::size_t kScaleClasses = 2;

}  // namespace

Workload make_cifar_like(std::size_t nodes, std::uint32_t seed, double scale) {
  data::SyntheticImages::Config train_cfg;
  train_cfg.classes = 10;
  train_cfg.channels = 3;
  train_cfg.image_size = 8;
  train_cfg.samples = scaled(std::max<std::size_t>(nodes * 64, 640), scale);
  train_cfg.noise = 1.8f;
  train_cfg.seed = seed;
  train_cfg.sample_seed = seed + 101;
  auto train = std::make_shared<data::SyntheticImages>(train_cfg);

  data::SyntheticImages::Config test_cfg = train_cfg;
  test_cfg.samples = scaled(320, scale);
  test_cfg.sample_seed = seed + 202;  // same prototypes, fresh draws
  auto test = std::make_shared<data::SyntheticImages>(test_cfg);

  Workload w;
  w.name = "cifar";
  w.train = train;
  w.test = test;
  w.partition = data::shard_partition(*train, nodes, /*shards_per_node=*/2, seed);
  w.suggested_lr = 0.05f;
  w.model_factory = [seed] {
    nn::CnnClassifier::Config cfg;
    cfg.in_channels = 3;
    cfg.image_size = 8;
    cfg.conv1_channels = 8;
    cfg.conv2_channels = 16;
    cfg.groups = 2;
    cfg.classes = 10;
    return std::make_unique<nn::CnnClassifier>(cfg, seed);
  };
  return w;
}

Workload make_cifar_like_4shard(std::size_t nodes, std::uint32_t seed,
                                double scale) {
  Workload w = make_cifar_like(nodes, seed, scale);
  w.name = "cifar-4shard";
  w.partition = data::shard_partition(*w.train, nodes, /*shards_per_node=*/4, seed);
  return w;
}

Workload make_movielens_like(std::size_t nodes, std::uint32_t seed,
                             double scale) {
  data::SyntheticRatings::Config train_cfg;
  train_cfg.users = std::max<std::size_t>(nodes * 2, 32);
  train_cfg.items = 96;
  train_cfg.true_rank = 4;
  train_cfg.ratings_per_user = scaled(40, scale);
  train_cfg.noise = 0.25f;
  train_cfg.seed = seed;
  train_cfg.sample_seed = seed + 101;
  auto train = std::make_shared<data::SyntheticRatings>(train_cfg);

  data::SyntheticRatings::Config test_cfg = train_cfg;
  test_cfg.ratings_per_user = scaled(8, scale);
  test_cfg.sample_seed = seed + 202;
  auto test = std::make_shared<data::SyntheticRatings>(test_cfg);

  Workload w;
  w.name = "movielens";
  w.train = train;
  w.test = test;
  w.partition = data::client_partition(*train, nodes, seed);
  const std::size_t users = train_cfg.users;
  const std::size_t items = train_cfg.items;
  const float mean = train->rating_mean();
  w.suggested_lr = 0.6f;
  w.model_factory = [users, items, mean, seed] {
    return std::make_unique<nn::MatrixFactorization>(users, items, /*dim=*/6,
                                                     mean, seed);
  };
  return w;
}

Workload make_shakespeare_like(std::size_t nodes, std::uint32_t seed,
                               double scale) {
  data::SyntheticText::Config train_cfg;
  train_cfg.vocab = 20;
  train_cfg.seq_len = 12;
  train_cfg.clients = std::max<std::size_t>(nodes, 8);
  train_cfg.samples_per_client = scaled(24, scale);
  train_cfg.client_style = 0.5f;
  train_cfg.seed = seed;
  train_cfg.sample_seed = seed + 101;
  auto train = std::make_shared<data::SyntheticText>(train_cfg);

  data::SyntheticText::Config test_cfg = train_cfg;
  test_cfg.samples_per_client = scaled(6, scale);
  test_cfg.sample_seed = seed + 202;
  auto test = std::make_shared<data::SyntheticText>(test_cfg);

  Workload w;
  w.name = "shakespeare";
  w.train = train;
  w.test = test;
  w.partition = data::client_partition(*train, nodes, seed);
  w.suggested_lr = 2.5f;
  w.suggested_local_steps = 3;
  w.model_factory = [seed] {
    nn::CharLstm::Config cfg;
    cfg.vocab = 20;
    cfg.embedding_dim = 12;
    cfg.hidden = 24;
    cfg.layers = 2;
    return std::make_unique<nn::CharLstm>(cfg, seed);
  };
  return w;
}

Workload make_celeba_like(std::size_t nodes, std::uint32_t seed, double scale) {
  data::SyntheticImages::Config train_cfg;
  train_cfg.classes = 2;
  train_cfg.channels = 3;
  train_cfg.image_size = 8;
  train_cfg.samples = scaled(std::max<std::size_t>(nodes * 48, 480), scale);
  train_cfg.noise = 3.0f;
  train_cfg.clients = std::max<std::size_t>(nodes * 2, 16);
  train_cfg.client_style = 0.4f;
  train_cfg.seed = seed;
  train_cfg.sample_seed = seed + 101;
  auto train = std::make_shared<data::SyntheticImages>(train_cfg);

  data::SyntheticImages::Config test_cfg = train_cfg;
  test_cfg.samples = scaled(256, scale);
  test_cfg.sample_seed = seed + 202;
  auto test = std::make_shared<data::SyntheticImages>(test_cfg);

  Workload w;
  w.name = "celeba";
  w.train = train;
  w.test = test;
  w.partition = data::client_partition(*train, nodes, seed);
  w.suggested_lr = 0.05f;
  w.model_factory = [seed] {
    nn::CnnClassifier::Config cfg;
    cfg.in_channels = 3;
    cfg.image_size = 8;
    cfg.conv1_channels = 4;
    cfg.conv2_channels = 8;
    cfg.groups = 2;
    cfg.classes = 2;
    return std::make_unique<nn::CnnClassifier>(cfg, seed);
  };
  return w;
}

Workload make_femnist_like(std::size_t nodes, std::uint32_t seed, double scale) {
  data::SyntheticImages::Config train_cfg;
  train_cfg.classes = 12;
  train_cfg.channels = 1;
  train_cfg.image_size = 8;
  train_cfg.samples = scaled(std::max<std::size_t>(nodes * 72, 720), scale);
  train_cfg.noise = 1.3f;
  train_cfg.clients = std::max<std::size_t>(nodes * 2, 16);
  train_cfg.client_style = 0.5f;
  train_cfg.seed = seed;
  train_cfg.sample_seed = seed + 101;
  auto train = std::make_shared<data::SyntheticImages>(train_cfg);

  data::SyntheticImages::Config test_cfg = train_cfg;
  test_cfg.samples = scaled(320, scale);
  test_cfg.sample_seed = seed + 202;
  auto test = std::make_shared<data::SyntheticImages>(test_cfg);

  Workload w;
  w.name = "femnist";
  w.train = train;
  w.test = test;
  w.partition = data::client_partition(*train, nodes, seed);
  w.suggested_lr = 0.05f;
  w.model_factory = [seed] {
    nn::CnnClassifier::Config cfg;
    cfg.in_channels = 1;
    cfg.image_size = 8;
    cfg.conv1_channels = 6;
    cfg.conv2_channels = 12;
    cfg.groups = 2;
    cfg.classes = 12;
    return std::make_unique<nn::CnnClassifier>(cfg, seed);
  };
  return w;
}

Workload make_scale_like(std::size_t nodes, std::uint32_t seed, double scale) {
  data::SyntheticImages::Config train_cfg;
  train_cfg.classes = kScaleClasses;
  train_cfg.channels = 1;
  train_cfg.image_size = 2;
  // Fixed pool, NOT nodes-proportional: the whole point is that dataset
  // construction stays O(1) as the node count climbs to a million.
  train_cfg.samples = scaled(256, scale);
  train_cfg.noise = 1.0f;
  train_cfg.seed = seed;
  train_cfg.sample_seed = seed + 101;
  auto train = std::make_shared<data::SyntheticImages>(train_cfg);

  data::SyntheticImages::Config test_cfg = train_cfg;
  test_cfg.samples = scaled(64, scale);
  test_cfg.sample_seed = seed + 202;
  auto test = std::make_shared<data::SyntheticImages>(test_cfg);

  Workload w;
  w.name = "scale";
  w.train = train;
  w.test = test;
  w.partition = data::cyclic_partition(train->size(), nodes, /*per_node=*/2);
  w.suggested_lr = 0.05f;
  w.suggested_local_steps = 1;
  w.model_factory = [seed] {
    return std::make_unique<nn::MlpClassifier>(
        kScaleFeatures, std::vector<std::size_t>{kScaleHidden}, kScaleClasses,
        seed);
  };
  return w;
}

Workload make_workload(const std::string& name, std::size_t nodes,
                       std::uint32_t seed, double scale) {
  if (name == "cifar") return make_cifar_like(nodes, seed, scale);
  if (name == "movielens") return make_movielens_like(nodes, seed, scale);
  if (name == "shakespeare") return make_shakespeare_like(nodes, seed, scale);
  if (name == "celeba") return make_celeba_like(nodes, seed, scale);
  if (name == "femnist") return make_femnist_like(nodes, seed, scale);
  if (name == "scale") return make_scale_like(nodes, seed, scale);
  throw std::invalid_argument("unknown workload: " + name);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{
      "cifar", "movielens", "shakespeare", "celeba", "femnist", "scale"};
  return names;
}

}  // namespace jwins::sim
