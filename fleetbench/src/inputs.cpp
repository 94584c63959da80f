#include "inputs.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "fleet/device/catalog.hpp"
#include "fleet/device/device_model.hpp"
#include "fleet/net/compression.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/profiler/iprof.hpp"
#include "fleet/profiler/training_data.hpp"

namespace fleetbench {

using namespace fleet;

std::unique_ptr<nn::Sequential> make_model(const std::string& kind,
                                           std::uint64_t seed) {
  std::unique_ptr<nn::Sequential> model;
  if (kind == "mlp") {
    model = nn::zoo::mlp(8, 4, 3);
  } else if (kind == "cifar") {
    model = nn::zoo::cifar_cnn();
  } else if (kind == "mnist") {
    model = nn::zoo::mnist_cnn();
  } else {
    throw std::invalid_argument("unknown model kind: " + kind);
  }
  model->init(seed);
  return model;
}

namespace {

void put_u32(std::uint8_t* at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void put_u64(std::uint8_t* at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) at[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

// Field offsets of the wire header (fleet/net/wire.hpp).
constexpr std::size_t kModelIdOffset = 8;
constexpr std::size_t kTaskVersionOffset = 16;
constexpr std::size_t kMiniBatchOffset = 24;
constexpr std::size_t kLabelBlockOffset = net::kWireHeaderBytes;

std::uint32_t secondary_label(const FrameSpec& spec, std::size_t n_classes) {
  return static_cast<std::uint32_t>((spec.label + 1) % n_classes);
}

std::uint32_t secondary_count(const FrameSpec& spec) {
  return spec.mini_batch / 4;
}

}  // namespace

void stamp_frame(std::vector<std::uint8_t>& frame, const FrameSpec& spec,
                 std::uint64_t model_id, std::size_t n_classes) {
  if (frame.size() < kLabelBlockOffset + 4 * n_classes) {
    throw std::invalid_argument("stamp_frame: frame too short");
  }
  std::uint8_t* bytes = frame.data();
  put_u64(bytes + kModelIdOffset, model_id);
  put_u64(bytes + kTaskVersionOffset, spec.task_version);
  put_u32(bytes + kMiniBatchOffset, spec.mini_batch);
  std::uint8_t* labels = bytes + kLabelBlockOffset;
  std::fill(labels, labels + 4 * n_classes, std::uint8_t{0});
  const std::uint32_t second = secondary_count(spec);
  if (n_classes == 1) {
    put_u32(labels, spec.mini_batch);
    return;
  }
  put_u32(labels + 4 * spec.label, spec.mini_batch - second);
  put_u32(labels + 4 * secondary_label(spec, n_classes), second);
}

stats::LabelDistribution frame_labels(const FrameSpec& spec,
                                      std::size_t n_classes) {
  stats::LabelDistribution labels(n_classes);
  const std::uint32_t second = secondary_count(spec);
  if (n_classes == 1) {
    labels.add(0, spec.mini_batch);
    return labels;
  }
  labels.add(static_cast<int>(spec.label), spec.mini_batch - second);
  if (second > 0) {
    labels.add(static_cast<int>(secondary_label(spec, n_classes)), second);
  }
  return labels;
}

FrameSource::FrameSource(std::uint64_t seed, std::uint32_t session,
                         std::size_t n_classes, std::size_t pool_frames)
    : rng_(stats::Rng::stream(seed, 100 + session)),
      session_(session),
      pool_frames_(pool_frames),
      lag_(8.0, 2.0, 0.08, 30.0, 60.0) {
  // A handful of hot classes per session, in a session-specific order.
  std::vector<std::size_t> order(n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) order[c] = c;
  rng_.shuffle(order);
  label_weights_.assign(n_classes, 0.0);
  for (std::size_t rank = 0; rank < n_classes; ++rank) {
    label_weights_[order[rank]] = 1.0 / static_cast<double>(1 + rank);
  }
}

FrameSpec FrameSource::next(std::uint64_t sent) {
  FrameSpec spec;
  spec.session = session_;
  const auto lag =
      static_cast<std::uint64_t>(std::llround(std::max(0.0, lag_.sample(rng_))));
  spec.task_version = sent >= lag ? sent - lag : 0;
  spec.label = static_cast<std::uint32_t>(rng_.categorical(label_weights_));
  spec.mini_batch = static_cast<std::uint32_t>(rng_.uniform_int(8, 64));
  spec.pool = static_cast<std::uint32_t>(
      rng_.uniform_int(0, static_cast<std::int64_t>(pool_frames_) - 1));
  return spec;
}

std::uint64_t model_seed(std::uint64_t seed, std::size_t session) {
  return stats::mix64(seed * 1000003ULL + session);
}

core::ServerConfig server_config() {
  core::ServerConfig config;
  config.aggregator.scheme = learning::Scheme::kAdaSgd;
  config.aggregator.aggregation_k = 1;
  return config;
}

Inputs make_inputs(const WorkloadConfig& config, std::uint64_t seed) {
  Inputs inputs;
  inputs.seed = seed;
  const bool int8 = config.payload == "int8";
  if (!int8 && config.payload != "float32") {
    throw std::invalid_argument("unknown payload kind: " + config.payload);
  }
  const auto probe = make_model(config.model, 1);
  inputs.parameter_count = probe->parameter_count();
  inputs.n_classes = probe->n_classes();

  // Gradient payload pool: small Gaussian gradients, one stream each.
  std::vector<float> gradient(inputs.parameter_count);
  stats::LabelDistribution placeholder(inputs.n_classes);
  placeholder.add(0, 1);
  net::WireMeta meta;
  meta.mini_batch = 1;
  inputs.pool.resize(config.pool_frames);
  for (std::size_t k = 0; k < config.pool_frames; ++k) {
    stats::Rng rng = stats::Rng::stream(seed, 10000 + k);
    for (float& g : gradient) g = static_cast<float>(rng.gaussian(0.0, 0.01));
    if (int8) {
      net::encode_frame(meta, placeholder, net::quantize_gradient(gradient),
                        inputs.pool[k]);
    } else {
      net::encode_frame(meta, placeholder, std::span<const float>(gradient),
                        inputs.pool[k]);
    }
  }

  inputs.profile_dataset = profiler::collect_profile_dataset(
      device::training_fleet(), profiler::IProf::Config{}.slo,
      stats::mix64(seed + 17));

  // Pull requests: devices from the catalog with their sampled features,
  // each with a skewed two-class label distribution.
  const std::vector<std::string> devices = device::catalog_names();
  stats::Rng rng = stats::Rng::stream(seed, 20000);
  constexpr std::size_t kRequestPool = 64;
  for (std::size_t i = 0; i < kRequestPool; ++i) {
    RequestInput request;
    request.device_model = devices[static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(devices.size()) - 1))];
    device::DeviceSim sim(device::spec(request.device_model),
                          stats::mix64(seed + 31 * i));
    request.features = sim.features(&rng);
    FrameSpec spec;
    spec.label = static_cast<std::uint32_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(inputs.n_classes) - 1));
    spec.mini_batch = 32;
    request.label = spec.label;
    request.labels = frame_labels(spec, inputs.n_classes);
    inputs.requests.push_back(std::move(request));
  }
  return inputs;
}

}  // namespace fleetbench
