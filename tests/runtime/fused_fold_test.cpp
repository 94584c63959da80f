// Int8 frames through the fused fold and publication from the fold lanes
// (DESIGN.md §4, §9, §12). The int8 payload stays int8 until the fold; a
// K=1 job folds, flushes and applies in one fused pass; the plan's last
// parameter-changing op writes the new parameters into a pooled snapshot
// buffer that publishing then swaps in. These tests pin what that must not
// change: every shard count publishes the same bits for every version as
// the sequential reference (process(), which dequantizes with the wire
// decoder's arithmetic), readers never see a buffer they hold change, the
// pool stops growing once warm, and a quarantined fold never publishes a
// half-written buffer.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <memory>
#include <thread>
#include <utility>
#include <vector>

#include "../test_util.hpp"
#include "fleet/net/compression.hpp"
#include "fleet/net/wire.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "fleet/runtime/fault.hpp"
#include "fleet/stats/rng.hpp"

namespace fleet::runtime {
namespace {

using test::bitwise_equal;
using test::pretrained_iprof;

// 20*16 + 16 + 16*4 + 4 = 404 parameters: long AVX2 bodies plus ragged
// tails in every span of a 2- or 4-way partition.
constexpr std::size_t kInput = 20;
constexpr std::size_t kHidden = 16;
constexpr std::size_t kClasses = 4;

std::unique_ptr<nn::Sequential> make_model() {
  auto model = nn::zoo::mlp(kInput, kHidden, kClasses);
  model->init(11);
  return model;
}

core::ServerConfig server_config(std::size_t k, std::size_t window = 64) {
  core::ServerConfig config;
  config.learning_rate = 0.05f;
  config.aggregator.aggregation_k = k;
  config.snapshot_window = window;
  return config;
}

/// `count` int8 frames with varied payloads, label mixes and staleness
/// lags. Frame i is processed at clock floor(i / k) in admission order
/// however the jobs are batched, so it carries a task version at most
/// that and is never from the future.
std::vector<std::vector<std::uint8_t>> make_frames(std::size_t params,
                                                   std::size_t count,
                                                   std::size_t k,
                                                   std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<std::vector<std::uint8_t>> frames(count);
  std::vector<float> gradient(params);
  for (std::size_t i = 0; i < count; ++i) {
    for (float& g : gradient) g = static_cast<float>(rng.gaussian(0.0, 0.05));
    gradient[(7 * i) % params] = 0.0f;  // a zero payload value per frame
    net::WireMeta meta;
    const std::size_t clock = i / k;
    const auto lag = static_cast<std::size_t>(rng.uniform_int(0, 6));
    meta.task_version = clock - std::min(clock, lag);
    meta.mini_batch = 8;
    stats::LabelDistribution labels(kClasses);
    labels.add(static_cast<int>(rng.uniform_int(0, kClasses - 1)),
               static_cast<std::size_t>(1 + rng.uniform_int(0, 4)));
    net::encode_frame(meta, labels, net::quantize_gradient(gradient),
                      frames[i]);
  }
  return frames;
}

struct Host {
  std::unique_ptr<nn::Sequential> model;
  std::unique_ptr<ConcurrentFleetServer> server;
};

Host make_host(std::size_t shards, const core::ServerConfig& config,
               FaultInjector* fault = nullptr, bool paused = false) {
  Host host;
  host.model = make_model();
  RuntimeConfig runtime;
  runtime.aggregation_shards = shards;
  runtime.fault_injector = fault;
  runtime.start_paused = paused;
  host.server = std::make_unique<ConcurrentFleetServer>(
      *host.model, pretrained_iprof(), config, runtime);
  return host;
}

void submit(ConcurrentFleetServer& server,
            const std::vector<std::uint8_t>& frame) {
  GradientJob scratch;
  while (true) {
    const core::GradientReceipt receipt =
        server.try_submit_wire(frame, scratch);
    if (receipt.accepted) return;
    ASSERT_TRUE(receipt.retryable) << receipt.reject_reason;
    std::this_thread::yield();
  }
}

std::vector<float> arena_of(Host& host) {
  const auto view = host.server->model().parameters_view();
  return std::vector<float>(view.begin(), view.end());
}

using Versions = std::map<std::size_t, std::vector<float>>;

/// Drive the frames one drain at a time, so every version is published,
/// and return each version's snapshot; `arena` receives the final model.
Versions snapshot_per_version(std::size_t shards, std::size_t k,
                              const std::vector<std::vector<std::uint8_t>>& frames,
                              std::vector<float>* arena = nullptr) {
  Host host = make_host(shards, server_config(k));
  Versions versions;
  const auto record = [&] {
    const ConcurrentFleetServer::VersionedSnapshot current =
        host.server->current();
    versions.emplace(current.version, *current.snapshot);
  };
  record();
  for (const auto& frame : frames) {
    submit(*host.server, frame);
    host.server->drain();
    record();
  }
  host.server->stop();
  if (arena != nullptr) *arena = arena_of(host);
  return versions;
}

TEST(FusedFoldTest, Int8FramesPublishBitwiseEqualSnapshotsForEveryShardCount) {
  const std::size_t params = make_model()->parameter_count();
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    const auto frames = make_frames(params, 60, k, 100 + k);
    std::vector<float> arena_1, arena_2, arena_4;
    // shards=1 runs process(), the unfused reference.
    const Versions sequential = snapshot_per_version(1, k, frames, &arena_1);
    const Versions two = snapshot_per_version(2, k, frames, &arena_2);
    const Versions four = snapshot_per_version(4, k, frames, &arena_4);

    ASSERT_EQ(sequential.size(), frames.size() / k + 1) << "K=" << k;
    ASSERT_EQ(two.size(), sequential.size()) << "K=" << k;
    ASSERT_EQ(four.size(), sequential.size()) << "K=" << k;
    for (const auto& [version, snapshot] : sequential) {
      EXPECT_TRUE(bitwise_equal(snapshot, two.at(version)))
          << "2 shards, K=" << k << ", version " << version;
      EXPECT_TRUE(bitwise_equal(snapshot, four.at(version)))
          << "4 shards, K=" << k << ", version " << version;
    }
    EXPECT_TRUE(bitwise_equal(arena_1, arena_2)) << "K=" << k;
    EXPECT_TRUE(bitwise_equal(arena_1, arena_4)) << "K=" << k;
    // The latest snapshot is the model itself.
    EXPECT_TRUE(bitwise_equal(arena_2, two.rbegin()->second)) << "K=" << k;
    // The model moved: the comparison above is not between initial states.
    EXPECT_FALSE(bitwise_equal(sequential.begin()->second, arena_1));
  }
}

TEST(FusedFoldTest, ReadersNeverSeeAHeldBufferChangeNorAForeignSnapshot) {
  const std::size_t params = make_model()->parameter_count();
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    const auto frames = make_frames(params, 300, k, 200 + k);
    const Versions reference = snapshot_per_version(1, k, frames);
    // A 4-deep ring recycles pooled buffers within a few publishes, while
    // the readers hold theirs for several polls.
    Host host = make_host(2, server_config(k, /*window=*/4));
    std::atomic<bool> done{false};
    std::atomic<std::size_t> polls{0};
    std::atomic<std::size_t> unknown_versions{0};
    std::atomic<std::size_t> foreign_snapshots{0};
    std::atomic<std::size_t> changed_buffers{0};
    const auto reader = [&] {
      std::deque<std::pair<core::ModelStore::Snapshot, std::vector<float>>>
          held;
      const auto check_held = [&](const auto& entry) {
        if (!bitwise_equal(*entry.first, entry.second)) ++changed_buffers;
      };
      while (!done.load(std::memory_order_acquire)) {
        const ConcurrentFleetServer::VersionedSnapshot current =
            host.server->current();
        ++polls;
        const auto it = reference.find(current.version);
        if (it == reference.end()) {
          ++unknown_versions;
        } else if (!bitwise_equal(*current.snapshot, it->second)) {
          ++foreign_snapshots;
        }
        held.emplace_back(current.snapshot, *current.snapshot);
        if (held.size() > 8) {
          check_held(held.front());
          held.pop_front();
        }
      }
      for (const auto& entry : held) check_held(entry);
    };
    std::thread reader_a(reader);
    std::thread reader_b(reader);
    for (const auto& frame : frames) submit(*host.server, frame);
    host.server->drain();
    done.store(true, std::memory_order_release);
    reader_a.join();
    reader_b.join();

    EXPECT_GT(polls.load(), 0u);
    EXPECT_EQ(unknown_versions.load(), 0u) << "K=" << k;
    EXPECT_EQ(foreign_snapshots.load(), 0u) << "K=" << k;
    EXPECT_EQ(changed_buffers.load(), 0u) << "K=" << k;
    const auto latest = host.server->current();
    EXPECT_EQ(latest.version, frames.size() / k);
    EXPECT_TRUE(bitwise_equal(*latest.snapshot, reference.rbegin()->second));
    host.server->stop();
    EXPECT_TRUE(bitwise_equal(arena_of(host), reference.rbegin()->second));
  }
}

TEST(FusedFoldTest, SecondWaveGrowsNoSnapshotBuffers) {
  constexpr std::size_t kWindow = 8;
  const std::size_t params = make_model()->parameter_count();
  for (const std::size_t shards : {std::size_t{1}, std::size_t{2}}) {
    for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
      // Each wave publishes 3 windows' worth of versions, one per drain:
      // the first fills the ring, so the pool reaches its steady size.
      const std::size_t wave = 3 * kWindow * k;
      const auto frames = make_frames(params, 2 * wave, k, 300 + k);
      Host host = make_host(shards, server_config(k, kWindow));
      for (std::size_t i = 0; i < wave; ++i) {
        submit(*host.server, frames[i]);
        host.server->drain();
      }
      const RuntimeStats warm = host.server->stats();
      for (std::size_t i = wave; i < 2 * wave; ++i) {
        submit(*host.server, frames[i]);
        host.server->drain();
      }
      const RuntimeStats second = host.server->stats();
      EXPECT_EQ(second.model_updates, 2 * wave / k);
      EXPECT_GT(warm.snapshot_buffer_growths, 0u);
      // The ring's buffers plus the one being written.
      EXPECT_LE(warm.snapshot_buffer_growths, kWindow + 1)
          << shards << " shards, K=" << k;
      EXPECT_EQ(second.snapshot_buffer_growths, warm.snapshot_buffer_growths)
          << shards << " shards, K=" << k;
      EXPECT_EQ(second.fold_buffer_growths, warm.fold_buffer_growths)
          << shards << " shards, K=" << k;
      host.server->stop();
    }
  }
}

TEST(FusedFoldTest, QuarantinedSessionPublishesItsArenaNotTheLaneBuffer) {
  const std::size_t params = make_model()->parameter_count();
  for (const std::size_t k : {std::size_t{1}, std::size_t{3}}) {
    FaultInjector fault(5);
    FaultPlan plan;
    plan.site = FaultSite::kFoldTask;
    plan.every = 1;
    plan.max_fires = 1;  // exactly one span task of the first plan throws
    fault.arm(plan);
    Host host = make_host(4, server_config(k), &fault, /*paused=*/true);
    const auto frames = make_frames(params, 4 * k, k, 400 + k);
    // Stage one full round so the first plan changes the parameters (and
    // so writes a lane buffer) when the fault hits one of its spans.
    for (std::size_t i = 0; i < k; ++i) submit(*host.server, frames[i]);
    host.server->resume();
    host.server->drain();

    ASSERT_EQ(fault.fires(FaultSite::kFoldTask), 1u) << "K=" << k;
    EXPECT_TRUE(host.server->stats().degraded);
    const auto quarantined = host.server->current();
    EXPECT_EQ(quarantined.version, 1u);
    // One span of the arena missed the fold, so only a copy of the arena
    // is a consistent snapshot; the lane buffer lacks that span's slice.
    EXPECT_TRUE(bitwise_equal(*quarantined.snapshot, arena_of(host)))
        << "K=" << k;

    // Later, clean plans publish from their lanes again, still equal to
    // the arena.
    for (std::size_t i = k; i < frames.size(); ++i) {
      submit(*host.server, frames[i]);
      host.server->drain();
      EXPECT_TRUE(bitwise_equal(*host.server->current().snapshot,
                                arena_of(host)))
          << "K=" << k << " after frame " << i;
    }
    EXPECT_EQ(host.server->current().version, frames.size() / k);
    host.server->stop();
  }
}

}  // namespace
}  // namespace fleet::runtime
