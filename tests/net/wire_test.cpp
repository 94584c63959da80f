// Wire-format hardening (DESIGN.md §12): frame round trips, every header
// validation path, the decode-before-submit reject accounting on the real
// server, and a seeded corrupt-frame fuzz loop asserting malformed frames
// are always counted and never reach a fold.
#include "fleet/net/wire.hpp"

#include <gtest/gtest.h>

#include <cstring>
#include <limits>
#include <vector>

#include "../test_util.hpp"
#include "fleet/nn/zoo.hpp"
#include "fleet/runtime/concurrent_server.hpp"
#include "fleet/stats/rng.hpp"
#include "fleet/telemetry/telemetry.hpp"

namespace fleet::net {
namespace {

using test::bitwise_equal;
using test::pretrained_iprof;

runtime::GradientJob sample_job(std::size_t n_values, std::size_t n_classes,
                                std::uint64_t seed) {
  stats::Rng rng(seed);
  runtime::GradientJob job;
  job.model_id = 3;
  job.task_version = 17;
  job.mini_batch = 24;
  job.gradient.resize(n_values);
  for (float& g : job.gradient) {
    g = static_cast<float>(rng.gaussian(0.0, 0.02));
  }
  job.label_dist = stats::LabelDistribution(n_classes);
  job.label_dist.add(static_cast<int>(seed % n_classes), 3);
  job.label_dist.add(static_cast<int>((seed + 1) % n_classes), 1);
  return job;
}

void expect_meta_roundtrip(const runtime::GradientJob& sent,
                           const runtime::GradientJob& got) {
  EXPECT_EQ(got.model_id, sent.model_id);
  EXPECT_EQ(got.task_version, sent.task_version);
  EXPECT_EQ(got.mini_batch, sent.mini_batch);
  ASSERT_EQ(got.label_dist.n_classes(), sent.label_dist.n_classes());
  for (std::size_t c = 0; c < sent.label_dist.n_classes(); ++c) {
    EXPECT_EQ(got.label_dist.count(c), sent.label_dist.count(c));
  }
  EXPECT_EQ(got.ticket, 0u);
  EXPECT_EQ(got.enqueue_ns, 0u);
  EXPECT_FALSE(got.feedback.has_value());
}

TEST(WireFormatTest, Int8FrameRoundTripsBitwise) {
  const runtime::GradientJob job = sample_job(777, 5, 1);
  std::vector<std::uint8_t> frame;
  encode_job(job, PayloadKind::kInt8, frame);
  EXPECT_EQ(frame.size(), wire_frame_size(PayloadKind::kInt8, 5, 777));

  WireDecoder decoder;
  runtime::GradientJob decoded;
  ASSERT_EQ(decoder.decode(frame, decoded), WireError::kOk);
  expect_meta_roundtrip(job, decoded);
  // The int8 payload stays int8: the decoded values and scale are the
  // sender's quantization, bit for bit, and no float copy is made.
  const QuantizedGradient sent = quantize_gradient(job.gradient);
  EXPECT_TRUE(decoded.gradient.empty());
  EXPECT_EQ(decoded.quantized, sent.values);
  EXPECT_EQ(std::memcmp(&decoded.scale, &sent.scale, sizeof(float)), 0);
  EXPECT_EQ(decoded.value_count(), 777u);
  // Dequantizing them reproduces the floats the decoder used to hand the
  // fold — float(int8) * f32 scale per value, computed here straight from
  // the frame bytes — bitwise: the property the fused int8 fold and the
  // end-to-end bitwise ingest test build on.
  float wire_scale = 0.0f;
  std::memcpy(&wire_scale, frame.data() + 36, sizeof(float));
  const std::size_t payload_at = kWireHeaderBytes + 4 * 5;
  std::vector<float> expected(777);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    const auto q = static_cast<std::int8_t>(frame[payload_at + i]);
    expected[i] = static_cast<float>(q) * wire_scale;
  }
  std::vector<float> restored(decoded.quantized.size());
  dequantize_into(decoded.quantized, decoded.scale, restored);
  EXPECT_TRUE(bitwise_equal(expected, restored));
  EXPECT_TRUE(bitwise_equal(dequantize_gradient(sent), restored));
}

TEST(WireFormatTest, Float32FallbackRoundTripsVerbatim) {
  const runtime::GradientJob job = sample_job(129, 3, 2);
  std::vector<std::uint8_t> frame;
  encode_job(job, PayloadKind::kFloat32, frame);
  EXPECT_EQ(frame.size(), wire_frame_size(PayloadKind::kFloat32, 3, 129));

  WireDecoder decoder;
  runtime::GradientJob decoded;
  ASSERT_EQ(decoder.decode(frame, decoded), WireError::kOk);
  expect_meta_roundtrip(job, decoded);
  EXPECT_TRUE(bitwise_equal(job.gradient, decoded.gradient));
}

TEST(WireFormatTest, Int8IsFourTimesSmallerOnTheWire) {
  const runtime::GradientJob job = sample_job(12000, 4, 3);
  std::vector<std::uint8_t> int8_frame, raw_frame;
  encode_job(job, PayloadKind::kInt8, int8_frame);
  encode_job(job, PayloadKind::kFloat32, raw_frame);
  EXPECT_LT(int8_frame.size(), raw_frame.size() / 3);
}

TEST(WireFormatTest, DecodeReusesTheGradientBuffer) {
  // Two-wave zero-growth on the decode target: a fixed-size stream decodes
  // into the same buffer with no steady-state allocation.
  const runtime::GradientJob job_a = sample_job(500, 4, 4);
  const runtime::GradientJob job_b = sample_job(500, 4, 5);
  std::vector<std::uint8_t> frame;
  WireDecoder decoder;
  runtime::GradientJob decoded;

  // int8 frames fill the int8 buffer.
  encode_job(job_a, PayloadKind::kInt8, frame);
  ASSERT_EQ(decoder.decode(frame, decoded), WireError::kOk);
  ASSERT_EQ(decoded.quantized.size(), 500u);
  const std::int8_t* const q_before = decoded.quantized.data();
  const std::size_t q_capacity_before = decoded.quantized.capacity();

  encode_job(job_b, PayloadKind::kInt8, frame);
  ASSERT_EQ(decoder.decode(frame, decoded), WireError::kOk);
  ASSERT_EQ(decoded.quantized.size(), 500u);
  EXPECT_EQ(decoded.quantized.data(), q_before);
  EXPECT_EQ(decoded.quantized.capacity(), q_capacity_before);
  EXPECT_EQ(decoded.quantized, quantize_gradient(job_b.gradient).values);

  // float32 frames fill the float buffer, just as reused.
  encode_job(job_a, PayloadKind::kFloat32, frame);
  ASSERT_EQ(decoder.decode(frame, decoded), WireError::kOk);
  ASSERT_EQ(decoded.gradient.size(), 500u);
  EXPECT_TRUE(decoded.quantized.empty());
  const float* const g_before = decoded.gradient.data();
  const std::size_t g_capacity_before = decoded.gradient.capacity();

  encode_job(job_b, PayloadKind::kFloat32, frame);
  ASSERT_EQ(decoder.decode(frame, decoded), WireError::kOk);
  EXPECT_EQ(decoded.gradient.data(), g_before);
  EXPECT_EQ(decoded.gradient.capacity(), g_capacity_before);
  EXPECT_TRUE(bitwise_equal(job_b.gradient, decoded.gradient));

  // Switching back keeps the int8 buffer's capacity too.
  encode_job(job_a, PayloadKind::kInt8, frame);
  ASSERT_EQ(decoder.decode(frame, decoded), WireError::kOk);
  EXPECT_TRUE(decoded.gradient.empty());
  EXPECT_EQ(decoded.quantized.data(), q_before);
}

// --- header validation, one test per reject path -------------------------

std::vector<std::uint8_t> valid_frame(std::size_t n_values = 64,
                                      std::size_t n_classes = 3) {
  std::vector<std::uint8_t> frame;
  encode_job(sample_job(n_values, n_classes, 6), PayloadKind::kInt8, frame);
  return frame;
}

WireError decode_of(const std::vector<std::uint8_t>& frame,
                    const WireLimits& limits = {}) {
  WireDecoder decoder(limits);
  runtime::GradientJob job;
  return decoder.decode(frame, job);
}

TEST(WireFormatTest, RejectsTruncatedHeader) {
  const auto frame = valid_frame();
  for (const std::size_t cut : {std::size_t{0}, std::size_t{1},
                                std::size_t{8}, kWireHeaderBytes - 1}) {
    const std::vector<std::uint8_t> cut_frame(frame.begin(),
                                              frame.begin() + cut);
    EXPECT_EQ(decode_of(cut_frame), WireError::kTruncatedHeader) << cut;
  }
}

TEST(WireFormatTest, RejectsBadMagicAndVersion) {
  auto frame = valid_frame();
  frame[0] ^= 0xFF;
  EXPECT_EQ(decode_of(frame), WireError::kBadMagic);

  frame = valid_frame();
  frame[4] ^= 0x01;  // wire version
  EXPECT_EQ(decode_of(frame), WireError::kBadVersion);

  frame = valid_frame();
  frame[7] = 0x80;  // reserved flags must be zero
  EXPECT_EQ(decode_of(frame), WireError::kBadFlags);

  frame = valid_frame();
  frame[6] = 0x7F;  // unknown payload kind
  EXPECT_EQ(decode_of(frame), WireError::kBadKind);
}

TEST(WireFormatTest, RejectsLengthMismatch) {
  // Payload shorter or longer than the header's claim.
  auto frame = valid_frame();
  auto shorter = frame;
  shorter.pop_back();
  EXPECT_EQ(decode_of(shorter), WireError::kLengthMismatch);
  auto longer = frame;
  longer.push_back(0);
  EXPECT_EQ(decode_of(longer), WireError::kLengthMismatch);
  // A kind flip changes the per-value width, so the same bytes stop
  // matching the claimed layout.
  frame[6] = 0x02;  // kFloat32
  EXPECT_EQ(decode_of(frame), WireError::kLengthMismatch);
}

TEST(WireFormatTest, RejectsZeroLengthGradient) {
  auto frame = valid_frame();
  for (std::size_t i = 32; i < 36; ++i) frame[i] = 0;  // value count = 0
  EXPECT_EQ(decode_of(frame), WireError::kEmptyGradient);
}

TEST(WireFormatTest, SizeCeilingsRejectBeforeAnyAllocation) {
  // A hostile length claim must fail the limit check, not become an
  // allocation: decode against a tiny ceiling and a 4-billion claim.
  auto frame = valid_frame();
  frame[32] = 0xFF;
  frame[33] = 0xFF;
  frame[34] = 0xFF;
  frame[35] = 0xFF;  // value count = 2^32 - 1
  EXPECT_EQ(decode_of(frame), WireError::kTooLarge);

  WireLimits tight;
  tight.max_values = 16;
  EXPECT_EQ(decode_of(valid_frame(64, 3), tight), WireError::kTooLarge);
  tight = WireLimits{};
  tight.max_classes = 2;
  EXPECT_EQ(decode_of(valid_frame(64, 3), tight), WireError::kTooLarge);
}

TEST(WireFormatTest, RejectsBadScaleAndNonFinitePayload) {
  // int8 kind: scale must be finite and positive.
  auto frame = valid_frame();
  const float nan = std::numeric_limits<float>::quiet_NaN();
  std::memcpy(frame.data() + 36, &nan, sizeof(nan));
  EXPECT_EQ(decode_of(frame), WireError::kBadScale);
  frame = valid_frame();
  const float zero = 0.0f;
  std::memcpy(frame.data() + 36, &zero, sizeof(zero));
  EXPECT_EQ(decode_of(frame), WireError::kBadScale);

  // raw kind: a NaN smuggled into the payload must not reach the fold.
  runtime::GradientJob job = sample_job(32, 3, 7);
  std::vector<std::uint8_t> raw;
  encode_job(job, PayloadKind::kFloat32, raw);
  const std::size_t payload_at = kWireHeaderBytes + 4 * 3;
  std::memcpy(raw.data() + payload_at + 4 * 5, &nan, sizeof(nan));
  EXPECT_EQ(decode_of(raw), WireError::kNonFinitePayload);
}

// --- serving-path rejection accounting ------------------------------------

core::ServerConfig server_config() {
  core::ServerConfig config;
  config.learning_rate = 0.1f;
  return config;
}

/// A frame-sized job for `model`, valid except for whatever the test
/// corrupts afterwards.
std::vector<std::uint8_t> frame_for(const nn::TrainableModel& model,
                                    std::uint64_t seed) {
  runtime::GradientJob job =
      sample_job(model.parameter_count(), model.n_classes(), seed);
  job.model_id = core::kDefaultModelId;
  job.task_version = 0;
  std::vector<std::uint8_t> frame;
  encode_job(job, PayloadKind::kInt8, frame);
  return frame;
}

TEST(WireServerTest, WireRejectsAreCountedAndTelemetryVisible) {
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(5);
  runtime::RuntimeConfig runtime;
  runtime.telemetry.enabled = true;
  runtime::ConcurrentFleetServer server(*model, pretrained_iprof(),
                                        server_config(), runtime);

  auto frame = frame_for(*model, 1);
  frame[0] ^= 0xFF;  // bad magic
  WireError error = WireError::kOk;
  runtime::GradientJob scratch;
  const auto receipt = server.try_submit_wire(frame, scratch, &error);
  EXPECT_FALSE(receipt.accepted);
  EXPECT_FALSE(receipt.retryable);
  EXPECT_EQ(error, WireError::kBadMagic);
  EXPECT_EQ(receipt.reject_reason, "wire: bad magic");

  // A valid frame still lands after the reject (the reject took no ticket).
  auto good = frame_for(*model, 2);
  EXPECT_TRUE(server.try_submit_wire(good, scratch, &error).accepted);
  EXPECT_EQ(error, WireError::kOk);
  server.drain();

  const auto stats = server.stats();
  EXPECT_EQ(stats.wire_rejects, 1u);
  EXPECT_EQ(stats.processed, 1u);
  EXPECT_EQ(stats.submitted, 1u);

  // Telemetry: the counter and the reject trace instant both saw it.
  auto* telemetry = server.telemetry();
  ASSERT_NE(telemetry, nullptr);
  const auto metrics = telemetry->metrics().snapshot();
  std::uint64_t rejects_counted = 0;
  bool counter_found = false;
  for (const auto& [name, value] : metrics.counters) {
    if (name == "wire.rejects") {
      counter_found = true;
      rejects_counted = value;
    }
  }
  ASSERT_TRUE(counter_found);
  EXPECT_EQ(rejects_counted, 1u);
  std::size_t reject_events = 0;
  for (const auto& record : telemetry->tracer().collect()) {
    if (record.event.phase == telemetry::TracePhase::kWireReject) {
      ++reject_events;
      EXPECT_EQ(record.event.b,
                static_cast<std::uint64_t>(WireError::kBadMagic));
    }
  }
  EXPECT_EQ(reject_events, 1u);
  server.stop();
}

TEST(WireServerTest, CorruptFrameFuzzNothingReachesAFold) {
  // 100 seeded corruptions — header bytes, truncations, length fields —
  // against a live server: every frame must be rejected AND counted, the
  // model must never move, and the accounting identity must hold exactly.
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(6);
  const auto params_before = [&] {
    const auto view = model->parameters_view();
    return std::vector<float>(view.begin(), view.end());
  }();
  runtime::ConcurrentFleetServer server(*model, pretrained_iprof(),
                                        server_config(), runtime::RuntimeConfig{});

  const auto pristine = frame_for(*model, 3);
  runtime::GradientJob scratch;
  std::size_t rejects = 0;
  for (std::uint64_t seed = 0; seed < 100; ++seed) {
    stats::Rng rng(seed);
    auto frame = pristine;
    switch (seed % 3) {
      case 0: {
        // Corrupt one byte of magic/version/kind/flags: always malformed
        // (a kind flip changes the payload width, so it length-mismatches).
        const auto at = static_cast<std::size_t>(rng.uniform_int(0, 7));
        frame[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        break;
      }
      case 1: {
        // Truncate anywhere short of the full frame.
        const auto cut = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<std::int64_t>(frame.size()) - 1));
        frame.resize(cut);
        break;
      }
      default: {
        // Corrupt a length field (class count / value count): the claimed
        // layout stops matching the actual bytes (or trips the ceiling /
        // empty-gradient screens).
        const auto at = static_cast<std::size_t>(rng.uniform_int(28, 35));
        frame[at] ^= static_cast<std::uint8_t>(rng.uniform_int(1, 255));
        break;
      }
    }
    WireError error = WireError::kOk;
    const auto receipt = server.try_submit_wire(frame, scratch, &error);
    EXPECT_FALSE(receipt.accepted) << "seed " << seed;
    EXPECT_NE(error, WireError::kOk) << "seed " << seed;
    ++rejects;
    EXPECT_EQ(server.host_stats().wire_rejects, rejects);
  }
  server.drain();
  const auto stats = server.stats();
  EXPECT_EQ(stats.wire_rejects, 100u);
  EXPECT_EQ(stats.submitted, 0u);
  EXPECT_EQ(stats.processed, 0u);
  EXPECT_EQ(server.version(), 0u);
  server.stop();
  const auto view = model->parameters_view();
  EXPECT_TRUE(bitwise_equal(
      params_before, std::vector<float>(view.begin(), view.end())));
}

TEST(WireServerTest, WellFormedFrameForWrongModelIsAServerReject) {
  // Decode succeeds, validation refuses: a size-mismatched gradient is a
  // permanent server-side reject, not a wire reject.
  auto model = nn::zoo::mlp(8, 4, 3);
  model->init(7);
  runtime::ConcurrentFleetServer server(*model, pretrained_iprof(),
                                        server_config(), runtime::RuntimeConfig{});
  runtime::GradientJob job = sample_job(model->parameter_count() + 1,
                                        model->n_classes(), 8);
  job.model_id = core::kDefaultModelId;
  job.task_version = 0;
  std::vector<std::uint8_t> frame;
  encode_job(job, PayloadKind::kInt8, frame);

  WireError error = WireError::kOk;
  runtime::GradientJob scratch;
  const auto receipt = server.try_submit_wire(frame, scratch, &error);
  EXPECT_EQ(error, WireError::kOk);
  EXPECT_FALSE(receipt.accepted);
  EXPECT_FALSE(receipt.retryable);
  EXPECT_EQ(receipt.reject_reason, "gradient size mismatch");
  EXPECT_EQ(server.host_stats().wire_rejects, 0u);
  server.stop();
}

}  // namespace
}  // namespace fleet::net
