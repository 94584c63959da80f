#include "fleet/net/wire.hpp"

#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>

namespace fleet::net {
namespace {

// Little-endian field accessors. Byte-by-byte shifts keep the format
// host-endianness-independent; the bulk payload paths below switch to
// memcpy only when the host is little-endian (every target this repo
// builds for), with a per-element fallback otherwise.
void put_u16(std::vector<std::uint8_t>& out, std::size_t at, std::uint16_t v) {
  out[at] = static_cast<std::uint8_t>(v);
  out[at + 1] = static_cast<std::uint8_t>(v >> 8);
}

void put_u32(std::vector<std::uint8_t>& out, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_u64(std::vector<std::uint8_t>& out, std::size_t at, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out[at + i] = static_cast<std::uint8_t>(v >> (8 * i));
  }
}

void put_f32(std::vector<std::uint8_t>& out, std::size_t at, float v) {
  std::uint32_t bits = 0;
  std::memcpy(&bits, &v, sizeof(bits));
  put_u32(out, at, bits);
}

std::uint16_t get_u16(std::span<const std::uint8_t> in, std::size_t at) {
  return static_cast<std::uint16_t>(in[at] |
                                    (static_cast<std::uint16_t>(in[at + 1])
                                     << 8));
}

std::uint32_t get_u32(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(in[at + i]) << (8 * i);
  }
  return v;
}

std::uint64_t get_u64(std::span<const std::uint8_t> in, std::size_t at) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(in[at + i]) << (8 * i);
  }
  return v;
}

float get_f32(std::span<const std::uint8_t> in, std::size_t at) {
  const std::uint32_t bits = get_u32(in, at);
  float v = 0.0f;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::uint32_t checked_u32(std::size_t v, const char* what) {
  if (v > std::numeric_limits<std::uint32_t>::max()) {
    throw std::invalid_argument(std::string("encode_frame: ") + what +
                                " does not fit the wire's u32");
  }
  return static_cast<std::uint32_t>(v);
}

/// Header + label block shared by both encoders; returns the payload
/// offset. `out` is sized to the full frame.
std::size_t encode_prefix(const WireMeta& meta,
                          const stats::LabelDistribution& labels,
                          PayloadKind kind, float scale,
                          std::size_t value_count,
                          std::vector<std::uint8_t>& out) {
  const std::size_t n_classes = labels.n_classes();
  out.clear();
  out.resize(wire_frame_size(kind, n_classes, value_count));
  put_u32(out, 0, kWireMagic);
  put_u16(out, 4, kWireVersion);
  out[6] = static_cast<std::uint8_t>(kind);
  out[7] = 0;  // reserved flags
  put_u64(out, 8, static_cast<std::uint64_t>(meta.model_id));
  put_u64(out, 16, static_cast<std::uint64_t>(meta.task_version));
  put_u32(out, 24, checked_u32(meta.mini_batch, "mini_batch"));
  put_u32(out, 28, checked_u32(n_classes, "class count"));
  put_u32(out, 32, checked_u32(value_count, "value count"));
  put_f32(out, 36, scale);
  for (std::size_t c = 0; c < n_classes; ++c) {
    put_u32(out, kWireHeaderBytes + 4 * c,
            checked_u32(labels.count(c), "label count"));
  }
  return kWireHeaderBytes + 4 * n_classes;
}

}  // namespace

std::size_t wire_frame_size(PayloadKind kind, std::size_t n_classes,
                            std::size_t value_count) {
  const std::size_t per_value = kind == PayloadKind::kInt8 ? 1 : 4;
  return kWireHeaderBytes + 4 * n_classes + per_value * value_count;
}

void encode_frame(const WireMeta& meta, const stats::LabelDistribution& labels,
                  const QuantizedGradient& payload,
                  std::vector<std::uint8_t>& out) {
  const std::size_t at = encode_prefix(meta, labels, PayloadKind::kInt8,
                                       payload.scale, payload.values.size(),
                                       out);
  std::memcpy(out.data() + at, payload.values.data(), payload.values.size());
}

void encode_frame(const WireMeta& meta, const stats::LabelDistribution& labels,
                  std::span<const float> gradient,
                  std::vector<std::uint8_t>& out) {
  const std::size_t at = encode_prefix(meta, labels, PayloadKind::kFloat32,
                                       0.0f, gradient.size(), out);
  if constexpr (std::endian::native == std::endian::little) {
    std::memcpy(out.data() + at, gradient.data(),
                gradient.size() * sizeof(float));
  } else {
    for (std::size_t i = 0; i < gradient.size(); ++i) {
      put_f32(out, at + 4 * i, gradient[i]);
    }
  }
}

void encode_job(const runtime::GradientJob& job, PayloadKind kind,
                std::vector<std::uint8_t>& out) {
  if (!job.quantized.empty()) {
    throw std::invalid_argument(
        "encode_job: the job carries an int8 payload, not a float gradient");
  }
  WireMeta meta;
  meta.model_id = job.model_id;
  meta.task_version = job.task_version;
  meta.mini_batch = job.mini_batch;
  if (kind == PayloadKind::kInt8) {
    encode_frame(meta, job.label_dist, quantize_gradient(job.gradient), out);
  } else {
    encode_frame(meta, job.label_dist, std::span<const float>(job.gradient),
                 out);
  }
}

const char* wire_error_name(WireError error) {
  switch (error) {
    case WireError::kOk:
      return "ok";
    case WireError::kTruncatedHeader:
      return "truncated header";
    case WireError::kBadMagic:
      return "bad magic";
    case WireError::kBadVersion:
      return "unsupported wire version";
    case WireError::kBadFlags:
      return "reserved flags set";
    case WireError::kBadKind:
      return "unknown payload kind";
    case WireError::kEmptyGradient:
      return "zero-length gradient";
    case WireError::kTooLarge:
      return "claimed size exceeds limits";
    case WireError::kLengthMismatch:
      return "payload length mismatch";
    case WireError::kBadScale:
      return "invalid quantization scale";
    case WireError::kNonFinitePayload:
      return "non-finite payload";
  }
  return "unknown";
}

WireError WireDecoder::decode(std::span<const std::uint8_t> frame,
                              runtime::GradientJob& job) const {
  // Reset routing state first so a failed decode never leaves a previous
  // frame's model id attached to whatever the caller does with the error.
  job.model_id = core::kDefaultModelId;
  job.ticket = 0;
  job.enqueue_ns = 0;
  job.feedback.reset();

  if (frame.size() < kWireHeaderBytes) return WireError::kTruncatedHeader;
  if (get_u32(frame, 0) != kWireMagic) return WireError::kBadMagic;
  if (get_u16(frame, 4) != kWireVersion) return WireError::kBadVersion;
  if (frame[7] != 0) return WireError::kBadFlags;
  const auto kind = static_cast<PayloadKind>(frame[6]);
  if (kind != PayloadKind::kInt8 && kind != PayloadKind::kFloat32) {
    return WireError::kBadKind;
  }
  const std::size_t n_classes = get_u32(frame, 28);
  const std::size_t value_count = get_u32(frame, 32);
  if (value_count == 0) return WireError::kEmptyGradient;
  // Size ceilings BEFORE any buffer is sized from wire-claimed lengths.
  if (value_count > limits_.max_values || n_classes > limits_.max_classes) {
    return WireError::kTooLarge;
  }
  if (frame.size() != wire_frame_size(kind, n_classes, value_count)) {
    return WireError::kLengthMismatch;
  }
  const float scale = get_f32(frame, 36);
  if (kind == PayloadKind::kInt8 && !(std::isfinite(scale) && scale > 0.0f)) {
    return WireError::kBadScale;
  }

  job.model_id = static_cast<core::ModelId>(get_u64(frame, 8));
  job.task_version = static_cast<std::size_t>(get_u64(frame, 16));
  job.mini_batch = get_u32(frame, 24);

  stats::LabelDistribution labels(n_classes == 0 ? 1 : n_classes);
  for (std::size_t c = 0; c < n_classes; ++c) {
    const std::uint32_t count = get_u32(frame, kWireHeaderBytes + 4 * c);
    if (count != 0) labels.add(static_cast<int>(c), count);
  }
  job.label_dist = std::move(labels);

  const std::size_t at = kWireHeaderBytes + 4 * n_classes;
  // Both payload buffers keep their capacity across frames; the one the
  // frame does not use is left empty, which is what names the job's kind.
  if (kind == PayloadKind::kInt8) {
    // The int8 payload stays int8 until the fold dequantizes it in-register
    // (DESIGN.md §12): 1 byte per value through the queue instead of 4.
    const auto* values =
        reinterpret_cast<const std::int8_t*>(frame.data() + at);
    job.gradient.clear();
    job.quantized.assign(values, values + value_count);
    job.scale = scale;
  } else {
    job.quantized.clear();
    job.scale = 0.0f;
    job.gradient.resize(value_count);
    if constexpr (std::endian::native == std::endian::little) {
      std::memcpy(job.gradient.data(), frame.data() + at,
                  value_count * sizeof(float));
    } else {
      for (std::size_t i = 0; i < value_count; ++i) {
        job.gradient[i] = get_f32(frame, at + 4 * i);
      }
    }
    for (float g : job.gradient) {
      // The int8 kind is finite by construction (finite scale * [-127,127]);
      // the raw kind must be screened here or a NaN walks into the fold.
      if (!std::isfinite(g)) return WireError::kNonFinitePayload;
    }
  }
  return WireError::kOk;
}

}  // namespace fleet::net
