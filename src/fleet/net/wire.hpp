#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "fleet/net/compression.hpp"
#include "fleet/runtime/gradient_queue.hpp"
#include "fleet/stats/label_distribution.hpp"

namespace fleet::net {

/// Versioned binary wire format for gradient uploads (DESIGN.md §12).
///
/// The paper's workers upload gradients over a mobile network (§3.1); this
/// is the serialized form the serving path ingests instead of in-process
/// float structs. One frame is one gradient upload:
///
///   offset size  field
///   0      4     magic 0x47574C46 ("FLWG" little-endian)
///   4      2     wire version (kWireVersion)
///   6      1     payload kind (PayloadKind)
///   7      1     flags, reserved — must be 0
///   8      8     model id
///   16     8     task version t_i (the clock the gradient was computed at)
///   24     4     mini-batch size
///   28     4     label-distribution class count C
///   32     4     gradient value count N (must be > 0)
///   36     4     quantization scale (float; int8 kind only, 0 for raw)
///   40     4*C   label counts, one u32 per class
///   40+4*C N or 4*N  payload: int8 values * scale, or raw float32
///
/// All integers and floats are little-endian. The decoder validates every
/// header field (and both length claims) BEFORE sizing any buffer, so a
/// malformed or hostile frame can be rejected with a counted drop and can
/// never reach a fold or force an oversized allocation (the ISSUE's
/// decode-before-submit invariant: by the time ConcurrentFleetServer::
/// try_submit sees the job, it is indistinguishable from an in-process
/// submission, so admission-ticket order and the determinism matrix are
/// untouched).
inline constexpr std::uint32_t kWireMagic = 0x47574C46u;  // "FLWG"
inline constexpr std::uint16_t kWireVersion = 1;
inline constexpr std::size_t kWireHeaderBytes = 40;

/// Payload encodings. Int8 is the QuantizedGradient transport (4x smaller
/// on the wire); raw float32 is the lossless fallback for senders that
/// cannot tolerate quantization noise.
enum class PayloadKind : std::uint8_t {
  kInt8 = 1,
  kFloat32 = 2,
};

/// Total frame size for a payload shape (header + label block + payload).
std::size_t wire_frame_size(PayloadKind kind, std::size_t n_classes,
                            std::size_t value_count);

/// Frame metadata shared by both payload kinds.
struct WireMeta {
  core::ModelId model_id = core::kDefaultModelId;
  std::size_t task_version = 0;
  std::size_t mini_batch = 0;
};

/// Serialize an int8-quantized upload. `out` is overwritten (capacity
/// reused). Throws std::invalid_argument when a field does not fit its
/// wire width (label count / mini-batch / value count past u32).
void encode_frame(const WireMeta& meta, const stats::LabelDistribution& labels,
                  const QuantizedGradient& payload,
                  std::vector<std::uint8_t>& out);

/// Serialize a raw-float32 upload (the lossless fallback kind).
void encode_frame(const WireMeta& meta, const stats::LabelDistribution& labels,
                  std::span<const float> gradient,
                  std::vector<std::uint8_t>& out);

/// Serialize an in-process job's float gradient as it would cross the
/// wire: quantized (kInt8, lossy like a real worker upload) or verbatim
/// (kFloat32). Throws std::invalid_argument for a job that carries an int8
/// payload (a decoded frame) instead.
void encode_job(const runtime::GradientJob& job, PayloadKind kind,
                std::vector<std::uint8_t>& out);

/// Every way a frame can fail validation, in check order. kOk is 0 so the
/// enum converts to bool-ish "did it fail" at call sites that only care.
enum class WireError : std::uint8_t {
  kOk = 0,
  kTruncatedHeader,   ///< shorter than the fixed header
  kBadMagic,
  kBadVersion,
  kBadFlags,          ///< reserved flags not zero
  kBadKind,           ///< unknown payload kind
  kEmptyGradient,     ///< value count 0
  kTooLarge,          ///< value/class count past the decoder's limits
  kLengthMismatch,    ///< frame size != header's claimed layout
  kBadScale,          ///< int8 kind with a non-finite or non-positive scale
  kNonFinitePayload,  ///< raw-float payload carrying NaN/Inf
};

const char* wire_error_name(WireError error);

/// Ceilings a frame's *claimed* sizes must stay under before the decoder
/// sizes any buffer — the guard that keeps a hostile 4-GB length field
/// from becoming a 4-GB allocation. Defaults fit every model in the repo
/// with orders of magnitude to spare.
struct WireLimits {
  std::size_t max_values = 1u << 24;   // 16M parameters
  std::size_t max_classes = 1u << 16;  // 64k label classes
};

/// Stateless frame validator/decoder; one instance may be shared by any
/// number of threads (decode writes only into caller-owned buffers).
///
/// decode() fills the job's routing fields (model id, task version,
/// mini-batch, label distribution) and the payload, reusing the job's
/// buffer capacity — after warm-up a fixed-size stream decodes with no
/// steady-state allocation on the gradient path. The int8 kind is kept
/// int8: its values land in `job.quantized` and its scale in `job.scale`,
/// with `job.gradient` left empty, and the fold dequantizes them
/// in-register (DESIGN.md §12). The float32 kind fills `job.gradient` and
/// leaves `job.quantized` empty.
class WireDecoder {
 public:
  explicit WireDecoder(const WireLimits& limits = {}) : limits_(limits) {}

  /// Validate and decode one frame into `job`. On success the job looks
  /// exactly like an in-process submission (ticket/enqueue_ns/feedback
  /// reset). On failure the job's contents are unspecified-but-valid and
  /// the result names the first failed check; nothing is thrown — a
  /// malformed frame is data, not a programming error.
  WireError decode(std::span<const std::uint8_t> frame,
                   runtime::GradientJob& job) const;

  const WireLimits& limits() const { return limits_; }

 private:
  WireLimits limits_;
};

}  // namespace fleet::net
