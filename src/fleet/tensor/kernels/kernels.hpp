#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fleet::tensor::kernels {

/// Which vectorized arithmetic backend the process runs on (DESIGN.md §10).
///
/// Exactly one backend is active at a time, selected once at startup
/// (explicit pin > FLEET_KERNEL env var > best the CPU supports) and pinned
/// for the run: floating-point summation order is part of the determinism
/// contract, so a run's kernel choice is configuration, not a per-call
/// heuristic. kAuto is only a *selection request* (re-detect), never an
/// active backend.
enum class Backend {
  kAuto,      ///< selection request: env override, else best available
  kPortable,  ///< scalar reference — always available, defines the contract
  kAvx2,      ///< x86-64 AVX2 (compiled in when FLEET_ENABLE_AVX2, used
              ///< when the CPU reports avx2)
  kNeon,      ///< aarch64 NEON
};

/// One backend's implementation of every arithmetic hot loop. All pointers
/// are non-null in a registered table (a backend may delegate entries to
/// the portable implementation, e.g. order-pinned reductions).
///
/// Numerical contract (DESIGN.md §10): for every elementwise op (axpy,
/// scale, add, max_abs_diff) and for the accumulate-style GEMMs (matmul,
/// matmul_at_b) each output element experiences the *identical* operation
/// sequence the portable scalar loop applies — one mul + one add per
/// contribution, contributions in ascending-k order, no FMA contraction,
/// no reassociation — so those kernels are bitwise identical across
/// backends. Reductions that feed control decisions (squared_norm,
/// bhattacharyya) are pinned to sequential ascending-index double
/// accumulation in every backend. Only matmul_a_bt (a dot-product GEMM)
/// may use backend-specific lane-partial reductions; it is deterministic
/// per backend but only ULP-close across backends.
struct KernelTable {
  const char* name;

  /// y[i] += alpha * x[i]. The weighted-fold workhorse: AsyncAggregator
  /// submit()/fold_into(), the ShardedAggregator apply step, and every
  /// model's apply_gradient run on this.
  void (*axpy)(float alpha, const float* x, float* y, std::size_t n);
  /// x[i] *= alpha.
  void (*scale)(float* x, float alpha, std::size_t n);
  /// c[i] = a[i] + b[i].
  void (*add)(const float* a, const float* b, float* c, std::size_t n);
  /// max_i |a[i] - b[i]|.
  float (*max_abs_diff)(const float* a, const float* b, std::size_t n);
  /// Sum of x[i]^2 accumulated in double, sequential ascending order in
  /// EVERY backend (order-pinned reduction; see contract above).
  double (*squared_norm)(const float* x, std::size_t n);
  /// Bhattacharyya coefficient term sum: sum_i sqrt(p[i] * q[i] / denom),
  /// accumulated in double, sequential ascending order in EVERY backend.
  /// Division (not multiplication by a reciprocal) is part of the pinned
  /// contract — it reproduces SimilarityTracker's (prob * count) / total
  /// rounding exactly. AdaSGD's boost weights ride on this, so it must be
  /// bitwise stable across backends.
  double (*bhattacharyya)(const double* p, const double* q, double denom,
                          std::size_t n);

  /// C (m x n) += A (m x k) * B (k x n), all row-major. Accumulate
  /// semantics: callers zero or pre-fill C (e.g. with a broadcast bias) —
  /// pre-filling reproduces "acc = bias; then ascending-k adds" exactly.
  void (*matmul)(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n);
  /// C (m x n) += A^T * B where A is (k x m): the dW = X^T dY shape.
  void (*matmul_at_b)(const float* a, const float* b, float* c,
                      std::size_t m, std::size_t k, std::size_t n);
  /// C (m x n) += A (m x k) * B^T where B is (n x k): the dX = dY W^T
  /// shape. Dot-product reduction — ULP-close (not bitwise) to portable.
  void (*matmul_a_bt)(const float* a, const float* b, float* c,
                      std::size_t m, std::size_t k, std::size_t n);

  /// The fused K=1 fold (DESIGN.md §10): theta[i] = theta[i] + alpha *
  /// (0.0f + weight * g[i]), and out[i] = the new theta[i] when `out` is
  /// non-null. It replays the unfused sequence op for op — axpy(weight)
  /// into a zeroed accumulator, the flush copy, axpy(alpha) into theta —
  /// so it is bitwise equal to that sequence (the `0.0f +` is the zeroed
  /// accumulator, and it turns a -0.0f product into +0.0f exactly as the
  /// accumulator did).
  void (*fold_apply)(float weight, const float* g, float alpha, float* theta,
                     float* out, std::size_t n);
  /// fold_apply over an int8 payload: g[i] = float(q[i]) * scale, the wire
  /// decoder's dequantization, computed in-register.
  void (*fold_apply_q8)(float weight, const std::int8_t* q, float scale,
                        float alpha, float* theta, float* out, std::size_t n);
  /// y[i] += alpha * (float(q[i]) * scale): axpy over an int8 payload, the
  /// K>1 fold of a quantized gradient into the accumulator.
  void (*axpy_q8)(float alpha, const std::int8_t* q, float scale, float* y,
                  std::size_t n);
};

/// True when `backend`'s table is compiled in AND usable on this CPU.
/// kPortable is always available; kAuto is never "available" (it is a
/// selection request, not a backend).
bool available(Backend backend);

/// The table for a specific backend (parity tests compare tables without
/// touching the process-wide selection). Throws std::invalid_argument for
/// kAuto or an unavailable backend.
const KernelTable& table(Backend backend);

/// The process-wide active table. First use selects: FLEET_KERNEL env var
/// if set and available, else the best available backend. The load is one
/// atomic acquire — negligible against any span the kernels run over.
const KernelTable& active();

/// The Backend active() currently resolves to (never kAuto).
Backend active_backend();

/// Pin the process-wide backend (throws std::invalid_argument when
/// unavailable). kAuto re-runs the startup selection. The determinism
/// matrix pins one backend per run axis; RuntimeConfig::kernel_backend
/// routes here at server construction.
void pin_backend(Backend backend);

/// Where the current selection came from: "pinned", "env", or "detected".
std::string selection_source();

/// Human-readable backend name ("portable", "avx2", "neon", "auto").
std::string_view name(Backend backend);

/// Parse a backend name (the FLEET_KERNEL / config spelling). Empty or
/// "auto" yields kAuto; unknown spellings yield nullopt.
std::optional<Backend> parse_backend(std::string_view text);

}  // namespace fleet::tensor::kernels
