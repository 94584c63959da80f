#pragma once

#include <cstdint>
#include <span>

#include "fleet/stats/rng.hpp"
#include "fleet/tensor/tensor.hpp"

namespace fleet::tensor {

/// Every op below executes on the process-wide kernel backend
/// (tensor/kernels/: runtime-dispatched AVX2/NEON with a portable scalar
/// fallback, DESIGN.md §10). The backend is selected once at startup and
/// pinned for the run — kernel choice is part of the determinism
/// contract, so results are bitwise reproducible per pinned backend.

/// C = A (m x k) * B (k x n), row-major.
Tensor matmul(const Tensor& a, const Tensor& b);

/// C = A^T * B where A is (k x m) — avoids materializing the transpose.
Tensor matmul_at_b(const Tensor& a, const Tensor& b);

/// C = A * B^T where B is (n x k).
Tensor matmul_a_bt(const Tensor& a, const Tensor& b);

/// y += alpha * x (flat, sizes must match).
void axpy(float alpha, const Tensor& x, Tensor& y);

/// y += alpha * x over flat spans (sizes must match). This is the fused
/// weighted-accumulate the zero-copy gradient pipeline runs on: the
/// aggregator folds a worker gradient into its accumulator and the model
/// applies an aggregate to its parameter arena in one pass, no staging
/// copies (DESIGN.md §4).
void axpy(float alpha, std::span<const float> x, std::span<float> y);

/// y += alpha * (float(q) * scale): axpy over an int8 payload, dequantized
/// in-register exactly as the wire decoder does (sizes must match).
void axpy(float alpha, std::span<const std::int8_t> q, float scale,
          std::span<float> y);

/// The fused K=1 fold (DESIGN.md §10): theta += alpha * (0 + weight * g),
/// bitwise equal to folding g into a zeroed accumulator, flushing it and
/// applying axpy(alpha). When `out` is non-empty it receives the new theta
/// in the same pass (the fold lanes publish from it, DESIGN.md §4). g,
/// theta and a non-empty out must have equal sizes.
void fold_apply(float weight, std::span<const float> g, float alpha,
                std::span<float> theta, std::span<float> out);

/// fold_apply over an int8 payload, g = float(q) * scale.
void fold_apply(float weight, std::span<const std::int8_t> q, float scale,
                float alpha, std::span<float> theta, std::span<float> out);

/// x *= alpha.
void scale(Tensor& x, float alpha);

/// x *= alpha over a flat span.
void scale(std::span<float> x, float alpha);

/// Elementwise sum into a fresh tensor.
Tensor add(const Tensor& a, const Tensor& b);

/// Sum of squares of all elements, accumulated in double. The
/// accumulation order is pinned — sequential, ascending index — in EVERY
/// kernel backend (DESIGN.md §10): this reduction feeds control decisions
/// (gradient clipping, similarity/dampening bookkeeping), which must not
/// shift by a ULP when the run is configured onto a different backend.
double squared_norm(const Tensor& x);

/// squared_norm over a flat span (same pinned accumulation order).
double squared_norm(std::span<const float> x);

/// Fill with i.i.d. N(0, stddev^2) samples.
void fill_gaussian(Tensor& x, stats::Rng& rng, float stddev);

/// Fill with i.i.d. U(-limit, limit) samples (Glorot-style init).
void fill_uniform(Tensor& x, stats::Rng& rng, float limit);

/// Max absolute difference between two tensors (for tests).
float max_abs_diff(const Tensor& a, const Tensor& b);

}  // namespace fleet::tensor
