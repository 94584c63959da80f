// Portable scalar backend: the reference implementation every SIMD backend
// is parity-tested against, and the fallback on CPUs (or builds) without
// one. This file is compiled with auto-vectorization disabled (see the
// root CMakeLists) so the fallback stays an honest scalar baseline and the
// order-pinned reductions below keep their documented sequential
// accumulation order no matter what the optimizer would infer.
//
// Numerical contract (DESIGN.md §10): these loops DEFINE the per-element
// operation sequence. Elementwise kernels do one mul + one add per
// contribution; the accumulate-GEMMs feed each output element its k
// contributions in ascending order; reductions accumulate sequentially in
// ascending index order in double precision.
#include <cmath>

#include "fleet/tensor/kernels/backend_tables.hpp"

namespace fleet::tensor::kernels::detail {

namespace {

// Cache block over the reduction dimension: one block of B rows (~240 x n
// floats) stays L2-resident while every output row sweeps it. Blocking
// only reorders which (i, p) pairs are *visited* when — each output
// element still receives its p contributions in ascending order, which is
// what keeps the blocked GEMM bitwise identical to the naive triple loop.
constexpr std::size_t kBlockK = 240;

void axpy_portable(float alpha, const float* x, float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) y[i] += alpha * x[i];
}

void scale_portable(float* x, float alpha, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) x[i] *= alpha;
}

void add_portable(const float* a, const float* b, float* c, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) c[i] = a[i] + b[i];
}

float max_abs_diff_portable(const float* a, const float* b, std::size_t n) {
  float m = 0.0f;
  for (std::size_t i = 0; i < n; ++i) {
    const float d = std::fabs(a[i] - b[i]);
    if (d > m) m = d;
  }
  return m;
}

void matmul_portable(const float* a, const float* b, float* c, std::size_t m,
                     std::size_t k, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t p1 = p0 + kBlockK < k ? p0 + kBlockK : k;
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = a[i * k + p];
        if (av == 0.0f) continue;  // im2col columns are often sparse
        const float* brow = b + p * n;
        for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
      }
    }
  }
}

void matmul_at_b_portable(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t k, std::size_t n) {
  // A is (k x m): C += A^T B walks A's rows once, accumulating rank-1
  // updates — ascending p per output element.
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      float* crow = c + i * n;
      for (std::size_t j = 0; j < n; ++j) crow[j] += av * brow[j];
    }
  }
}

void matmul_a_bt_portable(const float* a, const float* b, float* c,
                          std::size_t m, std::size_t k, std::size_t n) {
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      float s = 0.0f;
      for (std::size_t p = 0; p < k; ++p) s += arow[p] * brow[p];
      c[i * n + j] += s;
    }
  }
}

void fold_apply_portable(float weight, const float* g, float alpha,
                         float* theta, float* out, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float folded = 0.0f + weight * g[i];
    theta[i] += alpha * folded;
    if (out != nullptr) out[i] = theta[i];
  }
}

void fold_apply_q8_portable(float weight, const std::int8_t* q, float scale,
                            float alpha, float* theta, float* out,
                            std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    const float g = static_cast<float>(q[i]) * scale;
    const float folded = 0.0f + weight * g;
    theta[i] += alpha * folded;
    if (out != nullptr) out[i] = theta[i];
  }
}

void axpy_q8_portable(float alpha, const std::int8_t* q, float scale,
                      float* y, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    y[i] += alpha * (static_cast<float>(q[i]) * scale);
  }
}

}  // namespace

double squared_norm_pinned(const float* x, std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += static_cast<double>(x[i]) * static_cast<double>(x[i]);
  }
  return s;
}

double bhattacharyya_pinned(const double* p, const double* q, double denom,
                            std::size_t n) {
  double s = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    s += std::sqrt(p[i] * q[i] / denom);
  }
  return s;
}

const KernelTable& portable_table() {
  static const KernelTable t{
      "portable",
      axpy_portable,
      scale_portable,
      add_portable,
      max_abs_diff_portable,
      squared_norm_pinned,
      bhattacharyya_pinned,
      matmul_portable,
      matmul_at_b_portable,
      matmul_a_bt_portable,
      fold_apply_portable,
      fold_apply_q8_portable,
      axpy_q8_portable,
  };
  return t;
}

}  // namespace fleet::tensor::kernels::detail
