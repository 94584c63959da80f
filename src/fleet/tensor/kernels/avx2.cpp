// AVX2 backend (x86-64). Compiled with -mavx2 -mfma -ffp-contract=off when
// FLEET_ENABLE_AVX2 is on; registered only when the running CPU reports
// AVX2 (__builtin_cpu_supports), so a binary built here stays safe on an
// older machine — it just selects the portable table.
//
// Bitwise discipline (DESIGN.md §10): the elementwise kernels and the
// accumulate-GEMMs use explicit mul-then-add vectors — NOT fmadd — so each
// lane performs the identical two-rounding sequence the portable scalar
// loop does, making them bitwise equal to portable for any input. FMA is
// used only inside matmul_a_bt's dot-product reduction, which the kernel
// contract already scopes as ULP-close (not bitwise) across backends. The
// order-pinned reductions (squared_norm, bhattacharyya) delegate to the
// shared sequential implementations.
#include "fleet/tensor/kernels/backend_tables.hpp"

#if defined(FLEET_HAVE_AVX2)
#include <immintrin.h>

#include <cmath>

namespace fleet::tensor::kernels::detail {

namespace {

constexpr std::size_t kBlockK = 240;  // same blocking as portable

void axpy_avx2(float alpha, const float* x, float* y, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vx = _mm256_loadu_ps(x + i);
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

/// Eight int8 values widened exactly to float, then scaled: one rounding,
/// the same as the scalar float(q) * scale.
inline __m256 dequantize8(const std::int8_t* q, __m256 vscale) {
  const __m128i bytes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(q));
  return _mm256_mul_ps(_mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(bytes)),
                       vscale);
}

/// theta + alpha * (0 + weight * g) on eight lanes: the zeroed-accumulator
/// add is kept (it maps -0.0f to +0.0f), then the apply axpy's mul + add.
inline __m256 fold_apply8(__m256 vtheta, __m256 vg, __m256 vweight,
                          __m256 valpha) {
  const __m256 folded =
      _mm256_add_ps(_mm256_setzero_ps(), _mm256_mul_ps(vweight, vg));
  return _mm256_add_ps(vtheta, _mm256_mul_ps(valpha, folded));
}

void fold_apply_avx2(float weight, const float* g, float alpha, float* theta,
                     float* out, std::size_t n) {
  const __m256 vw = _mm256_set1_ps(weight);
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t =
        fold_apply8(_mm256_loadu_ps(theta + i), _mm256_loadu_ps(g + i), vw, va);
    _mm256_storeu_ps(theta + i, t);
    if (out != nullptr) _mm256_storeu_ps(out + i, t);
  }
  for (; i < n; ++i) {
    const float folded = 0.0f + weight * g[i];
    theta[i] += alpha * folded;
    if (out != nullptr) out[i] = theta[i];
  }
}

void fold_apply_q8_avx2(float weight, const std::int8_t* q, float scale,
                        float alpha, float* theta, float* out, std::size_t n) {
  const __m256 vw = _mm256_set1_ps(weight);
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 t =
        fold_apply8(_mm256_loadu_ps(theta + i), dequantize8(q + i, vs), vw, va);
    _mm256_storeu_ps(theta + i, t);
    if (out != nullptr) _mm256_storeu_ps(out + i, t);
  }
  for (; i < n; ++i) {
    const float folded = 0.0f + weight * (static_cast<float>(q[i]) * scale);
    theta[i] += alpha * folded;
    if (out != nullptr) out[i] = theta[i];
  }
}

void axpy_q8_avx2(float alpha, const std::int8_t* q, float scale, float* y,
                  std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  const __m256 vs = _mm256_set1_ps(scale);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 vy = _mm256_loadu_ps(y + i);
    _mm256_storeu_ps(
        y + i, _mm256_add_ps(vy, _mm256_mul_ps(va, dequantize8(q + i, vs))));
  }
  for (; i < n; ++i) y[i] += alpha * (static_cast<float>(q[i]) * scale);
}

void scale_avx2(float* x, float alpha, std::size_t n) {
  const __m256 va = _mm256_set1_ps(alpha);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(x + i, _mm256_mul_ps(_mm256_loadu_ps(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void add_avx2(const float* a, const float* b, float* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    _mm256_storeu_ps(
        c + i, _mm256_add_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i)));
  }
  for (; i < n; ++i) c[i] = a[i] + b[i];
}

float max_abs_diff_avx2(const float* a, const float* b, std::size_t n) {
  // max is order-independent (no NaN inputs by contract), so a lane-wise
  // max followed by a horizontal max equals the sequential scan exactly.
  const __m256 sign_mask = _mm256_set1_ps(-0.0f);
  __m256 vm = _mm256_setzero_ps();
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m256 d =
        _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
    vm = _mm256_max_ps(vm, _mm256_andnot_ps(sign_mask, d));
  }
  alignas(32) float lanes[8];
  _mm256_store_ps(lanes, vm);
  float m = 0.0f;
  for (float lane : lanes) {
    if (lane > m) m = lane;
  }
  for (; i < n; ++i) {
    const float d = std::fabs(a[i] - b[i]);
    if (d > m) m = d;
  }
  return m;
}

/// crow[0..n) += av * brow[0..n), the rank-1 row update both accumulate-
/// GEMMs are built from. mul + add keeps every element's two-rounding
/// sequence identical to scalar.
inline void row_update(float av, const float* brow, float* crow,
                       std::size_t n) {
  const __m256 va = _mm256_set1_ps(av);
  std::size_t j = 0;
  for (; j + 8 <= n; j += 8) {
    const __m256 vb = _mm256_loadu_ps(brow + j);
    const __m256 vc = _mm256_loadu_ps(crow + j);
    _mm256_storeu_ps(crow + j, _mm256_add_ps(vc, _mm256_mul_ps(va, vb)));
  }
  for (; j < n; ++j) crow[j] += av * brow[j];
}

void matmul_avx2(const float* a, const float* b, float* c, std::size_t m,
                 std::size_t k, std::size_t n) {
  for (std::size_t p0 = 0; p0 < k; p0 += kBlockK) {
    const std::size_t p1 = p0 + kBlockK < k ? p0 + kBlockK : k;
    for (std::size_t i = 0; i < m; ++i) {
      float* crow = c + i * n;
      for (std::size_t p = p0; p < p1; ++p) {
        const float av = a[i * k + p];
        if (av == 0.0f) continue;
        row_update(av, b + p * n, crow, n);
      }
    }
  }
}

void matmul_at_b_avx2(const float* a, const float* b, float* c, std::size_t m,
                      std::size_t k, std::size_t n) {
  for (std::size_t p = 0; p < k; ++p) {
    const float* arow = a + p * m;
    const float* brow = b + p * n;
    for (std::size_t i = 0; i < m; ++i) {
      const float av = arow[i];
      if (av == 0.0f) continue;
      row_update(av, brow, c + i * n, n);
    }
  }
}

void matmul_a_bt_avx2(const float* a, const float* b, float* c, std::size_t m,
                      std::size_t k, std::size_t n) {
  // Dot-product GEMM: 8 lane partial sums combined in a fixed order —
  // deterministic for this backend, ULP-close to portable (contract).
  for (std::size_t i = 0; i < m; ++i) {
    const float* arow = a + i * k;
    for (std::size_t j = 0; j < n; ++j) {
      const float* brow = b + j * k;
      __m256 acc = _mm256_setzero_ps();
      std::size_t p = 0;
      for (; p + 8 <= k; p += 8) {
        acc = _mm256_fmadd_ps(_mm256_loadu_ps(arow + p),
                              _mm256_loadu_ps(brow + p), acc);
      }
      // Fixed combine order: (lo+hi) pairwise, then sequential tail.
      const __m128 lo = _mm256_castps256_ps128(acc);
      const __m128 hi = _mm256_extractf128_ps(acc, 1);
      __m128 s4 = _mm_add_ps(lo, hi);
      __m128 s2 = _mm_add_ps(s4, _mm_movehl_ps(s4, s4));
      __m128 s1 = _mm_add_ss(s2, _mm_shuffle_ps(s2, s2, 1));
      float s = _mm_cvtss_f32(s1);
      for (; p < k; ++p) s += arow[p] * brow[p];
      c[i * n + j] += s;
    }
  }
}

}  // namespace

const KernelTable* avx2_table() {
  if (!__builtin_cpu_supports("avx2")) return nullptr;
  static const KernelTable t{
      "avx2",
      axpy_avx2,
      scale_avx2,
      add_avx2,
      max_abs_diff_avx2,
      squared_norm_pinned,     // order-pinned reduction, shared
      bhattacharyya_pinned,    // order-pinned reduction, shared
      matmul_avx2,
      matmul_at_b_avx2,
      matmul_a_bt_avx2,
      fold_apply_avx2,
      fold_apply_q8_avx2,
      axpy_q8_avx2,
  };
  return &t;
}

}  // namespace fleet::tensor::kernels::detail

#else  // !FLEET_HAVE_AVX2

namespace fleet::tensor::kernels::detail {

const KernelTable* avx2_table() { return nullptr; }

}  // namespace fleet::tensor::kernels::detail

#endif
