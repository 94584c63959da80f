// NEON backend (aarch64). NEON is architecturally guaranteed on aarch64,
// so there is no runtime feature probe — the table exists whenever the
// build targets aarch64 with FLEET_ENABLE_NEON on.
//
// Bitwise discipline mirrors the AVX2 backend: explicit vmulq + vaddq (NOT
// vmlaq/vfmaq, which fuse) so every lane performs the portable loop's
// two-rounding sequence. The GEMMs, the fused folds and the order-pinned
// reductions delegate to the portable implementations — this backend
// vectorizes the flat-span kernels (axpy/scale/add/max_abs_diff); widening
// it to the GEMMs and the fused folds is a follow-up that needs aarch64
// hardware to validate against the parity suite.
#include "fleet/tensor/kernels/backend_tables.hpp"

#if defined(FLEET_HAVE_NEON) && defined(__aarch64__)
#include <arm_neon.h>

#include <cmath>

namespace fleet::tensor::kernels::detail {

namespace {

void axpy_neon(float alpha, const float* x, float* y, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t vx = vld1q_f32(x + i);
    const float32x4_t vy = vld1q_f32(y + i);
    vst1q_f32(y + i, vaddq_f32(vy, vmulq_f32(va, vx)));
  }
  for (; i < n; ++i) y[i] += alpha * x[i];
}

void scale_neon(float* x, float alpha, std::size_t n) {
  const float32x4_t va = vdupq_n_f32(alpha);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(x + i, vmulq_f32(vld1q_f32(x + i), va));
  }
  for (; i < n; ++i) x[i] *= alpha;
}

void add_neon(const float* a, const float* b, float* c, std::size_t n) {
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    vst1q_f32(c + i, vaddq_f32(vld1q_f32(a + i), vld1q_f32(b + i)));
  }
  for (; i < n; ++i) c[i] = a[i] + b[i];
}

float max_abs_diff_neon(const float* a, const float* b, std::size_t n) {
  float32x4_t vm = vdupq_n_f32(0.0f);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const float32x4_t d = vsubq_f32(vld1q_f32(a + i), vld1q_f32(b + i));
    vm = vmaxq_f32(vm, vabsq_f32(d));
  }
  float m = vmaxvq_f32(vm);
  for (; i < n; ++i) {
    const float d = std::fabs(a[i] - b[i]);
    if (d > m) m = d;
  }
  return m;
}

}  // namespace

const KernelTable* neon_table() {
  static const KernelTable t{
      "neon",
      axpy_neon,
      scale_neon,
      add_neon,
      max_abs_diff_neon,
      squared_norm_pinned,
      bhattacharyya_pinned,
      portable_table().matmul,
      portable_table().matmul_at_b,
      portable_table().matmul_a_bt,
      portable_table().fold_apply,
      portable_table().fold_apply_q8,
      portable_table().axpy_q8,
  };
  return &t;
}

}  // namespace fleet::tensor::kernels::detail

#else  // !(FLEET_HAVE_NEON && __aarch64__)

namespace fleet::tensor::kernels::detail {

const KernelTable* neon_table() { return nullptr; }

}  // namespace fleet::tensor::kernels::detail

#endif
