// Parity, dispatch and scratch-arena tests for the kernel layer
// (src/fleet/tensor/kernels/, DESIGN.md §10).
//
// The parity suite is the enforcement arm of the §10 numerical contract:
// every available SIMD backend is compared against the portable scalar
// reference — bitwise for the elementwise kernels and the accumulate-GEMMs
// (odd lengths, unaligned span offsets, empty/1-element edges included, so
// both the vector body and the scalar tail are exercised), tight-ULP for
// matmul_a_bt's dot-product reduction, and bitwise for the order-pinned
// reductions (squared_norm, bhattacharyya).
#include "fleet/tensor/kernels/kernels.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <vector>

#include "fleet/net/compression.hpp"
#include "fleet/nn/conv2d.hpp"
#include "fleet/stats/rng.hpp"
#include "fleet/tensor/kernels/scratch.hpp"
#include "fleet/tensor/ops.hpp"

namespace fleet::tensor::kernels {
namespace {

// Lengths that cover empty, single-element, below/at/above every SIMD
// width (4 for NEON, 8 for AVX2), and sizes with long vector bodies plus
// ragged tails.
const std::size_t kLengths[] = {0,  1,  2,  3,  7,   8,   9,    15,  16,
                                17, 31, 32, 33, 63,  64,  65,   100, 127,
                                128, 129, 255, 256, 257, 1000, 1023};

// Span offsets into an overaligned buffer: 0 plus misalignments that break
// 16/32-byte alignment, so the loadu/storeu paths are truly unaligned.
const std::size_t kOffsets[] = {0, 1, 3, 5};

std::vector<float> random_floats(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<float> v(n);
  for (float& x : v) x = static_cast<float>(rng.gaussian(0.0, 1.0));
  return v;
}

std::vector<Backend> simd_backends() {
  std::vector<Backend> backends;
  for (const Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (available(b)) backends.push_back(b);
  }
  return backends;
}

bool bitwise_equal(const float* a, const float* b, std::size_t n) {
  // The n = 0 sweep cell hands over an empty vector's data(), which may be
  // null — memcmp requires non-null pointers even for zero sizes.
  return n == 0 || std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(KernelParityTest, AxpyBitwiseAtEveryLengthAndOffset) {
  for (const Backend backend : simd_backends()) {
    const KernelTable& simd = table(backend);
    const KernelTable& ref = table(Backend::kPortable);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        const std::vector<float> x = random_floats(n + off, n * 31 + off);
        std::vector<float> y_ref = random_floats(n + off, n * 37 + off + 1);
        std::vector<float> y_simd = y_ref;
        ref.axpy(0.37f, x.data() + off, y_ref.data() + off, n);
        simd.axpy(0.37f, x.data() + off, y_simd.data() + off, n);
        EXPECT_TRUE(bitwise_equal(y_ref.data(), y_simd.data(), n + off))
            << simd.name << " axpy n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelParityTest, ScaleBitwiseAtEveryLengthAndOffset) {
  for (const Backend backend : simd_backends()) {
    const KernelTable& simd = table(backend);
    const KernelTable& ref = table(Backend::kPortable);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        std::vector<float> x_ref = random_floats(n + off, n * 41 + off);
        std::vector<float> x_simd = x_ref;
        ref.scale(x_ref.data() + off, -1.7f, n);
        simd.scale(x_simd.data() + off, -1.7f, n);
        EXPECT_TRUE(bitwise_equal(x_ref.data(), x_simd.data(), n + off))
            << simd.name << " scale n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelParityTest, AddBitwiseAtEveryLengthAndOffset) {
  for (const Backend backend : simd_backends()) {
    const KernelTable& simd = table(backend);
    const KernelTable& ref = table(Backend::kPortable);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        const std::vector<float> a = random_floats(n + off, n * 43 + off);
        const std::vector<float> b = random_floats(n + off, n * 47 + off + 1);
        std::vector<float> c_ref(n + off, 0.0f);
        std::vector<float> c_simd(n + off, 0.0f);
        ref.add(a.data() + off, b.data() + off, c_ref.data() + off, n);
        simd.add(a.data() + off, b.data() + off, c_simd.data() + off, n);
        EXPECT_TRUE(bitwise_equal(c_ref.data(), c_simd.data(), n + off))
            << simd.name << " add n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelParityTest, MaxAbsDiffExactAtEveryLengthAndOffset) {
  for (const Backend backend : simd_backends()) {
    const KernelTable& simd = table(backend);
    const KernelTable& ref = table(Backend::kPortable);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        const std::vector<float> a = random_floats(n + off, n * 53 + off);
        const std::vector<float> b = random_floats(n + off, n * 59 + off + 1);
        const float expected = ref.max_abs_diff(a.data() + off, b.data() + off, n);
        const float got = simd.max_abs_diff(a.data() + off, b.data() + off, n);
        EXPECT_EQ(expected, got)
            << simd.name << " max_abs_diff n=" << n << " off=" << off;
      }
    }
  }
}

TEST(KernelParityTest, OrderPinnedReductionsBitwiseAcrossBackends) {
  // squared_norm and bhattacharyya are pinned to ONE sequential
  // implementation shared by every backend — exact equality, any input.
  for (const Backend backend : simd_backends()) {
    const KernelTable& simd = table(backend);
    const KernelTable& ref = table(Backend::kPortable);
    for (const std::size_t n : kLengths) {
      const std::vector<float> x = random_floats(n, n * 61 + 7);
      EXPECT_EQ(ref.squared_norm(x.data(), n), simd.squared_norm(x.data(), n))
          << simd.name << " squared_norm n=" << n;
      std::vector<double> p(n), q(n);
      stats::Rng rng(n * 67 + 11);
      for (std::size_t i = 0; i < n; ++i) {
        p[i] = rng.uniform(0.0, 1.0);
        q[i] = rng.uniform(0.0, 50.0);
      }
      EXPECT_EQ(ref.bhattacharyya(p.data(), q.data(), 50.0, n),
                simd.bhattacharyya(p.data(), q.data(), 50.0, n))
          << simd.name << " bhattacharyya n=" << n;
    }
  }
}

// GEMM shapes covering: tiny/degenerate, ragged n (vector tail), k above
// the cache-block size (so blocking engages), and m=1 (the RNN step shape).
struct GemmShape {
  std::size_t m, k, n;
};
const GemmShape kGemmShapes[] = {{1, 1, 1},  {1, 7, 5},    {3, 301, 17},
                                 {4, 8, 8},  {5, 240, 33}, {1, 64, 96},
                                 {8, 241, 9}, {2, 500, 1}};

TEST(KernelParityTest, MatmulBitwise) {
  for (const Backend backend : simd_backends()) {
    const KernelTable& simd = table(backend);
    const KernelTable& ref = table(Backend::kPortable);
    for (const GemmShape& s : kGemmShapes) {
      const std::vector<float> a = random_floats(s.m * s.k, s.m * 71 + s.k);
      const std::vector<float> b = random_floats(s.k * s.n, s.k * 73 + s.n);
      std::vector<float> c_ref = random_floats(s.m * s.n, 5);  // pre-filled
      std::vector<float> c_simd = c_ref;
      ref.matmul(a.data(), b.data(), c_ref.data(), s.m, s.k, s.n);
      simd.matmul(a.data(), b.data(), c_simd.data(), s.m, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(c_ref.data(), c_simd.data(), s.m * s.n))
          << simd.name << " matmul " << s.m << "x" << s.k << "x" << s.n;
    }
  }
}

TEST(KernelParityTest, MatmulAtBBitwise) {
  for (const Backend backend : simd_backends()) {
    const KernelTable& simd = table(backend);
    const KernelTable& ref = table(Backend::kPortable);
    for (const GemmShape& s : kGemmShapes) {
      // A is (k x m) for the A^T B shape.
      const std::vector<float> a = random_floats(s.k * s.m, s.m * 79 + s.k);
      const std::vector<float> b = random_floats(s.k * s.n, s.k * 83 + s.n);
      std::vector<float> c_ref = random_floats(s.m * s.n, 6);
      std::vector<float> c_simd = c_ref;
      ref.matmul_at_b(a.data(), b.data(), c_ref.data(), s.m, s.k, s.n);
      simd.matmul_at_b(a.data(), b.data(), c_simd.data(), s.m, s.k, s.n);
      EXPECT_TRUE(bitwise_equal(c_ref.data(), c_simd.data(), s.m * s.n))
          << simd.name << " matmul_at_b " << s.m << "x" << s.k << "x" << s.n;
    }
  }
}

TEST(KernelParityTest, MatmulABtTightUlp) {
  // The dot-product GEMM may reassociate (lane partials + FMA): compare
  // both backends against a double-precision reference and require each to
  // sit within a tight relative band of it.
  for (const Backend backend : simd_backends()) {
    const KernelTable& simd = table(backend);
    const KernelTable& ref = table(Backend::kPortable);
    for (const GemmShape& s : kGemmShapes) {
      const std::vector<float> a = random_floats(s.m * s.k, s.m * 89 + s.k);
      // B is (n x k) for the A B^T shape.
      const std::vector<float> b = random_floats(s.n * s.k, s.k * 97 + s.n);
      std::vector<float> c_ref(s.m * s.n, 0.0f);
      std::vector<float> c_simd(s.m * s.n, 0.0f);
      ref.matmul_a_bt(a.data(), b.data(), c_ref.data(), s.m, s.k, s.n);
      simd.matmul_a_bt(a.data(), b.data(), c_simd.data(), s.m, s.k, s.n);
      for (std::size_t i = 0; i < s.m; ++i) {
        for (std::size_t j = 0; j < s.n; ++j) {
          double exact = 0.0;
          for (std::size_t p = 0; p < s.k; ++p) {
            exact += static_cast<double>(a[i * s.k + p]) *
                     static_cast<double>(b[j * s.k + p]);
          }
          // ~8 float ULPs of headroom around the magnitude of the exact
          // dot product (k partial rounds at most).
          const double tol =
              8.0 * 1.19209290e-07 *
              std::max(1.0, std::abs(exact) + static_cast<double>(s.k));
          EXPECT_NEAR(c_ref[i * s.n + j], exact, tol) << "portable a_bt";
          EXPECT_NEAR(c_simd[i * s.n + j], exact, tol)
              << simd.name << " a_bt " << s.m << "x" << s.k << "x" << s.n;
        }
      }
    }
  }
}

// ---- fused folds -----------------------------------------------------------
//
// fold_apply / fold_apply_q8 replace the K=1 fold's three steps — fold
// into a zeroed accumulator, flush it, apply it to theta — and axpy_q8 the
// K>1 fold of an int8 payload. Each must be bitwise equal to the step
// sequence it replaces, on every backend, including the signed-zero and
// extreme-int8 corners.

std::vector<Backend> every_backend() {
  std::vector<Backend> backends{Backend::kPortable};
  for (const Backend b : simd_backends()) backends.push_back(b);
  return backends;
}

/// Gradient values with signed zeros and an underflowing magnitude planted
/// at fixed residues of the index, so weight * g rounds to -0.0f (every
/// weight at i % 6 == 0, a tiny weight at i % 6 == 2) and +0.0f.
std::vector<float> gradient_with_zero_corners(std::size_t n,
                                              std::uint64_t seed) {
  std::vector<float> g = random_floats(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 6 == 0) g[i] = -0.0f;
    if (i % 6 == 1) g[i] = 0.0f;
    if (i % 6 == 2) g[i] = -1e-30f;
  }
  return g;
}

/// Parameters holding -0.0f exactly where gradient_with_zero_corners'
/// products round to -0.0f: the one place the fused kernel's zeroed
/// accumulator add changes the result's bits. Offsets shift the pattern
/// against the vector lanes, so both the SIMD bodies and the scalar tails
/// meet it.
std::vector<float> theta_with_zero_corners(std::size_t n, std::uint64_t seed) {
  std::vector<float> theta = random_floats(n, seed);
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 6 == 0 || i % 6 == 2 || i % 6 == 3) theta[i] = -0.0f;
  }
  return theta;
}

/// int8 payload covering both ends of the range and zero.
std::vector<std::int8_t> int8_with_extremes(std::size_t n, std::uint64_t seed) {
  stats::Rng rng(seed);
  std::vector<std::int8_t> q(n);
  for (std::size_t i = 0; i < n; ++i) {
    switch ((i + seed) % 5) {
      case 0: q[i] = 127; break;
      case 1: q[i] = -127; break;
      case 2: q[i] = 0; break;
      default:
        q[i] = static_cast<std::int8_t>(
            static_cast<int>(rng.uniform(0.0, 255.0)) - 127);
    }
  }
  return q;
}

/// The three-step reference the fused kernels replace, on the portable
/// table: acc = 0; acc += weight * g; flushed = acc; theta += alpha * flushed.
void three_step_reference(float weight, const std::vector<float>& g,
                          float alpha, float* theta, std::size_t n,
                          std::size_t off) {
  const KernelTable& ref = table(Backend::kPortable);
  std::vector<float> acc(n, 0.0f);
  ref.axpy(weight, g.data() + off, acc.data(), n);
  const std::vector<float> flushed = acc;
  std::fill(acc.begin(), acc.end(), 0.0f);
  ref.axpy(alpha, flushed.data(), theta, n);
}

std::vector<float> dequantized(const std::vector<std::int8_t>& q, float scale) {
  std::vector<float> g(q.size());
  net::dequantize_into(q, scale, g);
  return g;
}

// Weights and -lr values: ordinary, tiny (products underflow to signed
// zeros) and the weight-1 / -lr pairs the server actually uses.
const float kWeights[] = {0.37f, 1.0f, 1e-20f};
const float kAlphas[] = {-0.05f, -1.0f};

TEST(KernelParityTest, FoldApplyBitwiseEqualsFoldFlushApply) {
  for (const Backend backend : every_backend()) {
    const KernelTable& k = table(backend);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        for (const float weight : kWeights) {
          for (const float alpha : kAlphas) {
            const std::vector<float> g =
                gradient_with_zero_corners(n + off, n * 101 + off);
            const std::vector<float> theta0 =
                theta_with_zero_corners(n + off, n * 103 + off + 1);
            std::vector<float> expected = theta0;
            three_step_reference(weight, g, alpha, expected.data() + off, n,
                                 off);
            std::vector<float> theta = theta0;
            std::vector<float> out(n + off, 7.0f);
            k.fold_apply(weight, g.data() + off, alpha, theta.data() + off,
                         out.data() + off, n);
            EXPECT_TRUE(bitwise_equal(expected.data(), theta.data(), n + off))
                << k.name << " fold_apply n=" << n << " off=" << off
                << " w=" << weight << " alpha=" << alpha;
            EXPECT_TRUE(bitwise_equal(expected.data() + off, out.data() + off,
                                      n))
                << k.name << " fold_apply out n=" << n << " off=" << off;
            std::vector<float> no_out = theta0;
            k.fold_apply(weight, g.data() + off, alpha, no_out.data() + off,
                         nullptr, n);
            EXPECT_TRUE(bitwise_equal(expected.data(), no_out.data(), n + off))
                << k.name << " fold_apply (no out) n=" << n;
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, FoldApplyQ8BitwiseEqualsDequantizeFoldFlushApply) {
  // Scales: an ordinary one and the smallest normal float, the floor
  // quantize_gradient clamps to.
  const float scales[] = {0.0123f, std::numeric_limits<float>::min()};
  for (const Backend backend : every_backend()) {
    const KernelTable& k = table(backend);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        for (const float scale : scales) {
          for (const float weight : kWeights) {
            const float alpha = -0.05f;
            const std::vector<std::int8_t> q =
                int8_with_extremes(n + off, n * 107 + off);
            const std::vector<float> theta0 =
                theta_with_zero_corners(n + off, n * 109 + off + 1);
            std::vector<float> expected = theta0;
            three_step_reference(weight, dequantized(q, scale), alpha,
                                 expected.data() + off, n, off);
            std::vector<float> theta = theta0;
            std::vector<float> out(n + off, 7.0f);
            k.fold_apply_q8(weight, q.data() + off, scale, alpha,
                            theta.data() + off, out.data() + off, n);
            EXPECT_TRUE(bitwise_equal(expected.data(), theta.data(), n + off))
                << k.name << " fold_apply_q8 n=" << n << " off=" << off
                << " scale=" << scale << " w=" << weight;
            EXPECT_TRUE(bitwise_equal(expected.data() + off, out.data() + off,
                                      n))
                << k.name << " fold_apply_q8 out n=" << n << " off=" << off;
          }
        }
      }
    }
  }
}

TEST(KernelParityTest, AxpyQ8BitwiseEqualsDequantizeThenAxpy) {
  const float scales[] = {0.0123f, std::numeric_limits<float>::min()};
  for (const Backend backend : every_backend()) {
    const KernelTable& k = table(backend);
    const KernelTable& ref = table(Backend::kPortable);
    for (const std::size_t n : kLengths) {
      for (const std::size_t off : kOffsets) {
        for (const float scale : scales) {
          const std::vector<std::int8_t> q =
              int8_with_extremes(n + off, n * 113 + off);
          const std::vector<float> g = dequantized(q, scale);
          std::vector<float> expected =
              theta_with_zero_corners(n + off, n * 127 + off + 1);
          std::vector<float> y = expected;
          ref.axpy(0.37f, g.data() + off, expected.data() + off, n);
          k.axpy_q8(0.37f, q.data() + off, scale, y.data() + off, n);
          EXPECT_TRUE(bitwise_equal(expected.data(), y.data(), n + off))
              << k.name << " axpy_q8 n=" << n << " off=" << off
              << " scale=" << scale;
        }
      }
    }
  }
}

TEST(KernelParityTest, FoldApplyKeepsTheZeroedAccumulatorsSignedZero) {
  // The corner the `0.0f +` term exists for: theta = -0.0f and a product
  // that rounds to -0.0f. Through the accumulator the product becomes
  // +0.0f, alpha * +0.0f = -0.0f, and -0.0f + -0.0f = -0.0f; skipping the
  // accumulator would give alpha * -0.0f = +0.0f and -0.0f + +0.0f = +0.0f.
  // 19 elements: two full AVX2 bodies (four NEON-width ones) and a tail.
  constexpr std::size_t kN = 19;
  const std::vector<float> g(kN, -1e-30f);
  const std::vector<std::int8_t> q(kN, -127);
  const float tiny_scale = std::numeric_limits<float>::min();
  const float skipped = -0.0f + -0.05f * (1e-20f * -1e-30f);
  ASSERT_FALSE(std::signbit(skipped)) << "a kernel without the add differs";
  for (const Backend backend : every_backend()) {
    const KernelTable& k = table(backend);
    std::vector<float> expected(kN, -0.0f);
    three_step_reference(1e-20f, g, -0.05f, expected.data(), kN, 0);
    std::vector<float> expected_q8(kN, -0.0f);
    three_step_reference(1e-20f, dequantized(q, tiny_scale), -0.05f,
                         expected_q8.data(), kN, 0);
    for (std::size_t i = 0; i < kN; ++i) {
      ASSERT_TRUE(std::signbit(expected[i]) && std::signbit(expected_q8[i]))
          << "the reference keeps -0.0f at " << i;
    }
    std::vector<float> theta(kN, -0.0f);
    k.fold_apply(1e-20f, g.data(), -0.05f, theta.data(), nullptr, kN);
    EXPECT_TRUE(bitwise_equal(expected.data(), theta.data(), kN)) << k.name;
    std::vector<float> theta_q8(kN, -0.0f);
    k.fold_apply_q8(1e-20f, q.data(), tiny_scale, -0.05f, theta_q8.data(),
                    nullptr, kN);
    EXPECT_TRUE(bitwise_equal(expected_q8.data(), theta_q8.data(), kN))
        << k.name << " q8";
  }
}

// ---- dispatch --------------------------------------------------------------

TEST(KernelDispatchTest, PortableAlwaysAvailable) {
  EXPECT_TRUE(available(Backend::kPortable));
  EXPECT_EQ(table(Backend::kPortable).name, std::string("portable"));
}

TEST(KernelDispatchTest, AutoIsNotABackend) {
  EXPECT_FALSE(available(Backend::kAuto));
  EXPECT_THROW(table(Backend::kAuto), std::invalid_argument);
}

TEST(KernelDispatchTest, UnavailableBackendThrows) {
  for (const Backend b : {Backend::kAvx2, Backend::kNeon}) {
    if (available(b)) continue;
    EXPECT_THROW(table(b), std::invalid_argument);
    EXPECT_THROW(pin_backend(b), std::invalid_argument);
  }
}

TEST(KernelDispatchTest, ParseBackendSpellings) {
  EXPECT_EQ(parse_backend(""), Backend::kAuto);
  EXPECT_EQ(parse_backend("auto"), Backend::kAuto);
  EXPECT_EQ(parse_backend("portable"), Backend::kPortable);
  EXPECT_EQ(parse_backend("scalar"), Backend::kPortable);
  EXPECT_EQ(parse_backend("avx2"), Backend::kAvx2);
  EXPECT_EQ(parse_backend("neon"), Backend::kNeon);
  EXPECT_FALSE(parse_backend("sse9").has_value());
  EXPECT_EQ(name(Backend::kAuto), "auto");
  EXPECT_EQ(name(Backend::kAvx2), "avx2");
}

TEST(KernelDispatchTest, PinSwitchesActiveTableAndAutoRestores) {
  const Backend original = active_backend();
  pin_backend(Backend::kPortable);
  EXPECT_EQ(active_backend(), Backend::kPortable);
  EXPECT_EQ(selection_source(), "pinned");
  EXPECT_EQ(&active(), &table(Backend::kPortable));
  pin_backend(Backend::kAuto);  // back to the startup selection
  EXPECT_EQ(active_backend(), original);
}

TEST(KernelDispatchTest, ActiveBackendIsSelfConsistent) {
  const Backend b = active_backend();
  EXPECT_NE(b, Backend::kAuto);
  EXPECT_TRUE(available(b));
  EXPECT_EQ(&table(b), &active());
}

// ---- scratch arena ---------------------------------------------------------

TEST(ScratchAllocatorTest, ScopeRewindsAndSlabsAreReused) {
  ScratchAllocator& arena = ScratchAllocator::tls();
  std::size_t growths_after_wave1 = 0;
  std::size_t reserved_after_wave1 = 0;
  {
    ScratchAllocator::Scope scope(arena);
    auto a = arena.floats(1000);
    auto b = arena.doubles(500);
    a[0] = 1.0f;
    b[499] = 2.0;
    growths_after_wave1 = arena.stats().slab_growths;
    reserved_after_wave1 = arena.stats().bytes_reserved;
    EXPECT_GE(arena.stats().bytes_peak, 1000 * sizeof(float));
  }
  // Wave 2: the identical allocation pattern must be served entirely from
  // slabs wave 1 left behind — zero growth, zero new reservation. This is
  // the "two-wave zero-steady-state-growth" contract.
  {
    ScratchAllocator::Scope scope(arena);
    auto a = arena.floats(1000);
    auto b = arena.doubles(500);
    a[999] = 3.0f;
    b[0] = 4.0;
    EXPECT_EQ(arena.stats().slab_growths, growths_after_wave1);
    EXPECT_EQ(arena.stats().bytes_reserved, reserved_after_wave1);
  }
}

TEST(ScratchAllocatorTest, SpansStayValidAcrossSlabGrowth) {
  ScratchAllocator& arena = ScratchAllocator::tls();
  ScratchAllocator::Scope scope(arena);
  auto first = arena.floats(64);
  for (std::size_t i = 0; i < 64; ++i) first[i] = static_cast<float>(i);
  // Force at least one new slab: far larger than the minimum slab size.
  auto huge = arena.floats(1u << 20);
  huge[0] = 1.0f;
  for (std::size_t i = 0; i < 64; ++i) {
    EXPECT_EQ(first[i], static_cast<float>(i)) << "span moved on growth";
  }
}

TEST(ScratchAllocatorTest, ScopesNest) {
  ScratchAllocator& arena = ScratchAllocator::tls();
  ScratchAllocator::Scope outer(arena);
  auto a = arena.floats(100);
  a[0] = 7.0f;
  {
    ScratchAllocator::Scope inner(arena);
    auto b = arena.floats(5000);
    b[0] = 8.0f;
  }
  // Inner scope rewound; outer allocation is untouched and the next
  // allocation reuses the inner scope's space.
  auto c = arena.floats(5000);
  c[0] = 9.0f;
  EXPECT_EQ(a[0], 7.0f);
}

TEST(ScratchAllocatorTest, AlignmentIs64Bytes) {
  ScratchAllocator& arena = ScratchAllocator::tls();
  ScratchAllocator::Scope scope(arena);
  for (int i = 0; i < 8; ++i) {
    auto s = arena.floats(3);  // odd size so naive bumping would misalign
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(s.data()) % 64, 0u);
  }
}

TEST(ScratchAllocatorTest, GlobalPeakTracksThisThread) {
  ScratchAllocator& arena = ScratchAllocator::tls();
  ScratchAllocator::Scope scope(arena);
  auto s = arena.floats(4096);
  s[0] = 1.0f;
  EXPECT_GE(ScratchAllocator::global_bytes_peak(), 4096 * sizeof(float));
  EXPECT_GE(ScratchAllocator::global_bytes_peak(), arena.stats().bytes_peak);
}

// ---- layer-level integration ----------------------------------------------

TEST(KernelConsumerTest, Conv2dForwardBitwiseEqualsNaiveConvolution) {
  // The im2col+GEMM forward claims bitwise equality with the direct
  // convolution (bias first, ascending (ic, ky, kx) contributions). Verify
  // against an in-test naive reference, including a strided case.
  struct Case {
    std::size_t in_c, out_c, kh, kw, sh, sw, h, w, batch;
  };
  for (const Case& cs : {Case{3, 4, 3, 3, 1, 1, 9, 9, 2},
                         Case{2, 3, 3, 2, 2, 2, 8, 7, 1},
                         Case{1, 2, 1, 1, 1, 1, 5, 5, 2}}) {
    nn::Conv2D conv(cs.in_c, cs.out_c, cs.kh, cs.kw, cs.sh, cs.sw);
    stats::Rng rng(123);
    conv.init(rng);
    Tensor input({cs.batch, cs.in_c, cs.h, cs.w});
    fill_gaussian(input, rng, 1.0f);
    const Tensor out = conv.forward(input);

    const std::size_t oh = (cs.h - cs.kh) / cs.sh + 1;
    const std::size_t ow = (cs.w - cs.kw) / cs.sw + 1;
    const float* pin = input.data();
    const float* pw = conv.parameters()[0]->data();  // [out_c, in_c, kh, kw]
    const float* pb = conv.parameters()[1]->data();
    for (std::size_t b = 0; b < cs.batch; ++b) {
      for (std::size_t oc = 0; oc < cs.out_c; ++oc) {
        for (std::size_t oy = 0; oy < oh; ++oy) {
          for (std::size_t ox = 0; ox < ow; ++ox) {
            float acc = pb[oc];
            for (std::size_t ic = 0; ic < cs.in_c; ++ic) {
              for (std::size_t ky = 0; ky < cs.kh; ++ky) {
                for (std::size_t kx = 0; kx < cs.kw; ++kx) {
                  const float iv =
                      pin[((b * cs.in_c + ic) * cs.h + oy * cs.sh + ky) *
                              cs.w +
                          ox * cs.sw + kx];
                  const float wv =
                      pw[((oc * cs.in_c + ic) * cs.kh + ky) * cs.kw + kx];
                  acc += wv * iv;
                }
              }
            }
            const float got =
                out.data()[((b * cs.out_c + oc) * oh + oy) * ow + ox];
            EXPECT_EQ(acc, got)
                << "b=" << b << " oc=" << oc << " oy=" << oy << " ox=" << ox;
          }
        }
      }
    }
  }
}

TEST(KernelConsumerTest, OpsRouteThroughActiveBackendDeterministically) {
  // Same inputs, two calls: the dispatched path must be exactly
  // reproducible within a run (the per-backend determinism contract).
  Tensor a({7, 13}), b({13, 5});
  stats::Rng rng(9);
  fill_gaussian(a, rng, 1.0f);
  fill_gaussian(b, rng, 1.0f);
  const Tensor c1 = matmul(a, b);
  const Tensor c2 = matmul(a, b);
  EXPECT_EQ(0, std::memcmp(c1.data(), c2.data(), c1.size() * sizeof(float)));
  EXPECT_EQ(squared_norm(a), squared_norm(a));
}

}  // namespace
}  // namespace fleet::tensor::kernels
