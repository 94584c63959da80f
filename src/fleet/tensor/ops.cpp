#include "fleet/tensor/ops.hpp"

#include <stdexcept>

#include "fleet/tensor/kernels/kernels.hpp"

namespace fleet::tensor {

namespace {

void require_rank2(const Tensor& t, const char* name) {
  if (t.rank() != 2) {
    throw std::invalid_argument(std::string(name) + ": rank-2 tensor required");
  }
}

void require_fold_apply_sizes(std::size_t g, std::span<float> theta,
                              std::span<float> out) {
  if (g != theta.size() || (!out.empty() && out.size() != theta.size())) {
    throw std::invalid_argument("fold_apply: size mismatch");
  }
}

}  // namespace

Tensor matmul(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul");
  require_rank2(b, "matmul");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) throw std::invalid_argument("matmul: inner dim mismatch");
  Tensor c({m, n});  // zero-initialized; the kernel accumulates into it
  kernels::active().matmul(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor matmul_at_b(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_at_b");
  require_rank2(b, "matmul_at_b");
  const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
  if (b.dim(0) != k) {
    throw std::invalid_argument("matmul_at_b: inner dim mismatch");
  }
  Tensor c({m, n});
  kernels::active().matmul_at_b(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

Tensor matmul_a_bt(const Tensor& a, const Tensor& b) {
  require_rank2(a, "matmul_a_bt");
  require_rank2(b, "matmul_a_bt");
  const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
  if (b.dim(1) != k) {
    throw std::invalid_argument("matmul_a_bt: inner dim mismatch");
  }
  Tensor c({m, n});
  kernels::active().matmul_a_bt(a.data(), b.data(), c.data(), m, k, n);
  return c;
}

void axpy(float alpha, const Tensor& x, Tensor& y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  axpy(alpha, x.flat(), y.flat());
}

void axpy(float alpha, std::span<const float> x, std::span<float> y) {
  if (x.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  kernels::active().axpy(alpha, x.data(), y.data(), x.size());
}

void axpy(float alpha, std::span<const std::int8_t> q, float scale,
          std::span<float> y) {
  if (q.size() != y.size()) throw std::invalid_argument("axpy: size mismatch");
  kernels::active().axpy_q8(alpha, q.data(), scale, y.data(), q.size());
}

void fold_apply(float weight, std::span<const float> g, float alpha,
                std::span<float> theta, std::span<float> out) {
  require_fold_apply_sizes(g.size(), theta, out);
  kernels::active().fold_apply(weight, g.data(), alpha, theta.data(),
                               out.empty() ? nullptr : out.data(), g.size());
}

void fold_apply(float weight, std::span<const std::int8_t> q, float scale,
                float alpha, std::span<float> theta, std::span<float> out) {
  require_fold_apply_sizes(q.size(), theta, out);
  kernels::active().fold_apply_q8(weight, q.data(), scale, alpha,
                                  theta.data(),
                                  out.empty() ? nullptr : out.data(),
                                  q.size());
}

void scale(Tensor& x, float alpha) {
  scale(x.flat(), alpha);
}

void scale(std::span<float> x, float alpha) {
  kernels::active().scale(x.data(), alpha, x.size());
}

Tensor add(const Tensor& a, const Tensor& b) {
  if (a.shape() != b.shape()) {
    throw std::invalid_argument("add: shape mismatch");
  }
  Tensor c(a.shape());
  kernels::active().add(a.data(), b.data(), c.data(), a.size());
  return c;
}

double squared_norm(const Tensor& x) {
  return squared_norm(x.flat());
}

double squared_norm(std::span<const float> x) {
  return kernels::active().squared_norm(x.data(), x.size());
}

void fill_gaussian(Tensor& x, stats::Rng& rng, float stddev) {
  float* p = x.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    p[i] = static_cast<float>(rng.gaussian(0.0, stddev));
  }
}

void fill_uniform(Tensor& x, stats::Rng& rng, float limit) {
  float* p = x.data();
  for (std::size_t i = 0; i < x.size(); ++i) {
    p[i] = static_cast<float>(rng.uniform(-limit, limit));
  }
}

float max_abs_diff(const Tensor& a, const Tensor& b) {
  if (a.size() != b.size()) {
    throw std::invalid_argument("max_abs_diff: size mismatch");
  }
  return kernels::active().max_abs_diff(a.data(), b.data(), a.size());
}

}  // namespace fleet::tensor
