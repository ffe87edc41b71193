#include "ml/nn.h"

#include <cmath>

#include "core/simd.h"
#include "core/threadpool.h"
#include "ml/guard.h"

namespace sugar::ml {

namespace simd = core::simd;

Linear::Linear(std::size_t in, std::size_t out, std::mt19937_64& rng)
    : w_(in, out), b_(out, 0.0f), grad_w_(in, out), grad_b_(out, 0.0f) {
  // He initialization, appropriate for the ReLU stacks we build.
  float scale = std::sqrt(2.0f / static_cast<float>(in));
  std::normal_distribution<float> dist(0.0f, scale);
  for (auto& v : w_.data()) v = dist(rng);
  adam_.m_w = Matrix(in, out);
  adam_.v_w = Matrix(in, out);
  adam_.m_b.assign(out, 0.0f);
  adam_.v_b.assign(out, 0.0f);
}

void Linear::forward_into(const Matrix& x, Matrix& y, bool training) {
  if (training) cached_input_ = &x;
  matmul_into(x, w_, y);
  add_row_vector(y, b_);
}

Matrix Linear::forward(const Matrix& x, bool training) {
  Matrix y;
  forward_into(x, y, training);
  return y;
}

void Linear::backward_into(const Matrix& grad_out, Matrix& grad_in) {
  check_internal(cached_input_ != nullptr,
                 "Linear::backward: no cached training forward");
  // dW += x^T g ; db += colsum(g) ; dx = g W^T
  matmul_tn_acc(*cached_input_, grad_out, grad_w_);
  for (std::size_t i = 0; i < grad_out.rows(); ++i)
    simd::vadd_inplace(grad_b_.data(), grad_out.row(i), grad_out.cols());
  matmul_nt_into(grad_out, w_, grad_in);
}

Matrix Linear::backward(const Matrix& grad_out) {
  Matrix grad_in;
  backward_into(grad_out, grad_in);
  return grad_in;
}

void Linear::zero_grad() {
  grad_w_.fill(0.0f);
  std::fill(grad_b_.begin(), grad_b_.end(), 0.0f);
}

namespace {

// Weights per parallel Adam block. The update is elementwise, so the block
// boundaries decide only which thread updates a weight, never its value.
constexpr std::size_t kAdamGrain = 8192;

/// One Adam parameter update over n contiguous floats. Pure elementwise —
/// the vector body and the scalar tail evaluate the exact expression
/// shapes of the original scalar loop, so the result is independent of
/// lane width and backend.
void adam_update(float* w, float* m, float* v, const float* g, std::size_t n,
                 float lr, float beta1, float beta2, float eps, float bc1,
                 float bc2) {
  const float c1 = 1 - beta1, c2 = 1 - beta2;
  const simd::f32x8 vb1 = simd::broadcast(beta1), vc1 = simd::broadcast(c1);
  const simd::f32x8 vb2 = simd::broadcast(beta2), vc2 = simd::broadcast(c2);
  const simd::f32x8 vlr = simd::broadcast(lr), veps = simd::broadcast(eps);
  const simd::f32x8 vbc1 = simd::broadcast(bc1), vbc2 = simd::broadcast(bc2);
  std::size_t i = 0;
  for (; i + simd::kLanes <= n; i += simd::kLanes) {
    simd::f32x8 g8 = simd::loadu(g + i);
    simd::f32x8 m8 = simd::add(simd::mul(vb1, simd::loadu(m + i)),
                               simd::mul(vc1, g8));
    // (1-beta2) * g * g associates left-to-right, matching the tail.
    simd::f32x8 v8 = simd::add(simd::mul(vb2, simd::loadu(v + i)),
                               simd::mul(simd::mul(vc2, g8), g8));
    simd::storeu(m + i, m8);
    simd::storeu(v + i, v8);
    simd::f32x8 step =
        simd::div(simd::mul(vlr, simd::div(m8, vbc1)),
                  simd::add(simd::sqrt(simd::div(v8, vbc2)), veps));
    simd::storeu(w + i, simd::sub(simd::loadu(w + i), step));
  }
  for (; i < n; ++i) {
    float gi = g[i];
    float mi = beta1 * m[i] + c1 * gi;
    float vi = beta2 * v[i] + c2 * gi * gi;
    m[i] = mi;
    v[i] = vi;
    w[i] -= lr * (mi / bc1) / (std::sqrt(vi / bc2) + eps);
  }
}

}  // namespace

void Linear::adam_step(float lr, float beta1, float beta2, float eps) {
  ++adam_.t;
  float bc1 = 1.0f - std::pow(beta1, static_cast<float>(adam_.t));
  float bc2 = 1.0f - std::pow(beta2, static_cast<float>(adam_.t));
  float* w = w_.data().data();
  float* m = adam_.m_w.data().data();
  float* v = adam_.v_w.data().data();
  const float* g = grad_w_.data().data();
  core::global_pool().parallel_for(
      0, w_.size(), kAdamGrain, [&](std::size_t lo, std::size_t hi) {
        adam_update(w + lo, m + lo, v + lo, g + lo, hi - lo, lr, beta1, beta2,
                    eps, bc1, bc2);
      });
  adam_update(b_.data(), adam_.m_b.data(), adam_.v_b.data(), grad_b_.data(),
              b_.size(), lr, beta1, beta2, eps, bc1, bc2);
}

MlpNet::MlpNet(const std::vector<std::size_t>& dims, std::uint64_t seed) {
  std::mt19937_64 rng(seed);
  for (std::size_t i = 0; i + 1 < dims.size(); ++i)
    layers_.emplace_back(dims[i], dims[i + 1], rng);
}

Matrix& MlpNet::forward(const Matrix& x, bool training) {
  check_internal(!layers_.empty(), "MlpNet::forward: no layers");
  const std::size_t L = layers_.size();
  const Matrix* cur = &x;  // layer 0 consumes the caller's batch directly
  Matrix* out = nullptr;
  for (std::size_t i = 0; i < L; ++i) {
    Matrix& y = arena_.acquire(i, cur->rows(), layers_[i].out_dim());
    layers_[i].forward_into(*cur, y, training);
    if (i + 1 < L) {
      if (training) {
        relu_inplace_into(y, arena_.acquire(L + i, y.rows(), y.cols()));
      } else {
        relu_inplace_nomask(y);
      }
    }
    cur = &y;
    out = &y;
  }
  return *out;
}

Matrix& MlpNet::backward(const Matrix& grad_out) {
  check_internal(!layers_.empty(), "MlpNet::backward: no layers");
  const std::size_t L = layers_.size();
  const Matrix* g = &grad_out;
  Matrix* out = nullptr;
  for (std::size_t li = L; li-- > 0;) {
    Matrix& gi =
        arena_.acquire(2 * L - 1 + li, g->rows(), layers_[li].in_dim());
    layers_[li].backward_into(*g, gi);
    if (li > 0) hadamard_inplace(gi, arena_.acquire(L + li - 1, gi.rows(), gi.cols()));
    g = &gi;
    out = &gi;
  }
  return *out;
}

void MlpNet::zero_grad() {
  for (auto& l : layers_) l.zero_grad();
}

void MlpNet::adam_step(float lr) {
  for (auto& l : layers_) l.adam_step(lr);
}

std::size_t MlpNet::param_count() const {
  std::size_t n = 0;
  for (const auto& l : layers_) n += l.param_count();
  return n;
}

float softmax_cross_entropy(Matrix& logits, const std::vector<int>& labels,
                            Matrix& grad) {
  softmax_rows(logits);
  std::size_t n = logits.rows();
  grad.copy_from(logits);
  float loss = 0;
  float inv_n = 1.0f / static_cast<float>(n);
  for (std::size_t i = 0; i < n; ++i) {
    int y = labels[i];
    float p = std::max(logits(i, static_cast<std::size_t>(y)), 1e-12f);
    loss -= std::log(p);
    grad(i, static_cast<std::size_t>(y)) -= 1.0f;
  }
  simd::vscale_inplace(grad.data().data(), inv_n, grad.size());
  return loss * inv_n;
}

float mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad) {
  check_internal(pred.rows() == target.rows() && pred.cols() == target.cols(),
                 "mse_loss: shape mismatch");
  grad.reshape(pred.rows(), pred.cols());
  const float* p = pred.data().data();
  const float* t = target.data().data();
  float* gr = grad.data().data();
  const std::size_t sz = pred.size();
  const float inv = 1.0f / static_cast<float>(sz);
  // Loss sum uses the shared strided-8 reduction spec; the grad is pure
  // elementwise (2*d then *inv, matching the tail's association).
  const float loss = simd::squared_distance(p, t, sz);
  const simd::f32x8 v2 = simd::broadcast(2.0f), vinv = simd::broadcast(inv);
  std::size_t i = 0;
  for (; i + simd::kLanes <= sz; i += simd::kLanes) {
    simd::f32x8 d = simd::sub(simd::loadu(p + i), simd::loadu(t + i));
    simd::storeu(gr + i, simd::mul(simd::mul(v2, d), vinv));
  }
  for (; i < sz; ++i) {
    float d = p[i] - t[i];
    gr[i] = 2.0f * d * inv;
  }
  return loss * inv;
}

}  // namespace sugar::ml
