// Reusable neural-network core: linear layers with explicit forward and
// backward passes and an Adam optimizer. Both the shallow MLP baseline and
// every representation-learning encoder in src/replearn compose these
// layers, which is exactly what makes frozen-vs-unfrozen training a single
// switch: the classification head's input gradient either stops at the
// embedding (frozen) or keeps flowing into the encoder stack (unfrozen).
//
// Memory discipline: a MlpNet owns a MatrixArena of scratch slots for its
// activations, ReLU masks and input gradients. forward()/backward() return
// references into that arena and reuse the same buffers every batch, so a
// training epoch performs zero heap allocations once each shape has been
// seen (asserted in tests via MatrixArena::heap_allocations()). Linear
// caches its forward input by pointer, not by copy; the pointed-to matrix
// must stay alive until the matching backward() — MlpNet guarantees this
// for its own layers (the inputs are arena slots or the caller's batch).
//
// Every network fit (the MLP baseline, the downstream head, MAE and
// Pcap-Encoder pre-training) runs its epochs through train_epoch(), so
// shuffling, batch slicing, cancellation and the divergence check exist
// once.
#pragma once

#include <algorithm>
#include <cstdint>
#include <deque>
#include <random>
#include <span>
#include <vector>

#include "ml/guard.h"
#include "ml/matrix.h"

namespace sugar::ml {

/// A pool of reusable Matrix slots addressed by index. acquire() reshapes
/// the slot to the requested shape without ever shrinking its capacity, so
/// steady-state training loops hit warm buffers only. heap_allocations()
/// counts every capacity growth (including first use) — the zero-churn
/// property is `heap_allocations()` staying flat across epochs.
class MatrixArena {
 public:
  Matrix& acquire(std::size_t slot, std::size_t rows, std::size_t cols) {
    while (slots_.size() <= slot) slots_.emplace_back();
    Matrix& m = slots_[slot];
    if (rows * cols > m.capacity()) ++heap_allocations_;
    m.reshape(rows, cols);
    return m;
  }

  [[nodiscard]] std::size_t heap_allocations() const {
    return heap_allocations_;
  }
  [[nodiscard]] std::size_t slot_count() const { return slots_.size(); }

 private:
  // deque, not vector: growing the pool must not move existing slots —
  // forward/backward hold references across acquire() calls.
  std::deque<Matrix> slots_;
  std::size_t heap_allocations_ = 0;
};

struct AdamState {
  Matrix m_w, v_w;
  std::vector<float> m_b, v_b;
  int t = 0;
};

/// Fully connected layer y = xW + b with a pointer-cached activation for
/// backprop (no input copy per step).
class Linear {
 public:
  Linear() = default;
  Linear(std::size_t in, std::size_t out, std::mt19937_64& rng);

  /// Forward over a batch [n×in] into `y` [n×out] (reshaped, reused).
  /// When `training`, caches a pointer to `x` for backward_into(); `x`
  /// must outlive that call. A copied Linear carries the original's stale
  /// pointer until its own next forward refreshes it.
  void forward_into(const Matrix& x, Matrix& y, bool training);

  /// Backward: grad wrt output [n×out] -> grad wrt input written into
  /// `grad_in` [n×in]; accumulates weight/bias gradients.
  void backward_into(const Matrix& grad_out, Matrix& grad_in);

  /// Allocating conveniences over the `_into` pair (tests, one-shot use).
  Matrix forward(const Matrix& x, bool training);
  Matrix backward(const Matrix& grad_out);

  void zero_grad();
  void adam_step(float lr, float beta1 = 0.9f, float beta2 = 0.999f,
                 float eps = 1e-8f);

  [[nodiscard]] std::size_t in_dim() const { return w_.rows(); }
  [[nodiscard]] std::size_t out_dim() const { return w_.cols(); }
  [[nodiscard]] std::size_t param_count() const { return w_.size() + b_.size(); }

  Matrix& weights() { return w_; }
  std::vector<float>& bias() { return b_; }

 private:
  Matrix w_;  // [in×out]
  std::vector<float> b_;
  Matrix grad_w_;
  std::vector<float> grad_b_;
  const Matrix* cached_input_ = nullptr;
  AdamState adam_;
};

/// A stack of Linear layers with ReLU between them (none after the last).
class MlpNet {
 public:
  MlpNet() = default;
  /// dims = {in, h1, ..., out}.
  MlpNet(const std::vector<std::size_t>& dims, std::uint64_t seed);

  /// Returns the last-layer activation, an arena slot owned by this net —
  /// valid until the next forward() on the same net; copy to keep. `x`
  /// must stay alive until backward() when `training`.
  Matrix& forward(const Matrix& x, bool training);
  /// Returns grad wrt the network input (enables stacking nets); also an
  /// arena slot, valid until the next backward() on the same net.
  Matrix& backward(const Matrix& grad_out);
  void zero_grad();
  void adam_step(float lr);

  [[nodiscard]] std::size_t in_dim() const { return layers_.front().in_dim(); }
  [[nodiscard]] std::size_t out_dim() const { return layers_.back().out_dim(); }
  [[nodiscard]] std::size_t param_count() const;
  [[nodiscard]] std::size_t num_layers() const { return layers_.size(); }
  [[nodiscard]] const MatrixArena& arena() const { return arena_; }

 private:
  // Arena slot map for L layers: activation of layer i at slot i
  // (i = 0..L-1), ReLU mask i at L+i (i = 0..L-2), grad wrt the input of
  // layer li at 2L-1+li (li = 0..L-1). 3L-1 slots total.
  std::vector<Linear> layers_;
  MatrixArena arena_;
};

/// Softmax cross-entropy: fills `grad` (dL/dlogits, already divided by n)
/// and returns mean loss. `logits` is consumed (softmaxed in place);
/// `grad` is reshaped in place, reusing its capacity across batches.
float softmax_cross_entropy(Matrix& logits, const std::vector<int>& labels,
                            Matrix& grad);

/// Mean squared error: fills grad = 2(pred-target)/n and returns mean
/// loss. `grad` is reshaped in place, reusing its capacity across batches.
float mse_loss(const Matrix& pred, const Matrix& target, Matrix& grad);

/// One minibatch epoch: shuffles `order` with `rng`, then hands each run of
/// at most `batch_size` indices, in order, to `step`, which trains on that
/// batch and returns its loss (it may draw from `rng` after the shuffle).
/// `cancel` is polled before every batch (CancelledError). Returns the mean
/// batch loss, `float` sum / `float(max(batches, 1))`, after
/// check_loss_finite (DivergenceError names `where` and `epoch`).
template <typename Step>
float train_epoch(std::vector<std::size_t>& order, std::size_t batch_size,
                  std::mt19937_64& rng, const CancelToken* cancel,
                  const char* where, int epoch, Step&& step) {
  check_internal(batch_size > 0, "train_epoch: batch_size must be positive");
  std::shuffle(order.begin(), order.end(), rng);
  float loss = 0;
  std::size_t batches = 0;
  for (std::size_t start = 0; start < order.size(); start += batch_size) {
    throw_if_cancelled(cancel, where);
    const std::size_t n = std::min(batch_size, order.size() - start);
    loss += step(std::span<const std::size_t>(order.data() + start, n));
    ++batches;
  }
  loss /= static_cast<float>(std::max<std::size_t>(batches, 1));
  check_loss_finite(loss, where, epoch);
  return loss;
}

}  // namespace sugar::ml
