// Fully-connected ReLU network with an explicit loss-and-gradient interface
// (so tests can finite-difference check the backward pass) and an Adam
// optimizer. This is the function approximator behind the paper's memory
// estimator: "five layers with 200 hidden sizes, trained for 50,000
// iterations" (Eq. 7, §VI).
//
// A network holds only its weights, biases and a transposed copy of each
// weight matrix (the forward kernel's layout). Gradients, Adam moments and
// the step workspace are training state: allocated by the first
// loss_and_grad()/adam_step() and dropped by release_training_state(), so a
// trained or restored estimator keeps none of them.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "mlp/matrix.h"

namespace pipette::mlp {

struct AdamOptions {
  double lr = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double eps = 1e-8;
};

class Network {
 public:
  /// `layer_sizes` is {input, hidden..., output}; hidden layers use ReLU, the
  /// output layer is linear. Weights are He-initialized from `seed`.
  Network(std::vector<int> layer_sizes, std::uint64_t seed);

  int input_dim() const { return sizes_.front(); }
  int output_dim() const { return sizes_.back(); }
  /// Full {input, hidden..., output} architecture — what a serialized network
  /// must be reconstructed with before set_parameters() restores the weights.
  const std::vector<int>& layer_sizes() const { return sizes_; }
  /// Total parameter count (weights + biases), the exact length parameters()
  /// returns and set_parameters() expects.
  std::size_t num_parameters() const;

  /// Batched forward: X is (n x input_dim), returns (n x output_dim).
  Matrix forward(const Matrix& x) const;

  /// Doubles of caller scratch forward_into() needs for `n` rows.
  std::size_t scratch_size(int n) const {
    return 2 * static_cast<std::size_t>(n) * static_cast<std::size_t>(max_width_);
  }
  /// forward() without allocating: `x` holds n rows of input_dim() values,
  /// `scratch` scratch_size(n) doubles (not overlapping `x`). Returns the
  /// (n x output_dim) outputs, which live inside `scratch`. Const and safe to
  /// call concurrently.
  const double* forward_into(const double* x, int n, double* scratch) const;

  /// Mean-squared-error loss over the batch and its gradient w.r.t. all
  /// parameters (stored internally for the next `adam_step`). Returns loss.
  double loss_and_grad(const Matrix& x, const Matrix& y_target);

  /// Applies one Adam update using the gradients from the last
  /// `loss_and_grad` call.
  void adam_step(const AdamOptions& opt);

  /// Flat read/write access to all parameters (for the gradient-check test).
  std::vector<double> parameters() const;
  void set_parameters(const std::vector<double>& flat);
  /// Flat view of the last computed gradients, same order as parameters();
  /// all zeros while no training state is held.
  std::vector<double> gradients() const;

  /// Frees the gradients, Adam moments (and step count) and the step
  /// workspace. A later loss_and_grad() starts a fresh optimizer.
  void release_training_state() { train_.reset(); }
  bool holds_training_state() const { return train_.has_value(); }

 private:
  struct Layer {
    Matrix w;   // (out x in)
    Matrix wt;  // (in x out), refreshed whenever w changes
    std::vector<double> b;
  };
  struct LayerGrad {
    LayerGrad(int out, int in)
        : gw(out, in), gb(static_cast<std::size_t>(out)), mw(out, in), vw(out, in),
          mb(static_cast<std::size_t>(out)), vb(static_cast<std::size_t>(out)) {}
    Matrix gw;       // gradient accumulators
    std::vector<double> gb;
    Matrix mw, vw;   // Adam moments
    std::vector<double> mb, vb;
  };
  struct TrainState {
    std::vector<LayerGrad> grads;
    std::int64_t adam_t = 0;
    // Step workspace, sized for the last batch.
    std::vector<Matrix> acts;         ///< post-activation output of each layer
    std::vector<double> delta, next;  ///< dL/d(layer output), ping-ponged
    DeltaIndex index;
  };

  TrainState& train_state();

  std::vector<int> sizes_;
  int max_width_ = 0;  ///< widest layer output
  std::vector<Layer> layers_;
  std::optional<TrainState> train_;
};

}  // namespace pipette::mlp
