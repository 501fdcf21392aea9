// Regression convenience wrapper around Network: feature/target
// standardization, minibatch Adam training, and MAPE reporting. The memory
// estimator feeds it log-transformed features so that the multiplicative
// structure of memory consumption becomes additive and extrapolates to
// cluster sizes outside the training range (paper: train on <= 32 GPUs,
// validate up to 128).
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "mlp/network.h"

namespace pipette::mlp {

struct TrainOptions {
  int iters = 50000;      ///< paper default
  int batch_size = 32;
  double lr = 1e-3;
  double lr_decay = 0.9997;  ///< multiplicative per-100-iteration decay
  std::uint64_t seed = 5;
};

/// Why a network with hidden widths `hidden` cannot be trained with `opt` —
/// the first degenerate field, named in the message — or an empty string
/// when every width is >= 1, batch_size and iters are >= 1, and lr and
/// lr_decay are finite and positive. Regressor's constructor and fit() throw
/// std::invalid_argument with this message; engine::ConfigService rejects a
/// request with it before admission.
std::string validate(std::span<const int> hidden, const TrainOptions& opt);

struct TrainReport {
  double final_mse = 0.0;     ///< on standardized targets
  double train_mape = 0.0;    ///< percent, on de-standardized predictions
  int iters_run = 0;
  /// The trained regressor's predict() of every row of the training set, in
  /// row order — what train_mape was computed from. Callers that need
  /// in-sample predictions reuse these instead of predicting again.
  std::vector<double> predictions;
};

/// Per-column affine standardizer (x - mean) / std with std floored at 1e-12.
class Standardizer {
 public:
  void fit(const Matrix& x);
  /// Reinstates a previously fitted state (snapshot restore). `mean` and
  /// `std` must be equal-length; entries of `std` must be positive.
  void restore(std::vector<double> mean, std::vector<double> std);
  Matrix transform(const Matrix& x) const;
  std::vector<double> transform_row(std::span<const double> x) const;
  int dim() const { return static_cast<int>(mean_.size()); }
  const std::vector<double>& mean() const { return mean_; }
  const std::vector<double>& std() const { return std_; }

 private:
  std::vector<double> mean_, std_;
};

class Regressor {
 public:
  /// `hidden` lists hidden layer widths, e.g. {200,200,200,200} for the
  /// paper's five-layer net (4 hidden + 1 output). Throws
  /// std::invalid_argument when `input_dim` or a hidden width is below 1
  /// (see validate).
  Regressor(int input_dim, std::vector<int> hidden, std::uint64_t seed);

  /// Trains on rows of `x` against `y`; standardization is fit here. Throws
  /// std::invalid_argument, naming the field, when `opt` would not train
  /// (see validate).
  /// The network's training state (gradients, Adam moments, workspace) is
  /// freed before it returns.
  TrainReport fit(const Matrix& x, const std::vector<double>& y, const TrainOptions& opt);

  /// Predicts the (de-standardized) target for one feature row. Const and
  /// safe to call from many threads at once; allocates nothing in steady
  /// state (the scratch rows are per thread).
  double predict(std::span<const double> x) const;

  // Snapshot surface (persist/codecs.{h,cpp}): everything a trained regressor
  // is, and a factory that reinstates it bit-exactly. restore() validates the
  // parameter count against the architecture and throws std::invalid_argument
  // on any mismatch — a corrupted snapshot must never produce a half-wired
  // network that predicts garbage.
  const Network& network() const { return net_; }
  const Standardizer& standardizer() const { return feat_std_; }
  double y_mean() const { return y_mean_; }
  double y_std() const { return y_std_; }
  static Regressor restore(const std::vector<int>& layer_sizes,
                           const std::vector<double>& parameters,
                           std::vector<double> feat_mean, std::vector<double> feat_std,
                           double y_mean, double y_std);

 private:
  Network net_;
  Standardizer feat_std_;
  double y_mean_ = 0.0, y_std_ = 1.0;
  bool fitted_ = false;
};

}  // namespace pipette::mlp
