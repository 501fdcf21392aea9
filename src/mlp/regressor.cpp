#include "mlp/regressor.h"

#include <cassert>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/rng.h"
#include "common/stats.h"

namespace pipette::mlp {

using common::Rng;

void Standardizer::fit(const Matrix& x) {
  mean_.assign(static_cast<std::size_t>(x.cols()), 0.0);
  std_.assign(static_cast<std::size_t>(x.cols()), 0.0);
  for (int j = 0; j < x.cols(); ++j) {
    double m = 0.0;
    for (int i = 0; i < x.rows(); ++i) m += x(i, j);
    m /= x.rows();
    double v = 0.0;
    for (int i = 0; i < x.rows(); ++i) v += (x(i, j) - m) * (x(i, j) - m);
    v /= x.rows();
    mean_[static_cast<std::size_t>(j)] = m;
    // A constant column standardizes to zero no matter the divisor, but the
    // divisor still scales *inference-time* values outside the training
    // range: with a 1e-12 floor a feature held fixed during profiling (e.g.
    // a single profiled global batch) turns any other value into a z-score
    // of ~1e12 and saturates the net to 0/inf. Unit scale keeps such columns
    // inert in training and merely mild at inference.
    const double s = std::sqrt(v);
    std_[static_cast<std::size_t>(j)] = s < 1e-9 ? 1.0 : s;
  }
}

Matrix Standardizer::transform(const Matrix& x) const {
  assert(x.cols() == dim());
  Matrix out(x.rows(), x.cols());
  for (int i = 0; i < x.rows(); ++i) {
    for (int j = 0; j < x.cols(); ++j) {
      out(i, j) = (x(i, j) - mean_[static_cast<std::size_t>(j)]) / std_[static_cast<std::size_t>(j)];
    }
  }
  return out;
}

std::vector<double> Standardizer::transform_row(std::span<const double> x) const {
  assert(static_cast<int>(x.size()) == dim());
  std::vector<double> out(x.size());
  for (std::size_t j = 0; j < x.size(); ++j) out[j] = (x[j] - mean_[j]) / std_[j];
  return out;
}

void Standardizer::restore(std::vector<double> mean, std::vector<double> std) {
  if (mean.size() != std.size()) {
    throw std::invalid_argument("Standardizer::restore: mean/std length mismatch");
  }
  for (const double s : std) {
    if (!(s > 0.0)) throw std::invalid_argument("Standardizer::restore: non-positive std");
  }
  mean_ = std::move(mean);
  std_ = std::move(std);
}

Regressor Regressor::restore(const std::vector<int>& layer_sizes,
                             const std::vector<double>& parameters,
                             std::vector<double> feat_mean, std::vector<double> feat_std,
                             double y_mean, double y_std) {
  if (layer_sizes.size() < 2 || layer_sizes.back() != 1) {
    throw std::invalid_argument("Regressor::restore: bad architecture");
  }
  for (const int s : layer_sizes) {
    if (s < 1 || s > 1 << 20) throw std::invalid_argument("Regressor::restore: bad layer size");
  }
  if (static_cast<std::size_t>(layer_sizes.front()) != feat_mean.size()) {
    throw std::invalid_argument("Regressor::restore: standardizer dim != input dim");
  }
  if (!(y_std > 0.0)) throw std::invalid_argument("Regressor::restore: non-positive y_std");
  const std::vector<int> hidden(layer_sizes.begin() + 1, layer_sizes.end() - 1);
  Regressor reg(layer_sizes.front(), hidden, /*seed=*/0);
  if (reg.net_.num_parameters() != parameters.size()) {
    throw std::invalid_argument("Regressor::restore: parameter count mismatch");
  }
  reg.net_.set_parameters(parameters);
  reg.feat_std_.restore(std::move(feat_mean), std::move(feat_std));
  reg.y_mean_ = y_mean;
  reg.y_std_ = y_std;
  reg.fitted_ = true;
  return reg;
}

std::string validate(std::span<const int> hidden, const TrainOptions& opt) {
  for (const int h : hidden) {
    if (h < 1) return "Regressor: hidden width must be >= 1 (got " + std::to_string(h) + ")";
  }
  if (opt.batch_size < 1) return "TrainOptions::batch_size must be >= 1";
  if (opt.iters < 1) return "TrainOptions::iters must be >= 1";
  if (!std::isfinite(opt.lr) || !(opt.lr > 0.0)) {
    return "TrainOptions::lr must be finite and positive";
  }
  if (!std::isfinite(opt.lr_decay) || !(opt.lr_decay > 0.0)) {
    return "TrainOptions::lr_decay must be finite and positive";
  }
  return {};
}

Regressor::Regressor(int input_dim, std::vector<int> hidden, std::uint64_t seed)
    : net_([&] {
        if (input_dim < 1) throw std::invalid_argument("Regressor: input_dim must be >= 1");
        if (std::string reason = validate(hidden, {}); !reason.empty()) {
          throw std::invalid_argument(reason);
        }
        std::vector<int> sizes;
        sizes.push_back(input_dim);
        sizes.insert(sizes.end(), hidden.begin(), hidden.end());
        sizes.push_back(1);
        return sizes;
      }(),
           seed) {}

TrainReport Regressor::fit(const Matrix& x, const std::vector<double>& y, const TrainOptions& opt) {
  if (x.rows() != static_cast<int>(y.size()) || x.rows() == 0) {
    throw std::invalid_argument("Regressor::fit: bad dataset shape");
  }
  if (std::string reason = validate({}, opt); !reason.empty()) {
    throw std::invalid_argument(reason);
  }
  feat_std_.fit(x);
  const Matrix xs = feat_std_.transform(x);

  y_mean_ = common::mean(y);
  double v = 0.0;
  for (double yi : y) v += (yi - y_mean_) * (yi - y_mean_);
  y_std_ = std::max(std::sqrt(v / static_cast<double>(y.size())), 1e-12);

  const int n = x.rows();
  const int bs = std::min(opt.batch_size, n);
  Rng rng(opt.seed);
  AdamOptions adam;
  adam.lr = opt.lr;

  Matrix xb(bs, x.cols());
  Matrix yb(bs, 1);
  double last_loss = 0.0;
  for (int it = 0; it < opt.iters; ++it) {
    for (int i = 0; i < bs; ++i) {
      const int r = rng.uniform_int(0, n - 1);
      for (int j = 0; j < x.cols(); ++j) xb(i, j) = xs(r, j);
      yb(i, 0) = (y[static_cast<std::size_t>(r)] - y_mean_) / y_std_;
    }
    last_loss = net_.loss_and_grad(xb, yb);
    net_.adam_step(adam);
    if ((it + 1) % 100 == 0) adam.lr *= opt.lr_decay;
  }
  net_.release_training_state();
  fitted_ = true;

  TrainReport rep;
  rep.final_mse = last_loss;
  rep.iters_run = opt.iters;
  rep.predictions.resize(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) rep.predictions[static_cast<std::size_t>(i)] = predict(x.row(i));
  rep.train_mape = common::mape_percent(rep.predictions, y);
  return rep;
}

double Regressor::predict(std::span<const double> x) const {
  if (!fitted_) throw std::logic_error("Regressor::predict before fit");
  assert(static_cast<int>(x.size()) == feat_std_.dim());
  // Standardized input, then the forward's two ping-pong rows, in a
  // per-thread buffer that only grows: the memory filter calls this from
  // every pool thread, and in steady state nothing is allocated.
  thread_local std::vector<double> scratch;
  if (const std::size_t need = x.size() + net_.scratch_size(1); scratch.size() < need) {
    scratch.resize(need);
  }
  double* buf = scratch.data();
  const std::vector<double>& mean = feat_std_.mean();
  const std::vector<double>& sd = feat_std_.std();
  for (std::size_t j = 0; j < x.size(); ++j) buf[j] = (x[j] - mean[j]) / sd[j];
  return net_.forward_into(buf, 1, buf + x.size())[0] * y_std_ + y_mean_;
}

}  // namespace pipette::mlp
