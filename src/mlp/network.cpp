#include "mlp/network.h"

#include <algorithm>
#include <cmath>
#include <utility>

#include "common/rng.h"

namespace pipette::mlp {

using common::Rng;

Network::Network(std::vector<int> layer_sizes, std::uint64_t seed) : sizes_(std::move(layer_sizes)) {
  Rng rng(seed);
  layers_.reserve(sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
    const int in = sizes_[l], out = sizes_[l + 1];
    max_width_ = std::max(max_width_, out);
    Layer layer;
    layer.w = Matrix(out, in);
    const double scale = std::sqrt(2.0 / in);  // He init for ReLU
    for (int r = 0; r < out; ++r) {
      for (int c = 0; c < in; ++c) layer.w(r, c) = rng.normal(0.0, scale);
    }
    transpose(layer.w, layer.wt);
    layer.b.assign(static_cast<std::size_t>(out), 0.0);
    layers_.push_back(std::move(layer));
  }
}

Network::TrainState& Network::train_state() {
  if (!train_) {
    train_.emplace();
    for (const Layer& layer : layers_) train_->grads.emplace_back(layer.w.rows(), layer.w.cols());
    train_->acts.resize(layers_.size());
  }
  return *train_;
}

Matrix Network::forward(const Matrix& x) const {
  std::vector<double> scratch(scratch_size(x.rows()));
  const double* y = forward_into(x.data().data(), x.rows(), scratch.data());
  Matrix out(x.rows(), output_dim());
  std::copy(y, y + out.data().size(), out.data().begin());
  return out;
}

const double* Network::forward_into(const double* x, int n, double* scratch) const {
  const KernelSet& kern = kernels();
  const double* in = x;
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    double* out = scratch + (l % 2) * (scratch_size(n) / 2);
    kern.affine(in, layers_[l].wt.data().data(), layers_[l].b.data(), n, sizes_[l], sizes_[l + 1],
                /*relu=*/l + 1 < layers_.size(), out);
    in = out;
  }
  return in;
}

double Network::loss_and_grad(const Matrix& x, const Matrix& y_target) {
  TrainState& ts = train_state();
  const KernelSet& kern = kernels();
  const int n = x.rows();
  const std::size_t num_layers = layers_.size();
  // Forward, keeping post-activation values for the backward pass.
  const double* in = x.data().data();
  for (std::size_t l = 0; l < num_layers; ++l) {
    Matrix& act = ts.acts[l];
    if (act.rows() != n) act = Matrix(n, sizes_[l + 1]);
    kern.affine(in, layers_[l].wt.data().data(), layers_[l].b.data(), n, sizes_[l], sizes_[l + 1],
                /*relu=*/l + 1 < num_layers, act.data().data());
    in = act.data().data();
  }

  // MSE loss and dL/d(output).
  const std::size_t cells = static_cast<std::size_t>(n) * static_cast<std::size_t>(max_width_);
  if (ts.delta.size() < cells) {
    ts.delta.resize(cells);
    ts.next.resize(cells);
  }
  const Matrix& out = ts.acts.back();
  double loss = 0.0;
  for (int i = 0; i < out.rows(); ++i) {
    for (int j = 0; j < out.cols(); ++j) {
      const double diff = out(i, j) - y_target(i, j);
      loss += diff * diff;
      ts.delta[static_cast<std::size_t>(i) * out.cols() + j] = 2.0 * diff / n;
    }
  }
  loss /= n;

  // Backward.
  for (int l = static_cast<int>(num_layers) - 1; l >= 0; --l) {
    const auto ul = static_cast<std::size_t>(l);
    LayerGrad& g = ts.grads[ul];
    const int m = sizes_[ul + 1], k = sizes_[ul];
    const double* a_in = l == 0 ? x.data().data() : ts.acts[ul - 1].data().data();
    ts.index.build(ts.delta.data(), n, m);
    kern.grad_weights(ts.index, a_in, k, g.gw.data().data());
    std::fill(g.gb.begin(), g.gb.end(), 0.0);
    for (int i = 0; i < n; ++i) {
      const double* d = ts.delta.data() + static_cast<std::size_t>(i) * m;
      for (int j = 0; j < m; ++j) g.gb[static_cast<std::size_t>(j)] += d[j];
    }
    if (l > 0) {
      // ReLU gate of the producing layer: stored activations are post-ReLU,
      // so a zero activation means the unit was clamped and passes no grad.
      kern.grad_inputs(ts.index, layers_[ul].w.data().data(), k, /*mask=*/a_in, ts.next.data());
      std::swap(ts.delta, ts.next);
    }
  }
  return loss;
}

void Network::adam_step(const AdamOptions& opt) {
  TrainState& ts = train_state();
  ++ts.adam_t;
  const AdamConstants k{opt.beta1,
                        opt.beta2,
                        1.0 - opt.beta1,
                        1.0 - opt.beta2,
                        opt.lr,
                        1.0 - std::pow(opt.beta1, static_cast<double>(ts.adam_t)),
                        1.0 - std::pow(opt.beta2, static_cast<double>(ts.adam_t)),
                        opt.eps};
  const KernelSet& kern = kernels();
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    Layer& layer = layers_[l];
    LayerGrad& g = ts.grads[l];
    kern.adam_update(layer.w.data().data(), g.gw.data().data(), g.mw.data().data(),
                     g.vw.data().data(), layer.w.data().size(), k);
    kern.adam_update(layer.b.data(), g.gb.data(), g.mb.data(), g.vb.data(), layer.b.size(), k);
    transpose(layer.w, layer.wt);
  }
}

std::size_t Network::num_parameters() const {
  std::size_t n = 0;
  for (const auto& layer : layers_) n += layer.w.data().size() + layer.b.size();
  return n;
}

std::vector<double> Network::parameters() const {
  std::vector<double> flat;
  flat.reserve(num_parameters());
  for (const auto& layer : layers_) {
    flat.insert(flat.end(), layer.w.data().begin(), layer.w.data().end());
    flat.insert(flat.end(), layer.b.begin(), layer.b.end());
  }
  return flat;
}

void Network::set_parameters(const std::vector<double>& flat) {
  std::size_t pos = 0;
  for (auto& layer : layers_) {
    auto w = layer.w.data();
    for (std::size_t i = 0; i < w.size(); ++i) w[i] = flat[pos++];
    for (auto& b : layer.b) b = flat[pos++];
    transpose(layer.w, layer.wt);
  }
}

std::vector<double> Network::gradients() const {
  if (!train_) return std::vector<double>(num_parameters(), 0.0);
  std::vector<double> flat;
  flat.reserve(num_parameters());
  for (const auto& g : train_->grads) {
    flat.insert(flat.end(), g.gw.data().begin(), g.gw.data().end());
    flat.insert(flat.end(), g.gb.begin(), g.gb.end());
  }
  return flat;
}

}  // namespace pipette::mlp
