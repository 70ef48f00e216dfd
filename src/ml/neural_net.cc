#include "ml/neural_net.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "kernels/backend.h"
#include "util/check.h"
#include "util/rng.h"

namespace alem {
namespace {

constexpr double kBnEpsilon = 1e-5;
constexpr double kBnMomentum = 0.9;  // Running-statistics smoothing.

double Sigmoid(double x) {
  if (x >= 0) {
    const double e = std::exp(-x);
    return 1.0 / (1.0 + e);
  }
  const double e = std::exp(x);
  return e / (1.0 + e);
}

}  // namespace

NeuralNetConfig DeepMatcherProxyConfig(uint64_t seed) {
  NeuralNetConfig config;
  config.hidden_sizes = {64, 64};
  config.epochs = 60;
  config.seed = seed;
  return config;
}

void NeuralNetwork::InitializeLayers(size_t input_dims) {
  Rng rng(config_.seed);
  layers_.clear();
  int previous = static_cast<int>(input_dims);
  for (const int size : config_.hidden_sizes) {
    ALEM_CHECK_GT(size, 0);
    Layer layer;
    layer.in = previous;
    layer.out = size;
    const double he_scale = std::sqrt(2.0 / static_cast<double>(previous));
    layer.weights.resize(static_cast<size_t>(size) * previous);
    for (double& w : layer.weights) w = rng.NextGaussian() * he_scale;
    layer.bias.assign(static_cast<size_t>(size), 0.0);
    layer.gamma.assign(static_cast<size_t>(size), 1.0);
    layer.beta.assign(static_cast<size_t>(size), 0.0);
    layer.running_mean.assign(static_cast<size_t>(size), 0.0);
    layer.running_var.assign(static_cast<size_t>(size), 1.0);
    layer.v_weights.assign(layer.weights.size(), 0.0);
    layer.v_bias.assign(layer.bias.size(), 0.0);
    layer.v_gamma.assign(layer.gamma.size(), 0.0);
    layer.v_beta.assign(layer.beta.size(), 0.0);
    layers_.push_back(std::move(layer));
    previous = size;
  }
  const double out_scale = std::sqrt(1.0 / static_cast<double>(previous));
  out_weights_.resize(static_cast<size_t>(previous));
  for (double& w : out_weights_) w = rng.NextGaussian() * out_scale;
  out_bias_ = 0.0;
  v_out_weights_.assign(out_weights_.size(), 0.0);
  v_out_bias_ = 0.0;
}

void NeuralNetwork::Fit(const FeatureMatrix& features,
                        const std::vector<int>& labels) {
  InitializeLayers(features.dims());
  Train(features, labels, config_.epochs, config_.learning_rate,
        config_.seed ^ 0x5bd1e995u);
}

bool NeuralNetwork::FitWarm(const FeatureMatrix& features,
                            const std::vector<int>& labels) {
  if (!trained() ||
      static_cast<size_t>(layers_.front().in) != features.dims()) {
    return false;
  }
  // Zero the momentum velocities: the refit then depends only on the weights
  // and batch-norm statistics — exactly what SaveModel/RestoreModel carry.
  for (Layer& layer : layers_) {
    std::fill(layer.v_weights.begin(), layer.v_weights.end(), 0.0);
    std::fill(layer.v_bias.begin(), layer.v_bias.end(), 0.0);
    std::fill(layer.v_gamma.begin(), layer.v_gamma.end(), 0.0);
    std::fill(layer.v_beta.begin(), layer.v_beta.end(), 0.0);
  }
  std::fill(v_out_weights_.begin(), v_out_weights_.end(), 0.0);
  v_out_bias_ = 0.0;
  // Resume at the step size a full cold schedule would have reached, and
  // draw a fresh shuffle/dropout stream per labeled-set size (pure function
  // of (seed, n); same mixing as LinearSvm::FitWarm).
  const double warm_rate =
      config_.learning_rate *
      std::pow(config_.learning_rate_decay, config_.epochs);
  const uint64_t warm_seed =
      (config_.seed ^ 0x5bd1e995u) ^
      (0x9e3779b97f4a7c15ULL * (static_cast<uint64_t>(features.rows()) + 1));
  Train(features, labels, config_.warm_epochs, warm_rate, warm_seed);
  return true;
}

void NeuralNetwork::Train(const FeatureMatrix& features,
                          const std::vector<int>& labels, int epochs,
                          double initial_learning_rate, uint64_t rng_seed) {
  ALEM_CHECK_EQ(features.rows(), labels.size());
  ALEM_CHECK_GT(features.rows(), 0u);
  const size_t n = features.rows();

  // Class-skew compensation: positive examples get a larger gradient weight.
  size_t num_positives = 0;
  for (const int label : labels) num_positives += label == 1 ? 1 : 0;
  double positive_weight = 1.0;
  if (num_positives > 0 && num_positives < n) {
    positive_weight =
        std::min(static_cast<double>(n - num_positives) /
                     static_cast<double>(num_positives),
                 config_.positive_weight_cap);
  }

  Rng rng(rng_seed);
  std::vector<size_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  const size_t batch_size =
      std::max<size_t>(1, static_cast<size_t>(config_.batch_size));
  const size_t num_layers = layers_.size();
  const size_t last = static_cast<size_t>(layers_.back().out);
  const double inv_keep = 1.0 / std::max(1e-9, 1.0 - config_.dropout);
  const kernels::KernelOps& ops = kernels::Active();

  // Per-layer forward/backward scratch, sized once for the largest
  // mini-batch: the SGD loop below allocates nothing.
  struct LayerScratch {
    std::vector<double> pre;   // Affine output z.
    std::vector<double> rhat;  // Normalized ReLU(z) (batch norm only).
    std::vector<double> post;  // Layer output (after BN + dropout).
    std::vector<const double*> post_rows;  // Row pointers into post.
    std::vector<double> inv_std;           // Batch 1 / sqrt(var + eps).
    std::vector<char> drop_mask;
    std::vector<double> d_post;  // Gradient wrt layer output.
    std::vector<double> d_pre;   // Gradient wrt z.
    std::vector<double> d_weights, d_bias, d_gamma, d_beta;
  };
  std::vector<LayerScratch> scratch(num_layers);
  size_t max_in = 0;
  for (size_t l = 0; l < num_layers; ++l) {
    const size_t out = static_cast<size_t>(layers_[l].out);
    const size_t in = static_cast<size_t>(layers_[l].in);
    max_in = std::max(max_in, in);
    LayerScratch& s = scratch[l];
    s.pre.resize(batch_size * out);
    s.rhat.resize(batch_size * out);
    s.post.resize(batch_size * out);
    s.post_rows.resize(batch_size);
    for (size_t i = 0; i < batch_size; ++i) {
      s.post_rows[i] = s.post.data() + i * out;
    }
    s.inv_std.resize(out);
    s.drop_mask.resize(batch_size * out);
    s.d_post.resize(batch_size * out);
    s.d_pre.resize(batch_size * out);
    s.d_weights.resize(out * in);
    s.d_bias.resize(out);
    s.d_gamma.resize(out);
    s.d_beta.resize(out);
  }
  max_in = std::max(max_in, last);
  std::vector<double> xt(max_in * kernels::kNnRowBlock);
  std::vector<const float*> batch_rows(batch_size);
  std::vector<double> batch_weight(batch_size);
  std::vector<double> batch_label(batch_size);
  std::vector<double> margin(batch_size);
  std::vector<double> d_margin(batch_size);
  std::vector<double> d_out_weights(last);

  double learning_rate = initial_learning_rate;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < n; start += batch_size) {
      const size_t b = std::min(batch_size, n - start);
      const bool batch_norm = config_.use_batch_norm && b > 1;

      // ---- Forward pass ----
      for (size_t i = 0; i < b; ++i) {
        const size_t row = order[start + i];
        batch_rows[i] = features.Row(row);
        batch_label[i] = labels[row] == 1 ? 1.0 : 0.0;
        batch_weight[i] = labels[row] == 1 ? positive_weight : 1.0;
      }

      for (size_t l = 0; l < num_layers; ++l) {
        Layer& layer = layers_[l];
        LayerScratch& s = scratch[l];
        const size_t out = static_cast<size_t>(layer.out);
        const size_t in = static_cast<size_t>(layer.in);
        // Affine, one kernel call per block of rows: every z starts at the
        // bias and adds w[j] * x[j] in ascending j.
        for (size_t r0 = 0; r0 < b; r0 += kernels::kNnRowBlock) {
          const size_t rows = std::min(kernels::kNnRowBlock, b - r0);
          double* z = s.pre.data() + r0 * out;
          if (l == 0) {
            ops.nn_forward_f32(layer.weights.data(), layer.bias.data(), in,
                               out, batch_rows.data() + r0, rows, xt.data(),
                               z);
          } else {
            ops.nn_forward_f64(layer.weights.data(), layer.bias.data(), in,
                               out, scratch[l - 1].post_rows.data() + r0,
                               rows, xt.data(), z);
          }
        }
        // ReLU.
        for (size_t idx = 0; idx < b * out; ++idx) {
          s.post[idx] = std::max(0.0, s.pre[idx]);
        }
        // Batch norm (training statistics), in place over the ReLU output.
        if (batch_norm) {
          for (size_t o = 0; o < out; ++o) {
            double mean = 0.0;
            for (size_t i = 0; i < b; ++i) mean += s.post[i * out + o];
            mean /= static_cast<double>(b);
            double var = 0.0;
            for (size_t i = 0; i < b; ++i) {
              const double d = s.post[i * out + o] - mean;
              var += d * d;
            }
            var /= static_cast<double>(b);
            layer.running_mean[o] = kBnMomentum * layer.running_mean[o] +
                                    (1.0 - kBnMomentum) * mean;
            layer.running_var[o] = kBnMomentum * layer.running_var[o] +
                                   (1.0 - kBnMomentum) * var;
            const double inv_std = 1.0 / std::sqrt(var + kBnEpsilon);
            s.inv_std[o] = inv_std;
            for (size_t i = 0; i < b; ++i) {
              const double rhat = (s.post[i * out + o] - mean) * inv_std;
              s.rhat[i * out + o] = rhat;
              s.post[i * out + o] = layer.gamma[o] * rhat + layer.beta[o];
            }
          }
        }
        // Dropout (inverted scaling).
        if (config_.dropout > 0.0) {
          for (size_t idx = 0; idx < b * out; ++idx) {
            const bool drop = rng.NextBernoulli(config_.dropout);
            const double kept = s.post[idx] * inv_keep;
            s.drop_mask[idx] = drop ? 0 : 1;
            s.post[idx] = drop ? 0.0 : kept;
          }
        }
      }

      // Output layer: a one-unit affine through the same kernel.
      LayerScratch& top = scratch.back();
      for (size_t r0 = 0; r0 < b; r0 += kernels::kNnRowBlock) {
        ops.nn_forward_f64(out_weights_.data(), &out_bias_, last, 1,
                           top.post_rows.data() + r0,
                           std::min(kernels::kNnRowBlock, b - r0), xt.data(),
                           margin.data() + r0);
      }
      for (size_t i = 0; i < b; ++i) {
        const double p = Sigmoid(margin[i]);
        // d/dz of weighted L2 loss (p - y)^2 averaged over the batch.
        d_margin[i] = batch_weight[i] * 2.0 * (p - batch_label[i]) * p *
                      (1.0 - p) / static_cast<double>(b);
      }

      // ---- Backward pass ----
      // Output affine. Stays a plain loop: unlike the hidden layers it adds
      // every row's terms, zero gradients included (nn_backward_* skips
      // them, which differs once an activation is not finite).
      std::fill(d_out_weights.begin(), d_out_weights.end(), 0.0);
      double d_out_bias = 0.0;
      std::fill(top.d_post.begin(), top.d_post.begin() + b * last, 0.0);
      for (size_t i = 0; i < b; ++i) {
        const double g = d_margin[i];
        const double* a = top.post_rows[i];
        for (size_t j = 0; j < last; ++j) {
          d_out_weights[j] += g * a[j];
          top.d_post[i * last + j] += g * out_weights_[j];
        }
        d_out_bias += g;
      }

      for (size_t l = num_layers; l-- > 0;) {
        Layer& layer = layers_[l];
        LayerScratch& s = scratch[l];
        const size_t out = static_cast<size_t>(layer.out);
        const size_t in = static_cast<size_t>(layer.in);

        // Dropout backward.
        if (config_.dropout > 0.0) {
          for (size_t idx = 0; idx < b * out; ++idx) {
            s.d_post[idx] =
                s.drop_mask[idx] != 0 ? s.d_post[idx] * inv_keep : 0.0;
          }
        }

        // Batch-norm and ReLU backward.
        if (batch_norm) {
          const double inv_b = 1.0 / static_cast<double>(b);
          for (size_t o = 0; o < out; ++o) {
            const double inv_std = s.inv_std[o];
            double sum_dy = 0.0, sum_dy_rhat = 0.0;
            for (size_t i = 0; i < b; ++i) {
              const double dy = s.d_post[i * out + o];
              sum_dy += dy;
              sum_dy_rhat += dy * s.rhat[i * out + o];
            }
            s.d_gamma[o] = sum_dy_rhat;
            s.d_beta[o] = sum_dy;
            for (size_t i = 0; i < b; ++i) {
              const size_t idx = i * out + o;
              const double dy = s.d_post[idx];
              const double d_relu =
                  layer.gamma[o] * inv_std *
                  (dy - sum_dy * inv_b - s.rhat[idx] * sum_dy_rhat * inv_b);
              s.d_pre[idx] = s.pre[idx] > 0.0 ? d_relu : 0.0;
            }
          }
        } else {
          for (size_t idx = 0; idx < b * out; ++idx) {
            s.d_pre[idx] = s.pre[idx] > 0.0 ? s.d_post[idx] : 0.0;
          }
        }

        // Affine backward: weight gradients, and the previous layer's
        // output gradient (written into its d_post).
        if (l == 0) {
          ops.nn_backward_f32(layer.weights.data(), s.d_pre.data(), in, out,
                              batch_rows.data(), b, s.d_weights.data(),
                              nullptr);
        } else {
          ops.nn_backward_f64(layer.weights.data(), s.d_pre.data(), in, out,
                              scratch[l - 1].post_rows.data(), b,
                              s.d_weights.data(), scratch[l - 1].d_post.data());
        }
        for (size_t o = 0; o < out; ++o) {
          double d_bias = 0.0;
          for (size_t i = 0; i < b; ++i) {
            const double g = s.d_pre[i * out + o];
            if (g != 0.0) d_bias += g;
          }
          s.d_bias[o] = d_bias;
        }

        // SGD with momentum.
        const double momentum = config_.momentum;
        const double rate = learning_rate;
        auto update = [momentum, rate](std::vector<double>& param,
                                       std::vector<double>& velocity,
                                       const std::vector<double>& gradient) {
          double* p = param.data();
          double* v = velocity.data();
          const double* g = gradient.data();
          for (size_t idx = 0; idx < param.size(); ++idx) {
            v[idx] = momentum * v[idx] - rate * g[idx];
            p[idx] += v[idx];
          }
        };
        update(layer.weights, layer.v_weights, s.d_weights);
        update(layer.bias, layer.v_bias, s.d_bias);
        if (batch_norm) {
          update(layer.gamma, layer.v_gamma, s.d_gamma);
          update(layer.beta, layer.v_beta, s.d_beta);
        }
      }

      // Output-layer update.
      for (size_t j = 0; j < last; ++j) {
        v_out_weights_[j] = config_.momentum * v_out_weights_[j] -
                            learning_rate * d_out_weights[j];
        out_weights_[j] += v_out_weights_[j];
      }
      v_out_bias_ =
          config_.momentum * v_out_bias_ - learning_rate * d_out_bias;
      out_bias_ += v_out_bias_;
    }
    learning_rate *= config_.learning_rate_decay;
  }
}

double NeuralNetwork::Margin(const float* x) const {
  ALEM_CHECK(trained());
  std::vector<double> activation;
  std::vector<double> next;
  for (size_t l = 0; l < layers_.size(); ++l) {
    const Layer& layer = layers_[l];
    const size_t out = static_cast<size_t>(layer.out);
    const size_t in = static_cast<size_t>(layer.in);
    next.assign(out, 0.0);
    for (size_t o = 0; o < out; ++o) {
      const double* w = layer.weights.data() + o * in;
      double z = layer.bias[o];
      if (l == 0) {
        for (size_t j = 0; j < in; ++j) z += w[j] * x[j];
      } else {
        for (size_t j = 0; j < in; ++j) z += w[j] * activation[j];
      }
      z = std::max(0.0, z);  // ReLU.
      if (config_.use_batch_norm) {
        z = layer.gamma[o] * (z - layer.running_mean[o]) /
                std::sqrt(layer.running_var[o] + kBnEpsilon) +
            layer.beta[o];
      }
      next[o] = z;  // No dropout at inference.
    }
    activation.swap(next);
  }
  double z = out_bias_;
  for (size_t j = 0; j < activation.size(); ++j) {
    z += out_weights_[j] * activation[j];
  }
  return z;
}

std::vector<double> NeuralNetwork::InputImportances() const {
  ALEM_CHECK(trained());
  // Propagate absolute output weight backwards through the layers.
  std::vector<double> importance(out_weights_.size());
  for (size_t j = 0; j < out_weights_.size(); ++j) {
    importance[j] = std::abs(out_weights_[j]);
  }
  for (size_t l = layers_.size(); l-- > 0;) {
    const Layer& layer = layers_[l];
    const size_t out = static_cast<size_t>(layer.out);
    const size_t in = static_cast<size_t>(layer.in);
    std::vector<double> previous(in, 0.0);
    for (size_t o = 0; o < out; ++o) {
      // Batch norm rescales each channel by gamma / sqrt(var); without that
      // factor, channels fed by low-variance (uninformative) inputs would
      // look spuriously important.
      const double bn_scale =
          config_.use_batch_norm
              ? std::abs(layer.gamma[o]) /
                    std::sqrt(layer.running_var[o] + kBnEpsilon)
              : 1.0;
      const double scale = importance[o] * bn_scale;
      if (scale == 0.0) continue;
      const double* w = layer.weights.data() + o * in;
      for (size_t j = 0; j < in; ++j) {
        previous[j] += scale * std::abs(w[j]);
      }
    }
    importance.swap(previous);
  }
  return importance;
}

std::vector<size_t> NeuralNetwork::TopImportanceDimensions(size_t k) const {
  const std::vector<double> importance = InputImportances();
  std::vector<size_t> order(importance.size());
  std::iota(order.begin(), order.end(), 0u);
  k = std::min(k, order.size());
  std::partial_sort(order.begin(), order.begin() + static_cast<long>(k),
                    order.end(), [&](size_t a, size_t b) {
                      return importance[a] > importance[b];
                    });
  order.resize(k);
  return order;
}

void NeuralNetwork::MarginBatch(const FeatureMatrix& features,
                                std::span<const size_t> rows,
                                double* out) const {
  ALEM_CHECK(trained());
  constexpr size_t kBlock = kernels::kNnRowBlock;
  size_t max_width = 0;
  for (const Layer& layer : layers_) {
    max_width = std::max(max_width, static_cast<size_t>(layer.out));
  }
  const size_t max_in =
      std::max(max_width, static_cast<size_t>(layers_.front().in));
  // Per-call scratch, allocated once and reused for every block. The
  // batch-norm divisors are hoisted per layer so each sqrt is taken once
  // per call instead of once per (unit, example) as in scalar Margin.
  std::vector<double> activation(kBlock * max_width);
  std::vector<double> next(kBlock * max_width);
  std::vector<double> xt(kBlock * max_in);
  const float* x[kBlock];
  const double* a[kBlock];
  std::vector<std::vector<double>> bn_sqrts(layers_.size());
  if (config_.use_batch_norm) {
    for (size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      bn_sqrts[l].resize(static_cast<size_t>(layer.out));
      for (size_t o = 0; o < bn_sqrts[l].size(); ++o) {
        bn_sqrts[l][o] = std::sqrt(layer.running_var[o] + kBnEpsilon);
      }
    }
  }

  const kernels::KernelOps& ops = kernels::Active();
  for (size_t base = 0; base < rows.size(); base += kBlock) {
    const size_t b = std::min(kBlock, rows.size() - base);
    for (size_t i = 0; i < b; ++i) x[i] = features.Row(rows[base + i]);

    for (size_t l = 0; l < layers_.size(); ++l) {
      const Layer& layer = layers_[l];
      const size_t out_width = static_cast<size_t>(layer.out);
      const size_t in_width = static_cast<size_t>(layer.in);
      // The affine part is the training forward kernel: every backend
      // accumulates each unit from bias through w[j] * x[j] in ascending
      // j — the scalar Margin order. ReLU plus inference batch-norm stay
      // scalar per (row, unit) (the divisor stays a division by the
      // hoisted sqrt), so every intermediate double is bitwise-identical
      // to the scalar pass.
      if (l == 0) {
        ops.nn_forward_f32(layer.weights.data(), layer.bias.data(), in_width,
                           out_width, x, b, xt.data(), next.data());
      } else {
        for (size_t i = 0; i < b; ++i) a[i] = activation.data() + i * in_width;
        ops.nn_forward_f64(layer.weights.data(), layer.bias.data(), in_width,
                           out_width, a, b, xt.data(), next.data());
      }
      for (size_t i = 0; i < b; ++i) {
        double* n = next.data() + i * out_width;
        for (size_t o = 0; o < out_width; ++o) {
          double z = std::max(0.0, n[o]);  // ReLU.
          if (config_.use_batch_norm) {
            z = layer.gamma[o] * (z - layer.running_mean[o]) / bn_sqrts[l][o] +
                layer.beta[o];
          }
          n[o] = z;  // No dropout at inference.
        }
      }
      activation.swap(next);
    }

    const size_t last = static_cast<size_t>(layers_.back().out);
    for (size_t i = 0; i < b; ++i) a[i] = activation.data() + i * last;
    ops.nn_forward_f64(out_weights_.data(), &out_bias_, last, 1, a, b,
                       xt.data(), out + base);
  }
}

double NeuralNetwork::PredictProbability(const float* x) const {
  return Sigmoid(Margin(x));
}

void NeuralNetwork::ProbaBatch(const FeatureMatrix& features,
                               std::span<const size_t> rows,
                               double* out) const {
  MarginBatch(features, rows, out);
  for (size_t i = 0; i < rows.size(); ++i) out[i] = Sigmoid(out[i]);
}

int NeuralNetwork::Predict(const float* x) const {
  return PredictProbability(x) > 0.5 ? 1 : 0;
}

void NeuralNetwork::PredictBatch(const FeatureMatrix& features,
                                 std::span<const size_t> rows,
                                 int* out) const {
  constexpr size_t kBlock = 64;
  double proba[kBlock];
  for (size_t base = 0; base < rows.size(); base += kBlock) {
    const size_t b = std::min(kBlock, rows.size() - base);
    ProbaBatch(features, rows.subspan(base, b), proba);
    for (size_t r = 0; r < b; ++r) out[base + r] = proba[r] > 0.5 ? 1 : 0;
  }
}

std::vector<int> NeuralNetwork::PredictAll(
    const FeatureMatrix& features) const {
  std::vector<int> predictions(features.rows());
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0u);
  PredictBatch(features, rows, predictions.data());
  return predictions;
}

}  // namespace alem
