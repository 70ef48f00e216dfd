// Differential test for the NN training path: NeuralNetwork::Fit and
// FitWarm, which run their dense algebra through the kernel layer
// (nn_forward_* / nn_backward_*), must produce the same model, bit for
// bit, as a verbatim copy of the per-sample scalar SGD loop they replaced.
// The comparison covers the serialized model bytes (17 significant
// digits, so every weight and batch-norm statistic round-trips exactly)
// and the MarginBatch output against the copied scalar Margin.
//
// Registered in the ALEM_KERNEL_BACKEND matrix (tests/CMakeLists.txt), so
// it gates every compiled-in backend.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <vector>

#include "kernels/backend.h"
#include "ml/neural_net.h"
#include "ml/serialization.h"
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

// The network before training moved to the kernel layer: same members,
// and the member functions below are copied unchanged from it.
class ReferenceNet {
 public:
  explicit ReferenceNet(const NeuralNetConfig& config) : config_(config) {}

  void Fit(const FeatureMatrix& features, const std::vector<int>& labels);
  bool FitWarm(const FeatureMatrix& features, const std::vector<int>& labels);
  double Margin(const float* x) const;
  bool trained() const { return !layers_.empty(); }

  // SerializeNeuralNet's text format (ml/serialization.cc).
  std::string Serialize() const {
    std::ostringstream out;
    out.precision(17);
    auto vec = [&out](const auto& values) {
      out << values.size();
      for (const auto& value : values) out << ' ' << value;
      out << '\n';
    };
    out << "alem-nn\n" << 1 << '\n';
    vec(config_.hidden_sizes);
    out << config_.epochs << '\n'
        << config_.batch_size << '\n'
        << config_.learning_rate << '\n'
        << config_.learning_rate_decay << '\n'
        << config_.momentum << '\n'
        << config_.dropout << '\n'
        << (config_.use_batch_norm ? 1 : 0) << '\n'
        << config_.positive_weight_cap << '\n'
        << config_.seed << '\n';
    out << layers_.size() << '\n';
    for (const Layer& layer : layers_) {
      out << layer.in << '\n' << layer.out << '\n';
      vec(layer.weights);
      vec(layer.bias);
      vec(layer.gamma);
      vec(layer.beta);
      vec(layer.running_mean);
      vec(layer.running_var);
    }
    vec(out_weights_);
    out << out_bias_ << '\n';
    return out.str();
  }

 private:
  struct Layer {
    int in = 0;
    int out = 0;
    std::vector<double> weights, bias;
    std::vector<double> gamma, beta, running_mean, running_var;
    std::vector<double> v_weights, v_bias, v_gamma, v_beta;
  };

  void InitializeLayers(size_t input_dims);
  void Train(const FeatureMatrix& features, const std::vector<int>& labels,
             int epochs, double initial_learning_rate, uint64_t rng_seed);

  NeuralNetConfig config_;
  std::vector<Layer> layers_;
  std::vector<double> out_weights_;
  double out_bias_ = 0.0;
  std::vector<double> v_out_weights_;
  double v_out_bias_ = 0.0;
};

// ---- Copied unchanged from the scalar implementation -------------------

void ReferenceNet::InitializeLayers(size_t input_dims) {
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

void ReferenceNet::Fit(const FeatureMatrix& features,
                        const std::vector<int>& labels) {
  InitializeLayers(features.dims());
  Train(features, labels, config_.epochs, config_.learning_rate,
        config_.seed ^ 0x5bd1e995u);
}

bool ReferenceNet::FitWarm(const FeatureMatrix& features,
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

void ReferenceNet::Train(const FeatureMatrix& features,
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

  // Per-layer forward/backward scratch, sized for one mini-batch.
  struct LayerScratch {
    std::vector<double> pre;     // Affine output z.
    std::vector<double> relu;    // ReLU(z) = r.
    std::vector<double> rhat;    // Normalized r.
    std::vector<double> post;    // Layer output (after BN + dropout).
    std::vector<double> mean, var;
    std::vector<char> drop_mask;
    std::vector<double> d_post;  // Gradient wrt layer output.
    std::vector<double> d_pre;   // Gradient wrt z.
  };
  std::vector<LayerScratch> scratch(num_layers);

  double learning_rate = initial_learning_rate;
  for (int epoch = 0; epoch < epochs; ++epoch) {
    rng.Shuffle(order);
    for (size_t start = 0; start < n; start += batch_size) {
      const size_t b = std::min(batch_size, n - start);

      // ---- Forward pass ----
      // a0: the mini-batch inputs, row-major [b x input_dims].
      const double inv_keep = 1.0 / std::max(1e-9, 1.0 - config_.dropout);
      std::vector<const float*> batch_rows(b);
      std::vector<double> batch_weight(b);
      std::vector<double> batch_label(b);
      for (size_t i = 0; i < b; ++i) {
        const size_t row = order[start + i];
        batch_rows[i] = features.Row(row);
        batch_label[i] = labels[row] == 1 ? 1.0 : 0.0;
        batch_weight[i] = labels[row] == 1 ? positive_weight : 1.0;
      }

      const std::vector<double>* previous_activation = nullptr;
      std::vector<double> input_activation;  // Materialized a0 when needed.
      for (size_t l = 0; l < num_layers; ++l) {
        Layer& layer = layers_[l];
        LayerScratch& s = scratch[l];
        const size_t out = static_cast<size_t>(layer.out);
        const size_t in = static_cast<size_t>(layer.in);
        s.pre.assign(b * out, 0.0);
        // Affine.
        for (size_t i = 0; i < b; ++i) {
          for (size_t o = 0; o < out; ++o) {
            const double* w = layer.weights.data() + o * in;
            double z = layer.bias[o];
            if (l == 0) {
              const float* x = batch_rows[i];
              for (size_t j = 0; j < in; ++j) z += w[j] * x[j];
            } else {
              const double* x = previous_activation->data() + i * in;
              for (size_t j = 0; j < in; ++j) z += w[j] * x[j];
            }
            s.pre[i * out + o] = z;
          }
        }
        // ReLU.
        s.relu = s.pre;
        for (double& v : s.relu) v = std::max(0.0, v);
        // Batch norm (training statistics).
        s.mean.assign(out, 0.0);
        s.var.assign(out, 0.0);
        s.rhat.assign(b * out, 0.0);
        s.post.assign(b * out, 0.0);
        if (config_.use_batch_norm && b > 1) {
          for (size_t o = 0; o < out; ++o) {
            double mean = 0.0;
            for (size_t i = 0; i < b; ++i) mean += s.relu[i * out + o];
            mean /= static_cast<double>(b);
            double var = 0.0;
            for (size_t i = 0; i < b; ++i) {
              const double d = s.relu[i * out + o] - mean;
              var += d * d;
            }
            var /= static_cast<double>(b);
            s.mean[o] = mean;
            s.var[o] = var;
            layer.running_mean[o] = kBnMomentum * layer.running_mean[o] +
                                    (1.0 - kBnMomentum) * mean;
            layer.running_var[o] = kBnMomentum * layer.running_var[o] +
                                   (1.0 - kBnMomentum) * var;
            const double inv_std = 1.0 / std::sqrt(var + kBnEpsilon);
            for (size_t i = 0; i < b; ++i) {
              const double rhat = (s.relu[i * out + o] - mean) * inv_std;
              s.rhat[i * out + o] = rhat;
              s.post[i * out + o] = layer.gamma[o] * rhat + layer.beta[o];
            }
          }
        } else {
          s.rhat = s.relu;
          s.post = s.relu;
        }
        // Dropout (inverted scaling).
        s.drop_mask.assign(b * out, 1);
        if (config_.dropout > 0.0) {
          for (size_t idx = 0; idx < b * out; ++idx) {
            if (rng.NextBernoulli(config_.dropout)) {
              s.drop_mask[idx] = 0;
              s.post[idx] = 0.0;
            } else {
              s.post[idx] *= inv_keep;
            }
          }
        }
        previous_activation = &s.post;
        (void)input_activation;
      }

      // Output layer.
      const size_t last = static_cast<size_t>(layers_.back().out);
      const std::vector<double>& final_activation = scratch.back().post;
      std::vector<double> margin(b, 0.0);
      std::vector<double> d_margin(b, 0.0);
      for (size_t i = 0; i < b; ++i) {
        double z = out_bias_;
        const double* a = final_activation.data() + i * last;
        for (size_t j = 0; j < last; ++j) z += out_weights_[j] * a[j];
        margin[i] = z;
        const double p = Sigmoid(z);
        // d/dz of weighted L2 loss (p - y)^2 averaged over the batch.
        d_margin[i] = batch_weight[i] * 2.0 * (p - batch_label[i]) * p *
                      (1.0 - p) / static_cast<double>(b);
      }

      // ---- Backward pass ----
      // Output affine.
      std::vector<double> d_out_weights(last, 0.0);
      double d_out_bias = 0.0;
      LayerScratch& top = scratch.back();
      top.d_post.assign(b * last, 0.0);
      for (size_t i = 0; i < b; ++i) {
        const double g = d_margin[i];
        const double* a = final_activation.data() + i * last;
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

        // Batch-norm backward.
        std::vector<double> d_relu(b * out, 0.0);
        std::vector<double> d_gamma(out, 0.0);
        std::vector<double> d_beta(out, 0.0);
        if (config_.use_batch_norm && b > 1) {
          for (size_t o = 0; o < out; ++o) {
            const double inv_std = 1.0 / std::sqrt(s.var[o] + kBnEpsilon);
            double sum_dy = 0.0, sum_dy_rhat = 0.0;
            for (size_t i = 0; i < b; ++i) {
              const double dy = s.d_post[i * out + o];
              sum_dy += dy;
              sum_dy_rhat += dy * s.rhat[i * out + o];
              d_gamma[o] += dy * s.rhat[i * out + o];
              d_beta[o] += dy;
            }
            const double inv_b = 1.0 / static_cast<double>(b);
            for (size_t i = 0; i < b; ++i) {
              const double dy = s.d_post[i * out + o];
              d_relu[i * out + o] =
                  layer.gamma[o] * inv_std *
                  (dy - sum_dy * inv_b - s.rhat[i * out + o] * sum_dy_rhat *
                                             inv_b);
            }
          }
        } else {
          d_relu = s.d_post;
        }

        // ReLU backward.
        s.d_pre.assign(b * out, 0.0);
        for (size_t idx = 0; idx < b * out; ++idx) {
          s.d_pre[idx] = s.pre[idx] > 0.0 ? d_relu[idx] : 0.0;
        }

        // Affine backward.
        std::vector<double> d_weights(out * in, 0.0);
        std::vector<double> d_bias(out, 0.0);
        if (l > 0) {
          scratch[l - 1].d_post.assign(
              b * static_cast<size_t>(layers_[l - 1].out), 0.0);
        }
        for (size_t i = 0; i < b; ++i) {
          for (size_t o = 0; o < out; ++o) {
            const double g = s.d_pre[i * out + o];
            if (g == 0.0) continue;
            double* dw = d_weights.data() + o * in;
            if (l == 0) {
              const float* x = batch_rows[i];
              for (size_t j = 0; j < in; ++j) dw[j] += g * x[j];
            } else {
              const double* x = scratch[l - 1].post.data() + i * in;
              double* dx = scratch[l - 1].d_post.data() + i * in;
              const double* w = layer.weights.data() + o * in;
              for (size_t j = 0; j < in; ++j) {
                dw[j] += g * x[j];
                dx[j] += g * w[j];
              }
            }
            d_bias[o] += g;
          }
        }

        // SGD with momentum.
        auto update = [&](std::vector<double>& param,
                          std::vector<double>& velocity,
                          const std::vector<double>& gradient) {
          for (size_t idx = 0; idx < param.size(); ++idx) {
            velocity[idx] = config_.momentum * velocity[idx] -
                            learning_rate * gradient[idx];
            param[idx] += velocity[idx];
          }
        };
        update(layer.weights, layer.v_weights, d_weights);
        update(layer.bias, layer.v_bias, d_bias);
        if (config_.use_batch_norm && b > 1) {
          update(layer.gamma, layer.v_gamma, d_gamma);
          update(layer.beta, layer.v_beta, d_beta);
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

double ReferenceNet::Margin(const float* x) const {
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

// ---- Tests --------------------------------------------------------------

// Similarity-like features in [0, 1], a fifth of them exactly 0 (as for
// missing attributes), with labels that depend on them so SGD moves.
void MakeFeatures(size_t n, size_t dims, uint64_t seed,
                  FeatureMatrix* features, std::vector<int>* labels) {
  Rng rng(seed);
  *features = FeatureMatrix(n, dims);
  labels->resize(n);
  for (size_t i = 0; i < n; ++i) {
    const bool match = rng.NextBernoulli(0.3);
    for (size_t d = 0; d < dims; ++d) {
      const double center = match ? 0.7 : 0.3;
      const double v = rng.NextBernoulli(0.2)
                           ? 0.0
                           : std::clamp(center + rng.NextGaussian() * 0.2,
                                        0.0, 1.0);
      features->Set(i, d, static_cast<float>(v));
    }
    (*labels)[i] = match ? 1 : 0;
  }
}

std::vector<uint64_t> Bits(const std::vector<double>& values) {
  std::vector<uint64_t> bits(values.size());
  std::memcpy(bits.data(), values.data(), values.size() * sizeof(double));
  return bits;
}

// Asserts the trained model equals the reference: serialized bytes, and
// MarginBatch over every row against the reference's scalar Margin.
void ExpectSameModel(const NeuralNetwork& net, const ReferenceNet& reference,
                     const FeatureMatrix& features, const std::string& what) {
  ASSERT_EQ(SerializeNeuralNet(net), reference.Serialize()) << what;
  std::vector<size_t> rows(features.rows());
  std::iota(rows.begin(), rows.end(), 0u);
  std::vector<double> batch(rows.size());
  net.MarginBatch(features, rows, batch.data());
  std::vector<double> expected(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    expected[i] = reference.Margin(features.Row(i));
  }
  ASSERT_EQ(Bits(batch), Bits(expected)) << what;
}

// Fit on the first n rows, then FitWarm on all of them, comparing after
// each step.
void CheckFitAndWarm(const NeuralNetConfig& config, size_t n, size_t total,
                     size_t dims, const std::string& name) {
  FeatureMatrix all;
  std::vector<int> all_labels;
  MakeFeatures(total, dims, 17 + n, &all, &all_labels);
  std::vector<size_t> first(n);
  std::iota(first.begin(), first.end(), 0u);
  const FeatureMatrix features = all.Gather(first);
  const std::vector<int> labels(all_labels.begin(), all_labels.begin() + n);

  const std::string what = name + " n=" + std::to_string(n) +
                           " backend=" + std::string(kernels::BackendName());
  NeuralNetwork net(config);
  ReferenceNet reference(config);
  net.Fit(features, labels);
  reference.Fit(features, labels);
  ExpectSameModel(net, reference, all, what + " fit");

  ASSERT_TRUE(net.FitWarm(all, all_labels));
  ASSERT_TRUE(reference.FitWarm(all, all_labels));
  ExpectSameModel(net, reference, all, what + " warm");
}

NeuralNetConfig Quick(NeuralNetConfig config) {
  config.epochs = 6;
  config.warm_epochs = 3;
  return config;
}

// n = 1, tails of the 8-row blocks (n % 8 != 0) and whole blocks.
constexpr size_t kSizes[] = {1, 7, 8, 13, 30};

TEST(NeuralNetTrainDiffTest, DefaultNetwork) {
  for (const size_t n : kSizes) {
    CheckFitAndWarm(Quick(NeuralNetConfig{}), n, n + 11, 37, "default");
  }
}

TEST(NeuralNetTrainDiffTest, DeepMatcherProxyHiddenLayers) {
  // Two hidden layers: the second exercises the input-gradient (dx) path.
  for (const size_t n : kSizes) {
    CheckFitAndWarm(Quick(DeepMatcherProxyConfig(5)), n, n + 9, 21,
                    "deepmatcher");
  }
}

TEST(NeuralNetTrainDiffTest, NoDropout) {
  NeuralNetConfig config = Quick(DeepMatcherProxyConfig(3));
  config.dropout = 0.0;
  for (const size_t n : kSizes) CheckFitAndWarm(config, n, n + 5, 19, "p0");
}

TEST(NeuralNetTrainDiffTest, NoBatchNorm) {
  NeuralNetConfig config = Quick(NeuralNetConfig{});
  config.hidden_sizes = {17, 6};  // Unit tails of the 4-unit blocks.
  config.use_batch_norm = false;
  for (const size_t n : kSizes) CheckFitAndWarm(config, n, n + 5, 33, "nobn");
}

TEST(NeuralNetTrainDiffTest, MiniBatchSizes) {
  // batch_size 1 (no batch norm statistics, one row per kernel call) and
  // 19 (mini-batches spanning several 8-row blocks).
  for (const int batch_size : {1, 19}) {
    NeuralNetConfig config = Quick(NeuralNetConfig{});
    config.hidden_sizes = {9, 5};
    config.batch_size = batch_size;
    for (const size_t n : kSizes) {
      CheckFitAndWarm(config, n, n + 3, 16,
                      "batch" + std::to_string(batch_size));
    }
  }
}

TEST(NeuralNetTrainDiffTest, PaperScaleNetwork) {
  // The labeling loop's shape: paper defaults, Cora-like width, 300 labels.
  NeuralNetConfig config;
  config.epochs = 4;
  config.warm_epochs = 2;
  CheckFitAndWarm(config, 150, 300, 189, "paper");
}

}  // namespace
}  // namespace alem
