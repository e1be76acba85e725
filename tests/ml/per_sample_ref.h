// Per-sample and per-candidate references for the batched ML paths, shared
// by the gtests (tests/ml/mlp_test.cc, ddpg_test.cc, gp_test.cc) and the
// hot-path bench (bench/bench_micro_hotpaths.cc, gates mlp_*, ddpg_*_vs_seed,
// gp_*_vs_seed).
//
//  * PerSampleMlp is the textbook single-example network: forward, backward,
//    Adam and soft update written out as plain loops, one example at a time.
//    It calls neither Mlp::ForwardBatch/BackwardBatch nor the GEMM or vector
//    kernels of linalg/, so it stays independent of the code it checks.
//    ml::Mlp's batched passes must reproduce it bit for bit: every sum here
//    runs in the order the GEMM contract of linalg/matrix.h promises.
//  * SeedDdpg is the seed DDPG train step on PerSampleMlp: per-sample passes
//    with the Concat/TanhToUnit vector temporaries. Construction forks the
//    RNG exactly like ml::Ddpg and minibatches come from
//    ReplayBuffer::SampleIndices, so from one seed it draws the same
//    minibatches as ml::Ddpg::TrainStep and must track it step for step.
//  * SeedGp is the seed GP verbatim: an allocating per-pair kernel loop in
//    Fit, and per-candidate Predict/ExpectedImprovement with a two-pass
//    Cholesky solve for the variance. GaussianProcess::PredictBatch and
//    ExpectedImprovementBatch must match it to 1e-9. Its factorization is
//    the frozen row-order Cholesky of tests/linalg/triangular_ref.h, so the
//    oracle does not move with linalg::Cholesky.
//
// Reference implementations for tests and benches only; they never ship in
// src/.

#ifndef HUNTER_TESTS_ML_PER_SAMPLE_REF_H_
#define HUNTER_TESTS_ML_PER_SAMPLE_REF_H_

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstddef>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/ddpg.h"
#include "ml/gaussian_process.h"
#include "ml/mlp.h"
#include "ml/replay_buffer.h"
#include "tests/linalg/triangular_ref.h"

namespace hunter::ml::sampleref {

class PerSampleMlp {
 public:
  PerSampleMlp() = default;

  // Same arguments as the ml::Mlp constructor. The initial parameters are
  // taken from an ml::Mlp built with exactly these arguments, so the
  // reference consumes the same RNG draws and starts from the same weights.
  PerSampleMlp(const std::vector<size_t>& layer_sizes, Activation hidden,
               Activation output, common::Rng* rng) {
    const Mlp init(layer_sizes, hidden, output, rng);
    const std::vector<double> params = init.SaveParameters();
    size_t offset = 0;
    layers_.resize(layer_sizes.size() - 1);
    for (size_t i = 0; i < layers_.size(); ++i) {
      Layer& layer = layers_[i];
      layer.in = layer_sizes[i];
      layer.out = layer_sizes[i + 1];
      layer.activation = (i + 1 == layers_.size()) ? output : hidden;
      const auto take = [&](size_t count) {
        std::vector<double> part(params.begin() + static_cast<long>(offset),
                                 params.begin() +
                                     static_cast<long>(offset + count));
        offset += count;
        return part;
      };
      layer.weights = take(layer.in * layer.out);
      layer.bias = take(layer.out);
      layer.grad_weights.assign(layer.weights.size(), 0.0);
      layer.grad_bias.assign(layer.out, 0.0);
      layer.m_weights.assign(layer.weights.size(), 0.0);
      layer.v_weights.assign(layer.weights.size(), 0.0);
      layer.m_bias.assign(layer.out, 0.0);
      layer.v_bias.assign(layer.out, 0.0);
    }
    assert(offset == params.size());
  }

  // Forward pass on a single example; caches activations for Backward.
  std::vector<double> Forward(const std::vector<double>& input) {
    std::vector<double> activation = input;
    for (Layer& layer : layers_) {
      assert(activation.size() == layer.in);
      layer.input_cache = activation;
      layer.pre_activation.assign(layer.out, 0.0);
      for (size_t o = 0; o < layer.out; ++o) {
        double sum = layer.bias[o];
        const double* w = &layer.weights[o * layer.in];
        for (size_t i = 0; i < layer.in; ++i) sum += w[i] * activation[i];
        layer.pre_activation[o] = sum;
      }
      layer.output_cache.resize(layer.out);
      for (size_t o = 0; o < layer.out; ++o) {
        layer.output_cache[o] =
            Activate(layer.pre_activation[o], layer.activation);
      }
      activation = layer.output_cache;
    }
    return activation;
  }

  // Forward pass without touching the backprop caches.
  std::vector<double> Predict(const std::vector<double>& input) const {
    std::vector<double> activation = input;
    std::vector<double> next;
    for (const Layer& layer : layers_) {
      assert(activation.size() == layer.in);
      next.assign(layer.out, 0.0);
      for (size_t o = 0; o < layer.out; ++o) {
        double sum = layer.bias[o];
        const double* w = &layer.weights[o * layer.in];
        for (size_t i = 0; i < layer.in; ++i) sum += w[i] * activation[i];
        next[o] = Activate(sum, layer.activation);
      }
      activation.swap(next);
    }
    return activation;
  }

  // Backpropagates `grad_output` through the cached forward pass,
  // accumulating parameter gradients; returns dLoss/dInput.
  std::vector<double> Backward(const std::vector<double>& grad_output) {
    std::vector<double> grad = grad_output;
    for (size_t li = layers_.size(); li > 0; --li) {
      Layer& layer = layers_[li - 1];
      assert(grad.size() == layer.out);
      std::vector<double> delta(layer.out);
      for (size_t o = 0; o < layer.out; ++o) {
        delta[o] = grad[o] * ActivateGrad(layer.pre_activation[o],
                                          layer.output_cache[o],
                                          layer.activation);
      }
      for (size_t o = 0; o < layer.out; ++o) {
        double* gw = &layer.grad_weights[o * layer.in];
        for (size_t i = 0; i < layer.in; ++i) {
          gw[i] += delta[o] * layer.input_cache[i];
        }
        layer.grad_bias[o] += delta[o];
      }
      std::vector<double> grad_input(layer.in, 0.0);
      for (size_t o = 0; o < layer.out; ++o) {
        const double* w = &layer.weights[o * layer.in];
        for (size_t i = 0; i < layer.in; ++i) grad_input[i] += w[i] * delta[o];
      }
      grad.swap(grad_input);
    }
    return grad;
  }

  // One Adam update from the accumulated gradients (scaled by
  // 1/batch_size), then clears them.
  void AdamStep(double learning_rate, size_t batch_size) {
    constexpr double kBeta1 = 0.9;
    constexpr double kBeta2 = 0.999;
    constexpr double kEpsilon = 1e-8;
    ++adam_step_;
    const double scale =
        batch_size > 0 ? 1.0 / static_cast<double>(batch_size) : 1.0;
    const double bias1 =
        1.0 - std::pow(kBeta1, static_cast<double>(adam_step_));
    const double bias2 =
        1.0 - std::pow(kBeta2, static_cast<double>(adam_step_));
    const auto update = [&](std::vector<double>* params,
                            const std::vector<double>& grads,
                            std::vector<double>* m, std::vector<double>* v) {
      for (size_t i = 0; i < params->size(); ++i) {
        const double g = grads[i] * scale;
        (*m)[i] = kBeta1 * (*m)[i] + (1.0 - kBeta1) * g;
        (*v)[i] = kBeta2 * (*v)[i] + (1.0 - kBeta2) * g * g;
        const double mhat = (*m)[i] / bias1;
        const double vhat = (*v)[i] / bias2;
        (*params)[i] -= learning_rate * mhat / (std::sqrt(vhat) + kEpsilon);
      }
    };
    for (Layer& layer : layers_) {
      update(&layer.weights, layer.grad_weights, &layer.m_weights,
             &layer.v_weights);
      update(&layer.bias, layer.grad_bias, &layer.m_bias, &layer.v_bias);
    }
    ZeroGradients();
  }

  void ZeroGradients() {
    for (Layer& layer : layers_) {
      std::fill(layer.grad_weights.begin(), layer.grad_weights.end(), 0.0);
      std::fill(layer.grad_bias.begin(), layer.grad_bias.end(), 0.0);
    }
  }

  // this = tau * other + (1 - tau) * this, per parameter.
  void SoftUpdateFrom(const PerSampleMlp& other, double tau) {
    assert(layers_.size() == other.layers_.size());
    const auto blend = [tau](const std::vector<double>& src,
                             std::vector<double>* dst) {
      for (size_t i = 0; i < dst->size(); ++i) {
        (*dst)[i] = tau * src[i] + (1.0 - tau) * (*dst)[i];
      }
    };
    for (size_t li = 0; li < layers_.size(); ++li) {
      blend(other.layers_[li].weights, &layers_[li].weights);
      blend(other.layers_[li].bias, &layers_[li].bias);
    }
  }

  // Weights then biases per layer: the layout of Mlp::SaveParameters.
  std::vector<double> SaveParameters() const {
    std::vector<double> params;
    for (const Layer& layer : layers_) {
      params.insert(params.end(), layer.weights.begin(), layer.weights.end());
      params.insert(params.end(), layer.bias.begin(), layer.bias.end());
    }
    return params;
  }

 private:
  struct Layer {
    size_t in = 0;
    size_t out = 0;
    Activation activation = Activation::kLinear;
    std::vector<double> weights;  // out x in, row-major
    std::vector<double> bias;
    std::vector<double> grad_weights;
    std::vector<double> grad_bias;
    std::vector<double> m_weights, v_weights, m_bias, v_bias;
    std::vector<double> input_cache;
    std::vector<double> pre_activation;
    std::vector<double> output_cache;
  };

  static double Activate(double x, Activation act) {
    switch (act) {
      case Activation::kReLU:
        return x > 0.0 ? x : 0.0;
      case Activation::kTanh:
        return std::tanh(x);
      case Activation::kLinear:
        return x;
    }
    return x;
  }

  static double ActivateGrad(double pre, double post, Activation act) {
    switch (act) {
      case Activation::kReLU:
        return pre > 0.0 ? 1.0 : 0.0;
      case Activation::kTanh:
        return 1.0 - post * post;
      case Activation::kLinear:
        return 1.0;
    }
    return 1.0;
  }

  std::vector<Layer> layers_;
  size_t adam_step_ = 0;
};

class SeedDdpg {
 public:
  SeedDdpg(const DdpgOptions& options, common::Rng* rng)
      : options_(options),
        rng_(rng->Fork()),
        buffer_(options.replay_capacity) {
    common::Rng init_rng = rng_.Fork();
    actor_ = PerSampleMlp(BuildSizes(options.state_dim, options.actor_hidden,
                                     options.action_dim),
                          Activation::kReLU, Activation::kTanh, &init_rng);
    critic_ = PerSampleMlp(BuildSizes(options.state_dim + options.action_dim,
                                      options.critic_hidden, 1),
                           Activation::kReLU, Activation::kLinear, &init_rng);
    target_actor_ = actor_;
    target_critic_ = critic_;
  }

  std::vector<double> Act(const std::vector<double>& state) const {
    return TanhToUnit(actor_.Predict(state));
  }

  void AddTransition(Transition transition) {
    buffer_.Add(std::move(transition));
  }

  // One minibatch update of critic and actor plus soft target updates;
  // returns the critic's mean squared TD error (0 on an empty buffer).
  double TrainStep() {
    if (buffer_.empty()) return 0.0;
    buffer_.SampleIndices(options_.batch_size, &rng_, &batch_indices_);

    double total_loss = 0.0;
    critic_.ZeroGradients();
    for (const size_t index : batch_indices_) {
      const Transition& t = buffer_.at(index);
      double target = t.reward;
      if (!t.terminal) {
        const std::vector<double> next_action =
            TanhToUnit(target_actor_.Predict(t.next_state));
        const std::vector<double> next_q =
            target_critic_.Predict(Concat(t.next_state, next_action));
        target += options_.gamma * next_q[0];
      }
      const std::vector<double> q = critic_.Forward(Concat(t.state, t.action));
      const double error = q[0] - target;
      total_loss += error * error;
      critic_.Backward({2.0 * error});
    }
    critic_.AdamStep(options_.critic_lr, batch_indices_.size());

    actor_.ZeroGradients();
    for (const size_t index : batch_indices_) {
      const Transition& t = buffer_.at(index);
      const std::vector<double> tanh_action = actor_.Forward(t.state);
      const std::vector<double> unit_action = TanhToUnit(tanh_action);
      critic_.Forward(Concat(t.state, unit_action));
      const std::vector<double> grad_input = critic_.Backward({-1.0});
      std::vector<double> grad_action(options_.action_dim);
      for (size_t i = 0; i < options_.action_dim; ++i) {
        grad_action[i] = 0.5 * grad_input[options_.state_dim + i];
        if (options_.grad_clip > 0.0) {
          grad_action[i] = std::clamp(grad_action[i], -options_.grad_clip,
                                      options_.grad_clip);
        }
      }
      actor_.Backward(grad_action);
    }
    critic_.ZeroGradients();
    actor_.AdamStep(options_.actor_lr, batch_indices_.size());

    target_actor_.SoftUpdateFrom(actor_, options_.tau);
    target_critic_.SoftUpdateFrom(critic_, options_.tau);

    return total_loss / static_cast<double>(batch_indices_.size());
  }

  // Actor then critic parameters: the layout of Ddpg::SaveParameters.
  std::vector<double> SaveParameters() const {
    std::vector<double> params = actor_.SaveParameters();
    const std::vector<double> critic_params = critic_.SaveParameters();
    params.insert(params.end(), critic_params.begin(), critic_params.end());
    return params;
  }

 private:
  static std::vector<size_t> BuildSizes(size_t in,
                                        const std::vector<size_t>& hidden,
                                        size_t out) {
    std::vector<size_t> sizes;
    sizes.push_back(in);
    sizes.insert(sizes.end(), hidden.begin(), hidden.end());
    sizes.push_back(out);
    return sizes;
  }

  static std::vector<double> Concat(const std::vector<double>& a,
                                    const std::vector<double>& b) {
    std::vector<double> merged;
    merged.reserve(a.size() + b.size());
    merged.insert(merged.end(), a.begin(), a.end());
    merged.insert(merged.end(), b.begin(), b.end());
    return merged;
  }

  static std::vector<double> TanhToUnit(const std::vector<double>& tanh_out) {
    std::vector<double> unit(tanh_out.size());
    for (size_t i = 0; i < tanh_out.size(); ++i) {
      unit[i] = std::clamp(0.5 * (tanh_out[i] + 1.0), 0.0, 1.0);
    }
    return unit;
  }

  DdpgOptions options_;
  common::Rng rng_;
  PerSampleMlp actor_;
  PerSampleMlp critic_;
  PerSampleMlp target_actor_;
  PerSampleMlp target_critic_;
  ReplayBuffer buffer_;
  std::vector<size_t> batch_indices_;
};

class SeedGp {
 public:
  explicit SeedGp(GpOptions options = {}) : options_(options) {}

  bool Fit(const linalg::Matrix& x, const std::vector<double>& y) {
    train_x_ = x;
    train_y_ = y;
    const size_t n = x.rows();
    y_mean_ = 0.0;
    for (double v : y) y_mean_ += v;
    if (n > 0) y_mean_ /= static_cast<double>(n);

    linalg::Matrix k(n, n);
    for (size_t i = 0; i < n; ++i) {
      const std::vector<double> xi = x.Row(i);
      for (size_t j = i; j < n; ++j) {
        const double value = Kernel(xi, x.Row(j));
        k.At(i, j) = value;
        k.At(j, i) = value;
      }
      k.At(i, i) += options_.noise_variance;
    }
    if (!linalg::triref::RowOrderCholesky(k, &chol_)) {
      fitted_ = false;
      return false;
    }
    std::vector<double> centered(n);
    for (size_t i = 0; i < n; ++i) centered[i] = y[i] - y_mean_;
    alpha_ = linalg::CholeskySolve(chol_, centered);
    fitted_ = true;
    return true;
  }

  GaussianProcess::Prediction Predict(const std::vector<double>& x) const {
    GaussianProcess::Prediction prediction;
    if (!fitted_) {
      prediction.variance = options_.signal_variance;
      return prediction;
    }
    const size_t n = train_x_.rows();
    std::vector<double> k_star(n);
    for (size_t i = 0; i < n; ++i) k_star[i] = Kernel(x, train_x_.Row(i));

    double mean = y_mean_;
    for (size_t i = 0; i < n; ++i) mean += k_star[i] * alpha_[i];
    prediction.mean = mean;

    const std::vector<double> v = linalg::CholeskySolve(chol_, k_star);
    double reduction = 0.0;
    for (size_t i = 0; i < n; ++i) reduction += k_star[i] * v[i];
    prediction.variance = std::max(0.0, Kernel(x, x) - reduction);
    return prediction;
  }

  double ExpectedImprovement(const std::vector<double>& x,
                             double best_so_far) const {
    const auto p = Predict(x);
    const double sigma = std::sqrt(p.variance);
    if (sigma < 1e-12) return std::max(0.0, p.mean - best_so_far);
    const double z = (p.mean - best_so_far) / sigma;
    return (p.mean - best_so_far) * NormalCdf(z) + sigma * NormalPdf(z);
  }

 private:
  static double NormalPdf(double z) {
    return std::exp(-0.5 * z * z) / std::sqrt(2.0 * 3.14159265358979323846);
  }
  static double NormalCdf(double z) {
    return 0.5 * std::erfc(-z / 1.41421356237309504880);
  }

  double Kernel(const std::vector<double>& a,
                const std::vector<double>& b) const {
    double sq = 0.0;
    for (size_t i = 0; i < a.size(); ++i) {
      const double d = a[i] - b[i];
      sq += d * d;
    }
    const double ls = options_.length_scale * options_.length_scale;
    return options_.signal_variance * std::exp(-0.5 * sq / ls);
  }

  GpOptions options_;
  bool fitted_ = false;
  linalg::Matrix train_x_;
  std::vector<double> train_y_;
  double y_mean_ = 0.0;
  linalg::Matrix chol_;
  std::vector<double> alpha_;
};

}  // namespace hunter::ml::sampleref

#endif  // HUNTER_TESTS_ML_PER_SAMPLE_REF_H_
