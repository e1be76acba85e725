#include "ml/ddpg.h"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "linalg/simd/simd.h"

namespace hunter::ml {

namespace {

std::vector<size_t> BuildSizes(size_t in, const std::vector<size_t>& hidden,
                               size_t out) {
  std::vector<size_t> sizes;
  sizes.push_back(in);
  sizes.insert(sizes.end(), hidden.begin(), hidden.end());
  sizes.push_back(out);
  return sizes;
}

std::vector<double> Concat(const std::vector<double>& a,
                           const std::vector<double>& b) {
  std::vector<double> merged;
  merged.reserve(a.size() + b.size());
  merged.insert(merged.end(), a.begin(), a.end());
  merged.insert(merged.end(), b.begin(), b.end());
  return merged;
}

// Weights plus biases of an MLP with these layer widths, as
// Mlp::SaveParameters lays them out.
size_t MlpParameterCount(const std::vector<size_t>& sizes) {
  size_t count = 0;
  for (size_t l = 0; l + 1 < sizes.size(); ++l) {
    count += sizes[l] * sizes[l + 1] + sizes[l + 1];
  }
  return count;
}

// Maps tanh output in [-1,1] to the normalized knob space [0,1].
std::vector<double> TanhToUnit(const std::vector<double>& tanh_out) {
  std::vector<double> unit(tanh_out.size());
  linalg::simd::ClampUnitFromTanhInto(tanh_out.data(), unit.data(),
                                      unit.size());
  return unit;
}

}  // namespace

Ddpg::Ddpg(const DdpgOptions& options, common::Rng* rng)
    : options_(options),
      rng_(rng->Fork()),
      buffer_(options.replay_capacity) {
  assert(options.state_dim > 0 && options.action_dim > 0);
  common::Rng init_rng = rng_.Fork();
  actor_ = Mlp(BuildSizes(options.state_dim, options.actor_hidden,
                          options.action_dim),
               Activation::kReLU, Activation::kTanh, &init_rng);
  critic_ = Mlp(BuildSizes(options.state_dim + options.action_dim,
                           options.critic_hidden, 1),
                Activation::kReLU, Activation::kLinear, &init_rng);
  target_actor_ = actor_;
  target_critic_ = critic_;
}

std::vector<double> Ddpg::Act(const std::vector<double>& state) const {
  assert(state.size() == options_.state_dim);
  return TanhToUnit(actor_.Predict(state));
}

void Ddpg::AddTransition(Transition transition) {
  assert(transition.state.size() == options_.state_dim);
  assert(transition.action.size() == options_.action_dim);
  buffer_.Add(std::move(transition));
}

// Critic target, critic update and actor update, each run as one minibatch
// GEMM over preallocated arenas. Every floating-point sum below is evaluated
// in the same order as a per-sample DDPG step (see mlp.h), so the two produce
// bit-identical parameters from the same RNG stream; the per-sample
// reference is tests/ml/per_sample_ref.h.
double Ddpg::TrainStep() {
  if (buffer_.empty()) return 0.0;
  buffer_.SampleIndices(options_.batch_size, &rng_, &batch_indices_);
  const size_t batch = batch_indices_.size();
  const size_t s_dim = options_.state_dim;
  const size_t a_dim = options_.action_dim;

  // Gather the minibatch into the state / state‖action arenas.
  b_states_.Reshape(batch, s_dim);
  b_next_states_.Reshape(batch, s_dim);
  b_sa_.Reshape(batch, s_dim + a_dim);
  b_target_.resize(batch);
  for (size_t r = 0; r < batch; ++r) {
    const Transition& t = buffer_.at(batch_indices_[r]);
    std::copy(t.state.begin(), t.state.end(), b_states_.Data() + r * s_dim);
    std::copy(t.next_state.begin(), t.next_state.end(),
              b_next_states_.Data() + r * s_dim);
    double* sa_row = b_sa_.Data() + r * (s_dim + a_dim);
    std::copy(t.state.begin(), t.state.end(), sa_row);
    std::copy(t.action.begin(), t.action.end(), sa_row + s_dim);
  }

  // ---- TD targets: y = r + gamma * Q'(s', mu'(s')). Terminal rows still
  // flow through the target nets (their next_q is simply unused), which
  // keeps the pass rectangular.
  target_actor_.ForwardBatch(b_next_states_, &b_tanh_);
  b_next_sa_.Reshape(batch, s_dim + a_dim);
  for (size_t r = 0; r < batch; ++r) {
    double* row = b_next_sa_.Data() + r * (s_dim + a_dim);
    std::copy(b_next_states_.Data() + r * s_dim,
              b_next_states_.Data() + (r + 1) * s_dim, row);
    linalg::simd::ClampUnitFromTanhInto(b_tanh_.Data() + r * a_dim,
                                        row + s_dim, a_dim);
  }
  target_critic_.ForwardBatch(b_next_sa_, &b_next_q_);
  for (size_t r = 0; r < batch; ++r) {
    const Transition& t = buffer_.at(batch_indices_[r]);
    b_target_[r] = t.reward +
                   (t.terminal ? 0.0 : options_.gamma * b_next_q_.At(r, 0));
  }

  // ---- Critic update.
  double total_loss = 0.0;
  critic_.ZeroGradients();
  critic_.ForwardBatch(b_sa_, &b_q_);
  b_grad_q_.Reshape(batch, 1);
  for (size_t r = 0; r < batch; ++r) {
    const double error = b_q_.At(r, 0) - b_target_[r];
    total_loss += error * error;
    b_grad_q_.At(r, 0) = 2.0 * error;
  }
  critic_.BackwardBatch(b_grad_q_, nullptr);
  critic_.AdamStep(options_.critic_lr, batch);

  // ---- Actor update: ascend dQ/da through the critic. The state columns
  // of b_sa_ are still valid; only the action columns are overwritten with
  // the actor's current policy.
  actor_.ZeroGradients();
  actor_.ForwardBatch(b_states_, &b_tanh_);
  for (size_t r = 0; r < batch; ++r) {
    linalg::simd::ClampUnitFromTanhInto(
        b_tanh_.Data() + r * a_dim,
        b_sa_.Data() + r * (s_dim + a_dim) + s_dim, a_dim);
  }
  critic_.ForwardBatch(b_sa_, &b_q_);
  b_grad_q_.Reshape(batch, 1);
  b_grad_q_.Fill(-1.0);
  // A per-sample step accumulates critic parameter gradients here and then
  // discards them; skipping their GEMMs outright changes nothing.
  critic_.BackwardBatch(b_grad_q_, &b_grad_sa_,
                        /*accumulate_param_grads=*/false);
  b_grad_action_.Reshape(batch, a_dim);
  for (size_t r = 0; r < batch; ++r) {
    // Chain through the [-1,1] -> [0,1] affine map (factor 0.5), clipping
    // each component to [-grad_clip, grad_clip] when grad_clip is enabled.
    const double* grad_row = b_grad_sa_.Data() + r * (s_dim + a_dim) + s_dim;
    double* out_row = b_grad_action_.Data() + r * a_dim;
    if (options_.grad_clip > 0.0) {
      linalg::simd::ScaleClampInto(grad_row, 0.5, options_.grad_clip, out_row,
                                   a_dim);
    } else {
      linalg::simd::ScaleInto(grad_row, 0.5, out_row, a_dim);
    }
  }
  actor_.BackwardBatch(b_grad_action_, nullptr);
  actor_.AdamStep(options_.actor_lr, batch);

  // ---- Soft target updates.
  target_actor_.SoftUpdateFrom(actor_, options_.tau);
  target_critic_.SoftUpdateFrom(critic_, options_.tau);

  return total_loss / static_cast<double>(batch);
}

double Ddpg::EvaluateQ(const std::vector<double>& state,
                       const std::vector<double>& action) const {
  return target_critic_.Predict(Concat(state, action))[0];
}

std::vector<double> Ddpg::SaveParameters() const {
  std::vector<double> params = actor_.SaveParameters();
  const std::vector<double> critic_params = critic_.SaveParameters();
  params.insert(params.end(), critic_params.begin(), critic_params.end());
  return params;
}

size_t Ddpg::ParameterCount(const DdpgOptions& options) {
  return MlpParameterCount(BuildSizes(options.state_dim,
                                      options.actor_hidden,
                                      options.action_dim)) +
         MlpParameterCount(BuildSizes(options.state_dim + options.action_dim,
                                      options.critic_hidden, 1));
}

void Ddpg::LoadParameters(const std::vector<double>& params) {
  const size_t actor_size = actor_.SaveParameters().size();
  assert(params.size() == actor_size + critic_.SaveParameters().size());
  actor_.LoadParameters(
      std::vector<double>(params.begin(),
                          params.begin() + static_cast<long>(actor_size)));
  critic_.LoadParameters(
      std::vector<double>(params.begin() + static_cast<long>(actor_size),
                          params.end()));
  target_actor_.CopyFrom(actor_);
  target_critic_.CopyFrom(critic_);
}

}  // namespace hunter::ml
