// OtterTune-style Bayesian optimization (Van Aken et al., SIGMOD'17):
// a Gaussian-process surrogate over (normalized knobs -> Equation-1 fitness)
// with Expected-Improvement acquisition maximized over random + local
// candidate sets. The real system also maps workloads against a repository
// of past tunings; per the paper's §6.1 protocol every method starts with no
// prior knowledge, so the mapping step is vacuous here and omitted.

#ifndef HUNTER_TUNERS_OTTERTUNE_H_
#define HUNTER_TUNERS_OTTERTUNE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/rng.h"
#include "linalg/matrix.h"
#include "ml/gaussian_process.h"
#include "tuners/tuner.h"

namespace hunter::tuners {

struct OtterTuneOptions {
  size_t initial_samples = 30;   // LHS bootstrap before the GP takes over
  size_t candidates = 200;       // random EI candidates per proposal
  size_t local_candidates = 0;   // optional perturbations of the incumbent
  double local_sigma = 0.15;
  size_t max_train_samples = 120;  // GP training-set cap (keep refits fast)
  ml::GpOptions gp;
};

class OtterTuneTuner : public Tuner {
 public:
  OtterTuneTuner(size_t dim, const OtterTuneOptions& options, uint64_t seed);

  std::string name() const override { return "OtterTune"; }
  std::vector<std::vector<double>> Propose(size_t count) override;
  void Observe(const std::vector<controller::Sample>& samples) override;

 protected:
  // ResTune subclasses this and biases the acquisition.
  virtual double Acquisition(const std::vector<double>& candidate) const;

  // Scores one candidate per row of `candidates` into `scores` (resized).
  // Propose uses this — the whole EI candidate set is scored in one
  // GEMM-backed pass instead of per-candidate kernel loops. The base
  // implementation matches Acquisition row-for-row; ResTune overrides both
  // consistently.
  virtual void AcquisitionBatch(const linalg::Matrix& candidates,
                                std::vector<double>* scores) const;

  size_t dim_;
  OtterTuneOptions options_;
  common::Rng rng_;
  ml::GaussianProcess gp_;
  std::vector<std::vector<double>> observed_knobs_;
  std::vector<double> observed_fitness_;
  std::vector<double> best_knobs_;
  double best_fitness_;
  std::vector<std::vector<double>> pending_initial_;

 private:
  void RefitGp();

  // Candidate-scoring scratch, reused across Propose calls.
  linalg::Matrix candidate_matrix_;
  std::vector<double> candidate_scores_;
};

}  // namespace hunter::tuners

#endif  // HUNTER_TUNERS_OTTERTUNE_H_
