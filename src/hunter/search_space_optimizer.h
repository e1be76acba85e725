// The Search Space Optimizer (§3.2): metrics compression via PCA (keep the
// fewest components whose cumulative variance exceeds 90% — 13 on TPC-C in
// the paper's Fig. 7) and knob sifting via a 200-tree Random Forest whose
// impurity-based importances rank knobs (keep the top 20 — the paper's
// Fig. 8 knee).

#ifndef HUNTER_HUNTER_SEARCH_SPACE_OPTIMIZER_H_
#define HUNTER_HUNTER_SEARCH_SPACE_OPTIMIZER_H_

#include <cstddef>
#include <string>
#include <vector>

#include "cdb/knob.h"
#include "common/rng.h"
#include "common/thread_pool.h"
#include "controller/sample.h"
#include "hunter/rules.h"
#include "ml/pca.h"
#include "ml/random_forest.h"

namespace hunter::core {

struct OptimizerOptions {
  bool use_pca = true;
  bool use_rf = true;
  double variance_threshold = 0.90;  // PCA CDF cut (Fig. 7: 91% at 13)
  size_t top_knobs = 20;             // knobs kept after sifting (Fig. 8)
  ml::RandomForestOptions forest;    // 200 CARTs by default
};

// The reduced search space handed to the Recommender.
struct OptimizedSpace {
  ml::Pca pca;
  size_t state_dim = 0;               // components kept (or 63 w/o PCA)
  bool use_pca = false;
  std::vector<size_t> selected_knobs; // indices into the catalog
  std::vector<double> knob_importance;  // full-length importance vector

  // Encodes a raw 63-metric vector into the reduced state.
  std::vector<double> EncodeState(const std::vector<double>& metrics) const;

  // Signature used by the online model-reuse matching module (§4): two
  // workloads match when they share key knobs and compressed-state size.
  std::string Signature() const;
};

class SearchSpaceOptimizer {
 public:
  // Fits PCA on the pool's metric matrix and the forest on
  // (knobs -> fitness); boot-failed samples are excluded from PCA (their
  // metrics are meaningless) but kept for the forest (the failure is real
  // signal about those knobs). Only `rules`-tunable knobs are eligible.
  // With an `executor`, the forest's trees fit on it; the space is
  // bit-identical either way.
  static OptimizedSpace Optimize(const std::vector<controller::Sample>& pool,
                                 const cdb::KnobCatalog& catalog,
                                 const Rules& rules,
                                 const OptimizerOptions& options,
                                 common::Rng* rng,
                                 common::ThreadPool* executor = nullptr);
};

}  // namespace hunter::core

#endif  // HUNTER_HUNTER_SEARCH_SPACE_OPTIMIZER_H_
