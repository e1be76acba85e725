// Figure 13: the online model reuse scheme (§4). A HUNTER model trained on
// Sysbench RW with one read/write ratio is fine-tuned on the other ratio
// (HUNTER-MR) and compared against HUNTER from scratch and HUNTER-5
// (5 clones). The two workloads share key knobs and compressed-state
// dimension, which is what the matching module checks.
// Paper: HUNTER-MR's peak is slightly below HUNTER's, but it reaches its
// optimum 8-10 hours sooner, approaching HUNTER-5's efficiency.

#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "bench/bench_common.h"
#include "common/table_printer.h"

namespace hunter::bench {
namespace {

core::HunterModel TrainModel(const Scenario& scenario, uint64_t seed) {
  auto controller = MakeController(scenario, 1, 42);
  auto tuner = MakeHunter(scenario, core::HunterOptions{}, seed);
  tuners::HarnessOptions harness;
  harness.budget_hours = 40.0;
  tuners::RunTuning(tuner.get(), controller.get(), harness);
  auto model = tuner->ExportModel();
  return model.value();
}

void RunDirection(const Scenario& source, const Scenario& target,
                  core::ModelRegistry* registry, uint64_t seed) {
  std::printf("\n### %s <- %s\n\n", target.name.c_str(), source.name.c_str());
  tuners::HarnessOptions harness;
  harness.budget_hours = 40.0;
  std::vector<tuners::TuningResult> results;

  {  // HUNTER from scratch.
    auto controller = MakeController(target, 1, 42);
    auto tuner = MakeHunter(target, core::HunterOptions{}, seed);
    results.push_back(
        tuners::RunTuning(tuner.get(), controller.get(), harness));
  }
  {  // HUNTER-5.
    auto controller = MakeController(target, 5, 42);
    auto tuner = MakeHunter(target, core::HunterOptions{}, seed);
    tuner->set_name("HUNTER-5");
    results.push_back(
        tuners::RunTuning(tuner.get(), controller.get(), harness));
  }
  {  // HUNTER-MR: match by signature, import, fine-tune.
    const core::HunterModel trained = TrainModel(source, seed);
    registry->Store(trained);
    auto matched = registry->Match(trained.signature);
    auto controller = MakeController(target, 1, 42);
    auto tuner = MakeHunter(target, core::HunterOptions{}, seed + 1);
    tuner->set_name("HUNTER-MR");
    // Importing skips the Sample Factory and Optimizer.
    if (matched.has_value() && !tuner->ImportModel(*matched)) {
      std::fprintf(stderr, "HUNTER-MR: the matched model was refused\n");
      std::exit(1);
    }
    results.push_back(
        tuners::RunTuning(tuner.get(), controller.get(), harness));
  }

  PrintThroughputCurves(results, {2, 5, 8, 12, 16, 20, 25, 30, 40}, 1.0,
                        "txn/s");
  std::printf("\n");
  PrintSummaries(results, 1.0, "txn/s");
}

}  // namespace
}  // namespace hunter::bench

int main() {
  using namespace hunter;
  std::printf("## Figure 13: online model reuse on MySQL Sysbench RW\n");
  core::ModelRegistry registry;
  auto rw41 = bench::MySqlSysbenchRwRatio(4.0);
  auto rw11 = bench::MySqlSysbenchRwRatio(1.0);
  bench::RunDirection(rw11, rw41, &registry, 7);  // 4:1 <- 1:1
  bench::RunDirection(rw41, rw11, &registry, 7);  // 1:1 <- 4:1
  std::printf(
      "\npaper shape: HUNTER-MR peaks slightly below HUNTER but reaches its "
      "optimum ~8-10 h sooner, approaching HUNTER-5's efficiency.\n");
  return 0;
}
