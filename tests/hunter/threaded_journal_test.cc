// Threaded-vs-serial gate for a whole HUNTER run. With concurrent actors the
// Controller stress-tests each round's clones on its pool and the Search
// Space Optimizer fits its forest on the same pool (the journal's
// executor), both with the calling thread as one more worker. Neither may
// change a byte of the run journal: every lane writes only its own outcome
// and every tree draws only from its own forked RNG. Runs under the
// `concurrency` ctest label, so the TSan and ASan configurations race-check
// both parallel sections.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "cdb/cdb_instance.h"
#include "cdb/knob_catalog.h"
#include "controller/controller.h"
#include "hunter/hunter.h"
#include "obs/journal.h"
#include "tuners/tuner.h"
#include "workload/workloads.h"

namespace hunter {
namespace {

struct ThreadedRun {
  std::string journal_bytes;
  bool had_executor = false;
  double sso_refreshes = 0.0;
  size_t largest_sifted_pool = 0;  // samples behind the biggest RF refresh
};

ThreadedRun RunHunter(int clones, bool concurrent_actors, uint64_t seed) {
  cdb::KnobCatalog catalog = cdb::PostgresCatalog();
  auto user_instance = std::make_unique<cdb::CdbInstance>(
      &catalog, cdb::PostgresEvaluationInstance(),
      cdb::PostgresEngineTuning(), seed);

  controller::ControllerOptions controller_options;
  controller_options.num_clones = clones;
  controller_options.seed = seed;
  controller_options.concurrent_actors = concurrent_actors;
  controller_options.max_pool_threads = 2;
  controller_options.faults.seed = seed;
  controller_options.faults.transient_deploy_failure_rate = 0.08;
  controller_options.faults.crash_rate = 0.04;
  controller_options.faults.straggler_rate = 0.2;
  controller_options.straggler_timeout_seconds = 400.0;
  controller::Controller controller(std::move(user_instance),
                                    workload::Tpcc(), controller_options);

  // A small GA and frequent re-sifts, so the run reaches several
  // forest-backed refreshes (the forest needs a pool of 16 samples).
  core::HunterOptions hunter_options;
  hunter_options.ga.target_samples = 18;
  hunter_options.reoptimize_every = 12;
  hunter_options.optimizer.forest.num_trees = 24;
  hunter_options.recommender.warm_start_updates = 20;
  core::HunterTuner hunter(&catalog, core::Rules(), hunter_options, seed + 1);
  tuners::HarnessOptions harness;
  harness.budget_hours = 3.0;
  tuners::RunTuning(&hunter, &controller, harness);

  ThreadedRun run;
  std::ostringstream os;
  controller.journal().Write(os);
  run.journal_bytes = os.str();
  run.had_executor = controller.journal().executor() != nullptr;
  run.sso_refreshes = controller.metrics_registry()
                          .RegisterCounter("hunter.sso_refreshes")
                          ->value();
  for (const obs::Record& record : controller.journal().records()) {
    if (record.type != obs::Record::Type::kEvent ||
        record.event.name != "search_space_optimized") {
      continue;
    }
    for (const obs::Attr& attr : record.event.attrs) {
      if (attr.key == "pool_samples") {
        run.largest_sifted_pool = std::max<size_t>(
            run.largest_sifted_pool, std::stoul(attr.value));
      }
    }
  }
  return run;
}

TEST(ThreadedJournalTest, PoolAndForestOnThreadsMatchSerialByteForByte) {
  for (const int clones : {2, 3, 4}) {
    const ThreadedRun serial = RunHunter(clones, false, 42);
    const ThreadedRun threaded = RunHunter(clones, true, 42);
    EXPECT_FALSE(serial.had_executor);
    EXPECT_TRUE(threaded.had_executor) << "clones=" << clones;
    // The gate is only meaningful if the forest actually ran on the pool.
    EXPECT_GE(threaded.sso_refreshes, 1.0) << "clones=" << clones;
    EXPECT_GE(threaded.largest_sifted_pool, 16u) << "clones=" << clones;
    EXPECT_EQ(threaded.journal_bytes, serial.journal_bytes)
        << "clones=" << clones;
  }
}

}  // namespace
}  // namespace hunter
