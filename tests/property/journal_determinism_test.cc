// End-to-end determinism properties of the run journal (DESIGN.md §10),
// pinned on a full Controller + HUNTER tuning run with faults enabled:
//
//  * two runs with the same seed serialize byte-identical journals;
//  * folding the charged spans in record order reproduces the simulated
//    clock total bit-exactly (no double- or missed charges anywhere in the
//    tuning loop, including retry/crash/straggler/reclone paths);
//  * runs with different seeds tell different stories but share the same
//    schema: same meta keys, same ordered metric-name vocabulary, same
//    Table-1 stage vocabulary.

#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

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

struct RunDigest {
  std::string journal_bytes;
  double clock_seconds = 0.0;
  double folded_charged_seconds = 0.0;  // record-order fold over charged spans
  double tracer_charged_seconds = 0.0;
  std::vector<std::string> meta_keys;
  std::vector<std::string> metric_names;  // from the first metrics record
  std::set<std::string> stages;
  size_t records = 0;
};

// One small tuning run (2 clones, ~0.8 simulated hours, faults on) — the
// same shape as examples/trace_journal.cpp, reduced for test runtime.
RunDigest RunOnce(uint64_t seed) {
  cdb::KnobCatalog catalog = cdb::MySqlCatalog();
  auto user_instance = std::make_unique<cdb::CdbInstance>(
      &catalog, cdb::MySqlEvaluationInstance(), cdb::MySqlEngineTuning(),
      seed);

  controller::ControllerOptions controller_options;
  controller_options.num_clones = 2;
  controller_options.seed = seed;
  controller_options.concurrent_actors = false;
  controller_options.faults.seed = seed;
  controller_options.faults.transient_deploy_failure_rate = 0.08;
  controller_options.faults.crash_rate = 0.04;
  controller_options.faults.straggler_rate = 0.25;
  controller_options.straggler_timeout_seconds = 400.0;
  controller::Controller controller(std::move(user_instance),
                                    workload::Tpcc(), controller_options);

  core::HunterOptions hunter_options;
  hunter_options.ga.target_samples = 8;
  core::HunterTuner hunter(&catalog, core::Rules(), hunter_options, seed + 1);
  tuners::HarnessOptions harness;
  harness.budget_hours = 0.8;
  const tuners::TuningResult result =
      tuners::RunTuning(&hunter, &controller, harness);
  controller.DeployToUser(result.best_sample.knobs);

  RunDigest digest;
  std::ostringstream os;
  controller.journal().Write(os);
  digest.journal_bytes = os.str();
  digest.clock_seconds = controller.clock().seconds();
  digest.tracer_charged_seconds =
      controller.journal().tracer().charged_seconds();
  digest.records = controller.journal().records().size();
  for (const obs::Attr& attr : controller.journal().meta()) {
    digest.meta_keys.push_back(attr.key);
  }
  for (const obs::Record& r : controller.journal().records()) {
    switch (r.type) {
      case obs::Record::Type::kSpan:
        digest.stages.insert(r.span.stage);
        if (r.span.charged) {
          digest.folded_charged_seconds += r.span.duration_seconds;
        }
        break;
      case obs::Record::Type::kMetrics:
        if (digest.metric_names.empty()) {
          for (const obs::MetricSnapshot& m : r.metrics) {
            digest.metric_names.push_back(m.name);
          }
        }
        break;
      case obs::Record::Type::kEvent:
        break;
    }
  }
  return digest;
}

TEST(JournalDeterminismTest, SameSeedRunsAreByteIdentical) {
  const RunDigest a = RunOnce(42);
  const RunDigest b = RunOnce(42);
  ASSERT_GT(a.records, 0u);
  EXPECT_EQ(a.journal_bytes, b.journal_bytes);
  EXPECT_DOUBLE_EQ(a.clock_seconds, b.clock_seconds);
}

TEST(JournalDeterminismTest, ChargedSpansReproduceClockTotalExactly) {
  const RunDigest digest = RunOnce(42);
  // Bit-exact, not approximate: the fold replays the identical sequence of
  // IEEE additions the clock performed, starting from zero.
  EXPECT_DOUBLE_EQ(digest.folded_charged_seconds, digest.clock_seconds);
  EXPECT_DOUBLE_EQ(digest.tracer_charged_seconds, digest.clock_seconds);
  EXPECT_GT(digest.clock_seconds, 0.0);
}

TEST(JournalDeterminismTest, DifferentSeedsShareTheSchema) {
  const RunDigest a = RunOnce(42);
  const RunDigest b = RunOnce(43);
  // Different runs...
  EXPECT_NE(a.journal_bytes, b.journal_bytes);
  // ...same schema: meta keys, metric vocabulary (names and order), and
  // every span stage drawn from the Table-1 vocabulary.
  EXPECT_EQ(a.meta_keys, b.meta_keys);
  ASSERT_FALSE(a.metric_names.empty());
  EXPECT_EQ(a.metric_names, b.metric_names);
  const std::set<std::string> known = {"deploy",       "execution",
                                       "collection",   "model_update",
                                       "backoff",      "recovery"};
  for (const std::string& stage : a.stages) {
    EXPECT_TRUE(known.count(stage)) << stage;
  }
  for (const std::string& stage : b.stages) {
    EXPECT_TRUE(known.count(stage)) << stage;
  }
  // Both journals parse under the same schema tag.
  for (const RunDigest* d : {&a, &b}) {
    std::istringstream in(d->journal_bytes);
    obs::ParsedJournal parsed;
    std::string error;
    ASSERT_TRUE(obs::ParseJournal(in, &parsed, &error)) << error;
    EXPECT_EQ(parsed.schema, obs::kJournalSchema);
  }
}

}  // namespace
}  // namespace hunter
