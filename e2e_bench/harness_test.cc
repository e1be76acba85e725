// Tests of the benchmark itself: timing a run from outside must not
// perturb it, and the span bookkeeping must add up.

#include "e2e_bench/harness.h"

#include <gtest/gtest.h>

#include <string>

namespace hunter::e2e {
namespace {

// A short budget of a workload: long enough for HUNTER to leave the Sample
// Factory, run the Search Space Optimizer and train DDPG.
WorkloadSpec Short(const std::string& name, double budget_hours) {
  const WorkloadSpec* spec = FindWorkload(name);
  EXPECT_NE(spec, nullptr) << name;
  WorkloadSpec copy = *spec;
  copy.budget_hours = budget_hours;
  return copy;
}

void ExpectUnperturbed(const WorkloadSpec& spec) {
  const uint64_t seed = RunSeed(7, 0);
  const std::string plain = RunPlainJournal(spec, seed);
  const RunOutcome untraced = RunOnce(spec, seed, nullptr, 0);
  SpanLog spans;
  const RunOutcome traced = RunOnce(spec, seed, &spans, 0);

  EXPECT_TRUE(untraced.failures.empty()) << untraced.failures.front();
  EXPECT_TRUE(traced.failures.empty()) << traced.failures.front();
  EXPECT_EQ(untraced.journal, plain);
  EXPECT_EQ(traced.journal, plain);
  EXPECT_TRUE(CompareOutcomes(untraced, traced).empty());
  EXPECT_FALSE(untraced.round_ms.empty());
  EXPECT_EQ(untraced.round_ms.size(), untraced.curve.size());
  EXPECT_FALSE(spans.spans().empty());
}

TEST(NonPerturbation, HunterTpccJournalMatchesPlainRunTuning) {
  const WorkloadSpec spec = Short("hunter-tpcc", 8.0);
  ExpectUnperturbed(spec);
  const RunOutcome run = RunOnce(spec, RunSeed(7, 0), nullptr, 0);
  EXPECT_GE(run.sso_calls, 1.0);  // the short budget reaches the optimizer
  EXPECT_GT(run.ddpg_train_steps, 0.0);
}

TEST(NonPerturbation, Hunter20PgFaultsJournalMatchesPlainRunTuning) {
  const WorkloadSpec spec = Short("hunter20-pg-faults", 2.0);
  ExpectUnperturbed(spec);
  const RunOutcome run = RunOnce(spec, RunSeed(7, 0), nullptr, 0);
  EXPECT_GT(run.retries, 0.0);  // the fault schedule fires
  EXPECT_EQ(run.evaluation_failed, 0u);
}

TEST(NonPerturbation, LookupsRegisterNoMetricNames) {
  // BestConfig registers no hunter.* series; the decorator looks one up.
  // A lookup that registered it would add it to the journal schema.
  const WorkloadSpec spec = Short("bestconfig-prod", 2.0);
  const RunOutcome run = RunOnce(spec, RunSeed(7, 0), nullptr, 0);
  EXPECT_EQ(run.journal.find("hunter.sso_refreshes"), std::string::npos);
  EXPECT_EQ(run.journal, RunPlainJournal(spec, RunSeed(7, 0)));
}

TEST(CompareOutcomes, ReportsEveryDifference) {
  const WorkloadSpec spec = Short("bestconfig-prod", 1.0);
  const RunOutcome a = RunOnce(spec, RunSeed(3, 0), nullptr, 0);
  EXPECT_TRUE(CompareOutcomes(a, a).empty());
  RunOutcome b = a;
  b.journal.back() = 'x';
  b.steps += 1;
  b.best_knobs.at(0) += 1e-12;
  b.curve.back().hours += 1e-12;
  EXPECT_EQ(CompareOutcomes(a, b).size(), 4u);
}

TEST(SummarizeSpans, SelfTimeExcludesChildrenAndCoverageExcludesStructure) {
  SpanLog log;
  const int run = log.Open("run", -1, 0, 0);
  log.Add("setup", run, 0, 0, 10);
  const int round = log.Open("round", run, 0, 10);
  log.Add("tuners.propose", round, 0, 10, 30);
  log.Add("controller.evaluate", round, 0, 30, 80);
  log.Close(round, 90);  // 10 ns of round self time
  log.Close(run, 100);   // 10 ns of run self time

  const LayerTable table = SummarizeSpans(log);
  EXPECT_EQ(table.runs, 1u);
  EXPECT_DOUBLE_EQ(table.run_ms, 100e-6);
  EXPECT_DOUBLE_EQ(table.self_ms.at("run"), 10e-6);
  EXPECT_DOUBLE_EQ(table.self_ms.at("round"), 10e-6);
  EXPECT_DOUBLE_EQ(table.self_ms.at("controller.evaluate"), 50e-6);
  EXPECT_DOUBLE_EQ(table.coverage, 0.8);  // setup + propose + evaluate
}

TEST(Workloads, SeedsDeriveFromTheWorkloadSeed) {
  EXPECT_EQ(RunSeed(1, 0), RunSeed(1, 0));
  EXPECT_NE(RunSeed(1, 0), RunSeed(1, 1));
  EXPECT_NE(RunSeed(1, 0), RunSeed(2, 0));
  EXPECT_EQ(FindWorkload("no-such-workload"), nullptr);
  EXPECT_EQ(Workloads().size(), 4u);
}

}  // namespace
}  // namespace hunter::e2e
