// End-to-end tuning-run benchmark: whole tuning runs driven through the
// public harness (tuners::RunTuning), timed from outside.
//
// The tuner under test is wrapped in TimedTuner, a tuners::Tuner decorator
// that forwards every call and timestamps it. That times the tuner layer
// (tuners/, hunter/) through Propose and Observe, and the controller layer
// (controller/ with cdb/ and obs/ inside it) as the gap from a Propose
// return to the next Observe entry. A traced run additionally records one
// span per call in memory; spans never touch the run journal, so a traced
// and an untraced run with the same seed produce identical journals.

#ifndef HUNTER_E2E_BENCH_HARNESS_H_
#define HUNTER_E2E_BENCH_HARNESS_H_

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "tuners/tuner.h"

namespace hunter::e2e {

// One benchmark workload: a tuner, a bench_common scenario and a fixed
// simulated budget. Each is a closed loop with one client (the tuner),
// which waits for every batch; the batch size is the clone count.
struct WorkloadSpec {
  std::string name;
  std::string tuner;     // paper name, as bench::MakeTuner takes it
  // "mysql-tpcc", "mysql-sbwo", "mysql-prod9am" or "pg-tpcc".
  std::string scenario;
  int clones = 1;
  double budget_hours = 0.0;
  bool faults = false;   // the bench_fault_tolerance fault schedule
  // Tuning runs of the first pass, each with its own seed derived from the
  // workload seed. The tuning results (best_tps, mean_best_tps) are medians
  // over them, so one unlucky trajectory does not decide a run's figures.
  int runs = 1;
  // How many of those runs (the first ones) every later pass repeats. The
  // timings come from these alone, each the fastest over its repeats.
  int timed_runs = 1;
};

const std::vector<WorkloadSpec>& Workloads();
// Null when `name` is not a workload.
const WorkloadSpec* FindWorkload(const std::string& name);

// Seed of tuning run `index` of a pass, and the controller / tuner / fault
// seeds of that run: all derive from the workload seed.
uint64_t RunSeed(uint64_t workload_seed, int index);

// Monotonic host time in nanoseconds (steady clock).
int64_t NowNs();

// Spans recorded by traced runs, kept in memory until the benchmark ends.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int parent = -1;  // index into SpanLog::spans(), -1 for a root
  int run_id = 0;
};

class SpanLog {
 public:
  // Appends a span that is still open; returns its index.
  int Open(const char* name, int parent, int run_id, int64_t start_ns);
  void Close(int index, int64_t end_ns) { spans_[index].end_ns = end_ns; }
  int Add(const char* name, int parent, int run_id, int64_t start_ns,
          int64_t end_ns);
  const std::vector<Span>& spans() const { return spans_; }
  // One JSON object per span, times in ns since the first span.
  void WriteJsonl(std::ostream& out) const;

 private:
  std::vector<Span> spans_;
};

// Per-layer self time over every run in a span log. A span's self time is
// its duration minus that of its children.
struct LayerTable {
  std::map<std::string, double> self_ms;  // by span name
  std::map<std::string, size_t> calls;    // by span name
  std::map<std::string, std::vector<double>> durations_ms;  // by span name
  double run_ms = 0.0;   // summed duration of the "run" roots
  size_t runs = 0;
  // Share of run time covered by layer spans: every span except the
  // structural "run" and "round".
  double coverage = 0.0;
};
LayerTable SummarizeSpans(const SpanLog& log);

// What one tuning run produced and cost.
struct RunOutcome {
  // Tuning results (repeat exactly for a seed).
  size_t steps = 0;             // configurations evaluated
  size_t evaluation_failed = 0; // configurations the fleet gave up on
  double best_tps = 0.0;
  double rec_hours = 0.0;
  // Best throughput so far, averaged over the simulated tuning time (the
  // area under the Fig. 9 curve divided by its length).
  double mean_best_tps = 0.0;
  std::vector<double> best_knobs;
  std::vector<tuners::CurvePoint> curve;
  std::string journal;          // the serialized run journal
  size_t journal_hash = 0;      // std::hash of `journal`

  // Host costs.
  double wall_s = 0.0;          // RunTuning plus journal serialization
  double cpu_s = 0.0;           // process user+sys over the same interval
  double peak_rss_mb = 0.0;     // process peak resident memory after the run
  std::vector<double> round_ms; // Propose entry to Observe exit
  double propose_ms = 0.0;      // summed over every Propose call
  double observe_ms = 0.0;      // summed over every Observe call

  // Counters read after the run (registry lookups never register names).
  double attempts = 0.0;
  double retries = 0.0;
  double straggler_timeouts = 0.0;
  double reclones = 0.0;
  double failed_samples = 0.0;
  double eval_cache_hits = 0.0;
  double eval_cache_misses = 0.0;
  double buffer_pool_hit_ratio_mean = 0.0;
  double pool_resets = 0.0;
  double pool_slab_reuses = 0.0;
  double ga_generations = 0.0;
  double ddpg_train_steps = 0.0;
  double gp_full_refits = 0.0;
  double gp_incremental_refits = 0.0;
  double sso_calls = 0.0;
  double sso_pool_samples = 0.0;  // pool size summed over SSO refreshes
  double journal_records = 0.0;
  double journal_bytes = 0.0;

  // Correctness checks that failed, empty when the run is correct.
  std::vector<std::string> failures;
};

// Builds workload `spec` for `seed`, runs it to its budget through
// tuners::RunTuning with the tuner wrapped in TimedTuner, serializes the
// journal in memory and runs the per-run correctness checks. With `spans`
// non-null the run is traced under `run_id`.
RunOutcome RunOnce(const WorkloadSpec& spec, uint64_t seed, SpanLog* spans,
                   int run_id);

// Seconds to build workload `spec` for `seed` (scenario, user instance,
// controller with its clones, tuner), without running it.
double TimeSetup(const WorkloadSpec& spec, uint64_t seed);

// Same run, no decorator, no timing: plain tuners::RunTuning on the raw
// tuner. Returns the serialized journal (the non-perturbation reference).
std::string RunPlainJournal(const WorkloadSpec& spec, uint64_t seed);

// Differences between two runs of one seed that must be identical: steps,
// best knobs, curve and journal bytes. Empty when identical.
std::vector<std::string> CompareOutcomes(const RunOutcome& a,
                                         const RunOutcome& b);

}  // namespace hunter::e2e

#endif  // HUNTER_E2E_BENCH_HARNESS_H_
