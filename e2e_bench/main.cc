// e2e_bench: runs whole tuning runs of one workload for a given time and
// prints its end-to-end metrics (--trace 0) or its per-layer metrics and
// layer table (--trace 1). The last line of stdout is one JSON object:
//   {"correct":..., "attempted":..., "failed":..., "metrics":{...}}
//
//   e2e_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans-out <file>]
//
// (`--setup-probe 1` is internal: the untraced run starts itself in that
// mode in child processes between passes to time setup; see
// kSetupProbesPerPass.)
//
// A run repeats passes until the deadline is nearer than half a pass (and,
// untraced, for at least kMinPasses passes). The first pass is the
// workload's `runs` tuning runs, each with its own seed derived from
// --seed; every later pass repeats the first `timed_runs` of them. Runs
// are untraced (--trace 0) or traced (--trace 1). A traced run has an
// untraced twin, run just before or after it in alternating order: the two
// must agree exactly, and their wall times give the tracing overhead.
// End-to-end numbers come only from untraced runs.
//
// A repeat replays its tuning run round for round (the journals must
// match), so each timing of a timed run is taken as its minimum over the
// passes. On a shared host other tenants slow most of a fixed piece of
// work's repeats, by 10-60% and by a share that drifts over minutes, while
// its fastest repeat stays within a few percent.
//
// Every run is checked (see harness.h), and every later pass must repeat
// the first one's journals (compared by hash). A failed check counts that
// run's configurations as failed and makes the exit code 1.

#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/stats.h"
#include "common/text.h"
#include "e2e_bench/harness.h"
#include "linalg/simd/simd.h"

#ifndef E2E_BENCH_BUILD_TYPE
#define E2E_BENCH_BUILD_TYPE "unknown"
#endif

namespace hunter::e2e {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string spans_out;
  bool setup_probe = false;  // internal: see kSetupProbesPerPass
};

bool ParseUnsigned(const std::string& text, uint64_t* value) {
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, *value);
  return ec == std::errc() && ptr == end && !text.empty();
}

bool ParseArgs(int argc, char** argv, Args* args, std::string* error) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      *error = "missing value after " + flag;
      return false;
    }
    const std::string value = argv[++i];
    uint64_t number = 0;
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      if (!ParseUnsigned(value, &args->seed)) {
        *error = "--seed takes an unsigned integer";
        return false;
      }
      have_seed = true;
    } else if (flag == "--seconds") {
      if (!ParseUnsigned(value, &number) || number == 0 || number > 3600) {
        *error = "--seconds takes an integer in [1, 3600]";
        return false;
      }
      args->seconds = static_cast<double>(number);
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") {
        *error = "--trace takes 0 or 1";
        return false;
      }
      args->trace = value == "1" ? 1 : 0;
    } else if (flag == "--spans-out") {
      args->spans_out = value;
    } else if (flag == "--setup-probe") {
      args->setup_probe = value == "1";
    } else {
      *error = "unknown flag " + flag;
      return false;
    }
  }
  if (FindWorkload(args->workload) == nullptr) {
    *error = "unknown or missing --workload '" + args->workload + "'";
    return false;
  }
  if (args->setup_probe && have_seed) return true;
  if (!have_seed || args->seconds <= 0.0 || args->trace < 0) {
    *error = "--seed, --seconds and --trace are required";
    return false;
  }
  return true;
}

double Median(std::vector<double> values) {
  return common::Percentile(std::move(values), 50.0);
}

// Untraced passes every invocation makes, whatever --seconds says, so that
// each timing is a minimum over at least this many repeats.
constexpr size_t kMinPasses = 5;

// The highest of p99.9, p99, p90 and p75 that leaves at least ten of a
// tuning run's rounds beyond it, for the fewest rounds any run of the first
// pass had (fixed by the seed, so the choice does not change with host
// speed). round_ms_tail is that percentile of each run's fastest rounds,
// then the median over the runs.
double TailPercentile(size_t rounds_per_run) {
  for (const double p : {99.9, 99.0, 90.0, 75.0}) {
    if (static_cast<double>(rounds_per_run) * (100.0 - p) / 100.0 >= 10.0) {
      return p;
    }
  }
  return 50.0;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// setup_s: a setup takes tens of microseconds, and its times in one process
// share a bias that lasts the whole process (repeat runs of one seed differ
// by up to 1.5x, each steady within itself), and host speed drifts over
// seconds. So an untraced run starts kSetupProbesPerPass fresh processes
// after each pass, each timing kSetupSamples setups, and setup_s is the
// median over the processes of each one's median.
constexpr int kSetupProbesPerPass = 3;
constexpr int kSetupSamples = 40;

// --setup-probe mode: prints the median seconds of kSetupSamples setups.
int SetupProbe(const WorkloadSpec& spec, uint64_t seed) {
  std::vector<double> samples;
  for (int i = 0; i < kSetupSamples; ++i) {
    samples.push_back(TimeSetup(spec, RunSeed(seed, i % spec.runs)));
  }
  std::printf("%s\n", common::FormatDouble17(Median(samples)).c_str());
  return 0;
}

// Runs `self` in --setup-probe mode in a child process, waits for it and
// returns the seconds it printed; negative when the child failed.
double SpawnSetupProbe(const char* self, const Args& args) {
  int fds[2];
  if (pipe(fds) != 0) return -1.0;
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::string seed = std::to_string(args.seed);
  std::string workload = args.workload;
  std::string flag_workload = "--workload";
  std::string flag_seed = "--seed";
  std::string flag_probe = "--setup-probe";
  std::string one = "1";
  std::vector<char*> argv = {const_cast<char*>(self), flag_workload.data(),
                             workload.data(), flag_seed.data(), seed.data(),
                             flag_probe.data(), one.data(), nullptr};
  pid_t pid = 0;
  const int spawned =
      posix_spawn(&pid, self, &actions, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  std::string out;
  char buffer[256];
  ssize_t n = 0;
  while ((n = read(fds[0], buffer, sizeof buffer)) > 0) {
    out.append(buffer, static_cast<size_t>(n));
  }
  close(fds[0]);
  if (spawned != 0) return -1.0;
  int status = 0;
  if (waitpid(pid, &status, 0) != pid || !WIFEXITED(status) ||
      WEXITSTATUS(status) != 0) {
    return -1.0;
  }
  double seconds = -1.0;
  const char* begin = out.data();
  const auto [ptr, ec] = std::from_chars(begin, begin + out.size(), seconds);
  return ec == std::errc() && ptr != begin ? seconds : -1.0;
}

class Ledger {
 public:
  // Books a run's configurations; a run with a failed check counts all of
  // them as failed.
  void Book(const RunOutcome& run, const std::vector<std::string>& failures,
            const std::string& label) {
    attempted_ += run.steps;
    if (failures.empty()) {
      failed_ += run.evaluation_failed;
      return;
    }
    failed_ += run.steps;
    for (const std::string& failure : failures) {
      std::printf("CHECK FAILED [%s]: %s\n", label.c_str(), failure.c_str());
    }
    correct_ = false;
  }
  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }
  bool correct() const { return correct_; }

 private:
  size_t attempted_ = 0;
  size_t failed_ = 0;
  bool correct_ = true;
};

// What the passes of one invocation measured: untraced runs, or traced
// runs and the overhead against each one's untraced twin.
struct Passes {
  std::vector<std::vector<RunOutcome>> runs;  // [pass][run]
  std::vector<double> overhead_pct;           // one per traced run
};

std::vector<Metric> EndToEndMetrics(const Passes& passes, double setup_s,
                                    const Ledger& ledger) {
  std::vector<double> best_tps;
  std::vector<double> mean_best_tps;
  std::vector<double> rec_hours;
  size_t fewest_rounds = std::numeric_limits<size_t>::max();
  for (const RunOutcome& run : passes.runs.front()) {
    best_tps.push_back(run.best_tps);
    mean_best_tps.push_back(run.mean_best_tps);
    rec_hours.push_back(run.rec_hours);
    fewest_rounds = std::min(fewest_rounds, run.round_ms.size());
  }
  const double tail_p = TailPercentile(fewest_rounds);
  // Per timed run: each round's fastest time over the passes (every pass
  // repeats the run round for round; a run whose journal differed has
  // already failed its check), and the fastest of the rest of its wall time
  // (the baseline measurement, the loop outside the rounds, the journal).
  // Its wall_s is the sum of the two: the run with every part at its
  // fastest.
  std::vector<double> walls;
  std::vector<double> rounds;
  std::vector<double> tails;
  // The last pass holds just the timed runs (there are at least kMinPasses
  // passes).
  for (size_t i = 0; i < passes.runs.back().size(); ++i) {
    std::vector<double> fastest = passes.runs.front()[i].round_ms;
    double rest_s = std::numeric_limits<double>::infinity();
    for (const std::vector<RunOutcome>& pass : passes.runs) {
      const RunOutcome& run = pass[i];
      double rounds_ms = 0.0;
      for (const double ms : run.round_ms) rounds_ms += ms;
      rest_s = std::min(rest_s, run.wall_s - rounds_ms / 1e3);
      const size_t n = std::min(fastest.size(), run.round_ms.size());
      for (size_t k = 0; k < n; ++k) {
        fastest[k] = std::min(fastest[k], run.round_ms[k]);
      }
    }
    double wall = rest_s;
    for (const double ms : fastest) wall += ms / 1e3;
    walls.push_back(wall);
    rounds.insert(rounds.end(), fastest.begin(), fastest.end());
    tails.push_back(common::Percentile(fastest, tail_p));
  }
  std::printf("timings are minima over %zu passes; round_ms_p50 over n=%zu "
              "rounds; round_ms_tail is the median over %zu runs of each "
              "run's p%s (fewest rounds in a run: %zu)\n",
              passes.runs.size(), rounds.size(), tails.size(),
              common::FormatDouble17(tail_p).c_str(), fewest_rounds);
  std::printf("rec_hours (median over the first pass, not bounded) = %s h\n",
              common::FormatDouble17(Median(rec_hours)).c_str());
  const double ok_share =
      1.0 - static_cast<double>(ledger.failed()) /
                static_cast<double>(std::max<size_t>(1, ledger.attempted()));
  return {
      {"wall_s", Median(walls), "s"},
      {"round_ms_p50", Median(rounds), "ms"},
      {"round_ms_tail", Median(tails), "ms"},
      {"setup_s", setup_s, "s"},
      // Read before any check ran: the checks' own memory is not the
      // workload's.
      {"peak_rss_mb", passes.runs.front().front().peak_rss_mb, "MB"},
      {"best_tps", Median(best_tps), "txn/s"},
      {"mean_best_tps", Median(mean_best_tps), "txn/s"},
      {"ok_share", ok_share, "ratio"},
  };
}

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

std::vector<Metric> PerLayerMetrics(const Passes& passes,
                                    const LayerTable& table) {
  double n = 0.0;
  RunOutcome sum;  // per-run figures summed over the traced runs
  for (const std::vector<RunOutcome>& pass : passes.runs) {
    for (const RunOutcome& t : pass) {
      n += 1.0;
      sum.cpu_s += t.cpu_s;
      sum.steps += t.steps;
      sum.propose_ms += t.propose_ms;
      sum.observe_ms += t.observe_ms;
      sum.attempts += t.attempts;
      sum.retries += t.retries;
      sum.straggler_timeouts += t.straggler_timeouts;
      sum.reclones += t.reclones;
      sum.failed_samples += t.failed_samples;
      sum.eval_cache_hits += t.eval_cache_hits;
      sum.eval_cache_misses += t.eval_cache_misses;
      sum.buffer_pool_hit_ratio_mean += t.buffer_pool_hit_ratio_mean;
      sum.pool_resets += t.pool_resets;
      sum.pool_slab_reuses += t.pool_slab_reuses;
      sum.ga_generations += t.ga_generations;
      sum.ddpg_train_steps += t.ddpg_train_steps;
      sum.gp_full_refits += t.gp_full_refits;
      sum.gp_incremental_refits += t.gp_incremental_refits;
      sum.sso_calls += t.sso_calls;
      sum.sso_pool_samples += t.sso_pool_samples;
      sum.journal_records += t.journal_records;
      sum.journal_bytes += t.journal_bytes;
    }
  }
  const auto per_run = [&](double total) { return total / n; };
  // Layer spans are leaves, so their self time is their whole time.
  const auto layer_ms = [&](const std::string& name) {
    const auto it = table.self_ms.find(name);
    return it == table.self_ms.end() ? 0.0 : it->second / n;
  };
  const auto evaluate = table.durations_ms.find("controller.evaluate");
  const double evaluate_p50 =
      evaluate == table.durations_ms.end() ? 0.0 : Median(evaluate->second);
  return {
      {"controller.evaluate_ms", layer_ms("controller.evaluate"), "ms"},
      {"controller.evaluate_ms_p50", evaluate_p50, "ms"},
      {"controller.baseline_ms", layer_ms("controller.baseline"), "ms"},
      {"controller.attempts", per_run(sum.attempts), "count"},
      {"controller.retries", per_run(sum.retries), "count"},
      {"controller.straggler_timeouts", per_run(sum.straggler_timeouts),
       "count"},
      {"controller.reclones", per_run(sum.reclones), "count"},
      {"controller.failed_samples", per_run(sum.failed_samples), "count"},
      {"controller.useful_attempt_ratio",
       Ratio(static_cast<double>(sum.steps), sum.attempts), "ratio"},
      {"cdb.eval_cache_hits", per_run(sum.eval_cache_hits), "count"},
      {"cdb.eval_cache_hit_ratio",
       Ratio(sum.eval_cache_hits, sum.eval_cache_hits + sum.eval_cache_misses),
       "ratio"},
      {"cdb.buffer_pool_hit_ratio_mean",
       per_run(sum.buffer_pool_hit_ratio_mean), "%"},
      {"cdb.pool_slab_reuse_ratio",
       Ratio(sum.pool_slab_reuses, sum.pool_resets), "ratio"},
      {"hunter.ga_ms", layer_ms("hunter.ga"), "ms"},
      {"hunter.ga_generations", per_run(sum.ga_generations), "count"},
      {"hunter.sso_ms", layer_ms("hunter.sso"), "ms"},
      {"hunter.sso_calls", per_run(sum.sso_calls), "count"},
      {"hunter.sso_pool_samples", per_run(sum.sso_pool_samples), "count"},
      {"hunter.ddpg_observe_ms", layer_ms("hunter.ddpg_observe"), "ms"},
      {"hunter.ddpg_propose_ms", layer_ms("hunter.ddpg_propose"), "ms"},
      {"hunter.ddpg_train_steps", per_run(sum.ddpg_train_steps), "count"},
      {"tuners.gp_ei_ms", layer_ms("tuners.gp_ei"), "ms"},
      {"tuners.gp_fit_ms", layer_ms("tuners.gp_fit"), "ms"},
      {"tuners.gp_incremental_ratio",
       Ratio(sum.gp_incremental_refits,
             sum.gp_incremental_refits + sum.gp_full_refits),
       "ratio"},
      {"tuners.propose_ms", per_run(sum.propose_ms), "ms"},
      {"tuners.observe_ms", per_run(sum.observe_ms), "ms"},
      {"obs.journal_write_ms", layer_ms("obs.journal_write"), "ms"},
      {"obs.journal_bytes", per_run(sum.journal_bytes), "bytes"},
      {"obs.journal_records", per_run(sum.journal_records), "count"},
      {"process.cpu_s", per_run(sum.cpu_s), "s"},
      {"trace.coverage", table.coverage, "ratio"},
      {"trace.overhead_pct", Median(passes.overhead_pct), "%"},
  };
}

void PrintLayerTable(const LayerTable& table) {
  std::vector<std::pair<double, std::string>> rows;
  for (const auto& [name, self] : table.self_ms) {
    if (name == "round") continue;  // fully covered by its children
    rows.emplace_back(self, name);
  }
  std::sort(rows.rbegin(), rows.rend());
  const double runs = static_cast<double>(std::max<size_t>(1, table.runs));
  std::printf("\nper-layer self time (traced runs: %zu, mean per run)\n",
              table.runs);
  std::printf("  %-22s %12s %8s %10s\n", "layer", "self ms", "share", "calls");
  for (const auto& [self, name] : rows) {
    std::printf("  %-22s %12.2f %7.2f%% %10.0f\n", name.c_str(), self / runs,
                100.0 * self / table.run_ms,
                static_cast<double>(table.calls.at(name)) / runs);
  }
  std::printf("  (the run row is harness time outside every layer span)\n");
  std::printf("trace.coverage = %.4f of traced wall\n\n", table.coverage);
}

void PrintResult(const Ledger& ledger, const std::vector<Metric>& metrics) {
  std::string line = "{\"correct\": ";
  line += ledger.correct() ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(ledger.attempted());
  line += ", \"failed\": " + std::to_string(ledger.failed());
  line += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    const Metric& m = metrics[i];
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::printf("%-32s %24s %s\n", m.name.c_str(),
                common::FormatDouble17(value).c_str(), m.unit.c_str());
    if (i > 0) line += ", ";
    line += "\"" + m.name + "\": {\"value\": " +
            common::FormatDouble17(value) + ", \"unit\": \"" + m.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

void PrintRun(int index, uint64_t seed, const RunOutcome& run) {
  std::printf(
      "run %d: seed %llu, %zu rounds, %zu configurations, best %s txn/s, "
      "mean best %s txn/s, rec %s h, wall %s s\n",
      index, static_cast<unsigned long long>(seed), run.round_ms.size(),
      run.steps,
      common::FormatDouble17(run.best_tps).c_str(),
      common::FormatDouble17(run.mean_best_tps).c_str(),
      common::FormatDouble17(run.rec_hours).c_str(),
      common::FormatDouble17(run.wall_s).c_str());
}

int Main(int argc, char** argv) {
  Args args;
  std::string error;
  if (!ParseArgs(argc, argv, &args, &error)) {
    std::fprintf(stderr, "e2e_bench: %s\n", error.c_str());
    return 2;
  }
  const WorkloadSpec& spec = *FindWorkload(args.workload);
  if (args.setup_probe) return SetupProbe(spec, args.seed);
  const bool traced = args.trace == 1;
  std::printf(
      "workload %s: %s, %d clone(s), %s simulated h%s, seed %llu\n"
      "host: nproc=%u linalg.simd_tier=%d (%s) build=%s\n",
      spec.name.c_str(), spec.tuner.c_str(), spec.clones,
      common::FormatDouble17(spec.budget_hours).c_str(),
      spec.faults ? ", fault schedule" : "",
      static_cast<unsigned long long>(args.seed),
      std::thread::hardware_concurrency(), linalg::simd::ActiveTierIndex(),
      linalg::simd::ActiveTierName(), E2E_BENCH_BUILD_TYPE);

  const int64_t deadline =
      NowNs() + static_cast<int64_t>(args.seconds * 1e9);
  Ledger ledger;
  SpanLog spans;
  Passes passes;
  std::vector<double> setup_medians;  // one per setup probe process
  std::vector<size_t> reference;  // first-pass journal hash per run
  int run_id = 0;
  int64_t pass_ns = 0;
  // Passes run until the deadline is nearer than half a pass, and
  // untraced, for at least kMinPasses passes.
  do {
    const int64_t pass_start = NowNs();
    const size_t pass_index = passes.runs.size();
    std::vector<RunOutcome>& pass = passes.runs.emplace_back();
    const int runs = pass_index == 0 ? spec.runs : spec.timed_runs;
    for (int i = 0; i < runs; ++i) {
      const uint64_t seed = RunSeed(args.seed, i);
      const std::string label =
          "pass " + std::to_string(pass_index) + " run " + std::to_string(i);
      // A traced run is paired with an untraced twin, the two run in
      // alternating order.
      RunOutcome untraced;
      const bool untraced_first =
          (pass_index + static_cast<size_t>(i)) % 2 == 0;
      if (traced && untraced_first) untraced = RunOnce(spec, seed, nullptr, 0);
      RunOutcome& run = pass.emplace_back(
          RunOnce(spec, seed, traced ? &spans : nullptr, run_id));
      if (traced) ++run_id;
      if (traced && !untraced_first) untraced = RunOnce(spec, seed, nullptr, 0);
      if (pass_index == 0) PrintRun(i, seed, run);

      // Same seed, same results: against the first pass, and (traced)
      // the traced run against its untraced twin.
      std::vector<std::string> failures = run.failures;
      if (pass_index == 0) {
        reference.push_back(run.journal_hash);
      } else if (run.journal_hash != reference[static_cast<size_t>(i)]) {
        failures.push_back("journal differs from the first pass (same seed)");
      }
      if (traced) {
        for (const std::string& diff : CompareOutcomes(untraced, run)) {
          failures.push_back("traced vs untraced: " + diff);
        }
        ledger.Book(untraced, untraced.failures, label + " untraced");
        passes.overhead_pct.push_back(100.0 *
                                      (run.wall_s / untraced.wall_s - 1.0));
      }
      ledger.Book(run, failures, label);
      std::string().swap(run.journal);  // checked; keep memory flat
    }
    pass_ns = NowNs() - pass_start;
    double pass_wall = 0.0;
    for (const RunOutcome& run : pass) pass_wall += run.wall_s;
    std::printf("pass %zu: mean wall %s s\n", pass_index,
                common::FormatDouble17(
                    pass_wall / static_cast<double>(pass.size()))
                    .c_str());
    for (int i = 0; !traced && i < kSetupProbesPerPass; ++i) {
      const double seconds = SpawnSetupProbe(argv[0], args);
      if (seconds < 0.0) {
        std::fprintf(stderr, "e2e_bench: a setup probe process failed\n");
        return 2;
      }
      setup_medians.push_back(seconds);
    }
  } while (NowNs() + pass_ns / 2 < deadline ||
           (!traced && passes.runs.size() < kMinPasses));

  size_t runs = 0;
  for (const auto& pass : passes.runs) runs += pass.size();
  std::printf("passes %zu, %s tuning runs %zu, configurations %zu, "
              "failed %zu\n",
              passes.runs.size(), traced ? "traced" : "untraced", runs,
              ledger.attempted(), ledger.failed());

  std::vector<Metric> metrics;
  if (traced) {
    const LayerTable table = SummarizeSpans(spans);
    PrintLayerTable(table);
    metrics = PerLayerMetrics(passes, table);
    if (!args.spans_out.empty()) {
      std::ofstream out(args.spans_out);
      spans.WriteJsonl(out);
      if (!out) {
        std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                     args.spans_out.c_str());
        return 2;
      }
    }
  } else {
    metrics = EndToEndMetrics(passes, Median(setup_medians), ledger);
  }
  PrintResult(ledger, metrics);
  return ledger.correct() ? 0 : 1;
}

}  // namespace
}  // namespace hunter::e2e

int main(int argc, char** argv) { return hunter::e2e::Main(argc, argv); }
