#include "e2e_bench/harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <functional>
#include <sstream>
#include <thread>
#include <utility>

#include "bench/bench_common.h"
#include "common/text.h"
#include "controller/actor.h"
#include "hunter/hunter.h"
#include "obs/journal.h"
#include "tuners/ottertune.h"

namespace hunter::e2e {
namespace {

uint64_t SplitMix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Sub-seeds of one tuning run, so controller, tuner and faults draw
// independent streams.
enum class Stream : uint64_t { kController = 1, kTuner = 2, kFaults = 3 };

uint64_t StreamSeed(uint64_t run_seed, Stream stream) {
  return SplitMix64(run_seed ^ (static_cast<uint64_t>(stream) << 56));
}

double ProcessCpuSeconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto seconds = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) +
           static_cast<double>(tv.tv_usec) * 1e-6;
  };
  return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// In-memory journal sink that grows in fixed chunks, so the memory a journal
// holds is its size rounded up to a chunk. (An ostringstream doubles its
// buffer and copies it out: its peak jumps by ~8 MB as a journal crosses
// 4 MiB, which most journals here are close to.)
class ChunkedSink final : public std::streambuf {
 public:
  std::string Concatenate() const {
    std::string all;
    all.reserve(size_);
    for (const std::string& chunk : chunks_) all += chunk;
    return all;
  }

 protected:
  int_type overflow(int_type ch) override {
    if (traits_type::eq_int_type(ch, traits_type::eof())) return 0;
    const char c = traits_type::to_char_type(ch);
    xsputn(&c, 1);
    return ch;
  }

  std::streamsize xsputn(const char* data, std::streamsize n) override {
    size_t left = static_cast<size_t>(n);
    while (left > 0) {
      if (chunks_.empty() || chunks_.back().size() == kChunkBytes) {
        chunks_.emplace_back().reserve(kChunkBytes);
      }
      std::string& chunk = chunks_.back();
      const size_t take = std::min(left, kChunkBytes - chunk.size());
      chunk.append(data, take);
      data += take;
      left -= take;
    }
    size_ += static_cast<size_t>(n);
    return n;
  }

 private:
  static constexpr size_t kChunkBytes = size_t{1} << 18;
  std::vector<std::string> chunks_;
  size_t size_ = 0;
};

double NsToMs(int64_t ns) { return static_cast<double>(ns) * 1e-6; }

bool SameBits(double a, double b) {
  uint64_t x = 0;
  uint64_t y = 0;
  std::memcpy(&x, &a, sizeof x);
  std::memcpy(&y, &b, sizeof y);
  return x == y;
}

// Looks up an instrument the program already registered. Never registers a
// new name: that would change the journal's metric schema.
bool IsRegistered(const obs::MetricsRegistry& registry,
                  const std::string& name) {
  const std::vector<std::string> names = registry.Names();
  return std::find(names.begin(), names.end(), name) != names.end();
}

obs::Counter* FindCounter(obs::MetricsRegistry* registry,
                          const std::string& name) {
  if (registry == nullptr || !IsRegistered(*registry, name)) return nullptr;
  return registry->RegisterCounter(name);
}

obs::Gauge* FindGauge(obs::MetricsRegistry* registry,
                      const std::string& name) {
  if (registry == nullptr || !IsRegistered(*registry, name)) return nullptr;
  return registry->RegisterGauge(name);
}

obs::Histogram* FindHistogram(obs::MetricsRegistry* registry,
                              const std::string& name) {
  if (registry == nullptr || !IsRegistered(*registry, name)) return nullptr;
  return registry->RegisterHistogram(name);
}

double CounterValue(obs::MetricsRegistry* registry, const std::string& name) {
  const obs::Counter* counter = FindCounter(registry, name);
  return counter != nullptr ? counter->value() : 0.0;
}

bench::Scenario MakeScenario(const WorkloadSpec& spec) {
  if (spec.scenario == "mysql-sbwo") return bench::MySqlSysbenchWo();
  if (spec.scenario == "mysql-prod9am") return bench::MySqlProduction(true);
  if (spec.scenario == "pg-tpcc") return bench::PostgresTpcc();
  return bench::MySqlTpcc();
}

// Everything one tuning run needs, built in the order RunTuning uses it.
// The scenario owns the knob catalog the instances point into, so it is
// declared first and destroyed last.
struct Setup {
  bench::Scenario scenario;
  std::unique_ptr<controller::Controller> controller;
  std::unique_ptr<tuners::Tuner> tuner;
};

// Fleet fan-out runs on a fixed pool of at most this many threads: half of
// a 4-vCPU host, so that a round's batch does not wait on a pool thread the
// scheduler parked for another tenant's process.
constexpr size_t kMaxPoolThreads = 2;

Setup BuildSetup(const WorkloadSpec& spec, uint64_t run_seed) {
  Setup setup{MakeScenario(spec), nullptr, nullptr};
  const uint64_t controller_seed = StreamSeed(run_seed, Stream::kController);
  auto instance = std::make_unique<cdb::CdbInstance>(
      &setup.scenario.catalog, setup.scenario.instance, setup.scenario.engine,
      controller_seed);
  controller::ControllerOptions options;
  options.num_clones = spec.clones;
  options.seed = controller_seed;
  options.concurrent_actors = spec.clones > 1;
  const unsigned hw = std::thread::hardware_concurrency();
  options.max_pool_threads =
      std::min<size_t>(kMaxPoolThreads, hw == 0 ? 1 : static_cast<size_t>(hw));
  if (spec.faults) {
    // The bench_fault_tolerance schedule.
    options.faults.seed = StreamSeed(run_seed, Stream::kFaults);
    options.faults.transient_deploy_failure_rate = 0.10;
    options.faults.crash_rate = 0.02;
    options.faults.straggler_rate = 0.04;
    options.faults.straggler_slowdown = 6.0;
    options.faults.permanent_deaths = {{7, 5}};
    options.straggler_timeout_seconds =
        3.0 * controller::Actor::kExecutionSeconds;
    // Enough retries that the fleet never gives up on a configuration
    // (a give-up needs 9 faulty attempts in a row, p < 1e-8): every fault
    // still costs retries, requeues and reclones, but no configuration is
    // lost, so the workload's operations all succeed.
    options.max_retries = 8;
  }
  setup.controller = std::make_unique<controller::Controller>(
      std::move(instance), setup.scenario.workload, options);
  setup.tuner = bench::MakeTuner(spec.tuner, setup.scenario,
                                 StreamSeed(run_seed, Stream::kTuner));
  return setup;
}

// Time-weighted mean of the best-so-far throughput between the first and
// the last point of the curve.
double MeanBestTps(const std::vector<tuners::CurvePoint>& curve) {
  if (curve.size() < 2) return curve.empty() ? 0.0 : curve[0].best_throughput;
  double area = 0.0;
  for (size_t i = 1; i < curve.size(); ++i) {
    const double hours = curve[i].hours - curve[i - 1].hours;
    area += curve[i - 1].best_throughput * hours;
  }
  const double span = curve.back().hours - curve.front().hours;
  return span > 0.0 ? area / span : curve.back().best_throughput;
}

tuners::HarnessOptions Harness(const WorkloadSpec& spec) {
  tuners::HarnessOptions harness;
  harness.budget_hours = spec.budget_hours;
  return harness;
}

// The timing decorator. Forwards every Tuner call unchanged; timestamps
// each one, records round times, checks every proposal, and in a traced run
// records a span per call.
class TimedTuner final : public tuners::Tuner {
 public:
  TimedTuner(tuners::Tuner* inner, size_t dim, RunOutcome* out,
             SpanLog* spans, int run_span, int run_id)
      : inner_(inner),
        hunter_(dynamic_cast<core::HunterTuner*>(inner)),
        gp_tuner_(dynamic_cast<tuners::OtterTuneTuner*>(inner) != nullptr),
        dim_(dim),
        out_(out),
        spans_(spans),
        run_span_(run_span),
        run_id_(run_id) {}

  std::string name() const override { return inner_->name(); }

  double ModelStepSeconds() const override {
    return inner_->ModelStepSeconds();
  }

  void BindObservability(obs::Journal* journal) override {
    inner_->BindObservability(journal);
    obs::MetricsRegistry* registry =
        journal != nullptr ? journal->registry() : nullptr;
    sso_refreshes_ = FindCounter(registry, "hunter.sso_refreshes");
    pool_size_ = FindGauge(registry, "hunter.pool_size");
    bound_ns_ = NowNs();
  }

  std::vector<std::vector<double>> Propose(size_t count) override {
    const int64_t entry = NowNs();
    if (spans_ != nullptr && !baseline_recorded_) {
      // RunTuning measures the default configuration between binding the
      // tuner and the first Propose.
      spans_->Add("controller.baseline", run_span_, run_id_, bound_ns_, entry);
      baseline_recorded_ = true;
    }
    round_start_ns_ = entry;
    const double sso_before = SsoRefreshes();
    const bool sample_factory = InSampleFactory();
    std::vector<std::vector<double>> proposals = inner_->Propose(count);
    const int64_t exit = NowNs();
    propose_exit_ns_ = exit;
    out_->propose_ms += NsToMs(exit - entry);
    if (spans_ != nullptr) {
      // No proposals ends the run (RunTuning stops): no round follows.
      round_span_ = proposals.empty()
                        ? run_span_
                        : spans_->Open("round", run_span_, run_id_, entry);
      spans_->Add(Layer(true, sso_before, sample_factory), round_span_,
                  run_id_, entry, exit);
    }
    NoteSso(sso_before);
    CheckProposals(proposals, count);
    return proposals;
  }

  void Observe(const std::vector<controller::Sample>& samples) override {
    const int64_t entry = NowNs();
    const double sso_before = SsoRefreshes();
    const bool sample_factory = InSampleFactory();
    inner_->Observe(samples);
    const int64_t exit = NowNs();
    out_->observe_ms += NsToMs(exit - entry);
    out_->round_ms.push_back(NsToMs(exit - round_start_ns_));
    if (spans_ != nullptr) {
      spans_->Add("controller.evaluate", round_span_, run_id_,
                  propose_exit_ns_, entry);
      spans_->Add(Layer(false, sso_before, sample_factory), round_span_,
                  run_id_, entry, exit);
      spans_->Close(round_span_, exit);
    }
    NoteSso(sso_before);
  }

 private:
  double SsoRefreshes() const {
    return sso_refreshes_ != nullptr ? sso_refreshes_->value() : 0.0;
  }

  bool InSampleFactory() const {
    return hunter_ != nullptr &&
           hunter_->phase() == core::HunterTuner::Phase::kSampleFactory;
  }

  bool SsoRan(double sso_before) const {
    return SsoRefreshes() != sso_before;
  }

  // A call during which hunter.sso_refreshes advanced ran the Search Space
  // Optimizer (PCA + RF) and the DDPG warm start.
  void NoteSso(double sso_before) {
    if (!SsoRan(sso_before)) return;
    out_->sso_calls += 1.0;
    if (pool_size_ != nullptr) out_->sso_pool_samples += pool_size_->value();
  }

  // The layer a Propose (`propose`) or Observe call belongs to.
  const char* Layer(bool propose, double sso_before,
                    bool sample_factory) const {
    if (hunter_ != nullptr) {
      if (SsoRan(sso_before)) return "hunter.sso";
      if (sample_factory) return "hunter.ga";
      return propose ? "hunter.ddpg_propose" : "hunter.ddpg_observe";
    }
    if (gp_tuner_) return propose ? "tuners.gp_ei" : "tuners.gp_fit";
    return propose ? "tuners.propose" : "tuners.observe";
  }

  void CheckProposals(const std::vector<std::vector<double>>& proposals,
                      size_t count) {
    if (proposals.size() > count) {
      Fail("Propose(" + std::to_string(count) + ") returned " +
           std::to_string(proposals.size()) + " configurations");
    }
    for (const std::vector<double>& proposal : proposals) {
      if (proposal.size() != dim_) {
        Fail("proposal has dimension " + std::to_string(proposal.size()) +
             ", catalog has " + std::to_string(dim_));
        continue;
      }
      for (const double value : proposal) {
        if (!(value >= 0.0 && value <= 1.0)) {
          Fail("proposal entry " + common::FormatDouble17(value) +
               " outside [0,1]");
          break;
        }
      }
    }
  }

  void Fail(std::string message) {
    // A few messages diagnose a broken tuner; keep the list short.
    if (out_->failures.size() < 8) out_->failures.push_back(std::move(message));
  }

  tuners::Tuner* inner_;
  core::HunterTuner* hunter_;  // null unless the inner tuner is HUNTER
  bool gp_tuner_;  // OtterTune or ResTune: Propose scores EI on a GP
  size_t dim_;
  RunOutcome* out_;
  SpanLog* spans_;
  int run_span_;
  int run_id_;
  const obs::Counter* sso_refreshes_ = nullptr;
  const obs::Gauge* pool_size_ = nullptr;
  int64_t bound_ns_ = 0;
  int64_t round_start_ns_ = 0;
  int64_t propose_exit_ns_ = 0;
  int round_span_ = -1;
  bool baseline_recorded_ = false;
};

void ReadCounters(controller::Controller* controller, RunOutcome* out) {
  const controller::FaultStats& faults = controller->fault_stats();
  out->attempts = static_cast<double>(controller->total_stress_tests());
  out->retries = static_cast<double>(faults.retries);
  out->straggler_timeouts = static_cast<double>(faults.straggler_timeouts);
  out->reclones = static_cast<double>(faults.reclones);
  out->failed_samples = static_cast<double>(faults.failed_samples);
  obs::MetricsRegistry* registry = &controller->metrics_registry();
  out->eval_cache_hits = CounterValue(registry, "engine.eval_cache_hits");
  out->eval_cache_misses = CounterValue(registry, "engine.eval_cache_misses");
  out->pool_resets = CounterValue(registry, "engine.pool_resets");
  out->pool_slab_reuses = CounterValue(registry, "engine.pool_slab_reuses");
  const obs::Histogram* hit_ratio =
      FindHistogram(registry, "engine.buffer_pool_hit_ratio");
  out->buffer_pool_hit_ratio_mean =
      hit_ratio != nullptr && hit_ratio->count() > 0 ? hit_ratio->stat().mean()
                                                     : 0.0;
  out->ga_generations = CounterValue(registry, "hunter.ga_generations");
  out->ddpg_train_steps = CounterValue(registry, "hunter.ddpg_train_steps");
  out->gp_full_refits = CounterValue(registry, "tuner.gp_full_refits");
  out->gp_incremental_refits =
      CounterValue(registry, "tuner.gp_incremental_refits");
  out->journal_records =
      static_cast<double>(controller->journal().records().size());
}

// The per-run checks on the journal: the charged spans account for the
// simulated clock bit-exactly, and the serialized bytes survive a parse and
// re-serialization unchanged.
void CheckJournal(controller::Controller* controller, RunOutcome* out) {
  const double charged = controller->journal().tracer().charged_seconds();
  const double clock = controller->clock().seconds();
  if (!SameBits(charged, clock)) {
    out->failures.push_back("tracer charged " +
                            common::FormatDouble17(charged) +
                            " s but the clock reads " +
                            common::FormatDouble17(clock) + " s");
  }
  std::istringstream in(out->journal);
  obs::ParsedJournal parsed;
  std::string error;
  if (!obs::ParseJournal(in, &parsed, &error)) {
    out->failures.push_back("journal does not parse: " + error);
    return;
  }
  std::ostringstream rewritten;
  obs::WriteParsed(parsed, rewritten);
  if (rewritten.str() != out->journal) {
    out->failures.push_back(
        "journal Write -> ParseJournal -> WriteParsed is not byte-identical");
  }
}

}  // namespace

const std::vector<WorkloadSpec>& Workloads() {
  static const std::vector<WorkloadSpec> workloads = {
      // Timings are minima over the repeats of the timed runs (see
      // main.cc); in 55 seconds each timed run is repeated 9-16 times.
      {"hunter-tpcc", "HUNTER", "mysql-tpcc", 1, 70.0, false, 5, 1},
      {"ottertune-sbwo", "OtterTune", "mysql-sbwo", 1, 70.0, false, 5, 1},
      {"bestconfig-prod", "BestConfig", "mysql-prod9am", 1, 70.0, false, 7, 2},
      // Its wall time depends on the seed's faults (1.4-2.4 s), so the
      // timings are medians over three timed runs.
      {"hunter20-pg-faults", "HUNTER", "pg-tpcc", 20, 12.0, true, 7, 3},
  };
  return workloads;
}

const WorkloadSpec* FindWorkload(const std::string& name) {
  for (const WorkloadSpec& spec : Workloads()) {
    if (spec.name == name) return &spec;
  }
  return nullptr;
}

uint64_t RunSeed(uint64_t workload_seed, int index) {
  return SplitMix64(SplitMix64(workload_seed) + static_cast<uint64_t>(index));
}

int64_t NowNs() {
  // hunterlint: allow(no-wall-clock) the benchmark measures real host time
  const auto now = std::chrono::steady_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             now.time_since_epoch())
      .count();
}

int SpanLog::Open(const char* name, int parent, int run_id,
                  int64_t start_ns) {
  return Add(name, parent, run_id, start_ns, start_ns);
}

int SpanLog::Add(const char* name, int parent, int run_id, int64_t start_ns,
                 int64_t end_ns) {
  spans_.push_back({name, start_ns, end_ns, parent, run_id});
  return static_cast<int>(spans_.size()) - 1;
}

void SpanLog::WriteJsonl(std::ostream& out) const {
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << span.name
        << "\",\"start_ns\":" << span.start_ns - origin
        << ",\"end_ns\":" << span.end_ns - origin
        << ",\"parent\":" << span.parent << ",\"run\":" << span.run_id
        << "}\n";
  }
}

LayerTable SummarizeSpans(const SpanLog& log) {
  const std::vector<Span>& spans = log.spans();
  std::vector<int64_t> child_ns(spans.size(), 0);
  for (const Span& span : spans) {
    if (span.parent >= 0) {
      child_ns[static_cast<size_t>(span.parent)] += span.end_ns - span.start_ns;
    }
  }
  LayerTable table;
  double layer_self_ms = 0.0;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& span = spans[i];
    const std::string name = span.name;
    const double total = NsToMs(span.end_ns - span.start_ns);
    const double self = NsToMs(span.end_ns - span.start_ns - child_ns[i]);
    table.self_ms[name] += self;
    table.calls[name] += 1;
    table.durations_ms[name].push_back(total);
    if (span.parent < 0) {
      table.run_ms += total;
      ++table.runs;
    } else if (name != "round") {
      layer_self_ms += self;
    }
  }
  table.coverage = table.run_ms > 0.0 ? layer_self_ms / table.run_ms : 0.0;
  return table;
}

RunOutcome RunOnce(const WorkloadSpec& spec, uint64_t seed, SpanLog* spans,
                   int run_id) {
  RunOutcome out;
  const int64_t setup_start = NowNs();
  const int run_span =
      spans != nullptr ? spans->Open("run", -1, run_id, setup_start) : -1;
  Setup setup = BuildSetup(spec, seed);
  TimedTuner timed(setup.tuner.get(), setup.scenario.catalog.size(), &out,
                   spans, run_span, run_id);
  const int64_t tuning_start = NowNs();
  if (spans != nullptr) {
    spans->Add("setup", run_span, run_id, setup_start, tuning_start);
  }
  const double cpu_start = ProcessCpuSeconds();

  const tuners::TuningResult result =
      tuners::RunTuning(&timed, setup.controller.get(), Harness(spec));
  const int64_t write_start = NowNs();
  ChunkedSink sink;
  std::ostream journal(&sink);
  setup.controller->journal().Write(journal);
  const int64_t tuning_end = NowNs();
  out.cpu_s = ProcessCpuSeconds() - cpu_start;
  out.peak_rss_mb = PeakRssMb();
  out.journal = sink.Concatenate();
  out.journal_bytes = static_cast<double>(out.journal.size());
  out.journal_hash = std::hash<std::string>{}(out.journal);

  if (spans != nullptr) {
    spans->Add("obs.journal_write", run_span, run_id, write_start, tuning_end);
    spans->Close(run_span, tuning_end);
  }
  out.wall_s = static_cast<double>(tuning_end - tuning_start) * 1e-9;

  out.steps = result.steps;
  out.evaluation_failed = result.failed_samples;
  out.best_tps = result.best_throughput;
  out.rec_hours = result.recommendation_hours;
  out.mean_best_tps = MeanBestTps(result.curve);
  out.best_knobs = result.best_sample.knobs;
  out.curve = result.curve;
  ReadCounters(setup.controller.get(), &out);
  CheckJournal(setup.controller.get(), &out);
  return out;
}

double TimeSetup(const WorkloadSpec& spec, uint64_t seed) {
  const int64_t start = NowNs();
  const Setup setup = BuildSetup(spec, seed);
  return static_cast<double>(NowNs() - start) * 1e-9;
}

std::string RunPlainJournal(const WorkloadSpec& spec, uint64_t seed) {
  Setup setup = BuildSetup(spec, seed);
  tuners::RunTuning(setup.tuner.get(), setup.controller.get(), Harness(spec));
  std::ostringstream journal;
  setup.controller->journal().Write(journal);
  return journal.str();
}

std::vector<std::string> CompareOutcomes(const RunOutcome& a,
                                         const RunOutcome& b) {
  std::vector<std::string> diffs;
  if (a.steps != b.steps) diffs.push_back("steps differ");
  if (a.best_knobs.size() != b.best_knobs.size() ||
      !std::equal(a.best_knobs.begin(), a.best_knobs.end(),
                  b.best_knobs.begin(), SameBits)) {
    diffs.push_back("best knobs differ");
  }
  const auto same_point = [](const tuners::CurvePoint& x,
                             const tuners::CurvePoint& y) {
    return SameBits(x.hours, y.hours) &&
           SameBits(x.best_throughput, y.best_throughput) &&
           SameBits(x.best_latency, y.best_latency) &&
           SameBits(x.best_fitness, y.best_fitness);
  };
  if (a.curve.size() != b.curve.size() ||
      !std::equal(a.curve.begin(), a.curve.end(), b.curve.begin(),
                  same_point)) {
    diffs.push_back("curves differ");
  }
  if (a.journal != b.journal) diffs.push_back("journal bytes differ");
  return diffs;
}

}  // namespace hunter::e2e
