// hunter_cli — a small command-line front end to the tuning service, the
// kind of driver a DBA would script against:
//
//   hunter_cli [--dbms mysql|postgresql] [--workload tpcc|sysbench_ro|
//              sysbench_rw|sysbench_wo|production] [--clones N]
//              [--budget-hours H] [--alpha A] [--fix knob=value]...
//              [--range knob=min:max]... [--save-model path]
//              [--load-model path] [--seed S]
//
// Examples:
//   hunter_cli --workload tpcc --clones 4 --budget-hours 12
//   hunter_cli --workload sysbench_rw --alpha 0.2
//       --fix innodb_flush_log_at_trx_commit=1
//       --range innodb_buffer_pool_size=128:8192 --save-model model.txt
//   hunter_cli --workload sysbench_rw --load-model model.txt  # fine-tune

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "cdb/cdb_instance.h"
#include "cdb/knob_catalog.h"
#include "controller/controller.h"
#include "hunter/hunter.h"
#include "hunter/model_io.h"
#include "tuners/tuner.h"
#include "workload/workloads.h"

namespace {

struct CliOptions {
  std::string dbms = "mysql";
  std::string workload = "tpcc";
  int clones = 1;
  double budget_hours = 12.0;
  double alpha = 0.5;
  uint64_t seed = 42;
  std::string save_model;
  std::string load_model;
  hunter::core::Rules rules;
};

void Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--dbms mysql|postgresql] [--workload NAME]\n"
               "          [--clones N] [--budget-hours H] [--alpha A]\n"
               "          [--fix knob=value] [--range knob=min:max]\n"
               "          [--save-model PATH] [--load-model PATH] "
               "[--seed S]\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, CliOptions* options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--dbms") {
      const char* v = next();
      if (v == nullptr) return false;
      options->dbms = v;
    } else if (arg == "--workload") {
      const char* v = next();
      if (v == nullptr) return false;
      options->workload = v;
    } else if (arg == "--clones") {
      const char* v = next();
      if (v == nullptr) return false;
      options->clones = std::atoi(v);
    } else if (arg == "--budget-hours") {
      const char* v = next();
      if (v == nullptr) return false;
      options->budget_hours = std::atof(v);
    } else if (arg == "--alpha") {
      const char* v = next();
      if (v == nullptr) return false;
      options->alpha = std::atof(v);
    } else if (arg == "--seed") {
      const char* v = next();
      if (v == nullptr) return false;
      options->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (arg == "--save-model") {
      const char* v = next();
      if (v == nullptr) return false;
      options->save_model = v;
    } else if (arg == "--load-model") {
      const char* v = next();
      if (v == nullptr) return false;
      options->load_model = v;
    } else if (arg == "--fix") {
      const char* v = next();
      if (v == nullptr) return false;
      const char* eq = std::strchr(v, '=');
      if (eq == nullptr) return false;
      options->rules.FixKnob(std::string(v, eq), std::atof(eq + 1));
    } else if (arg == "--range") {
      const char* v = next();
      if (v == nullptr) return false;
      const char* eq = std::strchr(v, '=');
      const char* colon = eq != nullptr ? std::strchr(eq, ':') : nullptr;
      if (eq == nullptr || colon == nullptr) return false;
      options->rules.RestrictRange(std::string(v, eq), std::atof(eq + 1),
                                   std::atof(colon + 1));
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

hunter::cdb::WorkloadProfile PickWorkload(const std::string& name) {
  using namespace hunter::workload;
  if (name == "sysbench_ro") return SysbenchReadOnly();
  if (name == "sysbench_rw") return SysbenchReadWrite();
  if (name == "sysbench_wo") return SysbenchWriteOnly();
  if (name == "production") return Production(true);
  return Tpcc();
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hunter;
  CliOptions cli;
  if (!ParseArgs(argc, argv, &cli)) {
    Usage(argv[0]);
    return 1;
  }

  const bool is_mysql = cli.dbms != "postgresql";
  cdb::KnobCatalog catalog =
      is_mysql ? cdb::MySqlCatalog() : cdb::PostgresCatalog();
  auto instance = std::make_unique<cdb::CdbInstance>(
      &catalog,
      is_mysql ? cdb::MySqlEvaluationInstance()
               : cdb::PostgresEvaluationInstance(),
      is_mysql ? cdb::MySqlEngineTuning() : cdb::PostgresEngineTuning(),
      cli.seed);

  controller::ControllerOptions controller_options;
  controller_options.num_clones = cli.clones;
  controller_options.alpha = cli.alpha;
  controller::Controller controller(std::move(instance),
                                    PickWorkload(cli.workload),
                                    controller_options);

  cli.rules.set_alpha(cli.alpha);
  core::HunterTuner hunter(&catalog, cli.rules, core::HunterOptions{},
                           cli.seed + 1);
  if (!cli.load_model.empty()) {
    core::HunterModel model;
    if (!core::LoadModelFromFile(cli.load_model, &model)) {
      std::fprintf(stderr, "failed to load model from %s\n",
                   cli.load_model.c_str());
      return 1;
    }
    if (!hunter.ImportModel(model)) {
      std::fprintf(stderr,
                   "model from %s does not fit this catalog and "
                   "recommender\n",
                   cli.load_model.c_str());
      return 1;
    }
    std::printf("loaded model (signature %s); fine-tuning\n",
                model.signature.c_str());
  }

  const cdb::PerformanceSummary defaults = controller.DefaultPerformance();
  std::printf("tuning %s / %s on %d clone(s), %.1f h budget, alpha %.2f, "
              "%zu rule(s)\n",
              cli.dbms.c_str(), controller.workload().name.c_str(),
              controller.num_clones(), cli.budget_hours, cli.alpha,
              hunter.rules().num_constraints());
  std::printf("defaults: %.1f tps, p95 %.1f ms\n", defaults.throughput_tps,
              defaults.latency_p95_ms);

  tuners::HarnessOptions harness;
  harness.budget_hours = cli.budget_hours;
  const tuners::TuningResult result =
      tuners::RunTuning(&hunter, &controller, harness);

  std::printf("best: %.1f tps (%.2fx), p95 %.1f ms; recommendation at "
              "%.1f h after %zu stress tests\n",
              result.best_throughput,
              result.best_throughput / defaults.throughput_tps,
              result.best_latency, result.recommendation_hours, result.steps);
  controller.DeployToUser(result.best_sample.knobs);
  std::printf("deployed best verified configuration on the user instance\n");

  if (!cli.save_model.empty()) {
    const auto model = hunter.ExportModel();
    if (model.has_value() &&
        core::SaveModelToFile(*model, cli.save_model)) {
      std::printf("saved model to %s (signature %s)\n",
                  cli.save_model.c_str(), model->signature.c_str());
    } else {
      std::fprintf(stderr, "failed to save model to %s\n",
                   cli.save_model.c_str());
    }
  }
  return 0;
}
