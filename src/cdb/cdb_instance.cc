#include "cdb/cdb_instance.h"

namespace hunter::cdb {

CdbInstance::CdbInstance(const KnobCatalog* catalog,
                         InstanceType instance_type, EngineTuning tuning,
                         uint64_t seed)
    : catalog_(catalog),
      engine_(catalog, instance_type, tuning),
      config_(catalog->DefaultConfiguration()),
      rng_(seed) {}

DeployOutcome CdbInstance::DeployConfiguration(const Configuration& config) {
  DeployOutcome outcome;
  if (!engine_.ValidateBoot(config, nullptr)) {
    outcome.booted = false;
    outcome.deploy_seconds = kRestartDeploySeconds;  // failed boot attempt
    return outcome;
  }
  bool static_changed = false;
  for (size_t i = 0; i < catalog_->size(); ++i) {
    if (!catalog_->knob(i).dynamic && config[i] != config_[i]) {
      static_changed = true;
      break;
    }
  }
  config_ = config;
  if (static_changed) {
    outcome.restarted = true;
    ++restarts_;
    outcome.deploy_seconds = kRestartDeploySeconds + kWarmupSeconds;
    // The warm-up function reloads the buffer pool after the restart, so
    // the instance stays warm (at the cost of kWarmupSeconds above).
  } else {
    outcome.deploy_seconds = kDynamicDeploySeconds;
  }
  return outcome;
}

PerfResult CdbInstance::StressTest(const WorkloadProfile& workload) {
  PerfResult result = engine_.Run(config_, workload, warm_, &rng_);
  if (!result.boot_failed) warm_ = true;  // pool is hot after a run
  return result;
}

std::unique_ptr<CdbInstance> CdbInstance::Clone() {
  auto clone = std::make_unique<CdbInstance>(
      catalog_, engine_.instance(),
      EngineTuning{},  // placeholder, replaced below
      rng_.NextU64());
  // Copy the exact engine behaviour and configuration.
  clone->engine_ = engine_;
  clone->config_ = config_;
  clone->warm_ = false;  // a fresh clone starts cold
  return clone;
}

void CdbInstance::PointInTimeRecover() { warm_ = false; }

void CdbInstance::ResizeInstance(const InstanceType& new_type) {
  engine_.set_instance(new_type);
  warm_ = false;
  ++restarts_;
}

}  // namespace hunter::cdb
