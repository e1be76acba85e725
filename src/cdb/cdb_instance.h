// A (cloned) cloud database instance.
//
// Wraps the simulated engine with the lifecycle the paper's Actors manage:
// deploying a knob configuration (restart required when any non-dynamic knob
// changed — §2.1 availability discussion), boot failures for invalid
// configurations, the CDB warm-up function (buffer pool persisted across
// restarts, §5), cloning from a user instance, and point-in-time recovery
// (PITR) so that each replay round starts from the same state.

#ifndef HUNTER_CDB_CDB_INSTANCE_H_
#define HUNTER_CDB_CDB_INSTANCE_H_

#include <cstdint>
#include <memory>

#include "cdb/knob.h"
#include "cdb/simulated_engine.h"
#include "cdb/workload_profile.h"
#include "common/rng.h"

namespace hunter::cdb {

struct DeployOutcome {
  bool booted = true;
  bool restarted = false;   // a static knob changed -> full restart
  double deploy_seconds = 0.0;
};

class CdbInstance {
 public:
  CdbInstance(const KnobCatalog* catalog, InstanceType instance_type,
              EngineTuning tuning, uint64_t seed);

  // Applies `config`. Restarts if any non-dynamic knob changed. Boot
  // failures leave the previous configuration active (as a real CDB's
  // supervisor would roll back) but are reported in the outcome.
  DeployOutcome DeployConfiguration(const Configuration& config);

  // Executes one stress test with the active configuration.
  PerfResult StressTest(const WorkloadProfile& workload);

  // Clones this instance (same catalog/instance type/config, fresh RNG
  // stream) — the Actor's "copy backup of user's instance" step.
  std::unique_ptr<CdbInstance> Clone();

  // Point-in-time recovery: resets transient state (warm buffer pool) so a
  // replay round starts from the recorded snapshot.
  void PointInTimeRecover();

  // Changing the instance type models the user's resize action (§6.5).
  void ResizeInstance(const InstanceType& new_type);

  const Configuration& active_configuration() const { return config_; }
  const KnobCatalog& catalog() const { return *catalog_; }
  const InstanceType& instance_type() const { return engine_.instance(); }
  bool warm() const { return warm_; }
  uint64_t restarts() const { return restarts_; }

  // ---- Pre-run state snapshots --------------------------------------
  // Everything a stress test consumes besides the (deployed) configuration
  // and the workload. The Actor captures one before each StressTest so a
  // cancelled attempt (straggler timeout) can be rolled back: the retry is
  // then an exact replay and yields the sample the cancelled run would have.
  struct StateSnapshot {
    common::Rng rng;
    bool warm = false;
  };
  StateSnapshot CaptureState() const { return {rng_, warm_}; }
  void RestoreState(const StateSnapshot& snapshot) {
    rng_ = snapshot.rng;
    warm_ = snapshot.warm;
  }

  // The engine, for its buffer-pool reuse counters (pool_resets(),
  // pool_slab_reuses()).
  const SimulatedEngine& engine() const { return engine_; }

  // Deployment cost constants (simulated seconds, from the paper's
  // Table 1: knob deployment averages 21.3 s).
  static constexpr double kDynamicDeploySeconds = 3.0;
  static constexpr double kRestartDeploySeconds = 21.3;
  static constexpr double kWarmupSeconds = 5.0;  // §5: ~5 s for Sysbench

 private:
  const KnobCatalog* catalog_;  // not owned
  SimulatedEngine engine_;
  Configuration config_;
  common::Rng rng_;
  bool warm_ = false;  // buffer pool content survives via warm-up function
  uint64_t restarts_ = 0;
};

}  // namespace hunter::cdb

#endif  // HUNTER_CDB_CDB_INSTANCE_H_
