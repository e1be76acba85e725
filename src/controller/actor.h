// An Actor (§2.1/§2.2): manages a set of CDB instances cloned from the
// user's instance, deploys configurations on them, stress-tests the target
// workload, and collects metrics and performance. One Actor per clone in
// this implementation; the Controller fans work out across Actors and
// handles the fault outcomes an attempt can report (transient deploy
// failures, mid-run crashes, permanent clone death, straggling).

#ifndef HUNTER_CONTROLLER_ACTOR_H_
#define HUNTER_CONTROLLER_ACTOR_H_

#include <cstdint>
#include <memory>
#include <string>

#include "cdb/cdb_instance.h"
#include "cdb/fitness.h"
#include "cdb/workload_profile.h"
#include "common/fault_injector.h"
#include "controller/sample.h"

namespace hunter::controller {

struct StressTestTiming {
  double deploy_seconds = 0.0;
  double execution_seconds = 0.0;
  double collection_seconds = 0.0;
  double total() const {
    return deploy_seconds + execution_seconds + collection_seconds;
  }
};

class Actor {
 public:
  // How one attempt at stress-testing a configuration ended. Boot failures
  // are a property of the configuration (deterministic, not retryable); the
  // other failures are clone-side faults the Controller retries or repairs.
  enum class AttemptStatus {
    kOk,                      // sample is valid (possibly straggling)
    kBootFailure,             // config cannot boot: terminal, §2.1 sentinel
    kTransientDeployFailure,  // deploy failed transiently: retryable
    kCrash,                   // clone crashed mid-run: recover and retry
    kPermanentDeath,          // clone is gone: replace it and re-dispatch
  };

  struct AttemptOutcome {
    AttemptStatus status = AttemptStatus::kOk;
    Sample sample;            // valid only for kOk / kBootFailure
    StressTestTiming timing;  // simulated cost of the attempt so far
  };

  // Takes ownership of a cloned CDB instance. `clone_id` keys this clone's
  // deterministic fault stream; `injector` (nullable, not owned) supplies
  // the fault schedule.
  Actor(std::unique_ptr<cdb::CdbInstance> clone, double alpha,
        int clone_id = 0, const common::FaultInjector* injector = nullptr);

  // Deploys `normalized` knobs, replays the workload, and collects a Shared
  // Pool sample, consulting the fault injector at each step. `defaults`
  // supplies T_def / L_def for Equation 1. The timing carries the simulated
  // cost of each step (the paper's Table 1 breakdown: execution dominates
  // at ~142.7 s); faulty attempts charge the work wasted before the fault.
  AttemptOutcome Attempt(const std::vector<double>& normalized,
                         const cdb::WorkloadProfile& workload,
                         const cdb::PerformanceSummary& defaults);

  // Measures the default configuration's performance (averaged over
  // `repeats` runs) to establish the Equation-1 baseline. `deploy_seconds`
  // (optional) receives the cost of resetting the clone to the default
  // configuration, which the caller must charge to the sim clock. The
  // baseline measurement is fault-free by design.
  cdb::PerformanceSummary MeasureDefaults(const cdb::WorkloadProfile& workload,
                                          int repeats,
                                          double* deploy_seconds = nullptr);

  // Rolls the clone back to its state just before the last StressTest.
  // The Controller calls this when it cancels a straggling attempt: a
  // cancelled run's random draws should not consume the clone's stream, so
  // the retry replays the identical evaluation and returns the sample the
  // cancelled run would have — a timeout costs simulated time only.
  void RollbackLastRun();

  cdb::CdbInstance& instance() { return *clone_; }
  int clone_id() const { return clone_id_; }
  uint64_t ops() const { return op_serial_; }

  // Simulated workload-execution time per stress test (Table 1).
  static constexpr double kExecutionSeconds = 142.7;
  static constexpr double kCollectionSeconds = 0.0002;

 private:
  std::unique_ptr<cdb::CdbInstance> clone_;
  double alpha_;
  int clone_id_ = 0;
  const common::FaultInjector* injector_ = nullptr;  // not owned
  uint64_t op_serial_ = 0;  // per-clone operation counter (fault stream key)
  cdb::CdbInstance::StateSnapshot pre_run_state_;
  bool has_pre_run_state_ = false;
};

}  // namespace hunter::controller

#endif  // HUNTER_CONTROLLER_ACTOR_H_
