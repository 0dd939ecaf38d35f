// Fleet runner: executes one FleetSpec across a worker pool (DESIGN.md
// §13/§14).
//
// Scheduling is a device-granular work-stealing queue: workers claim one
// (shard, device) slice at a time from the set of in-flight shards, so a
// straggler device no longer serializes its whole shard on one worker. A
// new shard is admitted only when no in-flight shard has a claimable
// device, which keeps in-flight shards (and hence parked-state memory)
// bounded by the worker count. Completed shard accumulators fold into the
// global accumulator strictly in shard-index order — out-of-order finishers
// wait in a small pending map — and outcomes fold in device-index order
// inside each shard, so the final report is byte-identical at any thread
// count and under any steal schedule.
//
// Checkpointing: after every `checkpoint_every_shards` folds, workers
// quiesce at their next slice boundary (every device parked), the whole
// fleet state is serialized to `checkpoint_path` (atomic tmp+rename), and
// work resumes. `stop_after_checkpoints` turns a checkpoint into a
// controlled kill for crash-resume testing; `resume_path` warm-starts a run
// from such a file, continuing bit-exactly.

#ifndef SRC_FLEET_RUNNER_H_
#define SRC_FLEET_RUNNER_H_

#include <cstdint>
#include <string>

#include "src/campaign/spec.h"
#include "src/fleet/aggregate.h"
#include "src/simcore/status.h"

namespace flashsim {

struct FleetRunOptions {
  int threads = 1;
  // Checkpointing is active when both are set.
  std::string checkpoint_path;
  uint64_t checkpoint_every_shards = 0;
  // Stop (without finishing the fleet) once this many checkpoints have been
  // written; 0 = run to completion.
  uint64_t stop_after_checkpoints = 0;
  // Warm-start from a checkpoint file written by a previous run.
  std::string resume_path;
};

// Park-path accounting for one run. Every count and byte is a pure function
// of the spec, but it feeds BENCH_fleet.json and stdout, never the
// byte-compared report.
struct FleetParkTotals {
  uint64_t park_events = 0;
  uint64_t raw_bytes = 0;       // sum of raw snapshot sizes over park events
  uint64_t resident_bytes = 0;  // sum of packed blob sizes over park events
  uint64_t scratch_grows = 0;   // worker scratch reallocations, summed

  double ResidentMean() const {
    return park_events == 0
               ? 0.0
               : static_cast<double>(resident_bytes) /
                     static_cast<double>(park_events);
  }
};

// Scheduler observability: host-side timings and steal counts. Not
// deterministic — stdout/BENCH only.
struct FleetSchedTotals {
  int workers = 0;
  uint64_t slices = 0;
  uint64_t steals = 0;  // claims on a shard another worker admitted
  double busy_seconds_total = 0.0;  // summed slice-run time across workers
  double busy_seconds_min = 0.0;    // least-loaded worker
  double busy_seconds_max = 0.0;    // most-loaded worker
  double shard_seconds_max = 0.0;   // longest admit-to-fold shard span
};

struct FleetOutcome {
  std::string campaign;
  std::string fleet;
  uint64_t seed = 0;
  uint64_t device_count = 0;
  uint64_t shard_count = 0;
  FleetAccumulator acc;
  bool completed = true;  // false when stopped after a checkpoint
  uint64_t checkpoints_written = 0;
  FleetParkTotals park;
  FleetSchedTotals sched;
  // Host wall-clock; stdout only, never serialized into reports.
  double wall_seconds = 0.0;
};

Result<FleetOutcome> RunFleet(const CampaignSpec& spec, const FleetSpec& fleet,
                              const FleetRunOptions& options);

}  // namespace flashsim

#endif  // SRC_FLEET_RUNNER_H_
