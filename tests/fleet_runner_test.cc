// Fleet runner determinism and population semantics: device striping over
// the model x workload grid, shard math, thread-count-invariant reports, and
// outcome plausibility on a small bricking population.

#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "src/campaign/spec.h"
#include "src/fleet/report.h"
#include "src/fleet/runner.h"
#include "src/fleet/shard.h"

namespace flashsim {
namespace {

// Small enough to run in seconds: 12 devices at the catalog floor scale,
// capped so every device terminates (blu512 bricks at ~175 MiB of host
// writes at this scale; emmc8 at ~690 MiB would be censored by the cap, so
// the fleet mixes bricked and surviving devices).
constexpr char kFleetSpec[] = R"(
campaign fleettest seed=77
workload attack pattern=random request=4KiB total=4MiB span=50%
workload seq pattern=sequential request=64KiB total=4MiB span=25%
fleet pop count=12 devices=blu512,emmc8 workloads=attack,seq scale=256x256 shard=5 slice=4MiB max_device_bytes=256MiB
)";

CampaignSpec ParseTestSpec() {
  const Result<CampaignSpec> parsed = ParseCampaignSpec(kFleetSpec);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.value();
}

std::string ReportWithThreads(int threads) {
  const CampaignSpec spec = ParseTestSpec();
  const FleetSpec* fleet = spec.FindFleet("pop");
  EXPECT_NE(fleet, nullptr);
  FleetRunOptions options;
  options.threads = threads;
  Result<FleetOutcome> run = RunFleet(spec, *fleet, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  std::ostringstream os;
  WriteFleetJson(run.value(), os);
  return os.str();
}

TEST(FleetSpecTest, ParsesFleetDirective) {
  const CampaignSpec spec = ParseTestSpec();
  ASSERT_EQ(spec.fleets.size(), 1u);
  const FleetSpec& fleet = spec.fleets[0];
  EXPECT_EQ(fleet.name, "pop");
  EXPECT_EQ(fleet.device_count, 12u);
  EXPECT_EQ(fleet.shard_devices, 5u);
  EXPECT_EQ(fleet.slice_bytes, 4u * 1024 * 1024);
  EXPECT_EQ(fleet.max_device_bytes, 256u * 1024 * 1024);
  EXPECT_EQ(fleet.devices.size(), 2u);
  EXPECT_EQ(fleet.workloads.size(), 2u);
  EXPECT_EQ(FleetShardCount(fleet), 3u);  // ceil(12 / 5)
}

TEST(FleetShardTest, StripesDevicesAcrossModelWorkloadCombos) {
  const CampaignSpec spec = ParseTestSpec();
  const FleetSpec& fleet = spec.fleets[0];
  // combo = index mod 4; model = combo mod 2, workload = combo div 2.
  const FleetDeviceRef d0 = FleetDeviceAt(spec, fleet, 0);
  const FleetDeviceRef d1 = FleetDeviceAt(spec, fleet, 1);
  const FleetDeviceRef d2 = FleetDeviceAt(spec, fleet, 2);
  const FleetDeviceRef d3 = FleetDeviceAt(spec, fleet, 3);
  const FleetDeviceRef d4 = FleetDeviceAt(spec, fleet, 4);
  EXPECT_EQ(d0.model_index, 0u);
  EXPECT_EQ(d1.model_index, 1u);
  EXPECT_EQ(d2.model_index, 0u);
  EXPECT_EQ(d3.model_index, 1u);
  EXPECT_EQ(d4.model_index, 0u);  // wraps
  EXPECT_EQ(d0.workload.name, "attack");
  EXPECT_EQ(d1.workload.name, "attack");
  EXPECT_EQ(d2.workload.name, "seq");
  EXPECT_EQ(d3.workload.name, "seq");
  EXPECT_EQ(d4.workload.name, "attack");
  // Every device gets a distinct seed.
  EXPECT_NE(d0.seed, d1.seed);
  EXPECT_NE(d0.seed, d4.seed);
}

TEST(FleetRunnerTest, ReportIsByteIdenticalAcrossThreadCounts) {
  const std::string t1 = ReportWithThreads(1);
  const std::string t4 = ReportWithThreads(4);
  const std::string t8 = ReportWithThreads(8);
  EXPECT_EQ(t1, t4);
  EXPECT_EQ(t1, t8);
}

TEST(FleetRunnerTest, OutcomeCountsAreConsistent) {
  const CampaignSpec spec = ParseTestSpec();
  const FleetSpec* fleet = spec.FindFleet("pop");
  ASSERT_NE(fleet, nullptr);
  FleetRunOptions options;
  options.threads = 2;
  Result<FleetOutcome> run = RunFleet(spec, *fleet, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const FleetOutcome& outcome = run.value();

  EXPECT_TRUE(outcome.completed);
  EXPECT_EQ(outcome.device_count, 12u);
  EXPECT_EQ(outcome.shard_count, 3u);
  EXPECT_EQ(outcome.acc.DevicesDone(), 12u);
  // The blu512 attack devices (indices 0, 4, 8) brick under the 256 MiB
  // cap; every other arm is censored or survives longer than the cap.
  EXPECT_GE(outcome.acc.DevicesBricked(), 3u);
  EXPECT_LT(outcome.acc.DevicesBricked(), 12u);
  // Parked-state samples were collected (devices parked at least once), and
  // the resident blobs average smaller than the raw snapshots they encode.
  EXPECT_GT(outcome.acc.parked_raw_bytes().count(), 0u);
  EXPECT_EQ(outcome.park.park_events, outcome.acc.parked_raw_bytes().count());
  EXPECT_LT(outcome.park.ResidentMean(), outcome.acc.parked_raw_bytes().Mean());
  // Every shard reports its slice count into the imbalance digest.
  EXPECT_EQ(outcome.acc.shard_slices().count(), outcome.shard_count);
  EXPECT_EQ(static_cast<uint64_t>(outcome.acc.shard_slices().sum()),
            outcome.sched.slices);
}

TEST(FleetRunnerTest, WorkerScratchDoesNotGrowInSteadyState) {
  // After the first slice of the largest device has sized the scratch
  // buffers, subsequent slices must not reallocate. A single-threaded run
  // uses one scratch for the whole fleet, so a handful of early grows is
  // expected and the count must stay flat as devices multiply: running 12
  // devices must not grow the scratch more than running the same population
  // once warmed. (Exact bound: grows scale with distinct buffer sizes, not
  // slice count.)
  const CampaignSpec spec = ParseTestSpec();
  const FleetSpec* fleet = spec.FindFleet("pop");
  ASSERT_NE(fleet, nullptr);
  FleetRunOptions options;
  options.threads = 1;
  Result<FleetOutcome> run = RunFleet(spec, *fleet, options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  const FleetOutcome& outcome = run.value();
  ASSERT_GT(outcome.sched.slices, 20u);  // enough slices to be meaningful
  // Warm-up growth only: far fewer grows than slices.
  EXPECT_LT(outcome.park.scratch_grows, outcome.sched.slices / 2);
}

TEST(FleetRunnerTest, ReportMentionsEveryModel) {
  const std::string report = ReportWithThreads(2);
  EXPECT_NE(report.find("\"blu512\""), std::string::npos);
  EXPECT_NE(report.find("\"emmc8\""), std::string::npos);
  EXPECT_NE(report.find("\"survival\""), std::string::npos);
  EXPECT_NE(report.find("\"parked_bytes\""), std::string::npos);
}

}  // namespace
}  // namespace flashsim
