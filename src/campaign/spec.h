// Campaign specification: a declarative device × filesystem × workload ×
// scale grid, parsed from a small line-oriented key=value text format.
//
//   # comments and blank lines are ignored
//   campaign <name> [seed=N] [scale=CAPxEND]
//   workload <name> pattern=<sequential|random|strided|zipf|hotcold>
//            [request=SIZE] [total=SIZE] [span=SIZE|PCT%] [start=SIZE]
//            [stride=SIZE] [theta=F] [hot_fraction=F] [hot_probability=F]
//            [read_fraction=F] [burst=N] [idle=DURATION]
//   grid <name> layer=<block|phone> metric=<bandwidth|wear>
//        devices=<slug,...> workloads=<name,...> [fs=<ext4,f2fs,cowfs>]
//        [scale=CAPxEND] [utilization=F] [target_level=N] [max_bytes=SIZE]
//        [files=<count>x<SIZE>] [sync=0|1] [batch=N] [depth=N] [channels=N]
//        [engine=<event|flat>]
//   fleet <name> count=N devices=<slug,...> workloads=<name,...>
//        [scale=CAPxEND] [shard=N] [slice=SIZE] [target_level=N]
//        [max_device_bytes=SIZE] [batch=N] [survival_bin_hours=F]
//
// SIZE accepts B/KiB/MiB/GiB/TiB suffixes; DURATION accepts ns/us/ms/s.
// Each grid expands to the cross product of its devices, filesystems (phone
// layer only), and workloads; every expanded run gets a deterministic seed
// derived from (campaign seed, run index).
//
// A `fleet` directive declares a population instead of a cross product: count
// devices striped over the device-model x workload combos, each seeded with
// DeriveDeviceSeed(campaign seed, fleet index, device index) and driven at
// the block layer by src/fleet (the campaign runner ignores fleets).

#ifndef SRC_CAMPAIGN_SPEC_H_
#define SRC_CAMPAIGN_SPEC_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/device/catalog.h"
#include "src/simcore/status.h"
#include "src/wearlab/phone.h"
#include "src/workload/generators.h"

namespace flashsim {

enum class RunLayer { kBlock, kPhone };
enum class RunMetric { kBandwidth, kWear };

const char* RunLayerName(RunLayer layer);
const char* RunMetricName(RunMetric metric);

struct GridSpec {
  std::string name;
  RunLayer layer = RunLayer::kBlock;
  RunMetric metric = RunMetric::kBandwidth;
  SimScale scale{1, 1};
  std::vector<std::string> devices;       // catalog slugs, see CampaignDevices()
  std::vector<PhoneFsType> filesystems;   // phone layer; defaults to {ext4}
  std::vector<std::string> workloads;     // names defined by `workload` lines
  double utilization = 0.0;               // phone static fill (0 = skip)
  uint32_t target_level = 0;              // wear metric: stop at this level
  uint64_t max_bytes = 0;                 // wear metric: per-run byte cap
  uint32_t file_count = 4;                // phone layer working set
  uint64_t file_bytes = 100ull * 1024 * 1024;  // full-size; runner re-scales
  bool sync = true;
  uint64_t batch_requests = 32;
  // Queued-submission knobs (src/blockdev/io_queue.h). Zero keeps the
  // device's calibrated defaults; `force_event_engine` routes even C=1/D=1
  // runs through the event engine (equivalence gating in CI).
  uint32_t queue_depth = 0;
  uint32_t channels = 0;
  bool force_event_engine = false;
};

// A device population for src/fleet: `count` simulated devices striped over
// the devices x workloads combos, sharded into contiguous ranges of
// `shard_devices` and driven in bounded `slice_bytes` slices so idle devices
// can park as compact serialized state between slices (DESIGN.md §14).

struct FleetSpec {
  std::string name;
  size_t index = 0;                    // position among the spec's fleets
  uint64_t device_count = 0;
  SimScale scale{1, 1};
  std::vector<std::string> devices;    // catalog slugs
  std::vector<std::string> workloads;  // names defined by `workload` lines
  uint64_t shard_devices = 64;
  uint64_t slice_bytes = 8ull * 1024 * 1024;
  uint32_t target_level = 0;           // stop a device at this level (0 = none)
  uint64_t max_device_bytes = 0;       // per-device byte cap (0 = auto)
  uint64_t batch_requests = 32;
  double survival_bin_hours = 24.0;    // survival-curve bin, full-device hours
};

struct CampaignSpec {
  std::string name = "campaign";
  uint64_t seed = 42;
  SimScale scale{1, 1};  // default for grids that do not override it
  std::vector<SyntheticWorkloadConfig> workloads;
  std::vector<GridSpec> grids;
  std::vector<FleetSpec> fleets;

  const SyntheticWorkloadConfig* FindWorkload(const std::string& name) const;
  const FleetSpec* FindFleet(const std::string& name) const;
};

// One fully-resolved simulation: everything ExecuteRun needs.
struct RunSpec {
  size_t index = 0;
  std::string grid;
  RunLayer layer = RunLayer::kBlock;
  RunMetric metric = RunMetric::kBandwidth;
  SimScale scale{1, 1};
  std::string device;  // slug
  PhoneFsType fs = PhoneFsType::kExtFs;
  bool has_fs = false;  // false for block-layer runs
  SyntheticWorkloadConfig workload;
  double utilization = 0.0;
  uint32_t target_level = 0;
  uint64_t max_bytes = 0;
  uint32_t file_count = 4;
  uint64_t file_bytes = 100ull * 1024 * 1024;
  bool sync = true;
  uint64_t batch_requests = 32;
  uint32_t queue_depth = 0;  // 0 = device default
  uint32_t channels = 0;     // 0 = device default
  bool force_event_engine = false;
  uint64_t seed = 0;  // DeriveSeed(campaign seed, index)
};

// Catalog slugs usable in `devices=` lists ("usd16", "emmc8", "emmc16",
// "moto_e8", "samsung_s6", "blu512", "blu4"), mapped to display names and
// factories.
struct CampaignDevice {
  std::string slug;
  std::string display_name;
  std::function<std::unique_ptr<FlashDevice>(SimScale, uint64_t)> make;
};

const std::vector<CampaignDevice>& CampaignDevices();
const CampaignDevice* FindCampaignDevice(const std::string& slug);

// Parses a spec from text. Errors carry the offending line number.
Result<CampaignSpec> ParseCampaignSpec(const std::string& text);

// Reads and parses a spec file.
Result<CampaignSpec> LoadCampaignSpecFile(const std::string& path);

// Expands a spec's grids into the ordered run list (seeds included).
std::vector<RunSpec> ExpandRuns(const CampaignSpec& spec);

}  // namespace flashsim

#endif  // SRC_CAMPAIGN_SPEC_H_
