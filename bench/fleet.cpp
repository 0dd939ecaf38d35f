// Fleet CLI: run a fleet directive from a campaign spec and emit its report.
//
//   $ ./build/bench/fleet --spec examples/specs/fleet_attack.spec
//         --threads 4 --out out/fleet.json
//
// The JSON report is byte-identical for any --threads value. Checkpointing:
//
//   $ ./build/bench/fleet --spec S --checkpoint cp.fsnp --checkpoint-every 4
//   $ ./build/bench/fleet --spec S --resume cp.fsnp --out final.json
//
// --stop-after-checkpoints N exits after the Nth checkpoint (a controlled
// kill for crash-resume testing); a subsequent --resume run produces a final
// report bit-identical to an uninterrupted one.
//
// --ci appends a BENCH_fleet.json metrics file (devices/sec, peak RSS,
// parked bytes/device) next to the report for the CI dashboard; those
// host-dependent numbers never appear in the report itself.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>

#include "src/campaign/spec.h"
#include "src/fleet/report.h"
#include "src/fleet/runner.h"
#include "src/fleet/shard.h"

using namespace flashsim;

namespace {

void Usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --spec FILE [options]\n"
      "  --spec FILE                campaign spec with a fleet directive\n"
      "  --fleet NAME               fleet to run (default: first in spec)\n"
      "  --threads N                worker threads (default 1)\n"
      "  --out FILE                 JSON report path (default <fleet>.json)\n"
      "  --checkpoint FILE          write resumable checkpoints here\n"
      "  --checkpoint-every N       checkpoint after every N finished shards\n"
      "  --stop-after-checkpoints N exit after the Nth checkpoint\n"
      "  --resume FILE              warm-start from a checkpoint file\n"
      "  --ci                       also write BENCH_fleet.json metrics\n"
      "  --quiet                    suppress the stdout summary\n",
      argv0);
}

// Peak resident set size in KiB from /proc/self/status (0 if unavailable,
// e.g. on non-Linux hosts). CI-metric only; never part of the report.
uint64_t PeakRssKiB() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::string spec_path;
  std::string fleet_name;
  std::string out_path;
  FleetRunOptions options;
  bool ci = false;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--fleet" && i + 1 < argc) {
      fleet_name = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      options.threads = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--checkpoint" && i + 1 < argc) {
      options.checkpoint_path = argv[++i];
    } else if (arg == "--checkpoint-every" && i + 1 < argc) {
      options.checkpoint_every_shards = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--stop-after-checkpoints" && i + 1 < argc) {
      options.stop_after_checkpoints = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--resume" && i + 1 < argc) {
      options.resume_path = argv[++i];
    } else if (arg == "--ci") {
      ci = true;
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      Usage(argv[0]);
      return 2;
    }
  }
  if (spec_path.empty() || options.threads < 1) {
    Usage(argv[0]);
    return 2;
  }

  Result<CampaignSpec> parsed = LoadCampaignSpecFile(spec_path);
  if (!parsed.ok()) {
    std::fprintf(stderr, "error: %s\n", parsed.status().ToString().c_str());
    return 1;
  }
  const CampaignSpec& spec = parsed.value();
  const FleetSpec* fleet = fleet_name.empty()
                               ? (spec.fleets.empty() ? nullptr : &spec.fleets[0])
                               : spec.FindFleet(fleet_name);
  if (fleet == nullptr) {
    std::fprintf(stderr, "error: spec defines no fleet%s%s\n",
                 fleet_name.empty() ? "" : " named ",
                 fleet_name.c_str());
    return 1;
  }
  if (out_path.empty()) {
    out_path = fleet->name + ".json";
  }
  std::printf("fleet '%s': %llu devices, %llu shards, %d thread%s\n",
              fleet->name.c_str(),
              static_cast<unsigned long long>(fleet->device_count),
              static_cast<unsigned long long>(FleetShardCount(*fleet)),
              options.threads, options.threads == 1 ? "" : "s");

  const uint64_t rss_before_kib = PeakRssKiB();
  Result<FleetOutcome> run = RunFleet(spec, *fleet, options);
  if (!run.ok()) {
    std::fprintf(stderr, "error: %s\n", run.status().ToString().c_str());
    return 1;
  }
  const FleetOutcome& outcome = run.value();

  const std::filesystem::path out_file(out_path);
  if (out_file.has_parent_path()) {
    std::error_code ec;
    std::filesystem::create_directories(out_file.parent_path(), ec);
  }
  {
    std::ofstream json(out_path);
    if (!json) {
      std::fprintf(stderr, "error: cannot write %s\n", out_path.c_str());
      return 1;
    }
    WriteFleetJson(outcome, json);
  }
  if (!quiet) {
    PrintFleetSummary(outcome, std::cout);
  }
  std::printf("report: %s%s\n", out_path.c_str(),
              outcome.completed ? "" : " (partial: stopped at checkpoint)");

  if (ci) {
    const uint64_t rss_peak_kib = PeakRssKiB();
    const double devices_per_sec =
        outcome.wall_seconds > 0.0
            ? static_cast<double>(outcome.acc.DevicesDone()) /
                  outcome.wall_seconds
            : 0.0;
    std::ofstream bench("BENCH_fleet.json");
    bench << "{\n";
    bench << "  \"fleet\": \"" << fleet->name << "\",\n";
    bench << "  \"devices\": " << fleet->device_count << ",\n";
    bench << "  \"threads\": " << options.threads << ",\n";
    bench << "  \"wall_seconds\": " << outcome.wall_seconds << ",\n";
    bench << "  \"devices_per_sec\": " << devices_per_sec << ",\n";
    bench << "  \"peak_rss_mib\": " << rss_peak_kib / 1024.0 << ",\n";
    bench << "  \"rss_before_mib\": " << rss_before_kib / 1024.0 << ",\n";
    bench << "  \"parked_raw_mean_bytes\": "
          << outcome.acc.parked_raw_bytes().Mean() << ",\n";
    bench << "  \"park_resident_mean_bytes\": " << outcome.park.ResidentMean()
          << ",\n";
    bench << "  \"park_events\": " << outcome.park.park_events << ",\n";
    bench << "  \"scratch_grows\": " << outcome.park.scratch_grows << ",\n";
    bench << "  \"steals\": " << outcome.sched.steals << ",\n";
    bench << "  \"worker_busy_min_seconds\": " << outcome.sched.busy_seconds_min
          << ",\n";
    bench << "  \"worker_busy_max_seconds\": " << outcome.sched.busy_seconds_max
          << "\n";
    bench << "}\n";
    std::printf("metrics: BENCH_fleet.json\n");
  }
  return 0;
}
