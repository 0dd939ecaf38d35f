#include "src/fleet/report.h"

#include <cinttypes>
#include <cstdio>
#include <string>

namespace flashsim {

namespace {

// Deterministic double formatting, matching the campaign report writers.
std::string JsonNum(double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.6g", value);
  return buf;
}

std::string JsonNum(uint64_t value) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%" PRIu64, value);
  return buf;
}

std::string JsonStr(const std::string& value) {
  std::string out = "\"";
  for (const char c : value) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      default:
        out += c;
    }
  }
  out += "\"";
  return out;
}

const char* JsonBool(bool value) { return value ? "true" : "false"; }

void WriteDigest(const WearDigest& d, std::ostream& os) {
  os << "{\"count\": " << JsonNum(d.count())
     << ", \"mean\": " << JsonNum(d.Mean())
     << ", \"p10\": " << JsonNum(d.Quantile(0.10))
     << ", \"p50\": " << JsonNum(d.Quantile(0.50))
     << ", \"p90\": " << JsonNum(d.Quantile(0.90)) << "}";
}

}  // namespace

void WriteFleetJson(const FleetOutcome& outcome, std::ostream& os) {
  const FleetAccumulator& acc = outcome.acc;
  os << "{\n";
  os << "  \"campaign\": " << JsonStr(outcome.campaign) << ",\n";
  os << "  \"fleet\": " << JsonStr(outcome.fleet) << ",\n";
  os << "  \"seed\": " << JsonNum(outcome.seed) << ",\n";
  os << "  \"device_count\": " << JsonNum(outcome.device_count) << ",\n";
  os << "  \"shard_count\": " << JsonNum(outcome.shard_count) << ",\n";
  os << "  \"completed\": " << JsonBool(outcome.completed) << ",\n";
  os << "  \"devices_done\": " << JsonNum(acc.DevicesDone()) << ",\n";
  os << "  \"devices_bricked\": " << JsonNum(acc.DevicesBricked()) << ",\n";
  os << "  \"survival_bin_hours\": " << JsonNum(acc.survival_bin_hours())
     << ",\n";
  // Only raw sizes here: packed sizes are a property of the park codec, not
  // of the simulation, and live in BENCH_fleet.json.
  os << "  \"parked_bytes\": {\"samples\": "
     << JsonNum(acc.parked_raw_bytes().count())
     << ", \"raw_mean\": " << JsonNum(acc.parked_raw_bytes().Mean())
     << ", \"raw_max\": " << JsonNum(acc.parked_raw_bytes().max())
     << "},\n";
  // Slice-count spread across shards: the deterministic cohort-imbalance
  // signal (host timings stay out of the report).
  os << "  \"shard_slices\": {\"shards\": "
     << JsonNum(acc.shard_slices().count())
     << ", \"mean\": " << JsonNum(acc.shard_slices().Mean())
     << ", \"min\": " << JsonNum(acc.shard_slices().min())
     << ", \"max\": " << JsonNum(acc.shard_slices().max())
     << "},\n";
  os << "  \"models\": [\n";
  for (size_t i = 0; i < acc.models().size(); ++i) {
    const FleetModelStats& m = acc.models()[i];
    os << "    {\n";
    os << "      \"model\": " << JsonStr(acc.model_slugs()[i]) << ",\n";
    os << "      \"devices\": " << JsonNum(m.devices) << ",\n";
    os << "      \"bricked\": " << JsonNum(m.bricked) << ",\n";
    os << "      \"reached_level\": " << JsonNum(m.reached_level) << ",\n";
    os << "      \"brick_days\": ";
    WriteDigest(m.brick_days, os);
    os << ",\n";
    os << "      \"host_gib\": ";
    WriteDigest(m.host_gib, os);
    os << ",\n";
    os << "      \"device_wa\": ";
    WriteDigest(m.device_wa, os);
    os << ",\n";
    os << "      \"levels\": [";
    bool first_level = true;
    for (uint32_t level = 1; level <= kMaxWearLevel; ++level) {
      const WearDigest& d = m.level_days[level];
      if (d.count() == 0) {
        continue;
      }
      if (!first_level) {
        os << ", ";
      }
      first_level = false;
      os << "{\"level\": " << JsonNum(static_cast<uint64_t>(level))
         << ", \"count\": " << JsonNum(d.count())
         << ", \"p50_days\": " << JsonNum(d.Quantile(0.5)) << "}";
    }
    os << "],\n";
    os << "      \"survival\": [";
    uint64_t cum = 0;
    bool first_bin = true;
    for (const auto& [bin, n] : m.brick_day_hist.bins()) {
      cum += n;
      if (!first_bin) {
        os << ", ";
      }
      first_bin = false;
      const double frac =
          m.devices > 0
              ? static_cast<double>(cum) / static_cast<double>(m.devices)
              : 0.0;
      os << "{\"bin\": " << JsonNum(static_cast<uint64_t>(bin))
         << ", \"bricked\": " << JsonNum(n)
         << ", \"cum_bricked\": " << JsonNum(cum)
         << ", \"cum_fraction\": " << JsonNum(frac) << "}";
    }
    os << "]\n";
    os << "    }" << (i + 1 < acc.models().size() ? "," : "") << "\n";
  }
  os << "  ]\n";
  os << "}\n";
}

void PrintFleetSummary(const FleetOutcome& outcome, std::ostream& os) {
  const FleetAccumulator& acc = outcome.acc;
  char line[256];
  std::snprintf(line, sizeof(line),
                "fleet %s: %" PRIu64 " devices in %" PRIu64
                " shards, %" PRIu64 " done, %" PRIu64 " bricked%s",
                outcome.fleet.c_str(), outcome.device_count,
                outcome.shard_count, acc.DevicesDone(), acc.DevicesBricked(),
                outcome.completed ? "" : " (stopped at checkpoint)");
  os << line << "\n";
  std::snprintf(line, sizeof(line),
                "  parked state: mean %.1f KiB raw -> %.1f KiB resident "
                "over %" PRIu64 " parks",
                acc.parked_raw_bytes().Mean() / 1024.0,
                outcome.park.ResidentMean() / 1024.0,
                acc.parked_raw_bytes().count());
  os << line << "\n";
  if (acc.shard_slices().count() > 0) {
    std::snprintf(line, sizeof(line),
                  "  shard slices: mean %.1f (min %.0f, max %.0f); "
                  "steals %" PRIu64 ", worker busy %.1fs..%.1fs",
                  acc.shard_slices().Mean(), acc.shard_slices().min(),
                  acc.shard_slices().max(), outcome.sched.steals,
                  outcome.sched.busy_seconds_min,
                  outcome.sched.busy_seconds_max);
    os << line << "\n";
  }
  for (size_t i = 0; i < acc.models().size(); ++i) {
    const FleetModelStats& m = acc.models()[i];
    const double frac =
        m.devices > 0
            ? 100.0 * static_cast<double>(m.bricked) /
                  static_cast<double>(m.devices)
            : 0.0;
    std::snprintf(line, sizeof(line),
                  "  %-12s %8" PRIu64 " devices, %7" PRIu64
                  " bricked (%5.1f%%), median brick day %.1f",
                  acc.model_slugs()[i].c_str(), m.devices, m.bricked, frac,
                  m.brick_days.Quantile(0.5));
    os << line << "\n";
  }
  if (outcome.wall_seconds > 0.0) {
    std::snprintf(line, sizeof(line), "  wall %.1fs (%.0f devices/sec)",
                  outcome.wall_seconds,
                  static_cast<double>(acc.DevicesDone()) /
                      outcome.wall_seconds);
    os << line << "\n";
  }
}

}  // namespace flashsim
