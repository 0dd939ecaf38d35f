#include "src/campaign/spec.h"

#include <cctype>
#include <cstdlib>
#include <fstream>
#include <sstream>

#include "src/simcore/rng.h"
#include "src/simcore/units.h"

namespace flashsim {

namespace {

// --- low-level token parsing ------------------------------------------------

bool ParseU64(const std::string& text, uint64_t* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

bool ParseF64(const std::string& text, double* out) {
  if (text.empty()) {
    return false;
  }
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  if (end == nullptr || *end != '\0') {
    return false;
  }
  *out = v;
  return true;
}

// "4096", "4KiB", "100MiB", "1GiB", "2TiB" (also lowercase kib/mib/...).
bool ParseSize(const std::string& text, uint64_t* out) {
  size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.')) {
    ++i;
  }
  double value = 0.0;
  if (!ParseF64(text.substr(0, i), &value)) {
    return false;
  }
  std::string unit = text.substr(i);
  for (char& c : unit) {
    c = static_cast<char>(std::tolower(c));
  }
  double mult = 1.0;
  if (unit.empty() || unit == "b") {
    mult = 1.0;
  } else if (unit == "kib" || unit == "k") {
    mult = static_cast<double>(kKiB);
  } else if (unit == "mib" || unit == "m") {
    mult = static_cast<double>(kMiB);
  } else if (unit == "gib" || unit == "g") {
    mult = static_cast<double>(kGiB);
  } else if (unit == "tib" || unit == "t") {
    mult = static_cast<double>(kTiB);
  } else {
    return false;
  }
  *out = static_cast<uint64_t>(value * mult);
  return true;
}

// "5ms", "100us", "2s", "50ns".
bool ParseSimDuration(const std::string& text, SimDuration* out) {
  size_t i = 0;
  while (i < text.size() &&
         (std::isdigit(static_cast<unsigned char>(text[i])) || text[i] == '.')) {
    ++i;
  }
  double value = 0.0;
  if (!ParseF64(text.substr(0, i), &value)) {
    return false;
  }
  const std::string unit = text.substr(i);
  double nanos;
  if (unit == "ns") {
    nanos = value;
  } else if (unit == "us") {
    nanos = value * 1e3;
  } else if (unit == "ms") {
    nanos = value * 1e6;
  } else if (unit == "s" || unit.empty()) {
    nanos = value * 1e9;
  } else {
    return false;
  }
  *out = SimDuration::Nanos(static_cast<int64_t>(nanos));
  return true;
}

// "16x1" -> {16, 1}.
bool ParseScale(const std::string& text, SimScale* out) {
  const size_t x = text.find('x');
  if (x == std::string::npos) {
    return false;
  }
  uint64_t cap = 0;
  uint64_t end = 0;
  if (!ParseU64(text.substr(0, x), &cap) || !ParseU64(text.substr(x + 1), &end) ||
      cap == 0 || end == 0) {
    return false;
  }
  out->capacity_div = static_cast<uint32_t>(cap);
  out->endurance_div = static_cast<uint32_t>(end);
  return true;
}

bool ParseBool(const std::string& text, bool* out) {
  if (text == "1" || text == "true" || text == "yes") {
    *out = true;
  } else if (text == "0" || text == "false" || text == "no") {
    *out = false;
  } else {
    return false;
  }
  return true;
}

std::vector<std::string> SplitList(const std::string& text) {
  std::vector<std::string> items;
  std::string item;
  std::stringstream ss(text);
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) {
      items.push_back(item);
    }
  }
  return items;
}

// Whitespace-splits a line into tokens.
std::vector<std::string> Tokenize(const std::string& line) {
  std::vector<std::string> tokens;
  std::stringstream ss(line);
  std::string token;
  while (ss >> token) {
    tokens.push_back(token);
  }
  return tokens;
}

Status LineError(size_t line_no, const std::string& message) {
  return InvalidArgumentError("spec line " + std::to_string(line_no) + ": " + message);
}

struct KeyValue {
  std::string key;
  std::string value;
};

bool SplitKeyValue(const std::string& token, KeyValue* kv) {
  const size_t eq = token.find('=');
  if (eq == std::string::npos || eq == 0) {
    return false;
  }
  kv->key = token.substr(0, eq);
  kv->value = token.substr(eq + 1);
  return true;
}

// --- directive handlers -----------------------------------------------------

Status ApplyWorkloadKey(const KeyValue& kv, size_t line_no,
                        SyntheticWorkloadConfig* w) {
  const std::string& k = kv.key;
  const std::string& v = kv.value;
  bool ok = true;
  if (k == "pattern") {
    ok = ParseAccessPattern(v, &w->pattern);
  } else if (k == "request") {
    ok = ParseSize(v, &w->request_bytes) && w->request_bytes > 0;
  } else if (k == "total") {
    ok = ParseSize(v, &w->total_bytes) && w->total_bytes > 0;
  } else if (k == "span") {
    if (!v.empty() && v.back() == '%') {
      double pct = 0.0;
      ok = ParseF64(v.substr(0, v.size() - 1), &pct) && pct > 0.0 && pct <= 100.0;
      w->span_fraction = pct / 100.0;
    } else {
      ok = ParseSize(v, &w->span_bytes);
    }
  } else if (k == "start") {
    ok = ParseSize(v, &w->start_offset);
  } else if (k == "stride") {
    ok = ParseSize(v, &w->stride_bytes);
  } else if (k == "theta") {
    ok = ParseF64(v, &w->zipf_theta) && w->zipf_theta > 0.0 && w->zipf_theta < 1.0;
  } else if (k == "hot_fraction") {
    ok = ParseF64(v, &w->hot_fraction) && w->hot_fraction > 0.0 && w->hot_fraction <= 1.0;
  } else if (k == "hot_probability") {
    ok = ParseF64(v, &w->hot_probability) && w->hot_probability >= 0.0 &&
         w->hot_probability <= 1.0;
  } else if (k == "read_fraction") {
    ok = ParseF64(v, &w->read_fraction) && w->read_fraction >= 0.0 &&
         w->read_fraction <= 1.0;
  } else if (k == "burst") {
    ok = ParseU64(v, &w->burst_requests);
  } else if (k == "idle") {
    ok = ParseSimDuration(v, &w->idle_time);
  } else {
    return LineError(line_no, "unknown workload key '" + k + "'");
  }
  if (!ok) {
    return LineError(line_no, "bad value for '" + k + "': '" + v + "'");
  }
  return Status::Ok();
}

Status ApplyGridKey(const KeyValue& kv, size_t line_no, GridSpec* g) {
  const std::string& k = kv.key;
  const std::string& v = kv.value;
  bool ok = true;
  if (k == "layer") {
    if (v == "block") {
      g->layer = RunLayer::kBlock;
    } else if (v == "phone") {
      g->layer = RunLayer::kPhone;
    } else {
      ok = false;
    }
  } else if (k == "metric") {
    if (v == "bandwidth") {
      g->metric = RunMetric::kBandwidth;
    } else if (v == "wear") {
      g->metric = RunMetric::kWear;
    } else {
      ok = false;
    }
  } else if (k == "scale") {
    ok = ParseScale(v, &g->scale);
  } else if (k == "devices") {
    g->devices = SplitList(v);
    ok = !g->devices.empty();
  } else if (k == "workloads") {
    g->workloads = SplitList(v);
    ok = !g->workloads.empty();
  } else if (k == "fs") {
    g->filesystems.clear();
    for (const std::string& fs_name : SplitList(v)) {
      if (fs_name == "ext4" || fs_name == "extfs") {
        g->filesystems.push_back(PhoneFsType::kExtFs);
      } else if (fs_name == "f2fs" || fs_name == "logfs") {
        g->filesystems.push_back(PhoneFsType::kLogFs);
      } else if (fs_name == "cowfs" || fs_name == "littlefs") {
        g->filesystems.push_back(PhoneFsType::kCowFs);
      } else {
        ok = false;
      }
    }
    ok = ok && !g->filesystems.empty();
  } else if (k == "utilization") {
    ok = ParseF64(v, &g->utilization) && g->utilization >= 0.0 && g->utilization < 1.0;
  } else if (k == "target_level") {
    uint64_t level = 0;
    ok = ParseU64(v, &level) && level >= 1 && level <= 11;
    g->target_level = static_cast<uint32_t>(level);
  } else if (k == "max_bytes") {
    ok = ParseSize(v, &g->max_bytes);
  } else if (k == "files") {
    const size_t x = v.find('x');
    uint64_t count = 0;
    ok = x != std::string::npos && ParseU64(v.substr(0, x), &count) && count > 0 &&
         ParseSize(v.substr(x + 1), &g->file_bytes) && g->file_bytes > 0;
    g->file_count = static_cast<uint32_t>(count);
  } else if (k == "sync") {
    ok = ParseBool(v, &g->sync);
  } else if (k == "batch") {
    ok = ParseU64(v, &g->batch_requests) && g->batch_requests > 0;
  } else if (k == "depth") {
    uint64_t depth = 0;
    ok = ParseU64(v, &depth) && depth >= 1 && depth <= 4096;
    g->queue_depth = static_cast<uint32_t>(depth);
  } else if (k == "channels") {
    uint64_t ch = 0;
    ok = ParseU64(v, &ch) && ch >= 1 && ch <= 64;
    g->channels = static_cast<uint32_t>(ch);
  } else if (k == "engine") {
    if (v == "event") {
      g->force_event_engine = true;
    } else if (v == "flat") {
      g->force_event_engine = false;
    } else {
      ok = false;
    }
  } else {
    return LineError(line_no, "unknown grid key '" + k + "'");
  }
  if (!ok) {
    return LineError(line_no, "bad value for '" + k + "': '" + v + "'");
  }
  return Status::Ok();
}

Status ApplyFleetKey(const KeyValue& kv, size_t line_no, FleetSpec* f) {
  const std::string& k = kv.key;
  const std::string& v = kv.value;
  bool ok = true;
  if (k == "count") {
    ok = ParseU64(v, &f->device_count) && f->device_count > 0;
  } else if (k == "scale") {
    ok = ParseScale(v, &f->scale);
  } else if (k == "devices") {
    f->devices = SplitList(v);
    ok = !f->devices.empty();
  } else if (k == "workloads") {
    f->workloads = SplitList(v);
    ok = !f->workloads.empty();
  } else if (k == "shard") {
    ok = ParseU64(v, &f->shard_devices) && f->shard_devices > 0;
  } else if (k == "slice") {
    ok = ParseSize(v, &f->slice_bytes) && f->slice_bytes > 0;
  } else if (k == "target_level") {
    uint64_t level = 0;
    ok = ParseU64(v, &level) && level >= 1 && level <= 11;
    f->target_level = static_cast<uint32_t>(level);
  } else if (k == "max_device_bytes") {
    ok = ParseSize(v, &f->max_device_bytes);
  } else if (k == "batch") {
    ok = ParseU64(v, &f->batch_requests) && f->batch_requests > 0;
  } else if (k == "survival_bin_hours") {
    ok = ParseF64(v, &f->survival_bin_hours) && f->survival_bin_hours > 0.0;
  } else {
    return LineError(line_no, "unknown fleet key '" + k + "'");
  }
  if (!ok) {
    return LineError(line_no, "bad value for '" + k + "': '" + v + "'");
  }
  return Status::Ok();
}

}  // namespace

const char* RunLayerName(RunLayer layer) {
  return layer == RunLayer::kBlock ? "block" : "phone";
}

const char* RunMetricName(RunMetric metric) {
  return metric == RunMetric::kBandwidth ? "bandwidth" : "wear";
}

const std::vector<CampaignDevice>& CampaignDevices() {
  static const std::vector<CampaignDevice>* devices = new std::vector<CampaignDevice>{
      {"usd16", "uSD 16GB", MakeUsd16},
      {"emmc8", "eMMC 8GB", MakeEmmc8},
      {"emmc16", "eMMC 16GB", MakeEmmc16},
      {"moto_e8", "Moto E 8GB", MakeMotoE8},
      {"samsung_s6", "Samsung S6 32GB", MakeSamsungS6},
      {"blu512", "BLU 512MB", MakeBlu512},
      {"blu4", "BLU 4GB", MakeBlu4},
  };
  return *devices;
}

const CampaignDevice* FindCampaignDevice(const std::string& slug) {
  for (const CampaignDevice& device : CampaignDevices()) {
    if (device.slug == slug) {
      return &device;
    }
  }
  return nullptr;
}

const SyntheticWorkloadConfig* CampaignSpec::FindWorkload(
    const std::string& workload_name) const {
  for (const SyntheticWorkloadConfig& w : workloads) {
    if (w.name == workload_name) {
      return &w;
    }
  }
  return nullptr;
}

const FleetSpec* CampaignSpec::FindFleet(const std::string& fleet_name) const {
  for (const FleetSpec& f : fleets) {
    if (f.name == fleet_name) {
      return &f;
    }
  }
  return nullptr;
}

Result<CampaignSpec> ParseCampaignSpec(const std::string& text) {
  CampaignSpec spec;
  bool saw_campaign = false;
  std::stringstream lines(text);
  std::string line;
  size_t line_no = 0;
  while (std::getline(lines, line)) {
    ++line_no;
    const size_t hash = line.find('#');
    if (hash != std::string::npos) {
      line = line.substr(0, hash);
    }
    const std::vector<std::string> tokens = Tokenize(line);
    if (tokens.empty()) {
      continue;
    }
    const std::string& directive = tokens[0];
    if (tokens.size() < 2) {
      return LineError(line_no, "directive '" + directive + "' needs a name");
    }

    if (directive == "campaign") {
      saw_campaign = true;
      spec.name = tokens[1];
      for (size_t i = 2; i < tokens.size(); ++i) {
        KeyValue kv;
        if (!SplitKeyValue(tokens[i], &kv)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        if (kv.key == "seed") {
          if (!ParseU64(kv.value, &spec.seed)) {
            return LineError(line_no, "bad seed '" + kv.value + "'");
          }
        } else if (kv.key == "scale") {
          if (!ParseScale(kv.value, &spec.scale)) {
            return LineError(line_no, "bad scale '" + kv.value + "'");
          }
        } else {
          return LineError(line_no, "unknown campaign key '" + kv.key + "'");
        }
      }
    } else if (directive == "workload") {
      SyntheticWorkloadConfig w;
      w.name = tokens[1];
      if (spec.FindWorkload(w.name) != nullptr) {
        return LineError(line_no, "duplicate workload '" + w.name + "'");
      }
      for (size_t i = 2; i < tokens.size(); ++i) {
        KeyValue kv;
        if (!SplitKeyValue(tokens[i], &kv)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        FLASHSIM_RETURN_IF_ERROR(ApplyWorkloadKey(kv, line_no, &w));
      }
      spec.workloads.push_back(std::move(w));
    } else if (directive == "grid") {
      GridSpec g;
      g.name = tokens[1];
      g.scale = spec.scale;
      for (size_t i = 2; i < tokens.size(); ++i) {
        KeyValue kv;
        if (!SplitKeyValue(tokens[i], &kv)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        FLASHSIM_RETURN_IF_ERROR(ApplyGridKey(kv, line_no, &g));
      }
      if (g.devices.empty()) {
        return LineError(line_no, "grid '" + g.name + "' lists no devices");
      }
      if (g.workloads.empty()) {
        return LineError(line_no, "grid '" + g.name + "' lists no workloads");
      }
      for (const std::string& slug : g.devices) {
        if (FindCampaignDevice(slug) == nullptr) {
          return LineError(line_no, "unknown device '" + slug + "'");
        }
      }
      for (const std::string& w : g.workloads) {
        if (spec.FindWorkload(w) == nullptr) {
          return LineError(line_no, "grid references undefined workload '" + w + "'");
        }
      }
      if (g.layer == RunLayer::kBlock && !g.filesystems.empty()) {
        return LineError(line_no, "fs= only applies to layer=phone grids");
      }
      if (g.metric == RunMetric::kWear && g.target_level == 0 && g.max_bytes == 0) {
        return LineError(line_no,
                         "wear grids need target_level= and/or max_bytes=");
      }
      if (g.layer == RunLayer::kPhone && g.filesystems.empty()) {
        g.filesystems.push_back(PhoneFsType::kExtFs);
      }
      spec.grids.push_back(std::move(g));
    } else if (directive == "fleet") {
      FleetSpec f;
      f.name = tokens[1];
      f.scale = spec.scale;
      if (spec.FindFleet(f.name) != nullptr) {
        return LineError(line_no, "duplicate fleet '" + f.name + "'");
      }
      for (size_t i = 2; i < tokens.size(); ++i) {
        KeyValue kv;
        if (!SplitKeyValue(tokens[i], &kv)) {
          return LineError(line_no, "expected key=value, got '" + tokens[i] + "'");
        }
        FLASHSIM_RETURN_IF_ERROR(ApplyFleetKey(kv, line_no, &f));
      }
      if (f.device_count == 0) {
        return LineError(line_no, "fleet '" + f.name + "' needs count=");
      }
      if (f.devices.empty()) {
        return LineError(line_no, "fleet '" + f.name + "' lists no devices");
      }
      if (f.workloads.empty()) {
        return LineError(line_no, "fleet '" + f.name + "' lists no workloads");
      }
      for (const std::string& slug : f.devices) {
        if (FindCampaignDevice(slug) == nullptr) {
          return LineError(line_no, "unknown device '" + slug + "'");
        }
      }
      for (const std::string& w : f.workloads) {
        if (spec.FindWorkload(w) == nullptr) {
          return LineError(line_no,
                           "fleet references undefined workload '" + w + "'");
        }
      }
      f.index = spec.fleets.size();
      spec.fleets.push_back(std::move(f));
    } else {
      return LineError(line_no, "unknown directive '" + directive + "'");
    }
  }
  if (!saw_campaign) {
    return InvalidArgumentError("spec has no 'campaign' line");
  }
  if (spec.grids.empty() && spec.fleets.empty()) {
    return InvalidArgumentError("spec defines no grids or fleets");
  }
  return spec;
}

Result<CampaignSpec> LoadCampaignSpecFile(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return NotFoundError("cannot open spec file: " + path);
  }
  std::stringstream buffer;
  buffer << in.rdbuf();
  return ParseCampaignSpec(buffer.str());
}

std::vector<RunSpec> ExpandRuns(const CampaignSpec& spec) {
  std::vector<RunSpec> runs;
  for (const GridSpec& grid : spec.grids) {
    const bool phone = grid.layer == RunLayer::kPhone;
    const std::vector<PhoneFsType> fs_list =
        phone ? grid.filesystems : std::vector<PhoneFsType>{PhoneFsType::kExtFs};
    for (const std::string& device : grid.devices) {
      for (const PhoneFsType fs : fs_list) {
        for (const std::string& workload_name : grid.workloads) {
          const SyntheticWorkloadConfig* w = spec.FindWorkload(workload_name);
          if (w == nullptr) {
            continue;  // validated at parse time; defensive for built specs
          }
          RunSpec run;
          run.index = runs.size();
          run.grid = grid.name;
          run.layer = grid.layer;
          run.metric = grid.metric;
          run.scale = grid.scale;
          run.device = device;
          run.fs = fs;
          run.has_fs = phone;
          run.workload = *w;
          run.utilization = grid.utilization;
          run.target_level = grid.target_level;
          run.max_bytes = grid.max_bytes;
          run.file_count = grid.file_count;
          run.file_bytes = grid.file_bytes;
          run.sync = grid.sync;
          run.batch_requests = grid.batch_requests;
          run.queue_depth = grid.queue_depth;
          run.channels = grid.channels;
          run.force_event_engine = grid.force_event_engine;
          run.seed = DeriveSeed(spec.seed, run.index);
          runs.push_back(std::move(run));
        }
      }
    }
  }
  return runs;
}

}  // namespace flashsim
