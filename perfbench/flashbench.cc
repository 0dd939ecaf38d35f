// flashbench: one workload of the flashsim benchmark, run in its own process.
//
//   flashbench --workload block_gc|phone_fs|fleet --seed N --seconds S
//              [--trace] [--spans FILE] [--digest-out FILE]
//
// A run is a number of rounds set by --seconds. A round sets up fresh
// devices (timed as set-up), then drives a fixed amount of closed-loop
// request traffic through the library's public entry points (timed as the
// measured phase). The simulated work depends only on (seed, seconds), so a
// pair always simulates exactly the same thing on every commit and host.
//
// The last stdout line is one JSON object: per-round host timings, a digest
// of every simulated statistic the run produced, the output checks, peak
// RSS, and with --trace the per-layer totals from the decorators in
// layers.h. Set-up and measured phases are timed in CPU seconds of this
// process, spans in wall-clock time; everything in the digest is simulated.

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "perfbench/layers.h"
#include "src/campaign/spec.h"
#include "src/device/catalog.h"
#include "src/fleet/report.h"
#include "src/fleet/runner.h"
#include "src/fs/cowfs.h"
#include "src/fs/extfs.h"
#include "src/fs/logfs.h"
#include "src/simcore/units.h"
#include "src/workload/driver.h"
#include "src/workload/generators.h"

namespace {

using flashsim::BlockDevice;
using flashsim::FlashDevice;
using flashsim::FsStats;
using flashsim::FtlStats;
using flashsim::kGiB;
using flashsim::kKiB;
using flashsim::kMiB;
using flashsim::SimScale;
using flashsim::SyntheticWorkload;
using flashsim::SyntheticWorkloadConfig;
using flashsim::WorkloadDriveOptions;
using flashsim::WorkloadRunResult;
using perfbench::Layer;
using perfbench::Tracer;
using Clock = std::chrono::steady_clock;

// Work per round, sized so that a round measures about one second
// (block_gc, phone_fs) or two (fleet) on a quiet 4-core x86-64 host in a
// Release build; a run has one round per second of --seconds (fleet: one per
// two), and at least kMinRounds.
constexpr int kMinRounds = 3;
constexpr uint64_t kBlockGcRoundBytes = 5 * kGiB;
constexpr uint64_t kPhoneRoundBytesPerFs = 26 * kMiB;
// Two 64-device shards: rounds of a single shard were seen to run at half
// speed now and then, as if one of the two workers sat idle.
constexpr uint64_t kFleetRoundDevices = 96;
// A fleet's set-up (one spec parse) takes about ten microseconds, far too
// short to time alone on a shared host; each round times this many
// back-to-back parses (about 20 ms) and records the mean.
constexpr int kFleetSetupRepeats = 2048;

constexpr double kBlockGcUtilization = 0.92;
constexpr double kPhoneStaticUtilization = 0.55;
constexpr uint32_t kPhoneCapacityDiv = 32;
constexpr int kFleetWorkers = 2;
constexpr uint64_t kInvariantStride = 61;

struct Options {
  std::string workload;
  uint64_t seed = 0;
  uint64_t seconds = 0;
  bool trace = false;
  std::string spans_path;
  std::string digest_path;
};

double Since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// CPU seconds used so far by all threads of this process. The kernel leaves
// out time the host stole from the VM and time other processes ran, so this
// clock measures the program's own work even on a busy shared host.
double CpuNow() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

// SplitMix64 over (seed, stream): every seed the library receives is derived
// here from --seed, so the library only ever sees generated inputs.
uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

// Canonical record of the simulated output: one "key=value" line per
// statistic. Two runs simulated the same thing iff their texts are equal;
// the digest is FNV-1a-64 over the text.
class Digest {
 public:
  void Add(const std::string& key, uint64_t v) { Line(key, std::to_string(v)); }
  void Add(const std::string& key, double v) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    Line(key, buf);
  }
  void Line(const std::string& key, const std::string& value) {
    text_ += key;
    text_ += '=';
    text_ += value;
    text_ += '\n';
  }
  uint64_t Hash() const {
    uint64_t h = 0xcbf29ce484222325ull;
    for (unsigned char c : text_) {
      h = (h ^ c) * 0x100000001b3ull;
    }
    return h;
  }
  const std::string& text() const { return text_; }

 private:
  std::string text_;
};

void DigestFtl(Digest& d, const std::string& p, const FtlStats& s) {
  d.Add(p + "host_pages_written", s.host_pages_written);
  d.Add(p + "nand_pages_written", s.nand_pages_written);
  d.Add(p + "gc_pages_migrated", s.gc_pages_migrated);
  d.Add(p + "erases", s.erases);
  d.Add(p + "host_pages_read", s.host_pages_read);
  d.Add(p + "free_blocks", static_cast<uint64_t>(s.free_blocks));
  d.Add(p + "valid_pages", s.valid_pages);
  d.Add(p + "gc_victim_picks", s.gc_victim_picks);
  d.Add(p + "gc_victim_candidates", s.gc_victim_candidates);
  d.Add(p + "victim_index_rebuilds", s.victim_index_rebuilds);
  d.Add(p + "victim_seq_hash", s.victim_seq_hash);
  d.Add(p + "cache_evict_picks", s.cache_evict_picks);
  d.Add(p + "cache_evict_candidates", s.cache_evict_candidates);
  d.Add(p + "cache_victim_seq_hash", s.cache_victim_seq_hash);
}

void DigestFs(Digest& d, const std::string& p, const FsStats& s) {
  d.Add(p + "app_bytes_written", s.app_bytes_written);
  d.Add(p + "device_data_bytes", s.device_data_bytes);
  d.Add(p + "device_metadata_bytes", s.device_metadata_bytes);
  d.Add(p + "device_journal_bytes", s.device_journal_bytes);
  d.Add(p + "fsyncs", s.fsyncs);
  d.Add(p + "cleaner_bytes_moved", s.cleaner_bytes_moved);
  d.Add(p + "metadata_commits", s.metadata_commits);
  d.Add(p + "cleaner_picks", s.cleaner_picks);
  d.Add(p + "cleaner_candidates_examined", s.cleaner_candidates_examined);
  d.Add(p + "cleaner_victim_hash", s.cleaner_victim_hash);
}

void DigestRun(Digest& d, const std::string& p, const WorkloadRunResult& r) {
  d.Add(p + "requests", r.requests);
  d.Add(p + "bytes_written", r.bytes_written);
  d.Add(p + "bytes_read", r.bytes_read);
  d.Add(p + "elapsed_ns", static_cast<uint64_t>(r.elapsed.nanos()));
  d.Add(p + "io_time_ns", static_cast<uint64_t>(r.io_time.nanos()));
  d.Add(p + "reached_level", static_cast<uint64_t>(r.reached_level));
  d.Add(p + "bricked", static_cast<uint64_t>(r.bricked));
  d.Line(p + "status", r.status.ToString());
  for (const flashsim::WorkloadLevelRow& row : r.levels) {
    const std::string q = p + "level" + std::to_string(row.level) + ".";
    d.Add(q + "host_bytes", row.host_bytes);
    d.Add(q + "hours", row.hours);
  }
}

void DigestDevice(Digest& d, const std::string& p, FlashDevice& device) {
  DigestFtl(d, p + "ftl.", device.ftl().Stats());
  d.Add(p + "clock_ns", static_cast<uint64_t>(device.clock().Now().nanos()));
  d.Add(p + "host_bytes_written", device.HostBytesWritten());
  for (const auto* digest :
       {device.write_latency_digest(), device.read_latency_digest()}) {
    if (digest == nullptr) {
      continue;
    }
    const std::string q =
        p + (digest == device.write_latency_digest() ? "write_lat." : "read_lat.");
    d.Add(q + "count", digest->count());
    d.Add(q + "p50_us", digest->Quantile(0.50));
    d.Add(q + "p99_us", digest->Quantile(0.99));
  }
}

// Counter growth between two FtlStats snapshots (hashes and gauges are
// state, not work, and stay in the digest only).
FtlStats FtlDelta(const FtlStats& a, const FtlStats& b) {
  FtlStats d;
  d.host_pages_written = b.host_pages_written - a.host_pages_written;
  d.nand_pages_written = b.nand_pages_written - a.nand_pages_written;
  d.gc_pages_migrated = b.gc_pages_migrated - a.gc_pages_migrated;
  d.erases = b.erases - a.erases;
  d.host_pages_read = b.host_pages_read - a.host_pages_read;
  d.gc_victim_picks = b.gc_victim_picks - a.gc_victim_picks;
  d.gc_victim_candidates = b.gc_victim_candidates - a.gc_victim_candidates;
  d.victim_index_rebuilds = b.victim_index_rebuilds - a.victim_index_rebuilds;
  return d;
}

void AddFtl(FtlStats* sum, const FtlStats& d) {
  sum->host_pages_written += d.host_pages_written;
  sum->nand_pages_written += d.nand_pages_written;
  sum->gc_pages_migrated += d.gc_pages_migrated;
  sum->erases += d.erases;
  sum->host_pages_read += d.host_pages_read;
  sum->gc_victim_picks += d.gc_victim_picks;
  sum->gc_victim_candidates += d.gc_victim_candidates;
  sum->victim_index_rebuilds += d.victim_index_rebuilds;
}

void AddFsDelta(FsStats* sum, const FsStats& a, const FsStats& b) {
  sum->app_bytes_written += b.app_bytes_written - a.app_bytes_written;
  sum->device_data_bytes += b.device_data_bytes - a.device_data_bytes;
  sum->device_metadata_bytes += b.device_metadata_bytes - a.device_metadata_bytes;
  sum->device_journal_bytes += b.device_journal_bytes - a.device_journal_bytes;
  sum->fsyncs += b.fsyncs - a.fsyncs;
  sum->cleaner_bytes_moved += b.cleaner_bytes_moved - a.cleaner_bytes_moved;
  sum->metadata_commits += b.metadata_commits - a.metadata_commits;
  sum->cleaner_picks += b.cleaner_picks - a.cleaner_picks;
  sum->cleaner_candidates_examined +=
      b.cleaner_candidates_examined - a.cleaner_candidates_examined;
}

// Host speed probe. On a VM of a shared host the program runs slower while
// other tenants load the same physical cores, caches and memory, and that
// load changes within seconds; the CPU clock does not see it. Slowdown()
// times a fixed piece of reference work on the CPU clock -- a sort, random
// read-modify-writes over 32 MiB, a 4 MiB copy and eight independent xorshift
// lanes, about 30 ms in all -- and returns the geometric mean over the four
// kernels of its time over the kernel's time on the reference host (a 4-core
// x86-64 VM). A slowdown of 1.2 means the host currently runs this work 1.2x
// slower than the reference did. The probe is the benchmark's own code, so
// no change to the library moves it. Its buffers are filled when it is built,
// at process start, and stay resident, so they add a constant to peak RSS.
class HostProbe {
 public:
  uint64_t ResidentBytes() const {
    return (big_.size() + copy_.size() + sort_.size()) * sizeof(uint32_t);
  }
  double Slowdown() {
    constexpr double kReferenceSeconds[] = {0.0127, 0.0067, 0.0024, 0.0105};
    double log_sum = 0.0;
    double t = CpuNow();
    for (int k = 0; k < 4; ++k) {
      for (uint32_t& v : sort_) {
        v = static_cast<uint32_t>(Next());
      }
      std::sort(sort_.begin(), sort_.end());
      sink_ += sort_[k];
    }
    log_sum += Lap(&t, kReferenceSeconds[0]);
    for (int i = 0; i < 300000; ++i) {
      sink_ += big_[Next() & (big_.size() - 1)]++;
    }
    log_sum += Lap(&t, kReferenceSeconds[1]);
    for (int k = 0; k < 4; ++k) {
      std::copy(big_.begin() + k, big_.begin() + k + copy_.size(), copy_.begin());
      sink_ += copy_[k];
    }
    log_sum += Lap(&t, kReferenceSeconds[2]);
    uint64_t lanes[8] = {1, 2, 3, 4, 5, 6, 7, 8};
    for (int i = 0; i < 2000000; ++i) {
      for (uint64_t& v : lanes) {
        v ^= v << 13;
        v ^= v >> 7;
        v ^= v << 17;
      }
    }
    for (uint64_t v : lanes) {
      sink_ += v;
    }
    log_sum += Lap(&t, kReferenceSeconds[3]);
    return std::exp(log_sum / 4);
  }
  // Keeps the kernels' results alive so the compiler cannot drop them.
  uint64_t sink() const { return sink_; }

 private:
  uint64_t Next() {
    x_ ^= x_ << 13;
    x_ ^= x_ >> 7;
    x_ ^= x_ << 17;
    return x_;
  }
  static double Lap(double* t, double reference_s) {
    const double now = CpuNow();
    const double ratio = (now - *t) / reference_s;
    *t = now;
    return std::log(ratio);
  }

  std::vector<uint32_t> big_ = std::vector<uint32_t>(8u << 20);
  std::vector<uint32_t> copy_ = std::vector<uint32_t>(1u << 20);
  std::vector<uint32_t> sort_ = std::vector<uint32_t>(32u << 10);
  uint64_t x_ = 88172645463325252ull;
  uint64_t sink_ = 0;
};

double GeoMean(const std::vector<double>& values) {
  double log_sum = 0.0;
  for (double v : values) {
    log_sum += std::log(v);
  }
  return values.empty() ? 1.0
                        : std::exp(log_sum / static_cast<double>(values.size()));
}

struct Round {
  double wall_s = 0.0;  // wall seconds of the measured phase
  double cpu_s = 0.0;   // CPU seconds of the measured phase
  std::vector<double> slowdowns;  // host probes around its measured phase(s)
  uint64_t host_bytes = 0;  // written by the host to the device(s)
  uint64_t app_bytes = 0;   // written by the workload (app) itself
  uint64_t devices = 0;     // devices driven to the end of their stream
};

struct Run {
  std::vector<Round> rounds;
  std::vector<double> setup_samples;    // CPU seconds per set-up
  std::vector<double> setup_slowdowns;  // host probe just after each set-up
  HostProbe probe;
  Digest digest;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  Tracer tracer;
  // Library counters over the measured phases, summed across rounds.
  FtlStats ftl;
  uint64_t scratch_grows = 0;
  FsStats fs[3];  // indexed by Layer - kExt4
  flashsim::FleetParkTotals park;
  flashsim::FleetSchedTotals sched;
  double sched_wait_s = 0.0;

  void Fail(const std::string& what) {
    ++failed;
    errors.push_back(what);
  }
};

// Counts a drive's requests and applies the output checks shared by the
// device-level workloads: no hard failure (wear-out bricking is an expected
// outcome, not a failure) and a consistent FTL afterwards.
void CheckDrive(const std::string& what, const WorkloadRunResult& result,
                const FlashDevice& device, Run* run) {
  run->attempted += result.requests;
  if (!result.status.ok() && !result.bricked) {
    ++run->attempted;  // the request that failed
    run->Fail(what + ": " + result.status.ToString());
  }
  const flashsim::Status valid = device.ftl().ValidateInvariants(kInvariantStride);
  if (!valid.ok()) {
    run->Fail(what + ": FTL invariants: " + valid.ToString());
  }
}

// block_gc: a full-capacity eMMC 8GB prefilled to 92%, then 4 KiB random
// rewrites of the utilized region (flat model, batch 64).
void RunBlockGc(const Options& o, Run* run) {
  const int rounds = std::max(kMinRounds, static_cast<int>(o.seconds));
  for (int r = 0; r < rounds; ++r) {
    const std::string p = "round" + std::to_string(r) + ".";
    Round round;
    const double c0 = CpuNow();
    std::unique_ptr<FlashDevice> device =
        flashsim::MakeEmmc8(SimScale{1, 1}, SubSeed(o.seed, 2 * r));
    const uint64_t region =
        static_cast<uint64_t>(kBlockGcUtilization *
                              static_cast<double>(device->CapacityBytes())) /
        kMiB * kMiB;
    SyntheticWorkloadConfig fill;
    fill.name = "prefill";
    fill.pattern = flashsim::AccessPattern::kSequential;
    fill.request_bytes = kMiB;
    fill.total_bytes = region;
    fill.span_bytes = region;
    SyntheticWorkload fill_stream(fill);
    WorkloadDriveOptions fill_opts;
    fill_opts.batch_requests = 64;
    const WorkloadRunResult filled =
        flashsim::RunWorkloadOnDevice(fill_stream, *device, fill_opts);
    if (!filled.status.ok()) {
      run->Fail(p + "prefill: " + filled.status.ToString());
    }
    DigestRun(run->digest, p + "prefill.", filled);
    run->setup_samples.push_back(CpuNow() - c0);
    run->setup_slowdowns.push_back(run->probe.Slowdown());
    round.slowdowns.push_back(run->setup_slowdowns.back());

    SyntheticWorkloadConfig rewrite;
    rewrite.name = "rewrite4k";
    rewrite.pattern = flashsim::AccessPattern::kRandom;
    rewrite.request_bytes = 4 * kKiB;
    rewrite.total_bytes = kBlockGcRoundBytes;
    rewrite.span_bytes = region;
    SyntheticWorkload stream(rewrite);
    perfbench::TimedWorkload timed_stream(stream, run->tracer);
    perfbench::TimedDevice timed_device(*device, run->tracer);
    WorkloadDriveOptions opts;
    opts.batch_requests = 64;
    opts.seed = SubSeed(o.seed, 2 * r + 1);

    const FtlStats before = device->ftl().Stats();
    const uint64_t host_before = device->HostBytesWritten();
    const uint64_t grows_before = device->ScratchGrowCount();
    run->tracer.set_recording(o.trace);
    const Clock::time_point t1 = Clock::now();
    const double c1 = CpuNow();
    WorkloadRunResult result;
    {
      Tracer::Scope span(run->tracer, Layer::kDriver, "run_workload_on_device");
      result = o.trace ? flashsim::RunWorkloadOnDevice(timed_stream,
                                                       timed_device, opts)
                       : flashsim::RunWorkloadOnDevice(stream, *device, opts);
    }
    round.wall_s = Since(t1);
    round.cpu_s = CpuNow() - c1;
    run->tracer.set_recording(false);
    round.slowdowns.push_back(run->probe.Slowdown());

    round.host_bytes = device->HostBytesWritten() - host_before;
    round.app_bytes = result.bytes_written;
    round.devices = 1;
    AddFtl(&run->ftl, FtlDelta(before, device->ftl().Stats()));
    run->scratch_grows += device->ScratchGrowCount() - grows_before;
    CheckDrive(p + "rewrite", result, *device, run);
    DigestRun(run->digest, p + "rewrite.", result);
    DigestDevice(run->digest, p + "device.", *device);
    run->rounds.push_back(round);
  }
}

std::unique_ptr<flashsim::Filesystem> MakeFs(Layer layer, BlockDevice& device) {
  switch (layer) {
    case Layer::kExt4: return std::make_unique<flashsim::ExtFs>(device);
    case Layer::kF2fs: return std::make_unique<flashsim::LogFs>(device);
    default: return std::make_unique<flashsim::CowFs>(device);
  }
}

// Static data (OS image, preinstalled apps) written through the file system
// before the attack starts, as a phone would hold it.
flashsim::Status FillStatic(flashsim::Filesystem& fs, uint64_t capacity) {
  constexpr uint64_t kChunk = 4 * kMiB;
  const uint64_t free = fs.FreeBytes();
  const uint64_t target = std::min(
      static_cast<uint64_t>(kPhoneStaticUtilization * static_cast<double>(capacity)),
      free > kChunk ? free - kChunk : 0);
  const std::string path = "system/os.img";
  flashsim::Status created = fs.Create(path);
  if (!created.ok()) {
    return created;
  }
  for (uint64_t off = 0; off < target; off += kChunk) {
    auto wrote = fs.Write(path, off, std::min(kChunk, target - off), false);
    if (!wrote.ok()) {
      return wrote.status();
    }
  }
  auto synced = fs.Fsync(path);
  return synced.ok() ? flashsim::Status::Ok() : synced.status();
}

// phone_fs: the paper's attack (synchronous 4 KiB random writes across four
// files) on a Moto E 8GB at 55% static utilization, through ExtFs, LogFs and
// CowFs in turn with an equal app-byte budget each. The device runs a
// 2-channel, depth-8 queue with latency digests on.
void RunPhoneFs(const Options& o, Run* run) {
  constexpr Layer kFsLayers[] = {Layer::kExt4, Layer::kF2fs, Layer::kCowfs};
  const int rounds = std::max(kMinRounds, static_cast<int>(o.seconds));
  for (int r = 0; r < rounds; ++r) {
    Round round;
    double setup_s = 0.0;
    std::vector<double> setup_slowdowns;
    for (int f = 0; f < 3; ++f) {
      const Layer layer = kFsLayers[f];
      const std::string p = "round" + std::to_string(r) + "." +
                            perfbench::LayerName(layer) + ".";
      const uint64_t stream_base = 64 + 8 * static_cast<uint64_t>(3 * r + f);
      const double c0 = CpuNow();
      std::unique_ptr<FlashDevice> device = flashsim::MakeMotoE8(
          SimScale{kPhoneCapacityDiv, 1}, SubSeed(o.seed, stream_base));
      device->ConfigureQueue(2, 8, false);
      device->EnableLatencyDigests();
      perfbench::TimedDevice timed_device(*device, run->tracer);
      BlockDevice& host = o.trace ? static_cast<BlockDevice&>(timed_device)
                                  : static_cast<BlockDevice&>(*device);
      std::unique_ptr<flashsim::Filesystem> fs = MakeFs(layer, host);
      const flashsim::Status filled = FillStatic(*fs, device->CapacityBytes());
      if (!filled.ok()) {
        run->Fail(p + "static fill: " + filled.ToString());
      }
      DigestFs(run->digest, p + "static.fs.", fs->stats());
      setup_s += CpuNow() - c0;
      setup_slowdowns.push_back(run->probe.Slowdown());
      round.slowdowns.push_back(setup_slowdowns.back());

      SyntheticWorkloadConfig attack;
      attack.name = "attack4k";
      attack.pattern = flashsim::AccessPattern::kRandom;
      attack.request_bytes = 4 * kKiB;
      attack.total_bytes = kPhoneRoundBytesPerFs;
      SyntheticWorkload stream(attack);
      perfbench::TimedWorkload timed_stream(stream, run->tracer);
      perfbench::TimedFs timed_fs(*fs, run->tracer);
      flashsim::FileLayerLayout layout;
      layout.file_count = 4;
      layout.file_bytes = 100 * kMiB / kPhoneCapacityDiv;
      layout.sync = true;
      WorkloadDriveOptions opts;
      opts.seed = SubSeed(o.seed, stream_base + 1);

      const FtlStats ftl_before = device->ftl().Stats();
      const FsStats fs_before = fs->stats();
      const uint64_t host_before = device->HostBytesWritten();
      const uint64_t grows_before = device->ScratchGrowCount();
      run->tracer.set_recording(o.trace);
      const Clock::time_point t1 = Clock::now();
      const double c1 = CpuNow();
      WorkloadRunResult result;
      {
        Tracer::Scope span(run->tracer, Layer::kDriver,
                           "run_workload_on_filesystem");
        result = o.trace ? flashsim::RunWorkloadOnFilesystem(
                               timed_stream, timed_fs, layout, opts)
                         : flashsim::RunWorkloadOnFilesystem(stream, *fs,
                                                             layout, opts);
      }
      round.wall_s += Since(t1);
      round.cpu_s += CpuNow() - c1;
      run->tracer.set_recording(false);
      round.slowdowns.push_back(run->probe.Slowdown());

      round.host_bytes += device->HostBytesWritten() - host_before;
      round.app_bytes += result.bytes_written;
      round.devices += 1;
      AddFtl(&run->ftl, FtlDelta(ftl_before, device->ftl().Stats()));
      AddFsDelta(&run->fs[static_cast<int>(layer) - static_cast<int>(Layer::kExt4)],
                 fs_before, fs->stats());
      run->scratch_grows += device->ScratchGrowCount() - grows_before;
      CheckDrive(p + "attack", result, *device, run);
      DigestRun(run->digest, p + "attack.", result);
      DigestFs(run->digest, p + "fs.", fs->stats());
      DigestDevice(run->digest, p + "device.", *device);
    }
    run->setup_samples.push_back(setup_s);
    run->setup_slowdowns.push_back(GeoMean(setup_slowdowns));
    run->rounds.push_back(round);
  }
}

// The fleet_smoke population (examples/specs/fleet_smoke.spec): BLU 512MB
// and eMMC 8GB at 256x256, half under the 4 KiB attack and half under
// benign daily use (60% reads, hot/cold, idle). Default park settings.
std::string FleetSpecText(uint64_t seed, uint64_t devices) {
  return "campaign bench_fleet seed=" + std::to_string(seed) +
         "\n"
         "workload attack4k pattern=random request=4KiB total=8MiB span=50%\n"
         "workload daily pattern=hotcold request=64KiB total=16MiB span=75% "
         "hot_fraction=0.1 hot_probability=0.9 read_fraction=0.6 idle=50ms\n"
         "fleet bench count=" +
         std::to_string(devices) +
         " devices=blu512,emmc8 workloads=attack4k,daily scale=256x256 "
         "shard=64 slice=16MiB max_device_bytes=768MiB\n";
}

void RunFleet(const Options& o, Run* run) {
  const int rounds = std::max(kMinRounds, static_cast<int>(o.seconds / 2));
  const uint64_t devices = kFleetRoundDevices;
  for (int r = 0; r < rounds; ++r) {
    const std::string p = "round" + std::to_string(r) + ".";
    Round round;
    // Set-up is the spec parse. It resolves the device slugs, so round 0's
    // set-up also builds the lazily constructed campaign catalog, outside
    // every measured phase.
    const std::string text = FleetSpecText(SubSeed(o.seed, 1000 + r) >> 1, devices);
    const double c0 = CpuNow();
    flashsim::Result<flashsim::CampaignSpec> parsed = flashsim::ParseCampaignSpec(text);
    for (int k = 1; k < kFleetSetupRepeats; ++k) {
      parsed = flashsim::ParseCampaignSpec(text);
    }
    run->setup_samples.push_back((CpuNow() - c0) / kFleetSetupRepeats);
    run->setup_slowdowns.push_back(run->probe.Slowdown());
    round.slowdowns.push_back(run->setup_slowdowns.back());
    if (!parsed.ok() || parsed.value().fleets.empty()) {
      run->attempted += devices;
      run->Fail("spec: " + parsed.status().ToString());
      return;
    }
    const flashsim::CampaignSpec& spec = parsed.value();
    flashsim::FleetRunOptions opts;
    opts.threads = kFleetWorkers;
    const Clock::time_point t1 = Clock::now();
    const double c1 = CpuNow();
    auto outcome = flashsim::RunFleet(spec, spec.fleets[0], opts);
    round.wall_s = Since(t1);
    round.cpu_s = CpuNow() - c1;
    round.slowdowns.push_back(run->probe.Slowdown());
    run->attempted += devices;
    if (!outcome.ok()) {
      run->failed += devices;
      run->errors.push_back(p + "fleet: " + outcome.status().ToString());
      continue;
    }
    const flashsim::FleetOutcome& out = outcome.value();
    const uint64_t done = out.acc.DevicesDone();
    if (!out.completed || done != devices) {
      run->failed += devices - std::min(done, devices);
      run->errors.push_back(p + "fleet finished " + std::to_string(done) +
                            " of " + std::to_string(devices) + " devices");
    }
    std::ostringstream json;
    flashsim::WriteFleetJson(out, json);
    run->digest.Line(p + "fleet_json", json.str());

    // host_gib is full-device-equivalent; undo the fleet's volume scaling.
    const double volume = spec.fleets[0].scale.VolumeFactor();
    double host_gib = 0.0;
    for (const flashsim::FleetModelStats& m : out.acc.models()) {
      host_gib += m.host_gib.Mean() * static_cast<double>(m.host_gib.count());
    }
    round.host_bytes = static_cast<uint64_t>(host_gib / volume * kGiB);
    round.app_bytes = round.host_bytes;  // block-layer fleet: app = host
    round.devices = done;

    run->park.park_events += out.park.park_events;
    run->park.raw_bytes += out.park.raw_bytes;
    run->park.resident_bytes += out.park.resident_bytes;
    run->sched.slices += out.sched.slices;
    run->sched.steals += out.sched.steals;
    run->sched.busy_seconds_min += out.sched.busy_seconds_min;
    run->sched.busy_seconds_max += out.sched.busy_seconds_max;
    run->sched_wait_s += out.sched.workers * out.wall_seconds -
                         out.sched.busy_seconds_total;
    run->rounds.push_back(round);
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

class Metrics {
 public:
  void Add(const std::string& name, double value, const char* unit) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    if (!body_.empty()) {
      body_ += ", ";
    }
    body_ += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit + "\"}";
  }
  std::string Json() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

double Ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Per-layer metrics of a traced run. Layers a workload does not run report 0.
std::string LayerMetrics(const Run& run) {
  const Tracer& t = run.tracer;
  Metrics m;
  const perfbench::LayerTotals& wl = t.totals(Layer::kWorkload);
  m.Add("workload.ops", static_cast<double>(wl.calls), "count");
  m.Add("workload.busy_s", wl.BusySeconds(), "s");
  const perfbench::LayerTotals& health = t.totals(Layer::kHealth);
  m.Add("driver.self_s", t.totals(Layer::kDriver).SelfSeconds(), "s");
  m.Add("driver.health_polls", static_cast<double>(health.calls), "count");
  m.Add("driver.health_s", health.BusySeconds(), "s");
  for (Layer layer : {Layer::kExt4, Layer::kF2fs, Layer::kCowfs}) {
    const std::string n = perfbench::LayerName(layer);
    const perfbench::LayerTotals& lt = t.totals(layer);
    const FsStats& s =
        run.fs[static_cast<int>(layer) - static_cast<int>(Layer::kExt4)];
    m.Add(n + ".busy_s", lt.BusySeconds(), "s");
    m.Add(n + ".self_s", lt.SelfSeconds(), "s");
    m.Add(n + ".wa",
          Ratio(static_cast<double>(s.DeviceBytesTotal()),
                static_cast<double>(s.app_bytes_written)),
          "ratio");
    m.Add(n + ".commits", static_cast<double>(s.metadata_commits), "count");
    m.Add(n + ".fsyncs", static_cast<double>(s.fsyncs), "count");
    m.Add(n + ".cleaner_picks", static_cast<double>(s.cleaner_picks), "count");
    m.Add(n + ".cleaner_candidates_per_pick",
          Ratio(static_cast<double>(s.cleaner_candidates_examined),
                static_cast<double>(s.cleaner_picks)),
          "ratio");
    m.Add(n + ".cleaner_mib_moved",
          static_cast<double>(s.cleaner_bytes_moved) / kMiB, "MiB");
  }
  const perfbench::LayerTotals& dev = t.totals(Layer::kDevice);
  m.Add("device.submits", static_cast<double>(dev.calls), "count");
  m.Add("device.requests", static_cast<double>(t.device_requests()), "count");
  m.Add("device.busy_s", dev.BusySeconds(), "s");
  m.Add("device.batch_us_p50", perfbench::PercentileNs(t.device_call_ns(), 0.50) / 1e3, "us");
  m.Add("device.batch_us_p99", perfbench::PercentileNs(t.device_call_ns(), 0.99) / 1e3, "us");
  m.Add("device.scratch_grows", static_cast<double>(run.scratch_grows), "count");
  const FtlStats& f = run.ftl;
  m.Add("ftl.host_pages", static_cast<double>(f.host_pages_written), "count");
  m.Add("ftl.nand_pages", static_cast<double>(f.nand_pages_written), "count");
  m.Add("ftl.wa",
        Ratio(static_cast<double>(f.nand_pages_written),
              static_cast<double>(f.host_pages_written)),
        "ratio");
  m.Add("ftl.gc_pages_migrated", static_cast<double>(f.gc_pages_migrated), "count");
  m.Add("ftl.erases", static_cast<double>(f.erases), "count");
  m.Add("ftl.gc_picks", static_cast<double>(f.gc_victim_picks), "count");
  m.Add("ftl.gc_candidates_per_pick",
        Ratio(static_cast<double>(f.gc_victim_candidates),
              static_cast<double>(f.gc_victim_picks)),
        "ratio");
  m.Add("ftl.victim_index_rebuilds", static_cast<double>(f.victim_index_rebuilds), "count");
  m.Add("ftl.host_pages_read", static_cast<double>(f.host_pages_read), "count");
  const double events = static_cast<double>(run.park.park_events);
  m.Add("fleet.park.events", events, "count");
  m.Add("fleet.park.raw_kib", Ratio(static_cast<double>(run.park.raw_bytes) / kKiB, events), "KiB");
  m.Add("fleet.park.resident_kib",
        Ratio(static_cast<double>(run.park.resident_bytes) / kKiB, events), "KiB");
  m.Add("fleet.sched.slices", static_cast<double>(run.sched.slices), "count");
  m.Add("fleet.sched.steals", static_cast<double>(run.sched.steals), "count");
  m.Add("fleet.sched.busy_s_min", run.sched.busy_seconds_min, "s");
  m.Add("fleet.sched.busy_s_max", run.sched.busy_seconds_max, "s");
  m.Add("fleet.sched.wait_s", run.sched_wait_s, "s");
  return m.Json();
}

bool WriteSpans(const std::string& path, const Tracer& t) {
  std::ofstream out(path);
  if (!out) {
    return false;
  }
  for (const perfbench::SpanSample& s : t.spans()) {
    out << "{\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"tree\": " << s.tree
        << ", \"layer\": \"" << perfbench::LayerName(s.layer) << "\", \"op\": \""
        << s.op << "\", \"start_ns\": " << s.start_ns
        << ", \"dur_ns\": " << s.dur_ns << "}\n";
  }
  return static_cast<bool>(out);
}

int Usage() {
  std::fprintf(stderr,
               "usage: flashbench --workload block_gc|phone_fs|fleet --seed N "
               "--seconds S [--trace] [--spans FILE] [--digest-out FILE]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      o.workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      o.seconds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace") {
      o.trace = true;
    } else if (arg == "--spans" && has_value) {
      o.spans_path = argv[++i];
    } else if (arg == "--digest-out" && has_value) {
      o.digest_path = argv[++i];
    } else {
      return Usage();
    }
  }
  if (o.seconds == 0 || o.seconds > 3600) {
    return Usage();
  }

  const Clock::time_point start = Clock::now();
  Run run;
  if (o.workload == "block_gc") {
    RunBlockGc(o, &run);
  } else if (o.workload == "phone_fs") {
    RunPhoneFs(o, &run);
  } else if (o.workload == "fleet") {
    RunFleet(o, &run);
  } else {
    return Usage();
  }
  const double wall_s = Since(start);
  const double cpu_s = CpuNow();

  if (!o.digest_path.empty()) {
    std::ofstream out(o.digest_path);
    out << run.digest.text();
    if (!out) {
      run.errors.push_back("cannot write " + o.digest_path);
    }
  }
  if (o.trace && !o.spans_path.empty() && !WriteSpans(o.spans_path, run.tracer)) {
    run.errors.push_back("cannot write " + o.spans_path);
  }

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  std::string rounds;
  for (const Round& r : run.rounds) {
    char buf[320];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"wall_s\": %.17g, \"cpu_s\": %.17g, \"slowdown\": %.17g, "
                  "\"host_bytes\": %" PRIu64 ", \"app_bytes\": %" PRIu64
                  ", \"devices\": %" PRIu64 "}",
                  rounds.empty() ? "" : ", ", r.wall_s, r.cpu_s, GeoMean(r.slowdowns),
                  r.host_bytes, r.app_bytes, r.devices);
    rounds += buf;
  }
  const auto join = [](const std::vector<double>& values) {
    std::string out;
    for (double v : values) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "%s%.17g", out.empty() ? "" : ", ", v);
      out += buf;
    }
    return out;
  };
  std::string errors;
  for (const std::string& e : run.errors) {
    errors += (errors.empty() ? "\"" : ", \"") + JsonEscape(e) + "\"";
  }
  std::printf(
      "{\"workload\": \"%s\", \"seed\": %" PRIu64 ", \"trace\": %s, "
      "\"wall_s\": %.17g, \"cpu_s\": %.17g, \"digest\": \"%016" PRIx64
      "\", \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
      ", \"errors\": [%s], \"maxrss_kib\": %ld, \"probe_kib\": %" PRIu64
      ", \"spans_seen\": %" PRIu64 ", \"probe_sink\": %" PRIu64
      ", \"setup_samples\": [%s], \"setup_slowdowns\": [%s], \"rounds\": [%s], "
      "\"layers\": %s}\n",
      o.workload.c_str(), o.seed, o.trace ? "true" : "false", wall_s, cpu_s,
      run.digest.Hash(), run.attempted, run.failed, errors.c_str(),
      usage.ru_maxrss, run.probe.ResidentBytes() / kKiB, run.tracer.spans_seen(),
      run.probe.sink(),
      join(run.setup_samples).c_str(), join(run.setup_slowdowns).c_str(), rounds.c_str(),
      o.trace ? LayerMetrics(run).c_str() : "{}");
  return 0;
}
