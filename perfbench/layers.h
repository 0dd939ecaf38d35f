// Outside-in layer timing for the flashsim benchmark.
//
// The traced run hands the library decorated objects instead of the real
// ones: a Workload, a Filesystem and a BlockDevice wrapper, each of which
// times the calls that cross its public boundary and forwards them
// unchanged. No library code is instrumented, so the traced run simulates
// exactly what the untraced run does; the benchmark proves that by
// comparing the two runs' simulated-output digests.
//
// Spans nest on one thread (the decorated workloads are single-threaded).
// A layer's self time is its busy time minus the time its direct children
// spent below it. Totals are kept per layer; a bounded, evenly decimated
// sample of span trees (each with its parent ids) is kept for the spans file.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <array>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/fs/filesystem.h"
#include "src/workload/workload.h"

namespace perfbench {

enum class Layer : uint8_t {
  kDriver,    // RunWorkloadOn* as a whole
  kWorkload,  // Workload::Next
  kExt4,      // ExtFs calls
  kF2fs,      // LogFs calls
  kCowfs,     // CowFs calls
  kDevice,    // BlockDevice::Submit / SubmitBatch
  kHealth,    // BlockDevice::QueryHealth (the driver's health polls)
  kCount,
};

const char* LayerName(Layer layer);
// Maps Filesystem::fs_type() to the layer that times it.
Layer FsLayer(const char* fs_type);

struct LayerTotals {
  uint64_t calls = 0;
  int64_t busy_ns = 0;
  int64_t child_ns = 0;  // time inside direct child spans

  double BusySeconds() const { return static_cast<double>(busy_ns) / 1e9; }
  double SelfSeconds() const {
    return static_cast<double>(busy_ns - child_ns) / 1e9;
  }
};

struct SpanSample {
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
  uint64_t tree = 0;    // the root's child this span descends from; 0 = root
  Layer layer = Layer::kDriver;
  const char* op = "";
  int64_t start_ns = 0;  // since the tracer was built
  int64_t dur_ns = 0;
};

class Tracer {
 public:
  using Clock = std::chrono::steady_clock;

  // Spans are only recorded while the tracer is recording, so set-up work
  // that flows through the decorators stays out of the layer totals.
  void set_recording(bool on) { recording_ = on; }

  // RAII span around one call into a layer.
  class Scope {
   public:
    Scope(Tracer& tracer, Layer layer, const char* op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;  // null when the tracer was not recording
  };

  const LayerTotals& totals(Layer layer) const {
    return totals_[static_cast<size_t>(layer)];
  }
  // Requests carried by device calls (a SubmitBatch of n counts n).
  uint64_t device_requests() const { return device_requests_; }
  void AddDeviceRequests(uint64_t n) {
    if (recording_) device_requests_ += n;
  }
  // Host duration of every recorded device call, in nanoseconds.
  const std::vector<int64_t>& device_call_ns() const { return device_call_ns_; }
  const std::vector<SpanSample>& spans() const { return spans_; }
  uint64_t spans_seen() const { return next_id_ - 1; }

 private:
  struct Frame {
    uint64_t id;
    uint64_t tree;
    Layer layer;
    const char* op;
    Clock::time_point start;
    int64_t child_ns;
  };
  static constexpr size_t kMaxSpans = 8192;

  void Begin(Layer layer, const char* op);
  void End();
  void Sample(const SpanSample& span);
  bool Sampled(uint64_t tree) const {
    return tree == 0 || tree % sample_stride_ == 0;
  }

  bool recording_ = false;
  Clock::time_point epoch_ = Clock::now();
  std::array<LayerTotals, static_cast<size_t>(Layer::kCount)> totals_{};
  std::vector<Frame> stack_;
  uint64_t device_requests_ = 0;
  std::vector<int64_t> device_call_ns_;
  std::vector<SpanSample> spans_;
  uint64_t next_id_ = 1;
  uint64_t next_tree_ = 1;
  uint64_t sample_stride_ = 1;
};

class TimedWorkload : public flashsim::Workload {
 public:
  TimedWorkload(flashsim::Workload& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  bool Next(uint64_t target_bytes, flashsim::WorkloadOp* op) override;
  void Reset(uint64_t seed) override { inner_.Reset(seed); }
  bool MayRead() const override { return inner_.MayRead(); }
  void TouchRange(uint64_t target_bytes, uint64_t* start,
                  uint64_t* length) const override {
    inner_.TouchRange(target_bytes, start, length);
  }
  const std::string& name() const override { return inner_.name(); }

 private:
  flashsim::Workload& inner_;
  Tracer& tracer_;
};

class TimedDevice : public flashsim::BlockDevice {
 public:
  TimedDevice(flashsim::BlockDevice& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer) {}

  flashsim::Result<flashsim::IoCompletion> Submit(
      const flashsim::IoRequest& request) override;
  flashsim::BatchCompletion SubmitBatch(const flashsim::IoRequest* requests,
                                        size_t count) override;
  uint64_t CapacityBytes() const override { return inner_.CapacityBytes(); }
  uint32_t PageSizeBytes() const override { return inner_.PageSizeBytes(); }
  flashsim::HealthReport QueryHealth() const override;
  bool IsReadOnly() const override { return inner_.IsReadOnly(); }
  flashsim::SimClock& clock() override { return inner_.clock(); }

 private:
  flashsim::BlockDevice& inner_;
  Tracer& tracer_;
};

class TimedFs : public flashsim::Filesystem {
 public:
  TimedFs(flashsim::Filesystem& inner, Tracer& tracer)
      : inner_(inner), tracer_(tracer), layer_(FsLayer(inner.fs_type())) {}

  flashsim::Status Create(const std::string& path) override;
  flashsim::Result<flashsim::SimDuration> Write(const std::string& path,
                                                uint64_t offset,
                                                uint64_t length,
                                                bool sync) override;
  flashsim::Result<flashsim::SimDuration> Fsync(const std::string& path) override;
  flashsim::Result<flashsim::SimDuration> Read(const std::string& path,
                                               uint64_t offset,
                                               uint64_t length) override;
  flashsim::Status Unlink(const std::string& path) override {
    return inner_.Unlink(path);
  }
  flashsim::Status Truncate(const std::string& path, uint64_t new_size) override {
    return inner_.Truncate(path, new_size);
  }
  flashsim::Status Rename(const std::string& from, const std::string& to) override {
    return inner_.Rename(from, to);
  }
  flashsim::Result<uint64_t> FileSize(const std::string& path) const override {
    return inner_.FileSize(path);
  }
  bool Exists(const std::string& path) const override {
    return inner_.Exists(path);
  }
  std::vector<std::string> List() const override { return inner_.List(); }
  uint64_t FreeBytes() const override { return inner_.FreeBytes(); }
  flashsim::Result<flashsim::RecoveryReport> Mount() override {
    return inner_.Mount();
  }
  const flashsim::FsStats& stats() const override { return inner_.stats(); }
  const char* fs_type() const override { return inner_.fs_type(); }
  flashsim::BlockDevice& device() override { return inner_.device(); }

 private:
  flashsim::Filesystem& inner_;
  Tracer& tracer_;
  Layer layer_;
};

// Nearest-rank percentile of a sample; 0 for an empty sample.
double PercentileNs(std::vector<int64_t> values, double q);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
