#include "perfbench/layers.h"

#include <algorithm>
#include <cstring>

namespace perfbench {

using flashsim::BatchCompletion;
using flashsim::HealthReport;
using flashsim::IoCompletion;
using flashsim::IoRequest;
using flashsim::Result;
using flashsim::SimDuration;
using flashsim::Status;

const char* LayerName(Layer layer) {
  switch (layer) {
    case Layer::kDriver: return "driver";
    case Layer::kWorkload: return "workload";
    case Layer::kExt4: return "fs.ext4";
    case Layer::kF2fs: return "fs.f2fs";
    case Layer::kCowfs: return "fs.cowfs";
    case Layer::kDevice: return "device";
    case Layer::kHealth: return "health";
    case Layer::kCount: break;
  }
  return "?";
}

Layer FsLayer(const char* fs_type) {
  if (std::strcmp(fs_type, "extfs") == 0) return Layer::kExt4;
  if (std::strcmp(fs_type, "logfs") == 0) return Layer::kF2fs;
  return Layer::kCowfs;
}

Tracer::Scope::Scope(Tracer& tracer, Layer layer, const char* op)
    : tracer_(tracer.recording_ ? &tracer : nullptr) {
  if (tracer_ != nullptr) {
    tracer_->Begin(layer, op);
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) {
    tracer_->End();
  }
}

void Tracer::Begin(Layer layer, const char* op) {
  uint64_t tree = 0;
  if (stack_.size() == 1) {
    tree = next_tree_++;
  } else if (stack_.size() > 1) {
    tree = stack_.back().tree;
  }
  stack_.push_back(Frame{next_id_++, tree, layer, op, Clock::now(), 0});
}

void Tracer::End() {
  const Clock::time_point end = Clock::now();
  const Frame frame = stack_.back();
  stack_.pop_back();
  const int64_t dur =
      std::chrono::duration_cast<std::chrono::nanoseconds>(end - frame.start)
          .count();
  LayerTotals& t = totals_[static_cast<size_t>(frame.layer)];
  ++t.calls;
  t.busy_ns += dur;
  t.child_ns += frame.child_ns;
  uint64_t parent = 0;
  if (!stack_.empty()) {
    stack_.back().child_ns += dur;
    parent = stack_.back().id;
  }
  if (frame.layer == Layer::kDevice) {
    device_call_ns_.push_back(dur);
  }
  if (Sampled(frame.tree)) {
    Sample(SpanSample{
        frame.id, parent, frame.tree, frame.layer, frame.op,
        std::chrono::duration_cast<std::chrono::nanoseconds>(frame.start - epoch_)
            .count(),
        dur});
  }
}

// Keeps every root span and every sample_stride_-th tree below a root, so a
// kept span's ancestors are kept too. When the buffer fills, the stride
// doubles and the trees off the new stride are dropped, so the sample stays
// spread evenly over the whole run at bounded memory.
void Tracer::Sample(const SpanSample& span) {
  if (spans_.size() >= kMaxSpans) {
    sample_stride_ *= 2;
    spans_.erase(std::remove_if(spans_.begin(), spans_.end(),
                                [this](const SpanSample& s) {
                                  return !Sampled(s.tree);
                                }),
                 spans_.end());
  }
  if (Sampled(span.tree)) {
    spans_.push_back(span);
  }
}

bool TimedWorkload::Next(uint64_t target_bytes, flashsim::WorkloadOp* op) {
  Tracer::Scope scope(tracer_, Layer::kWorkload, "next");
  return inner_.Next(target_bytes, op);
}

Result<IoCompletion> TimedDevice::Submit(const IoRequest& request) {
  tracer_.AddDeviceRequests(1);
  Tracer::Scope scope(tracer_, Layer::kDevice, "submit");
  return inner_.Submit(request);
}

BatchCompletion TimedDevice::SubmitBatch(const IoRequest* requests, size_t count) {
  tracer_.AddDeviceRequests(count);
  Tracer::Scope scope(tracer_, Layer::kDevice, "submit_batch");
  return inner_.SubmitBatch(requests, count);
}

HealthReport TimedDevice::QueryHealth() const {
  Tracer::Scope scope(tracer_, Layer::kHealth, "query_health");
  return inner_.QueryHealth();
}

Status TimedFs::Create(const std::string& path) {
  Tracer::Scope scope(tracer_, layer_, "create");
  return inner_.Create(path);
}

Result<SimDuration> TimedFs::Write(const std::string& path, uint64_t offset,
                                   uint64_t length, bool sync) {
  Tracer::Scope scope(tracer_, layer_, "write");
  return inner_.Write(path, offset, length, sync);
}

Result<SimDuration> TimedFs::Fsync(const std::string& path) {
  Tracer::Scope scope(tracer_, layer_, "fsync");
  return inner_.Fsync(path);
}

Result<SimDuration> TimedFs::Read(const std::string& path, uint64_t offset,
                                  uint64_t length) {
  Tracer::Scope scope(tracer_, layer_, "read");
  return inner_.Read(path, offset, length);
}

double PercentileNs(std::vector<int64_t> values, double q) {
  if (values.empty()) {
    return 0.0;
  }
  const size_t rank = std::min(
      values.size() - 1,
      static_cast<size_t>(q * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.begin() + rank, values.end());
  return static_cast<double>(values[rank]);
}

}  // namespace perfbench
