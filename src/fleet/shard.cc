#include "src/fleet/shard.h"

#include <algorithm>
#include <cassert>

#include "src/device/flash_device.h"
#include "src/fleet/park.h"
#include "src/simcore/rng.h"
#include "src/simcore/units.h"
#include "src/workload/generators.h"

namespace flashsim {

namespace {

constexpr uint32_t kShardTag = SnapshotTag("SHRD");

// Per-device byte cap when the spec sets none; matches the campaign runner's
// default wear cap so unbounded streams still terminate.
constexpr uint64_t kDefaultDeviceCap = 1 * kTiB;

constexpr uint64_t kPrefillChunk = 4 * kMiB;

Status PrefillDevice(FlashDevice& device, uint64_t start, uint64_t length) {
  const uint64_t end = std::min(start + length, device.CapacityBytes());
  for (uint64_t off = start; off < end; off += kPrefillChunk) {
    const IoRequest fill{IoKind::kWrite, off, std::min(kPrefillChunk, end - off)};
    Result<IoCompletion> done = device.Submit(fill);
    if (!done.ok()) {
      return done.status();
    }
  }
  return Status::Ok();
}

// Device count of shard `shard_index`: the last shard may be short.
uint64_t ShardDeviceCount(const FleetSpec& fleet, uint64_t shard_index) {
  const uint64_t first = shard_index * fleet.shard_devices;
  const uint64_t end = std::min(first + fleet.shard_devices, fleet.device_count);
  return end > first ? end - first : 0;
}

// Exact-size copy of a scratch pack buffer into a retained blob; parked
// blobs live for many slices, so capacity overshoot would be resident waste.
std::vector<uint8_t> ShrinkWrap(const std::vector<uint8_t>& packed) {
  return std::vector<uint8_t>(packed.begin(), packed.end());
}

}  // namespace

FleetWorkerScratch::FleetWorkerScratch() = default;
FleetWorkerScratch::~FleetWorkerScratch() = default;

uint64_t FleetWorkerScratch::GrowCount() const {
  auto track = [](size_t cap, size_t* last, uint64_t* grows) {
    if (cap != *last) {
      *last = cap;
      ++*grows;
    }
  };
  track(raw.capacity(), &raw_cap_, &raw_grows_);
  track(packed.capacity(), &packed_cap_, &packed_grows_);
  track(writer.buffer().capacity(), &writer_cap_, &writer_grows_);
  // The first tracked capacity of each buffer counts as its warm-up grow, so
  // the invariant reads "stable after warm-up" just like ScratchBuffer.
  return raw_grows_ + packed_grows_ + writer_grows_;
}

FleetDeviceRef FleetDeviceAt(const CampaignSpec& spec, const FleetSpec& fleet,
                             uint64_t index) {
  FleetDeviceRef ref;
  ref.index = index;
  const uint64_t n_models = std::max<size_t>(1, fleet.devices.size());
  const uint64_t n_workloads = std::max<size_t>(1, fleet.workloads.size());
  const uint64_t combo = index % (n_models * n_workloads);
  ref.model_index = static_cast<uint32_t>(combo % n_models);
  if (ref.model_index < fleet.devices.size()) {
    ref.model = FindCampaignDevice(fleet.devices[ref.model_index]);
  }
  const uint64_t workload_index = combo / n_models;
  if (workload_index < fleet.workloads.size()) {
    const SyntheticWorkloadConfig* w =
        spec.FindWorkload(fleet.workloads[workload_index]);
    if (w != nullptr) {
      ref.workload = *w;
    }
  }
  ref.seed = DeriveDeviceSeed(spec.seed, fleet.index, index);
  return ref;
}

uint64_t FleetShardCount(const FleetSpec& fleet) {
  if (fleet.device_count == 0 || fleet.shard_devices == 0) {
    return 0;
  }
  return (fleet.device_count + fleet.shard_devices - 1) / fleet.shard_devices;
}

FleetShard::FleetShard(const CampaignSpec* spec, const FleetSpec* fleet)
    : spec_(spec), fleet_(fleet) {}

void FleetShard::InitFresh(uint64_t shard_index) {
  shard_index_ = shard_index;
  first_device_ = shard_index * fleet_->shard_devices;
  devices_.clear();
  devices_.resize(ShardDeviceCount(*fleet_, shard_index));
  cursor_ = 0;
  remaining_ = devices_.size();
  claimed_ = 0;
  fold_next_ = 0;
  slices_run_ = 0;
  acc_.Init(fleet_->devices, fleet_->survival_bin_hours);
}

bool FleetShard::Claim(uint64_t* position) {
  const uint64_t n = devices_.size();
  if (remaining_ == 0 || n == 0) {
    return false;
  }
  for (uint64_t k = 0; k < n; ++k) {
    const uint64_t pos = (cursor_ + k) % n;
    FleetDeviceProgress& p = devices_[pos];
    if (p.phase != FleetDeviceProgress::kDone && !p.running) {
      p.running = true;
      ++claimed_;
      cursor_ = (pos + 1) % n;
      *position = pos;
      return true;
    }
  }
  return false;
}

bool FleetShard::HasClaimable() const {
  if (remaining_ == 0) {
    return false;
  }
  for (const FleetDeviceProgress& p : devices_) {
    if (p.phase != FleetDeviceProgress::kDone && !p.running) {
      return true;
    }
  }
  return false;
}

Status FleetShard::Unpark(FleetDeviceProgress& p,
                          FleetWorkerScratch* scratch) const {
  FLASHSIM_RETURN_IF_ERROR(ParkUnpackFull(p.blob, &scratch->raw));
  if (scratch->raw.size() != p.parked_raw_bytes) {
    return DataLossError("parked device: reconstructed size mismatch");
  }
  return Status::Ok();
}

void FleetShard::Park(FleetDeviceProgress& p, FleetWorkerScratch* scratch,
                      FleetSliceResult* result) const {
  const std::vector<uint8_t>& raw = scratch->writer.buffer();
  ParkPackFull(raw, &scratch->packed);
  p.blob = ShrinkWrap(scratch->packed);
  p.parked_raw_bytes = raw.size();
  result->parked_raw_bytes = raw.size();
  result->resident_bytes = p.blob.size();
}

Status FleetShard::RunSlice(uint64_t position, FleetWorkerScratch* scratch,
                            FleetSliceResult* result) {
  *result = FleetSliceResult{};
  FleetDeviceProgress& p = devices_[position];
  const FleetDeviceRef ref =
      FleetDeviceAt(*spec_, *fleet_, first_device_ + position);
  if (ref.model == nullptr) {
    return NotFoundError("fleet device has unknown model slug");
  }

  // One live FlashDevice per (worker, model): LoadState overwrites every
  // plane, map, meter, and RNG stream, so a parked device can resume inside
  // any same-model instance without per-slice construction.
  if (scratch->devices.size() < fleet_->devices.size()) {
    scratch->devices.resize(fleet_->devices.size());
  }
  std::unique_ptr<FlashDevice>& slot = scratch->devices[ref.model_index];
  if (p.phase == FleetDeviceProgress::kUnborn) {
    // Fresh devices derive all randomness from their own seed; build a new
    // instance (once per device lifetime) rather than reseeding a used one.
    slot = ref.model->make(fleet_->scale, DeriveSeed(ref.seed, 0));
  } else if (slot == nullptr) {
    slot = ref.model->make(fleet_->scale, 0);  // state comes from LoadState
  }
  FlashDevice& device = *slot;
  SyntheticWorkload workload(ref.workload);
  const uint64_t driver_seed = DeriveSeed(ref.seed, 1);
  const uint64_t target = device.CapacityBytes();

  if (p.phase == FleetDeviceProgress::kUnborn) {
    workload.Reset(DeriveSeed(driver_seed, 0));
    if (workload.MayRead()) {
      uint64_t start = 0;
      uint64_t length = 0;
      workload.TouchRange(target, &start, &length);
      FLASHSIM_RETURN_IF_ERROR(PrefillDevice(device, start, length));
    }
  } else {
    FLASHSIM_RETURN_IF_ERROR(Unpark(p, scratch));
    SnapshotReader r(std::move(scratch->raw));
    FLASHSIM_RETURN_IF_ERROR(device.LoadState(r));
    FLASHSIM_RETURN_IF_ERROR(workload.LoadState(r));
    // Hand the buffer back so the next unpark reuses its capacity.
    scratch->raw = r.TakeBuffer();
  }

  const uint64_t poll_bytes = std::max<uint64_t>(64 * kKiB, target / 64);
  const uint64_t cap =
      fleet_->max_device_bytes > 0 ? fleet_->max_device_bytes : kDefaultDeviceCap;
  std::vector<IoRequest>& pending = scratch->pending;
  pending.clear();
  bool done = false;
  bool bricked = false;
  bool reached = false;

  // Folds a SubmitBatch flush into the progress counters; false = the drive
  // must stop (wear-out or hard failure).
  auto flush = [&]() -> bool {
    if (pending.empty()) {
      return true;
    }
    const BatchCompletion dc = device.SubmitBatch(pending.data(), pending.size());
    for (size_t i = 0; i < dc.requests_completed; ++i) {
      if (pending[i].kind == IoKind::kRead) {
        p.bytes_read += pending[i].length;
      } else if (pending[i].kind == IoKind::kWrite) {
        p.bytes_written += pending[i].length;
      }
    }
    p.requests += dc.requests_completed;
    pending.clear();
    if (!dc.status.ok()) {
      bricked = dc.status.code() == StatusCode::kUnavailable;
      return false;
    }
    return true;
  };
  auto poll = [&]() -> uint32_t {
    const HealthReport h = device.QueryHealth();
    const uint32_t level =
        h.supported ? std::max(h.life_time_est_a, h.life_time_est_b) : 0;
    while (p.last_level < level) {
      ++p.last_level;
      p.levels.push_back(FleetDeviceProgress::LevelRow{
          p.last_level, p.bytes_written + p.bytes_read,
          device.clock().Now().ToHoursF()});
    }
    return level;
  };

  uint64_t slice_issued = 0;
  while (slice_issued < fleet_->slice_bytes) {
    WorkloadOp op;
    if (!workload.Next(target, &op)) {
      // Fleet devices always loop their stream (wear experiment semantics);
      // laps are reseeded like WorkloadDriveOptions::loop.
      ++p.lap;
      workload.Reset(DeriveSeed(driver_seed, p.lap));
      if (!workload.Next(target, &op)) {
        done = true;  // stream empty even after a restart
        break;
      }
    }
    if (op.pre_idle.nanos() > 0) {
      if (!flush()) {
        done = true;
        break;
      }
      device.clock().AdvanceWithCategory(op.pre_idle, "workload-idle");
    }
    pending.push_back(IoRequest{op.kind, op.offset, op.length});
    slice_issued += op.length;
    p.since_poll += op.length;
    if (pending.size() >= fleet_->batch_requests && !flush()) {
      done = true;
      break;
    }
    if (p.since_poll >= poll_bytes) {
      p.since_poll = 0;
      if (!flush()) {
        done = true;
        break;
      }
      const uint32_t level = poll();
      if (fleet_->target_level > 0 && level >= fleet_->target_level) {
        reached = true;
        done = true;
        break;
      }
    }
    if (p.bytes_written + p.bytes_read >= cap) {
      done = true;
      break;
    }
  }
  if (!flush()) {
    done = true;
  }
  poll();
  if (fleet_->target_level > 0 && p.last_level >= fleet_->target_level) {
    reached = true;
    done = true;
  }
  if (bricked) {
    done = true;
  }

  if (!done) {
    scratch->writer.Reset();
    device.SaveState(scratch->writer);
    workload.SaveState(scratch->writer);
    Park(p, scratch, result);
    return Status::Ok();
  }

  const double vf = fleet_->scale.VolumeFactor();
  FleetDeviceOutcome& out = result->outcome;
  out.model_index = ref.model_index;
  out.bricked = bricked;
  out.reached_level = reached;
  out.days = device.clock().Now().ToHoursF() * vf / 24.0;
  out.host_gib =
      static_cast<double>(p.bytes_written) * vf / static_cast<double>(kGiB);
  out.device_wa = device.ftl().Stats().WriteAmplification();
  out.level_days.reserve(p.levels.size());
  for (const FleetDeviceProgress::LevelRow& row : p.levels) {
    out.level_days.emplace_back(row.level, row.hours * vf / 24.0);
  }
  result->finished = true;
  // Free the parked representation now (the outcome above is all that
  // survives); the phase flip happens under the runner lock in Release.
  p.blob.clear();
  p.blob.shrink_to_fit();
  p.levels.clear();
  p.levels.shrink_to_fit();
  return Status::Ok();
}

void FleetShard::Release(uint64_t position, FleetSliceResult&& result) {
  FleetDeviceProgress& p = devices_[position];
  p.running = false;
  --claimed_;
  ++slices_run_;
  if (result.finished) {
    p.phase = FleetDeviceProgress::kDone;
    p.outcome = std::make_unique<FleetDeviceOutcome>(std::move(result.outcome));
    --remaining_;
    // Outcomes fold strictly in device-index order: the WearDigest sketches
    // are observation-order sensitive, and this order is the one schedule-
    // independent choice.
    while (fold_next_ < devices_.size() &&
           devices_[fold_next_].phase == FleetDeviceProgress::kDone) {
      if (devices_[fold_next_].outcome != nullptr) {
        acc_.AddOutcome(*devices_[fold_next_].outcome);
        devices_[fold_next_].outcome.reset();
      }
      ++fold_next_;
    }
  } else {
    p.phase = FleetDeviceProgress::kParked;
    // Raw size is schedule-independent; integer MergeStats fold exactly in
    // any order, so no buffering is needed here.
    acc_.AddParkedSample(result.parked_raw_bytes);
  }
  if (Done()) {
    acc_.AddShardSlices(slices_run_);
  }
}

void FleetShard::Save(SnapshotWriter& w) const {
  assert(claimed_ == 0 && "checkpointing a shard with outstanding claims");
  w.BeginSection(kShardTag);
  w.U64(shard_index_);
  w.U64(first_device_);
  w.U64(cursor_);
  w.U64(remaining_);
  w.U64(fold_next_);
  w.U64(slices_run_);
  w.U64(devices_.size());
  for (const FleetDeviceProgress& p : devices_) {
    w.U8(p.phase);
    if (p.phase == FleetDeviceProgress::kDone) {
      // Finished devices carry only their not-yet-folded outcome.
      w.Bool(p.outcome != nullptr);
      if (p.outcome != nullptr) {
        p.outcome->Save(w);
      }
      continue;
    }
    if (p.phase != FleetDeviceProgress::kParked) {
      continue;  // unborn devices have no state
    }
    w.U64(p.bytes_written);
    w.U64(p.bytes_read);
    w.U64(p.requests);
    w.U64(p.lap);
    w.U64(p.since_poll);
    w.U32(p.last_level);
    w.U64(p.levels.size());
    for (const FleetDeviceProgress::LevelRow& row : p.levels) {
      w.U32(row.level);
      w.U64(row.host_bytes);
      w.F64(row.hours);
    }
    w.U64(p.parked_raw_bytes);
    w.VecU8(p.blob);
  }
  acc_.Save(w);
  w.EndSection();
}

Status FleetShard::Load(SnapshotReader& r) {
  FLASHSIM_RETURN_IF_ERROR(r.EnterSection(kShardTag));
  shard_index_ = r.U64();
  first_device_ = r.U64();
  cursor_ = r.U64();
  remaining_ = r.U64();
  fold_next_ = r.U64();
  slices_run_ = r.U64();
  claimed_ = 0;
  const uint64_t n_devices = r.U64();
  FLASHSIM_RETURN_IF_ERROR(r.status());
  // The header sizes the device table and steers the claim loop, so it must
  // match the spec before anything is allocated.
  if (shard_index_ >= FleetShardCount(*fleet_) ||
      first_device_ != shard_index_ * fleet_->shard_devices ||
      n_devices != ShardDeviceCount(*fleet_, shard_index_) ||
      (n_devices > 0 && cursor_ >= n_devices) || fold_next_ > n_devices) {
    return DataLossError("fleet checkpoint: shard header does not match spec");
  }
  devices_.clear();
  devices_.resize(n_devices);
  uint64_t unfinished = 0;
  for (uint64_t i = 0; i < n_devices && r.ok(); ++i) {
    FleetDeviceProgress& p = devices_[i];
    p.phase = r.U8();
    if (p.phase > FleetDeviceProgress::kDone) {
      return DataLossError("fleet checkpoint: bad device phase");
    }
    if (p.phase == FleetDeviceProgress::kDone) {
      if (r.Bool()) {
        p.outcome = std::make_unique<FleetDeviceOutcome>();
        FLASHSIM_RETURN_IF_ERROR(p.outcome->Load(r));
      }
      continue;
    }
    ++unfinished;
    if (p.phase != FleetDeviceProgress::kParked) {
      continue;
    }
    p.bytes_written = r.U64();
    p.bytes_read = r.U64();
    p.requests = r.U64();
    p.lap = r.U64();
    p.since_poll = r.U64();
    p.last_level = r.U32();
    const uint64_t n_levels = r.U64();
    for (uint64_t j = 0; j < n_levels && r.ok(); ++j) {
      FleetDeviceProgress::LevelRow row;
      row.level = r.U32();
      row.host_bytes = r.U64();
      row.hours = r.F64();
      p.levels.push_back(row);
    }
    p.parked_raw_bytes = r.U64();
    r.VecU8(&p.blob);
  }
  FLASHSIM_RETURN_IF_ERROR(r.status());
  // A shard is checkpointed only while in flight, so it has unfinished
  // devices; a count that disagrees would leave Done() wrong forever.
  if (remaining_ != unfinished || remaining_ == 0) {
    return DataLossError("fleet checkpoint: shard remaining count is wrong");
  }
  FLASHSIM_RETURN_IF_ERROR(acc_.Load(r));
  r.LeaveSection();
  return r.status();
}

}  // namespace flashsim
