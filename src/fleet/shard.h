// Fleet shard: a contiguous range of simulated devices driven in bounded
// slices with park/unpark between slices (DESIGN.md §13/§14).
//
// Device identity is positional: device i of a fleet maps to combo
// c = i mod (|devices| * |workloads|), model = devices[c mod |devices|],
// workload = workloads[c div |devices|], and its RNG tree is rooted at
// DeriveDeviceSeed(campaign seed, fleet index, i) — so any device can be
// reconstructed from the spec alone, and unstarted devices cost zero bytes.
//
// Scheduling is device-granular: devices inside a shard are independent
// simulation streams, so any number of workers may drive different devices
// of the same shard concurrently. A worker Claims a device position under
// the runner lock, runs one bounded slice lock-free via RunSlice, and hands
// the result back with Release. Determinism discipline: device outcomes are
// buffered per device and folded into the shard accumulator strictly in
// device-index order (the order-sensitive WearDigest sketches therefore see
// a schedule-independent sequence); park raw-size samples are integer-valued
// MergeStats and may fold in completion order. The folded accumulator — and
// hence the fleet report — is byte-identical at any thread count.
//
// Parking (DESIGN.md §14): between slices a device exists as one
// self-contained kParkFull blob, replaced on every park. Checkpoints write
// that blob as-is.
//
// Save()/Load() serialize the whole quiesced mid-shard state (cursors,
// per-device progress, parked blobs, pending outcomes, accumulator) for
// fleet checkpoints; a restored shard continues bit-exactly. Load() checks
// the shard header against the fleet spec, so a corrupt checkpoint fails
// with DataLossError instead of allocating or hanging.

#ifndef SRC_FLEET_SHARD_H_
#define SRC_FLEET_SHARD_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/blockdev/block_device.h"
#include "src/campaign/spec.h"
#include "src/fleet/aggregate.h"
#include "src/simcore/snapshot.h"
#include "src/simcore/status.h"

namespace flashsim {

class FlashDevice;

// Resolved identity of one fleet device.
struct FleetDeviceRef {
  uint64_t index = 0;
  uint32_t model_index = 0;            // into fleet.devices
  const CampaignDevice* model = nullptr;
  SyntheticWorkloadConfig workload;
  uint64_t seed = 0;  // DeriveDeviceSeed(spec.seed, fleet.index, index)
};

FleetDeviceRef FleetDeviceAt(const CampaignSpec& spec, const FleetSpec& fleet,
                             uint64_t index);

// Number of shards a fleet splits into.
uint64_t FleetShardCount(const FleetSpec& fleet);

// Cross-slice progress of one device. While parked, this struct plus its
// blob IS the device.
struct FleetDeviceProgress {
  enum Phase : uint8_t { kUnborn = 0, kParked = 1, kDone = 2 };

  struct LevelRow {
    uint32_t level = 0;
    uint64_t host_bytes = 0;
    double hours = 0.0;  // sim-scale hours at the transition
  };

  uint8_t phase = kUnborn;
  bool running = false;  // claimed by a worker right now (never serialized)
  uint64_t bytes_written = 0;
  uint64_t bytes_read = 0;
  uint64_t requests = 0;
  uint64_t lap = 0;         // workload restart count
  uint64_t since_poll = 0;  // bytes since the last health poll
  uint32_t last_level = 0;
  std::vector<LevelRow> levels;
  std::vector<uint8_t> blob;  // parked snapshot (kParkFull)
  uint64_t parked_raw_bytes = 0;
  // Finished devices buffer their outcome here until the in-order fold
  // cursor reaches them.
  std::unique_ptr<FleetDeviceOutcome> outcome;
};

// Per-worker reusable resources for the slice loop. After each worker has
// seen every (model, snapshot size) once, driving further slices performs no
// steady-state allocation: the snapshot writer, the raw/packed byte vectors,
// the batch buffer, and the simulated devices themselves (state fully
// overwritten by LoadState) are all reused.
struct FleetWorkerScratch {
  FleetWorkerScratch();
  ~FleetWorkerScratch();

  SnapshotWriter writer;            // Reset() before each park
  std::vector<uint8_t> raw;         // unparked raw snapshot
  std::vector<uint8_t> packed;      // pack destination before shrink-wrap
  std::vector<IoRequest> pending;   // SubmitBatch staging
  std::vector<std::unique_ptr<FlashDevice>> devices;  // by model_index

  // Reallocation count across the reusable buffers above; stable once warm
  // (FleetRunnerTest.WorkerScratchDoesNotGrowInSteadyState).
  uint64_t GrowCount() const;

 private:
  mutable uint64_t raw_grows_ = 0;
  mutable size_t raw_cap_ = 0;
  mutable uint64_t packed_grows_ = 0;
  mutable size_t packed_cap_ = 0;
  mutable uint64_t writer_grows_ = 0;
  mutable size_t writer_cap_ = 0;
};

// What one slice did; produced lock-free by RunSlice, accounted under the
// runner lock by Release.
struct FleetSliceResult {
  bool finished = false;        // device reached an end state this slice
  FleetDeviceOutcome outcome;   // valid when finished
  uint64_t parked_raw_bytes = 0;  // raw snapshot size (parked devices)
  // Packed blob size after this park (feeds BENCH/stdout, never the
  // byte-compared report).
  uint64_t resident_bytes = 0;
};

class FleetShard {
 public:
  FleetShard(const CampaignSpec* spec, const FleetSpec* fleet);

  // Fresh shard covering device range [index * shard_devices, ...).
  void InitFresh(uint64_t shard_index);

  uint64_t shard_index() const { return shard_index_; }
  uint64_t device_count() const { return devices_.size(); }
  uint64_t slices_run() const { return slices_run_; }
  // All devices finished and no claims outstanding: the accumulator is
  // complete and the shard may fold.
  bool Done() const { return remaining_ == 0 && claimed_ == 0; }

  // Claim the next runnable device (round-robin over unfinished, unclaimed
  // positions). Caller must hold the runner lock. False = nothing to claim
  // (all remaining devices are already claimed, or the shard is finished).
  bool Claim(uint64_t* position);
  // True if Claim would succeed.
  bool HasClaimable() const;

  // Drives one bounded slice of the claimed device. Lock-free: the claim
  // gives this worker exclusive ownership of the device's progress entry.
  // Returns an error only on internal (snapshot) failures; device wear-out
  // is normal progress.
  Status RunSlice(uint64_t position, FleetWorkerScratch* scratch,
                  FleetSliceResult* result);

  // Returns the claim and folds the slice result into the accumulator
  // (outcomes strictly in device-index order). Caller must hold the runner
  // lock.
  void Release(uint64_t position, FleetSliceResult&& result);

  FleetAccumulator& accumulator() { return acc_; }
  const FleetAccumulator& accumulator() const { return acc_; }

  // Mid-shard checkpoint state ("SHRD" section). The shard must be quiesced
  // (no outstanding claims).
  void Save(SnapshotWriter& w) const;
  Status Load(SnapshotReader& r);

 private:
  Status Unpark(FleetDeviceProgress& p, FleetWorkerScratch* scratch) const;
  void Park(FleetDeviceProgress& p, FleetWorkerScratch* scratch,
            FleetSliceResult* result) const;

  const CampaignSpec* spec_ = nullptr;
  const FleetSpec* fleet_ = nullptr;
  uint64_t shard_index_ = 0;
  uint64_t first_device_ = 0;
  uint64_t cursor_ = 0;      // round-robin position of the next claim
  uint64_t remaining_ = 0;   // devices not yet done
  uint64_t claimed_ = 0;     // outstanding claims
  uint64_t fold_next_ = 0;   // outcomes [0, fold_next_) folded into acc_
  uint64_t slices_run_ = 0;
  std::vector<FleetDeviceProgress> devices_;
  FleetAccumulator acc_;
};

}  // namespace flashsim

#endif  // SRC_FLEET_SHARD_H_
