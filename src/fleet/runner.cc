#include "src/fleet/runner.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "src/fleet/checkpoint.h"
#include "src/fleet/shard.h"

namespace flashsim {

namespace {

using SteadyClock = std::chrono::steady_clock;

// One shard currently being driven (possibly by several workers at once).
struct InflightShard {
  std::unique_ptr<FleetShard> shard;
  int admitted_by = -1;  // worker that admitted it; others' claims = steals
  SteadyClock::time_point admitted_at{};
};

struct WorkerStats {
  uint64_t slices = 0;
  double busy_seconds = 0.0;
};

// All cross-worker state, guarded by `mu` (the cp_flag mirror is atomic so
// the claim loop can poll it without taking the lock).
struct FleetRunState {
  std::mutex mu;
  std::condition_variable cv;

  // Shard sourcing: resumed in-flight shards drain first, then fresh indices.
  std::vector<std::unique_ptr<FleetShard>> resumed;
  size_t next_resumed = 0;
  uint64_t next_fresh = 0;
  uint64_t shard_count = 0;

  // The work-stealing pool: shards with unfinished devices. Workers claim
  // single (shard, device) slices from here; a new shard is admitted only
  // when nothing here is claimable, bounding in-flight shards by the worker
  // count.
  std::vector<InflightShard> inflight;

  // In-order fold.
  uint64_t folded = 0;  // shards [0, folded) merged into global
  FleetAccumulator global;
  std::map<uint64_t, FleetAccumulator> pending;  // done, awaiting their turn

  // Checkpoint coordination.
  bool checkpoint_requested = false;
  std::atomic<bool> cp_flag{false};
  bool stop = false;
  int active = 0;
  int paused = 0;
  uint64_t shards_since_checkpoint = 0;
  uint64_t checkpoints_written = 0;

  // Observability.
  FleetParkTotals park;
  std::vector<WorkerStats> workers;
  uint64_t steals = 0;
  double shard_seconds_max = 0.0;

  Status error;
};

void FoldShardLocked(FleetRunState* st, uint64_t shard_index,
                     FleetAccumulator&& acc) {
  if (shard_index == st->folded) {
    st->global.Merge(acc);
    ++st->folded;
    while (!st->pending.empty() && st->pending.begin()->first == st->folded) {
      st->global.Merge(st->pending.begin()->second);
      ++st->folded;
      st->pending.erase(st->pending.begin());
    }
  } else {
    st->pending.emplace(shard_index, std::move(acc));
  }
}

}  // namespace

Result<FleetOutcome> RunFleet(const CampaignSpec& spec, const FleetSpec& fleet,
                              const FleetRunOptions& options) {
  if (fleet.device_count == 0 || fleet.devices.empty() ||
      fleet.workloads.empty()) {
    return InvalidArgumentError("fleet '" + fleet.name + "' is empty");
  }
  const uint64_t shard_count = FleetShardCount(fleet);
  const bool checkpoint_enabled =
      !options.checkpoint_path.empty() && options.checkpoint_every_shards > 0;
  const uint64_t fingerprint = FleetSpecFingerprint(spec, fleet);

  FleetRunState st;
  st.shard_count = shard_count;
  st.global.Init(fleet.devices, fleet.survival_bin_hours);

  if (!options.resume_path.empty()) {
    Result<FleetCheckpointState> loaded =
        ReadFleetCheckpoint(options.resume_path, spec, fleet);
    FLASHSIM_RETURN_IF_ERROR(loaded.status());
    FleetCheckpointState& cp = loaded.value();
    st.global = std::move(cp.global);
    st.folded = cp.folded_prefix;
    for (auto& [shard_id, acc] : cp.pending) {
      st.pending.emplace(shard_id, std::move(acc));
    }
    st.resumed = std::move(cp.inflight);
    st.next_fresh = cp.next_fresh_shard;
  }

  const auto wall_start = SteadyClock::now();
  const int threads = std::max(1, options.threads);
  st.active = threads;
  st.workers.resize(static_cast<size_t>(threads));

  auto worker = [&](int wid) {
    FleetWorkerScratch scratch;
    for (;;) {
      FleetShard* shard = nullptr;
      uint64_t position = 0;
      bool stole = false;
      {
        std::unique_lock<std::mutex> lock(st.mu);
        for (;;) {
          // Quiesce while a checkpoint is being written. Workers only pause
          // here — holding no claim — so a quiesced fleet has every device
          // parked at a slice boundary and every shard serializable.
          while (st.checkpoint_requested && !st.stop) {
            ++st.paused;
            st.cv.notify_all();
            st.cv.wait(lock,
                       [&] { return !st.checkpoint_requested || st.stop; });
            --st.paused;
          }
          if (st.stop || !st.error.ok()) {
            break;
          }
          // Steal pass: any claimable device in an in-flight shard.
          for (InflightShard& inf : st.inflight) {
            if (inf.shard->Claim(&position)) {
              shard = inf.shard.get();
              stole = inf.admitted_by != wid;
              break;
            }
          }
          if (shard != nullptr) {
            break;
          }
          // Nothing claimable: admit the next shard if any remain.
          if (st.next_resumed < st.resumed.size()) {
            InflightShard inf;
            inf.shard = std::move(st.resumed[st.next_resumed++]);
            inf.admitted_by = wid;
            inf.admitted_at = SteadyClock::now();
            st.inflight.push_back(std::move(inf));
            continue;  // claim from it on the next pass
          }
          if (st.next_fresh < st.shard_count) {
            const uint64_t index = st.next_fresh++;
            lock.unlock();
            auto fresh = std::make_unique<FleetShard>(&spec, &fleet);
            fresh->InitFresh(index);
            lock.lock();
            InflightShard inf;
            inf.shard = std::move(fresh);
            inf.admitted_by = wid;
            inf.admitted_at = SteadyClock::now();
            st.inflight.push_back(std::move(inf));
            continue;
          }
          if (st.inflight.empty()) {
            break;  // no sources, nothing in flight: fleet finished
          }
          // In-flight shards exist but every unfinished device is claimed
          // by some other worker; wait for a release to open one up.
          st.cv.wait(lock);
        }
        if (shard == nullptr) {
          break;  // stop, error, or no work left
        }
        if (stole) {
          ++st.steals;
        }
      }

      const auto t0 = SteadyClock::now();
      FleetSliceResult result;
      const Status s = shard->RunSlice(position, &scratch, &result);
      const double dt =
          std::chrono::duration<double>(SteadyClock::now() - t0).count();

      {
        std::lock_guard<std::mutex> lock(st.mu);
        if (!s.ok()) {
          if (st.error.ok()) {
            st.error = s;
          }
          st.stop = true;
          st.cv.notify_all();
          break;
        }
        WorkerStats& ws = st.workers[static_cast<size_t>(wid)];
        ++ws.slices;
        ws.busy_seconds += dt;
        if (!result.finished) {
          ++st.park.park_events;
          st.park.raw_bytes += result.parked_raw_bytes;
          st.park.resident_bytes += result.resident_bytes;
        }
        shard->Release(position, std::move(result));
        if (shard->Done()) {
          const uint64_t index = shard->shard_index();
          for (size_t i = 0; i < st.inflight.size(); ++i) {
            if (st.inflight[i].shard.get() == shard) {
              st.shard_seconds_max = std::max(
                  st.shard_seconds_max,
                  std::chrono::duration<double>(SteadyClock::now() -
                                                st.inflight[i].admitted_at)
                      .count());
              FoldShardLocked(&st, index,
                              std::move(st.inflight[i].shard->accumulator()));
              st.inflight.erase(st.inflight.begin() +
                                static_cast<ptrdiff_t>(i));
              break;
            }
          }
          ++st.shards_since_checkpoint;
          if (checkpoint_enabled && !st.checkpoint_requested && !st.stop &&
              st.shards_since_checkpoint >= options.checkpoint_every_shards) {
            st.shards_since_checkpoint = 0;
            st.checkpoint_requested = true;
            st.cp_flag.store(true, std::memory_order_relaxed);
          }
        }
        // A release can open a claimable device (or finish the fleet);
        // wake anyone waiting for work or for quiesce.
        st.cv.notify_all();
      }
    }
    {
      std::lock_guard<std::mutex> lock(st.mu);
      st.park.scratch_grows += scratch.GrowCount();
      --st.active;
      st.cv.notify_all();
    }
  };

  std::vector<std::thread> pool;
  pool.reserve(static_cast<size_t>(threads));
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back(worker, t);
  }

  // Coordinator: writes checkpoints whenever all live workers are quiesced.
  {
    std::unique_lock<std::mutex> lock(st.mu);
    for (;;) {
      st.cv.wait(lock, [&] {
        return st.active == 0 ||
               (st.checkpoint_requested && !st.stop &&
                st.paused == st.active);
      });
      if (st.active == 0) {
        break;
      }
      FleetCheckpointWriteView view;
      view.fingerprint = fingerprint;
      view.device_count = fleet.device_count;
      view.shard_count = shard_count;
      view.next_fresh_shard = st.next_fresh;
      view.folded_prefix = st.folded;
      view.global = &st.global;
      for (const auto& [shard_id, acc] : st.pending) {
        view.pending.emplace_back(shard_id, &acc);
      }
      for (const InflightShard& inf : st.inflight) {
        view.inflight.push_back(inf.shard.get());
      }
      // Resumed-but-unclaimed shards are in flight too: nobody holds them,
      // but they are neither folded nor pending.
      for (size_t i = st.next_resumed; i < st.resumed.size(); ++i) {
        view.inflight.push_back(st.resumed[i].get());
      }
      const Status written =
          WriteFleetCheckpoint(options.checkpoint_path, view);
      if (!written.ok() && st.error.ok()) {
        st.error = written;
        st.stop = true;
      } else {
        ++st.checkpoints_written;
        if (options.stop_after_checkpoints > 0 &&
            st.checkpoints_written >= options.stop_after_checkpoints) {
          st.stop = true;
        }
      }
      st.checkpoint_requested = false;
      st.cp_flag.store(false, std::memory_order_relaxed);
      st.cv.notify_all();
      if (st.stop) {
        st.cv.wait(lock, [&] { return st.active == 0; });
        break;
      }
    }
  }
  for (std::thread& t : pool) {
    t.join();
  }
  if (!st.error.ok()) {
    return st.error;
  }

  FleetOutcome outcome;
  outcome.campaign = spec.name;
  outcome.fleet = fleet.name;
  outcome.seed = spec.seed;
  outcome.device_count = fleet.device_count;
  outcome.shard_count = shard_count;
  outcome.acc = std::move(st.global);
  outcome.completed = st.folded == shard_count;
  outcome.checkpoints_written = st.checkpoints_written;
  outcome.park = st.park;
  outcome.sched.workers = threads;
  outcome.sched.steals = st.steals;
  outcome.sched.shard_seconds_max = st.shard_seconds_max;
  bool first = true;
  for (const WorkerStats& ws : st.workers) {
    outcome.sched.slices += ws.slices;
    outcome.sched.busy_seconds_total += ws.busy_seconds;
    outcome.sched.busy_seconds_min =
        first ? ws.busy_seconds
              : std::min(outcome.sched.busy_seconds_min, ws.busy_seconds);
    outcome.sched.busy_seconds_max =
        std::max(outcome.sched.busy_seconds_max, ws.busy_seconds);
    first = false;
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(SteadyClock::now() - wall_start).count();
  return outcome;
}

}  // namespace flashsim
