// Fleet checkpoint/restore: a run killed at a checkpoint and resumed must
// produce a final report bit-identical to an uninterrupted run, checkpoints
// from a different spec or with a corrupt shard header are rejected, and
// files carrying sections this reader does not know (a future writer) load
// with the section skipped.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "src/campaign/spec.h"
#include "src/fleet/checkpoint.h"
#include "src/fleet/report.h"
#include "src/fleet/runner.h"
#include "src/fleet/shard.h"
#include "src/simcore/snapshot.h"

namespace flashsim {
namespace {

constexpr char kFleetSpec[] = R"(
campaign cptest seed=42
workload attack pattern=random request=4KiB total=4MiB span=50%
fleet pop count=20 devices=blu512 workloads=attack scale=256x256 shard=4 slice=8MiB max_device_bytes=256MiB
)";

CampaignSpec ParseTestSpec(const std::string& text = kFleetSpec) {
  const Result<CampaignSpec> parsed = ParseCampaignSpec(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().ToString();
  return parsed.value();
}

std::string TempPath(const std::string& name) {
  return testing::TempDir() + "/" + name;
}

std::string RunToReport(const CampaignSpec& spec, const FleetRunOptions& options) {
  const FleetSpec* fleet = spec.FindFleet("pop");
  EXPECT_NE(fleet, nullptr);
  Result<FleetOutcome> run = RunFleet(spec, *fleet, options);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  std::ostringstream os;
  WriteFleetJson(run.value(), os);
  return os.str();
}

std::vector<uint8_t> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  return std::vector<uint8_t>(std::istreambuf_iterator<char>(in),
                              std::istreambuf_iterator<char>());
}

void WriteFileBytes(const std::string& path, const std::vector<uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
  ASSERT_TRUE(out.good()) << path;
}

TEST(FleetCheckpointTest, KillAtCheckpointThenResumeIsBitExact) {
  const CampaignSpec spec = ParseTestSpec();

  FleetRunOptions plain;
  plain.threads = 2;
  const std::string uninterrupted = RunToReport(spec, plain);

  const std::string cp_path = TempPath("fleet_cp.fsnp");
  FleetRunOptions killed;
  killed.threads = 2;
  killed.checkpoint_path = cp_path;
  killed.checkpoint_every_shards = 2;
  killed.stop_after_checkpoints = 1;  // controlled kill mid-campaign
  const FleetSpec* fleet = spec.FindFleet("pop");
  ASSERT_NE(fleet, nullptr);
  Result<FleetOutcome> partial = RunFleet(spec, *fleet, killed);
  ASSERT_TRUE(partial.ok()) << partial.status().ToString();
  EXPECT_FALSE(partial.value().completed);
  EXPECT_EQ(partial.value().checkpoints_written, 1u);

  FleetRunOptions resume;
  resume.threads = 3;  // a different thread count must not matter
  resume.resume_path = cp_path;
  const std::string resumed = RunToReport(spec, resume);
  EXPECT_EQ(resumed, uninterrupted);
  std::remove(cp_path.c_str());
}

// Little-endian unsigned integer of `width` bytes at `at`.
uint64_t ReadLe(const std::vector<uint8_t>& bytes, size_t at, int width) {
  uint64_t v = 0;
  for (int i = 0; i < width; ++i) {
    v |= static_cast<uint64_t>(bytes[at + static_cast<size_t>(i)]) << (8 * i);
  }
  return v;
}

// Offset of the first SHRD section's payload in a checkpoint file, or 0.
// Container layout: 12-byte header, then { tag u32 | length u64 | payload }.
size_t FindShardPayload(const std::vector<uint8_t>& bytes) {
  size_t at = 12;
  while (at + 12 <= bytes.size()) {
    if (ReadLe(bytes, at, 4) == SnapshotTag("SHRD")) {
      return at + 12;
    }
    at += 12 + static_cast<size_t>(ReadLe(bytes, at + 4, 8));
  }
  return 0;
}

void PatchU64(std::vector<uint8_t>* bytes, size_t at, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    (*bytes)[at + static_cast<size_t>(i)] =
        static_cast<uint8_t>(v >> (8 * i));
  }
}

// The shard header of a checkpoint is untrusted input. A device
// count that disagrees with the spec must not size an allocation, and a
// remaining count that disagrees with the device phases must not leave the
// runner waiting forever on a shard whose Done() never turns true. Both
// fail with a clean DataLossError.
TEST(FleetCheckpointTest, CorruptShardHeaderFailsCleanly) {
  const CampaignSpec spec = ParseTestSpec();
  const FleetSpec* fleet = spec.FindFleet("pop");
  ASSERT_NE(fleet, nullptr);

  // A real mid-shard checkpoint: one slice per device of shard 0 leaves all
  // of its devices parked, written by the checkpoint writer the runner uses.
  FleetShard shard(&spec, fleet);
  shard.InitFresh(0);
  FleetWorkerScratch scratch;
  for (uint64_t i = 0; i < shard.device_count(); ++i) {
    uint64_t position = 0;
    ASSERT_TRUE(shard.Claim(&position));
    FleetSliceResult result;
    ASSERT_TRUE(shard.RunSlice(position, &scratch, &result).ok());
    ASSERT_FALSE(result.finished);
    shard.Release(position, std::move(result));
  }
  FleetAccumulator global;
  global.Init(fleet->devices, fleet->survival_bin_hours);
  FleetCheckpointWriteView view;
  view.fingerprint = FleetSpecFingerprint(spec, *fleet);
  view.device_count = fleet->device_count;
  view.shard_count = FleetShardCount(*fleet);
  view.next_fresh_shard = 1;
  view.global = &global;
  view.inflight.push_back(&shard);
  const std::string cp_path = TempPath("fleet_cp_corrupt.fsnp");
  ASSERT_TRUE(WriteFleetCheckpoint(cp_path, view).ok());

  // Untouched, it resumes to the uninterrupted report.
  FleetRunOptions plain;
  plain.threads = 1;
  const std::string uninterrupted = RunToReport(spec, plain);
  FleetRunOptions resume;
  resume.threads = 2;
  resume.resume_path = cp_path;
  EXPECT_EQ(RunToReport(spec, resume), uninterrupted);

  const std::vector<uint8_t> good = ReadFileBytes(cp_path);
  const size_t payload = FindShardPayload(good);
  ASSERT_GT(payload, 0u);
  // SHRD payload: shard_index, first_device, cursor, remaining, fold_next,
  // slices_run, n_devices (u64 each).
  constexpr size_t kRemaining = 3 * 8;
  constexpr size_t kDevices = 6 * 8;
  const struct {
    const char* label;
    size_t field;
    uint64_t value;
  } patches[] = {
      {"n_devices huge", kDevices, uint64_t{1} << 40},
      {"n_devices one short", kDevices, shard.device_count() - 1},
      {"remaining too large", kRemaining, shard.device_count() + 1},
      {"remaining zero", kRemaining, 0},
  };
  for (const auto& patch : patches) {
    std::vector<uint8_t> bytes = good;
    PatchU64(&bytes, payload + patch.field, patch.value);
    WriteFileBytes(cp_path, bytes);
    Result<FleetCheckpointState> loaded =
        ReadFleetCheckpoint(cp_path, spec, *fleet);
    ASSERT_FALSE(loaded.ok()) << patch.label;
    EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
        << patch.label << ": " << loaded.status().ToString();
    Result<FleetOutcome> run = RunFleet(spec, *fleet, resume);
    ASSERT_FALSE(run.ok()) << patch.label;
    EXPECT_EQ(run.status().code(), StatusCode::kDataLoss) << patch.label;
  }
  std::remove(cp_path.c_str());
}

TEST(FleetCheckpointTest, RejectsCheckpointFromDifferentSpec) {
  const CampaignSpec spec = ParseTestSpec();
  const FleetSpec* fleet = spec.FindFleet("pop");
  ASSERT_NE(fleet, nullptr);

  const std::string cp_path = TempPath("fleet_cp_mismatch.fsnp");
  FleetRunOptions killed;
  killed.threads = 1;
  killed.checkpoint_path = cp_path;
  killed.checkpoint_every_shards = 1;
  killed.stop_after_checkpoints = 1;
  ASSERT_TRUE(RunFleet(spec, *fleet, killed).ok());

  // Same structure, different campaign seed → different trajectories; the
  // fingerprint must refuse to resume.
  std::string other_text = kFleetSpec;
  const size_t pos = other_text.find("seed=42");
  ASSERT_NE(pos, std::string::npos);
  other_text.replace(pos, 7, "seed=43");
  const CampaignSpec other = ParseTestSpec(other_text);
  const FleetSpec* other_fleet = other.FindFleet("pop");
  ASSERT_NE(other_fleet, nullptr);

  Result<FleetCheckpointState> loaded =
      ReadFleetCheckpoint(cp_path, other, *other_fleet);
  EXPECT_FALSE(loaded.ok());
  std::remove(cp_path.c_str());
}

// Satellite: a checkpoint carrying a section tag this reader does not know —
// as a newer writer would produce — loads fine, with the unknown section
// skipped. The FSNP container locates sections by tag and scans past
// unknown ones, so we splice a synthetic "ZZZZ" section directly after the
// manifest and also append one at the end of the file.
TEST(FleetCheckpointTest, UnknownTrailingSectionIsSkipped) {
  const CampaignSpec spec = ParseTestSpec();
  const FleetSpec* fleet = spec.FindFleet("pop");
  ASSERT_NE(fleet, nullptr);

  const std::string cp_path = TempPath("fleet_cp_future.fsnp");
  FleetRunOptions killed;
  killed.threads = 2;
  killed.checkpoint_path = cp_path;
  killed.checkpoint_every_shards = 2;
  killed.stop_after_checkpoints = 1;
  ASSERT_TRUE(RunFleet(spec, *fleet, killed).ok());

  std::vector<uint8_t> bytes = ReadFileBytes(cp_path);
  ASSERT_GT(bytes.size(), 24u);

  // Container layout: 12-byte header, then sections of
  // { tag u32 | length u64 | payload }. Find the end of the first section
  // (the FMAN manifest) and splice an unknown section there.
  const size_t manifest_len = static_cast<size_t>(ReadLe(bytes, 16, 8));
  const size_t splice_at = 12 + 4 + 8 + manifest_len;
  ASSERT_LT(splice_at, bytes.size());

  std::vector<uint8_t> unknown;
  const char tag[4] = {'Z', 'Z', 'Z', 'Z'};
  for (char c : tag) {
    unknown.push_back(static_cast<uint8_t>(c));
  }
  const std::vector<uint8_t> payload = {1, 2, 3, 4, 5, 6, 7};
  for (int i = 0; i < 8; ++i) {
    unknown.push_back(
        static_cast<uint8_t>((payload.size() >> (8 * i)) & 0xff));
  }
  unknown.insert(unknown.end(), payload.begin(), payload.end());

  bytes.insert(bytes.begin() + static_cast<std::ptrdiff_t>(splice_at),
               unknown.begin(), unknown.end());
  // And a trailing unknown section after all known data.
  bytes.insert(bytes.end(), unknown.begin(), unknown.end());
  WriteFileBytes(cp_path, bytes);

  Result<FleetCheckpointState> loaded =
      ReadFleetCheckpoint(cp_path, spec, *fleet);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  EXPECT_EQ(loaded.value().device_count, fleet->device_count);

  // The doctored checkpoint must still resume to the uninterrupted report.
  FleetRunOptions plain;
  plain.threads = 1;
  const std::string uninterrupted = RunToReport(spec, plain);
  FleetRunOptions resume;
  resume.threads = 2;
  resume.resume_path = cp_path;
  EXPECT_EQ(RunToReport(spec, resume), uninterrupted);
  std::remove(cp_path.c_str());
}

}  // namespace
}  // namespace flashsim
