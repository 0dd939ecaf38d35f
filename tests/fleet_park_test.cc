// Parked-state codec properties: zero-run packing round-trips arbitrary
// byte strings, rejects corrupted input, and keeps a worn catalog device's
// parked footprint within the per-device byte budget the fleet subsystem
// commits to (ISSUE: memory proportional to active devices only).

#include <cstdint>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "src/campaign/spec.h"
#include "src/device/flash_device.h"
#include "src/fleet/park.h"
#include "src/simcore/rng.h"
#include "src/simcore/snapshot.h"
#include "src/simcore/units.h"

namespace flashsim {
namespace {

std::vector<uint8_t> RoundTrip(const std::vector<uint8_t>& raw) {
  const std::vector<uint8_t> packed = PackZeroRuns(raw);
  std::vector<uint8_t> out;
  EXPECT_TRUE(UnpackZeroRuns(packed, &out).ok());
  return out;
}

TEST(ParkCodecTest, RoundTripsEdgeCases) {
  EXPECT_EQ(RoundTrip({}), std::vector<uint8_t>{});
  EXPECT_EQ(RoundTrip({0}), std::vector<uint8_t>{0});
  EXPECT_EQ(RoundTrip({7}), std::vector<uint8_t>{7});

  const std::vector<uint8_t> all_zero(1000, 0);
  EXPECT_EQ(RoundTrip(all_zero), all_zero);

  std::vector<uint8_t> no_zero(1000);
  for (size_t i = 0; i < no_zero.size(); ++i) {
    no_zero[i] = static_cast<uint8_t>(1 + (i % 255));
  }
  EXPECT_EQ(RoundTrip(no_zero), no_zero);

  // Zero runs shorter than the literal threshold stay inside literals.
  const std::vector<uint8_t> short_runs = {1, 0, 0, 2, 0, 0, 0, 3};
  EXPECT_EQ(RoundTrip(short_runs), short_runs);

  // Trailing zero run and trailing literal both round-trip.
  std::vector<uint8_t> trailing_zeros = {9, 9, 9};
  trailing_zeros.resize(100, 0);
  EXPECT_EQ(RoundTrip(trailing_zeros), trailing_zeros);
  std::vector<uint8_t> trailing_literal(100, 0);
  trailing_literal.push_back(42);
  EXPECT_EQ(RoundTrip(trailing_literal), trailing_literal);
}

TEST(ParkCodecTest, RoundTripsRandomMixtures) {
  std::mt19937_64 rng(17);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<uint8_t> raw;
    const size_t segments = 1 + rng() % 20;
    for (size_t s = 0; s < segments; ++s) {
      const size_t len = rng() % 200;
      const bool zeros = (rng() & 1) != 0;
      for (size_t i = 0; i < len; ++i) {
        raw.push_back(zeros ? 0 : static_cast<uint8_t>(rng()));
      }
    }
    EXPECT_EQ(RoundTrip(raw), raw) << "trial " << trial;
  }
}

TEST(ParkCodecTest, CompressesZeroHeavyInput) {
  std::vector<uint8_t> raw(64 * 1024, 0);
  for (size_t i = 0; i < raw.size(); i += 1024) {
    raw[i] = 0xff;
  }
  const std::vector<uint8_t> packed = PackZeroRuns(raw);
  EXPECT_LT(packed.size(), raw.size() / 10);
}

TEST(ParkCodecTest, RejectsCorruptedInput) {
  std::vector<uint8_t> out;
  // Truncated header.
  EXPECT_FALSE(UnpackZeroRuns({0x01}, &out).ok());

  std::vector<uint8_t> raw(500, 1);
  raw[100] = 0;
  std::vector<uint8_t> packed = PackZeroRuns(raw);
  // Truncated payload.
  std::vector<uint8_t> truncated(packed.begin(), packed.end() - 3);
  EXPECT_FALSE(UnpackZeroRuns(truncated, &out).ok());
  // Size-prefix mismatch.
  packed[0] ^= 0x7f;
  EXPECT_FALSE(UnpackZeroRuns(packed, &out).ok());
}

// Satellite: parked-state byte budget for a worn, capacity/endurance-scaled
// eMMC 8GB. The fleet runner parks every idle device as one packed snapshot
// blob; these budgets are what make "100k devices in <64 MiB above baseline"
// arithmetic work (active shards only: 64 devices/shard x ~128 KiB/device).
// Measured on the seed implementation: ~169 KiB raw, ~105 KiB packed for a
// fully-worn device — the budget leaves ~50% headroom before it fails.
TEST(ParkBudgetTest, WornScaledEmmc8SnapshotStaysWithinBudget) {
  const CampaignDevice* entry = FindCampaignDevice("emmc8");
  ASSERT_NE(entry, nullptr);
  const SimScale scale{256, 256};
  std::unique_ptr<FlashDevice> device = entry->make(scale, 0x5eedu);

  // Wear the device with several full overwrites of random 4 KiB writes
  // (the attack pattern), leaving a realistically fragmented FTL.
  const uint64_t capacity = device->CapacityBytes();
  std::mt19937_64 rng(99);
  const uint64_t request = 4 * kKiB;
  const uint64_t to_write = 4 * capacity;
  uint64_t written = 0;
  while (written < to_write) {
    const uint64_t slot = rng() % (capacity / request);
    const IoRequest req{IoKind::kWrite, slot * request, request};
    Result<IoCompletion> done = device->Submit(req);
    if (!done.ok()) {
      break;  // bricked: still a valid "worn" device to snapshot
    }
    written += request;
  }
  ASSERT_GT(written, capacity);

  SnapshotWriter w;
  device->SaveState(w);
  const std::vector<uint8_t> packed = PackZeroRuns(w.buffer());

  constexpr size_t kRawBudget = 256 * 1024;
  constexpr size_t kPackedBudget = 160 * 1024;
  EXPECT_LE(w.buffer().size(), kRawBudget)
      << "raw snapshot " << w.buffer().size() << " bytes";
  EXPECT_LE(packed.size(), kPackedBudget)
      << "packed snapshot " << packed.size() << " bytes";

  // And the packed form must actually round-trip to the same device state.
  std::vector<uint8_t> raw;
  ASSERT_TRUE(UnpackZeroRuns(packed, &raw).ok());
  EXPECT_EQ(raw, w.buffer());
}

TEST(ParkBlobTest, FullBlobRoundTrips) {
  std::mt19937_64 rng(31);
  for (const size_t size : {size_t{0}, size_t{1}, size_t{7}, size_t{8},
                            size_t{9}, size_t{1000}, size_t{64 * 1024 + 3}}) {
    std::vector<uint8_t> raw(size);
    for (size_t i = 0; i < size; ++i) {
      // Wear-plane-like content: mostly small values with zero high bytes.
      raw[i] = (i % 8 < 2) ? static_cast<uint8_t>(rng()) : 0;
    }
    std::vector<uint8_t> blob;
    ParkPackFull(raw, &blob);
    ASSERT_FALSE(blob.empty());
    EXPECT_EQ(blob[0], kParkFull);
    std::vector<uint8_t> back;
    ASSERT_TRUE(ParkUnpackFull(blob, &back).ok());
    EXPECT_EQ(back, raw) << "size " << size;
  }
}

TEST(ParkBlobTest, RejectsHugeClaimedSizeWithoutAllocating) {
  // A corrupt varint size header claiming ~2^62 bytes must be rejected as
  // data loss before any allocation is attempted (ASan would abort on the
  // reserve otherwise, and production would OOM).
  std::vector<uint8_t> evil = {0xff, 0xff, 0xff, 0xff, 0xff,
                               0xff, 0xff, 0xff, 0x3f};
  std::vector<uint8_t> out;
  const Status st = UnpackZeroRuns(evil, &out);
  EXPECT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kDataLoss);

  std::vector<uint8_t> evil_blob = evil;
  evil_blob.insert(evil_blob.begin(), kParkFull);
  std::vector<uint8_t> raw;
  EXPECT_FALSE(ParkUnpackFull(evil_blob, &raw).ok());
}

// Satellite: decode fuzz. Every mutation of a valid blob either decodes
// (some flips hit literal payload bytes and change content but not
// structure) or fails with a clean DataLossError — never UB, never a crash,
// never an unbounded allocation. Run under ASan/UBSan in CI via the regular
// test suite.
TEST(ParkFuzzTest, CorruptedAndTruncatedBlobsFailCleanly) {
  std::mt19937_64 rng(0xf22);
  std::vector<uint8_t> raw(4096);
  for (size_t i = 0; i < raw.size(); ++i) {
    raw[i] = (i / 64) % 3 == 0 ? static_cast<uint8_t>(rng()) : 0;
  }
  std::vector<uint8_t> full;
  ParkPackFull(raw, &full);

  auto check_decode = [&](const std::vector<uint8_t>& blob) {
    std::vector<uint8_t> out;
    const Status st = ParkUnpackFull(blob, &out);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kDataLoss) << st.ToString();
    }
  };

  // The retired transposed (0x02) and delta (0x03) tags in front of an
  // otherwise valid stream are data loss, not a second decoder.
  for (const uint8_t retired : {uint8_t{0x02}, uint8_t{0x03}}) {
    std::vector<uint8_t> blob = full;
    blob[0] = retired;
    std::vector<uint8_t> out;
    const Status st = ParkUnpackFull(blob, &out);
    EXPECT_EQ(st.code(), StatusCode::kDataLoss)
        << "tag " << static_cast<int>(retired) << ": " << st.ToString();
  }

  for (int trial = 0; trial < 2000; ++trial) {
    std::vector<uint8_t> blob = full;
    switch (trial % 4) {
      case 0: {  // single byte flip
        blob[rng() % blob.size()] ^= static_cast<uint8_t>(1 + rng() % 255);
        break;
      }
      case 1: {  // truncate
        blob.resize(rng() % (blob.size() + 1));
        break;
      }
      case 2: {  // append garbage
        const size_t extra = 1 + rng() % 16;
        for (size_t i = 0; i < extra; ++i) {
          blob.push_back(static_cast<uint8_t>(rng()));
        }
        break;
      }
      default: {  // burst of flips
        for (int k = 0; k < 8; ++k) {
          blob[rng() % blob.size()] ^= static_cast<uint8_t>(rng());
        }
        break;
      }
    }
    check_decode(blob);
  }

  // Pure-garbage inputs of every small size.
  for (size_t size = 0; size < 64; ++size) {
    std::vector<uint8_t> garbage(size);
    for (auto& b : garbage) {
      b = static_cast<uint8_t>(rng());
    }
    check_decode(garbage);
  }
}

}  // namespace
}  // namespace flashsim
