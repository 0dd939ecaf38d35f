#include "src/campaign/spec.h"

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "src/simcore/rng.h"
#include "src/simcore/units.h"

namespace flashsim {
namespace {

const char kValidSpec[] = R"(
# comment
campaign demo seed=9 scale=8x2

workload w1 pattern=zipf request=8KiB total=1MiB span=25% theta=0.8 read_fraction=0.25 burst=16 idle=2ms
workload w2 pattern=strided request=64KiB total=4MiB span=512KiB start=1MiB stride=256KiB
workload hc pattern=hot-cold hot_fraction=0.2 hot_probability=0.8

grid bw layer=block metric=bandwidth devices=emmc8,samsung_s6 workloads=w1,w2
grid ph layer=phone metric=bandwidth devices=moto_e8 fs=ext4,f2fs workloads=w1 utilization=0.4 files=2x8MiB sync=0 batch=8
grid wear layer=block metric=wear scale=64x64 devices=emmc8 workloads=hc target_level=3 max_bytes=2GiB
)";

TEST(CampaignSpecTest, ParsesHeaderWorkloadsAndGrids) {
  const Result<CampaignSpec> parsed = ParseCampaignSpec(kValidSpec);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  const CampaignSpec& spec = parsed.value();

  EXPECT_EQ(spec.name, "demo");
  EXPECT_EQ(spec.seed, 9u);
  EXPECT_EQ(spec.scale.capacity_div, 8u);
  EXPECT_EQ(spec.scale.endurance_div, 2u);
  ASSERT_EQ(spec.workloads.size(), 3u);
  ASSERT_EQ(spec.grids.size(), 3u);

  const SyntheticWorkloadConfig* w1 = spec.FindWorkload("w1");
  ASSERT_NE(w1, nullptr);
  EXPECT_EQ(w1->pattern, AccessPattern::kZipf);
  EXPECT_EQ(w1->request_bytes, 8 * kKiB);
  EXPECT_EQ(w1->total_bytes, 1 * kMiB);
  EXPECT_DOUBLE_EQ(w1->span_fraction, 0.25);
  EXPECT_DOUBLE_EQ(w1->zipf_theta, 0.8);
  EXPECT_DOUBLE_EQ(w1->read_fraction, 0.25);
  EXPECT_EQ(w1->burst_requests, 16u);
  EXPECT_EQ(w1->idle_time.nanos(), SimDuration::Millis(2).nanos());

  const SyntheticWorkloadConfig* w2 = spec.FindWorkload("w2");
  ASSERT_NE(w2, nullptr);
  EXPECT_EQ(w2->pattern, AccessPattern::kStrided);
  EXPECT_EQ(w2->span_bytes, 512 * kKiB);
  EXPECT_EQ(w2->start_offset, 1 * kMiB);
  EXPECT_EQ(w2->stride_bytes, 256 * kKiB);

  const SyntheticWorkloadConfig* hc = spec.FindWorkload("hc");
  ASSERT_NE(hc, nullptr);
  EXPECT_EQ(hc->pattern, AccessPattern::kHotCold);
  EXPECT_DOUBLE_EQ(hc->hot_fraction, 0.2);
  EXPECT_DOUBLE_EQ(hc->hot_probability, 0.8);

  const GridSpec& ph = spec.grids[1];
  EXPECT_EQ(ph.layer, RunLayer::kPhone);
  ASSERT_EQ(ph.filesystems.size(), 2u);
  EXPECT_EQ(ph.filesystems[0], PhoneFsType::kExtFs);
  EXPECT_EQ(ph.filesystems[1], PhoneFsType::kLogFs);
  EXPECT_DOUBLE_EQ(ph.utilization, 0.4);
  EXPECT_EQ(ph.file_count, 2u);
  EXPECT_EQ(ph.file_bytes, 8 * kMiB);
  EXPECT_FALSE(ph.sync);
  EXPECT_EQ(ph.batch_requests, 8u);

  const GridSpec& wear = spec.grids[2];
  EXPECT_EQ(wear.metric, RunMetric::kWear);
  EXPECT_EQ(wear.scale.capacity_div, 64u);
  EXPECT_EQ(wear.scale.endurance_div, 64u);
  EXPECT_EQ(wear.target_level, 3u);
  EXPECT_EQ(wear.max_bytes, 2 * kGiB);
}

TEST(CampaignSpecTest, GridsInheritCampaignScaleUnlessOverridden) {
  const Result<CampaignSpec> parsed = ParseCampaignSpec(kValidSpec);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed.value().grids[0].scale.capacity_div, 8u);   // inherited
  EXPECT_EQ(parsed.value().grids[2].scale.capacity_div, 64u);  // overridden
}

TEST(CampaignSpecTest, ExpandRunsIsTheOrderedCrossProduct) {
  const Result<CampaignSpec> parsed = ParseCampaignSpec(kValidSpec);
  ASSERT_TRUE(parsed.ok());
  const std::vector<RunSpec> runs = ExpandRuns(parsed.value());
  // bw: 2 devices x 2 workloads; ph: 1 device x 2 fs x 1 workload; wear: 1.
  ASSERT_EQ(runs.size(), 4u + 2u + 1u);

  for (size_t i = 0; i < runs.size(); ++i) {
    EXPECT_EQ(runs[i].index, i);
    EXPECT_EQ(runs[i].seed, DeriveSeed(9, i)) << i;
  }
  std::set<uint64_t> seeds;
  for (const RunSpec& run : runs) {
    seeds.insert(run.seed);
  }
  EXPECT_EQ(seeds.size(), runs.size());

  EXPECT_EQ(runs[0].grid, "bw");
  EXPECT_EQ(runs[0].device, "emmc8");
  EXPECT_EQ(runs[0].workload.name, "w1");
  EXPECT_FALSE(runs[0].has_fs);
  EXPECT_EQ(runs[3].device, "samsung_s6");
  EXPECT_EQ(runs[3].workload.name, "w2");
  EXPECT_TRUE(runs[4].has_fs);
  EXPECT_EQ(runs[4].fs, PhoneFsType::kExtFs);
  EXPECT_EQ(runs[5].fs, PhoneFsType::kLogFs);
  EXPECT_EQ(runs[6].grid, "wear");
  EXPECT_EQ(runs[6].target_level, 3u);
}

TEST(CampaignSpecTest, KnownDeviceSlugsResolve) {
  for (const char* slug :
       {"usd16", "emmc8", "emmc16", "moto_e8", "samsung_s6", "blu512", "blu4"}) {
    const CampaignDevice* device = FindCampaignDevice(slug);
    ASSERT_NE(device, nullptr) << slug;
    EXPECT_EQ(device->slug, slug);
    EXPECT_FALSE(device->display_name.empty());
  }
  EXPECT_EQ(FindCampaignDevice("nope"), nullptr);
}

struct SpecError {
  const char* label;
  const char* text;
  const char* want_substring;
};

// Prints a case as its label. CTest names value-parameterized cases after the
// printed parameter, and the default printer dumps the struct's pointer bytes,
// which change with every link and every run under ASLR.
void PrintTo(const SpecError& error, std::ostream* os) { *os << error.label; }

class CampaignSpecErrors : public ::testing::TestWithParam<SpecError> {};

TEST_P(CampaignSpecErrors, RejectedWithLineNumber) {
  const Result<CampaignSpec> parsed = ParseCampaignSpec(GetParam().text);
  ASSERT_FALSE(parsed.ok()) << GetParam().label;
  const std::string message = parsed.status().ToString();
  EXPECT_NE(message.find(GetParam().want_substring), std::string::npos)
      << GetParam().label << ": " << message;
}

INSTANTIATE_TEST_SUITE_P(
    Cases, CampaignSpecErrors,
    ::testing::Values(
        SpecError{"no_campaign", "workload w pattern=random\n", "no 'campaign' line"},
        SpecError{"no_grids", "campaign c\nworkload w pattern=random\n",
                  "defines no grids"},
        SpecError{"bad_pattern",
                  "campaign c\nworkload w pattern=spiral\n"
                  "grid g layer=block metric=bandwidth devices=emmc8 workloads=w\n",
                  "spec line 2"},
        SpecError{"unknown_device",
                  "campaign c\nworkload w pattern=random\n"
                  "grid g layer=block metric=bandwidth devices=ipod workloads=w\n",
                  "unknown device 'ipod'"},
        SpecError{"unknown_workload",
                  "campaign c\nworkload w pattern=random\n"
                  "grid g layer=block metric=bandwidth devices=emmc8 workloads=zz\n",
                  "undefined workload 'zz'"},
        SpecError{"fs_on_block_grid",
                  "campaign c\nworkload w pattern=random\n"
                  "grid g layer=block metric=bandwidth devices=emmc8 workloads=w "
                  "fs=ext4\n",
                  "fs= only applies"},
        SpecError{"wear_without_stop",
                  "campaign c\nworkload w pattern=random\n"
                  "grid g layer=block metric=wear devices=emmc8 workloads=w\n",
                  "spec line 3"},
        SpecError{"duplicate_workload",
                  "campaign c\nworkload w pattern=random\nworkload w pattern=random\n"
                  "grid g layer=block metric=bandwidth devices=emmc8 workloads=w\n",
                  "duplicate workload 'w'"},
        SpecError{"bad_key_value",
                  "campaign c\nworkload w pattern=random bogus\n"
                  "grid g layer=block metric=bandwidth devices=emmc8 workloads=w\n",
                  "expected key=value"},
        // park= is not a fleet key; the generic unknown-key check rejects it.
        SpecError{"retired_park_key",
                  "campaign c\nworkload w pattern=random\n"
                  "fleet f count=4 devices=emmc8 workloads=w park=delta\n",
                  "unknown fleet key 'park'"}));

TEST(CampaignSpecTest, LoadFileReportsMissingPath) {
  const Result<CampaignSpec> parsed =
      LoadCampaignSpecFile("/nonexistent/campaign.spec");
  ASSERT_FALSE(parsed.ok());
  EXPECT_NE(parsed.status().ToString().find("cannot open"), std::string::npos);
}

}  // namespace
}  // namespace flashsim
