// Microbenchmarks for the simulator's hot paths.
//
// Two layers:
//  * A hand-timed micro-op section that measures the primitive operations
//    the flat-plane layout is meant to accelerate — page program, block
//    erase, GC victim pick, FTL map update, device snapshot save/load —
//    prints ns/op, and emits BENCH_micro_ops.json so layout regressions are
//    visible per-PR. `--ci` runs a reduced-iteration smoke pass of just
//    this section (invoked from scripts/ci.sh).
//  * The original google-benchmark suites (FTL writes with and without GC
//    pressure, reads, device submission, FS write paths, RNG/ECC), which
//    run after the micro-op section in a default invocation and accept the
//    usual --benchmark_* flags.

#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "src/device/catalog.h"
#include "src/fleet/park.h"
#include "src/fs/extfs.h"
#include "src/fs/logfs.h"
#include "src/ftl/page_map_ftl.h"
#include "src/nand/chip.h"
#include "src/nand/error_model.h"
#include "src/simcore/rng.h"
#include "src/simcore/snapshot.h"
#include "src/simcore/units.h"
#include "src/simcore/victim_index.h"

namespace flashsim {
namespace {

NandChipConfig SmallChip() {
  NandChipConfig nand = MakeMlcConfig();
  nand.channels = 2;
  nand.dies_per_channel = 2;
  nand.blocks_per_die = 64;
  nand.pages_per_block = 128;
  nand.rated_pe_cycles = 1000000;  // wear out of scope here
  return nand;
}

void BM_FtlWriteSequential(benchmark::State& state) {
  FtlConfig cfg;
  cfg.health_rated_pe = 1000000;
  PageMapFtl ftl(SmallChip(), cfg, 1);
  uint64_t lpn = 0;
  const uint64_t logical = ftl.LogicalPageCount();
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.WritePage(lpn));
    lpn = (lpn + 1) % logical;
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FtlWriteSequential);

void BM_FtlWriteRandomWithGc(benchmark::State& state) {
  FtlConfig cfg;
  cfg.health_rated_pe = 1000000;
  cfg.over_provisioning = 0.07;
  PageMapFtl ftl(SmallChip(), cfg, 1);
  Rng rng(2);
  const uint64_t logical = ftl.LogicalPageCount();
  // Fill to 85% so GC is active during the measurement.
  for (uint64_t i = 0; i < logical * 85 / 100; ++i) {
    (void)ftl.WritePage(i);
  }
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.WritePage(rng.UniformU64(logical * 85 / 100)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FtlWriteRandomWithGc);

void BM_FtlRead(benchmark::State& state) {
  FtlConfig cfg;
  cfg.health_rated_pe = 1000000;
  PageMapFtl ftl(SmallChip(), cfg, 1);
  for (uint64_t i = 0; i < 1024; ++i) {
    (void)ftl.WritePage(i);
  }
  Rng rng(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ftl.ReadPage(rng.UniformU64(1024)));
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()));
}
BENCHMARK(BM_FtlRead);

void BM_Device4KWrite(benchmark::State& state) {
  auto device = MakeEmmc8(SimScale{64, 1}, 1);
  Rng rng(4);
  const uint64_t slots = device->CapacityBytes() / 4096 / 2;
  for (auto _ : state) {
    IoRequest req{IoKind::kWrite, rng.UniformU64(slots) * 4096, 4096};
    benchmark::DoNotOptimize(device->Submit(req));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_Device4KWrite);

void BM_ExtFsSyncWrite(benchmark::State& state) {
  auto device = MakeEmmc8(SimScale{64, 1}, 1);
  ExtFs fs(*device);
  (void)fs.Create("bench.dat");
  Rng rng(5);
  const uint64_t file_bytes = 8 * kMiB;
  for (auto _ : state) {
    const uint64_t off = rng.UniformU64(file_bytes / 4096) * 4096;
    benchmark::DoNotOptimize(fs.Write("bench.dat", off, 4096, true));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_ExtFsSyncWrite);

void BM_LogFsSyncWrite(benchmark::State& state) {
  auto device = MakeEmmc8(SimScale{64, 1}, 1);
  LogFs fs(*device);
  (void)fs.Create("bench.dat");
  Rng rng(6);
  const uint64_t file_bytes = 8 * kMiB;
  for (auto _ : state) {
    const uint64_t off = rng.UniformU64(file_bytes / 4096) * 4096;
    benchmark::DoNotOptimize(fs.Write("bench.dat", off, 4096, true));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) * 4096);
}
BENCHMARK(BM_LogFsSyncWrite);

void BM_RngU64(benchmark::State& state) {
  Rng rng(7);
  for (auto _ : state) {
    benchmark::DoNotOptimize(rng.NextU64());
  }
}
BENCHMARK(BM_RngU64);

void BM_EccDecodePage(benchmark::State& state) {
  EccConfig cfg;
  EccEngine ecc(cfg, 4096);
  Rng rng(8);
  const double rber = 1e-5 * static_cast<double>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(ecc.DecodePage(rber, rng));
  }
}
BENCHMARK(BM_EccDecodePage)->Arg(1)->Arg(10)->Arg(100);

// ---------------------------------------------------------------------------
// Hand-timed micro-ops → BENCH_micro_ops.json
// ---------------------------------------------------------------------------

using SteadyClock = std::chrono::steady_clock;

struct MicroOp {
  std::string name;
  double ns_per_op = 0.0;
  uint64_t ops = 0;
};

double ElapsedNs(SteadyClock::time_point start) {
  return std::chrono::duration<double, std::nano>(SteadyClock::now() - start)
      .count();
}

// Page program on an erased block, flat-plane OOB stamping included. Erases
// between fills are excluded from the timed region.
MicroOp MeasureProgram(bool ci) {
  NandChipConfig cfg = SmallChip();
  NandChip chip(cfg, 1);
  const uint32_t blocks = cfg.channels * cfg.dies_per_channel * cfg.blocks_per_die;
  const uint32_t ppb = cfg.pages_per_block;
  const uint64_t target = ci ? 20'000 : 200'000;
  uint64_t tag = 1;
  uint64_t done = 0;
  double ns = 0.0;
  for (uint32_t b = 0; done < target; b = (b + 1) % blocks) {
    (void)chip.EraseBlock(b);
    const auto start = SteadyClock::now();
    for (uint32_t p = 0; p < ppb; ++p) {
      benchmark::DoNotOptimize(chip.ProgramPage({b, p}, tag++));
    }
    ns += ElapsedNs(start);
    done += ppb;
  }
  return {"program", ns / static_cast<double>(done), done};
}

// Block erase (the block is empty after the first erase; re-erasing measures
// the erase path itself: wear bookkeeping, plane reset, timing model).
MicroOp MeasureErase(bool ci) {
  NandChipConfig cfg = SmallChip();
  NandChip chip(cfg, 1);
  const uint64_t target = ci ? 500 : 5'000;
  const auto start = SteadyClock::now();
  for (uint64_t i = 0; i < target; ++i) {
    benchmark::DoNotOptimize(chip.EraseBlock(static_cast<BlockId>(i % 64)));
  }
  return {"erase", ElapsedNs(start) / static_cast<double>(target), target};
}

// Greedy GC victim pick from a populated valid-count index (the kIndexed
// steady-state path: lazy-cursor PickMin over the flat bitmap planes).
MicroOp MeasureGcPick(bool ci) {
  constexpr uint32_t kBlocks = 4096;
  constexpr uint32_t kPpb = 128;
  BucketVictimIndex index;
  index.Reset(kPpb + 1, kBlocks, BucketVictimIndex::Order::kById);
  uint64_t x = 9;
  for (uint32_t b = 0; b < kBlocks; ++b) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    index.Insert(1 + static_cast<uint32_t>((x >> 33) % kPpb), b);
  }
  const uint64_t target = ci ? 200'000 : 2'000'000;
  uint64_t probes = 0;
  uint32_t bucket = 0;
  uint32_t id = 0;
  const auto start = SteadyClock::now();
  for (uint64_t i = 0; i < target; ++i) {
    benchmark::DoNotOptimize(index.PickMin(kPpb + 1, &bucket, &id, &probes));
  }
  return {"gc_pick", ElapsedNs(start) / static_cast<double>(target), target};
}

// Steady-state FTL map update: random single-page overwrite on a warmed
// page-mapped FTL (map store + flat-plane program + amortized GC).
MicroOp MeasureMapUpdate(bool ci) {
  FtlConfig cfg;
  cfg.health_rated_pe = 1000000;
  PageMapFtl ftl(SmallChip(), cfg, 1);
  const uint64_t hot = ftl.LogicalPageCount() * 85 / 100;
  for (uint64_t i = 0; i < hot; ++i) {
    (void)ftl.WritePage(i);
  }
  Rng rng(2);
  const uint64_t target = ci ? 50'000 : 500'000;
  const auto start = SteadyClock::now();
  for (uint64_t i = 0; i < target; ++i) {
    benchmark::DoNotOptimize(ftl.WritePage(rng.UniformU64(hot)));
  }
  return {"map_update", ElapsedNs(start) / static_cast<double>(target), target};
}

// Park codec on a worn-device snapshot: kParkFull pack/unpack, the fleet's
// park/unpark hot path (DESIGN.md §14). `bytes` is the worn snapshot from
// MeasureSnapshot so the input has realistic zero structure.
void MeasurePark(bool ci, const std::vector<uint8_t>& bytes,
                 std::vector<MicroOp>* ops) {
  const uint64_t reps = ci ? 50 : 500;

  std::vector<uint8_t> packed;
  double pack_ns = 0.0;
  for (uint64_t i = 0; i < reps; ++i) {
    const auto start = SteadyClock::now();
    ParkPackFull(bytes, &packed);
    pack_ns += ElapsedNs(start);
    benchmark::DoNotOptimize(packed.data());
  }
  ops->push_back({"park_pack", pack_ns / static_cast<double>(reps), reps});

  std::vector<uint8_t> raw;
  double unpack_ns = 0.0;
  for (uint64_t i = 0; i < reps; ++i) {
    const auto start = SteadyClock::now();
    const Status st = ParkUnpackFull(packed, &raw);
    unpack_ns += ElapsedNs(start);
    if (!st.ok()) {
      std::fprintf(stderr, "park unpack failed: %s\n", st.message().c_str());
      std::exit(1);
    }
  }
  ops->push_back({"park_unpack", unpack_ns / static_cast<double>(reps), reps});
}

// Snapshot save/load of a worn mid-campaign device (DESIGN.md §12).
void MeasureSnapshot(bool ci, MicroOp* save, MicroOp* load,
                     std::vector<uint8_t>* snapshot_bytes) {
  auto device = MakeEmmc8(SimScale{64, 1}, 1);
  Rng rng(3);
  const uint64_t slots = device->CapacityBytes() / 4096 / 2;
  const uint64_t warmup = ci ? 20'000 : 100'000;
  for (uint64_t i = 0; i < warmup; ++i) {
    IoRequest req{IoKind::kWrite, rng.UniformU64(slots) * 4096, 4096};
    (void)device->Submit(req);
  }

  const uint64_t reps = ci ? 5 : 20;
  double save_ns = 0.0;
  std::vector<uint8_t> bytes;
  for (uint64_t i = 0; i < reps; ++i) {
    const auto start = SteadyClock::now();
    SnapshotWriter w;
    device->SaveState(w);
    save_ns += ElapsedNs(start);
    bytes = w.buffer();
  }
  *snapshot_bytes = bytes;
  *save = {"snapshot_save", save_ns / static_cast<double>(reps), reps};

  auto restored = MakeEmmc8(SimScale{64, 1}, 1);
  double load_ns = 0.0;
  for (uint64_t i = 0; i < reps; ++i) {
    const auto start = SteadyClock::now();
    SnapshotReader r(bytes);
    const Status st = restored->LoadState(r);
    load_ns += ElapsedNs(start);
    if (!st.ok()) {
      std::fprintf(stderr, "snapshot load failed: %s\n", st.message().c_str());
      std::exit(1);
    }
  }
  *load = {"snapshot_load", load_ns / static_cast<double>(reps), reps};
}

void WriteMicroOpsJson(const std::vector<MicroOp>& ops, uint64_t snapshot_bytes,
                       bool ci) {
  std::FILE* f = std::fopen("BENCH_micro_ops.json", "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot open BENCH_micro_ops.json for writing\n");
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f, "  \"bench\": \"micro_ops\",\n");
  std::fprintf(f, "  \"ci_mode\": %s,\n", ci ? "true" : "false");
  std::fprintf(f, "  \"snapshot_bytes\": %llu,\n",
               static_cast<unsigned long long>(snapshot_bytes));
  std::fprintf(f, "  \"ops\": [\n");
  for (size_t i = 0; i < ops.size(); ++i) {
    std::fprintf(f, "    {\"op\": \"%s\", \"ns_per_op\": %.1f, \"ops\": %llu}%s\n",
                 ops[i].name.c_str(), ops[i].ns_per_op,
                 static_cast<unsigned long long>(ops[i].ops),
                 i + 1 < ops.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n");
  std::fprintf(f, "}\n");
  std::fclose(f);
}

int RunMicroOps(bool ci) {
  std::printf("=== micro-ops (%s) ===\n", ci ? "CI smoke" : "full");
  std::vector<MicroOp> ops;
  ops.push_back(MeasureProgram(ci));
  ops.push_back(MeasureErase(ci));
  ops.push_back(MeasureGcPick(ci));
  ops.push_back(MeasureMapUpdate(ci));
  MicroOp save;
  MicroOp load;
  std::vector<uint8_t> snapshot_bytes;
  MeasureSnapshot(ci, &save, &load, &snapshot_bytes);
  ops.push_back(save);
  ops.push_back(load);
  MeasurePark(ci, snapshot_bytes, &ops);
  for (const MicroOp& op : ops) {
    std::printf("  %-16s %12.1f ns/op  (%llu ops)\n", op.name.c_str(),
                op.ns_per_op, static_cast<unsigned long long>(op.ops));
  }
  std::printf("  snapshot size: %llu bytes\n",
              static_cast<unsigned long long>(snapshot_bytes.size()));
  WriteMicroOpsJson(ops, snapshot_bytes.size(), ci);
  std::printf("  wrote BENCH_micro_ops.json\n");
  return 0;
}

}  // namespace
}  // namespace flashsim

int main(int argc, char** argv) {
  bool ci = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--ci") == 0) {
      ci = true;
    }
  }
  const int rc = flashsim::RunMicroOps(ci);
  if (rc != 0 || ci) {
    return rc;  // smoke mode: micro-ops only, skip the full suites
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
