#!/usr/bin/env bash
# CI entry point: builds Release and ASan/UBSan trees, runs the tier-1 test
# suite in both, then runs two fast per-PR performance checks against the
# Release tree:
#   * micro_ops --ci      — hot-path layout smoke (ns/op table, see
#                           BENCH_micro_ops.json)
#   * throughput --gate   — fails if batch-64 sim_pages_per_sec drops more
#                           than 15% below the committed BENCH_throughput.json
#                           baseline. Skipped with FLASHSIM_SKIP_PERF_GATE=1
#                           (e.g. on a runner class the baseline was not
#                           measured on).
#   * fleet-smoke         — threads-1 vs threads-4 runs must produce
#                           byte-identical reports; the threads-1 run's
#                           metrics feed a deterministic >=1.6x raw/resident
#                           parked-bytes gate and (unless skipped, same env
#                           var) an 85% devices/sec gate vs BENCH_fleet.json.
#   * latency --ci        — event-engine gates: degenerate C=1/D=1 must be
#                           bit-exact with the flat model, random-write p99
#                           must stay >= 2x sequential p99 (uFLIP envelope),
#                           and the emitted BENCH_latency.json (simulated
#                           metrics only) must byte-match the committed
#                           baseline.
#   * latency-campaign    — the latency_smoke campaign's latency digests must
#                           be byte-identical at --threads 1 and --threads 4.
#   * cowfs crash gate    — crash_soak --ci under the sanitize tree; any
#                           cowfs config reporting fsck_repairs/orphans > 0
#                           fails (the zero-repair contract, DESIGN.md §16).
#   * cowfs-campaign      — the cowfs_smoke three-filesystem campaign must be
#                           byte-identical at --threads 1 and --threads 4.
# Long-running benches are registered under the "bench" ctest configuration/
# label and are NOT run here — opt in locally with:
#   cmake --preset release && cmake --build --preset release -j
#   ctest --preset bench
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || sysctl -n hw.ncpu 2>/dev/null || echo 4)

for preset in release sanitize; do
  echo "=== ${preset}: configure + build ==="
  cmake --preset "${preset}"
  cmake --build --preset "${preset}" -j "${jobs}"
  echo "=== ${preset}: ctest ==="
  ctest --preset "${preset}" -j "${jobs}"
done

echo "=== perf smoke: micro_ops --ci ==="
(cd build-release && ./bench/micro_ops --ci)

if [[ "${FLASHSIM_SKIP_PERF_GATE:-0}" != "1" ]]; then
  echo "=== perf gate: throughput batch=64 vs committed baseline ==="
  baseline=$(awk -F'"sim_pages_per_sec": ' \
    '/"batch_requests": 64,/ {split($2, a, ","); print a[1]; exit}' \
    BENCH_throughput.json)
  if [[ -z "${baseline}" ]]; then
    echo "perf gate: no batch-64 baseline in BENCH_throughput.json" >&2
    exit 1
  fi
  gate_line=$(./build-release/bench/throughput --gate)
  echo "${gate_line} (baseline ${baseline})"
  measured=$(awk '/GATE_PAGES_PER_SEC/ {print $2}' <<<"${gate_line}")
  awk -v m="${measured}" -v b="${baseline}" 'BEGIN {
    if (m + 0 < 0.85 * b) {
      printf "perf gate FAIL: %.0f < 85%% of baseline %.0f\n", m, b
      exit 1
    }
    printf "perf gate ok: %.0f >= 85%% of baseline %.0f\n", m, b
  }'
fi

echo "=== fleet-smoke: threads 1 vs threads 4 must be byte-identical ==="
mkdir -p build-release/fleet_out
(cd build-release && ./bench/fleet --spec ../examples/specs/fleet_smoke.spec --threads 1 \
  --out fleet_out/smoke_t1.json --ci --quiet)
./build-release/bench/fleet --spec examples/specs/fleet_smoke.spec --threads 4 \
  --out build-release/fleet_out/smoke_t4.json --quiet
if ! diff build-release/fleet_out/smoke_t1.json build-release/fleet_out/smoke_t4.json; then
  echo "fleet-smoke FAIL: report differs across thread count" >&2
  exit 1
fi
echo "fleet-smoke ok: reports byte-identical ($(wc -c < build-release/fleet_out/smoke_t1.json) bytes)"

# Deterministic parked-bytes gate: mean bytes a parked device holds versus
# its raw snapshot. A pure function of the spec (no timing involved), so it
# gates unconditionally.
raw_mean=$(awk -F': ' '/"parked_raw_mean_bytes"/ {gsub(/,/, "", $2); print $2}' \
  build-release/BENCH_fleet.json)
resident_mean=$(awk -F': ' '/"park_resident_mean_bytes"/ {gsub(/,/, "", $2); print $2}' \
  build-release/BENCH_fleet.json)
awk -v r="${raw_mean}" -v s="${resident_mean}" 'BEGIN {
  if (s + 0 <= 0 || r + 0 < 1.6 * s) {
    printf "fleet park gate FAIL: raw %.0f / resident %.0f < 1.6x\n", r, s
    exit 1
  }
  printf "fleet park gate ok: %.0f -> %.0f bytes/device (%.2fx >= 1.6x)\n", r, s, r / s
}'

if [[ "${FLASHSIM_SKIP_PERF_GATE:-0}" != "1" ]]; then
  echo "=== perf gate: fleet devices/sec vs committed baseline ==="
  fleet_baseline=$(awk -F': ' '/"devices_per_sec"/ {gsub(/,/, "", $2); print $2}' \
    BENCH_fleet.json)
  fleet_measured=$(awk -F': ' '/"devices_per_sec"/ {gsub(/,/, "", $2); print $2}' \
    build-release/BENCH_fleet.json)
  if [[ -z "${fleet_baseline}" || -z "${fleet_measured}" ]]; then
    echo "fleet perf gate: missing devices_per_sec in BENCH_fleet.json" >&2
    exit 1
  fi
  awk -v m="${fleet_measured}" -v b="${fleet_baseline}" 'BEGIN {
    if (m + 0 < 0.85 * b) {
      printf "fleet perf gate FAIL: %.1f dev/s < 85%% of baseline %.1f\n", m, b
      exit 1
    }
    printf "fleet perf gate ok: %.1f dev/s >= 85%% of baseline %.1f\n", m, b
  }'
fi

echo "=== latency smoke: event-engine equivalence + p99 envelope gates ==="
(cd build-release && ./bench/latency --ci)
if ! diff BENCH_latency.json build-release/BENCH_latency.json; then
  echo "latency gate FAIL: BENCH_latency.json drifted from committed baseline" >&2
  echo "(simulated metrics only — if the drift is intentional, recommit it)" >&2
  exit 1
fi
echo "latency baseline ok: BENCH_latency.json matches committed baseline"

echo "=== latency campaign: digests byte-identical across thread counts ==="
mkdir -p build-release/latency_out
./build-release/bench/campaign --spec examples/specs/latency_smoke.spec \
  --threads 1 --out build-release/latency_out/t1 --quiet
./build-release/bench/campaign --spec examples/specs/latency_smoke.spec \
  --threads 4 --out build-release/latency_out/t4 --quiet
if ! diff build-release/latency_out/t1/latency_smoke.json \
          build-release/latency_out/t4/latency_smoke.json ||
   ! diff build-release/latency_out/t1/latency_smoke.csv \
          build-release/latency_out/t4/latency_smoke.csv; then
  echo "latency campaign FAIL: latency digests differ across thread count" >&2
  exit 1
fi
echo "latency campaign ok: reports byte-identical across threads 1 and 4"

echo "=== cowfs crash gate: sanitize soak must report zero repairs ==="
(cd build-sanitize && ./bench/crash_soak --ci)
cowfs_configs=$(grep -c '"config": "[^"]*cowfs' build-sanitize/BENCH_crash_soak.json)
if [[ "${cowfs_configs}" -lt 6 ]]; then
  echo "cowfs crash gate FAIL: only ${cowfs_configs} cowfs configs in sweep (want 6)" >&2
  exit 1
fi
if grep '"config": "[^"]*cowfs' build-sanitize/BENCH_crash_soak.json |
   grep -E '"(fsck_repairs|orphan_files|orphan_blocks)": [1-9]'; then
  echo "cowfs crash gate FAIL: a cowfs mount reported repairs (above)" >&2
  exit 1
fi
echo "cowfs crash gate ok: ${cowfs_configs} configs, zero repairs everywhere"

echo "=== cowfs campaign: three-way reports byte-identical across thread counts ==="
mkdir -p build-release/cowfs_out
./build-release/bench/campaign --spec examples/specs/cowfs_smoke.spec \
  --threads 1 --out build-release/cowfs_out/t1 --quiet
./build-release/bench/campaign --spec examples/specs/cowfs_smoke.spec \
  --threads 4 --out build-release/cowfs_out/t4 --quiet
if ! diff build-release/cowfs_out/t1/cowfs_smoke.json \
          build-release/cowfs_out/t4/cowfs_smoke.json ||
   ! diff build-release/cowfs_out/t1/cowfs_smoke.csv \
          build-release/cowfs_out/t4/cowfs_smoke.csv; then
  echo "cowfs campaign FAIL: reports differ across thread count" >&2
  exit 1
fi
echo "cowfs campaign ok: reports byte-identical across threads 1 and 4"

echo "CI OK"
