#!/usr/bin/env bash
# Full verification: tier-1 build + tests, the robustness + service suites
# under AddressSanitizer + UBSan, the storage/network chaos suites (fs-fault
# matrix, fsck corpus, socket chaos) under both sanitizers, the
# stream-overlap harness, the gsnpd chaos smoke (bench_service --fs-faults)
# under both sanitizers, and the determinism/concurrency suites under
# ThreadSanitizer (sanitizer builds skip only the google-benchmark binaries,
# whose library is not sanitizer-instrumented).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-1: release build + full test suite =="
cmake -B build -S . >/dev/null
cmake --build build -j >/dev/null
ctest --test-dir build --output-on-failure

# The backend bit-exactness contract at both ends of the dispatch ladder:
# the tier-1 pass above ran the determinism battery (backend matrix
# included) at the host's best SIMD level; this second pass forces every
# gsnp-simd run down to the scalar kernels, so a vectorization bug cannot
# hide behind "scalar was the level that happened to run" (or vice versa).
echo "== determinism x2: battery again with GSNP_FORCE_SCALAR=1 =="
if ! grep -q avx2 /proc/cpuinfo 2>/dev/null; then
  echo "==============================================================="
  echo "WARNING: this host has no AVX2 — the default-dispatch determinism"
  echo "pass above only covered the SSE2/scalar kernels.  Run verify.sh on"
  echo "an AVX2-capable machine before trusting the gsnp-simd backend."
  echo "==============================================================="
fi
GSNP_FORCE_SCALAR=1 ctest --test-dir build --output-on-failure -R determinism

echo "== bench_smoke: baseline harness emits schema-valid BENCH_pipeline.json =="
cmake --build build -j --target bench_smoke >/dev/null
./build/bench/bench_smoke --out build/BENCH_pipeline.json \
                          --workdir build/bench_smoke_work >/dev/null
[ -s build/BENCH_pipeline.json ] || { echo "BENCH_pipeline.json missing"; exit 1; }
./build/bench/bench_smoke --validate build/BENCH_pipeline.json

echo "== perf sentinel: fresh bench vs committed baseline (+ history append) =="
scripts/bench_report --check

echo "== telemetry: gsnpd Prometheus exposition lints against the inventory =="
cmake --build build -j --target gsnp_cli >/dev/null
./build/examples/gsnp_cli metrics --demo --workdir build/metrics_demo \
    > build/metrics_demo.txt
python3 scripts/check_metrics.py build/metrics_demo.txt \
    scripts/metrics_inventory.txt

echo "== profiler: per-kernel profile is schema-valid and sums exactly =="
cmake --build build -j --target gsnp_cli >/dev/null
./build/examples/gsnp_cli simulate --out build/profile_sim --sites 20000 \
                                   --depth 6 --seed 7 >/dev/null
./build/examples/gsnp_cli profile --ref build/profile_sim/ref.fa \
                                  --align build/profile_sim/align.soap \
                                  --out build/profile_sim/out.snp \
                                  --profile-out build/profile_sim/profile.json \
                                  >/dev/null
./build/examples/gsnp_cli profile --validate build/profile_sim/profile.json

# Short gsnpd chaos smoke under a sanitizer build: concurrent jobs, seeded
# faults, a mid-run daemon kill/restart, typed shedding, and (--fs-faults)
# the storage-chaos rounds — transient container tears absorbed byte-
# identically, persistent journal ENOSPC rejected typed, fsck clean after.
# 8 jobs is the contract floor; the small --length keeps sanitized runs
# quick.
run_service_chaos_smoke() {
  local builddir="$1"
  if [ ! -x "${builddir}/bench/bench_service" ]; then
    echo "==============================================================="
    echo "bench_service: SKIPPED — ${builddir}/bench/bench_service missing."
    echo "The harness should build under sanitizers (bench/CMakeLists.txt"
    echo "gates only the google-benchmark targets); investigate."
    echo "==============================================================="
    return 0
  fi
  "${builddir}/bench/bench_service" --jobs 8 --length 500 --fs-faults \
      --workdir "${builddir}/bench_service_work"
}

echo "== sanitizers: ASan+UBSan build, robustness + device + pipeline + fuzz + service =="
cmake -B build-asan -S . -DGSNP_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j >/dev/null
ctest --test-dir build-asan --output-on-failure -R 'robustness|device|pipeline|fuzz|sam|test_service|histogram|eventlog|batcher'

echo "== storage/network chaos under ASan: fault matrix, fsck corpus, socket chaos =="
ctest --test-dir build-asan --output-on-failure -R 'fsfault|fsck|chaos'

echo "== service chaos smoke under ASan: crash/recover byte-identical, typed shedding =="
run_service_chaos_smoke build-asan

echo "== overlap: serial vs streamed runs are bit-identical, wall strictly lower =="
cmake --build build -j --target bench_overlap >/dev/null
./build/bench/bench_overlap --workdir build/bench_overlap_work

echo "== TSan: executor + determinism battery + obs/profiler/device under ThreadSanitizer =="
# Device blocks and the host window stages fan out on the compute executor
# here, so this stage sees them run in parallel.
cmake -B build-tsan -S . -DGSNP_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j >/dev/null
ctest --test-dir build-tsan --output-on-failure \
      -R 'test_parallel|determinism|test_obs|profiler|device|test_service|histogram|eventlog|batcher'

echo "== storage/network chaos under TSan: injector + spool + socket thread-safety =="
ctest --test-dir build-tsan --output-on-failure -R 'fsfault|fsck|chaos'

echo "== service chaos smoke under TSan: worker pool + watchdog + journal races =="
run_service_chaos_smoke build-tsan

echo "verify: all green"
