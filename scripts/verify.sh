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

echo "== sanitizers: ASan+UBSan build, robustness + device + pipeline + fuzz + SAM + reads + cal_p + window + compress + engine + determinism + service =="
cmake -B build-asan -S . -DGSNP_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-asan -j >/dev/null
# Every allocation is filled with 0xbe, not only its first 4 KiB: a window
# buffer read before the pass that writes it then changes output bytes, and
# the golden corpus and the kept-window-set tests fail.
ASAN_OPTIONS=malloc_fill_byte=190:max_malloc_fill_size=2147483647 \
ctest --test-dir build-asan --output-on-failure -R 'robustness|device|pipeline|fuzz|sam|test_reads|test_cal_p|test_window|test_compress|test_engine|determinism|test_service|histogram|eventlog|batcher'

echo "== storage/network chaos under ASan: fault matrix, fsck corpus, socket chaos =="
ctest --test-dir build-asan --output-on-failure -R 'fsfault|fsck|chaos'

echo "== service chaos smoke under ASan: crash/recover byte-identical, typed shedding =="
run_service_chaos_smoke build-asan

echo "== overlap: serial vs streamed runs are bit-identical, wall strictly lower =="
cmake --build build -j --target bench_overlap >/dev/null
./build/bench/bench_overlap --workdir build/bench_overlap_work

echo "== TSan: executor + cal_p + SAM/SOAP readers + temp decode + overlapping and back-to-back engine calls + determinism battery + obs/profiler/device under ThreadSanitizer =="
# Device blocks, cal_p's batches (SOAP and SAM lines alike), the window
# loader's frame decodes and the host window stages fan out on the compute
# executor here, so this stage sees them run in parallel; test_engine
# makes engine calls while another call runs on another thread, and
# back-to-back calls that alternate between threads.
cmake -B build-tsan -S . -DGSNP_SANITIZE=thread \
      -DCMAKE_BUILD_TYPE=RelWithDebInfo >/dev/null
cmake --build build-tsan -j >/dev/null
ctest --test-dir build-tsan --output-on-failure \
      -R 'test_parallel|test_cal_p|sam|fuzz|test_reads|test_window|test_compress|test_engine|determinism|test_obs|profiler|device|test_service|histogram|eventlog|batcher'
# The gauge tests read the stats and metrics ops right after wait_job and
# wait_idle, and while a worker holds a chromosome; a gauge pushed after the
# wait returned once failed the first of them in about one release run of
# ten, so both run repeatedly here (only failures print).
./build-tsan/tests/test_service \
    --gtest_filter='ServiceFixture.StatsSurfaceQueueAndSpoolGauges:ServiceFixture.QueueFullAndQuotaShedTyped' \
    --gtest_repeat=20 --gtest_brief=1
# LineServer joins each ended connection's thread at the next accept and
# hands the rest to stop(); 300 one-request connections per run exercise
# that hand-off against the connection threads' own exits.
./build-tsan/tests/test_chaos \
    --gtest_filter='NetChaosTest.EndedConnectionsAreJoined' \
    --gtest_repeat=20 --gtest_brief=1

echo "== storage/network chaos under TSan: injector + spool + socket thread-safety =="
ctest --test-dir build-tsan --output-on-failure -R 'fsfault|fsck|chaos'

echo "== service chaos smoke under TSan: worker pool + watchdog + journal races =="
run_service_chaos_smoke build-tsan

echo "verify: all green"
