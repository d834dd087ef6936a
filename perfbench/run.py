#!/usr/bin/env python3
"""GSNP repository benchmark.

    python3 perfbench/run.py --workload call-host --seed 1 --seconds 20 --trace 0

Builds perfbench/ (the repository's own CMake project plus the perfbench
binary) into .bench_build/perfbench, generates the workload's inputs from
--seed, measures for --seconds, checks every output, and prints one JSON
result as the last line of stdout: the end-to-end metrics of BENCHMARK.json
with --trace 0, its per-layer metrics (from the traced layer replay and the
service/process probes) with --trace 1.  Earlier stdout lines carry the run's
provenance and sample counts.  The exit code is 0 only when every output
check passed.

Workloads (the reasons are in BENCHMARK.json):
  call-host     1M sites at 10x, run_backend(gsnp-cpu), serial.  Its traced
                run also replays the batched gsnp device path on a 250K-site
                chromosome at 8x with depth islands, for the device layers.
  gsnpd-closed  nproc closed-loop clients against gsnpd (nproc workers),
                two-chromosome gsnp-cpu jobs

Seeds: 1 is the default workload seed; confirm a performance claim on seed 2
as well (a seed not used while the change was written).
"""

import argparse
import hashlib
import json
import os
import shutil
import socket
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path
from statistics import median

BENCH_DIR = Path(__file__).resolve().parent
REPO = BENCH_DIR.parent
NPROC = os.cpu_count() or 1

DEFAULT_SEED = 1

SETUP_REPS = 7        # set-up runs this many times; the fastest is reported
# Wall budget for one run after the build: a fixed allowance for set-up and
# checks plus a multiple of --seconds (a traced run measures twice).
BUDGET_FIXED_S = 60.0
BUDGET_PER_SECOND = 2.0
DEVICE_BATCH_BYTES = 64 << 20
POOL_JOBS = 8         # distinct two-chromosome jobs the gsnpd clients draw from

SCALES = {
    # (sites, depth) per dataset.
    "full": {"host": (1_000_000, 10), "device": (250_000, 8),
             "pool": (60_000, 10), "pool_jobs": POOL_JOBS},
    # The self-test scale: every workload end to end in seconds.
    "tiny": {"host": (20_000, 6), "device": (20_000, 6),
             "pool": (4_000, 6), "pool_jobs": 2},
}


class BenchError(Exception):
    """A failed step: the run exits non-zero without a result line."""


class Refused(BenchError):
    """The build is not one whose numbers may be reported."""


CHILDREN = []


def stop_children():
    for proc in list(CHILDREN):
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        CHILDREN.remove(proc)


def proc_status(pid):
    """/proc/<pid>/status as a dict ({} once the process is gone)."""
    try:
        with open(f"/proc/{pid}/status") as f:
            return dict(line.rstrip("\n").split(":\t", 1) for line in f if ":\t" in line)
    except OSError:
        return {}


def proc_cpu_seconds(pid):
    """User + system CPU seconds of a live process, all threads."""
    with open(f"/proc/{pid}/stat") as f:
        fields = f.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


class ThreadSampler:
    """Polls a process's thread count until stopped; keeps the maximum."""

    def __init__(self, pid, period=0.02):
        self.pid, self.period, self.max = pid, period, 0
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._run, daemon=True)
        self._thread.start()

    def _run(self):
        while not self._stop.is_set():
            threads = proc_status(self.pid).get("Threads")
            if threads:
                self.max = max(self.max, int(threads))
            self._stop.wait(self.period)

    def stop(self):
        self._stop.set()
        self._thread.join()
        return self.max


def decile(values, k):
    """The k-th decile (1..9) of `values`, inclusive method."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


class Context:
    def __init__(self, args, perfbench, gsnp_cli, work):
        self.seed = args.seed
        self.seconds = args.seconds
        self.trace = bool(args.trace)
        self.scale = SCALES[args.scale]
        self.perfbench = perfbench
        self.gsnp_cli = gsnp_cli
        self.work = work
        self.deadline = (time.monotonic() + BUDGET_FIXED_S
                         + BUDGET_PER_SECOND * args.seconds)
        self.env = dict(os.environ, TMPDIR=str(work / "tmp"))

    def time_left(self):
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("run budget exhausted")
        return left

    def run(self, cmd, cwd=None, sample_threads=False):
        """Run `cmd`; return (its stdout, max threads)."""
        cmd = [str(a) for a in cmd]
        what = f"{Path(cmd[0]).name} {cmd[1]}"
        proc = subprocess.Popen(cmd, cwd=cwd, env=self.env, stdout=subprocess.PIPE,
                                text=True)
        CHILDREN.append(proc)
        sampler = ThreadSampler(proc.pid) if sample_threads else None
        try:
            out, _ = proc.communicate(timeout=self.time_left())
        except subprocess.TimeoutExpired:
            raise BenchError(f"{what} ran out of time")
        finally:
            threads = sampler.stop() if sampler else 0
            if proc.poll() is None:
                proc.kill()
            proc.wait()
            CHILDREN.remove(proc)
        if proc.returncode != 0:
            raise BenchError(f"{what} exited with {proc.returncode}")
        return out, threads

    def bench(self, args, cwd=None, sample_threads=False):
        """Run perfbench with `args`; return (its JSON result, max threads)."""
        out, threads = self.run([self.perfbench, *args], cwd, sample_threads)
        return json.loads(out.strip().splitlines()[-1]), threads

    def simulate(self, out, scale_key, seed, name="chrS"):
        """`gsnp_cli simulate` at the scale's (sites, depth): 100-bp reads,
        0.1% SNPs, dbSNP priors."""
        sites, depth = self.scale[scale_key]
        self.run([self.gsnp_cli, "simulate", "--out", out, "--sites", sites,
                  "--depth", depth, "--seed", seed, "--name", name])


# ---- build and provenance ---------------------------------------------------


def build():
    """Configure and build perfbench + gsnp_cli (Release); return both paths."""
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    bdir = (target if target.is_absolute() else REPO / target) / "perfbench"
    (bdir / "tmp").mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(bdir / "tmp"))
    log_path = bdir / "build.log"
    steps = [
        ["cmake", "-S", str(BENCH_DIR), "-B", str(bdir), "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", str(bdir), "--target", "perfbench", "gsnp_cli",
         "-j", str(NPROC)],
    ]
    with open(log_path, "w") as log:
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                              env=env).returncode != 0:
                tail = log_path.read_text().splitlines()[-40:]
                print("\n".join(tail), file=sys.stderr)
                raise BenchError(f"build step failed: {' '.join(step)}")
    return bdir / "perfbench", bdir / "gsnp" / "examples" / "gsnp_cli"


def git_sha():
    if not (REPO / ".git").exists():
        return None
    try:
        return subprocess.run(["git", "-C", str(REPO), "rev-parse", "HEAD"],
                              capture_output=True, text=True,
                              check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None


def source_sha256():
    """Digest of everything the benchmark builds from (the checkout it runs
    in is not a git repository, so this stands in for the commit)."""
    h = hashlib.sha256()
    files = [REPO / "CMakeLists.txt"]
    for d in ("src", "examples", "perfbench"):
        files += sorted(p for p in (REPO / d).rglob("*")
                        if p.is_file() and "__pycache__" not in p.parts)
    for p in files:
        h.update(str(p.relative_to(REPO)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def provenance(ctx):
    info, _ = ctx.bench(["info"])
    if (info["build_type"] != "Release"
            or info["sanitize"].upper() not in ("", "OFF", "0", "FALSE")
            or info["sanitizer_instrumented"]):
        raise Refused(f"refusing to report numbers from this build: {info}")
    info.update({
        "nproc": NPROC,
        "cpu_model": cpu_model(),
        "env": {k: v for k, v in sorted(os.environ.items())
                if k.startswith(("OMP_", "GSNP_"))},
        "git_sha": git_sha(),
        "source_sha256": source_sha256(),
    })
    return info


# ---- workloads --------------------------------------------------------------


def write_pool(ctx, pool):
    """The gsnpd job pool: job k's chromosome c in pool/<k>/chr<c>/, the
    layout `perfbench digest` and `perfbench load` read."""
    for k in range(ctx.scale["pool_jobs"]):
        for c in (1, 2):
            ctx.simulate(pool / str(k) / f"chr{c}", "pool",
                         ctx.seed * 1000 + k * 10 + c, name=f"chr{c}")


def timed(fn):
    start = time.perf_counter()
    fn()
    return time.perf_counter() - start


DEVICE_LAYERS = ("batcher.", "sortnet.", "device.")
SERVICE_LAYERS = ("service.submit_s", "service.queue_wait_s", "service.run_s",
                  "service.shed", "service.workers_busy_mean")


def replay_layers(ctx, data, backend, seconds, extra=()):
    """Untraced calls, then the traced layer replay, on one dataset."""
    r, threads = ctx.bench(["replay", "--dir", data, "--backend", backend,
                            "--seconds", seconds, *extra], sample_threads=True)
    layers = r["layers"]
    layers["proc.threads_max"] = threads
    layers["proc.cpu_util"] = r["untraced_cpu_s"] / (layers["engine.wall_s"] * NPROC)
    return layers, r["attempted"], r["failed"], r["replay_passes"]


def call_host(ctx):
    data = ctx.work / "host"
    gen_times = [timed(lambda: ctx.simulate(data, "host", ctx.seed))
                 for _ in range(1 if ctx.trace else SETUP_REPS)]

    if ctx.trace:
        layers, attempted, failed, passes = replay_layers(
            ctx, data, "gsnp-cpu", ctx.seconds / 2,
            ["--spans-out", ctx.work / "spans-host.json"])
        # The device layers: the batched serial gsnp path on a chromosome
        # with deep pileup islands, checked byte for byte against gsnp-cpu.
        device_data = ctx.work / "device"
        sites, depth = ctx.scale["device"]
        ctx.bench(["gen", "--out", device_data, "--seed", ctx.seed,
                   "--sites", sites, "--depth", depth])
        device, d_attempted, d_failed, d_passes = replay_layers(
            ctx, device_data, "gsnp", ctx.seconds / 2,
            ["--batch-bytes", DEVICE_BATCH_BYTES, "--check-backend", "gsnp-cpu",
             "--spans-out", ctx.work / "spans-device.json"])
        layers.update({k: v for k, v in device.items() if k.startswith(DEVICE_LAYERS)})
        layers["device.engine_wall_s"] = device["engine.wall_s"]
        layers["device.stage_sum_s"] = device["engine.stage_sum_s"]
        layers.update({name: 0.0 for name in SERVICE_LAYERS})  # no service here
        detail = {"replay_passes": passes, "device_replay_passes": d_passes}
        return layers, attempted + d_attempted, failed + d_failed, detail

    r, _ = ctx.bench(["call", "--dir", data, "--backend", "gsnp-cpu",
                      "--seconds", ctx.seconds])
    calls = r["calls"]
    walls = [c["wall_s"] for c in calls]
    metrics = {
        "setup_s": min(gen_times) + r["ref_load_s"],
        "wall_s": decile(walls, 1),
        "cpu_s": decile([c["cpu_s"] for c in calls], 1),
        "peak_rss_mb": r["peak_rss_kib"] / 1024,
        "out_bytes_per_site": calls[0]["out_bytes"] / r["sites"],
        # A job is one call here: the calls run back to back, one at a time.
        "job_p50_s": median(walls),
        "job_p90_s": decile(walls, 9),
        "jobs_per_s": len(calls) / r["loop_wall_s"],
    }
    detail = {"samples": len(calls),
              "stage_sum_s": median([c["stage_sum_s"] for c in calls])}
    if not r["decode_ok"]:
        print(f"output check: {r['decode_error']}", file=sys.stderr)
    return metrics, r["attempted"], r["failed"], detail


class Daemon:
    """`gsnp_cli serve` with nproc workers, run in the work directory (short
    relative socket path: AF_UNIX paths are limited to 108 bytes)."""

    def __init__(self, ctx):
        shutil.rmtree(ctx.work / "spool", ignore_errors=True)
        self.socket_path = os.path.relpath(ctx.work / "gsnpd.sock")
        self.log = open(ctx.work / "gsnpd.log", "w")
        self.proc = subprocess.Popen(
            [str(ctx.gsnp_cli), "serve", "--socket", "gsnpd.sock", "--spool", "spool",
             "--workers", str(NPROC), "--queue", str(2 * NPROC),
             "--quota", str(2 * NPROC)],
            cwd=ctx.work, env=ctx.env, stdout=self.log, stderr=subprocess.STDOUT)
        CHILDREN.append(self.proc)
        deadline = time.monotonic() + min(30.0, ctx.time_left())
        while True:
            if self.proc.poll() is not None:
                raise BenchError("gsnpd exited during start-up")
            try:
                if self.request({"op": "ping"}).get("ok"):
                    return
            except (OSError, ValueError):
                pass
            if time.monotonic() > deadline:
                raise BenchError("gsnpd did not start")
            time.sleep(0.005)

    @property
    def pid(self):
        return self.proc.pid

    def request(self, obj):
        """One protocol request on a fresh connection (FORMATS.md §12)."""
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as s:
            s.settimeout(10)
            s.connect(self.socket_path)
            s.sendall((json.dumps(obj) + "\n").encode())
            buf = b""
            while not buf.endswith(b"\n"):
                chunk = s.recv(65536)
                if not chunk:
                    break
                buf += chunk
        return json.loads(buf)

    def stop(self):
        if self.proc.poll() is None:
            try:
                self.request({"op": "shutdown"})
            except (OSError, ValueError):
                self.proc.terminate()
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        if self.proc in CHILDREN:
            CHILDREN.remove(self.proc)
        self.log.close()


def read_events(path):
    events = []
    with open(path) as f:
        for line in f:
            try:
                events.append(json.loads(line))
            except ValueError:
                pass  # a torn tail line is crash evidence, not an event
    return events


def gsnpd_closed(ctx):
    jobs = ctx.scale["pool_jobs"]
    pool = ctx.work / "pool"
    load_seconds = ctx.seconds / 2 if ctx.trace else ctx.seconds

    # Set-up: the job pool and a ready daemon, repeated; the last one serves.
    setup_times, daemon = [], None
    for _ in range(1 if ctx.trace else SETUP_REPS):
        if daemon:
            daemon.stop()
        start = time.perf_counter()
        write_pool(ctx, pool)
        daemon = Daemon(ctx)
        setup_times.append(time.perf_counter() - start)

    try:
        cpu0 = proc_cpu_seconds(daemon.pid)
        sampler = ThreadSampler(daemon.pid)
        start = time.perf_counter()
        load, _ = ctx.bench(["load", "--socket", "gsnpd.sock", "--pool", "pool",
                             "--jobs", jobs, "--clients", NPROC,
                             "--seconds", load_seconds, "--seed", ctx.seed],
                            cwd=ctx.work)
        load_wall = time.perf_counter() - start
        threads = sampler.stop()
        cpu = proc_cpu_seconds(daemon.pid) - cpu0
        stats = daemon.request({"op": "stats"})
        rss_kib = int(proc_status(daemon.pid)["VmHWM"].split()[0])
    finally:
        daemon.stop()

    serial, _ = ctx.bench(["digest", "--pool", pool, "--jobs", jobs,
                           "--out", ctx.work / "serial"])
    expected = serial["jobs"]
    records = load["jobs"]
    ok = [r["state"] == "done" and r["digest"] == expected[r["pool"]]["digest"]
          for r in records]
    done = [r for r, good in zip(records, ok) if good]
    bad = [r for r, good in zip(records, ok) if not good]
    if bad:
        print(f"job check: state={bad[0]['state']} error={bad[0]['error']!r}",
              file=sys.stderr)
    bad_serial = sum(1 for e in expected if not e["decode_ok"])
    attempted = len(records) + len(expected)
    failed = len(records) - len(done) + bad_serial
    if not done:
        raise BenchError("no gsnpd job completed")

    events = read_events(ctx.work / "spool" / "events.jsonl")
    compute = [e.get("wall_seconds", 0.0) for e in events if e["event"] == "chromosome_done"]
    latencies = [r["terminal"] - r["submitted"] for r in done]
    span = max(r["terminal"] for r in done) - min(r["submitted"] for r in records)
    detail = {"jobs": len(records), "done": len(done), "latency_samples": len(latencies),
              "chromosome_samples": len(compute)}

    if ctx.trace:
        layers, r_attempted, r_failed, _ = replay_layers(
            ctx, pool / "0" / "chr1", "gsnp-cpu", ctx.seconds / 2)
        attempted += r_attempted
        failed += r_failed
        shed = sum(int(stats.get(k, 0)) for k in
                   ("shed_queue_full", "shed_quota", "shed_payload"))
        layers.update({
            "service.submit_s": median([x["admitted"] - x["submitted"] for x in records]),
            "service.queue_wait_s": median([e.get("wall_seconds", 0.0) for e in events
                                            if e["event"] == "started"]),
            "service.run_s": median([e.get("wall_seconds", 0.0) for e in events
                                     if e["event"] == "published"]),
            "service.shed": float(shed),
            "service.workers_busy_mean": sum(compute) / (load_wall * NPROC),
            "proc.threads_max": threads,
            "proc.cpu_util": cpu / (load_wall * NPROC),
            "device.engine_wall_s": 0.0,  # no device replay here
            "device.stage_sum_s": 0.0,
        })
        return layers, attempted, failed, detail

    sites = sum(expected[r["pool"]]["sites"] for r in done)
    metrics = {
        "setup_s": min(setup_times),
        "wall_s": decile(compute, 1),
        "cpu_s": cpu / len(done),
        "peak_rss_mb": rss_kib / 1024,
        "out_bytes_per_site": sum(expected[r["pool"]]["out_bytes"] for r in done) / sites,
        "job_p50_s": median(latencies),
        "job_p90_s": decile(latencies, 9),
        "jobs_per_s": len(done) / span,
    }
    return metrics, attempted, failed, detail


WORKLOADS = {
    "call-host": call_host,
    "gsnpd-closed": gsnpd_closed,
}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=sorted(SCALES), default="full",
                    help="'tiny' is the self-test scale")
    ap.add_argument("--keep", action="store_true", help="keep the work directory")
    args = ap.parse_args(argv)

    os.chdir(REPO)
    needed = ["BENCHMARK.json", "CMakeLists.txt", "src", "examples/gsnp_cli.cpp"]
    missing = [p for p in needed if not (REPO / p).exists()]
    if missing:
        print(f"perfbench: not a GSNP checkout, missing {missing}", file=sys.stderr)
        return 2
    spec = json.loads((REPO / "BENCHMARK.json").read_text())

    work = REPO / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        perfbench, gsnp_cli = build()
        shutil.rmtree(work, ignore_errors=True)
        (work / "tmp").mkdir(parents=True)
        ctx = Context(args, perfbench, gsnp_cli, work)
        print("provenance " + json.dumps(provenance(ctx)), flush=True)
        values, attempted, failed, detail = WORKLOADS[args.workload](ctx)
        names = spec["per_layer" if args.trace else "end_to_end"]
        values["failed_frac"] = failed / attempted
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in names}
    except Refused as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 3
    except (BenchError, OSError, KeyError, ValueError) as e:
        print(f"perfbench: {type(e).__name__}: {e}", file=sys.stderr)
        return 1
    finally:
        stop_children()
        if not args.keep:
            shutil.rmtree(work, ignore_errors=True)

    print("detail " + json.dumps(detail))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
