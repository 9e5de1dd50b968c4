"""Benchmark entry point: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload sim1-cli --seed 0 --seconds 20 --trace 0

Run from the root of a checkout; glda is imported from its ``src/``. With
``--trace 0`` every step is a fresh process timed from launch to exit and
the end-to-end metrics are printed; with ``--trace 1`` a traced run in one
process gives the per-layer metrics. Metric names and units come from
BENCHMARK.json. The last stdout line is the result; the lines before it
record the machine and the details behind the metrics. Nothing is written
outside ``.bench_work/`` in the checkout, which is removed at exit.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from pipeline import WORKLOADS, Step, Tally

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
# One BLAS/OpenMP thread per process: the load comes from one process and
# never asks for more cores than the machine has.
BLAS_THREADS = 1
# Set-up runs at least SETUP_REPS times and until SETUP_SECONDS have gone.
SETUP_REPS = 3
SETUP_SECONDS = 3.0
IMPORT_REPS = 5
# A run stops starting rounds once this much time has gone, and kills a
# step still running at DEADLINE_S, so it ends within 180 seconds.
ROUND_BUDGET_S = 120
DEADLINE_S = 170


class ProcessRunner:
    """Runs each step as a fresh process and keeps the largest RSS seen."""

    def __init__(self, env, work, deadline):
        self.env = env
        self.work = work
        self.deadline = deadline
        self.peak_rss_mb = 0.0
        self.track_rss = True

    def spawn(self, argv):
        with open(self.work / "stdout", "w+b") as out, open(self.work / "stderr", "w+b") as err:
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=self.work)
            timer = threading.Timer(max(self.deadline - time.monotonic(), 0.1), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no process behind
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            seconds = time.perf_counter() - t0
            proc.returncode = os.waitstatus_to_exitcode(status)
            out.seek(0)
            err.seek(0)
            step = Step(proc.returncode, out.read().decode(errors="replace"),
                        err.read().decode(errors="replace"), seconds)
        if self.track_rss:
            self.peak_rss_mb = max(self.peak_rss_mb, usage.ru_maxrss / 1024.0)
        return step

    def cli(self, argv):
        return self.spawn([sys.executable, "-m", "glda.cli", *argv])

    def lib(self, name, **kwargs):
        step = self.spawn([sys.executable, str(BENCH_DIR / "lib.py"), name, json.dumps(kwargs)])
        result = json.loads(step.out.splitlines()[-1]) if step.code == 0 else None
        return result, step


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(ROOT / "src"), str(BENCH_DIR)])
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONHASHSEED"] = "0"
    return env


def _cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _src_digest():
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def machine(run):
    run.track_rss = False
    info, _ = run.lib("env_info")
    run.track_rss = True
    return {
        "nproc": os.cpu_count(),
        "cpu": _cpu_model(),
        "python": platform.python_version(),
        **(info or {}),
        "blas_threads": BLAS_THREADS,
        "commit": _commit(),
        "src_sha256": _src_digest(),
    }


def untraced(workload, run, work, seed, seconds, start):
    tally = Tally()
    setups = []
    while len(setups) < SETUP_REPS or sum(setups) < SETUP_SECONDS:
        d = work / f"setup{len(setups)}"
        d.mkdir()
        t0 = time.perf_counter()
        state = workload.setup(run, d, seed, tally)
        setups.append(time.perf_counter() - t0)
    rounds = []
    t_rounds = time.perf_counter()
    while not rounds or time.perf_counter() - t_rounds < seconds:
        last = time.perf_counter()
        rounds.append(workload.round(run, d, state, tally))
        if time.perf_counter() - start + (time.perf_counter() - last) > ROUND_BUDGET_S:
            break
    run.track_rss = False
    workload.check(run, d, state, tally)
    parts = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": parts["wall_s"],
        "peak_rss_mb": run.peak_rss_mb,
    }
    detail = {"rounds": len(rounds), "setups_s": setups, "parts_s": parts}
    return metrics, tally.attempted, tally.failures, tally.quality, detail


def traced(workload, run, work, seed):
    step = run.spawn([sys.executable, str(BENCH_DIR / "traced.py"), workload.name,
                      str(work / "trace"), str(seed)])
    if step.code != 0:
        raise RuntimeError(f"traced run failed with exit code {step.code}:\n{step.err}")
    res = json.loads(step.out.splitlines()[-1])
    imports = []
    for _ in range(IMPORT_REPS):
        s = run.spawn([sys.executable, "-c", "import time; t = time.perf_counter(); "
                       "import glda.cli; print(time.perf_counter() - t)"])
        if s.code == 0:
            imports.append(float(s.out))
        else:
            res["failures"].append(f"import glda.cli: {s.problem()}")
    metrics = dict(res["metrics"])
    metrics["cli.import_s"] = statistics.median(imports) if imports else 0.0
    detail = {"skipped_targets": res["skipped_targets"], "import_s": imports}
    return metrics, res["attempted"] + IMPORT_REPS, res["failures"], res["quality"], detail


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    start = time.perf_counter()
    # a terminated run still stops its child and removes its files
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))

    if not (ROOT / "src" / "glda" / "__init__.py").is_file():
        print(f"error: no glda package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    work = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        run = ProcessRunner(child_env(), work, time.monotonic() + DEADLINE_S)
        env = machine(run)
        workload = WORKLOADS[args.workload]
        if args.trace:
            metrics, attempted, failures, quality, detail = traced(workload, run, work, args.seed)
        else:
            metrics, attempted, failures, quality, detail = untraced(
                workload, run, work, args.seed, args.seconds, start)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            (ROOT / ".bench_work").rmdir()
        except OSError:
            pass  # another run is still using it

    if set(metrics) != set(declared):
        differ = sorted(set(metrics) ^ set(declared))
        raise RuntimeError(f"metrics differ from BENCHMARK.json: {differ}")
    print(json.dumps({"env": env}))
    print(json.dumps({"detail": detail, "quality": quality, "failures": failures[:20]}))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": metrics[k], "unit": declared[k]} for k in declared},
    }, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
