"""Benchmark of the pau package.

    python3 perfbench/run.py --workload NAME --seed N --seconds T --trace 0|1

Run it from the root of a source checkout.  Each workload runs in fresh
Python processes (perfbench/child.py) with OPENBLAS_NUM_THREADS and
OMP_NUM_THREADS set before numpy loads.  With --trace 0 the run starts
SETUP_SAMPLES processes, reports the median set-up time and the
closed-loop end-to-end metrics of the last one.  With --trace 1 a single
process reports the per-layer metrics.  Metric names and units come from
BENCHMARK.json.  Every metric is printed by name with its unit, the run
record and results go to perfbench/results/, and the last line of
standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import ctypes
import hashlib
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5
BLAS_THREADS = "1"
TIME_LIMIT_S = 170.0      # every child of one run must end within this
_SC_LEVEL2_CACHE_SIZE = 191   # glibc sysconf names
_SC_LEVEL3_CACHE_SIZE = 194


class BenchmarkError(RuntimeError):
    pass


def cache_sizes():
    """L2 and L3 sizes in bytes as glibc reports them, None where unknown."""
    try:
        libc = ctypes.CDLL(None)
    except OSError:
        return None, None
    libc.sysconf.restype = ctypes.c_long
    libc.sysconf.argtypes = [ctypes.c_int]
    return tuple(v if v > 0 else None for v in
                 (libc.sysconf(_SC_LEVEL2_CACHE_SIZE), libc.sysconf(_SC_LEVEL3_CACHE_SIZE)))


def git_commit():
    """HEAD of the checkout, read from .git without running git; None when
    the checkout is not a git repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.is_file():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_stats():
    """(line count, sha256) over src/pau/*.py."""
    digest = hashlib.sha256()
    lines = 0
    for path in sorted((ROOT / "src" / "pau").glob("*.py")):
        text = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + text)
        lines += text.count(b"\n")
    return lines, digest.hexdigest()


def run_child(args, mode, env, deadline):
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--mode", mode,
           "--work-dir", str(HERE / ".work"),
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} process passed the {TIME_LIMIT_S:.0f} s limit") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchmarkError(f"{mode} process exited {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    p = argparse.ArgumentParser(description=__doc__,
                                formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", choices=[w["name"] for w in spec["workloads"]],
                   required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "pau" / "__init__.py").is_file():
        print(f"error: no pau sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    wanted = spec["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    env = dict(os.environ, OPENBLAS_NUM_THREADS=BLAS_THREADS,
               OMP_NUM_THREADS=BLAS_THREADS,
               PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               PYTHONHASHSEED="0")
    (HERE / ".work").mkdir(exist_ok=True)
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        samples = [run_child(args, "setup", env, deadline)
                   for _ in range(0 if args.trace else SETUP_SAMPLES - 1)]
        result = run_child(args, "run", env, deadline)
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    setup = [s["setup_s"] for s in samples] + [result["setup_s"]]
    metrics = dict(result["metrics"])
    if not args.trace:
        metrics["setup_s"] = statistics.median(setup)
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        print(f"error: the workload did not report {missing}", file=sys.stderr)
        return 1
    finite = all(math.isfinite(metrics[m["name"]]) for m in wanted)
    out = {
        "correct": result["failed"] == 0 and finite,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {m["name"]: {"value": metrics[m["name"]] if math.isfinite(
            metrics[m["name"]]) else None, "unit": m["unit"]} for m in wanted},
    }
    l2, l3 = cache_sizes()
    lines, sha = source_stats()
    record = dict(result["record"], workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace,
                  nproc=len(os.sched_getaffinity(0)), l2_bytes=l2, l3_bytes=l3,
                  blas_threads=BLAS_THREADS, git_commit=git_commit(),
                  src_pau_lines=lines, src_pau_sha256=sha,
                  setup_samples_s=setup)

    for name, value in metrics.items():
        print(f"{name} = {value!r} {units.get(name, '')}".rstrip())
    for name, value in result.get("summary", {}).items():
        if name not in metrics:
            print(f"  {name} = {value!r} {units.get(name, '')}".rstrip())
    print(f"ops: {result['failed']} failed of {result['attempted']} attempted")
    print("fingerprint " + json.dumps(result["fingerprint"], sort_keys=True))
    print("record " + json.dumps(record, sort_keys=True))
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}.json").write_text(
        json.dumps({"record": record, "result": out, "summary": result.get("summary"),
                    "fingerprint": result["fingerprint"],
                    "step_ms_samples": result.get("samples_ms")}, sort_keys=True) + "\n")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
