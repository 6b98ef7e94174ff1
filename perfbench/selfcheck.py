"""Determinism and seed self-check of the benchmark.

    python3 perfbench/selfcheck.py

For every workload in BENCHMARK.json it runs perfbench/run.py three
times for BENCHMARK.json's run_seconds: twice with SEED and once with
OTHER_SEED.  The two SEED runs must print bit-identical fingerprints
(train_loss_end and test_acc, or the fitted coefficients, residual and
gradcheck result), every run must be correct with no failed operation,
and OTHER_SEED must give another fingerprint, which shows that the seed
reaches the generated inputs.  Exits 0 when every check holds.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SEED, OTHER_SEED = 101, 202


def run(workload, seed, seconds):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=HERE.parent, stdout=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return None, None
    fingerprint = next((json.loads(line[len("fingerprint "):]) for line in lines
                        if line.startswith("fingerprint ")), None)
    return json.loads(lines[-1]), fingerprint


def main() -> int:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = [run(workload, seed, spec["run_seconds"])
                for seed in (SEED, SEED, OTHER_SEED)]
        clean = all(res is not None and res["correct"] and res["failed"] == 0
                    for res, _ in runs)
        same = runs[0][1] is not None and runs[0][1] == runs[1][1]
        moved = runs[0][1] != runs[2][1]
        ok = ok and clean and same and moved
        print(f"{workload}: runs clean {clean}, seed {SEED} repeats bit for bit "
              f"{same}, seed {OTHER_SEED} gives other inputs {moved}")
        print(f"  seed {SEED}: {json.dumps(runs[0][1], sort_keys=True)}")
        print(f"  seed {OTHER_SEED}: {json.dumps(runs[2][1], sort_keys=True)}")
    print("self-check " + ("passed" if ok else "FAILED"))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
