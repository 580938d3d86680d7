"""Record a baseline: every workload, on each given seed, untraced and
traced, into one JSON file.

    python3 bench/record.py --seeds 1 1000 --out bench/baseline.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import corpus

BENCH = Path(__file__).resolve().parent


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args()
    runs = []
    for workload in corpus.WORKLOADS:
        for seed in args.seeds:
            for trace in (0, 1):
                cmd = [sys.executable, str(BENCH / "run.py"), "--workload", workload,
                       "--seed", str(seed), "--seconds", str(args.seconds),
                       "--trace", str(trace)]
                done = subprocess.run(cmd, capture_output=True, text=True, check=True,
                                      cwd=BENCH.parent)
                result = json.loads(done.stdout.strip().splitlines()[-1])
                runs.append({"workload": workload, "seed": seed, "trace": trace, **result})
                print(workload, seed, trace, "correct" if result["correct"] else "INCORRECT",
                      flush=True)
    args.out.write_text(json.dumps({
        "python": platform.python_version(),
        "machine": f"{platform.machine()}, {len(os.sched_getaffinity(0))} cpus",
        "seconds": args.seconds,
        "runs": runs,
    }, indent=1) + "\n")


if __name__ == "__main__":
    main()
