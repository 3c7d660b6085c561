"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py --workload cones-n3n4 --runs 5 [--first-seed 1]

Runs the benchmark once per seed (first-seed, first-seed + 1, ...) with the
run length from BENCHMARK.json, one run at a time, and prints for every
end-to-end metric its median and the distance between the first and third
quartile as a share of the median, next to the metric's bound.  A spread
below a third of the bound is steady.  ``--out`` keeps the raw result lines.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", action="append", required=True)
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--first-seed", type=int, default=1)
    p.add_argument("--out", help="append each result line here as JSON")
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    steady = True
    for workload in args.workload:
        values: dict[str, list[float]] = {}
        elapsed: list[float] = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            cmd = [*bench["command"], "--workload", workload, "--seed", str(seed),
                   "--seconds", str(bench["run_seconds"]), "--trace", "0"]
            start = time.perf_counter()
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
            elapsed.append(time.perf_counter() - start)
            if proc.returncode != 0:
                print(proc.stderr, file=sys.stderr)
                return 1
            info, result = map(json.loads, proc.stdout.strip().splitlines()[-2:])
            if args.out:
                with open(args.out, "a") as fh:
                    fh.write(json.dumps({"workload": workload, "seed": seed,
                                         "info": info, "result": result}) + "\n")
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed", file=sys.stderr)
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
        for metric in bench["end_to_end"]:
            vals = values[metric["name"]]
            q1, _, q3 = statistics.quantiles(vals, n=4)
            med = statistics.median(vals)
            spread = (q3 - q1) / med
            ok = spread < metric["bound"] / 3
            steady &= ok
            print(f"{workload:15s} {metric['name']:12s} median {med:12.4f} "
                  f"spread {spread:7.4f} bound {metric['bound']:6.3f} "
                  f"{'ok' if ok else 'WIDE'}")
        print(f"{workload:15s} {statistics.fmean(elapsed):.1f} s a run")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
