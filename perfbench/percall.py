"""What a battery call costs outside its per-sample workers.

    python3 perfbench/percall.py [--calls 100]      # about a minute

Times the worker of ``verify-main`` (n = 4) and of ``verify-c2`` (r = n = 5)
inside ``cli.main``, for ``--calls`` one-sample calls and for one call of
``--calls`` samples, and prints the time a call spends outside its workers
(argument parsing, config, aggregation, witness replay, the JSON write)
against the per-sample worker time.
"""

from __future__ import annotations

import argparse
import os
import shutil
import statistics
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BATTERIES = (("verify-main", "_main_theorem_sample", ["--dim", "4", "--rank", "3"]),
             ("verify-c2", "_c2_sample", ["--dim", "5", "--rank", "5"]))


def measure(command: str, worker: str, extra: list[str], calls: int) -> None:
    from chernweil import batch, cli
    plain = getattr(batch, worker)
    worker_s: list[float] = []

    def timed(args):
        t = time.perf_counter()
        out = plain(args)
        worker_s.append(time.perf_counter() - t)
        return out

    setattr(batch, worker, timed)
    try:
        argv = [command, *extra, "--workers", "1", "--out", "report.json"]
        cli.main([*argv, "--samples", "2"])  # warm-up
        worker_s.clear()
        outside = []
        for i in range(calls):
            t = time.perf_counter()
            cli.main([*argv, "--samples", "1", "--seed", str(i)])
            outside.append(time.perf_counter() - t - worker_s[-1])
        per_sample_1 = statistics.fmean(worker_s)
        worker_s.clear()
        t = time.perf_counter()
        cli.main([*argv, "--samples", str(calls)])
        outside_n = time.perf_counter() - t - sum(worker_s)
        per_sample_n = statistics.fmean(worker_s)
    finally:
        setattr(batch, worker, plain)
    print(f"{command}: {1e3 * statistics.fmean(outside):.1f} ms a call outside the "
          f"workers at --samples 1 (worker {1e3 * per_sample_1:.1f} ms a sample); "
          f"{1e3 * outside_n:.1f} ms outside the workers in one --samples {calls} "
          f"call (worker {1e3 * per_sample_n:.1f} ms a sample)")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--calls", type=int, default=100)
    args = p.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    os.chdir(workdir)
    try:
        for command, worker, extra in BATTERIES:
            measure(command, worker, extra, args.calls)
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
