"""Checks that the speed scaling keeps the timings the program's own.

    python3 perfbench/speedcheck.py [--ops 40]      # about a minute

1. Known added work.  Each of the first ``--ops`` main-n4 operations runs
   twice through ``cli.main``, once plain and once followed by a fixed
   amount of added CPU work (about an operation's worth) inside the timed
   interval; the order alternates.  The added work is also timed alone.  If
   the scaling keeps program time the program's own, the scaled difference
   between the two runs of an operation equals the scaled time of the added
   work, as the wall-time difference equals its wall time.
2. Kernel after program work.  The reference kernel is timed right after
   an operation and right after a light loop.  Its time must not depend on
   what ran before it.
3. A large live heap.  The reference kernel is timed right after a full
   collection, in turn with a million live objects the collector skips
   (frozen) and traverses.  The kernel must not slow down with the heap:
   it allocates nothing the collector tracks and runs with it off.
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


def added_work() -> int:
    """A fixed pure-Python loop plus small eigensolves, like the program."""
    import numpy as np
    acc = 0
    for i in range(1_500_000):
        acc += i * i
    m = np.eye(12) + 0.01
    for _ in range(750):
        np.linalg.eigh(m)
    return acc


def check_added_work(ops: int) -> None:
    import workloads
    from chernweil import cli
    from speed import SpeedSampler
    plain_main = cli.main

    def main_with_work(argv):
        code = plain_main(argv)
        added_work()
        return code

    workdir = tempfile.mkdtemp(dir=os.path.join(HERE, "_work"))
    os.chdir(workdir)
    wl = workloads.MainN4(1, workdir)
    wl.warm_up()
    speed = SpeedSampler()
    speed.start()
    diff, diff_wall, alone, alone_wall = [], [], [], []
    after_op, after_loop = [], []
    for i in range(ops):
        runs = {}
        for extra in ((False, True) if i % 2 else (True, False)):
            cli.main = main_with_work if extra else plain_main
            _, seconds, wall = wl.run(i, speed)
            runs[extra] = (seconds, wall)
        cli.main = plain_main
        diff.append(runs[True][0] - runs[False][0])
        diff_wall.append(runs[True][1] - runs[False][1])
        t = time.perf_counter()
        added_work()
        end = time.perf_counter()
        alone.append(speed.scaled(t, end))
        alone_wall.append(end - t)
        with speed.paused():
            wl.run(i)
            speed._tick()
            after_op.append(speed.samples[-1][1])
            sum(range(100_000))
            speed._tick()
            after_loop.append(speed.samples[-1][1])
    speed.stop()
    os.chdir(ROOT)
    shutil.rmtree(workdir, ignore_errors=True)

    def ms(xs):
        return 1e3 * statistics.median(xs)

    print(f"added work, {ops} operations: scaled difference {ms(diff):.1f} ms "
          f"against {ms(alone):.1f} ms alone ({ms(diff) / ms(alone) - 1:+.1%}); "
          f"wall difference {ms(diff_wall):.1f} ms against {ms(alone_wall):.1f} ms "
          f"({ms(diff_wall) / ms(alone_wall) - 1:+.1%})")
    print(f"reference kernel: {ms(after_op):.3f} ms right after an operation, "
          f"{ms(after_loop):.3f} ms right after a light loop "
          f"({ms(after_op) / ms(after_loop) - 1:+.1%})")


def check_live_heap(reps: int = 100) -> None:
    import gc
    import speed
    sampler = speed.SpeedSampler()
    heap = [(i, [i]) for i in range(500_000)]
    times: dict[bool, list[float]] = {False: [], True: []}
    for r in range(2 * reps):
        traversed = bool(r % 2)
        gc.unfreeze() if traversed else gc.freeze()  # frozen: the collector skips it
        gc.collect()  # a full collection, right before the kernel
        sampler._tick()
        times[traversed].append(sampler.samples[-1][1])
    gc.unfreeze()
    del heap
    small, large = (1e3 * statistics.median(times[k]) for k in (False, True))
    print(f"reference kernel: {small:.3f} ms after a collection of a small heap, "
          f"{large:.3f} ms after one of a million live objects ({large / small - 1:+.1%})")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--ops", type=int, default=40)
    args = p.parse_args(argv)
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path[:0] = [os.path.join(ROOT, "src"), HERE]
    os.makedirs(os.path.join(HERE, "_work"), exist_ok=True)
    check_added_work(args.ops)
    check_live_heap()
    return 0


if __name__ == "__main__":
    sys.exit(main())
