"""Benchmark of the chernweil command line.

    python3 perfbench/run.py --workload main-n4 --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  ``--trace 0`` runs one workload as a closed loop (one operation at
a time, one worker, BLAS/OpenMP pinned to one thread) through
``chernweil.cli.main`` and reports the end-to-end metrics.  ``--trace 1``
runs the traced breakdown: a fixed prefix of every workload's operations,
each run untraced and again with a span around every public function the
package's workers call, and reports the per-layer metrics.  The last stdout
line is the result object; the line before it records the environment, the
report digests, any failing operations and, on timed runs, the wall-time
latencies.  Metric names and units come from BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORKLOAD_NAMES = ("main-n4", "c2-r5n5", "cones-n3n4", "pushforward-r4")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
               "NUMEXPR_NUM_THREADS", "CHERNWEIL_WORKERS")
SETUP_PROBES = 6       # extra set-ups in fresh interpreters, for the median
HELD_OUT_SEED = 20261017  # reserved: confirm claims on it, never tune on it


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    p.add_argument("--seed", type=int, required=True,
                   help=f"workload seed; {HELD_OUT_SEED} is held out for "
                        "confirming claims")
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    # internal: one set-up or one push-forward call in a fresh interpreter
    p.add_argument("--probe", choices=("setup", "pushforward"), help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def set_up(name: str, seed: int, workdir: str):
    """Import, input generation and the warm-up operation; returns the
    workload and the set-up's wall seconds.

    Set-up is timed in wall time, not scaled: a fresh interpreter has too
    few kernel samples of its own, and the median of several set-ups spread
    over the run is steadier than any scaled one was.
    """
    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[name](seed, workdir)
    wl.prepare()
    wl.warm_up()
    return wl, time.perf_counter() - t0


def probe_pushforward(out: str) -> dict:
    t0 = time.perf_counter()
    import workloads
    import_s = time.perf_counter() - t0
    from speed import SpeedSampler
    speed = SpeedSampler()
    speed.start()
    try:
        code, op_s, op_wall_s = workloads.call_cli(["verify-pushforwards", "--out", out], speed)
    finally:
        speed.stop()
    return {"import_s": import_s, "op_s": op_s, "op_wall_s": op_wall_s, "exit": code}


def run_op(wl, i: int, speed=None, tr=None):
    """One operation plus its output check.

    Returns (seconds, wall seconds, report, canonical report bytes, problems).
    The traced run (``tr`` given, the tracer of the check's replays) runs
    every operation in this interpreter.
    """
    from workloads import UNTRACED, canonical_report
    if os.path.exists(wl.out):
        os.remove(wl.out)
    code, seconds, wall = wl.run_in_process(i) if tr else wl.run(i, speed)
    report = wl.read_report()
    canonical = canonical_report(wl.out) if report is not None else b""
    try:
        problems = wl.check(i, code, report, tr or UNTRACED)
    except (KeyError, IndexError, TypeError) as exc:
        problems = [f"malformed report: {exc!r}"]
    return seconds, wall, report, canonical, problems


def latency_metrics(seconds: list[float]) -> dict:
    return {
        "ops_per_s": len(seconds) / sum(seconds),
        "op_ms_p50": 1e3 * statistics.median(seconds),
        "op_ms_p90": 1e3 * statistics.quantiles(seconds, n=10, method="inclusive")[8],
    }


def timed_run(name: str, seed: int, seconds: float, workdir: str):
    wl, setup_s = set_up(name, seed, workdir)
    setups = [setup_s]
    from speed import SpeedSampler
    speed = SpeedSampler()
    speed.start()
    try:
        return measure(wl, setups, seconds, speed)
    finally:
        speed.stop()


def measure(wl, setups: list[float], seconds: float, speed):
    """The closed loop of a timed run, with set-up probes spread over it."""
    from workloads import run_probe
    name, seed = wl.name, wl.seed

    def probe_setups(due: float) -> float:
        """Set-ups in fresh interpreters until ``due`` are done; their seconds."""
        t = time.perf_counter()
        with speed.paused():
            while len(setups) - 1 < int(due):
                setups.append(run_probe("setup", name, seed)["setup_s"])
        return time.perf_counter() - t

    latencies, walls, failures = [], [], []
    digest = hashlib.sha256()
    start = time.perf_counter()
    probe_s = last_round = 0.0
    i = 0
    while i < wl.min_ops or time.perf_counter() - start - probe_s + last_round <= seconds:
        t_round = time.perf_counter()
        for _ in range(wl.round_size):
            dt, wall, _, canonical, problems = run_op(wl, i, speed)
            if i < wl.trace_ops:
                digest.update(canonical)
            latencies.append(dt)
            walls.append(wall)
            if problems:
                failures.append({"op": i, "problems": problems})
            i += 1
        last_round = time.perf_counter() - t_round
        # spread the set-up probes over the run, away from one machine phase
        elapsed = time.perf_counter() - start - probe_s
        probe_s += probe_setups(SETUP_PROBES * min(1.0, elapsed / max(seconds, 1e-9)))
    probe_setups(SETUP_PROBES)
    if wl.fresh_interpreter:
        setups += wl.import_times
        rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    ops = len(latencies)
    metrics = {
        **latency_metrics(latencies),
        "setup_s": statistics.median(setups),
        "pass_frac": (ops - len(failures)) / ops,
        "peak_rss_mb": rss / 1024.0,
    }
    extra = {"reference_kernel_ms": speed.summary_ms(),
             "wall": latency_metrics(walls)}
    return metrics, ops, failures, {name: digest.hexdigest()}, extra


def traced_call(wl, i: int, layers) -> tuple[float, bytes]:
    """Operation i in this interpreter under the spans; returns its wall
    seconds and canonical report bytes."""
    import workloads
    if os.path.exists(wl.out):
        os.remove(wl.out)
    with workloads.spans(layers):
        wall = wl.run_in_process(i)[2]
    canonical = workloads.canonical_report(wl.out) if os.path.exists(wl.out) else b""
    return wall, canonical


def traced_run(seed: int, workdir: str):
    """The traced breakdown: each workload's first ``trace_ops`` operations,
    each run and checked untraced, then run again under spans; the traced
    report must equal the untraced one."""
    t0 = time.perf_counter()
    import workloads
    metrics = {"cli.import_ms": 1e3 * (time.perf_counter() - t0)}
    attempted, failures, digests = 0, [], {}
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(seed, workdir)
        wl.prepare()
        wl.warm_up()
        layers, gate = workloads.Tracer(), workloads.Tracer()
        plain_s = traced_s = 0.0
        digest = hashlib.sha256()
        for i in range(wl.trace_ops):
            if i % 2:  # every other operation runs traced first: no order bias
                traced_wall, traced = traced_call(wl, i, layers)
            _, wall, _, canonical, problems = run_op(wl, i, tr=gate)
            if not i % 2:
                traced_wall, traced = traced_call(wl, i, layers)
            digest.update(canonical)
            plain_s += wall
            traced_s += traced_wall
            if traced != canonical:
                problems.append("the traced report differs from the untraced one")
            attempted += 1
            if problems:
                failures.append({"workload": name, "op": i, "problems": problems})
        digests[name] = digest.hexdigest()
        n = wl.trace_ops
        prefix = name + "."
        metrics.update({prefix + span + "_ms": 1e3 * busy / n
                        for span, busy in layers.busy.items()})
        metrics.update({prefix + k: v for k, v in layers.counts.items()})
        metrics[prefix + "schur.monomials"] = layers.calls["schur.expand_in_roots"]
        metrics[prefix + "cli.main_ms"] = 1e3 * plain_s / n
        metrics[prefix + "batch.self_ms"] = 1e3 * (traced_s - layers.layer_busy()) / n
        metrics[prefix + "batch.replay_ms"] = 1e3 * sum(gate.busy.values()) / n
        metrics[prefix + "trace.overhead_ratio"] = traced_s / plain_s
        if layers.counts["positivity.strong_attempts"]:
            metrics[prefix + "positivity.strong_decided_frac"] = \
                layers.counts["positivity.strong_decided"] / \
                layers.counts["positivity.strong_attempts"]
    return metrics, attempted, failures, digests, {}


def environment() -> dict:
    import numpy
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
        sha = proc.stdout.strip() if proc.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        sha = "unavailable"
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
        "workers": 1,
    }


def select(metrics: dict, spec: list[dict]) -> dict:
    """Every metric BENCHMARK.json lists, with its unit; a missing one is an error."""
    missing = [m["name"] for m in spec if m["name"] not in metrics]
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    return {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isdir(os.path.join(SRC, "chernweil")):
        print(f"error: no chernweil sources under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = "1"
    sys.path[:0] = [SRC, HERE]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workroot = os.path.join(HERE, "_work")
    os.makedirs(workroot, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=workroot)
    os.chdir(workdir)
    try:
        if args.probe == "pushforward":
            print(json.dumps(probe_pushforward(args.out)))
            return 0
        if args.probe == "setup":
            _, setup_s = set_up(args.workload, args.seed, workdir)
            print(json.dumps({"setup_s": setup_s}))
            return 0
        if args.trace:
            metrics, attempted, failures, digests, extra = traced_run(args.seed, workdir)
            spec = bench["per_layer"]
        else:
            metrics, attempted, failures, digests, extra = timed_run(
                args.workload, args.seed, args.seconds, workdir)
            spec = bench["end_to_end"]
        result = {"correct": not failures, "attempted": attempted,
                  "failed": len(failures), "metrics": select(metrics, spec)}
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir, ignore_errors=True)
    info = {"environment": environment(), "workload": args.workload,
            "seed": args.seed, "trace": args.trace, "report_digests": digests,
            "failures": failures, **extra}
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
