"""Smoke tests of the benchmark itself.

    python3 perfbench/smoke.py        # about two minutes on two cores

1. In a directory that holds only BENCHMARK.json and perfbench/, the
   benchmark exits non-zero without printing a result.
2. Every end-to-end metric of BENCHMARK.json prints with its unit on every
   workload, and every per-layer metric on the traced run.  The traced and
   untraced runs at one seed write canonical reports that are byte-identical
   apart from the timestamp (equal report digests).
3. A tampered weak witness, Hermitian witness or strong certificate fails the
   output check, so the failed fraction rises.
"""

from __future__ import annotations

import copy
import json
import os
import shutil
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEED = 7


def run(args, cwd=ROOT):
    cmd = [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_bare_directory(workroot):
    bare = tempfile.mkdtemp(dir=workroot)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        shutil.copytree(HERE, os.path.join(bare, "perfbench"),
                        ignore=shutil.ignore_patterns("_work", "__pycache__"))
        proc = run(["--workload", "main-n4", "--seed", "1", "--seconds", "1",
                    "--trace", "0"], cwd=bare)
        assert proc.returncode != 0, "bare directory run exited 0"
        assert '"metrics"' not in proc.stdout, "bare directory run printed a result"
    finally:
        shutil.rmtree(bare)
    print("ok: bare directory exits", proc.returncode, "without a result")


def result_lines(proc):
    assert proc.returncode == 0, proc.stderr[-3000:]
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2]), json.loads(lines[-1])


def check_metrics_and_digests(bench):
    traced_info, traced = result_lines(
        run(["--workload", "main-n4", "--seed", str(SEED), "--seconds", "1", "--trace", "1"]))
    assert set(traced) == {"correct", "attempted", "failed", "metrics"}
    assert traced["correct"] and traced["failed"] == 0, traced_info["failures"]
    for m in bench["per_layer"]:
        assert traced["metrics"][m["name"]]["unit"] == m["unit"], m["name"]
    assert len(traced["metrics"]) == len(bench["per_layer"])
    print(f"ok: traced run prints all {len(bench['per_layer'])} per-layer metrics")
    for w in bench["workloads"]:
        info, result = result_lines(
            run(["--workload", w["name"], "--seed", str(SEED), "--seconds", "1", "--trace", "0"]))
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], info["failures"]
        assert len(result["metrics"]) == len(bench["end_to_end"])
        for m in bench["end_to_end"]:
            value = result["metrics"][m["name"]]
            assert value["unit"] == m["unit"] and value["value"] > 0, (w, m, value)
        digest = info["report_digests"][w["name"]]
        assert digest == traced_info["report_digests"][w["name"]], w["name"]
        print(f"ok: {w['name']} prints every end-to-end metric; "
              f"traced and untraced reports agree ({digest[:12]})")


def check_tampering(workroot):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import workloads
    workdir = tempfile.mkdtemp(dir=workroot)
    os.chdir(workdir)
    try:
        wl = workloads.ConesN3N4(SEED, workdir)
        wl.prepare()
        good, tampered = [], []
        for i in range(wl.round_size):
            code, _, _ = wl.run(i)
            report = wl.read_report()
            assert not wl.check(i, code, report), i
            good.append((i, code, report))
            rec = report["samples"][0]
            for key, field, edit in TAMPERS:
                witness = rec.get(key, {}).get("witness") or {}
                if field in witness:
                    bad = copy.deepcopy(report)
                    edit(bad["samples"][0][key]["witness"])
                    with open(wl.out, "w") as fh:
                        json.dump(bad, fh)
                    tampered.append((key, (i, code, wl.read_report())))
    finally:
        os.chdir(ROOT)
        shutil.rmtree(workdir)
    kinds = {key for key, _ in tampered}
    assert kinds == {key for key, _, _ in TAMPERS}, f"tampered only {kinds}"

    def failed_frac(ops):
        return sum(bool(wl.check(*op)) for op in ops) / len(ops)

    assert failed_frac(good) == 0
    for key, op in tampered:
        frac = failed_frac(good + [op])
        assert frac > 0, f"tampered {key} passed the output check"
    print(f"ok: {len(tampered)} tampered witnesses and certificates raise the "
          f"failed fraction ({sorted(kinds)})")


def tamper_vectors(witness):
    x = witness["vectors"][0][0]
    witness["vectors"][0][0] = [x[0] + 0.5, x[1]]


def tamper_beta_coeffs(witness):
    b = witness["beta_coeffs"][0]
    witness["beta_coeffs"][0] = [b[0] + 0.5, b[1]]


def tamper_weights(witness):
    witness["weights"][0] += 0.5


TAMPERS = (("verdict", "vectors", tamper_vectors),
           ("verdict_hermitian", "beta_coeffs", tamper_beta_coeffs),
           ("verdict_strong", "weights", tamper_weights))


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workroot = os.path.join(HERE, "_work")
    os.makedirs(workroot, exist_ok=True)
    check_bare_directory(workroot)
    check_tampering(workroot)
    check_metrics_and_digests(bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
