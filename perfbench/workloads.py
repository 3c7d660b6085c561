"""The four benchmark workloads: inputs, operations, output checks, and the
spans of the traced run.

Every operation goes through ``chernweil.cli.main`` exactly as a user types
it and writes its report to a file.  The checks read that file back and
judge it through the package's public functions only.  The traced run makes
the same call with a span around every public function the package's
workers call (``spans``); its report must equal the untraced one.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import math
import os
import random
import re
import subprocess
import sys
import time
from collections import defaultdict
from contextlib import nullcontext
from typing import NamedTuple

import chernweil.batch
import chernweil.cli
import chernweil.schur
from chernweil import cli
from chernweil.batch import (POSITIVE_KINDS, child_seed, curvature_to_json,
                             form_from_json, replay_witness)
from chernweil.curvature import NEGATIVE_WITNESS, SEMIPOSITIVE
from chernweil.exterior import ExteriorForm, ipow, volume_coefficient
from chernweil.generators import GeneratorSpec, sample
from chernweil.polynomial import SymPoly
from chernweil.positivity import (PositivityVerdict, Status, gram_witness_form,
                                  reconstruct_certificate)
from chernweil.schur import segre_in_chern

EQUALITY_TOL = 1e-10   # RunConfig.equality_tol, the pinned route tolerance
TOL = 1e-9             # the CLI's default --tol
REPLAY_TOL = 1e-8      # replayed value against the recorded one, relative
CERTIFICATE_TOL = 1e-6  # rebuilt certificate against the form, relative
RUN_PY = os.path.join(os.path.dirname(os.path.abspath(__file__)), "run.py")
PROBE_TIMEOUT_S = 170


def derive_seed(seed: int, *parts) -> int:
    """A 32-bit seed that depends only on the workload seed and the parts."""
    digest = hashlib.sha256(repr((seed,) + parts).encode()).digest()
    return int.from_bytes(digest[:4], "big")


def call_cli(argv: list[str], speed=None) -> tuple[int, float, float]:
    """Run one CLI command in-process; returns (exit code, seconds, wall seconds).

    With a SpeedSampler the seconds are scaled to the nominal machine speed,
    otherwise they are the wall seconds.
    """
    start = time.perf_counter()
    try:
        code = cli.main(argv)
    except SystemExit as exc:  # argparse and usage errors
        code = exc.code if isinstance(exc.code, int) else 2
    end = time.perf_counter()
    return code, speed.scaled(start, end) if speed else end - start, end - start


def run_probe(probe: str, name: str, seed: int, *extra: str) -> dict:
    """Run ``run.py --probe`` in a fresh interpreter; returns its JSON line."""
    argv = ["--probe", probe, "--workload", name, "--seed", str(seed),
            "--seconds", "0", "--trace", "0", *extra]
    proc = subprocess.run([sys.executable, RUN_PY, *argv],
                          capture_output=True, text=True, timeout=PROBE_TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"probe {argv} failed: {proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def canonical_report(path: str) -> bytes:
    """The report file's bytes with the timestamp value blanked."""
    with open(path, "rb") as fh:
        return re.sub(rb'"timestamp": "[^"]*"', b'"timestamp": ""', fh.read())


# ---------------------------------------------------------------------------
# spans

class Tracer:
    """Busy time per span name, plus sizes of the forms and polynomials built.

    ``tr(name, fn, *args)`` calls ``fn`` inside a span named after the layer
    and the public function.  A span's busy time excludes the spans nested
    in it, so the busy times of one call add up to at most its wall time.
    Spans are kept in memory and summed at the end.
    """

    def __init__(self):
        self.busy = defaultdict(float)
        self.calls = defaultdict(int)
        self.counts = defaultdict(int)
        self._nested: list[list[float]] = []  # per open span: time of its children

    def __call__(self, name, fn, *args, **kwargs):
        children = [0.0]
        self._nested.append(children)
        t = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t
            self._nested.pop()
            if self._nested:
                self._nested[-1][0] += dt
            self.busy[name] += dt - children[0]
            self.calls[name] += 1
        self._count(name, out)
        return out

    def _count(self, name, out):
        for item in (out if isinstance(out, list) else [out]):
            if isinstance(item, ExteriorForm):
                self.counts["exterior.terms"] += len(item.coeffs)
            elif isinstance(item, SymPoly):
                self.counts["polynomial.terms"] += len(item.terms)
            elif isinstance(item, PositivityVerdict):
                self.counts["positivity.refutations"] += item.status is Status.REFUTED
                if name == "positivity.check_strongly_positive":
                    self.counts["positivity.strong_attempts"] += 1
                    self.counts["positivity.strong_decided"] += \
                        item.status is not Status.UNKNOWN

    def layer_busy(self) -> float:
        """Busy time of every module but the battery's own (batch)."""
        return sum(v for k, v in self.busy.items() if not k.startswith("batch."))


class Untraced:
    """Drop-in for Tracer that only makes the calls."""

    def __call__(self, name, fn, *args):
        return fn(*args)


UNTRACED = Untraced()

# (owner, attribute, span): the public functions the workers and the CLI call,
# looked up by name in the module that calls them, and the exterior product.
SPANS = (
    (chernweil.batch, "sample", "generators.sample"),
    (chernweil.batch, "griffiths_minimum", "curvature.griffiths_minimum"),
    (chernweil.batch, "total_chern_forms", "curvature.total_chern_forms"),
    (chernweil.batch, "chern_form", "curvature.chern_form"),
    (chernweil.batch, "segre_form", "curvature.segre_form"),
    (chernweil.batch, "schur_form", "curvature.schur_forms"),
    (chernweil.batch, "generalized_schur_form", "curvature.schur_forms"),
    (chernweil.batch, "check_positive", "positivity.check_positive"),
    (chernweil.batch, "check_hermitian_positive", "positivity.check_hermitian_positive"),
    (chernweil.batch, "check_strongly_positive", "positivity.check_strongly_positive"),
    (chernweil.batch, "curvature_from_json", "batch.curvature_from_json"),
    (chernweil.batch, "replay_witness", "batch.replay_witness"),
    (chernweil.batch, "expand_in_roots", "schur.expand_in_roots"),
    (chernweil.batch, "dp_pushforward", "schur.dp_pushforward"),
    (chernweil.batch, "complete_flag_oracle", "schur.complete_flag_oracle"),
    (chernweil.batch, "jacobi_trudi_check", "schur.jacobi_trudi_check"),
    (chernweil.batch, "projective_oracle", "schur.projective_oracle"),
    (chernweil.batch, "segre_to_chern", "schur.segre_to_chern"),
    (chernweil.batch, "divide_exact", "polynomial.divide_exact"),
    (chernweil.schur, "antisymmetrize", "polynomial.antisymmetrize"),
    (chernweil.schur, "divide_exact", "polynomial.divide_exact"),
    (chernweil.cli, "write_report", "batch.report_write"),
    (ExteriorForm, "wedge", "exterior.wedge"),
)


@contextlib.contextmanager
def spans(tr: Tracer):
    """Wrap every SPANS entry in a span of ``tr`` while the block runs."""
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in SPANS]

    def spanned(name, fn):
        def call(*args, **kwargs):
            return tr(name, fn, *args, **kwargs)
        return call

    try:
        for (owner, attr, span), (_, _, fn) in zip(SPANS, originals):
            setattr(owner, attr, spanned(span, fn))
        yield tr
    finally:
        for owner, attr, fn in originals:
            setattr(owner, attr, fn)


# ---------------------------------------------------------------------------
# checks shared by the workloads

def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REPLAY_TOL * max(1.0, abs(a), abs(b))


def _relative_gap(a: ExteriorForm, b: ExteriorForm) -> float:
    return (a - b).max_abs() / max(1.0, a.max_abs(), b.max_abs())


def _dual_value(form_obj: dict, witness: dict) -> float:
    """vol(u ^ i^{q^2} beta ^ conj(beta)) for a Hermitian dual witness."""
    u = form_from_json(form_obj)
    q = u.n - u.p
    coeffs = [complex(re_, im) for re_, im in witness["beta_coeffs"]]
    payload = {"basis": witness["basis"], "beta_coeffs": coeffs}
    beta = gram_witness_form(
        PositivityVerdict(Status.REFUTED, witness["value"], payload), u.n, q)
    dual = beta.wedge(beta.conjugate()) * ipow(q * q)
    return volume_coefficient(u.wedge(dual))


def _certificate_gap(form_obj: dict, cert: dict) -> float:
    """Relative gap between the form and its rebuilt strong certificate."""
    if any(w < 0 for w in cert["weights"]):
        return math.inf
    u = form_from_json(form_obj)
    atoms = [[[complex(re_, im) for re_, im in f] for f in fs]
             for fs in cert["atoms"]]
    payload = {"weights": cert["weights"], "atoms": atoms}
    rebuilt = reconstruct_certificate(
        PositivityVerdict(Status.CERTIFIED, cert["residual"], payload), u.n, u.p)
    return _relative_gap(rebuilt, u)


def verdict_problems(rec: dict, key: str, expect_positive: bool, tr) -> list[str]:
    """Judge one verdict of a report record; replay what it claims."""
    v = rec.get(key)
    if v is None:
        return []
    problems = []
    witness = v.get("witness") or {}
    try:
        if v["status"] == Status.REFUTED.value:
            if expect_positive:
                problems.append(f"{key} refuted an expected-positive input")
            if "vectors" in witness:
                value = tr("batch.replay_witness", replay_witness, rec, key)
            elif "beta_coeffs" in witness:
                value = tr("batch.replay_dual", _dual_value,
                           rec["form"], witness)
            else:
                return problems + [f"{key} refutation carries no witness"]
            if value is None or value >= 0 or not _close(value, v["margin"]):
                problems.append(f"{key} witness does not replay "
                                f"({value!r} vs {v['margin']!r})")
        elif key == "verdict_strong" and v["status"] == Status.CERTIFIED.value:
            gap = tr("batch.replay_certificate", _certificate_gap,
                     rec["form"], witness)
            if not gap <= CERTIFICATE_TOL:
                problems.append(f"{key} certificate does not rebuild (gap {gap})")
    except (ValueError, KeyError, TypeError) as exc:
        problems.append(f"{key} replay raised {exc!r}")
    return problems


def exit_problems(code: int, report: dict | None) -> list[str]:
    if code not in (0, 1):
        return [f"exit code {code}"]
    if report is None:
        return ["no report written"]
    if code != (0 if report["aggregate"]["ok"] else 1):
        return [f"exit code {code} disagrees with aggregate.ok"]
    return []


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """One workload: a seeded sequence of CLI operations.

    Operations run with ``workdir`` as the current directory, so that input
    paths echoed in reports are the same in every run.
    Operations are indexed 0, 1, ...; ``round_size`` operations form a round
    and a timed run stops only between rounds.  ``trace_ops`` operations make
    the traced run, and the report digest covers the same prefix.
    """

    name = ""
    round_size = 1
    min_ops = 100
    trace_ops = 10
    fresh_interpreter = False

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.dir = workdir
        self.out = os.path.join(workdir, f"{self.name}.json")

    def prepare(self):
        """Generate the inputs (part of set-up)."""

    def warm_up(self):
        self.run(0)

    def run(self, i: int, speed=None) -> tuple[int, float, float]:
        return call_cli(self.argv(i), speed)

    def run_in_process(self, i: int) -> tuple[int, float, float]:
        """The operation in this interpreter, timed in wall seconds."""
        return self.run(i)

    def argv(self, i: int) -> list[str]:
        raise NotImplementedError

    def read_report(self) -> dict | None:
        try:
            with open(self.out) as fh:
                return json.load(fh)
        except (OSError, ValueError):
            return None

    def check(self, i: int, code: int, report: dict | None, tr=UNTRACED) -> list[str]:
        raise NotImplementedError


class Battery(Workload):
    """PER_CALL samples per CLI call, the kind cycling through the list.

    Call i lists the generator kinds rotated to start at kind PER_CALL * i,
    so that its samples take the next kinds of the cycle and a call never
    holds only ``indefinite`` samples, just as in a user's mixed-kind run.
    """

    PER_CALL = 2
    command = ""
    n = r = 0
    kinds: tuple[str, ...] = ()
    min_ops = 50
    trace_ops = 6

    def call_kinds(self, i: int) -> tuple[str, ...]:
        k = self.PER_CALL * i % len(self.kinds)
        return self.kinds[k:] + self.kinds[:k]

    def argv(self, i: int) -> list[str]:
        return [self.command, "--dim", str(self.n), "--rank", str(self.r),
                "--samples", str(self.PER_CALL),
                "--seed", str(derive_seed(self.seed, self.name, i)),
                "--generators", ",".join(self.call_kinds(i)), "--workers", "1",
                "--out", self.out]

    def check(self, i, code, report, tr=UNTRACED):
        problems = exit_problems(code, report)
        if report is None:
            return problems
        if len(report["samples"]) != self.PER_CALL:
            return problems + [f"{len(report['samples'])} samples reported"]
        root = derive_seed(self.seed, self.name, i)
        for index, (kind, rec) in enumerate(zip(self.call_kinds(i), report["samples"])):
            positive = kind != "indefinite"
            if rec["generator"] != {"kind": kind, "n": self.n, "r": self.r,
                                    "seed": child_seed(root, index)}:
                problems.append(f"generator {rec['generator']} is not the input")
            problems += [f"sample {index}: {p}" for p in
                         self.record_problems(rec, positive)
                         + verdict_problems(rec, "verdict", positive, tr)]
        return problems

    def record_problems(self, rec: dict, positive: bool) -> list[str]:
        raise NotImplementedError


class MainN4(Battery):
    name = "main-n4"
    command = "verify-main"
    n, r = 4, 3
    kinds = GeneratorSpec.KINDS

    def record_problems(self, rec, positive):
        problems = []
        if not rec["route_gap"] <= EQUALITY_TOL:
            problems.append(f"route gap {rec['route_gap']}")
        expected = SEMIPOSITIVE if positive else NEGATIVE_WITNESS
        if rec["griffiths_status"] != expected:
            problems.append(f"griffiths status {rec['griffiths_status']}")
        return problems


class C2R5N5(Battery):
    name = "c2-r5n5"
    command = "verify-c2"
    n, r = 5, 5
    kinds = POSITIVE_KINDS

    def record_problems(self, rec, positive):
        gap = rec["minor_identity_gap"]
        return [] if gap <= EQUALITY_TOL else [f"minor identity gap {gap}"]


CONE_FORMS = ({"kind": "chern", "k": 2}, {"kind": "segre", "k": 2},
              {"kind": "schur", "sigma": [1, 1]})
CONE_CHECKS = ["positive", "hermitian_positive", "strongly_positive"]
CONE_VERDICTS = ("verdict", "verdict_hermitian", "verdict_strong")


class Doc(NamedTuple):
    kind: str
    form: str
    n: int
    path: str


class ConesN3N4(Workload):
    """check-form on generated rank-3 curvature documents.

    A round is one block of 15 documents: every (kind, form) pair once, three
    of them at n = 4.  Over five consecutive blocks every (kind, form, n)
    combination occurs.  The pool holds ``BLOCKS`` blocks and then repeats.
    """

    name = "cones-n3n4"
    round_size = 15
    min_ops = 105
    trace_ops = 15
    BLOCKS = 10
    RANK = 3

    def docs(self, block: int):
        order = list(range(15))
        random.Random(derive_seed(self.seed, "order", block)).shuffle(order)
        for c in order:
            kind = GeneratorSpec.KINDS[c // 3]
            n = 4 if c % 5 == block % 5 else 3
            yield kind, CONE_FORMS[c % 3], n, derive_seed(self.seed, "doc", block, c)

    def prepare(self):
        self.inputs = []
        for block in range(self.BLOCKS):
            for kind, form, n, seed in self.docs(block):
                point = sample(GeneratorSpec(kind, n, self.RANK, seed))
                doc = {"curvature": curvature_to_json(point), "form": form,
                       "checks": CONE_CHECKS}
                path = os.path.join(self.dir, f"doc{len(self.inputs):03d}.json")
                with open(path, "w") as fh:
                    json.dump(doc, fh)
                self.inputs.append(Doc(kind, form["kind"], n, path))

    def doc(self, i: int) -> Doc:
        return self.inputs[i % len(self.inputs)]

    def warm_up(self):
        # the same kind of document for every seed, so that set-up depends
        # on the seed as little as it can
        self.run(next(i for i, doc in enumerate(self.inputs)
                      if (doc.kind, doc.form, doc.n) == ("line_sum", "chern", 3)))

    def argv(self, i):
        return ["check-form", os.path.basename(self.doc(i).path), "--out", self.out]

    def check(self, i, code, report, tr=UNTRACED):
        problems = exit_problems(code, report)
        if report is None:
            return problems
        rec = report["samples"][0]
        positive = self.doc(i).kind != "indefinite"
        status = {k: rec[k]["status"] if k in rec else None for k in CONE_VERDICTS}
        refuted, certified = Status.REFUTED.value, Status.CERTIFIED.value
        if None in status.values():
            problems.append(f"missing verdicts: {status}")
        if status["verdict_strong"] == certified and refuted in (
                status["verdict_hermitian"], status["verdict"]):
            problems.append(f"cone nesting violated: {status}")
        if status["verdict_hermitian"] == certified and status["verdict"] == refuted:
            problems.append(f"cone nesting violated: {status}")
        for key in CONE_VERDICTS:
            problems += verdict_problems(rec, key, positive, tr)
        return problems


class PushforwardR4(Workload):
    """verify-pushforwards at the CLI defaults, one fresh interpreter per call.

    A CLI user pays the cold ``segre_in_chern`` cache on every call, so each
    operation runs in a new interpreter (see ``run.py --probe pushforward``).
    """

    name = "pushforward-r4"
    min_ops = 3
    trace_ops = 1
    fresh_interpreter = True

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.import_times: list[float] = []

    def warm_up(self):
        pass

    def argv(self, i):
        return ["verify-pushforwards", "--out", self.out]

    def run(self, i, speed=None):
        with speed.paused() if speed else nullcontext():
            probe = run_probe("pushforward", self.name, self.seed, "--out", self.out)
        self.import_times.append(probe["import_s"])
        return probe["exit"], probe["op_s"], probe["op_wall_s"]

    def run_in_process(self, i):
        """The same CLI call in this interpreter, with a cold cache."""
        segre_in_chern.cache_clear()
        return call_cli(self.argv(0))

    def check(self, i, code, report, tr=UNTRACED):
        problems = exit_problems(code, report)
        if report is not None:
            problems += [f"check {c['name']} failed" for c in report["samples"]
                         if not c["passed"]]
        return problems


WORKLOADS = {cls.name: cls for cls in (MainN4, C2R5N5, ConesN3N4, PushforwardR4)}
