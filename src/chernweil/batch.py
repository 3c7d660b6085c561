"""Verification batteries, JSON/CSV reports and the curvature wire format.

Reports are deterministic for a fixed config and seed: per-sample seeds are
spawned from the root seed by index, worker-pool scheduling cannot reorder
records, and the only non-reproducible field is the timestamp.  Exit
semantics: a battery is "ok" when it saw no unexpected refutations (for
negative batteries: when the expected refutation did occur and replayed).
"""

from __future__ import annotations

import cmath
import csv
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from .curvature import (SEMIPOSITIVE, CurvaturePoint, SearchBudget,
                        chern_form, chern_form_oracle, from_coefficients,
                        generalized_schur_form, griffiths_certificate,
                        griffiths_minimum, schur_form, segre_form,
                        total_chern_forms, validate)
from .exterior import ExteriorForm, evaluate_pairing, wedge_power
from .generators import GeneratorSpec, sample
from .positivity import (Status, check_hermitian_positive, check_positive,
                         check_strongly_positive)
from .schur import (FlagType, complete_flag_oracle, dp_pushforward,
                    enumerate_partitions, expand_in_roots, jacobi_trudi_check,
                    projective_oracle, segre_to_chern, strip_trailing_zeros)
from .polynomial import SymPoly, _compositions, divide_exact

# the curvature wire format and the battery reports are versioned apart, so
# a change in what a report field means does not reject curvature documents
SCHEMA_VERSION = 1
REPORT_SCHEMA_VERSION = 2
WORKERS_ENV = "CHERNWEIL_WORKERS"
# largest coefficient tensor a curvature document may ask for (160 MB of
# complex entries); larger ones are rejected before anything is allocated
MAX_TENSOR_ENTRIES = 10 ** 7
# largest determinant a form spec may ask for (sigma without its trailing
# zeros, or the k of chern_oracle): both walk all k! permutations
MAX_DETERMINANT_SIZE = 8

POSITIVE_KINDS = ("dual_nakano", "line_sum", "psd_tensor", "convex_mix")


@dataclass(frozen=True)
class RunConfig:
    """Configuration of one battery run; everything that affects the result."""

    command: str
    n: int = 3
    r: int = 3
    samples: int = 100
    seed: int = 0
    starts: int = 64
    iters: int = 200
    tol: float = 1e-9
    equality_tol: float = 1e-10
    generators: tuple[str, ...] = POSITIVE_KINDS
    max_rank: int = 4
    max_excess: int = 3
    jt_weight: int = 6
    input_path: str | None = None
    output_path: str | None = None
    csv_path: str | None = None
    workers: int = 0  # 0 = read from environment, else 1

    def __post_init__(self):
        # a battery over no samples, or a search with no starts or steps,
        # would pass vacuously
        for name in ("samples", "starts", "iters"):
            if getattr(self, name) <= 0:
                raise ValueError(
                    f"{name} must be positive, got {getattr(self, name)}")

    def budget(self, seed: int) -> SearchBudget:
        return SearchBudget(self.starts, self.iters, self.tol, seed)

    def effective_workers(self) -> int:
        if self.workers > 0:
            return self.workers
        env = os.environ.get(WORKERS_ENV, "")
        try:
            return max(1, int(env))
        except ValueError:
            return 1


def child_seed(root: int, index: int) -> int:
    ss = np.random.SeedSequence(entropy=root, spawn_key=(index,))
    return int(ss.generate_state(1, dtype=np.uint64)[0])


# ---------------------------------------------------------------------------
# form and curvature serialization

def form_to_json(u: ExteriorForm) -> dict:
    coeffs = [{"I": list(I), "J": list(J), "re": c.real, "im": c.imag}
              for (I, J), c in u.items()]
    return {"n": u.n, "p": u.p, "q": u.q, "coeffs": coeffs}


def form_from_json(obj: dict) -> ExteriorForm:
    # the mapping constructor rejects bad multi-indices and non-finite values
    coeffs = {(tuple(e["I"]), tuple(e["J"])): complex(e["re"], e["im"])
              for e in obj["coeffs"]}
    return ExteriorForm(obj["n"], obj["p"], obj["q"], coeffs)


def curvature_to_json(c: CurvaturePoint) -> dict:
    theta = [[{"entries": []} for _ in range(c.r)] for _ in range(c.r)]
    for a, b, j, k in zip(*np.nonzero(c.t)):
        v = complex(c.t[a, b, j, k])
        theta[a][b]["entries"].append(
            {"j": int(j) + 1, "k": int(k) + 1, "re": v.real, "im": v.imag})
    return {"schema_version": SCHEMA_VERSION, "n": c.n, "r": c.r, "theta": theta}


def curvature_from_json(obj: dict) -> CurvaturePoint:
    """Parse and validate the curvature wire format; errors name the entry.

    Entries with the same (j, k) in one cell add up.
    """
    if not isinstance(obj, dict):
        raise ValueError("curvature document must be a JSON object")
    version = obj.get("schema_version")
    if version != SCHEMA_VERSION:
        raise ValueError(f"unsupported schema_version {version!r}")
    try:
        n, r = int(obj["n"]), int(obj["r"])
    except (KeyError, TypeError, OverflowError) as exc:
        raise ValueError(f"missing or malformed n/r field: {exc}") from exc
    theta = obj.get("theta")
    if not isinstance(theta, list) or len(theta) != r or \
            any(not isinstance(row, list) or len(row) != r for row in theta):
        raise ValueError(f"theta must be an {r} x {r} nested list")
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if r * r * n * n > MAX_TENSOR_ENTRIES:
        raise ValueError(f"n = {n}, r = {r} need r*r*n*n = {r * r * n * n} "
                         f"coefficients, above the limit {MAX_TENSOR_ENTRIES}")
    t = np.zeros((r, r, n, n), dtype=complex)
    for a in range(r):
        for b in range(r):
            cell = theta[a][b]
            entries = cell.get("entries") if isinstance(cell, dict) else None
            if not isinstance(entries, list):
                raise ValueError(f"theta[{a}][{b}] lacks an 'entries' list")
            for e_idx, e in enumerate(entries):
                try:
                    j, k = int(e["j"]), int(e["k"])
                    v = complex(float(e["re"]), float(e["im"]))
                except (KeyError, TypeError, ValueError, OverflowError) as exc:
                    raise ValueError(
                        f"theta[{a}][{b}] entry {e_idx} malformed: {exc}") from exc
                if not cmath.isfinite(v):
                    raise ValueError(
                        f"theta[{a}][{b}] entry {e_idx} is not finite: {v}")
                if not (1 <= j <= n and 1 <= k <= n):
                    raise ValueError(
                        f"theta[{a}][{b}] entry {e_idx} has indices ({j},{k}) "
                        f"outside 1..{n}")
                t[a, b, j - 1, k - 1] += v
    point = from_coefficients(t)
    bad = validate(point)
    if bad:
        raise ValueError("curvature is not Hermitian-symmetric: " + "; ".join(bad))
    return point


# ---------------------------------------------------------------------------
# per-sample workers (module level so they can cross process boundaries)

def _relative_gap(a: ExteriorForm, b: ExteriorForm) -> float:
    return (a - b).max_abs() / max(1.0, a.max_abs(), b.max_abs())


def _verdict_record(v) -> dict:
    rec = {"status": v.status.value, "margin": v.margin, "heuristic": v.heuristic}
    if v.witness is not None:
        rec["witness"] = _jsonable(v.witness)
    return rec


def _jsonable(x):
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    if isinstance(x, complex):
        return [x.real, x.imag]
    if isinstance(x, (np.floating, np.integer)):
        return x.item()
    if isinstance(x, np.ndarray):
        return [_jsonable(v) for v in x.tolist()]
    return x


def _griffiths_fields(point: CurvaturePoint, budget: SearchBudget) -> dict:
    """Griffiths semipositivity of a sample: exact certificate, else search.

    A certified record's griffiths_min is the certificate's lambda_min, a
    lower bound on the energy over unit (v, tau); a searched record's is the
    smallest energy the search found.
    """
    cert = griffiths_certificate(point, budget.tol)
    if cert is not None:
        kind, lam = cert
        return {"griffiths_certificate": kind, "griffiths_min": lam,
                "griffiths_status": SEMIPOSITIVE}
    grif = griffiths_minimum(point, budget)
    return {"griffiths_certificate": "search", "griffiths_min": grif.min_value,
            "griffiths_status": grif.status}


def _main_theorem_sample(args) -> dict:
    cfg, index = args
    kind = cfg.generators[index % len(cfg.generators)]
    seed = child_seed(cfg.seed, index)
    spec = GeneratorSpec(kind, cfg.n, 3, seed)
    point = sample(spec)
    budget = cfg.budget(seed)
    griffiths = _griffiths_fields(point, budget)
    chern = total_chern_forms(point)
    via_chern = schur_form(point, (2, 1, 0), chern)
    segre = [segre_form(point, l, chern) for l in range(min(point.n, 4) + 1)]
    via_segre = generalized_schur_form(point, (-2, 1, 4), segre)
    gap = _relative_gap(via_chern, via_segre)
    verdict = check_positive(via_chern, budget)
    rec = {
        "index": index,
        "generator": {"kind": kind, "n": cfg.n, "r": 3, "seed": seed},
        **griffiths,
        "route_gap": gap,
        "verdict": _verdict_record(verdict),
        "expected_positive": kind != "indefinite",
    }
    if verdict.status is Status.REFUTED:
        rec["form"] = form_to_json(via_chern)
    return rec


def _c2_sample(args) -> dict:
    cfg, index = args
    kind = cfg.generators[index % len(cfg.generators)]
    seed = child_seed(cfg.seed, index)
    spec = GeneratorSpec(kind, cfg.n, cfg.r, seed)
    point = sample(spec)
    budget = cfg.budget(seed)
    c2 = chern_form(point, 2)
    # the oracle's principal-minor sum at k = 2 is the minor identity
    # c_2 = -(1/4pi^2) sum_{a<b} (Theta_aa ^ Theta_bb - Theta_ab ^ Theta_ba)
    gap = _relative_gap(c2, chern_form_oracle(point, 2))
    verdict = check_positive(c2, budget)
    rec = {
        "index": index,
        "generator": {"kind": kind, "n": cfg.n, "r": cfg.r, "seed": seed},
        "minor_identity_gap": gap,
        "verdict": _verdict_record(verdict),
        "expected_positive": kind != "indefinite",
    }
    if cfg.n == 2:
        # top-degree case, where the Hermitian test decides the same cone
        rec["verdict_hermitian"] = _verdict_record(
            check_hermitian_positive(c2, tol=cfg.tol))
    if verdict.status is Status.REFUTED:
        rec["form"] = form_to_json(c2)
    return rec


def _inequality_sample(args) -> dict:
    cfg, index = args
    kind = cfg.generators[index % len(cfg.generators)]
    seed = child_seed(cfg.seed, index)
    spec = GeneratorSpec(kind, cfg.n, 3, seed)
    point = sample(spec)
    budget = cfg.budget(seed)
    chern = total_chern_forms(point)
    c1, c2 = chern[1], chern[2]
    c3 = chern[3] if len(chern) > 3 else ExteriorForm.zero(point.n, 3, 3)
    s2 = segre_form(point, 2, chern)
    top = wedge_power(c1, 3) - c1.wedge(c2)
    mid = c1.wedge(c2) - c3
    cross = _relative_gap(top, c1.wedge(s2))
    rec = {
        "index": index,
        "generator": {"kind": kind, "n": cfg.n, "r": 3, "seed": seed},
        "s2_factor_gap": cross,
        "verdict_top": _verdict_record(check_positive(top, budget)),
        "verdict_mid": _verdict_record(check_positive(mid, budget)),
        "verdict_s2": _verdict_record(check_positive(s2, budget)),
        "expected_positive": kind != "indefinite",
    }
    for key, form in (("verdict_top", top), ("verdict_mid", mid), ("verdict_s2", s2)):
        if rec[key]["status"] == Status.REFUTED.value:
            rec.setdefault("forms", {})[key] = form_to_json(form)
    return rec


# ---------------------------------------------------------------------------
# batteries

def _run_pool(cfg: RunConfig, worker) -> list[dict]:
    tasks = [(cfg, i) for i in range(cfg.samples)]
    workers = cfg.effective_workers()
    if workers <= 1:
        return [worker(t) for t in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, tasks, chunksize=8))


def _battery_report(cfg: RunConfig, records: list[dict],
                    verdict_keys: tuple[str, ...], extra: dict | None = None) -> dict:
    refuted = []
    for rec in records:
        for key in verdict_keys:
            if key in rec and rec[key]["status"] == Status.REFUTED.value:
                refuted.append((rec["index"], key))
    expect_negative = all(not r.get("expected_positive", True) for r in records) \
        and bool(records)
    replays_ok = _replay_all(records, verdict_keys)
    if expect_negative:
        ok = bool(refuted) and replays_ok
    else:
        ok = not [i for i, _ in refuted
                  if records[i].get("expected_positive", True)] and replays_ok
    aggregate = {
        "samples": len(records),
        "refuted": len(refuted),
        "refuted_indices": [i for i, _ in refuted],
        "witness_replays_ok": replays_ok,
        "expect_negative": expect_negative,
        "ok": ok,
    }
    if extra:
        aggregate.update(extra)
    return _finalize(cfg, records, aggregate)


def _finalize(cfg: RunConfig, records, aggregate) -> dict:
    echo = _jsonable(asdict(cfg))
    # delivery destinations and parallelism do not affect results; keep the
    # echo comparable across reruns
    echo.pop("output_path", None)
    echo.pop("csv_path", None)
    echo.pop("workers", None)
    return {
        "schema_version": REPORT_SCHEMA_VERSION,
        "package_version": __version__,
        "command": cfg.command,
        "config": echo,
        "samples": records,
        "aggregate": aggregate,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }


def _replay_all(records, verdict_keys) -> bool:
    for rec in records:
        for key in verdict_keys:
            v = rec.get(key)
            if not v or v["status"] != Status.REFUTED.value:
                continue
            value = replay_witness(rec, key)
            if value is None or value >= 0:
                return False
    return True


def replay_witness(record: dict, verdict_key: str = "verdict") -> float | None:
    """Re-evaluate a refutation from the report data alone."""
    v = record.get(verdict_key)
    if not v or "witness" not in v:
        return None
    witness = v["witness"]
    if "vectors" in witness:
        form_obj = record.get("form")
        if form_obj is None and "forms" in record:
            form_obj = record["forms"].get(verdict_key)
        if form_obj is None:
            return None
        u = form_from_json(form_obj)
        vectors = [[complex(x[0], x[1]) for x in w] for w in witness["vectors"]]
        return evaluate_pairing(u, vectors)
    return None


def verify_main_theorem(cfg: RunConfig) -> dict:
    """Positivity of the rank-3 Schur form S_(2,1,0) over generated samples."""
    if cfg.r != 3:
        raise ValueError("the main battery is a rank-3 statement")
    if cfg.n < 3:
        raise ValueError("need base dimension >= 3 for a (3,3)-form")
    records = _run_pool(cfg, _main_theorem_sample)
    gap = max((r["route_gap"] for r in records), default=0.0)
    report = _battery_report(cfg, records, ("verdict",),
                             extra={"max_route_gap": gap,
                                    "routes_agree": gap <= cfg.equality_tol})
    report["aggregate"]["ok"] = report["aggregate"]["ok"] and \
        report["aggregate"]["routes_agree"]
    return report


def verify_c2(cfg: RunConfig) -> dict:
    """Positivity of c_2 plus the two-index minor identity."""
    if cfg.r < 2:
        raise ValueError("c_2 vanishes below rank 2")
    if cfg.n < 2:
        raise ValueError("need base dimension >= 2 for a (2,2)-form")
    records = _run_pool(cfg, _c2_sample)
    gap = max((r["minor_identity_gap"] for r in records), default=0.0)
    hermitian_bad = [r["index"] for r in records
                     if r.get("expected_positive", True)
                     and r.get("verdict_hermitian", {}).get("status")
                     == Status.REFUTED.value]
    report = _battery_report(cfg, records, ("verdict",),
                             extra={"max_minor_identity_gap": gap,
                                    "minor_identity_ok": gap <= cfg.equality_tol,
                                    "hermitian_refuted_indices": hermitian_bad})
    report["aggregate"]["ok"] = report["aggregate"]["ok"] and \
        report["aggregate"]["minor_identity_ok"] and not hermitian_bad
    return report


def verify_inequalities(cfg: RunConfig) -> dict:
    """The chain c1^3 >= c1 c2 >= c3 and positivity of s2, rank 3."""
    if cfg.r != 3:
        raise ValueError("the inequality chain is a rank-3 statement")
    if cfg.n < 3:
        raise ValueError("need base dimension >= 3 for a (3,3)-form")
    records = _run_pool(cfg, _inequality_sample)
    gap = max((r["s2_factor_gap"] for r in records), default=0.0)
    report = _battery_report(cfg, records,
                             ("verdict_top", "verdict_mid", "verdict_s2"),
                             extra={"max_s2_factor_gap": gap,
                                    "s2_factor_ok": gap <= cfg.equality_tol})
    report["aggregate"]["ok"] = report["aggregate"]["ok"] and \
        report["aggregate"]["s2_factor_ok"]
    return report


def verify_pushforwards(cfg: RunConfig) -> dict:
    """Exact symbolic checks: oracle equivalence, proof identities, duality."""
    checks = []

    def add(name, passed, detail=""):
        checks.append({"name": name, "passed": bool(passed), "detail": detail})

    # determinantal rule vs divided differences, complete flags
    mismatch = 0
    count = 0
    for r in range(2, cfg.max_rank + 1):
        flag = FlagType.complete(r)
        d = flag.relative_dimension
        for k in range(cfg.max_excess + 1):
            for lam in _compositions(d + k, r):
                p = SymPoly.monomial(lam)
                left = expand_in_roots(dp_pushforward(p, flag), r, "s")
                right = complete_flag_oracle(p, r)
                count += 1
                if left != right:
                    mismatch += 1
    add("oracle_equivalence", mismatch == 0,
        f"{count} monomials, ranks 2..{cfg.max_rank}, excess <= {cfg.max_excess}")

    # proof identities
    f3 = FlagType.complete(3)
    lhs = dp_pushforward(SymPoly.monomial((4, 2, 0)), f3)
    ident1 = segre_to_chern(lhs, 3) == schur_in_chern_target()
    add("pushforward_rank3", ident1, "xi1^4 xi2^2 -> c1 c2 - c3")
    f2 = FlagType.complete(2)
    lhs2 = segre_to_chern(dp_pushforward(SymPoly.monomial((4, 2)), f2), 2)
    ident2 = lhs2 == _c1c22_rank2()
    add("pushforward_rank2", ident2, "xi1^4 xi2^2 -> c1 c2^2 at rank 2")
    lhs3 = segre_to_chern(dp_pushforward(SymPoly.monomial((3, 2, 1)), f3), 3)
    add("pushforward_c3", lhs3 == SymPoly.variable(2, 3),
        "xi1^3 xi2^2 xi3 -> c3")

    # Jacobi-Trudi sweep
    jt_bad = []
    for k in range(1, cfg.jt_weight + 1):
        for r in range(1, cfg.max_rank + 1):
            for sigma in enumerate_partitions(k, r):
                if not jacobi_trudi_check(sigma, r):
                    jt_bad.append((sigma, r))
    add("jacobi_trudi", not jt_bad, f"weights 1..{cfg.jt_weight}, ranks 1..{cfg.max_rank}")

    # projective-bundle push-forwards
    proj_ok = True
    for r in range(2, cfg.max_rank + 1):
        flag = FlagType((0, 1, r))
        for k in range(cfg.max_excess + 1):
            lam = [0] * r
            lam[r - 1] = r - 1 + k
            got = dp_pushforward(SymPoly.monomial(tuple(lam)), flag)
            if got != projective_oracle(k, r):
                proj_ok = False
    add("projective_bundle", proj_ok, f"ranks 2..{cfg.max_rank}")

    # two-step tower at rank 3: push the front rank-2 block down first, then
    # the line bundle step; must match the one-shot complete-flag rule
    tower_ok = True
    for deg in range(cfg.jt_weight + 1):
        for lam in _compositions(deg, 3):
            direct = dp_pushforward(SymPoly.monomial(lam), FlagType.complete(3))
            mid = _front_block_pushforward(SymPoly.monomial(lam))
            composed = dp_pushforward(mid, FlagType((0, 1, 3)))
            if composed != direct:
                tower_ok = False
    add("tower_consistency", tower_ok, f"rank 3, degrees 0..{cfg.jt_weight}")

    records = checks
    ok = all(c["passed"] for c in checks)
    return _finalize(cfg, records, {"checks": len(checks), "ok": ok})


def schur_in_chern_target() -> SymPoly:
    c1, c2, c3 = (SymPoly.variable(i, 3) for i in range(3))
    return c1 * c2 - c3


def _c1c22_rank2() -> SymPoly:
    c1, c2 = (SymPoly.variable(i, 2) for i in range(2))
    return c1 * c2 * c2


def _front_block_pushforward(p: SymPoly) -> SymPoly:
    """Rank-2 complete-flag push-forward acting on the first two root slots.

    Divided difference: antisymmetrize over the pair, divide by their root
    difference, apply the rank-2 orientation sign.  The result is symmetric
    in the pair, hence admissible for the remaining flag of type (0, 1, r).
    """
    swap = list(range(p.nvars))
    swap[0], swap[1] = 1, 0
    anti = p - p.permute_variables(swap)
    den = SymPoly.variable(0, p.nvars) - SymPoly.variable(1, p.nvars)
    return -1 * divide_exact(anti, den)


def _form_field(spec: dict, name: str, parse, default=None):
    """``parse(spec[name])``; ValueError naming the field when it is missing
    (and has no default) or malformed."""
    if name not in spec and default is not None:
        return default
    try:
        return parse(spec[name])
    except KeyError:
        raise ValueError(f"form spec lacks the field {name!r}") from None
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"form field {name!r} is malformed: {exc}") from exc


def _int_list(value) -> tuple[int, ...]:
    if not isinstance(value, list):
        raise TypeError(f"expected a list of integers, got {value!r}")
    return tuple(int(x) for x in value)


def _check_determinant_size(name: str, size: int) -> None:
    if size > MAX_DETERMINANT_SIZE:
        raise ValueError(f"form field {name!r} asks for a {size} x {size} "
                         f"determinant, above the limit {MAX_DETERMINANT_SIZE}")


def _sigma_field(spec: dict) -> tuple[int, ...]:
    sigma = _form_field(spec, "sigma", _int_list)
    _check_determinant_size("sigma", len(strip_trailing_zeros(sigma)))
    return sigma


CHECKS = ("positive", "hermitian_positive", "strongly_positive")


def check_form_file(cfg: RunConfig) -> dict:
    """Read a curvature file, build the requested form, run requested checks."""
    if not cfg.input_path:
        raise ValueError("check-form needs an input path")
    with open(cfg.input_path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("check-form document must be a JSON object")
    point = curvature_from_json(doc.get("curvature", doc))
    spec = doc.get("form", {"kind": "chern", "k": min(point.r, point.n)})
    if not isinstance(spec, dict):
        raise ValueError("form spec must be a JSON object")
    kind = spec.get("kind", "chern")
    if kind == "chern":
        form = chern_form(point, _form_field(spec, "k", int, 1))
    elif kind == "chern_oracle":
        k = _form_field(spec, "k", int, 1)
        _check_determinant_size("k", k)
        form = chern_form_oracle(point, k)
    elif kind == "segre":
        form = segre_form(point, _form_field(spec, "k", int, 1))
    elif kind == "schur":
        form = schur_form(point, _sigma_field(spec))
    elif kind == "generalized_schur":
        form = generalized_schur_form(point, _sigma_field(spec))
    else:
        raise ValueError(f"unknown form kind {kind!r}")
    record = {"form_kind": kind, "form": form_to_json(form)}
    budget = cfg.budget(cfg.seed)
    checks = doc.get("checks", ["positive"])
    if not isinstance(checks, list) or any(c not in CHECKS for c in checks):
        raise ValueError(f"checks must be a list drawn from {', '.join(CHECKS)}, "
                         f"got {checks!r}")
    ok = True
    if form.p == form.q:
        if "positive" in checks:
            v = check_positive(form, budget)
            record["verdict"] = _verdict_record(v)
            ok = ok and v.status is not Status.REFUTED
        if "hermitian_positive" in checks:
            v = check_hermitian_positive(form, tol=cfg.tol)
            record["verdict_hermitian"] = _verdict_record(v)
            ok = ok and v.status is not Status.REFUTED
        if "strongly_positive" in checks:
            v = check_strongly_positive(form, budget)
            record["verdict_strong"] = _verdict_record(v)
    return _finalize(cfg, [record], {"ok": ok})


# ---------------------------------------------------------------------------
# output

def report_json(report: dict) -> str:
    """The report as strict JSON text; ValueError on NaN or infinity."""
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False) + "\n"


def write_report(report: dict, path: str) -> None:
    text = report_json(report)
    with open(path, "w") as fh:
        fh.write(text)


def write_csv(report: dict, path: str) -> None:
    rows = []
    for rec in report["samples"]:
        if not isinstance(rec, dict) or "index" not in rec:
            continue
        base = {"index": rec["index"]}
        gen = rec.get("generator", {})
        base["kind"] = gen.get("kind", "")
        base["n"] = gen.get("n", "")
        base["r"] = gen.get("r", "")
        for key in ("verdict", "verdict_top", "verdict_mid", "verdict_s2"):
            if key in rec:
                base[f"{key}_status"] = rec[key]["status"]
                base[f"{key}_margin"] = rec[key]["margin"]
        rows.append(base)
    if not rows:
        return
    cols = sorted({k for row in rows for k in row},
                  key=lambda k: (k != "index", k))
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=cols)
        writer.writeheader()
        writer.writerows(rows)
