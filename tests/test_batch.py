"""Battery plumbing: serialization, reports, determinism, and the CLI."""

import csv
import importlib.util
import json
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from chernweil.batch import (MAX_DETERMINANT_SIZE, MAX_TENSOR_ENTRIES,
                             REPORT_SCHEMA_VERSION,
                             SCHEMA_VERSION, RunConfig, check_form_file, child_seed,
                             curvature_from_json, curvature_to_json,
                             form_from_json, form_to_json, replay_witness,
                             report_json, verify_c2, verify_inequalities,
                             verify_main_theorem, verify_pushforwards,
                             write_csv, write_report)
from chernweil.cli import main
from chernweil.curvature import SEMIPOSITIVE, chern_form, griffiths_minimum
from chernweil.exterior import ExteriorForm, multi_indices
from chernweil.generators import GeneratorSpec, dual_nakano_sample, sample

TINY = dict(samples=4, starts=8, iters=40, workers=1)


def strip_time(report):
    report = dict(report)
    report.pop("timestamp")
    return json.dumps(report, sort_keys=True)


# ---------------------------------------------------------------------------
# seeds and serialization

def test_child_seeds_are_stable_and_distinct():
    a = child_seed(7, 0)
    assert a == child_seed(7, 0)
    seeds = {child_seed(7, i) for i in range(100)}
    assert len(seeds) == 100
    assert child_seed(8, 0) != a


def test_form_json_round_trip():
    u = ExteriorForm(3, 1, 2, {((1,), (1, 2)): 1.5 - 2.5j, ((3,), (2, 3)): 1j})
    back = form_from_json(form_to_json(u))
    assert back.n == u.n and back.bidegree == u.bidegree
    assert (back - u).max_abs() == 0.0


def test_curvature_json_round_trip():
    point = dual_nakano_sample(3, 2, seed=42)
    back = curvature_from_json(curvature_to_json(point))
    assert np.array_equal(back.t, point.t)


def test_curvature_json_rejects_malformed_documents():
    good = curvature_to_json(dual_nakano_sample(2, 2, seed=1))

    with pytest.raises(ValueError, match="JSON object"):
        curvature_from_json([1, 2])
    bad = dict(good)
    bad["schema_version"] = 99
    with pytest.raises(ValueError, match="schema_version"):
        curvature_from_json(bad)
    bad = dict(good)
    del bad["n"]
    with pytest.raises(ValueError, match="n/r"):
        curvature_from_json(bad)
    bad = dict(good)
    bad["theta"] = good["theta"][:1]
    with pytest.raises(ValueError, match="nested list"):
        curvature_from_json(bad)
    bad = json.loads(json.dumps(good))
    del bad["theta"][0][0]["entries"]
    with pytest.raises(ValueError, match=r"theta\[0\]\[0\]"):
        curvature_from_json(bad)
    bad = json.loads(json.dumps(good))
    bad["theta"][1][0]["entries"][0]["j"] = 5
    with pytest.raises(ValueError, match=r"theta\[1\]\[0\].*outside"):
        curvature_from_json(bad)
    bad = json.loads(json.dumps(good))
    del bad["theta"][0][1]["entries"][0]["re"]
    with pytest.raises(ValueError, match="malformed"):
        curvature_from_json(bad)


def test_curvature_json_rejects_nonhermitian():
    doc = {"schema_version": 1, "n": 1, "r": 2,
           "theta": [[{"entries": []},
                      {"entries": [{"j": 1, "k": 1, "re": 1.0, "im": 0.0}]}],
                     [{"entries": []}, {"entries": []}]]}
    with pytest.raises(ValueError, match=r"\(1,2\)"):
        curvature_from_json(doc)


def test_curvature_json_sums_repeated_entries():
    doc = {"schema_version": 1, "n": 2, "r": 1,
           "theta": [[{"entries": [{"j": 1, "k": 2, "re": 1.0, "im": 0.5},
                                   {"j": 2, "k": 1, "re": 1.0, "im": -0.5},
                                   {"j": 1, "k": 2, "re": 2.0, "im": 1.0},
                                   {"j": 2, "k": 1, "re": 2.0, "im": -1.0}]}]]}
    t = curvature_from_json(doc).t
    assert t[0, 0, 0, 1] == 3.0 + 1.5j and t[0, 0, 1, 0] == 3.0 - 1.5j
    assert t[0, 0, 0, 0] == t[0, 0, 1, 1] == 0.0


def test_benchmark_spans_name_live_attributes():
    # the traced benchmark run wraps each SPANS entry by name; an entry that
    # no longer exists should fail here, not only in a traced benchmark run
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(workloads)
    assert workloads.SPANS
    missing = [(getattr(owner, "__name__", owner), attr)
               for owner, attr, _ in workloads.SPANS if attr not in owner.__dict__]
    assert missing == []


def test_traced_benchmark_run_measures_every_metric():
    # a span that stops firing leaves a listed metric unmeasured, and the
    # traced run then fails; it writes only under perfbench/_work/
    root = Path(__file__).resolve().parents[1]
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "main-n4", "--seed", "3",
         "--seconds", "20", "--trace", "1"],
        cwd=root, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1])["correct"] is True


# ---------------------------------------------------------------------------
# check-form on files

def test_check_form_file_reproduces_chern_form(tmp_path):
    point = dual_nakano_sample(2, 2, seed=3)
    doc = {"curvature": curvature_to_json(point),
           "form": {"kind": "chern", "k": 2},
           "checks": ["positive", "hermitian_positive", "strongly_positive"]}
    path = tmp_path / "point.json"
    path.write_text(json.dumps(doc))
    cfg = RunConfig("check-form", input_path=str(path), starts=8, iters=40)
    report = check_form_file(cfg)
    rec = report["samples"][0]
    want = chern_form(point, 2)
    got = form_from_json(rec["form"])
    assert (got - want).max_abs() < 1e-15
    assert report["aggregate"]["ok"]
    assert rec["verdict"]["status"] == "certified"
    assert rec["verdict_hermitian"]["status"] == "certified"
    assert rec["verdict_strong"]["status"] == "certified"


def test_check_form_file_defaults(tmp_path):
    # a bare curvature document defaults to the top Chern form and the
    # weak-positivity check
    point = dual_nakano_sample(2, 2, seed=5)
    path = tmp_path / "bare.json"
    path.write_text(json.dumps(curvature_to_json(point)))
    cfg = RunConfig("check-form", input_path=str(path), starts=8, iters=40)
    report = check_form_file(cfg)
    rec = report["samples"][0]
    assert rec["form_kind"] == "chern"
    assert "verdict" in rec and "verdict_hermitian" not in rec


def test_check_form_file_rejects_unknown_kind(tmp_path):
    doc = {"curvature": curvature_to_json(dual_nakano_sample(2, 2, seed=1)),
           "form": {"kind": "pontryagin"}}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match="unknown form kind"):
        check_form_file(RunConfig("check-form", input_path=str(path)))
    with pytest.raises(ValueError, match="input path"):
        check_form_file(RunConfig("check-form"))


# ---------------------------------------------------------------------------
# batteries

def test_main_battery_small_run_passes():
    cfg = RunConfig("verify-main", n=3, r=3, seed=1, **TINY)
    report = verify_main_theorem(cfg)
    agg = report["aggregate"]
    assert agg["ok"] and agg["refuted"] == 0
    assert agg["routes_agree"]
    assert agg["max_route_gap"] <= cfg.equality_tol
    assert len(report["samples"]) == cfg.samples


def test_reports_and_curvature_documents_are_versioned_apart():
    # reports moved to version 2 when griffiths_min of certified records
    # became a lower bound; curvature documents stay at version 1
    assert (SCHEMA_VERSION, REPORT_SCHEMA_VERSION) == (1, 2)
    point = dual_nakano_sample(2, 2, seed=5)
    doc = json.loads(json.dumps(curvature_to_json(point)))
    assert doc["schema_version"] == 1
    assert np.array_equal(curvature_from_json(doc).t, point.t)
    report = verify_main_theorem(RunConfig("verify-main", n=3, r=3, seed=1,
                                           **TINY))
    assert report["schema_version"] == 2
    assert verify_pushforwards(RunConfig(
        "verify-pushforwards", max_rank=2, max_excess=0,
        jt_weight=1))["schema_version"] == 2


@pytest.mark.parametrize("n", [3, 4, 5])
def test_griffiths_certificate_never_changes_the_status(n):
    # the record's status must be the one the search alone would give, and
    # a certified lower bound can never lie above the search's minimum
    cfg = RunConfig("verify-main", n=n, r=3, samples=20, seed=60 + n,
                    generators=GeneratorSpec.KINDS, workers=1)
    for rec in verify_main_theorem(cfg)["samples"]:
        gen = rec["generator"]
        point = sample(GeneratorSpec(gen["kind"], gen["n"], gen["r"], gen["seed"]))
        search = griffiths_minimum(point, cfg.budget(gen["seed"]))
        assert rec["griffiths_status"] == search.status, gen
        if gen["kind"] == "indefinite":
            assert rec["griffiths_certificate"] == "search"
            assert rec["griffiths_min"] == search.min_value
        else:
            assert rec["griffiths_certificate"] == "dual_nakano", gen
            assert rec["griffiths_status"] == SEMIPOSITIVE
            scale = max(1.0, point.max_abs())
            assert rec["griffiths_min"] >= -cfg.tol
            assert rec["griffiths_min"] <= search.min_value + 1e-12 * scale


def test_main_battery_preconditions():
    with pytest.raises(ValueError):
        verify_main_theorem(RunConfig("verify-main", r=2))
    with pytest.raises(ValueError):
        verify_main_theorem(RunConfig("verify-main", n=2))


def test_c2_battery_small_run_passes():
    cfg = RunConfig("verify-c2", n=2, r=2, seed=1, **TINY)
    report = verify_c2(cfg)
    agg = report["aggregate"]
    assert agg["ok"] and agg["minor_identity_ok"]
    assert agg["hermitian_refuted_indices"] == []
    # n = 2 records carry the Hermitian cross-check
    assert all("verdict_hermitian" in r for r in report["samples"])
    with pytest.raises(ValueError):
        verify_c2(RunConfig("verify-c2", r=1))


def test_inequality_battery_small_run_passes():
    cfg = RunConfig("verify-ineq", n=3, r=3, seed=1, **TINY)
    report = verify_inequalities(cfg)
    agg = report["aggregate"]
    assert agg["ok"] and agg["s2_factor_ok"]
    for rec in report["samples"]:
        for key in ("verdict_top", "verdict_mid", "verdict_s2"):
            assert rec[key]["status"] != "refuted"
    with pytest.raises(ValueError):
        verify_inequalities(RunConfig("verify-ineq", r=2))


def test_negative_battery_refutes_and_replays():
    cfg = RunConfig("verify-c2", n=2, r=2, samples=8, seed=0, starts=16,
                    iters=60, generators=("indefinite",), workers=1)
    report = verify_c2(cfg)
    agg = report["aggregate"]
    assert agg["expect_negative"]
    assert agg["refuted"] >= 1
    assert agg["witness_replays_ok"]
    assert agg["ok"]
    for idx in agg["refuted_indices"]:
        rec = report["samples"][idx]
        value = replay_witness(rec)
        assert value is not None and value < -cfg.tol
        assert abs(value - rec["verdict"]["margin"]) < 1e-12


def test_replay_without_witness_returns_none():
    assert replay_witness({"verdict": {"status": "certified", "margin": 1.0}}) is None
    assert replay_witness({}) is None


def test_pushforward_suite_passes():
    cfg = RunConfig("verify-pushforwards", max_rank=3, max_excess=1, jt_weight=3)
    report = verify_pushforwards(cfg)
    assert report["aggregate"]["ok"]
    names = {c["name"] for c in report["samples"]}
    assert names == {"oracle_equivalence", "pushforward_rank3",
                     "pushforward_rank2", "pushforward_c3", "jacobi_trudi",
                     "projective_bundle", "tower_consistency"}
    assert all(c["passed"] for c in report["samples"])


# ---------------------------------------------------------------------------
# determinism and output

def test_reports_are_deterministic_modulo_timestamp():
    cfg = RunConfig("verify-c2", n=2, r=2, seed=9, **TINY)
    a = verify_c2(cfg)
    b = verify_c2(cfg)
    assert strip_time(a) == strip_time(b)


def test_parallel_pool_matches_serial():
    serial = RunConfig("verify-main", n=3, r=3, seed=4, samples=4, starts=8,
                       iters=40, workers=1)
    parallel = replace(serial, workers=2)
    a = verify_main_theorem(serial)
    b = verify_main_theorem(parallel)
    assert strip_time(a) == strip_time(b)


def test_output_destination_does_not_change_report(tmp_path):
    cfg = RunConfig("verify-c2", n=2, r=2, seed=2, **TINY)
    direct = verify_c2(cfg)
    routed = verify_c2(replace(cfg, output_path=str(tmp_path / "r.json"),
                               csv_path=str(tmp_path / "r.csv")))
    assert strip_time(direct) == strip_time(routed)


def test_write_report_and_csv(tmp_path):
    cfg = RunConfig("verify-ineq", n=3, r=3, seed=3, **TINY)
    report = verify_inequalities(cfg)
    jpath, cpath = tmp_path / "out.json", tmp_path / "out.csv"
    write_report(report, str(jpath))
    loaded = json.loads(jpath.read_text())
    assert loaded["aggregate"]["ok"] == report["aggregate"]["ok"]
    write_csv(report, str(cpath))
    with open(cpath, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == cfg.samples
    fields = list(rows[0])
    assert fields[0] == "index"
    assert {"kind", "n", "r", "verdict_top_status", "verdict_top_margin"} <= set(fields)


# ---------------------------------------------------------------------------
# command line

def test_cli_battery_exit_zero(tmp_path):
    out = tmp_path / "report.json"
    csvp = tmp_path / "report.csv"
    code = main(["verify-c2", "--samples", "2", "--dim", "2", "--rank", "2",
                 "--starts", "8", "--iters", "30", "--workers", "1",
                 "--out", str(out), "--csv", str(csvp)])
    assert code == 0
    report = json.loads(out.read_text())
    assert report["aggregate"]["ok"]
    assert csvp.exists()


def test_cli_stdout_report(capsys):
    code = main(["verify-pushforwards", "--rank", "2", "--excess", "0",
                 "--weight", "2"])
    assert code == 0
    report = json.loads(capsys.readouterr().out)
    assert report["command"] == "verify-pushforwards"
    assert report["aggregate"]["ok"]


def test_cli_failing_battery_exit_one(tmp_path):
    # a lone indefinite sample that the search does not refute fails the
    # expect-negative battery
    code = main(["verify-c2", "--samples", "1", "--dim", "2", "--rank", "2",
                 "--seed", "0", "--starts", "16", "--iters", "60",
                 "--workers", "1", "--generators", "indefinite",
                 "--out", str(tmp_path / "neg.json")])
    assert code == 1


def test_cli_errors_exit_two(tmp_path, capsys):
    assert main(["check-form", str(tmp_path / "missing.json")]) == 2
    assert "error:" in capsys.readouterr().err
    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["check-form", str(bad)]) == 2
    assert main(["verify-main", "--rank", "2", "--samples", "1",
                 "--workers", "1"]) == 2


def test_oversized_curvature_document_exits_two(tmp_path, capsys):
    # rejected from n and r alone, before the tensor is allocated
    doc = {"schema_version": SCHEMA_VERSION, "n": 100_000_000, "r": 1,
           "theta": [[{"entries": []}]]}
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(doc))
    assert main(["check-form", str(path)]) == 2
    err = capsys.readouterr().err
    assert "n = 100000000, r = 1" in err and str(MAX_TENSOR_ENTRIES) in err


@pytest.mark.parametrize("kind", ["schur", "generalized_schur"])
def test_trailing_zeros_of_sigma_do_not_count(tmp_path, kind):
    # twelve parts of weight 1: answered at once, with the exit code and the
    # record of [1] (s_1 = -c_1 is refuted, so generalized_schur exits 1)
    results = []
    for sigma in ([1] + [0] * 11, [1]):
        path = _check_form_doc(tmp_path, {"kind": kind, "sigma": sigma})
        out = tmp_path / "report.json"
        code = main(["check-form", str(path), "--starts", "8", "--iters", "40",
                     "--out", str(out)])
        results.append((code, json.loads(out.read_text())["samples"]))
    assert results[0] == results[1]
    assert results[0][0] == (0 if kind == "schur" else 1)


@pytest.mark.parametrize("form, field", [
    ({"kind": "schur", "sigma": [1] * 9}, "sigma"),
    ({"kind": "generalized_schur", "sigma": [1, -1] * 4 + [1, 0, 0]}, "sigma"),
    ({"kind": "chern_oracle", "k": 9}, "k"),
])
def test_oversized_determinant_exits_two(tmp_path, capsys, form, field):
    path = _check_form_doc(tmp_path, form)
    assert main(["check-form", str(path)]) == 2
    err = capsys.readouterr().err
    assert f"'{field}'" in err and str(MAX_DETERMINANT_SIZE) in err
    # at the limit the document is accepted
    size = MAX_DETERMINANT_SIZE
    path = _check_form_doc(tmp_path, {"kind": "schur", "sigma": [1] * size + [0] * 4})
    assert main(["check-form", str(path), "--starts", "8", "--iters", "40"]) == 0


def test_cli_rejects_unknown_generator(capsys):
    assert main(["verify-c2", "--generators", "nakano"]) == 2
    assert "'nakano'" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# documented example, malformed and non-finite input, strict output

README = Path(__file__).resolve().parents[1] / "README.md"


def test_readme_check_form_example_runs(tmp_path):
    block = re.search(r"```json\n(.*?)```", README.read_text(), re.S).group(1)
    doc = tmp_path / "point.json"
    doc.write_text(block)
    out = tmp_path / "report.json"
    assert main(["check-form", str(doc), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["aggregate"]["ok"]


def _check_form_doc(tmp_path, form):
    doc = {"curvature": curvature_to_json(dual_nakano_sample(2, 2, seed=3)),
           "form": form}
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return path


@pytest.mark.parametrize("form, field", [
    ({"kind": "schur"}, "sigma"),
    ({"kind": "generalized_schur", "sigma": 3}, "sigma"),
    ({"kind": "schur", "sigma": [1, "x"]}, "sigma"),
    ({"kind": "chern", "k": "two"}, "k"),
    ({"kind": "segre", "k": None}, "k"),
    ({"kind": "chern", "k": float("inf")}, "k"),
    ({"kind": "schur", "sigma": [float("inf")]}, "sigma"),
])
def test_malformed_form_spec_names_the_field(tmp_path, capsys, form, field):
    path = _check_form_doc(tmp_path, form)
    with pytest.raises(ValueError, match=f"'{field}'"):
        check_form_file(RunConfig("check-form", input_path=str(path)))
    assert main(["check-form", str(path)]) == 2
    assert f"'{field}'" in capsys.readouterr().err


@pytest.mark.parametrize("edit, message", [
    (lambda d: d["curvature"].update(n=float("inf")), "n/r field"),
    (lambda d: d["curvature"]["theta"][0][0].update(entries=False),
     r"theta\[0\]\[0\] lacks an 'entries' list"),
    (lambda d: d["curvature"]["theta"][0][0]["entries"][0].update(j=float("inf")),
     r"theta\[0\]\[0\] entry 0 malformed"),
    (lambda d: d.update(checks=None), "checks must be a list"),
    (lambda d: d.update(checks=["positive", "strong"]), "'strong'"),
], ids=["n-inf", "entries-bool", "j-inf", "checks-none", "checks-unknown"])
def test_malformed_document_exits_two(tmp_path, capsys, edit, message):
    doc = {"curvature": curvature_to_json(dual_nakano_sample(2, 2, seed=3))}
    edit(doc)
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=message):
        check_form_file(RunConfig("check-form", input_path=str(path)))
    assert main(["check-form", str(path)]) == 2
    assert re.search(message, capsys.readouterr().err)


@pytest.mark.parametrize("literal", ["NaN", "1e999", "-Infinity"])
def test_curvature_document_rejects_non_finite(tmp_path, literal):
    doc = curvature_to_json(dual_nakano_sample(2, 2, seed=1))
    text = json.dumps(doc).replace(
        json.dumps(doc["theta"][1][0]["entries"][0]["im"]), literal, 1)
    with pytest.raises(ValueError, match=r"theta\[1\]\[0\] entry 0 is not finite"):
        curvature_from_json(json.loads(text))
    path = tmp_path / "doc.json"
    path.write_text(text)
    assert main(["check-form", str(path)]) == 2


@pytest.mark.parametrize("value", [float("nan"), float("inf"), 1e999])
def test_form_json_rejects_non_finite(value):
    obj = form_to_json(ExteriorForm(2, 1, 1, {((1,), (1,)): 1j, ((2,), (2,)): 2j}))
    obj["coeffs"][1]["re"] = value
    with pytest.raises(ValueError, match=r"at \(\(2,\), \(2,\)\) is not finite"):
        form_from_json(obj)


def test_form_json_round_trip_keeps_items():
    rng = np.random.default_rng(9)
    for p in range(4):
        for q in range(4):
            u = ExteriorForm(3, p, q, {
                (I, J): complex(rng.standard_normal(), rng.standard_normal())
                for I in multi_indices(3, p) for J in multi_indices(3, q)
                if rng.random() < 0.7})
            obj = form_to_json(u)
            assert [(tuple(e["I"]), tuple(e["J"])) for e in obj["coeffs"]] == \
                [key for key, _ in u.items()]
            back = form_from_json(obj)
            assert back.items() == u.items()
            assert np.array_equal(back.array, u.array)


@pytest.mark.parametrize("flag", ["--samples", "--starts", "--iters"])
def test_cli_rejects_non_positive_counts(tmp_path, capsys, flag):
    out = tmp_path / "report.json"
    for value in ("0", "-3"):
        code = main(["verify-main", "--samples", "1", "--workers", "1",
                     flag, value, "--out", str(out)])
        assert code == 2
        assert flag.lstrip("-") in capsys.readouterr().err
    assert not out.exists()


def test_reports_are_strict_json(tmp_path):
    report = {"aggregate": {"ok": True}, "value": float("nan")}
    with pytest.raises(ValueError):
        report_json(report)
    with pytest.raises(ValueError):
        write_report(report, str(tmp_path / "r.json"))
    assert not (tmp_path / "r.json").exists()


# ---------------------------------------------------------------------------
# check-form on fuzzed documents

JUNK = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 6), st.text(max_size=3),
    st.sampled_from([float("nan"), float("inf"), -float("inf"), 1e300]),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.integers(-1, 3), max_size=3),
    st.dictionaries(st.text(max_size=2), st.integers(-1, 3), max_size=2))
FORM_SPECS = st.one_of(
    st.fixed_dictionaries({"kind": st.sampled_from(["chern", "chern_oracle", "segre"]),
                           "k": st.one_of(st.integers(-1, 4), JUNK)}),
    st.fixed_dictionaries({"kind": st.sampled_from(["schur", "generalized_schur"]),
                           "sigma": st.one_of(st.lists(st.integers(-2, 4), max_size=4),
                                              JUNK)}),
    st.dictionaries(st.sampled_from(["kind", "k", "sigma"]), JUNK, max_size=3),
    JUNK)
CHECKS = ["positive", "hermitian_positive", "strongly_positive"]


def _slots(obj, depth=0):
    """Every (depth, container, key) inside a JSON value."""
    items = obj.items() if isinstance(obj, dict) else \
        enumerate(obj) if isinstance(obj, list) else ()
    for key, value in items:
        yield depth, obj, key
        yield from _slots(value, depth + 1)


def _mutate(draw, doc):
    """Replace or delete one value, at a depth drawn first so that the few
    top-level fields are hit as often as the many coefficient entries."""
    slots = list(_slots(doc))
    depth = draw(st.sampled_from(sorted({d for d, _, _ in slots})))
    _, parent, key = draw(st.sampled_from([s for s in slots if s[0] == depth]))
    if draw(st.booleans()):
        parent[key] = draw(JUNK)
    else:
        del parent[key]


@st.composite
def check_form_documents(draw):
    n, r = draw(st.integers(1, 3)), draw(st.integers(1, 3))
    spec = GeneratorSpec(draw(st.sampled_from(GeneratorSpec.KINDS)), n, r,
                         draw(st.integers(0, 2**16)))
    doc = {"curvature": curvature_to_json(sample(spec)),
           "form": draw(FORM_SPECS),
           "checks": draw(st.one_of(st.just(CHECKS).map(list),
                                    st.lists(st.sampled_from(CHECKS + ["bogus"]),
                                             max_size=3),
                                    JUNK))}
    for _ in range(draw(st.integers(0, 3))):
        _mutate(draw, doc)
    return doc


@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture,
                                 HealthCheck.too_slow])
@given(check_form_documents())
def test_check_form_fuzz_exits_cleanly(tmp_path, capsys, doc):
    # wrong sizes, missing keys, non-numbers, NaN/inf and bad form specs all
    # end in an exit code, never a traceback
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    capsys.readouterr()
    code = main(["check-form", str(path), "--starts", "2", "--iters", "5",
                 "--out", str(tmp_path / "report.json")])
    assert code in (0, 1, 2)
    if code == 2:
        assert "error:" in capsys.readouterr().err
