"""JSON reports, re-validation, and the command-line surface."""
import cmath
import gc
import json
import math
import os
import resource
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import idealglue
from idealglue import (CORPUS_NAMES, ConeTarget, DevelopFailure,
                       ExponentMatrix, ShapeAssignment, SolveResult,
                       SolverConfig, V_TET, all_holonomies,
                       build_exponent_matrix, build_solution_report,
                       compute_edge_classes, corpus,
                       essential_edge_certificate, evaluate_residual,
                       format_triangulation, IdealGlueError, newton_solve,
                       parse_triangulation, random_triangulation,
                       regular_solution, verify_report)
from idealglue import develop as develop_mod, report as report_mod
from idealglue.cli import _parse_xi, build_parser, main
from idealglue.solver import branched_cover_report, cover_certificate
from idealglue.report import dumps

from conftest import chain_cover_text


def fig8_report():
    t = corpus("fig8_complement")
    xi = ConeTarget.ones(2)
    res = newton_solve(t, xi, ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    cert = essential_edge_certificate(t, res, xi)
    return build_solution_report(t, res.shapes, xi, res.residual_norm,
                                 certificate=cert)


def test_report_writes_null_for_an_infinite_order():
    # hopf at theta = 1 of its closed-form family, z = exp(i theta): every
    # target has an irrational angle, so its order and lifted degree are
    # infinite, written as JSON null; the report verifies
    t = corpus("hopf")
    weight = {1: 1, 4: -2}
    xi = ConeTarget(tuple(cmath.exp(1j * weight[e.degree])
                          for e in compute_edge_classes(t)))
    Z = ShapeAssignment((cmath.exp(1j),))
    rep = build_solution_report(t, Z, xi, 0.0)
    edges = json.loads(dumps(rep))["edges"]
    assert edges["order"] == edges["lifted_degree"] == [None] * 3
    assert not rep["all_orders_finite"]
    assert all(c.ok for c in verify_report(json.loads(dumps(rep))))


def test_report_is_self_contained_and_revalidates():
    rep = fig8_report()
    text = dumps(rep)
    back = json.loads(text)
    checks = verify_report(back)
    assert checks and all(c.ok for c in checks)
    names = {c.name for c in checks}
    assert "residual_norm matches" in names
    assert "multiplier = h(e)" in names
    assert "edge matrix det = 1" in names
    assert "prod xi = 1" in names


def test_report_fields():
    rep = fig8_report()
    assert rep["report_version"] == 2 and rep["tol"] == 1e-10
    assert rep["certificate"] and "essential" in rep["certificate"]
    assert abs(rep["volume"]["total"] - 2 * V_TET) < 1e-9
    # each row block is one object of equal-length flat columns
    edges = rep["edges"]
    assert (edges["degree"], edges["order"], edges["lifted_degree"]) == (
        [6, 6], [1, 1], [6, 6])
    assert {k: len(v) for k, v in rep["edges"].items()} == {
        "degree": 2, "holonomy": 4, "order": 2, "lifted_degree": 2,
        "cone_angle": 2}
    gluings = len(rep["generators"]["gluing"])
    assert {k: len(v) for k, v in rep["generators"].items()} == {
        "gluing": gluings, "matrix": 8 * gluings, "trace": 2 * gluings}
    assert {k: len(v) for k, v in rep["edge_matrices"].items()} == {
        "matrix": 16, "multiplier": 4, "trace": 4}
    # the inputs' complex values serialize as [re, im] pairs
    assert all(len(p) == 2 for p in rep["shapes"] + rep["xi"])


def test_report_json_roundtrip_is_bit_exact():
    rep = fig8_report()
    back = json.loads(dumps(rep))
    assert back["shapes"] == rep["shapes"]
    assert back["residual_norm"] == rep["residual_norm"]


def test_converged_claim_needs_a_small_residual():
    t = corpus("fig8_complement")
    xi = ConeTarget.ones(2)
    Z = ShapeAssignment((0.3 + 0.4j, 0.7 + 0.2j))
    E = build_exponent_matrix(t, compute_edge_classes(t))
    res = float(np.linalg.norm(evaluate_residual(Z, E, xi)))
    checks = {c.name: c for c in verify_report(
        build_solution_report(t, Z, xi, res, converged=True))}
    assert checks["residual_norm matches"].ok
    assert not checks["residual_norm <= 10 tol"].ok
    unclaimed = verify_report(build_solution_report(t, Z, xi, res,
                                                    converged=False))
    assert all(c.ok for c in unclaimed)


@pytest.mark.parametrize("keep", [1, 3])
def test_report_with_targets_of_the_wrong_length_is_rejected(keep, tmp_path,
                                                             capsys):
    # one target used to be broadcast over both edges and pass every check
    rep = fig8_report()
    rep["xi"] = (rep["xi"] * 2)[:keep]
    with pytest.raises(IdealGlueError, match=f"expected 2 xi entries .* got {keep}"):
        verify_report(rep)
    path = tmp_path / "report.json"
    path.write_text(dumps(rep))
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("shapes", [
    lambda z: z + [[0.3, 0.4]],     # used to pass every check, exit 0
    lambda z: z[:-1],               # used to die with an IndexError, exit 1
], ids=["extra", "short"])
def test_report_with_a_wrong_shape_count_is_rejected(shapes, tmp_path, capsys):
    code, out, err = run_cli(capsys, "certify", "--corpus", "fig8_complement",
                             "--json")
    rep = json.loads(out)
    rep["shapes"] = shapes(rep["shapes"])
    with pytest.raises(IdealGlueError,
                       match=f"expected 2 shapes .* got {len(rep['shapes'])}"):
        verify_report(rep)
    path = tmp_path / "report.json"
    path.write_text(dumps(rep))
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: expected 2 shapes") and err.count("\n") == 1


def test_tampered_report_fails_verification():
    rep = fig8_report()
    rep["residual_norm"] = rep["residual_norm"] + 1e-6
    checks = verify_report(rep)
    assert any(not c.ok for c in checks)


def cone_report():
    """A hopf report at the cone target of a negatively oriented shape: its
    one tetrahedron has a nonzero, negative volume."""
    t = corpus("hopf")
    Z = ShapeAssignment((complex(0.3, -0.9),))
    E = build_exponent_matrix(t)
    xi = ConeTarget(tuple(h / abs(h) for h in all_holonomies(Z, E)))
    res = float(np.linalg.norm(evaluate_residual(Z, E, xi)))
    return build_solution_report(t, Z, xi, res, converged=False)


@pytest.mark.parametrize("field, tamper", [
    ("volume per_tetrahedron", lambda r: r["volume"]["per_tetrahedron"]
     .__setitem__(0, r["volume"]["per_tetrahedron"][0] * (1 + 1e-9))),
    ("volume total", lambda r: r["volume"].__setitem__(
        "total", r["volume"]["total"] + 1e-9)),
    ("volume flat_tetrahedra", lambda r: r["volume"].__setitem__(
        "flat_tetrahedra", [0])),
    ("volume negatively_oriented", lambda r: r["volume"].__setitem__(
        "negatively_oriented", [])),
    ("cone_angle", lambda r: r["edges"]["cone_angle"].__setitem__(
        -1, r["edges"]["cone_angle"][-1] + 1e-9)),
])
def test_tampered_volume_and_cone_angles_fail_verification(field, tamper):
    rep = cone_report()
    assert all(c.ok for c in verify_report(rep))
    tamper(rep)
    failed = [c.name for c in verify_report(rep) if not c.ok]
    assert failed == [f"{field} matches"]


def _scale_entry(r):
    r["generators"]["matrix"][8 + 4] *= 1 + 1e-9


def _set_traces(r):
    r["generators"]["trace"] = [123.0, 0.0] * len(r["generators"]["gluing"])


@pytest.mark.parametrize("check, tamper", [
    ("generator trace matches", _set_traces),
    ("generator matrix matches", _scale_entry),
    ("edge trace matches", lambda r: r["edge_matrices"]["trace"]
     .__setitem__(1, r["edge_matrices"]["trace"][1] + 1e-9)),
    ("multiplier matches", lambda r: r["edge_matrices"]["multiplier"]
     .__setitem__(2, r["edge_matrices"]["multiplier"][2] + 1e-9)),
    ("holonomy labels match", lambda r: r["generators"]["gluing"].pop()),
])
def test_tampered_holonomy_block_fails_verification(check, tamper):
    rep = fig8_report()
    assert all(c.ok for c in verify_report(rep))
    tamper(rep)
    failed = [c.name for c in verify_report(rep) if not c.ok]
    assert check in failed
    assert set(failed) <= {check, "generator matrix matches",
                           "generator trace matches", "generator det = 1"}


def _set_edges(key, value):
    def tamper(r):
        column = r["edges"][key]
        column[:] = [value] * len(column)
    return tamper


@pytest.mark.parametrize("field, tamper", [
    ("degree", _set_edges("degree", 99)),
    ("holonomy", _set_edges("holonomy", 5.0)),
    ("order", _set_edges("order", 7)),
    ("lifted_degree", _set_edges("lifted_degree", 42)),
    ("all_orders_finite", lambda r: r.__setitem__("all_orders_finite", False)),
    ("certificate", lambda r: r.__setitem__("certificate", "anything")),
])
def test_tampered_claims_fail_verification(field, tamper):
    # each used to pass every check: only the volume, cone angles and
    # holonomy block were recomputed
    rep = fig8_report()
    tamper(rep)
    failed = [c.name for c in verify_report(rep) if not c.ok]
    assert failed == [f"{field} matches"]


def _false_for_a_zero(r):
    matrix = r["generators"]["matrix"]
    if 0.0 not in matrix:
        pytest.fail("no matrix entry is 0")
    matrix[matrix.index(0.0)] = False


@pytest.mark.parametrize("check, tamper", [
    ("report_version matches", lambda r: r.__setitem__("report_version", True)),
    ("all_orders_finite matches",
     lambda r: r.__setitem__("all_orders_finite", 1)),
    ("lifted_degree matches",
     lambda r: r["edges"]["lifted_degree"].__setitem__(0, 6.0)),
    ("order matches", lambda r: r["edges"]["order"].__setitem__(1, True)),
    ("generator matrix matches", _false_for_a_zero),
    ("volume total matches", lambda r: r["volume"].__setitem__(
        "total", repr(r["volume"]["total"]))),
    ("cone_angle matches", lambda r: r["edges"]["cone_angle"].__setitem__(
        0, repr(r["edges"]["cone_angle"][0]))),
    ("holonomy labels match",
     lambda r: r["generators"]["gluing"].__setitem__(0, 1)),
], ids=["version true", "all_orders_finite 1", "lifted_degree 6.0",
        "order true", "matrix entry false", "total as a string",
        "cone_angle as a string", "gluing 1"])
def test_a_value_of_another_json_type_fails_its_check(check, tamper):
    # each verified: Python holds True == 1 == 1.0, and the numeric
    # comparison read a string as the number it spells
    rep = json.loads(dumps(fig8_report()))
    assert all(c.ok for c in verify_report(rep))
    tamper(rep)
    failed = [(c.name, c.value) for c in verify_report(rep) if not c.ok]
    assert failed == [(check, math.inf)]


def test_cli_verify_fails_a_true_for_the_order_one(tmp_path, capsys):
    code, out, err = run_cli(capsys, "certify", "--corpus", "fig8_complement",
                             "--json")
    rep = json.loads(out)
    assert rep["edges"]["order"][0] == 1
    rep["edges"]["order"][0] = True
    path = tmp_path / "forged.json"
    path.write_text(json.dumps(rep))
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert (code, err) == (1, "")
    assert [line for line in out.splitlines() if "FAIL" in line] == [
        "order matches: FAIL (inf vs tol 0.0e+00)"]


@pytest.mark.parametrize("tamper", [
    lambda r: r.pop("volume"),
    lambda r: r.pop("edges"),
    lambda r: r.__setitem__("comment", "an extra claim"),
    lambda r: r["edges"].__setitem__("essential", [True, True]),
    lambda r: r["generators"].__setitem__("up_to_sign", [True] * 3),
    lambda r: r.__setitem__("edges", [r["edges"]]),
], ids=["no volume", "no edges", "extra key", "extra edge key",
        "extra generators column", "edges not an object"])
def test_missing_or_extra_report_fields_fail_verification(tamper):
    # a report without its volume or edges block used to verify clean
    rep = fig8_report()
    tamper(rep)
    failed = [c.name for c in verify_report(rep) if not c.ok]
    assert "report fields match" in failed


@pytest.mark.parametrize("column", ["holonomy", "order", "lifted_degree",
                                    "cone_angle"])
@pytest.mark.parametrize("change", [-1, 1], ids=["short", "long"])
def test_a_column_of_another_length_fails_its_check(column, change):
    # one entry short or one long, in the one comparison path: the column's
    # check fails at inf, and nothing raises
    rep = json.loads(dumps(cone_report()))
    values = rep["edges"][column]
    values[:] = values[:change] if change < 0 else values + values[-1:]
    failed = [(c.name, c.value) for c in verify_report(rep) if not c.ok]
    assert failed == [(f"{column} matches", math.inf)]


def test_verify_rebuilds_the_report_once(monkeypatch):
    # one code path writes and re-checks: the volume, angles and develop
    # run only inside the one rebuild, by the writer that
    # build_solution_report calls too
    rep = fig8_report()
    calls = []
    for name in ("_solution_report", "solution_volume",
                 "edge_cone_angles", "develop_spanning_tree"):
        original = getattr(report_mod, name)
        monkeypatch.setattr(report_mod, name, lambda *a, _f=original, _n=name,
                            **k: calls.append(_n) or _f(*a, **k))
    assert all(c.ok for c in verify_report(rep))
    assert sorted(calls) == ["_solution_report", "develop_spanning_tree",
                             "edge_cone_angles", "solution_volume"]


@pytest.mark.parametrize("tamper", [None, lambda r: r["edges"]["order"]
                                     .__setitem__(0, 7)],
                         ids=["clean", "tampered"])
def test_verify_compares_each_column_once(tamper, monkeypatch):
    # one comparison path: one check per claimed field, a column at a time,
    # whether the report is the same as its rebuild or not
    rep = json.loads(json.dumps(fig8_report()))
    if tamper:
        tamper(rep)
    calls = []
    original = report_mod._check
    monkeypatch.setattr(report_mod, "_check", lambda name, *a:
                        calls.append(name) or original(name, *a))
    checks = verify_report(rep)
    assert sorted(calls) == sorted(
        [f"{k} matches" for k in ("residual_norm", "report_version",
                                  "converged", "all_orders_finite",
                                  "certificate")]
        + [name for block in report_mod._BLOCKS.values()
           for name, _ in block.values()])
    assert [c.name for c in checks if not c.ok] == (["order matches"] if tamper
                                                    else [])
    assert all(c.value == 0.0 for c in checks if c.name.endswith("matches")
               and c.name != "order matches")


def test_report_pairs_decode_as_complex_does():
    # one float array, viewed as complex, holds complex(re, im) bit for bit
    pairs = [[0.5, -0.0], [-0.0, 2], [1, 2], [2**53 + 1, 2**63 + 1],
             [1e308, -1e-320], [2**70 + 1, 0.1]]
    got = report_mod._complex(pairs)
    assert got.shape == (1, len(pairs))
    assert repr(got[0].tolist()) == repr([complex(*p) for p in pairs])
    assert report_mod._complex([]).shape == (1, 0)
    for bad in ([[10**400, 0.0]], [[0.5, 0.5], [1.0, -10**400]]):
        want = (OverflowError, "int too large to convert to float")
        with pytest.raises(want[0], match=want[1]):
            [complex(*p) for p in bad]
        with pytest.raises(want[0], match=want[1]):
            report_mod._complex(bad)


@pytest.mark.parametrize("field, entry, error", [
    ("shapes", [1.0, 1e-10], "shape (1+1e-10j) within 1e-08 of {0, 1}"),
    ("shapes", [math.inf, 0.0], "shape (inf+0j) is not finite"),
    ("xi", [2, 0], "xi[1] = (2+0j) has |xi| = 2.0"),
])
def test_verify_names_the_bad_input_entry(field, entry, error):
    rep = fig8_report()
    rep[field][1] = entry
    with pytest.raises(IdealGlueError) as info:
        verify_report(rep)
    assert str(info.value) == error


@pytest.mark.parametrize("claimed", [True, False], ids=["certified", "plain"])
def test_verify_builds_the_cover_once(claimed, monkeypatch):
    # a certified report's rows and certificate statement share one cover
    rep = fig8_report()
    if not claimed:
        rep["certificate"] = None
    calls = []
    original = report_mod.branched_cover_report
    monkeypatch.setattr(report_mod, "branched_cover_report",
                        lambda *a: calls.append(a) or original(*a))
    assert all(c.ok for c in verify_report(rep))
    assert len(calls) == 1


def test_a_holonomy_report_develops_once(monkeypatch):
    # one array pass makes every face step and one every edge matrix
    calls = []
    for name in ("develop_across_face", "edge_holonomy_matrix"):
        original = getattr(develop_mod, name)
        monkeypatch.setattr(develop_mod, name, lambda *a, _f=original, _n=name:
                            calls.append(_n) or _f(*a))
    t = corpus("fig8_in_s3")
    Z, xi, _ = regular_solution(t)
    rep = build_solution_report(t, Z, xi, 0.0)
    assert len(rep["generators"]["gluing"]) == 4
    assert len(rep["edge_matrices"]["matrix"]) == 4 * 8
    assert sorted(calls) == ["develop_across_face", "edge_holonomy_matrix"]


DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name", sorted(p.name for p in DATA.glob("*.json")))
def test_committed_reports_still_verify(name):
    # version-2 reports rewritten from the inputs of reports written before
    # the develop moved onto the face table: the fig8_complement certify,
    # the README's hopf holonomy target and the fig8_in_s3 regular solution
    checks = verify_report(json.loads((DATA / name).read_text()))
    assert checks and all(c.ok for c in checks), [str(c) for c in checks
                                                  if not c.ok]


def test_an_overflowing_shape_fails_its_checks_without_a_warning(
        tmp_path, capsys):
    # numpy printed "overflow encountered in power" RuntimeWarnings from the
    # rebuild to stderr; pytest turns any such warning into an error
    rep = fig8_report()
    rep["shapes"][0] = [1e308, 0.0]
    path = tmp_path / "report.json"
    path.write_text(dumps(rep))
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert code == 1 and err == ""
    assert "FAIL" in out and "residual_norm matches: FAIL" in out


def test_a_report_solved_at_a_looser_tol_verifies(tmp_path, capsys):
    # the residual bound is 10 times the report's own tol, capped at
    # UNIT_TOL: the default tol's bound failed this report (1.173e-09 vs
    # tol 1.0e-09)
    code, out, err = run_cli(capsys, "certify", "--corpus", "fig8_complement",
                             "--tol", "1e-6", "--json")
    assert code == 0 and json.loads(out)["tol"] == 1e-6
    assert json.loads(out)["residual_norm"] > 1e-9
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert (code, err) == (0, "")
    (bound,) = [line for line in out.splitlines() if "<= 10 tol" in line]
    assert bound.startswith("residual_norm <= 10 tol: ok (")
    assert bound.endswith(" vs tol 1.0e-08)")


def test_the_residual_bound_reads_the_report_tol():
    # a smaller stated tol tightens the bound, which then fails
    rep = json.loads(dumps(fig8_report()))
    rep["tol"] = rep["residual_norm"] / 20
    failed = [c.name for c in verify_report(rep) if not c.ok]
    assert failed == ["residual_norm <= 10 tol"]


def test_no_stated_tol_lets_a_non_solution_pass():
    # a certificate at shapes that solve nothing, written with a huge tol,
    # fails the residual bound, which the stated tol cannot lift past
    # UNIT_TOL; every other claim is the writer's own, and matches
    t, xi = corpus("fig8_complement"), ConeTarget.ones(2)
    Z = ShapeAssignment((0.3 + 0.4j, 0.7 + 0.2j))
    E = build_exponent_matrix(t)
    res = float(np.linalg.norm(evaluate_residual(Z, E, xi)))
    cert = cover_certificate(branched_cover_report(E, xi), res, Z, xi)
    rep = json.loads(dumps(build_solution_report(
        t, Z, xi, res, certificate=cert, tol=1e300)))
    checks = verify_report(rep)
    assert [str(c) for c in checks if not c.ok] == [
        f"residual_norm <= 10 tol: FAIL ({res:.3e} vs tol 1.0e-08)"]


def test_certify_at_a_huge_tol_is_refused(capsys):
    # the solve stops at its start, whose residual is far above UNIT_TOL
    code, out, err = run_cli(capsys, "certify", "--corpus", "fig8_complement",
                             "--tol", "1e300")
    assert (code, out) == (1, "")
    assert err.startswith("solve failed: re-evaluated residual ")
    assert err.rstrip().endswith(" too large")


@pytest.mark.parametrize("tol", [True, "1e-6", 0, -1.0, math.inf, math.nan,
                                 10**400])
def test_a_writer_refuses_a_tol_that_no_report_can_hold(tol):
    t = corpus("fig8_complement")
    with pytest.raises(IdealGlueError, match="tol must be a real > 0"):
        build_solution_report(t, ShapeAssignment((0.5 + 0.8j,) * 2),
                              ConeTarget.ones(2), 0.0, tol=tol)


@pytest.mark.parametrize("version", [1, 3, 0])
def test_a_report_of_another_version_exits_two(version, tmp_path, capsys):
    # no converter: a version-1 report, as the previous writer wrote it, is
    # refused on one error line that names its version
    path = DATA / "v1" / "certify_fig8_complement.json"
    rep = json.loads(path.read_text())
    assert rep["report_version"] == 1
    rep["report_version"] = version
    with pytest.raises(IdealGlueError, match=f"report_version {version} "):
        verify_report(rep)
    if version != 1:
        path = tmp_path / "report.json"
        path.write_text(json.dumps(rep))
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert (code, out) == (2, "")
    assert err == (f"error: report_version {version} is not read: this "
                   "program reads version 2 reports only; write the report "
                   "again\n")


@pytest.mark.parametrize("report, field", [
    ([], "a report is a JSON object"),
    ({}, "'triangulation'"),
    ({"converged": False, "reason": "degree_one_edge_obstruction",
      "detail": "", "residual_norm": None}, "'triangulation'"),
    (lambda r: r["shapes"].__setitem__(0, [0.5, "x"]), "'shapes'"),
    (lambda r: r["xi"].__setitem__(1, [1.0]), "'xi'"),
    (lambda r: r.pop("residual_norm"), "'residual_norm'"),
    (lambda r: r.__setitem__("residual_norm", "0"), "'residual_norm'"),
    (lambda r: r.__setitem__("triangulation", None), "'triangulation'"),
    (lambda r: r.pop("tol"), "'tol'"),
    (lambda r: r.__setitem__("tol", True), "'tol'"),
    (lambda r: r.__setitem__("tol", "1e-6"), "'tol'"),
    (lambda r: r.__setitem__("tol", 0), "'tol'"),
    (lambda r: r.__setitem__("tol", -1), "'tol'"),
    (lambda r: r.__setitem__("tol", math.inf), "'tol'"),
    (lambda r: r.__setitem__("tol", 10**400), "'tol'"),
], ids=["array", "empty", "solve failure", "shape pair", "xi pair",
        "no residual", "string residual", "null triangulation", "no tol",
        "tol true", "tol string", "tol 0", "tol -1", "tol inf",
        "tol past the float range"])
def test_malformed_reports_exit_two(report, field, tmp_path, capsys):
    # each used to end in a KeyError or TypeError traceback, exit 1
    if callable(report):
        rep = fig8_report()
        report(rep)
        report = rep
    with pytest.raises(IdealGlueError, match=field):
        verify_report(report)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(report))
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and field in err and err.count("\n") == 1


# a JSON integer past the float range (valid JSON), set in one field: an
# input is malformed, a claim fails its check
PAST_FLOAT = {
    "shapes": lambda r: r["shapes"][0].__setitem__(0, 10**400),
    "xi": lambda r: r["xi"][0].__setitem__(0, 10**400),
    "residual_norm": lambda r: r.__setitem__("residual_norm", 10**400),
    "volume total": lambda r: r["volume"].__setitem__("total", 10**400),
    "cone_angle": lambda r: r["edges"]["cone_angle"].__setitem__(0, 10**400),
}
PAST_FLOAT_INPUTS = ("shapes", "xi", "residual_norm")


@pytest.mark.parametrize("field", list(PAST_FLOAT))
def test_verify_a_number_past_the_float_range(field):
    # each ended in an OverflowError from its float conversion
    rep = fig8_report()
    PAST_FLOAT[field](rep)
    if field in PAST_FLOAT_INPUTS:
        with pytest.raises(IdealGlueError) as info:
            verify_report(rep)
        assert str(info.value) == (f"report field {field!r} holds a number "
                                   "past the float range")
    else:
        failed = [c for c in verify_report(rep) if not c.ok]
        assert [(c.name, c.value) for c in failed] == [(f"{field} matches",
                                                        math.inf)]


@pytest.mark.parametrize("field", list(PAST_FLOAT))
def test_cli_verify_a_number_past_the_float_range(field, tmp_path, capsys):
    # an input exits 2 on one error line, a claim 1 with its check failed;
    # each was an OverflowError traceback, exit 1
    rep = fig8_report()
    PAST_FLOAT[field](rep)
    path = tmp_path / "report.json"
    path.write_text(json.dumps(rep))
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    if field in PAST_FLOAT_INPUTS:
        assert (code, out) == (2, "")
        assert err == (f"error: report field {field!r} holds a number past "
                       "the float range\n")
    else:
        assert code == 1 and err == ""
        assert [line for line in out.splitlines() if "FAIL" in line] == [
            f"{field} matches: FAIL (inf vs tol 1.0e-12)"]


def test_reports_hold_no_non_finite_number(capsys):
    # the failure payload wrote "residual_norm": Infinity, which is not JSON
    code, out, err = run_cli(capsys, "solve", "--corpus", "hopf", "--xi",
                             "ones", "--json")
    assert code == 1
    rep = json.loads(out, parse_constant=lambda c: pytest.fail(c))
    assert rep["residual_norm"] is None
    code, out, err = run_cli(capsys, "sweep", "--corpus", "hopf",
                             "--xi-weights", "1,-2,1", "--theta-grid", "0,1",
                             "--initial", "0.2,0.9", "--json")
    assert code == 0
    points = json.loads(out, parse_constant=lambda c: pytest.fail(c))["points"]
    assert points[0]["residual_norm"] is None and points[1]["converged"]
    with pytest.raises(IdealGlueError, match="cannot write the report"):
        dumps({"total": math.inf})


def test_det_bound_is_relative_to_the_matrix_size():
    # |det - 1| = 1e-3 is rounding-sized next to |M|^2 = 1e12, not next to 1
    def pairs(*entries):
        return [[x, 0.0] for x in entries]
    assert report_mod._det_error(pairs(1e6, 1.0, 1.0, 2.001e-6)) == \
        pytest.approx(1e-15, rel=1e-6)
    assert report_mod._det_error(pairs(1.0, 1e-3, -1.0, 1.0)) == \
        pytest.approx(1e-3)


def test_regular_report_round_trips_at_n_2000():
    # the generators' entries reach about 1e187: squaring one overflowed
    t = parse_triangulation(chain_cover_text(1000))
    Z, xi, _ = regular_solution(t)
    r = float(np.linalg.norm(evaluate_residual(Z, build_exponent_matrix(t), xi)))
    rep = build_solution_report(t, Z, xi, r)
    checks = verify_report(json.loads(dumps(rep)))
    assert checks and all(c.ok for c in checks), [str(c) for c in checks
                                                  if not c.ok]


def test_report_is_the_same_with_and_without_the_certificate(monkeypatch):
    t = corpus("fig8_complement")
    xi = ConeTarget.ones(2)
    res = newton_solve(t, xi, ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    cert = essential_edge_certificate(t, res, xi)
    plain = build_solution_report(t, res.shapes, xi, res.residual_norm)
    calls = []
    monkeypatch.setattr(report_mod, "branched_cover_report",
                        lambda *a: calls.append(a))
    with_cert = build_solution_report(t, res.shapes, xi, res.residual_norm,
                                      certificate=cert)
    assert calls == []              # the certificate's cover is reused
    assert with_cert.pop("certificate") == cert.statement
    plain.pop("certificate")
    assert with_cert == plain


# ------------------------------------------------------------------- CLI

def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_certify_fig8(capsys):
    code, out, err = run_cli(capsys, "certify", "--corpus", "fig8_complement",
                             "--xi", "ones")
    assert code == 0
    assert "essential" in out


def test_cli_solve_hopf_ones_fails_with_diagnostic(capsys):
    code, out, err = run_cli(capsys, "solve", "--corpus", "hopf",
                             "--xi", "ones")
    assert code == 1
    assert "degree" in err and "one" in err


def test_cli_solve_trefoil_ones_fails(capsys):
    code, out, err = run_cli(capsys, "solve", "--corpus", "trefoil",
                             "--xi", "ones")
    assert code == 1
    assert "degree" in err


def test_cli_solve_hopf_cone_target(capsys):
    # edge-class order for hopf is (degree 1, degree 4, degree 1); both the
    # re,im-pair and complex-literal forms of --xi are accepted
    for xi_arg in ("0,1;-1,0;0,1", "1j,-1,1j"):
        code, out, err = run_cli(capsys, "solve", "--corpus", "hopf",
                                 "--xi", xi_arg,
                                 "--initial", "0.1,0.9", "--json")
        assert code == 0
        rep = json.loads(out)
        z = complex(*rep["shapes"][0])
        assert abs(z - 1j) < 1e-10
        assert rep["certificate"] is None


def test_cli_input_errors_exit_two(capsys):
    code, out, err = run_cli(capsys, "solve", "--file", "/nonexistent.tri",
                             "--xi", "ones")
    assert code == 2
    code, out, err = run_cli(capsys, "info")
    assert code == 2
    code, out, err = run_cli(capsys, "solve", "--corpus", "hopf",
                             "--xi", "1,0;1,0")
    assert code == 2   # wrong xi arity


@pytest.mark.parametrize("argv, message", [
    (("certify", "--corpus", "fig8_complement", "--max-iter", "-1"),
     "max_iterations"),
    (("certify", "--corpus", "fig8_complement", "--tol", "nan"), "tol"),
    (("solve", "--corpus", "fig8_complement", "--tol", "0"), "tol"),
    (("info", "--file", "{dir}"), "Is a directory"),
    pytest.param(("info", "--file", "{binary}"), "{binary}: not a text file",
                 id="argv4-"),
    (("verify-report", "--report", "{dir}"), "Is a directory"),
    (("verify-report", "--report", "{binary}"), "{binary}: not a JSON report"),
])
def test_bad_options_and_unreadable_files_exit_two(argv, message, tmp_path,
                                                   capsys):
    # each used to end in a traceback (or, for --tol nan, run to
    # max_iterations) with exit 1; a file that is not text is named
    binary = tmp_path / "binary.tri"
    binary.write_bytes(b"tri v1\n\xd0\xff\x00")
    argv = [a.format(dir=tmp_path, binary=binary) for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ")
    assert message.format(dir=tmp_path, binary=binary) in err


def cli_env() -> dict:
    return dict(os.environ, PYTHONPATH=str(Path(idealglue.__file__).parents[1]))


def run_limited(*argv):
    """The CLI as a subprocess under a 3 GB address-space limit."""
    env = dict(cli_env(), OPENBLAS_NUM_THREADS="1")
    hard = resource.getrlimit(resource.RLIMIT_AS)[1]
    limit = 3 * 2 ** 30 if hard == resource.RLIM_INFINITY else min(3 * 2 ** 30, hard)
    return subprocess.run(
        [sys.executable, "-m", "idealglue.cli", *argv],
        env=env, capture_output=True, text=True, timeout=120,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (limit, hard)))


def test_a_huge_declared_tetrahedron_count_exits_two_on_one_line(tmp_path):
    # validate named every unglued face: 4e7 issues, a MemoryError traceback
    # and exit 1 under this 3 GB address-space limit
    path = tmp_path / "huge.tri"
    path.write_text("tri v1\ntetrahedra 10000000\n")
    proc = run_limited("info", "--file", str(path))
    named = ", ".join(f"FaceUnglued at ({tet},{face})"
                      for tet in range(3) for face in range(4))
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr == f"error: {named}, FaceUnglued: 39999988 more faces\n"


def test_a_sample_count_too_large_to_hold_exits_two_on_one_line():
    # the starts of 10^9 samples do not fit under the limit: NumPy's
    # MemoryError ended in a traceback and exit 1
    proc = run_limited("sample", "--corpus", "hopf", "--count", "1000000000")
    assert proc.returncode == 2 and proc.stdout == ""
    assert proc.stderr.startswith("error: Unable to allocate ")
    assert proc.stderr.count("\n") == 1


def test_the_process_entry_writes_what_main_writes(capsys):
    argv = ["certify", "--corpus", "fig8_complement", "--json"]
    proc = subprocess.run([sys.executable, "-m", "idealglue.cli", *argv],
                          env=cli_env(), capture_output=True, timeout=120)
    assert main(argv) == proc.returncode == 0
    assert proc.stdout == capsys.readouterr().out.encode()
    assert proc.stderr == b""


def test_only_the_process_entry_freezes_the_collector(capsys):
    # `run` freezes every object alive so that the exit skips the final
    # collection; `main` in a test process would keep its garbage for good
    before = gc.get_freeze_count()
    assert main(["certify", "--corpus", "fig8_complement", "--json"]) == 0
    assert gc.get_freeze_count() == before
    code = ("import gc, sys; from idealglue.cli import run; "
            "sys.argv[1:] = ['info', '--corpus', 'hopf']; code = run(); "
            "sys.exit(3 if code or not gc.get_freeze_count() else 0)")
    proc = subprocess.run([sys.executable, "-c", code], env=cli_env(),
                          capture_output=True, timeout=120)
    assert proc.returncode == 0 and proc.stderr == b""


@pytest.mark.parametrize("command, k", [("certify", 64), ("equations", 128)])
def test_a_reader_closing_stdout_early_ends_the_command_quietly(command, k,
                                                                tmp_path):
    # was "error: [Errno 32] Broken pipe" and exit 2, as for bad input; the
    # output (115 kB, 590 kB) is past a pipe's 64 KiB, so the command is
    # still writing when the reader closes
    path = tmp_path / "cover.tri"
    path.write_text(chain_cover_text(k))
    proc = subprocess.Popen(
        [sys.executable, "-m", "idealglue.cli", command, "--file", str(path),
         "--json"], env=cli_env(), bufsize=0, stdout=subprocess.PIPE,
        stderr=subprocess.PIPE)
    with proc:
        assert len(proc.stdout.read(1)) == 1
        proc.stdout.close()
        assert proc.wait(timeout=120) == 141
        assert proc.stderr.read() == b""


def test_xi_has_one_syntax():
    # a ';' makes a list of re,im pairs; without one, complex literals
    with pytest.raises(IdealGlueError):
        _parse_xi("0,1", 1)
    assert _parse_xi("0,1;", 1).xi == (1j,)


@pytest.mark.parametrize("flag, argv", [
    ("--xi", ("solve", "--xi", "foo")),
    ("--initial", ("solve", "--initial", "foo")),
    ("--shapes", ("volume", "--shapes", "foo")),
    ("--shapes", ("holonomy", "--shapes", "1,2,3")),
    ("--shapes", ("volume", "--shapes", "nan,1")),
    ("--xi", ("solve", "--xi", "1j,inf,1j")),
    ("--xi-weights", ("sweep", "--xi-weights", "1,x,1", "--theta-grid", "1")),
    ("--theta-grid", ("sweep", "--xi-weights", "1,-2,1",
                      "--theta-grid", "1,pi")),
])
def test_cli_malformed_numbers_exit_two(capsys, flag, argv):
    code, out, err = run_cli(capsys, argv[0], "--corpus", "hopf", *argv[1:])
    assert code == 2
    assert err.startswith("error: " + flag)


@pytest.mark.parametrize("flag, argv", [
    # were read as 2 thetas and 3 weights, with exit 0
    ("--theta-grid", ("sweep", "--xi-weights", "1,-2,1",
                      "--theta-grid", "1,,2")),
    ("--xi-weights", ("sweep", "--xi-weights", "1,,-2,1",
                      "--theta-grid", "1")),
    ("--theta-grid", ("sweep", "--xi-weights", "1,-2,1",
                      "--theta-grid", ",1")),
    ("--theta-grid", ("sweep", "--xi-weights", "1,-2,1",
                      "--theta-grid", "1,2,,")),
    ("--xi", ("solve", "--xi", "0,1;;0,1;0,1")),
    ("--xi", ("solve", "--xi", "1j,,-1,1j")),
    ("--initial", ("solve", "--initial", "0.2,0.9;;")),
    ("--shapes", ("volume", "--shapes", ";0.2,0.9")),
])
def test_cli_empty_entries_exit_two(capsys, flag, argv):
    code, out, err = run_cli(capsys, argv[0], "--corpus", "hopf", *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error: " + flag + ": empty")
    assert err.count("\n") == 1


@pytest.mark.parametrize("flag, weights, grid", [
    ("--theta-grid", "1,-2,1", "1e308,-1e308"),
    ("--theta-grid", "1,-2,1", "0.5,1e308"),    # a later point
    ("--xi-weights", "1," + "1" + "0" * 400 + ",1", "1"),   # past the floats
])
def test_cli_sweep_angle_past_the_floats_exits_two(capsys, flag, weights,
                                                   grid):
    # a weight or a weight times theta past the float range is an input
    # error naming the flag, on one line
    code, out, err = run_cli(capsys, "sweep", "--corpus", "hopf",
                             "--xi-weights", weights, "--theta-grid", grid)
    assert code == 2 and out == ""
    assert err.startswith(f"error: {flag}: ")
    assert err.count("\n") == 1


def test_cli_lists_take_one_trailing_separator(capsys):
    # 're,im;' is the documented one-pair form; one trailing comma is
    # dropped the same way
    code, out, err = run_cli(capsys, "sweep", "--corpus", "hopf",
                             "--xi-weights", "1,-2,1,", "--theta-grid",
                             "1.0,1.2,", "--initial", "0.2,0.9;", "--json")
    assert code == 0 and err == ""
    points = json.loads(out)["points"]
    assert [p["theta"] for p in points] == [1.0, 1.2]
    assert all(p["converged"] for p in points)


@pytest.mark.parametrize("argv", [
    ("print", "--corpus", "hopf", "--json"),
    ("info", "--corpus", "hopf", "--seed", "3"),
    ("sample", "--corpus", "hopf", "--tol", "1e-6"),
])
def test_cli_rejects_flags_a_command_does_not_read(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(list(argv))
    assert exit_info.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def readme_command_lines():
    """The `idealglue ...` lines of the README's "Command line" block, with
    continuations joined, comments and output redirections removed."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1]
    block = block.split("```", 1)[0].replace("\\\n", " ")
    lines = []
    for line in block.splitlines():
        words = shlex.split(line, comments=True)
        if ">" in words:
            words = words[:words.index(">")]
        if words:
            lines.append(words)
    return lines


def test_readme_command_lines_parse():
    # every README example parses, and every subcommand has one
    parser = build_parser()
    commands = set()
    for words in readme_command_lines():
        assert words[0] == "idealglue"
        commands.add(parser.parse_args(words[1:]).command)
    subparsers = next(a for a in parser._actions if a.dest == "command")
    assert commands == set(subparsers.choices)


def test_cli_regular_trefoil(capsys):
    code, out, err = run_cli(capsys, "regular", "--corpus", "trefoil",
                             "--json", "--no-holonomy")
    assert code == 0
    rep = json.loads(out)
    xi = [complex(re, im) for re, im in rep["xi"]]
    degs = rep["edges"]["degree"]
    by_degree = dict(zip(degs, xi))
    assert abs(by_degree[1] - complex(math.cos(math.pi / 3),
                                      math.sin(math.pi / 3))) < 1e-12
    assert abs(by_degree[5] - complex(math.cos(5 * math.pi / 3),
                                      math.sin(5 * math.pi / 3))) < 1e-12
    prod = np.prod(xi)
    assert abs(prod - 1) < 1e-12
    assert abs(rep["volume"]["total"] - V_TET) < 1e-9


def test_cli_solve_json_report_verifies(tmp_path, capsys):
    code, out, err = run_cli(capsys, "solve", "--corpus", "fig8_complement",
                             "--xi", "ones", "--json")
    assert code == 0
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert code == 0
    assert "FAIL" not in out

    # tampering with the stated residual is caught, exit code 1
    rep = json.loads(path.read_text())
    rep["residual_norm"] += 1e-6
    path.write_text(json.dumps(rep))
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert code == 1
    assert "FAIL" in out


# hopf, trefoil and fig8_in_s3 have degree-one edges: no solution at xi = 1
WRITERS = [(command, name) for command in ("solve", "certify", "holonomy")
           for name in ("fig8_complement", "doubled_tetrahedron")]
WRITERS += [("regular", name) for name in CORPUS_NAMES]
WRITERS += [(command, "hopf", "--xi", "1j,-1,1j", "--initial", "0.1,0.9")
            for command in ("solve", "certify", "holonomy")]


@pytest.mark.parametrize("argv", WRITERS, ids=" ".join)
def test_every_writers_report_verifies_and_every_claim_is_checked(
        argv, tmp_path, capsys):
    command, name, *rest = argv
    code, out, err = run_cli(capsys, command, "--corpus", name, "--json", *rest)
    assert code == 0, err
    path = tmp_path / "report.json"
    path.write_text(out)
    checks = verify_report(json.loads(out))
    assert checks and all(c.ok for c in checks), [str(c) for c in checks
                                                  if not c.ok]
    names = {c.name for c in checks}
    claims = set(json.loads(out)) - {"triangulation", "tol", "shapes", "xi",
                                     "edges", "volume", "generators",
                                     "edge_matrices"}
    assert {f"{k} matches" for k in claims} | {"report fields match"} <= names
    assert {f"{k} matches" for k in json.loads(out)["edges"]} <= names
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert code == 0 and "FAIL" not in out


@pytest.mark.parametrize("content", [b"", b"{not json", b"\x89PNG\x00\xff"])
def test_cli_verify_report_rejects_a_file_that_is_not_json(tmp_path, capsys,
                                                           content):
    # e.g. the empty stdout of a certify that failed
    path = tmp_path / "report.json"
    path.write_bytes(content)
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "not a JSON report" in err


def test_cli_develop_failure_exits_two(tmp_path, capsys, monkeypatch):
    # a develop failure is an error line and exit 2, with no traceback and
    # no half-written report
    def fail(*args):
        raise DevelopFailure("triangulation is disconnected; cannot develop")

    monkeypatch.setattr(report_mod, "develop_spanning_tree", fail)
    code, out, err = run_cli(capsys, "certify", "--corpus", "fig8_complement",
                             "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", ["certify", "solve"])
def test_converged_shapes_that_do_not_develop_exit_one(command, json_flag,
                                                       tmp_path, capsys):
    # the solve converges at |z| of about 3e10, where rounding moves an
    # edge matrix's ends past the develop's closure bound: a failed solve
    # on one line (exit 1), not an input error (exit 2), and no report
    path = tmp_path / "one.tri"
    path.write_text(format_triangulation(random_triangulation(1, 6)))
    code, out, err = run_cli(capsys, command, "--file", str(path),
                             *["--json"] * json_flag)
    assert (code, out) == (1, "")
    assert err.startswith("solve failed: the shapes do not develop: edge 0: "
                          "mismatch ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("modulus", [1e20, 1e5])
def test_verify_exits_one_when_the_shapes_do_not_develop(modulus, tmp_path,
                                                          capsys):
    # at a shape of modulus 1e5 rounding already moves an edge matrix's
    # ends past the develop's closure bound: the report's holonomy block
    # cannot be re-checked, which is a failed check (exit 1), not an
    # unreadable report (exit 2)
    _, out, _ = run_cli(capsys, "certify", "--corpus", "fig8_complement",
                        "--json")
    rep = json.loads(out)
    rep["shapes"][0] = [modulus, modulus]
    path = tmp_path / "report.json"
    path.write_text(json.dumps(rep))
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert (code, err) == (1, "")
    failed = [line.split(":")[0] for line in out.splitlines() if "FAIL" in line]
    assert "holonomy develops" in failed
    assert "report fields match" not in failed


def certify_and_verify(capsys, tmp_path, k, *argv):
    """Exit codes and failed checks of `certify --json` and `verify-report`
    on the k-fold chain cover (n = 2k)."""
    tri, path = tmp_path / "chain.tri", tmp_path / "report.json"
    tri.write_text(chain_cover_text(k))
    code, out, err = run_cli(capsys, "certify", "--file", str(tri), "--json",
                             *argv)
    path.write_text(out)
    vcode, vout, _ = run_cli(capsys, "verify-report", "--report", str(path))
    return code, vcode, [line for line in vout.splitlines() if "FAIL" in line]


@pytest.mark.parametrize("k", [64, 128])
def test_cli_chain_cover_reports_verify_at_large_n(tmp_path, capsys, k):
    # the generators are long loxodromics (entries about 1e12 at n = 128):
    # developing in one global frame met coincident points here
    assert certify_and_verify(capsys, tmp_path, k) == (0, 0, [])


@pytest.mark.parametrize("start", ["0.5,0.85", "0.5,0.866", "0.51,0.86",
                                   "0.49,0.87"])
def test_cli_chain_cover_32_reports_verify_from_every_start(tmp_path, capsys,
                                                            start):
    # these starts failed the absolute generator det bound by 1e-10 to 2e-10
    assert certify_and_verify(capsys, tmp_path, 16, "--initial", start) == \
        (0, 0, [])


def test_cli_sweep(capsys):
    code, out, err = run_cli(capsys, "sweep", "--corpus", "hopf",
                             "--xi-weights", "1,-2,1",
                             "--theta-grid", "1.0471975511965976,3.14159265358979",
                             "--initial", "0.2,0.9", "--json")
    assert code == 0
    rep = json.loads(out)
    assert all(p["converged"] for p in rep["points"])
    z = complex(*rep["points"][0]["shapes"][0])
    assert abs(z - complex(math.cos(1.0471975511965976),
                           math.sin(1.0471975511965976))) < 1e-9


def test_cli_sample_deterministic(capsys):
    code1, out1, err1 = run_cli(capsys, "sample", "--corpus", "hopf",
                                "--count", "6", "--seed", "11", "--json")
    code2, out2, err2 = run_cli(capsys, "sample", "--corpus", "hopf",
                                "--count", "6", "--seed", "11", "--json")
    assert code1 == code2 == 0
    assert out1 == out2


def test_cli_info_equations_print_volume_holonomy(capsys):
    code, out, _ = run_cli(capsys, "info", "--corpus", "fig8_in_s3", "--json")
    assert code == 0
    rep = json.loads(out)
    assert rep["valid"] and sorted(rep["edge_degrees"]) == [1, 5, 5, 7]

    code, out, _ = run_cli(capsys, "equations", "--corpus", "hopf")
    assert code == 0 and "xi_" in out

    code, out, _ = run_cli(capsys, "print", "--corpus", "hopf")
    assert code == 0
    from idealglue.corpus import CORPUS_TEXT
    assert out == CORPUS_TEXT["hopf"]

    code, out, _ = run_cli(capsys, "volume", "--corpus", "fig8_complement",
                           "--xi", "ones")
    assert code == 0 and "volume" in out

    code, out, _ = run_cli(capsys, "holonomy", "--corpus", "hopf",
                           "--shapes", "0,1")
    assert code == 0 and "multiplier" in out


EQUATIONS_TEXT = {
    "fig8_complement": """\
e0 (deg 6): z_0^2 z'_0 z_1^2 z'_1 = xi_0
e1 (deg 6): z'_0 z''_0^2 z'_1 z''_1^2 = xi_1
""",
    "fig8_in_s3": """\
e0 (deg 1): z_0 = xi_0
e1 (deg 5): z'_0 z''_0 z''_1 z'_2 z''_2 = xi_1
e2 (deg 5): z'_0 z''_0 z'_1 z''_1 z''_2 = xi_2
e3 (deg 7): z_0 z_1^2 z'_1 z_2^2 z'_2 = xi_3
""",
    "chain4": """\
e0 (deg 6): z_0^2 z_1^2 z'_2 z'_3 = xi_0
e1 (deg 6): z''_0^2 z'_1 z'_2 z''_3^2 = xi_1
e2 (deg 6): z'_0 z'_1 z_2^2 z_3^2 = xi_2
e3 (deg 6): z'_0 z''_1^2 z''_2^2 z'_3 = xi_3
""",
}


def equations_source(name, tmp_path):
    if name != "chain4":
        return ("--corpus", name)
    path = tmp_path / "chain4.tri"
    path.write_text(chain_cover_text(2))
    return ("--file", str(path))


@pytest.mark.parametrize("name", EQUATIONS_TEXT)
def test_cli_equations_text(name, capsys, tmp_path):
    code, out, _ = run_cli(capsys, "equations",
                           *equations_source(name, tmp_path))
    assert code == 0 and out == EQUATIONS_TEXT[name]


@pytest.mark.parametrize("name", EQUATIONS_TEXT)
def test_cli_equations_text_builds_no_dense_matrix(name, capsys, tmp_path,
                                                   monkeypatch):
    # the dense m-by-n exponent lists belong to the --json payload only
    def dense(self, values):
        raise AssertionError("dense exponent matrix built in text mode")

    monkeypatch.setattr(ExponentMatrix, "dense", dense)
    code, out, _ = run_cli(capsys, "equations",
                           *equations_source(name, tmp_path))
    assert code == 0 and out == EQUATIONS_TEXT[name]


def test_cli_holonomy_rejects_shapes_off_the_cone_locus(capsys):
    code, out, err = run_cli(capsys, "holonomy", "--corpus",
                             "fig8_complement", "--shapes", "0.3,0.4;0.7,0.2",
                             "--json")
    assert code == 2
    assert out == ""
    assert err.startswith("error: the shapes are not a cone point: ")
    assert "e0 has |h(e)| = 0.455813857" in err
    assert "e1 has |h(e)| = 2.19387802" in err
    assert err.count("\n") == 1


def test_cli_certifies_a_target_within_unit_tol_of_the_circle(tmp_path,
                                                              capsys):
    r, third = 1 + 3e-9, cmath.exp(2j * math.pi / 3)
    xi = (r * third, cmath.exp(-4j * math.pi / 3) / r**2, r * third)
    code, out, err = run_cli(capsys, "certify", "--corpus", "hopf",
                             "--xi=" + ";".join(f"{x.real!r},{x.imag!r}"
                                                for x in xi),
                             "--initial", "0.1,0.9", "--json")
    assert code == 0 and err == ""
    path = tmp_path / "report.json"
    path.write_text(out)
    code, out, err = run_cli(capsys, "verify-report", "--report", str(path))
    assert code == 0 and "FAIL" not in out


def test_cli_holonomy_accepts_shapes_within_unit_tol_of_the_cone_locus(capsys):
    z = (1 + 5e-9) * cmath.exp(1j)
    code, out, err = run_cli(capsys, "holonomy", "--corpus", "hopf",
                             f"--shapes={z.real!r},{z.imag!r}", "--json")
    assert code == 0 and err == ""
    rep = json.loads(out)
    assert rep["residual_norm"] == 0.0
    assert all(c.ok for c in verify_report(rep))


def test_cli_holonomy_names_an_edge_whose_holonomy_overflows(capsys):
    code, out, err = run_cli(capsys, "holonomy", "--corpus",
                             "fig8_complement", "--shapes=1e200,1e200")
    assert code == 2 and out == ""
    assert err == ("error: the shapes are not a cone point: e0 has "
                   "|h(e)| = nan, e1 has |h(e)| = 0\n")


@pytest.mark.parametrize("command, flag", [("solve", "--initial"),
                                           ("volume", "--shapes")])
def test_a_shape_whose_modulus_overflows_exits_two_on_one_line(command, flag,
                                                                capsys):
    # abs() of the shape raised OverflowError: a traceback and exit 1
    code, out, err = run_cli(capsys, command, "--corpus", "hopf",
                             f"{flag}=1.5e308,1.5e308")
    assert (code, out) == (2, "")
    assert err == ("error: shape (1.5e+308+1.5e+308j) has a modulus past the "
                   "largest float\n")


@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_volume_at_the_top_of_the_float_range(json_flag, capsys):
    # (z - 1) / z overflowed in NumPy's complex division: three
    # RuntimeWarnings and volume = nan with exit 0, or under --json an
    # unwritable report and exit 2
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "volume", "--corpus", "hopf",
                                 "--shapes=1e308,1e308", *json_flag)
    assert (code, err) == (0, "")
    total = json.loads(out)["total"] if json_flag else float(out.split()[2])
    assert 0.0 < total < 1e-300


def test_cli_export_corpus(tmp_path, capsys):
    code, out, err = run_cli(capsys, "export-corpus", "--out",
                             str(tmp_path / "c"))
    assert code == 0
    assert (tmp_path / "c" / "hopf.tri").exists()


@pytest.mark.parametrize("command", ["volume", "holonomy"])
def test_cli_solving_commands_parse_the_file_once(tmp_path, capsys,
                                                  monkeypatch, command):
    import idealglue.cli as cli_mod
    from idealglue.corpus import CORPUS_TEXT
    path = tmp_path / "fig8.tri"
    path.write_text(CORPUS_TEXT["fig8_complement"])
    parse, calls = cli_mod.parse_triangulation, []

    def counted(text):
        calls.append(text)
        return parse(text)

    monkeypatch.setattr(cli_mod, "parse_triangulation", counted)
    code, out, _ = run_cli(capsys, command, "--file", str(path))
    assert code == 0 and out
    assert len(calls) == 1


@pytest.mark.parametrize("name", EQUATIONS_TEXT)
def test_cli_equations_json_holds_the_dense_exponent_matrices(name, capsys,
                                                              tmp_path):
    source = equations_source(name, tmp_path)
    code, out, _ = run_cli(capsys, "equations", *source, "--json")
    t = (corpus(name) if source[0] == "--corpus"
         else parse_triangulation(Path(source[1]).read_text()))
    E = build_exponent_matrix(t)
    payload = json.loads(out)
    assert code == 0
    assert payload["edge_degrees"] == [e.degree for e in compute_edge_classes(t)]
    assert payload["a"] == E.dense(E.pair_a).tolist()
    assert payload["a_prime"] == E.dense(E.pair_a_prime).tolist()
    assert payload["a_second"] == E.dense(E.pair_a_second).tolist()
    assert payload["slot_labels"] == {
        "(0, 1)": "z", "(0, 2)": "z''", "(0, 3)": "z'",
        "(1, 2)": "z'", "(1, 3)": "z''", "(2, 3)": "z"}


@pytest.mark.parametrize("argv, message", [
    (("solve", "--corpus", "fig8_complement", "--initial", "0.5,0.8;0.5,0.8;0.5,0.8"),
     "error: --initial: expected 2 shapes, got 3"),
    (("sweep", "--corpus", "hopf", "--xi-weights", "1,-2", "--theta-grid", "1"),
     "error: expected 3 xi weights"),
    (("sweep", "--corpus", "hopf", "--xi-weights", "1,-2,1", "--theta-grid", ","),
     "error: --theta-grid is empty"),
    # a sample of no starts printed "0 cone-locus samples" and exited 1
    (("sample", "--corpus", "hopf", "--count", "0"),
     "error: --count must be at least 1, got 0"),
    (("sample", "--corpus", "hopf", "--count", "-5"),
     "error: --count must be at least 1, got -5"),
    # a negative seed ended in NumPy's ValueError traceback, exit 1
    (("sample", "--corpus", "hopf", "--count", "3", "--seed", "-1"),
     "error: seed must be >= 0, got -1"),
    # --shapes was reported as "expected 2 initial shapes", naming --initial
    (("volume", "--corpus", "fig8_complement", "--shapes", "0.5,0.8;0.5,0.8;0.5,0.8"),
     "error: --shapes: expected 2 shapes, got 3"),
    (("holonomy", "--corpus", "fig8_complement", "--shapes", "0.5,0.8;0.5,0.8;0.5,0.8"),
     "error: --shapes: expected 2 shapes, got 3"),
])
def test_cli_wrong_counts_exit_two(argv, message, capsys):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    assert err == message + "\n"


def test_cli_sweep_with_no_converged_point_exits_one(capsys):
    # theta = 0 is hopf's degree-one obstruction: the point is still printed
    code, out, err = run_cli(capsys, "sweep", "--corpus", "hopf",
                             "--xi-weights", "1,-2,1", "--theta-grid", "0",
                             "--json")
    assert code == 1 and err == ""
    (point,) = json.loads(out)["points"]
    assert point["reason"] == "degree_one_edge_obstruction"
    assert not point["converged"]


# the four solving commands share one failure exit: one stderr line, the
# failure object on stdout with --json, and exit code 1
SOLVING = ("solve", "certify", "volume", "holonomy")


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
@pytest.mark.parametrize("command", SOLVING)
@pytest.mark.parametrize("name, xi, cfg", [
    ("hopf", ConeTarget.ones(3), SolverConfig()),
    ("fig8_complement", ConeTarget.ones(2), SolverConfig(max_iterations=1)),
], ids=["obstruction", "max_iterations"])
def test_a_failed_solve_has_one_failure_exit(command, json_flag, name, xi,
                                             cfg, capsys):
    t = corpus(name)
    res = newton_solve(t, xi, ShapeAssignment((0.5 + 0.8j,) * t.tetra_count),
                       cfg)
    assert not res.converged
    code, out, err = run_cli(capsys, command, "--corpus", name,
                             "--max-iter", str(cfg.max_iterations),
                             *["--json"] * json_flag)
    assert code == 1
    assert err == f"solve failed: {res.reason}: {res.detail}\n"
    if not json_flag:
        assert out == ""
        return
    assert out.count("\n") == 1
    assert json.loads(out) == {
        "converged": False, "reason": res.reason, "detail": res.detail,
        "residual_norm": (res.residual_norm if math.isfinite(res.residual_norm)
                          else None)}


@pytest.mark.parametrize("json_flag", [False, True], ids=["text", "json"])
def test_a_refused_certificate_exits_one(json_flag, capsys, monkeypatch):
    # a solve that claims convergence at shapes that solve nothing: the
    # certificate re-evaluates the residual and refuses
    import idealglue.cli as cli_mod
    monkeypatch.setattr(cli_mod, "newton_solve",
                        lambda t, xi, initial, cfg: SolveResult(initial, 0.0,
                                                                0, True))
    code, out, err = run_cli(capsys, "certify", "--corpus", "fig8_complement",
                             *["--json"] * json_flag)
    assert code == 1 and out == ""
    assert err.startswith("solve failed: re-evaluated residual ")
    assert err.endswith(" too large\n") and err.count("\n") == 1


@pytest.mark.parametrize("value", ["x", ["a", "b"]])
def test_a_non_number_where_a_number_is_due_fails_its_check(value):
    # the numeric comparison cannot read the value, so its error stays inf
    rep = fig8_report()
    rep["volume"]["total"] = value
    failed = [c for c in verify_report(rep) if not c.ok]
    assert [c.name for c in failed] == ["volume total matches"]
    assert failed[0].value == math.inf
