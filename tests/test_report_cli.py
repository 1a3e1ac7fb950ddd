"""JSON reports, re-validation, and the command-line surface."""
import json
import math

import numpy as np

from idealglue import (ConeTarget, ShapeAssignment, V_TET,
                       build_exponent_matrix, build_solution_report,
                       compute_edge_classes, corpus,
                       essential_edge_certificate, evaluate_residual,
                       newton_solve, verify_report)
from idealglue.cli import main
from idealglue.report import dumps, loads


def fig8_report():
    t = corpus("fig8_complement")
    xi = ConeTarget.ones(2)
    res = newton_solve(t, xi, ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    cert = essential_edge_certificate(t, res, xi)
    return build_solution_report(t, res.shapes, xi, res.residual_norm,
                                 certificate=cert)


def test_report_is_self_contained_and_revalidates():
    rep = fig8_report()
    text = dumps(rep)
    back = loads(text)
    checks = verify_report(back)
    assert checks and all(c.ok for c in checks)
    names = {c.name for c in checks}
    assert "residual_norm matches" in names
    assert "multiplier = h(e)" in names
    assert "edge matrix det = 1" in names
    assert "prod xi = 1" in names


def test_report_fields():
    rep = fig8_report()
    assert rep["report_version"] == 1
    assert rep["certificate"] and "essential" in rep["certificate"]
    assert abs(rep["volume"]["total"] - 2 * V_TET) < 1e-9
    assert all(e["order"] == 1 and e["lifted_degree"] == 6
               for e in rep["edges"])
    for g in rep["generators"]:
        assert g["up_to_sign"] is True
        assert len(g["matrix"]) == 4
    # complex values serialize as [re, im] pairs
    assert all(len(p) == 2 for p in rep["shapes"])


def test_report_json_roundtrip_is_bit_exact():
    rep = fig8_report()
    back = loads(dumps(rep))
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


def test_tampered_report_fails_verification():
    rep = fig8_report()
    rep["residual_norm"] = rep["residual_norm"] + 1e-6
    checks = verify_report(rep)
    assert any(not c.ok for c in checks)


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


def test_cli_regular_trefoil(capsys):
    code, out, err = run_cli(capsys, "regular", "--corpus", "trefoil",
                             "--json", "--no-holonomy")
    assert code == 0
    rep = json.loads(out)
    xi = [complex(re, im) for re, im in rep["xi"]]
    degs = [e["degree"] for e in rep["edges"]]
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


def test_cli_holonomy_rejects_shapes_off_the_cone_locus(capsys):
    code, out, err = run_cli(capsys, "holonomy", "--corpus",
                             "fig8_complement", "--shapes", "0.3,0.4;0.7,0.2",
                             "--json")
    assert code == 2
    assert out == ""
    assert "e0 has |h(e)| = 0.455813857" in err
    assert "e1 has |h(e)| = 2.19387802" in err


def test_cli_export_corpus(tmp_path, capsys):
    code, out, err = run_cli(capsys, "export-corpus", "--out",
                             str(tmp_path / "c"))
    assert code == 0
    assert (tmp_path / "c" / "hopf.tri").exists()
