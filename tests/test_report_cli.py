"""JSON reports, re-validation, and the command-line surface."""
import json
import math
import shlex
from pathlib import Path

import numpy as np
import pytest

from idealglue import (ConeTarget, DevelopFailure, ShapeAssignment, V_TET,
                       all_holonomies,
                       build_exponent_matrix, build_solution_report,
                       compute_edge_classes, corpus,
                       essential_edge_certificate, evaluate_residual,
                       IdealGlueError, newton_solve, verify_report)
from idealglue import report as report_mod
from idealglue.cli import _parse_xi, build_parser, main
from idealglue.report import dumps, loads

from conftest import chain_cover_text


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
    ("cone_angle", lambda r: r["edges"][-1].__setitem__(
        "cone_angle", r["edges"][-1]["cone_angle"] + 1e-9)),
])
def test_tampered_volume_and_cone_angles_fail_verification(field, tamper):
    rep = cone_report()
    assert all(c.ok for c in verify_report(rep))
    tamper(rep)
    failed = [c.name for c in verify_report(rep) if not c.ok]
    assert failed == [f"{field} matches"]


def _scale_entry(r):
    r["generators"][1]["matrix"][2][0] *= 1 + 1e-9


def _set_traces(r):
    for g in r["generators"]:
        g["trace"] = [123.0, 0.0]


@pytest.mark.parametrize("check, tamper", [
    ("generator trace matches", _set_traces),
    ("generator matrix matches", _scale_entry),
    ("edge trace matches", lambda r: r["edge_matrices"][0]["trace"]
     .__setitem__(1, r["edge_matrices"][0]["trace"][1] + 1e-9)),
    ("multiplier matches", lambda r: r["edge_matrices"][1]["multiplier"]
     .__setitem__(0, r["edge_matrices"][1]["multiplier"][0] + 1e-9)),
    ("holonomy labels match", lambda r: r["generators"].pop()),
])
def test_tampered_holonomy_block_fails_verification(check, tamper):
    rep = fig8_report()
    assert all(c.ok for c in verify_report(rep))
    tamper(rep)
    failed = [c.name for c in verify_report(rep) if not c.ok]
    assert check in failed
    assert set(failed) <= {check, "generator matrix matches",
                           "generator trace matches", "generator det = 1"}


def test_det_bound_is_relative_to_the_matrix_size():
    # |det - 1| = 1e-3 is rounding-sized next to |M|^2 = 1e12, not next to 1
    def pairs(*entries):
        return [[x, 0.0] for x in entries]
    assert report_mod._det_error(pairs(1e6, 1.0, 1.0, 2.001e-6)) == \
        pytest.approx(1e-15, rel=1e-6)
    assert report_mod._det_error(pairs(1.0, 1e-3, -1.0, 1.0)) == \
        pytest.approx(1e-3)


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
