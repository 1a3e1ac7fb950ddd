"""Tests of the benchmark's own code: the chain-cover generator, the
independent references it checks answers against, the span bookkeeping,
the host-speed reference, and the agreement of BENCHMARK.json with what
run.py reports.

    PYTHONPATH=src python -m pytest -q bench
"""
import cmath
import json
import math
import pathlib
import subprocess
import sys

import pytest

import idealglue as ig
import reference
import run
import spans
import workloads
from covers import (CL2_2PI_OVER_3, CL2_PI_OVER_3, chain_cover_text,
                    chain_cover_volume)

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
def test_chain_cover_is_valid_with_degree_six_edges(k):
    t = ig.parse_triangulation(chain_cover_text(k))
    assert ig.validate(t).ok
    edges = ig.compute_edge_classes(t)
    assert t.tetra_count == len(edges) == 2 * k
    assert {e.degree for e in edges} == {6}


@pytest.mark.parametrize("k", [1, 2, 3, 8, 16])
def test_chain_cover_regular_solution_volume(k):
    t = ig.parse_triangulation(chain_cover_text(k))
    Z, xi, volume = ig.regular_solution(t)
    assert volume == pytest.approx(chain_cover_volume(k), abs=1e-12 * k)
    assert ig.solution_volume(Z).total == pytest.approx(chain_cover_volume(k),
                                                        abs=1e-12 * k)
    assert all(abs(x - 1.0) < 1e-12 for x in xi.xi)


def test_chain_cover_rejects_empty_degree():
    with pytest.raises(ValueError):
        chain_cover_text(0)


def test_clausen_references():
    assert ig.V_TET == pytest.approx(CL2_PI_OVER_3, abs=1e-14)
    assert ig.bloch_wigner(cmath.exp(2j * math.pi / 3)) == pytest.approx(
        CL2_2PI_OVER_3, abs=1e-14)
    mpmath = pytest.importorskip("mpmath")
    assert float(mpmath.clsin(2, mpmath.pi / 3)) == pytest.approx(
        CL2_PI_OVER_3, abs=1e-15)
    assert float(mpmath.clsin(2, 2 * mpmath.pi / 3)) == pytest.approx(
        CL2_2PI_OVER_3, abs=1e-15)


@pytest.mark.parametrize("name", ["hopf", "trefoil", "fig8_in_s3", "cover"])
def test_reference_holonomies_match_the_package(name):
    text = workloads.TRI_TEXT.get(name) or chain_cover_text(3)
    t = ig.parse_triangulation(text)
    z = [complex(0.3 + 0.1 * i, 0.7 - 0.05 * i) for i in range(t.tetra_count)]
    E = ig.build_exponent_matrix(t, ig.compute_edge_classes(t))
    expected = ig.all_holonomies(ig.ShapeAssignment(z), E)
    got = workloads.holonomies(workloads.edge_cycles(t), z)
    assert got == pytest.approx(list(expected), rel=1e-12)


def test_self_times_subtract_direct_children():
    s = [["op", 0.0, 10.0, -1, 0, None],
         ["a", 1.0, 5.0, 0, 0, None],
         ["b", 2.0, 3.0, 1, 0, None],
         ["c", 6.0, 7.5, 0, 0, None]]
    assert spans.self_times(s) == pytest.approx([4.5, 3.0, 1.0, 1.5])
    assert spans.summarize(s)["a"] == (1, pytest.approx(3.0))


def test_tracer_counts_newton_steps_and_restores_functions():
    t = ig.parse_triangulation(chain_cover_text(2))
    xi = ig.ConeTarget.ones(len(ig.compute_edge_classes(t)))
    start = ig.ShapeAssignment((complex(0.45, 0.9),) * t.tetra_count)
    original = ig.solver.jacobian
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert ig.solver.jacobian is not original
        tracer.begin_op(0)
        res = ig.newton_solve(t, xi, start)
        tracer.end_op()
        ig.newton_solve(t, xi, start)       # outside an op: not recorded
    finally:
        tracer.uninstall()
    assert ig.solver.jacobian is original
    assert tracer.missing == []
    assert res.converged
    names = [s[0] for s in tracer.spans]
    assert names.count("solver.newton") == 1
    assert names.count("gluing.jacobian") == res.iterations
    accepted, trials = spans.newton_step_counts(tracer.spans)
    assert accepted == res.iterations
    assert trials >= accepted


def test_benchmark_json_matches_run():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        list(run.PER_LAYER)


def test_tail_rank_leaves_ten_ops_beyond():
    assert run.tail_rank(45) == 35
    assert run.tail_rank(5) == 1


def test_speed_factor_is_the_median_of_the_last_readings():
    readings = iter([1.0, 2.0, 4.0, 0.5, 0.5, 0.5, 0.5])
    speed = reference.Speed(1.0, lambda: next(readings), 5)
    factors = [speed.factor() for _ in range(7)]
    assert factors[:3] == [1.0, 0.75, 0.5]
    assert factors[-1] == 2.0       # last five: 0.25, 2, 2, 2, 2


def test_reference_kernel_does_not_use_the_program():
    code = ("import sys, reference; reference.kernel(); "
            "sys.exit(any(m.startswith('idealglue') for m in sys.modules))")
    subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench",
                   check=True, timeout=120)
