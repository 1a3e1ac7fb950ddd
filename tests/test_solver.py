"""Newton solves, family sweeps, cone-locus sampling, orders and
certificates."""
import cmath
import math

import numpy as np
import pytest

from idealglue import (CORPUS_NAMES, ConeTarget, IdealGlueError, NotConverged,
                       NotUnitModulus, REGULAR_SHAPE, ShapeAssignment,
                       SolverConfig, branched_cover_report,
                       build_exponent_matrix, build_solution_report,
                       compute_edge_classes, cone_locus_sample, corpus,
                       essential_edge_certificate, evaluate_residual,
                       newton_solve, order_of_root_of_unity, random_starts,
                       regular_solution, sweep_family, xi_from_shapes)
from idealglue import solver as solver_mod
from conftest import random_systems


def xi_by_degree(t, mapping):
    """Build a ConeTarget assigning mapping[degree] to each edge class."""
    edges = compute_edge_classes(t)
    return ConeTarget(tuple(mapping[e.degree] for e in edges))


def test_fig8_complement_complete_structure():
    t = corpus("fig8_complement")
    res = newton_solve(t, ConeTarget.ones(2),
                       ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    assert res.converged
    assert res.residual_norm < 1e-10
    for z in res.shapes.z:
        assert abs(z - REGULAR_SHAPE) < 1e-10


def test_hopf_cone_solve_at_i():
    t = corpus("hopf")
    xi = xi_by_degree(t, {1: 1j, 4: -1})
    res = newton_solve(t, xi, ShapeAssignment((0.1 + 0.9j,)))
    assert res.converged
    assert abs(res.shapes[0] - 1j) < 1e-10


def test_hopf_classical_equations_obstructed():
    t = corpus("hopf")
    res = newton_solve(t, ConeTarget.ones(3), ShapeAssignment((0.3 + 0.9j,)))
    assert not res.converged
    assert res.reason == "degree_one_edge_obstruction"
    assert "degree-one" in res.detail


def test_trefoil_classical_equations_obstructed():
    t = corpus("trefoil")
    res = newton_solve(t, ConeTarget.ones(2), ShapeAssignment((0.3 + 0.9j,)))
    assert not res.converged
    assert res.reason == "degree_one_edge_obstruction"


def test_kicks_follow_a_step_that_cannot_be_damped():
    # theta = pi on the hopf family {deg 1: theta, deg 4: -2 theta}:
    # J^H F = 0 at exp(i pi / 3), and just off it the least-squares step
    # is not tiny but no halving of it lowers the residual
    t = corpus("hopf")
    xi = xi_by_degree(t, {1: -1, 4: 1})
    start = REGULAR_SHAPE * cmath.exp(-1.2e-8j)
    res = newton_solve(t, xi, ShapeAssignment((start,)))
    assert res.converged
    assert abs(res.shapes[0] + 1) < 1e-9


def test_stationary_start_stalls_honestly():
    # from a little further off exp(i pi / 3) the kicks land in the basin of
    # z ~ 0.75488, a local minimum of |F| that is not a solution: the solve
    # must say so rather than claim convergence
    t = corpus("hopf")
    xi = xi_by_degree(t, {1: -1, 4: 1})
    start = REGULAR_SHAPE * cmath.exp(-5e-8j)
    res = newton_solve(t, xi, ShapeAssignment((start,)))
    assert not res.converged
    assert res.reason == "stalled"
    assert res.residual_norm > 1


def test_solve_toward_an_ideal_point_stalls_without_warnings():
    # the continuation of random_triangulation(6, seed=6) along
    # xi_e = exp(i (pi d_e / 3 + w_e theta)), w = (-2, 2), in theta steps of
    # -0.001 from the regular shape: the last converged point (theta =
    # -0.514) as the start at theta = -0.524, where the iterates overflow
    import warnings
    from idealglue import random_triangulation
    t = random_triangulation(6, seed=6)
    theta = -0.524
    xi = ConeTarget(tuple(cmath.exp(1j * (math.pi * e.degree / 3 + w * theta))
                          for e, w in zip(compute_edge_classes(t), (-2, 2))))
    start = ShapeAssignment((9624657.857266355 + 1172.47443361382j,
                             0.5000000020261662 + 0.8660254155319148j,
                             0.4999998402423818 + 52.088377125373334j,
                             0.4999999887678344 + 0.8660254077778086j,
                             0.4999999888365664 + 0.8660253996027767j,
                             0.49999999415563556 + 0.8660253933944457j))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = newton_solve(t, xi, start)
    assert not res.converged
    assert res.reason == "stalled"


def test_converged_result_residual_reproducible():
    t = corpus("fig8_complement")
    edges = compute_edge_classes(t)
    E = build_exponent_matrix(t, edges)
    xi = ConeTarget.ones(2)
    res = newton_solve(t, xi, ShapeAssignment((0.5 + 0.8j, 0.4 + 0.9j)))
    assert res.converged
    again = float(np.linalg.norm(evaluate_residual(res.shapes, E, xi)))
    assert abs(again - res.residual_norm) < 1e-14


# ------------------------------------------------------------------ regular

def test_regular_solution_all_corpus():
    for name in ("hopf", "trefoil", "fig8_complement", "fig8_in_s3",
                 "doubled_tetrahedron"):
        t = corpus(name)
        edges = compute_edge_classes(t)
        Z, xi, volume = regular_solution(t)
        assert all(abs(z - REGULAR_SHAPE) < 1e-15 for z in Z.z)
        for e in edges:
            assert abs(abs(xi[e.index]) - 1) < 1e-12
            want = e.degree * math.pi / 3
            got = cmath.phase(xi[e.index])
            assert abs(cmath.exp(1j * got) - cmath.exp(1j * want)) < 1e-10
        assert abs(np.prod(xi.xi) - 1) < 1e-12
        E = build_exponent_matrix(t, edges)
        assert np.abs(evaluate_residual(Z, E, xi)).max() < 1e-12


def test_regular_solution_hopf_xi_values():
    t = corpus("hopf")
    edges = compute_edge_classes(t)
    _, xi, volume = regular_solution(t)
    by_degree = {e.degree: xi[e.index] for e in edges}
    assert abs(by_degree[1] - cmath.exp(1j * math.pi / 3)) < 1e-14
    assert abs(by_degree[4] - cmath.exp(4j * math.pi / 3)) < 1e-14


def test_regular_solution_fig8_volume():
    from idealglue import V_TET
    _, xi, volume = regular_solution(corpus("fig8_complement"))
    assert all(abs(x - 1) < 1e-14 for x in xi.xi)   # e^{i 6 pi/3} = 1
    assert abs(volume - 2 * V_TET) < 1e-12


# -------------------------------------------------------------------- sweep

def test_hopf_family_sweep():
    t = corpus("hopf")
    edges = compute_edge_classes(t)

    def xi_of(theta):
        return ConeTarget(tuple(
            cmath.exp(1j * theta) if e.degree == 1 else cmath.exp(-2j * theta)
            for e in edges))

    thetas = [math.pi / 2, 2 * math.pi / 3, math.pi]
    points = sweep_family(t, xi_of, thetas,
                          initial=ShapeAssignment((0.2 + 0.9j,)))
    for theta, p in zip(thetas, points):
        assert p.result.converged
        assert abs(p.result.shapes[0] - cmath.exp(1j * theta)) < 1e-9


def test_trefoil_family_sweep():
    t = corpus("trefoil")
    edges = compute_edge_classes(t)

    def xi_of(theta):
        return ConeTarget(tuple(
            cmath.exp(1j * theta) if e.degree == 1 else cmath.exp(-1j * theta)
            for e in edges))

    points = sweep_family(t, xi_of, [2 * math.pi / 3],
                          initial=ShapeAssignment((0.2 + 0.9j,)))
    assert points[0].result.converged
    assert abs(points[0].result.shapes[0] - cmath.exp(2j * math.pi / 3)) < 1e-9


def test_sweep_records_ideal_point_failure():
    t = corpus("hopf")
    edges = compute_edge_classes(t)

    def xi_of(theta):
        return ConeTarget(tuple(
            cmath.exp(1j * theta) if e.degree == 1 else cmath.exp(-2j * theta)
            for e in edges))

    points = sweep_family(t, xi_of, [math.pi / 2, 0.0],
                          initial=ShapeAssignment((0.2 + 0.9j,)))
    assert points[0].result.converged
    assert not points[1].result.converged    # theta -> 0 is the ideal point
    assert points[1].result.reason == "degree_one_edge_obstruction"


def test_sweep_solves_each_theta_through_newton_solve(monkeypatch):
    # the benchmark's solver.newton span wraps the public newton_solve
    calls = []

    def counted(*args, **kwargs):
        calls.append(args[0])
        return newton_solve(*args, **kwargs)

    monkeypatch.setattr(solver_mod, "newton_solve", counted)
    t = corpus("hopf")

    def xi_of(theta):
        return xi_by_degree(t, {1: cmath.exp(1j * theta),
                                4: cmath.exp(-2j * theta)})

    thetas = [math.pi / 2, 2 * math.pi / 3, 0.0, math.pi]
    points = sweep_family(t, xi_of, thetas,
                          initial=ShapeAssignment((0.2 + 0.9j,)))
    assert calls == [t] * len(thetas)
    assert [p.result.converged for p in points] == [True, True, False, True]


def test_sweep_agrees_with_from_scratch_solves(rng):
    for name, xi_map in (("hopf", lambda th: {1: cmath.exp(1j * th),
                                              4: cmath.exp(-2j * th)}),
                         ("trefoil", lambda th: {1: cmath.exp(1j * th),
                                                 5: cmath.exp(-1j * th)})):
        t = corpus(name)
        edges = compute_edge_classes(t)

        def xi_of(theta):
            m = xi_map(theta)
            return ConeTarget(tuple(m[e.degree] for e in edges))

        thetas = [0.8, 1.4, 2.1, 2.9]
        points = sweep_family(t, xi_of, thetas,
                              initial=ShapeAssignment((0.2 + 0.9j,)))
        for theta, p in zip(thetas, points):
            assert p.result.converged
            for _ in range(3):
                w = complex(rng.uniform(-1, 1), rng.uniform(0.2, 1.5))
                if min(abs(w), abs(w - 1)) < 0.2:
                    continue
                scratch = newton_solve(t, xi_of(theta), ShapeAssignment((w,)))
                if scratch.converged:
                    assert abs(scratch.shapes[0] - p.result.shapes[0]) < 1e-8


# ------------------------------------------- predictor-corrector sweeps

# xi_e(theta) = exp(i w_e theta) with w_e by the degree of e: the solution is
# z = exp(i theta), so z(pi/3) is the regular shape
CLOSED_FORM = {"hopf": {1: 1, 4: -2}, "trefoil": {1: 1, 5: -1}}


def closed_form_family(t, weights):
    degrees = [e.degree for e in compute_edge_classes(t)]
    return lambda theta: ConeTarget(tuple(cmath.exp(1j * weights[d] * theta)
                                          for d in degrees))


def regular_family(t):
    """xi_e(theta) = exp(i (pi d_e / 3 + w_e theta)) with w_e = (-1)^e (0
    for the last of an odd number of edges): through the regular solution
    at theta = 0."""
    degrees = [e.degree for e in compute_edge_classes(t)]
    weights = [(-1) ** j for j in range(len(degrees))]
    if len(degrees) % 2:
        weights[-1] = 0
    return lambda theta: ConeTarget(tuple(
        cmath.exp(1j * (math.pi * d / 3 + w * theta))
        for d, w in zip(degrees, weights)))


def plain_continuation(t, xi_of, grid):
    """The oracle: each solve starts from the last converged shapes."""
    seed = ShapeAssignment((REGULAR_SHAPE,) * t.tetra_count)
    out = []
    for theta in grid:
        res = newton_solve(t, xi_of(theta), seed)
        out.append(res)
        if res.converged:
            seed = res.shapes
    return out


@pytest.mark.parametrize("name", sorted(CLOSED_FORM))
def test_predicted_sweep_halves_the_iterations(name):
    t = corpus(name)
    xi_of = closed_form_family(t, CLOSED_FORM[name])
    grid = [math.pi / 3 + 1.2 * j / 63 for j in range(64)]
    points = sweep_family(t, xi_of, grid)
    for theta, p in zip(grid, points):
        assert p.result.converged
        assert abs(p.result.shapes[0] - cmath.exp(1j * theta)) < 1e-9
    oracle = plain_continuation(t, xi_of, grid)
    assert (2 * sum(p.result.iterations for p in points)
            <= sum(res.iterations for res in oracle))


def sweep_families():
    for name in ("hopf", "trefoil"):
        t = corpus(name)
        yield name, t, closed_form_family(t, CLOSED_FORM[name]), math.pi / 3
    for name in sorted(CORPUS_NAMES):
        t = corpus(name)
        yield name, t, regular_family(t), 0.0
    for t, _, _ in random_systems():
        yield f"random{t.tetra_count}", t, regular_family(t), 0.0


@pytest.mark.parametrize("span", [0.6, -0.6])
def test_predicted_sweep_converges_where_plain_continuation_does(span):
    # windows as wide as cone_explore's; where a family runs into an ideal
    # point, the start decides whether Newton converges, and the two
    # sweeps can then differ either way
    tol = SolverConfig().tol
    for name, t, xi_of, theta0 in sweep_families():
        grid = [theta0 + span * j / 63 for j in range(64)]
        points = sweep_family(t, xi_of, grid)
        oracle = plain_continuation(t, xi_of, grid)
        assert ([p.result.converged for p in points]
                == [res.converged for res in oracle]), name
        for p, res in zip(points, oracle):
            if p.result.converged:
                assert p.result.residual_norm < tol
                if name in ("hopf", "trefoil", "fig8_complement",
                            "fig8_in_s3"):
                    assert np.abs(np.subtract(p.result.shapes.z,
                                              res.shapes.z)).max() < 1e-9


def test_sweep_starts_from_the_previous_solution_when_the_prediction_is_worse(
        monkeypatch):
    starts = []

    def recorded(t, xi, initial, cfg):
        starts.append(initial)
        return newton_solve(t, xi, initial, cfg)

    monkeypatch.setattr(solver_mod, "newton_solve", recorded)
    t = random_systems()[0][0]
    E = build_exponent_matrix(t)
    xi_of = regular_family(t)
    grid = [2.0 * j / 15 for j in range(16)]
    points = sweep_family(t, xi_of, grid)
    assert all(p.result.converged for p in points)
    taken = kept = 0
    for k in range(3, len(grid)):
        # the quadratic through log z at the last three thetas, by polyfit
        Z = np.array([p.result.shapes.z for p in points[k - 3:k]])
        coeffs = np.polyfit(grid[k - 3:k], np.log(Z / Z[-1]), 2)
        pred = Z[-1] * np.exp(np.polyval(coeffs, grid[k]))
        r_pred, r_prev = (
            np.linalg.norm(evaluate_residual(z, E, xi_of(grid[k])))
            for z in (pred, Z[-1]))
        if starts[k] is points[k - 1].result.shapes:
            assert r_pred >= r_prev * (1 - 1e-9)
            kept += 1
        else:
            assert r_pred < r_prev * (1 + 1e-9)
            assert np.abs(np.subtract(starts[k].z, pred)).max() < 1e-9
            taken += 1
    assert starts[0].z == (REGULAR_SHAPE,) * t.tetra_count
    assert starts[1] is points[0].result.shapes
    assert starts[2] is not points[1].result.shapes     # linear prediction
    assert taken and kept


# ------------------------------------------------------------- cone sampling

def test_hopf_cone_locus_is_unit_circle():
    t = corpus("hopf")
    cfg = SolverConfig(seed=7)
    samples, dropped = cone_locus_sample(t, random_starts(t, 12, cfg), cfg)
    assert len(samples) >= 8
    for Z, xi in samples:
        assert abs(abs(Z[0]) - 1) < 1e-6     # z on S^1 minus {1}
        assert abs(np.prod(xi.xi) - 1) < 1e-8


def test_fig8_in_s3_cone_locus_product_identity():
    t = corpus("fig8_in_s3")
    cfg = SolverConfig(seed=3)
    samples, dropped = cone_locus_sample(t, random_starts(t, 12, cfg), cfg)
    assert len(samples) >= 6
    for Z, xi in samples:
        assert abs(np.prod(xi.xi) - 1) < 1e-8


def test_sampler_targets_are_xi_from_shapes_of_the_converged_rows(monkeypatch):
    # the kept set and each target are the per-sample xi_from_shapes ones,
    # built from one stacked holonomy call after the loop
    rows, calls = [], []
    core, holonomies = solver_mod._damped_gauss_newton, solver_mod.all_holonomies

    def recorded(*args):
        rows.append(core(*args))
        calls.clear()
        return rows[-1]

    def counted(Z, E):
        calls.append(np.shape(Z))
        return holonomies(Z, E)

    monkeypatch.setattr(solver_mod, "_damped_gauss_newton", recorded)
    monkeypatch.setattr(solver_mod, "all_holonomies", counted)
    for name in ("hopf", "fig8_in_s3", "doubled_tetrahedron"):
        t = corpus(name)
        E = build_exponent_matrix(t)
        cfg = SolverConfig(seed=4)
        samples, dropped = cone_locus_sample(t, random_starts(t, 24, cfg), cfg)
        Z, _, _, reasons = rows.pop()
        want = []
        for z, reason in zip(Z, reasons):
            if reason == "converged":
                S = ShapeAssignment(z, guard=0.0)
                xi = xi_from_shapes(S, E)
                if isinstance(xi, ConeTarget):
                    want.append((S, xi))
        assert samples == want and dropped == len(Z) - len(want)
        assert len(calls) == 1 and calls[0][0] == reasons.count("converged")


def test_doubled_tetrahedron_classical_curve():
    # a positive-dimensional classical solution set: distinct samples of
    # (z, 1/z) all solve xi = ones
    t = corpus("doubled_tetrahedron")
    edges = compute_edge_classes(t)
    E = build_exponent_matrix(t, edges)
    sols = []
    for w in (0.3 + 1.1j, -0.7 + 0.6j, 1.9 + 0.4j):
        Z = ShapeAssignment((w, 1 / w))
        assert np.abs(evaluate_residual(Z, E, ConeTarget.ones(6))).max() < 1e-12
        sols.append(Z)
    assert len({round(abs(Z[0]), 6) for Z in sols}) == 3


# ------------------------------------------------------- orders and covers

def test_order_of_root_of_unity_examples():
    assert order_of_root_of_unity(-1) == 2
    assert order_of_root_of_unity(cmath.exp(2j * math.pi / 5)) == 5
    assert order_of_root_of_unity(1.0) == 1
    assert order_of_root_of_unity(1j) == 4


def test_order_irrational_angle_is_infinite():
    xi = cmath.exp(1j)
    # oracle: exhaustively confirm no power within tolerance
    acc = 1.0 + 0j
    for q in range(1, 1001):
        acc *= xi
        assert abs(acc - 1) >= 1e-9
    assert order_of_root_of_unity(xi, tol=1e-9, q_max=1000) == math.inf


def test_order_requires_unit_modulus():
    with pytest.raises(NotUnitModulus):
        order_of_root_of_unity(1.01)


def test_order_arg_consistency(rng):
    for _ in range(40):
        q0 = int(rng.integers(1, 30))
        k = int(rng.integers(0, q0))
        xi = cmath.exp(2j * math.pi * k / q0)
        q = order_of_root_of_unity(xi)
        assert q <= q0
        assert min(abs(xi - cmath.exp(2j * math.pi * kk / q))
                   for kk in range(q)) < 2e-9


def test_branched_cover_hopf_flat():
    t = corpus("hopf")
    edges = compute_edge_classes(t)
    xi = xi_by_degree(t, {1: -1, 4: 1})
    rep = branched_cover_report(edges, xi)
    by_degree = {e.degree: rep.entries[e.index] for e in edges}
    assert by_degree[1].order == 2 and by_degree[1].lifted_degree == 2
    assert by_degree[4].order == 1 and by_degree[4].lifted_degree == 4
    assert rep.all_orders_finite and not rep.trivial_cover
    for entry in rep.entries:
        assert entry.lifted_degree == entry.order * entry.degree


def test_branched_cover_trivial_and_infinite():
    t = corpus("fig8_complement")
    edges = compute_edge_classes(t)
    rep = branched_cover_report(edges, ConeTarget.ones(2))
    assert rep.trivial_cover and rep.all_orders_finite
    assert rep.orders() == (1, 1)
    assert rep.lifted_degrees() == (6, 6)

    xi = ConeTarget((cmath.exp(1j), cmath.exp(-1j)))
    rep = branched_cover_report(edges, xi)
    assert not rep.all_orders_finite


# -------------------------------------------------------------- certificates

def test_certificate_manifold_case():
    t = corpus("fig8_complement")
    res = newton_solve(t, ConeTarget.ones(2),
                       ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    cert = essential_edge_certificate(t, res, ConeTarget.ones(2))
    assert cert.kind == "manifold"
    assert "all edges of the triangulation are essential" in cert.statement
    assert cert.residual_norm < 1e-10


def test_certificate_branched_cover_case():
    t = corpus("hopf")
    xi = xi_by_degree(t, {1: 1j, 4: -1})
    res = newton_solve(t, xi, ShapeAssignment((0.1 + 0.9j,)))
    cert = essential_edge_certificate(t, res, xi)
    assert cert.kind == "branched_cover"
    orders = sorted(e.order for e in cert.cover.entries)
    lifted = sorted(e.lifted_degree for e in cert.cover.entries)
    assert orders == [2, 4, 4]
    assert lifted == [4, 4, 8]
    assert "essential" in cert.statement


def test_certificate_requires_convergence():
    t = corpus("hopf")
    res = newton_solve(t, ConeTarget.ones(3), ShapeAssignment((0.3 + 0.9j,)))
    with pytest.raises(NotConverged):
        essential_edge_certificate(t, res, ConeTarget.ones(3))


# ------------------------------------------------- cone targets of the wrong length

@pytest.mark.parametrize("m", [1, 3])
def test_newton_rejects_a_target_of_the_wrong_length(m):
    t = corpus("fig8_complement")
    with pytest.raises(IdealGlueError, match=f"expected 2 xi entries .* got {m}"):
        newton_solve(t, ConeTarget.ones(m), ShapeAssignment((0.5 + 0.8j,) * 2))


def test_sweep_rejects_a_target_of_the_wrong_length():
    t = corpus("hopf")
    with pytest.raises(IdealGlueError, match="expected 3 xi entries .* got 2"):
        sweep_family(t, lambda theta: (cmath.exp(1j * theta),
                                       cmath.exp(-1j * theta)), [1.0])


@pytest.mark.parametrize("m", [1, 3])
def test_certificate_rejects_a_target_of_the_wrong_length(m):
    t = corpus("fig8_complement")
    res = newton_solve(t, ConeTarget.ones(2), ShapeAssignment((0.5 + 0.8j,) * 2))
    with pytest.raises(IdealGlueError, match=f"expected 2 xi entries .* got {m}"):
        essential_edge_certificate(t, res, ConeTarget.ones(m))


@pytest.mark.parametrize("m", [1, 3])
def test_report_rejects_a_target_of_the_wrong_length(m):
    t = corpus("fig8_complement")
    res = newton_solve(t, ConeTarget.ones(2), ShapeAssignment((0.5 + 0.8j,) * 2))
    with pytest.raises(IdealGlueError, match=f"expected 2 xi entries .* got {m}"):
        build_solution_report(t, res.shapes, ConeTarget.ones(m),
                              res.residual_norm)


# ------------------------------------------------- shape vectors of the wrong length

@pytest.mark.parametrize("n", [1, 3])
def test_solves_reject_a_start_of_the_wrong_length(n):
    t = corpus("fig8_complement")
    Z, xi = ShapeAssignment((0.5 + 0.8j,) * n), ConeTarget.ones(2)
    match = f"expected 2 shapes .* got {n}"
    with pytest.raises(IdealGlueError, match=match):
        newton_solve(t, xi, Z)
    with pytest.raises(IdealGlueError, match=match):
        sweep_family(t, lambda theta: xi, [0.0, 0.1], initial=Z)
    with pytest.raises(IdealGlueError, match=match):
        cone_locus_sample(t, [ShapeAssignment((0.5 + 0.8j,) * 2), Z])


@pytest.mark.parametrize("n", [1, 3])
def test_certificate_and_report_reject_shapes_of_the_wrong_length(n):
    t = corpus("fig8_complement")
    xi = ConeTarget.ones(2)
    res = newton_solve(t, xi, ShapeAssignment((0.5 + 0.8j,) * 2))
    Z = ShapeAssignment((res.shapes[0],) * n)
    match = f"expected 2 shapes .* got {n}"
    with pytest.raises(IdealGlueError, match=match):
        essential_edge_certificate(
            t, solver_mod.SolveResult(Z, 0.0, 0, True), xi)
    with pytest.raises(IdealGlueError, match=match):
        build_solution_report(t, Z, xi, 0.0)
