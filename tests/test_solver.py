"""Newton solves, family sweeps, cone-locus sampling, orders and
certificates."""
import cmath
import math
from collections import namedtuple

import numpy as np
import pytest

from idealglue import (CORPUS_NAMES, ConeTarget, IdealGlueError, NotConverged,
                       NotUnitModulus, REGULAR_SHAPE, ShapeAssignment,
                       SolverConfig, branched_cover_report,
                       build_exponent_matrix, build_solution_report,
                       compute_edge_classes, cone_locus_sample, corpus,
                       essential_edge_certificate, evaluate_residual,
                       newton_solve, order_of_root_of_unity,
                       parse_triangulation, random_starts, regular_solution,
                       sweep_family, verify_report, xi_from_shapes)
from idealglue import solver as solver_mod
from idealglue.gluing import DEGENERACY_GUARD
from conftest import chain_cover_text, random_systems


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


def test_min_norm_step_converges_where_lstsq_stalled():
    # starts on random_triangulation(4, seed=4) from which lstsq's step,
    # with a rounding-noise singular value above its cutoff, had norm about
    # 1e14, no halving made it a decrease, and the solve stalled
    from idealglue import random_triangulation
    t = random_triangulation(4, seed=4)
    xi = ConeTarget((cmath.exp(-2j), cmath.exp(2j)))
    starts = [
        (-0.9878586182575732 - 1.4166238485958496j,
         -1.1940481311323556 + 0.45648058090629573j,
         1.3343679435807585 - 0.1680171862033828j,
         0.3093916141774884 - 0.11028092591184468j),
        (0.5131776583451308 + 0.08253917596444649j,
         1.1619471137146709 - 0.8554639740166345j,
         -0.33370657281033633 + 0.317688493363254j,
         -1.400006905912847 - 0.4235575897578603j),
        (0.7399239280299368 + 0.7190371061750038j,
         1.2435144776689258 + 0.6013279342078068j,
         -1.1639805374666208 + 0.35599192645415845j,
         0.909292388825002 + 0.08894273617066006j),
        (1.0922510454704912 + 0.7542187346733378j,
         1.4973739992401607 + 0.5245375481572847j,
         1.1781461790794834 + 0.11127860036322668j,
         0.3410300514671427 + 0.2840369075314093j),
        (0.7283196042737614 + 0.16217139628814592j,
         -1.0185132356899382 - 0.4601752671575452j,
         0.504231423667129 - 0.3175342960321639j,
         1.212261263399202 + 1.254245011421238j),
    ]
    for z in starts:
        res = newton_solve(t, xi, ShapeAssignment(z))
        assert res.converged, res.reason
        assert res.residual_norm < SolverConfig().tol


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


Stack = namedtuple("Stack", "targets starts limit results")


def record_stacks(monkeypatch):
    """Every stacked solve, as sweeps make them: its targets, starts,
    per-row iteration limits and results."""
    calls = []
    solve = solver_mod._newton_rows

    def recorded(E, targets, Z0, cfg, limit=None, H0=None):
        results = solve(E, targets, Z0, cfg, limit, H0)
        calls.append(Stack(np.array(targets), np.array(Z0), limit, results))
        return results

    monkeypatch.setattr(solver_mod, "_newton_rows", recorded)
    return calls


def record_cores(monkeypatch):
    """The starts of every Gauss-Newton stack, as sweeps make them."""
    starts = []
    core = solver_mod._damped_gauss_newton

    def recorded(residual, directions, Z, cfg, *limit):
        starts.append(np.array(Z))
        return core(residual, directions, Z, cfg, *limit)

    monkeypatch.setattr(solver_mod, "_damped_gauss_newton", recorded)
    return starts


def sweep_stacks(calls, grid, xi_of, points):
    """Each recorded stacked solve as (grid indices of its rows, starts,
    rows kept): a stack's rows are the grid points from the first one the
    sweep had not kept yet, and it keeps the leading rows whose results
    are the sweep's points."""
    out, k = [], 0
    for stack in calls:
        idx = list(range(k, k + len(stack.targets)))
        assert [tuple(x) for x in stack.targets] == [xi_of(grid[j]).xi
                                                     for j in idx]
        mine = [points[j].result is res for j, res in zip(idx, stack.results)]
        kept = mine.index(False) if False in mine else len(mine)
        assert kept and not any(mine[kept:])
        out.append((idx, stack.starts, kept))
        k += kept
    assert k == len(grid)
    return out


def check_schedule(calls, stacks, n):
    """The block lengths and per-row limits of a sweep of n points: one
    point at a time until two have converged, then a first block of
    BLOCK_ROWS, four times as long after a block kept whole, else as long
    as the rows it kept, cut at the grid's end; a block's first row may
    take cfg.max_iterations, the others ACCEPT_ITERATIONS."""
    cfg, size, converged = SolverConfig(), solver_mod.BLOCK_ROWS, 0
    for stack, (idx, _, kept) in zip(calls, stacks):
        if converged > 1:
            assert len(idx) == min(size, n - idx[0])
            size = 4 * size if kept == len(idx) else kept
        else:
            assert len(idx) == 1
        assert list(stack.limit) == ([cfg.max_iterations]
                                     + [solver_mod.ACCEPT_ITERATIONS]
                                     * (len(idx) - 1))
        converged += sum(res.converged for res in stack.results[:kept])


def check_predicted_starts(points, grid, stacks, E, xi_of):
    """Each start of a stack solved after two points have converged is the
    polynomial through log z at the last three converged points before
    the stack (linear through two), by polyfit, when that lies off the
    guard band and is nearer the target in residual than the last of
    them, which is the start otherwise.  Returns how many starts were
    predictions and how many were the last converged point."""
    taken = kept = 0
    for idx, Z0, _ in stacks:
        history = [(theta, p.result.shapes.z)
                   for theta, p in zip(grid[:idx[0]], points)
                   if p.result.converged][-3:]
        if len(history) < 2:
            continue
        thetas, Z = zip(*history)
        Z = np.array(Z)
        coeffs = np.polyfit(thetas, np.log(Z / Z[-1]), len(Z) - 1)
        for k, start in zip(idx, Z0):
            pred = Z[-1] * np.exp(np.polyval(coeffs, grid[k]))
            r_pred, r_prev = (
                np.linalg.norm(evaluate_residual(z, E, xi_of(grid[k])))
                for z in (pred, Z[-1]))
            in_band = (np.minimum(np.abs(pred), np.abs(pred - 1)).min()
                       < DEGENERACY_GUARD)
            if np.array_equal(start, Z[-1]):
                assert in_band or r_pred >= r_prev * (1 - 1e-9)
                kept += 1
            else:
                assert not in_band and r_pred < r_prev * (1 + 1e-9)
                assert np.abs(start - pred).max() < 1e-9
                taken += 1
    return taken, kept


def test_sweep_solves_each_theta_in_one_stacked_solve(monkeypatch):
    # each accepted theta is one row of the stacked solve it is accepted
    # from, and here every row is accepted the first time, so each theta
    # is one row of exactly one stacked solve; an obstructed theta enters
    # no Gauss-Newton stack
    calls, cores = record_stacks(monkeypatch), record_cores(monkeypatch)
    t = corpus("hopf")

    def xi_of(theta):
        return xi_by_degree(t, {1: cmath.exp(1j * theta),
                                4: cmath.exp(-2j * theta)})

    thetas = [math.pi / 2, 2 * math.pi / 3, 0.0, math.pi]
    points = sweep_family(t, xi_of, thetas,
                          initial=ShapeAssignment((0.2 + 0.9j,)))
    assert [len(stack.targets) for stack in calls] == [1, 1, 2]
    assert ([tuple(row) for stack in calls for row in stack.targets]
            == [xi_of(theta).xi for theta in thetas])
    assert [len(Z) for Z in cores] == [1, 1, 1]
    assert np.array_equal(cores[2], calls[2].starts[1:])    # theta = pi alone
    assert [p.result.converged for p in points] == [True, True, False, True]
    assert points[2].result.iterations == 0


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
    # the first block, whole, and eight grid points after it
    calls, rows = record_stacks(monkeypatch), solver_mod.BLOCK_ROWS
    t = random_systems()[0][0]
    E = build_exponent_matrix(t)
    xi_of = regular_family(t)
    grid = [2.0 * j / 15 for j in range(rows + 8)]
    points = sweep_family(t, xi_of, grid)
    assert all(p.result.converged for p in points)
    stacks = sweep_stacks(calls, grid, xi_of, points)
    check_schedule(calls, stacks, len(grid))
    assert ([idx for idx, _, _ in stacks[:3]]
            == [[0], [1], list(range(2, 2 + rows))])
    # every start, of kept and of rejected rows, obeys the safeguard
    taken, kept = check_predicted_starts(points, grid, stacks, E, xi_of)
    starts = [z for _, Z0, _ in stacks for z in Z0]
    assert tuple(starts[0]) == (REGULAR_SHAPE,) * t.tetra_count
    assert tuple(starts[1]) == points[0].result.shapes.z
    assert tuple(starts[2]) != points[1].result.shapes.z    # linear prediction
    assert taken and kept


def test_sweep_shorter_than_a_block(monkeypatch):
    calls = record_stacks(monkeypatch)
    t = corpus("hopf")
    grid = [math.pi / 3 + 0.05 * j for j in range(5)]
    points = sweep_family(t, closed_form_family(t, CLOSED_FORM["hopf"]), grid)
    assert [len(stack.starts) for stack in calls] == [1, 1, 3]
    for theta, p in zip(grid, points):
        assert p.result.converged
        assert abs(p.result.shapes[0] - cmath.exp(1j * theta)) < 1e-9


def test_sweep_block_with_an_obstructed_and_a_failing_theta(monkeypatch):
    # the hopf family through its ideal point theta = 0, where the
    # degree-one edges' targets are 1; at theta = 0.2 the degree-4 target
    # is turned by 0.5, so the product of the targets is not 1 and no
    # shapes reach them (the product of all h is 1).  The first block
    # rejects theta = 0.2 at its limit of 3 iterations, with every row
    # after it; the next block starts there, so its first row fails with
    # the whole iteration limit and its third, theta = 0, is obstructed;
    # the grid runs eight points past the first block
    calls, cores = record_stacks(monkeypatch), record_cores(monkeypatch)
    rows = solver_mod.BLOCK_ROWS
    t = corpus("hopf")
    E, edges = build_exponent_matrix(t), compute_edge_classes(t)
    closed = closed_form_family(t, CLOSED_FORM["hopf"])

    def xi_of(theta):
        turn = cmath.exp(0.5j) if theta == 0.2 else 1.0
        return ConeTarget(tuple(x * turn if e.degree == 4 else x
                                for x, e in zip(closed(theta).xi, edges)))

    n = rows + 8
    grid = [round(0.8 - 0.1 * j, 10) for j in range(n)]
    points = sweep_family(t, xi_of, grid)
    stacks = sweep_stacks(calls, grid, xi_of, points)
    check_schedule(calls, stacks, len(grid))
    assert [(idx, kept) for idx, _, kept in stacks] == [
        ([0], 1), ([1], 1), (list(range(2, 2 + rows)), 4),
        (list(range(6, 10)), 4), (list(range(10, n)), n - 10)]
    assert calls[2].results[4].reason == "max_iterations"
    # the obstructed theta = 0 (grid index 8) enters no Gauss-Newton stack
    assert [len(Z) for Z in cores] == [1, 1, rows - 1, 3, n - 10]
    assert np.array_equal(cores[3], np.delete(stacks[3][1], 2, axis=0))
    for theta, p in zip(grid, points):
        if theta == 0.0:
            assert p.result.reason == "degree_one_edge_obstruction"
            assert p.result == newton_solve(t, xi_of(theta), p.result.shapes)
        elif theta == 0.2:
            assert p.result.reason in ("stalled", "max_iterations")
            assert p.result.iterations > solver_mod.ACCEPT_ITERATIONS
        else:
            assert p.result.converged
            assert abs(p.result.shapes[0] - cmath.exp(1j * theta)) < 1e-9
    # the exact extrapolation to theta = 0 is z = 1, in the guard band:
    # the obstructed theta's own start is the last converged point before
    # its block, theta = 0.3
    assert points[8].result.shapes == points[5].result.shapes
    # the last block predicts from theta = 0.3, 0.1, -0.1 only
    taken, _ = check_predicted_starts(points, grid, stacks, E, xi_of)
    assert taken


def test_sweep_with_a_repeated_theta_starts_from_the_last_solution(
        monkeypatch):
    # the first block steps up by 0.05 from 1.2 and ends at a repeated
    # theta (1.45, 1.5, 1.5 for blocks of 8); through these nodes the
    # Lagrange weights are not defined, and the next block, stepping back
    # from the repeated theta, starts from the last solution
    calls, rows = record_stacks(monkeypatch), solver_mod.BLOCK_ROWS
    t = corpus("trefoil")
    xi_of = closed_form_family(t, CLOSED_FORM["trefoil"])
    up = [round(1.2 + 0.05 * j, 10) for j in range(rows - 1)]
    top = up[-1]
    grid = ([1.0, 1.1] + up + [top]
            + [round(top - 0.02 * j, 10) for j in (1, 2, 3)])
    points = sweep_family(t, xi_of, grid)
    for theta, p in zip(grid, points):
        assert p.result.converged
        assert abs(p.result.shapes[0] - cmath.exp(1j * theta)) < 1e-9
    # the first block is kept whole, so the next would be four times as
    # long; the grid's end cuts it to three
    stacks = sweep_stacks(calls, grid, xi_of, points)
    check_schedule(calls, stacks, len(grid))
    assert [len(stack.starts) for stack in calls] == [1, 1, rows, 3]
    last = points[rows + 1].result.shapes.z     # the first block's last row
    assert all(tuple(z) == last for z in calls[3].starts)


def test_sweep_of_the_n_512_chain_cover_solves_one_point_at_a_time(
        monkeypatch):
    # a block of two would already hold two 512-by-512 normal matrices,
    # above the stack's 4 MB
    calls = record_stacks(monkeypatch)
    t = parse_triangulation(chain_cover_text(256))
    grid = [0.0, 0.002, 0.004, 0.006]
    points = sweep_family(t, regular_family(t), grid)
    assert all(p.result.converged for p in points)
    assert [len(stack.starts) for stack in calls] == [1] * len(grid)


@pytest.mark.parametrize("name", ["hopf", "trefoil", "fig8_complement",
                                  "fig8_in_s3", "cover8"])
def test_a_64_point_sweep_takes_four_stacked_solves(monkeypatch, name):
    # cone_explore's families and grids: closed-form from pi/3 over 1.2,
    # else through the regular solution over 0.6.  One point at a time
    # until two have converged, then a first block of BLOCK_ROWS = 16 and,
    # kept whole, one of the 46 points left
    calls = record_stacks(monkeypatch)
    if name in CLOSED_FORM:
        t = corpus(name)
        xi_of = closed_form_family(t, CLOSED_FORM[name])
        grid = [math.pi / 3 + 1.2 * j / 63 for j in range(64)]
    else:
        t = (parse_triangulation(chain_cover_text(4)) if name == "cover8"
             else corpus(name))
        xi_of, grid = regular_family(t), [0.6 * j / 63 for j in range(64)]
    points = sweep_family(t, xi_of, grid)
    assert [len(stack.starts) for stack in calls] == [1, 1, 16, 46]
    assert all(p.result.converged for p in points)
    if name in CLOSED_FORM:
        for theta, p in zip(grid, points):
            assert abs(p.result.shapes[0] - cmath.exp(1j * theta)) < 1e-9


def test_sweep_corrects_its_blocks_with_few_jacobians(monkeypatch):
    calls = []
    jac = solver_mod.jacobian

    def counted(Z, E, *h):
        calls.append(np.shape(Z))
        return jac(Z, E, *h)

    monkeypatch.setattr(solver_mod, "jacobian", counted)
    t = corpus("fig8_in_s3")
    grid = [0.6 * j / 63 for j in range(64)]
    points = sweep_family(t, regular_family(t), grid)
    assert all(p.result.converged for p in points)
    assert len(calls) <= 11, calls


def test_sweep_rejects_a_slow_row_and_predicts_it_again(monkeypatch):
    # on this family the rows of a long block need more than three
    # iterations from about the third on
    calls = record_stacks(monkeypatch)
    t = random_systems()[0][0]
    E, xi_of = build_exponent_matrix(t), regular_family(t)
    grid = [2.0 * j / 15 for j in range(16)]
    points = sweep_family(t, xi_of, grid)
    stacks = sweep_stacks(calls, grid, xi_of, points)
    check_schedule(calls, stacks, len(grid))
    check_predicted_starts(points, grid, stacks, E, xi_of)
    cut = [k for k, (idx, _, kept) in enumerate(stacks)
           if 1 < kept < len(idx)]
    assert cut
    for k in cut:
        idx, Z0, kept = stacks[k]
        slow = calls[k].results[kept]
        assert not slow.converged
        assert slow.iterations == solver_mod.ACCEPT_ITERATIONS
        # the slow row heads the next block, from a new prediction
        assert stacks[k + 1][0][0] == idx[kept]
        assert not np.array_equal(stacks[k + 1][1][0], Z0[kept])
    for stack, (idx, Z0, kept) in zip(calls, stacks):
        for res in stack.results[1:kept]:
            assert res.converged
            assert res.iterations <= solver_mod.ACCEPT_ITERATIONS
        for j in range(kept):   # each kept row is newton_solve from its start
            assert points[idx[j]].result == newton_solve(
                t, xi_of(grid[idx[j]]), ShapeAssignment(tuple(Z0[j])))


def test_sweep_accepts_an_obstructed_theta_in_mid_block(monkeypatch):
    # the hopf closed-form family stepping down through its ideal point
    # theta = 0: the first block, from 0.4 down, holds theta = 0 at its
    # fifth row, and every other row converges from its prediction; the
    # grid runs three points past the first block
    calls, rows = record_stacks(monkeypatch), solver_mod.BLOCK_ROWS
    t = corpus("hopf")
    xi_of = closed_form_family(t, CLOSED_FORM["hopf"])
    n = rows + 5
    grid = [round(0.6 - 0.1 * j, 10) for j in range(n)]
    points = sweep_family(t, xi_of, grid)
    stacks = sweep_stacks(calls, grid, xi_of, points)
    check_schedule(calls, stacks, len(grid))
    assert [(idx, kept) for idx, _, kept in stacks] == [
        ([0], 1), ([1], 1), (list(range(2, 2 + rows)), rows),
        (list(range(2 + rows, n)), n - 2 - rows)]
    obstructed = points[6].result
    assert obstructed.reason == "degree_one_edge_obstruction"
    assert obstructed.iterations == 0 and obstructed.residual_norm == math.inf
    # its start is the last converged point before the block, since the
    # prediction z = 1 lies in the guard band
    assert obstructed.shapes == points[1].result.shapes
    assert obstructed == newton_solve(t, xi_of(0.0), points[1].result.shapes)
    for theta, p in zip(grid, points):
        if theta != 0.0:
            assert p.result.converged
            assert abs(p.result.shapes[0] - cmath.exp(1j * theta)) < 1e-9


def test_sweep_of_a_long_uneven_grid_matches_plain_continuation(monkeypatch):
    # 150 thetas 0.01 apart, a jump, and 60 thetas 0.005 apart: blocks of
    # 16, 64 and 128 rows predict from ever farther back, across the jump
    calls = []
    jac = solver_mod.jacobian

    def counted(Z, E, *h):
        calls.append(len(Z) if np.ndim(Z) > 1 else 1)
        return jac(Z, E, *h)

    t = corpus("hopf")
    xi_of = closed_form_family(t, CLOSED_FORM["hopf"])
    grid = ([round(0.3 + 0.01 * j, 10) for j in range(150)]
            + [round(2.6 + 0.005 * j, 10) for j in range(60)])
    oracle = plain_continuation(t, xi_of, grid)
    monkeypatch.setattr(solver_mod, "jacobian", counted)
    points = sweep_family(t, xi_of, grid)
    assert ([p.result.converged for p in points]
            == [res.converged for res in oracle])
    assert all(p.result.converged for p in points)
    for p, res in zip(points, oracle):
        assert np.abs(np.subtract(p.result.shapes.z,
                                  res.shapes.z)).max() < 1e-9
    # the first two solves take 9 iterations, one row each; past them no
    # row needs more than one correction, and all of those share one call
    assert max(p.result.iterations for p in points[2:]) <= 1
    assert len(calls) <= 10, calls


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


def test_sample_does_not_depend_on_the_last_bits_of_its_start():
    # trefoil, seed 11, start 7 and its neighbours 1 and 2 ulps apart in
    # Re z: the real Jacobian's noise-level singular value once sat just
    # above lstsq's cutoff there, and three of the five were dropped
    t = corpus("trefoil")
    cfg = SolverConfig(seed=11)
    z = random_starts(t, 32, cfg)[7].z[0]
    points = []
    for k in (-2, -1, 0, 1, 2):
        start = ShapeAssignment((complex(z.real + k * np.spacing(z.real),
                                         z.imag),))
        samples, dropped = cone_locus_sample(t, [start], cfg)
        assert dropped == 0
        points.append(samples[0][0][0])
    assert max(abs(p - points[2]) for p in points) <= 1e-12


def test_sampler_keeps_the_corpus_starts():
    kept = total = 0
    for name in CORPUS_NAMES:
        t = corpus(name)
        for seed in range(20):
            cfg = SolverConfig(seed=seed)
            samples, dropped = cone_locus_sample(t, random_starts(t, 32, cfg),
                                                 cfg)
            kept, total = kept + len(samples), total + len(samples) + dropped
    assert total == 3200
    assert kept == 3200


def test_sampler_keeps_every_chain_cover_start(monkeypatch):
    # on the 8-tetrahedron chain cover, starts where |h| is about 100 took
    # damped steps on |h| - 1 that cut it by about 0.1 % per iteration:
    # 4 of these 640 starts ran all 100 iterations and were dropped.  On
    # log|h| every start is kept, the slowest within 14 iterations
    iterations = []
    core = solver_mod._damped_gauss_newton

    def recorded(*args):
        out = core(*args)
        iterations.extend(out[3])
        return out

    monkeypatch.setattr(solver_mod, "_damped_gauss_newton", recorded)
    t = parse_triangulation(chain_cover_text(4))
    for seed in range(20):
        cfg = SolverConfig(seed=seed)
        samples, dropped = cone_locus_sample(t, random_starts(t, 32, cfg), cfg)
        assert dropped == 0 and len(samples) == 32
    assert len(iterations) == 640 and max(iterations) <= 20


def test_chain_cover_samples_lie_on_the_unit_circle_to_the_tolerance():
    # a sample row stopped as soon as every ||h(e)| - 1| was below 1e-8,
    # so 17 % of these 640 targets sat more than 1e-9 off the unit circle;
    # it now converges as every solve does, at |log|h|| < tol
    t = parse_triangulation(chain_cover_text(4))
    worst = 0.0
    for seed in range(20):
        cfg = SolverConfig(seed=seed)
        samples, dropped = cone_locus_sample(t, random_starts(t, 32, cfg), cfg)
        assert dropped == 0 and len(samples) == 32
        worst = max([worst] + [abs(abs(x) - 1.0) for _, xi in samples
                               for x in xi.xi])
    assert worst <= 1e-10


def test_random_starts_reject_a_negative_count():
    # a negative count was read as 0
    t = corpus("hopf")
    with pytest.raises(IdealGlueError, match="count must be >= 0, got -5"):
        random_starts(t, -5)
    assert random_starts(t, 0) == []


@pytest.mark.parametrize("count", [2.5, "3", True, np.bool_(True), None])
def test_random_starts_reject_what_is_no_count(count):
    # 2.5 and "3" ended in a bare TypeError, and True was taken as 1
    with pytest.raises(IdealGlueError, match="count must be an int, got"):
        random_starts(corpus("hopf"), count)


def test_random_starts_take_any_integer_type():
    t = corpus("fig8_complement")
    assert random_starts(t, np.int64(3)) == random_starts(t, 3)


def test_sampler_targets_are_xi_from_shapes_of_the_converged_rows(monkeypatch):
    # the kept set and each target are the per-sample xi_from_shapes ones,
    # built from the holonomies the loop stopped on: no holonomy call
    # follows the loop
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
        Z, _, _, _, reasons = rows.pop()
        want = []
        for z, reason in zip(Z, reasons):
            if reason == "converged":
                S = ShapeAssignment(z)
                want.append((S, xi_from_shapes(S, E)))
        assert samples == want and dropped == len(Z) - len(want)
        assert calls == []


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
    for q in range(1, solver_mod.Q_MAX + 1):
        acc *= xi
        assert abs(acc - 1) >= solver_mod.ROOT_TOL
    assert order_of_root_of_unity(xi) == math.inf


def test_order_requires_unit_modulus():
    with pytest.raises(NotUnitModulus):
        order_of_root_of_unity(1.01)


def test_order_is_the_least_q_the_loop_over_q_finds(rng):
    # the oracle tests every q <= Q_MAX; the targets are roots of unity of
    # orders up to 12,000, some turned by up to 1e-9 rad, random angles
    # and the four units
    def loop(xi):
        angle = cmath.phase(xi)
        return next((q for q in range(1, solver_mod.Q_MAX + 1)
                     if 2.0 * abs(math.sin(0.5 * q * angle))
                     < solver_mod.ROOT_TOL), math.inf)

    targets = [1, -1, 1j, -1j]
    orders = np.exp(rng.uniform(0, math.log(12_000), 120)).astype(int)
    for q in np.unique(orders):
        angle = 2 * math.pi * int(rng.integers(q)) / q
        targets += [cmath.exp(1j * angle),
                    cmath.exp(1j * (angle + rng.uniform(0, 1e-9)))]
    targets += [cmath.exp(1j * a) for a in rng.uniform(-math.pi, math.pi, 40)]
    for xi in targets:
        assert order_of_root_of_unity(xi) == loop(complex(xi)), xi


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
    rep = branched_cover_report(build_exponent_matrix(t), xi)
    by_degree = {e.degree: e.index for e in edges}
    j1, j4 = by_degree[1], by_degree[4]
    assert rep.orders[j1] == 2 and rep.lifted_degrees[j1] == 2
    assert rep.orders[j4] == 1 and rep.lifted_degrees[j4] == 4
    assert rep.all_orders_finite and not rep.trivial_cover
    for e in edges:
        assert rep.lifted_degrees[e.index] == rep.orders[e.index] * e.degree


def test_branched_cover_trivial_and_infinite():
    t = corpus("fig8_complement")
    E = build_exponent_matrix(t)
    rep = branched_cover_report(E, ConeTarget.ones(2))
    assert rep.trivial_cover and rep.all_orders_finite
    assert rep.orders == (1, 1)
    assert rep.lifted_degrees == (6, 6)

    xi = ConeTarget((cmath.exp(1j), cmath.exp(-1j)))
    rep = branched_cover_report(E, xi)
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
    orders = sorted(cert.cover.orders)
    lifted = sorted(cert.cover.lifted_degrees)
    assert orders == [2, 4, 4]
    assert lifted == [4, 4, 8]
    assert "essential" in cert.statement


def test_a_target_within_unit_tol_of_the_circle_certifies():
    # |xi| = 1 + 3e-9 passes ConeTarget's unit-circle test, and so every
    # later one: the order search, the certificate and the report's re-check
    t = corpus("hopf")
    r, third = 1 + 3e-9, cmath.exp(2j * math.pi / 3)
    xi = ConeTarget((r * third, cmath.exp(-4j * math.pi / 3) / r**2,
                     r * third))
    res = newton_solve(t, xi, ShapeAssignment((0.1 + 0.9j,)))
    assert res.converged
    cert = essential_edge_certificate(t, res, xi)
    assert cert.cover.orders == (3, 3, 3)
    rep = build_solution_report(t, res.shapes, xi, res.residual_norm,
                                certificate=cert)
    assert all(c.ok for c in verify_report(rep))


def test_certificate_at_exactly_ten_tol():
    # the certificate and verify_report share residual_check's
    # res <= 10 tol, so a residual exactly at the bound is certified
    t = corpus("fig8_complement")
    res = newton_solve(t, ConeTarget.ones(2),
                       ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    r = float(np.linalg.norm(evaluate_residual(
        res.shapes, build_exponent_matrix(t), ConeTarget.ones(2))))
    cfg = SolverConfig(tol=r / 10)
    assert 10 * cfg.tol == r
    assert solver_mod.residual_check(r, cfg) == (True, r)
    cert = essential_edge_certificate(t, res, ConeTarget.ones(2), cfg)
    assert cert.residual_norm == r
    assert solver_mod.residual_check(math.nextafter(r, math.inf), cfg)[0] is False


def test_certificate_requires_convergence():
    t = corpus("hopf")
    res = newton_solve(t, ConeTarget.ones(3), ShapeAssignment((0.3 + 0.9j,)))
    with pytest.raises(NotConverged):
        essential_edge_certificate(t, res, ConeTarget.ones(3))


def test_certificate_refuses_a_claimed_solution_that_solves_nothing():
    # a result that claims convergence is re-evaluated, not trusted
    t = corpus("fig8_complement")
    claimed = solver_mod.SolveResult(ShapeAssignment((0.5 + 0.8j,) * 2), 0.0,
                                     0, True)
    with pytest.raises(NotConverged,
                       match=r"^re-evaluated residual \S+ too large$") as info:
        essential_edge_certificate(t, claimed, ConeTarget.ones(2))
    assert info.value.result is None


def test_certificate_states_that_edges_of_infinite_order_are_not_manifold_points():
    # hopf's family z = exp(i theta) at theta = 1: no target is a root of unity
    t = corpus("hopf")
    xi = xi_by_degree(t, {1: cmath.exp(1j), 4: cmath.exp(-2j)})
    res = newton_solve(t, xi, ShapeAssignment((0.2 + 0.9j,)))
    cert = essential_edge_certificate(t, res, xi)
    assert cert.kind == "branched_cover"
    assert not cert.cover.all_orders_finite
    assert all(math.isinf(o) for o in cert.cover.orders)
    assert cert.statement.endswith("; edges of infinite order lift to "
                                   "non-manifold points of the cover")


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


@pytest.mark.parametrize("kwargs", [
    {"max_iterations": -1}, {"tol": math.nan}, {"tol": math.inf},
    {"tol": 0.0}, {"tol": -1e-10}, {"seed": -1}, {"tol": True},
    {"tol": "1e-10"}, {"tol": None},
])
def test_solver_config_rejects_values_no_solve_can_use(kwargs):
    # max_iterations = -1 ended in a TypeError from norm(None), a nan tol
    # ran every solve to max_iterations, a negative seed ended in NumPy's
    # ValueError from random_starts, a bool tol was taken as 1, and a text
    # or None tol ended in a TypeError from math.isfinite
    with pytest.raises(IdealGlueError, match=next(iter(kwargs))):
        SolverConfig(**kwargs)


def test_solver_config_rejects_a_fractional_iteration_limit():
    # was a TypeError from range() inside the Gauss-Newton loop
    with pytest.raises(IdealGlueError, match="max_iterations must be an int"):
        SolverConfig(max_iterations=2.5)


def test_solver_config_rejects_an_iteration_limit_given_as_text():
    # was a TypeError from the comparison in SolverConfig itself
    with pytest.raises(IdealGlueError, match="max_iterations must be an int"):
        SolverConfig(max_iterations="3")


def test_solver_config_rejects_a_fractional_seed():
    # was accepted, and random_starts then raised a TypeError
    with pytest.raises(IdealGlueError, match="seed must be an int"):
        SolverConfig(seed=1.5)


@pytest.mark.parametrize("field", ["max_iterations", "seed"])
def test_solver_config_rejects_a_bool(field):
    with pytest.raises(IdealGlueError, match=f"{field} must be an int"):
        SolverConfig(**{field: True})


@pytest.mark.parametrize("value", [np.int64(3), np.uint8(3), np.intp(3)])
@pytest.mark.parametrize("field", ["max_iterations", "seed"])
def test_solver_config_takes_any_integer_type_as_an_int(field, value):
    # a NumPy integer was rejected as "not an int" while tol took NumPy
    # scalars; it is kept as the int it stands for
    cfg, plain = SolverConfig(**{field: value}), SolverConfig(**{field: 3})
    assert type(getattr(cfg, field)) is int
    assert cfg == plain and hash(cfg) == hash(plain) and repr(cfg) == repr(plain)


@pytest.mark.parametrize("value, message", [
    (np.bool_(True), "must be an int"), (np.float64(3.0), "must be an int"),
    (3.0, "must be an int"), ("3", "must be an int"), (None, "must be an int"),
    (np.int64(-1), "must be >= 0"),
])
@pytest.mark.parametrize("field", ["max_iterations", "seed"])
def test_solver_config_rejects_what_is_no_count(field, value, message):
    with pytest.raises(IdealGlueError, match=f"{field} {message}"):
        SolverConfig(**{field: value})


@pytest.mark.parametrize("m", [1, 3])
def test_cover_report_rejects_a_target_of_the_wrong_length(m):
    E = build_exponent_matrix(corpus("fig8_complement"))
    with pytest.raises(IdealGlueError, match=f"expected 2 xi entries .* got {m}"):
        branched_cover_report(E, ConeTarget.ones(m))
