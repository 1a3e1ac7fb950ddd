"""The batched damped Gauss-Newton core against the per-start loop it
replaced, kept here as the oracle: `newton_solve` must agree with it bit
for bit, `cone_locus_sample` in every keep/drop decision and to 1e-12 on
the kept points.  Both loops take the cusp-relation step, the sampler's
on the log-modulus system log|h(e)| = 0."""
import cmath
import warnings

import numpy as np
import pytest

from idealglue import (CORPUS_NAMES, REGULAR_SHAPE, ConeTarget,
                       NotUnitModulus, ShapeAssignment, SolveResult,
                       SolverConfig, all_holonomies,
                       build_exponent_matrix, compute_edge_classes,
                       cone_locus_sample, corpus, evaluate_residual,
                       jacobian, newton_solve,
                       parse_triangulation, random_starts, regular_solution,
                       sweep_family, xi_from_shapes)
from idealglue import solver as solver_mod
from idealglue.gluing import (DEGENERACY_GUARD, log_jacobian, normal_index,
                              normal_matrix, pair_adjoint, pair_matvec,
                              pair_rmatvec)
from idealglue.solver import (MAX_HALVINGS, _damped_gauss_newton, _newton_rows,
                             _take_steps)

from conftest import chain_cover_text, random_shapes, random_systems


# ------------------------------------------------- the per-start oracle

def scalar_in_guard(z):
    return any(min(abs(w), abs(w - 1.0)) < DEGENERACY_GUARD for w in z)


def outer_product_normal_matrix(D, U):
    """D D^H + U^H U for one m-by-n matrix D, summed as U^H U plus one
    outer product of D's columns per tetrahedron, in tetrahedron order; the
    real part of each outer product when U is real."""
    M = U.conj().T @ U
    for column in D.T:
        layer = np.outer(column, column.conj())
        M += layer if np.iscomplexobj(M) else layer.real
    return M


def relation_step(V, E, b, M):
    """The min-norm least-squares solution of A x = b for one matrix A with
    the values V on E's pairs, given M = A A^H + U^H U: A^H M^-1 b when it
    meets the optimality condition |A^H (A x - b)| <= 1e-8 |A^H b|, else
    lstsq's.  A is the complex J with complex M, and with real M the real
    [Re D, -Im D], whose step is taken as a complex vector.  A x and A^H y
    are the library's products on the pairs, so they sum in its order."""
    real, Vh = not np.iscomplexobj(M), pair_adjoint(V, E)

    def A(x):
        Ax = pair_matvec(V, E, x)
        return Ax.real if real else Ax

    try:
        x = pair_rmatvec(Vh, E, np.linalg.solve(M, b))
        if (np.linalg.norm(pair_rmatvec(Vh, E, A(x) - b))
                <= 1e-8 * np.linalg.norm(pair_rmatvec(Vh, E, b))):
            return x
    except np.linalg.LinAlgError:
        pass
    return lstsq_step(V, E, b, M)


def halving_search(residual, z, step, r):
    """z moved by the first of step, step / 2, step / 4, ... (MAX_HALVINGS
    in all) that stays off the guard band and lowers the residual norm
    below r, one candidate per residual call; None when none does."""
    lam = 1.0
    for _ in range(MAX_HALVINGS):
        cand = z + lam * step
        lam *= 0.5
        if not scalar_in_guard(cand) and np.linalg.norm(residual(cand)) < r:
            return cand
    return None


def scalar_gauss_newton(residual, directions, z, cfg):
    """The per-start loop: a row converges when its residual 2-norm is
    below cfg.tol."""
    for it in range(cfg.max_iterations):
        F = residual(z)
        r = np.linalg.norm(F)
        if r < cfg.tol:
            return z, F, it, "converged"
        steps = directions(z, F)
        for step in steps:
            cand = halving_search(residual, z, step, r)
            if cand is not None:
                z = cand
                break
        else:
            near = scalar_in_guard(z + steps[0])
            return z, F, it, "degenerate_shape" if near else "stalled"
    F = residual(z)
    return (z, F, cfg.max_iterations, "converged"
            if np.linalg.norm(F) < cfg.tol else "max_iterations")


def lstsq_step(V, E, b, M):
    """lstsq's min-norm step on the dense A of `relation_step`, which
    ignores the relations in M."""
    D, n = E.dense(V), E.tet_count
    if np.iscomplexobj(M):
        return np.linalg.lstsq(D, b, rcond=None)[0]
    x = np.linalg.lstsq(np.concatenate([D.real, -D.imag], axis=1), b,
                        rcond=None)[0]
    return x[:n] + 1j * x[n:]


def scalar_newton(t, xi, initial, cfg, least_squares=relation_step):
    """(z, residual norm, iterations, reason) of the per-start solve, with
    its step from `least_squares`."""
    E = build_exponent_matrix(t)

    def directions(z, F):
        V = jacobian(z, E)
        step = least_squares(V, E, -F, outer_product_normal_matrix(
            E.dense(V), E.relations / all_holonomies(z, E)))
        kick = 0.05 * (1.0 + np.abs(z)) * np.exp(0.7j * (1 + np.arange(len(z))))
        kicks = [kick, 1j * kick, -kick]
        if np.linalg.norm(step) < 1e-12 * (1.0 + np.linalg.norm(z)):
            return kicks
        return [step] + kicks

    z, F, it, reason = scalar_gauss_newton(
        lambda z: evaluate_residual(z, E, xi), directions,
        np.array(initial.z, dtype=complex), cfg)
    return tuple(z), float(np.linalg.norm(F)), it, reason


def scalar_sample(t, start, cfg):
    """The projected start when the per-start sampler keeps it, else None:
    Gauss-Newton on log|h(e)| with the real step on D = d log h / dz and
    U = W, stopped, as every solve, when its residual norm |log|h|| is
    below cfg.tol."""
    E = build_exponent_matrix(t)

    def residual(z):
        with np.errstate(divide="ignore"):
            return np.log(np.abs(all_holonomies(z, E)))

    def directions(z, F):
        D = log_jacobian(z, E)
        return [relation_step(D, E, -F, outer_product_normal_matrix(
            E.dense(D), E.relations))]

    z, _, _, reason = scalar_gauss_newton(
        residual, directions, np.array(start.z, dtype=complex), cfg)
    if reason != "converged":
        return None
    try:
        xi_from_shapes(ShapeAssignment(z), E)
    except NotUnitModulus:
        return None
    return z


def scalar_random_starts(t, count, seed):
    rng = np.random.default_rng(seed)
    starts = []
    while len(starts) < count:
        z = []
        while len(z) < t.tetra_count:
            w = complex(rng.uniform(-2, 2), rng.uniform(0, 2))
            if abs(w) > 2 or w.imag < 1e-3:
                continue
            if min(abs(w), abs(w - 1)) < 10 * DEGENERACY_GUARD:
                continue
            z.append(w)
        starts.append(ShapeAssignment(tuple(z)))
    return starts


def test_random_starts_are_the_one_at_a_time_draws():
    systems = [corpus(name) for name in CORPUS_NAMES]
    systems += [t for t, _, _ in random_systems()]
    for t in systems:
        for seed in (0, 1, 7, 2**31 - 1):
            for count in (0, 1, 32, 100):
                got = random_starts(t, count, SolverConfig(seed=seed))
                want = scalar_random_starts(t, count, seed)
                assert [S.z for S in got] == [S.z for S in want]
                assert all(type(w) is complex for S in got for w in S.z)


# ------------------------------------------------------------ newton_solve

def newton_cases(rng):
    """(triangulation, xi, start, cfg) over the corpus and random systems:
    regular cone targets and xi = 1 where it is not obstructed, random
    starts, three stationary hopf starts, a short iteration limit and a
    tolerance below rounding (which ends in a stall)."""
    systems = [corpus(name) for name in CORPUS_NAMES]
    systems += [t for t, _, _ in random_systems()]
    cfgs = (SolverConfig(), SolverConfig(max_iterations=2),
            SolverConfig(tol=1e-30, max_iterations=40))
    for t in systems:
        _, regular_xi, _ = regular_solution(t)
        targets = [regular_xi]
        if all(e.degree > 1 for e in compute_edge_classes(t)):
            targets.append(ConeTarget.ones(len(regular_xi)))
        for xi in targets:
            for cfg in cfgs:
                for _ in range(3):
                    yield t, xi, random_shapes(rng, t.tetra_count,
                                               upper_only=True), cfg
    hopf = corpus("hopf")
    by_degree = {1: -1, 4: 1}
    xi = ConeTarget(tuple(by_degree[e.degree]
                          for e in compute_edge_classes(hopf)))
    for angle in (-1.2e-8, -2e-8, -5e-8):
        start = ShapeAssignment((REGULAR_SHAPE * cmath.exp(1j * angle),))
        yield hopf, xi, start, SolverConfig()


def test_newton_solve_is_bitwise_the_per_start_loop(rng):
    reasons = set()
    for t, xi, start, cfg in newton_cases(rng):
        res = newton_solve(t, xi, start, cfg)
        z, r, it, reason = scalar_newton(t, xi, start, cfg)
        assert res.shapes.z == z
        assert res.residual_norm == r
        assert (res.iterations, res.reason) == (it, reason)
        reasons.add(reason)
    assert reasons >= {"converged", "max_iterations", "stalled"}


def test_stacked_rows_are_each_the_row_alone(rng):
    # newton_cases grouped by triangulation and config, each group one
    # stack with mixed targets: the hopf group holds the stationary starts,
    # whose rows are kicked, and the other groups rows that stall or
    # reach max_iterations.  Where t has degree-one edges, xi = 1 rows,
    # which are obstructed, are stacked among the others too, and leave
    # the other rows' results as they are without them
    groups = {}
    for t, xi, start, cfg in newton_cases(rng):
        groups.setdefault((id(t), cfg), []).append((t, xi, start))

    def solve(t, cases, cfg):
        return _newton_rows(build_exponent_matrix(t),
                            np.array([xi.xi for _, xi, _ in cases]),
                            [start.z for _, _, start in cases], cfg)

    reasons = []
    for (_, cfg), cases in groups.items():
        t = cases[0][0]
        ordinary, ones = solve(t, cases, cfg), ConeTarget.ones(len(cases[0][1]))
        degree_one = any(e.degree == 1 for e in compute_edge_classes(t))
        if degree_one:
            for k in (len(cases), len(cases) // 2, 0):
                start = random_shapes(rng, t.tetra_count, upper_only=True)
                cases = cases[:k] + [(t, ones, start)] + cases[k:]
        stacked = solve(t, cases, cfg)
        assert len(stacked) == len(cases)
        for (_, xi, start), res in zip(cases, stacked):
            alone = newton_solve(t, xi, start, cfg)
            assert res.shapes.z == alone.shapes.z
            assert res.residual_norm == alone.residual_norm
            assert (res.iterations, res.reason) == (alone.iterations,
                                                    alone.reason)
            obstructed = res.reason == "degree_one_edge_obstruction"
            assert obstructed == (degree_one and xi == ones)
            if obstructed:
                assert res == alone and res.shapes == start
            # a row's result is the one SolveResult's own __init__ builds
            # from its fields, in equality, repr, hash and field order
            built = SolveResult(*(getattr(res, name)
                                  for name in SolveResult._fields))
            assert res == built and hash(res) == hash(built)
            assert repr(res) == repr(built)
            assert list(res._asdict().items()) == list(built._asdict().items())
            reasons.append(res.reason)
        assert [res for res in stacked if res.reason !=
                "degree_one_edge_obstruction"] == ordinary
    assert len(reasons) > len(groups)
    assert set(reasons) >= {"converged", "max_iterations", "stalled",
                            "degree_one_edge_obstruction"}


# ------------------------------------------------------- cone_locus_sample

@pytest.mark.parametrize("name", CORPUS_NAMES)
def test_sampler_agrees_with_the_per_start_loop(name, monkeypatch):
    rows = []

    def recorded(*args):
        out = _damped_gauss_newton(*args)
        rows.append(out)
        return out

    monkeypatch.setattr(solver_mod, "_damped_gauss_newton", recorded)
    t = corpus(name)
    E = build_exponent_matrix(t)
    # every start converges within the default limit; at 4 iterations
    # some are dropped, so both decisions are compared
    for seed, limit in ((0, 100), (1, 100), (2, 100), (0, 4)):
        cfg = SolverConfig(seed=seed, max_iterations=limit)
        starts = random_starts(t, 64, cfg)
        samples, dropped = cone_locus_sample(t, starts, cfg)
        Z, _, _, _, reasons = rows.pop()
        kept = [reason == "converged" for reason in reasons]
        assert dropped == len(starts) - len(samples) == kept.count(False)
        assert [S.z for S, _ in samples] == [tuple(z) for z, k
                                             in zip(Z, kept) if k]
        for S, xi in samples:
            assert xi_from_shapes(S, E) == xi
        for start, z, k in zip(starts, Z, kept):
            want = scalar_sample(t, start, cfg)
            assert k == (want is not None)
            if k:
                assert np.abs(z - want).max() <= 1e-12


def test_a_loose_tolerance_drops_samples_off_the_unit_circle():
    # at tol = 1e-6 a converged row can miss ConeTarget's 1e-8 test on
    # |h(e)|: building its target raised NotUnitModulus.  It is dropped,
    # as the per-start loop drops it
    t = corpus("fig8_in_s3")
    E = build_exponent_matrix(t)
    cfg = SolverConfig(seed=1, tol=1e-6)
    starts = random_starts(t, 32, cfg)
    samples, dropped = cone_locus_sample(t, starts, cfg)
    want = [z for z in (scalar_sample(t, s, cfg) for s in starts)
            if z is not None]
    assert 0 < dropped == len(starts) - len(want)
    for (S, xi), z in zip(samples, want, strict=True):
        assert np.abs(np.array(S.z) - z).max() <= 1e-12
        assert xi == xi_from_shapes(S, E)


def test_sampler_with_no_starts():
    t = corpus("fig8_in_s3")
    assert cone_locus_sample(t, [], SolverConfig()) == ([], 0)


def test_sampler_batches_its_kernel_calls(monkeypatch):
    # one Jacobian (of log h) per iteration for the whole batch, not one
    # per start
    calls = []
    jac = solver_mod.log_jacobian

    def counted(Z, E):
        calls.append(np.shape(Z))
        return jac(Z, E)

    monkeypatch.setattr(solver_mod, "log_jacobian", counted)
    t = corpus("fig8_in_s3")
    cfg = SolverConfig(seed=5)
    samples, _ = cone_locus_sample(t, random_starts(t, 32, cfg), cfg)
    assert samples and calls and calls[0] == (32, t.tetra_count)
    assert len(calls) <= cfg.max_iterations + 1


def test_solves_hand_their_holonomies_to_the_jacobian(monkeypatch):
    # each step evaluated h twice at the same point: for U = W / h and
    # again inside the Jacobian.  The sampler's step reads d log h / dz,
    # which needs no h, so it builds no Jacobian of h at all
    calls = []
    jac = solver_mod.jacobian

    def recorded(Z, E, h=None):
        calls.append(h is not None and np.array_equal(h, all_holonomies(Z, E)))
        return jac(Z, E, h)

    monkeypatch.setattr(solver_mod, "jacobian", recorded)
    cfg = SolverConfig(seed=5)
    t = corpus("fig8_in_s3")
    cone_locus_sample(t, random_starts(t, 8, cfg), cfg)
    assert not calls
    newton_solve(corpus("fig8_complement"), ConeTarget.ones(2),
                 ShapeAssignment((0.5 + 0.8j, 0.5 + 0.8j)))
    assert calls and all(calls)


def spy_normal_matrix(monkeypatch):
    """The M and row count of every normal matrix a solve's step forms."""
    calls = []

    def recorded(V, E, M, index):
        calls.append((M, len(V)))
        return normal_matrix(V, E, M, index)

    monkeypatch.setattr(solver_mod, "normal_matrix", recorded)
    return calls


def assert_one_workspace(calls, dtype):
    # every step's M is written in place into a prefix of the array the
    # first step wrote into: one workspace for the whole solve
    first = calls[0][0]
    assert len(calls) > 1 and first.dtype == dtype
    for M, rows in calls:
        assert M.shape == (rows,) + first.shape[1:]
        assert M.flags.c_contiguous and np.shares_memory(M, first)
        assert M.__array_interface__["data"] == first.__array_interface__[
            "data"]


def test_a_solve_writes_every_normal_matrix_into_one_workspace(monkeypatch):
    calls = spy_normal_matrix(monkeypatch)
    t = parse_triangulation(chain_cover_text(8))
    start = REGULAR_SHAPE + 0.02 * np.exp(0.3j * np.arange(16))
    res = newton_solve(t, ConeTarget.ones(16), ShapeAssignment(start))
    assert res.converged and len(calls) == res.iterations
    assert_one_workspace(calls, complex)


def test_a_sweep_block_writes_into_one_workspace_as_rows_stop(monkeypatch):
    # a block of starts at growing distances from the complete structure,
    # the later rows with the sweep's short limit: the rows stop at
    # different iterations, and each step writes into a prefix of the
    # workspace the block's first step allocated
    calls = spy_normal_matrix(monkeypatch)
    t = parse_triangulation(chain_cover_text(4))
    E = build_exponent_matrix(t)
    Z0 = REGULAR_SHAPE + np.outer([1e-9, 1e-3, 0.05, 0.2],
                                  np.exp(0.3j * np.arange(8)))
    cfg = SolverConfig()
    results = _newton_rows(E, np.ones((4, 8), dtype=complex), Z0, cfg,
                           [cfg.max_iterations, 3, 3, 3])
    assert len({res.iterations for res in results}) > 1
    assert len({rows for _, rows in calls}) > 1
    assert_one_workspace(calls, complex)


def test_the_sampler_writes_into_one_real_workspace(monkeypatch):
    calls = spy_normal_matrix(monkeypatch)
    t = parse_triangulation(chain_cover_text(4))
    cfg = SolverConfig(seed=3)
    samples, dropped = cone_locus_sample(t, random_starts(t, 32, cfg), cfg)
    assert len(samples) == 32 and not dropped
    assert calls[0][1] == 32 and len({rows for _, rows in calls}) > 1
    assert_one_workspace(calls, float)


def test_a_solve_builds_its_scatter_index_once(monkeypatch):
    # a newton_solve, a sweep block whose rows stop at different
    # iterations, and the sampler: each builds one scatter index, on its
    # first step, for the rows it starts with, and forms every normal
    # matrix through that very index, its prefix as rows stop
    built, used = [], []

    def counted(E, count):
        built.append((normal_index(E, count), count))
        return built[-1][0]

    def recorded(V, E, M, index):
        used.append(index)
        return normal_matrix(V, E, M, index)

    monkeypatch.setattr(solver_mod, "normal_index", counted)
    monkeypatch.setattr(solver_mod, "normal_matrix", recorded)
    t = parse_triangulation(chain_cover_text(4))
    E = build_exponent_matrix(t)
    entry = E.pair_entry

    def assert_one_index(rows, steps):
        (index, count), = built
        assert count == rows and len(used) == steps > 1
        assert all(u is index for u in used)
        offsets = np.arange(rows)[:, None] * E.edge_count ** 2
        assert np.array_equal(index, (offsets + entry).ravel())
        built.clear()
        used.clear()

    start = REGULAR_SHAPE + 0.02 * np.exp(0.3j * np.arange(8))
    res = newton_solve(t, ConeTarget.ones(8), ShapeAssignment(start))
    assert_one_index(1, res.iterations)
    Z0 = REGULAR_SHAPE + np.outer([1e-9, 1e-3, 0.05, 0.2],
                                  np.exp(0.3j * np.arange(8)))
    cfg = SolverConfig()
    results = _newton_rows(E, np.ones((4, 8), dtype=complex), Z0, cfg,
                           [cfg.max_iterations, 3, 3, 3])
    assert_one_index(4, max(res.iterations for res in results))
    cfg = SolverConfig(seed=3)
    samples, dropped = cone_locus_sample(t, random_starts(t, 32, cfg), cfg)
    assert len(samples) == 32 and not dropped
    assert_one_index(32, len(used))


# ---------------------------------------------------------- the core itself

def test_rows_of_a_batch_stop_for_their_own_reasons():
    # F(z) = z - 3i; the step is -F for Re z < 0 (one exact step), +F for
    # Re z > 10 (uphill: no halving decreases the residual) and -F/2 in
    # between (too slow for the tolerance within five iterations)
    cfg = SolverConfig(tol=1e-12, max_iterations=5)

    def residual(Z, rows, h=None):  # (F, h), here with h = Z
        return Z - 3j, Z

    def directions(Z, F, h, rows):
        gain = np.where(Z.real < 0, 1.0, np.where(Z.real > 10, -1.0, 0.5))
        return [-gain * F]

    starts = np.array([[-4 + 3j], [20 + 3j], [5 + 3j]])
    Z, r, _, its, reasons = _damped_gauss_newton(residual, directions, starts,
                                                 cfg)
    assert list(reasons) == ["converged", "stalled", "max_iterations"]
    assert list(its) == [1, 0, 5]
    assert Z[0, 0] == 3j and Z[1, 0] == 20 + 3j
    assert Z[2, 0] == 3j + 5 / 32
    for k, start in enumerate(starts):
        alone = _damped_gauss_newton(residual, directions, [start], cfg)
        assert np.array_equal(alone[0][0], Z[k])
        assert alone[1][0] == r[k] == abs(Z[k, 0] - 3j)
        assert (alone[3][0], alone[4][0]) == (its[k], reasons[k])


def test_every_row_the_core_hands_back_is_off_the_guard_band(monkeypatch):
    # the starts are ShapeAssignments or sweep predictions filtered by the
    # guard band, and a step is accepted only at a finite point off the
    # band, so every row the core returns makes a ShapeAssignment, whatever
    # the reason it stopped for
    returned = []
    core = solver_mod._damped_gauss_newton

    def recorded(*args):
        returned.append(core(*args))
        return returned[-1]

    monkeypatch.setattr(solver_mod, "_damped_gauss_newton", recorded)
    for name in CORPUS_NAMES:
        t = corpus(name)
        _, regular_xi, _ = regular_solution(t)
        for cfg in (SolverConfig(), SolverConfig(max_iterations=2),
                    SolverConfig(tol=1e-30, max_iterations=40)):
            for start in random_starts(t, 8, cfg):
                newton_solve(t, regular_xi, start, cfg)
    # the hopf family through its degree-one obstruction at theta = 0
    hopf = corpus("hopf")
    points = sweep_family(hopf, lambda theta: ConeTarget(tuple(
        cmath.exp(1j * theta * (1 if e.degree == 1 else -2))
        for e in compute_edge_classes(hopf))), [0.6, 0.3, 0.0, -0.3],
        initial=ShapeAssignment((0.2 + 0.9j,)))
    assert points[2].result.reason == "degree_one_edge_obstruction"
    dropped = 0
    for name in CORPUS_NAMES:
        cfg = SolverConfig(max_iterations=4)
        t = corpus(name)
        dropped += cone_locus_sample(t, random_starts(t, 32, cfg), cfg)[1]
    assert dropped > 0
    # no corpus solve stopped with a full first step in the band; here
    # F(z) = z has its zero at the ideal point 0, where every full step
    # -z lands, so each iteration halves z until all halvings enter the band
    solver_mod._damped_gauss_newton(
        lambda Z, rows, h=None: (Z, Z), lambda Z, F, h, rows: [-Z],
        np.array([[1 + 2j]]), SolverConfig())
    assert returned[-1][4] == ["degenerate_shape"]
    reasons = set()
    for Z, _, _, _, why in returned:
        assert np.isfinite(Z).all()
        assert (np.minimum(abs(Z), abs(Z - 1)) >= DEGENERACY_GUARD).all()
        reasons.update(why)
    assert reasons == {"converged", "max_iterations", "stalled",
                       "degenerate_shape"}


def test_candidates_in_the_guard_band_are_evaluated_and_rejected():
    # fig8_complement's own residual h(z) - 1, with full steps that land
    # exactly on the ideal points 1 and 0 in the first shape, where h
    # divides by zero: the line search evaluates them with every other
    # candidate, rejects them for the band, and the core's errstate keeps
    # the division silent; no halving decreases the residual, so both rows
    # stop at their starts with a full first step in the band
    E = build_exponent_matrix(corpus("fig8_complement"))
    starts = np.array([[0.5 + 0.8j, 0.5 + 0.8j], [0.4 + 0.9j, 0.5 + 0.8j]])
    ends = np.array([[1, 0.5 + 0.8j], [0, 0.5 + 0.8j]])
    seen = []

    def residual(Z, rows, h=None):
        seen.extend(map(tuple, Z.tolist()))
        if h is None:
            h = all_holonomies(Z, E)
        return h - 1, h

    def directions(Z, F, h, rows):
        return [ends[rows] - Z]

    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        Z, _, _, its, reasons = _damped_gauss_newton(
            residual, directions, starts, SolverConfig())
    assert set(map(tuple, ends.tolist())) <= set(seen)
    assert reasons == ["degenerate_shape"] * 2 and its == [0, 0]
    assert np.array_equal(Z, starts)


def test_stacked_kernels_are_the_rows_bitwise(rng):
    systems = [build_exponent_matrix(corpus(name)) for name in CORPUS_NAMES]
    systems += [E for _, _, E in random_systems()]
    for E in systems:
        n = E.tet_count
        Z = rng.uniform(-2, 2, (4, 3, n)) + 1j * rng.uniform(0.1, 2, (4, 3, n))
        H, J, D = all_holonomies(Z, E), jacobian(Z, E), log_jacobian(Z, E)
        assert H.shape == (4, 3, E.edge_count)
        assert J.shape == D.shape == (4, 3, len(E.rows))
        JX, JHY = pair_matvec(J, E, Z), pair_rmatvec(pair_adjoint(J, E), E, H)
        for idx in np.ndindex(4, 3):
            assert np.array_equal(H[idx], all_holonomies(Z[idx], E))
            assert np.array_equal(J[idx], jacobian(Z[idx], E))
            assert np.array_equal(D[idx], log_jacobian(Z[idx], E))
            assert np.array_equal(JX[idx], pair_matvec(J[idx], E, Z[idx]))
            assert np.array_equal(JHY[idx], pair_rmatvec(
                pair_adjoint(J[idx], E), E, H[idx]))


def sequential_line_search(residual, z, steps, r):
    """The per-halving line search of each row of z, in place: the row
    takes the first step that `halving_search` can take.  Returns the rows
    no step moved."""
    stuck = []
    for k in range(len(z)):
        def row(w):
            return residual(w[None], np.array([k]))[0][0]
        moved = (halving_search(row, z[k], step[k], r[k]) for step in steps)
        cand = next((c for c in moved if c is not None), None)
        if cand is None:
            stuck.append(k)
        else:
            z[k] = cand
    return stuck


def test_stacked_line_search_is_the_sequential_one():
    # F(z) = z - c per row, and a first step -g (z0 - c): row k accepts the
    # first lam with |1 - lam g| < 1, i.e. lam = 1 (g = 1), 2^-3 (g = 12)
    # and 2^-29 (g = 1.5 2^29); row 3 goes uphill (g = -1) and is moved
    # by the kick; row 4's full step lands in the guard band around 0,
    # its half step does not; row 5 goes uphill in both steps and is stuck
    # with a full first step in the band
    c = np.array([[2 + 1j, 0.3j], [1 - 1j, 2j], [3 + 0j, 1 + 1j],
                  [2j, 1.5 + 1j], [1e-9, 2 + 2j], [2 + 4j, 4 - 2j]])
    z0 = np.array([[1 + 2j, 0.5j], [2 + 2j, 3 - 1j], [0.5 + 1j, 2j],
                   [1 + 1j, 2 + 1j], [1 + 1j, 2 + 2j], [1 + 2j, 2 - 1j]])
    gain = np.array([1.0, 12.0, 1.5 * 2.0**29, -1.0, 1.0, -1.0])
    step = -gain[:, None] * (z0 - c)
    step[5] = -z0[5]                    # c = 2 z0 there: uphill to 0
    kick = np.where((np.arange(6) == 3)[:, None], c - z0, -z0)
    calls = []

    def residual(Z, rows):          # (F, h), here with h = Z
        calls.append(len(Z))
        return Z - c[rows], Z

    r = np.linalg.norm(z0 - c, axis=1)
    pulled = []

    def steps(*arrays):
        for s in arrays:
            pulled.append(s)
            yield s

    want = z0.copy()
    assert sequential_line_search(residual, want, [step, kick], r) == [5]
    assert np.array_equal(want[:3], z0[:3] + np.ldexp(1.0, [[0], [-3], [-29]])
                          * step[:3])
    assert np.array_equal(want[3:5], [c[3], z0[4] + step[4] / 2])
    calls.clear()
    z = z0.copy()
    stuck, near = _take_steps(residual, z, z0.copy(), steps(step, kick),
                              r.copy(), np.arange(6))
    assert list(stuck) == [5] and list(near) == [True]
    assert np.array_equal(z, want)
    # one call for the full steps and one for all further halvings, per step
    assert len(pulled) == 2 and len(calls) <= 2 * len(pulled)

    calls.clear()
    pulled.clear()
    z = z0[:1].copy()
    assert _take_steps(residual, z, z0[:1].copy(), steps(step[:1], kick[:1]),
                       r[:1], np.arange(1)) == ((), ())
    assert len(pulled) == 1 and calls == [1]       # no kick was built


def test_line_search_hands_on_the_accepted_points_holonomies():
    # F(z) = z - c per row and h(z) = 2 z + 1: each moved row of h becomes
    # h at the point its row of z took, and its row of r the residual norm
    # there, by the all-rows exit (row 0 alone), a stack with candidates in
    # the guard band (the full steps of rows 1 and 4 land on 0), the
    # halvings (row 2) and the kick (row 3); row 4, uphill in both steps,
    # is stuck and keeps its entries
    c = np.array([[2 + 1j], [1j], [3 + 0j], [2j], [2 + 4j]])
    z0 = np.array([[1 + 2j], [1 + 1j], [0.5 + 1j], [1 + 1j], [1 + 2j]])
    step = np.array([[1 - 1j], [-1 - 1j], [30 + 0j], [-2j], [-1 - 2j]])
    kick = np.where((np.arange(5) == 3)[:, None], c - z0, -z0)

    def residual(Z, rows):
        return Z - c[rows], 2 * Z + 1

    for rows in ([0], [0, 1, 2, 3, 4]):
        z, h = z0[rows], np.full((len(rows), 1), np.nan + 0j)
        r = np.linalg.norm(z - c[rows], axis=1)
        r0 = r.copy()
        stuck, _ = _take_steps(residual, z, h, iter([step[rows], kick[rows]]),
                               r, np.array(rows))
        stuck = list(stuck)
        moved = np.setdiff1d(np.arange(len(rows)), stuck)
        assert stuck == ([] if rows == [0] else [4])
        assert np.array_equal(h[moved], 2 * z[moved] + 1)
        assert np.isnan(h[stuck]).all()
        assert np.array_equal(r[moved], solver_mod._norms(
            z[moved] - c[rows][moved]))
        assert np.array_equal(r[stuck], r0[stuck])
    assert np.array_equal(z[:4], [c[0], z0[1] + step[1] / 2,
                                  z0[2] + step[2] / 8, c[3]])


# --------------------------------------- each point's holonomies, once

def trace_holonomy_calls(monkeypatch):
    """The events of the solves that follow, in order: "h" for each
    holonomy call; for each residual call of the core, "known" when it
    was given the point's holonomies, "unknown" when not, and "search" for
    each of its line search; "predict" and "predicted" before and after a
    sweep's block starts."""
    events = []
    holonomies = solver_mod.all_holonomies
    core = solver_mod._damped_gauss_newton
    block_starts = solver_mod._block_starts

    def counted(Z, E):
        events.append("h")
        return holonomies(Z, E)

    def traced_core(residual, *args):
        def traced(Z, rows, *h):        # the core passes h, the search not
            events.append("search" if not h else
                          "unknown" if h[0] is None else "known")
            return residual(Z, rows, *h)
        return core(traced, *args)

    def predicted(*args):
        events.append("predict")
        out = block_starts(*args)
        events.append("predicted")
        return out

    monkeypatch.setattr(solver_mod, "all_holonomies", counted)
    monkeypatch.setattr(solver_mod, "_damped_gauss_newton", traced_core)
    monkeypatch.setattr(solver_mod, "_block_starts", predicted)
    return events


def oracle_systems():
    return ([corpus(name) for name in CORPUS_NAMES]
            + [parse_triangulation(chain_cover_text(4))])


def about_regular(t):
    """A family xi(theta) about the regular solution, weights +-1."""
    degrees = build_exponent_matrix(t).degree.tolist()
    weights = [(-1) ** j if j + 1 < len(degrees) or j % 2 else 0
               for j in range(len(degrees))]
    return lambda theta: ConeTarget(tuple(
        cmath.exp(1j * (np.pi * d / 3 + w * theta))
        for w, d in zip(weights, degrees)))


def hopf_through_its_ideal_point():
    hopf = corpus("hopf")
    degrees = build_exponent_matrix(hopf).degree.tolist()
    return hopf, lambda theta: ConeTarget(tuple(
        cmath.exp(1j * theta * (1 if d == 1 else -2)) for d in degrees))


def test_each_point_has_its_holonomies_evaluated_once(monkeypatch):
    # every iteration evaluated h at its current point, although the line
    # search had evaluated it when it accepted the point, and a sweep
    # block's first iteration at its starts, which the predictor had
    events = trace_holonomy_calls(monkeypatch)
    solves = 0
    for t in oracle_systems():
        _, regular_xi, _ = regular_solution(t)
        for cfg in (SolverConfig(seed=2),
                    SolverConfig(seed=3, max_iterations=4)):
            for start in random_starts(t, 6, cfg):
                events.clear()
                res = newton_solve(t, regular_xi, start, cfg)
                core = [e for e in events if e in ("known", "unknown")]
                assert core == ["unknown"] + ["known"] * res.iterations
                assert events.count("h") == events.count("search") + 1
                solves += res.iterations > 1
    assert solves > 10
    hopf, family = hopf_through_its_ideal_point()
    sweeps = [(t, about_regular(t), np.linspace(0.0, 0.6, 40), None)
              for t in oracle_systems()]
    sweeps.append((hopf, family, [0.6, 0.3, 0.0, -0.3, -0.4, -0.5],
                   ShapeAssignment((0.2 + 0.9j,))))
    blocks = known = 0
    for t, xi_of, grid, initial in sweeps:
        events.clear()
        sweep_family(t, xi_of, grid, initial=initial)
        for i, event in enumerate(events):
            if event == "predicted":
                after = events[i + 1:] + ["predict"]
                first = after[:min(after.index(e) for e in ("search", "predict")
                                   if e in after)]
                assert "h" not in first and "unknown" not in first
                blocks, known = blocks + 1, known + ("known" in first)
    assert known == blocks > 8


def test_handed_on_holonomies_are_the_recomputed_ones(monkeypatch):
    # the core with a residual that ignores the h it is given and
    # recomputes it gives every result bit for bit
    rng = np.random.default_rng(11)
    stacks = []
    for t in oracle_systems():
        E, n = build_exponent_matrix(t), t.tetra_count
        _, regular_xi, _ = regular_solution(t)
        # starts near {0, 1}: rows that stall, run out or end with a full
        # first step in the guard band; xi = 1 obstructs hopf and trefoil
        near = rng.choice([0.0, 1.0], (12, n)) + 10 ** rng.uniform(
            -7.9, -3, (12, n)) * np.exp(1j * rng.uniform(-3, 3, (12, n)))
        Z0 = np.concatenate([near, [S.z for S in random_starts(
            t, 12, SolverConfig(seed=3))]])
        targets = [regular_xi.xi, (1.0,) * E.edge_count,
                   np.exp(1j * rng.uniform(-3, 3, E.edge_count))]
        stacks.append((E, np.array([targets[k % 3]
                                    for k in range(len(Z0))]), Z0))
    hopf, family = hopf_through_its_ideal_point()
    # the stationary hopf starts, whose rows are kicked
    stacks.append((build_exponent_matrix(hopf),
                   np.array([family(np.pi / 2).xi] * 3),
                   [[REGULAR_SHAPE * cmath.exp(1j * a)]
                    for a in (-1.2e-8, -2e-8, -5e-8)]))

    def solve_all():
        out = [_newton_rows(E, targets, Z0, SolverConfig(max_iterations=k))
               for E, targets, Z0 in stacks for k in (100, 3)]
        out += [sweep_family(t, about_regular(t), np.linspace(0.0, 0.6, 40))
                for t in oracle_systems()]
        out.append(sweep_family(hopf, family, [0.6, 0.3, 0.0, -0.3, -0.4],
                                initial=ShapeAssignment((0.2 + 0.9j,))))
        for t in oracle_systems():
            for k in (4, 100):
                cfg = SolverConfig(seed=k, max_iterations=k)
                out.append(cone_locus_sample(t, random_starts(t, 32, cfg),
                                             cfg))
        return out

    handed_on = solve_all()
    core, calls = solver_mod._damped_gauss_newton, []

    def recomputing(residual, directions, Z, cfg, limit=None, H0=None):
        calls.append(len(Z))
        return core(lambda Z, rows, h=None: residual(Z, rows), directions,
                    Z, cfg, limit)

    monkeypatch.setattr(solver_mod, "_damped_gauss_newton", recomputing)
    assert repr(solve_all()) == repr(handed_on)
    assert len(calls) > 100
    reasons = {res.reason for rows in handed_on[:2 * len(stacks)]
               for res in rows}
    assert reasons == {"converged", "max_iterations", "stalled",
                       "degenerate_shape", "degree_one_edge_obstruction"}
    assert handed_on[-2][1] > 0         # samples dropped at 4 iterations
