"""The cusp relations and the Gauss-Newton step taken from them.

Row v of the relation matrix W counts the ends of each edge class at
vertex class v; the rows of W / h annihilate the Jacobian, so they span
its left null space and make J J^H + U^H U invertible.  Every solve takes
its step from that matrix; lstsq with the rank the relations leave is the
oracle for the step, and the per-start lstsq loop of test_batched_solver
for `newton_solve` on the chain covers.
"""
import cmath
import math
import random

import numpy as np
import pytest

from idealglue import (CORPUS_NAMES, REGULAR_SHAPE, V_TET, ConeTarget,
                       ShapeAssignment, SolverConfig, VertexClass,
                       all_holonomies, build_exponent_matrix,
                       compute_edge_classes, compute_vertex_classes, corpus,
                       jacobian, newton_solve, parse_triangulation,
                       random_triangulation, solution_volume)
from idealglue.gluing import normal_matrix, pair_matvec, pair_rmatvec
from idealglue.solver import _least_squares_step
from idealglue.triangulation import EDGE_SLOTS

from conftest import chain_cover_text, random_shapes
from test_batched_solver import lstsq_step, scalar_newton

EPS = np.finfo(float).eps


def systems():
    """The corpus, random triangulations with n = 6 (m < n) and chain
    covers, by name."""
    out = {name: corpus(name) for name in CORPUS_NAMES}
    out.update({f"random6_seed{s}": random_triangulation(6, seed=s)
                for s in range(6)})
    out.update({f"chain{2 * k}": parse_triangulation(chain_cover_text(k))
                for k in (1, 2, 4, 16)})
    return out


SYSTEMS = systems()


def sample_point(rng, name, t):
    """Random shapes; on the chain covers near the complete structure, where
    the solver works (random shapes there give J a condition number past
    1e5 at n = 32)."""
    n = t.tetra_count
    if name.startswith("chain"):
        return REGULAR_SHAPE + 0.1 * (rng.uniform(-1, 1, n)
                                      + 1j * rng.uniform(-1, 1, n))
    return np.array(random_shapes(rng, n).z)


def relation_rank(t):
    """m - rank(W): the rank the relations leave the Jacobian."""
    W = build_exponent_matrix(t).relations
    return W.shape[1] - np.linalg.matrix_rank(W)


def union_find_vertex_classes(t):
    """Reference: the corner union of a dict-based union-find and the edge
    ends counted from each class's first slot."""
    parent = {(tet, v): (tet, v) for tet in range(t.tetra_count)
              for v in range(4)}

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for g in t.gluings:
        for v in range(4):
            if v != g.source_face:
                a, b = find((g.source_tet, v)), find((g.target_tet, g.perm(v)))
                if a != b:
                    parent[a] = b
    groups = {}
    for c in sorted(parent):
        groups.setdefault(find(c), []).append(c)
    ends = dict.fromkeys(groups, 0)
    for e in compute_edge_classes(t):
        tet, slot, _ = e.cycle[0]
        for v in EDGE_SLOTS[slot]:
            ends[find((tet, v))] += 1
    out = []
    for root in sorted(groups, key=lambda r: min(groups[r])):
        chi = ends[root] - len(groups[root]) // 2
        out.append(VertexClass(len(out), tuple(groups[root]), chi,
                               (2 - chi) // 2))
    return out


@pytest.fixture
def lstsq_calls(monkeypatch):
    """The shapes of the matrices passed to np.linalg.lstsq, as called."""
    calls = []
    lstsq = np.linalg.lstsq

    def counted(a, *args, **kwargs):
        calls.append(np.shape(a))
        return lstsq(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counted)
    return calls


# ------------------------------------------------------------ the relations

@pytest.mark.parametrize("name", SYSTEMS)
def test_vertex_classes_match_the_dict_union_find(name):
    t = SYSTEMS[name]
    first = compute_vertex_classes(t)
    assert first == union_find_vertex_classes(t)
    again = compute_vertex_classes(t)
    assert again == first and again is not first     # a new list each call


@pytest.mark.parametrize("name", SYSTEMS)
def test_relation_matrix_counts_edge_ends(name):
    # W[v, e] counts the ends of edge class e at vertex class v, the same
    # at every slot of e; E.relations is W with its rows scaled to norm 1
    t = SYSTEMS[name]
    W = build_exponent_matrix(t).relations
    assert build_exponent_matrix(t).relations is W and not W.flags.writeable
    vertices, edges = compute_vertex_classes(t), compute_edge_classes(t)
    corner_class = {c: v.index for v in vertices for c in v.corners}
    counts = np.zeros((len(vertices), len(edges)), dtype=int)
    for e in edges:
        ends = [sorted((corner_class[(tet, a)], corner_class[(tet, b)]))
                for tet, (a, b) in e.directed]
        assert all(x == ends[0] for x in ends)      # every slot, same ends
        np.add.at(counts, (ends[0], e.index), 1)
    assert (counts.sum(axis=0) == 2).all()          # two ends per edge
    assert np.array_equal(W, counts / np.linalg.norm(counts, axis=1,
                                                     keepdims=True))


@pytest.mark.parametrize("name", SYSTEMS)
def test_relations_span_the_left_null_space(name, rng):
    t = SYSTEMS[name]
    E = build_exponent_matrix(t)
    for _ in range(5):
        z = sample_point(rng, name, t)
        J = E.dense(jacobian(z, E))
        U = E.relations / all_holonomies(z, E)
        assert np.abs(U @ J).max() <= 1e-13 * (1.0 + np.abs(J).max())
        # an absolute rank tolerance: on random6_seed3 the one edge holds
        # every slot, h = 1 identically and J is rounding noise
        assert np.linalg.matrix_rank(J, tol=1e-9) == relation_rank(t)


# ---------------------------------------------------------------- the step

STEP_SYSTEMS = [name for name in SYSTEMS if relation_rank(SYSTEMS[name]) > 0]


def test_only_a_vanishing_jacobian_is_left_out():
    assert set(SYSTEMS) - set(STEP_SYSTEMS) == {"random6_seed3"}


# ------------------------------------------------------ the normal matrix

def normal_systems():
    """The corpus, random triangulations with n = 2..6, and chain covers up
    to n = 128, by name."""
    out = {name: corpus(name) for name in CORPUS_NAMES}
    out.update({f"random{n}": random_triangulation(n, seed=n)
                for n in range(2, 7)})
    out.update({f"chain{2 * k}": parse_triangulation(chain_cover_text(k))
                for k in (1, 2, 4, 16, 32, 64)})
    return out


NORMAL_SYSTEMS = normal_systems()


def gram(U):
    """U^H U, which a step's normal matrix starts from."""
    return U.mT.conj() @ U


@pytest.mark.parametrize("name", NORMAL_SYSTEMS)
def test_pair_assembled_normal_matrix_is_the_dense_product(name, rng):
    # J J^H + U^H U from the exponent pairs, against the dense products,
    # for a stack of points and for each point alone; the real form is
    # A A^T + U^T U for the sampler's real system A = [Re D, -Im D]
    t = NORMAL_SYSTEMS[name]
    E = build_exponent_matrix(t)
    W = E.relations
    Z = np.array([sample_point(rng, name, t) for _ in range(5)])
    h = all_holonomies(Z, E)
    VJ, a = jacobian(Z, E, h), np.abs(h)
    VD = VJ * (np.conj(h) / a).take(E.rows, axis=-1)
    J, D = E.dense(VJ), E.dense(VD)
    A = np.concatenate([D.real, -D.imag], axis=-1)
    cases = ((VJ, W / h[:, None], J @ J.mT.conj()),
             (VD, W / a[:, None], A @ A.mT))
    for V, U, product in cases:
        want = product + U.mT.conj() @ U
        got = normal_matrix(V, E, gram(U))
        assert got.dtype == want.dtype and got.shape == want.shape
        scale = np.abs(want).max(axis=(-2, -1))
        assert (np.abs(got - want).max(axis=(-2, -1)) <= 1e-13 * scale).all()
        for Vk, Uk, Mk in zip(V, U, got):
            assert np.array_equal(normal_matrix(Vk, E, gram(Uk)), Mk)
        # in place, into a workspace holding U^H U, and into a prefix of a
        # longer one, as a solve's step forms M once its other rows stop
        for k in (len(V), 2):
            workspace = np.full((len(V) + 1,) + got.shape[1:], np.nan,
                                dtype=got.dtype)
            start = np.matmul(U[:k].mT.conj(), U[:k], out=workspace[:k])
            out = normal_matrix(V[:k], E, start)
            assert out is start and np.array_equal(out, got[:k])
            assert np.isnan(workspace[k:]).all()


@pytest.mark.parametrize("name", NORMAL_SYSTEMS)
def test_pair_products_are_the_dense_products(name, rng):
    # D x and D^H y from the pairs, for stacks of J's values, against the
    # dense m-by-n J; a real y gives A^T y for A = [Re J, -Im J] read as a
    # complex vector, and A x is Re(J x)
    t = NORMAL_SYSTEMS[name]
    E = build_exponent_matrix(t)
    m, n = E.edge_count, E.tet_count
    V = jacobian(np.array([sample_point(rng, name, t) for _ in range(5)]), E)
    J = E.dense(V)
    A = np.concatenate([J.real, -J.imag], axis=-1)
    x = rng.normal(size=(5, n)) + 1j * rng.normal(size=(5, n))
    y = rng.normal(size=(5, m)) + 1j * rng.normal(size=(5, m))
    Ax = (A @ np.concatenate([x.real, x.imag], axis=-1)[..., None])[..., 0]
    ATy = (A.mT @ y.real[..., None])[..., 0]
    for got, want in ((pair_matvec(V, E, x), (J @ x[..., None])[..., 0]),
                      (pair_matvec(V, E, x).real, Ax),
                      (pair_rmatvec(V, E, y),
                       (J.mT.conj() @ y[..., None])[..., 0]),
                      (pair_rmatvec(V, E, y.real),
                       ATy[:, :n] + 1j * ATy[:, n:])):
        assert got.shape == want.shape
        scale = np.abs(want).max(axis=-1, keepdims=True)
        assert (np.abs(got - want) <= 1e-13 * scale).all()


def rank_fixed_lstsq(J, b, r):
    """lstsq keeping exactly the r largest singular values.  The default
    cutoff eps max(m, n) s_max lets a rounding-noise singular value through
    at some points (about one in a hundred random shapes on conftest's
    n = 4 and 6 systems), and that step is not a least-squares step."""
    s = np.linalg.svd(J, compute_uv=False)
    rcond = math.sqrt(s[r - 1] * s[r]) / s[0] if r < len(s) else None
    return np.linalg.lstsq(J, b, rcond=rcond)[0], s[0] / s[r - 1]


def stacked_system(rng, name, t, count):
    """A stack of `count` Jacobians (their values on the pairs) at sample
    points, with random right-hand sides and the relation rows W / h of
    each point."""
    E = build_exponent_matrix(t)
    Z = np.array([sample_point(rng, name, t) for _ in range(count)])
    b = (rng.normal(size=(count, E.edge_count))
         + 1j * rng.normal(size=(count, E.edge_count)))
    return jacobian(Z, E), b, E.relations / all_holonomies(Z, E)[:, None]


@pytest.mark.parametrize("name", STEP_SYSTEMS)
def test_step_matches_lstsq(name, rng, lstsq_calls):
    # Each row's step is the row's alone, bit for bit.  The normal
    # equations square the condition number: the step's error is
    # O(eps cond^2) where the SVD's is O(eps cond).  At cond <= 6, and so
    # on hopf and trefoil (m > n, cond 1), that is within 1e-12.
    t = SYSTEMS[name]
    E = build_exponent_matrix(t)
    V, b, U = stacked_system(rng, name, t, 20)
    x = _least_squares_step(V, E, b, gram(U))
    assert lstsq_calls == []                        # no fallback
    assert x.shape == (len(b), t.tetra_count)
    for Vk, bk, Uk, xk in zip(V, b, U, x):
        assert np.array_equal(xk, _least_squares_step(Vk[None], E, bk[None],
                                                      gram(Uk[None]))[0])
        want, cond = rank_fixed_lstsq(E.dense(Vk), bk, relation_rank(t))
        bound = max(1e-12, 256 * EPS * cond ** 2)
        assert np.linalg.norm(xk - want) <= bound * np.linalg.norm(want)


@pytest.mark.parametrize("name", STEP_SYSTEMS)
def test_incomplete_relations_fall_back_to_lstsq(name, rng, lstsq_calls):
    # the odd rows lose one relation each: only those rows fall back, each
    # to lstsq's step on its own matrix (on chain2 the cut rows' matrices
    # are singular, so the stack's solve fails and its rows are solved apart)
    t = SYSTEMS[name]
    V, b, U = stacked_system(rng, name, t, 6)
    E = build_exponent_matrix(t)
    full = _least_squares_step(V, E, b, gram(U))
    for v in range(U.shape[1]):
        lstsq_calls.clear()
        cut = U.copy()
        cut[1::2, v] = 0.0
        x = _least_squares_step(V, E, b, gram(cut))
        assert len(lstsq_calls) == 3
        for k in range(len(V)):
            want = (np.linalg.lstsq(E.dense(V[k]), b[k], rcond=None)[0]
                    if k % 2 else full[k])
            assert np.array_equal(x[k], want)


def sampler_system(rng, name, t, count):
    """The sampler's real system at `count` sample points, as it builds it:
    the values on the pairs of D = (conj(h) / |h|) J, the right-hand sides
    1 - |h| and the relation rows W / |h| (W with unit rows)."""
    E = build_exponent_matrix(t)
    Z = np.array([sample_point(rng, name, t) for _ in range(count)])
    h = all_holonomies(Z, E)
    a = np.abs(h)
    V = jacobian(Z, E, h) * (np.conj(h) / a).take(E.rows, axis=-1)
    return V, 1.0 - a, E.relations / a[:, None]


@pytest.mark.parametrize("name", STEP_SYSTEMS)
def test_real_step_is_the_dense_min_norm_step(name, rng, lstsq_calls):
    # the sampler's step on the pairs, D^H M^-1 b, against the dense
    # formula it replaced: A^T (A A^T + U^T U)^-1 b for the real
    # A = [Re D, -Im D], read as a complex vector; the two differ by
    # O(eps cond(M)), and cond(M) <= 1e5 here.  Then the odd rows lose a
    # relation and fall back, each to lstsq's step on its own dense A.
    t = SYSTEMS[name]
    E, n = build_exponent_matrix(t), t.tetra_count
    V, b, U = sampler_system(rng, name, t, 6)
    D = E.dense(V)
    A = np.concatenate([D.real, -D.imag], axis=-1)
    dense = (A.mT @ np.linalg.solve(A @ A.mT + U.mT @ U, b[..., None]))[..., 0]
    full = _least_squares_step(V, E, b, gram(U))
    assert lstsq_calls == []                        # no fallback
    assert full.dtype == complex and full.shape == (len(b), n)
    want = dense[:, :n] + 1j * dense[:, n:]
    assert (np.abs(full - want).max(-1)
            <= 1e-12 * np.abs(want).max(-1)).all()
    for v in range(U.shape[1]):
        lstsq_calls.clear()
        cut = U.copy()
        cut[1::2, v] = 0.0
        x = _least_squares_step(V, E, b, gram(cut))
        assert lstsq_calls == [(E.edge_count, 2 * n)] * 3
        for k in range(len(V)):
            if k % 2:
                step = np.linalg.lstsq(A[k], b[k], rcond=None)[0]
                assert np.array_equal(x[k], step[:n] + 1j * step[n:])
            else:
                assert np.array_equal(x[k], full[k])


# ----------------------------------------------- newton_solve on chain covers

def chain_starts(n, count, seed):
    """Per radius about exp(i pi/3), a constant start as the benchmark
    draws them and a start with a shape of its own per tetrahedron."""
    rng = random.Random(seed)

    def near(radius):
        return REGULAR_SHAPE + cmath.rect(radius * math.sqrt(rng.random()),
                                          2 * math.pi * rng.random())

    out = []
    for radius in (0.02, 0.1, 0.2)[:count]:
        out.append(ShapeAssignment((near(radius),) * n))
        out.append(ShapeAssignment([near(radius) for _ in range(n)]))
    return out


@pytest.mark.parametrize("n", [8, 16, 32, 64, 128])
def test_newton_above_the_cutoff_matches_the_lstsq_loop(n, lstsq_calls):
    # named for the size cutoff the relation step once had; every n takes it
    t = parse_triangulation(chain_cover_text(n // 2))
    xi = ConeTarget.ones(n)
    cfg = SolverConfig()
    for initial in chain_starts(n, 3, seed=n):
        res = newton_solve(t, xi, initial, cfg)
        assert lstsq_calls == []                    # no fallback
        z, r, it, reason = scalar_newton(t, xi, initial, cfg, lstsq_step)
        lstsq_calls.clear()
        assert (res.iterations, res.reason) == (it, reason)
        assert res.converged
        assert np.abs(np.array(res.shapes.z) - z).max() <= 1e-12
        assert abs(res.residual_norm - r) <= 1e-12


def test_newton_converges_on_the_n_1000_chain_cover(lstsq_calls):
    # the scale the pair-assembled normal matrix is for: each step's
    # m-by-m matrix costs O(n) products, not a dense O(n^3) product.  No
    # step falls back to lstsq, whose step would hide a wrong J^H y that
    # the optimality check catches.  The constant start lands on the
    # complete structure; the start with a shape of its own per tetrahedron
    # converges to another point of the solution set near it
    n = 1000
    t = parse_triangulation(chain_cover_text(n // 2))
    constant, own = chain_starts(n, 1, seed=3)
    for start in (own, constant):
        assert max(abs(z - REGULAR_SHAPE) for z in start.z) <= 0.02
        res = newton_solve(t, ConeTarget.ones(n), start)
        assert res.converged
        assert lstsq_calls == []
    assert max(abs(z - REGULAR_SHAPE) for z in res.shapes.z) <= 1e-9 * n
    volume = solution_volume(res.shapes).total
    assert abs(volume - (n // 2) * 2 * V_TET) <= 1e-9 * n


def test_unit_relation_rows_keep_the_normal_matrix_well_conditioned():
    # the one cusp row of W is 2 at every edge, so with U = W / h the term
    # U^H U is about 4 m while J's smallest singular value falls like 1 / n:
    # cond(M) was 4.3e6 here; with unit rows it is cond(J)^2 on J's range
    n = 500
    t = parse_triangulation(chain_cover_text(n // 2))
    E = build_exponent_matrix(t)
    W = E.relations
    assert W.shape == (1, n) and (W == 2 / math.sqrt(4 * n)).all()
    z = np.array(chain_starts(n, 1, seed=n)[1].z)
    assert np.abs(z - REGULAR_SHAPE).max() <= 0.02
    h = all_holonomies(z, E)
    M = normal_matrix(jacobian(z, E, h), E, gram(W / h))
    assert np.linalg.cond(M) < 1e5
