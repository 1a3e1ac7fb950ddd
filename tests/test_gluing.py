"""Shape triples, exponent matrices, holonomies, residuals, Jacobians."""
import cmath
import math

import mpmath
import numpy as np
import pytest

from idealglue import (CORPUS_NAMES, ConeTarget, DegenerateShape,
                       NotUnitModulus, ShapeAssignment, all_holonomies,
                       build_exponent_matrix, compute_edge_classes, corpus,
                       derive_shape_triple, edge_slot_label,
                       evaluate_residual, jacobian, random_triangulation,
                       xi_from_shapes)
from idealglue.gluing import (SLOT_LABELS, _triples, check_nondegenerate,
                              log_jacobian)
from conftest import random_shapes, random_systems
from oracles import enumerate_one_tetrahedron_triangulations

REGULAR = complex(0.5, math.sqrt(3) / 2)


def system(name):
    t = corpus(name)
    edges = compute_edge_classes(t)
    return t, edges, build_exponent_matrix(t, edges)


# ------------------------------------------------------------------- labels

def test_slot_labels():
    assert edge_slot_label((0, 1)) == "z"
    assert edge_slot_label((2, 3)) == "z"          # opposite edges share labels
    for slot in ((0, 1), (0, 2), (0, 3)):
        a, b = slot
        opp = tuple(sorted(set(range(4)) - {a, b}))
        assert edge_slot_label(slot) == edge_slot_label(opp)
    # orientation convention consistent with the (0, oo, 1, z) placement:
    # {02, 13} carry z'', {03, 12} carry z'
    assert edge_slot_label((0, 2)) == "z''"
    assert edge_slot_label((0, 3)) == "z'"


# ------------------------------------------------------------ shape triples

def test_shape_triple_values():
    assert derive_shape_triple(2.0 + 0j) == (2 + 0j, -1 + 0j, 0.5 + 0j)
    z, zp, zpp = derive_shape_triple(1j)
    assert zp == (1 + 1j) / 2 and zpp == 1 + 1j
    z, zp, zpp = derive_shape_triple(REGULAR)
    assert abs(zp - REGULAR) < 1e-15 and abs(zpp - REGULAR) < 1e-15


def test_shape_triple_relations_exact(rng):
    for _ in range(100):
        (z,) = random_shapes(rng, 1).z
        z, zp, zpp = derive_shape_triple(z)
        assert abs(z * (1 - zpp) - 1) < 1e-14
        assert abs(zp * (1 - z) - 1) < 1e-14
        assert abs(zpp * (1 - zp) - 1) < 1e-14
        assert abs(z * zp * zpp + 1) < 1e-14


def test_shape_triple_is_the_array_triple_at_every_modulus(rng):
    # Python's complex division overflowed past |z| of about 1.27e308 as
    # NumPy's did: derive_shape_triple(1e308 + 1e308i) was (z, -0j, nan)
    zs = [complex(1e308, 1e308)] + [
        10 ** r * cmath.exp(1j * a)
        for r, a in zip(rng.uniform(8, 307, 200), rng.uniform(-3.14, 3.14, 200))]
    with mpmath.workdps(40):
        for z in zs:
            triple = derive_shape_triple(z)
            assert triple == tuple(_triples(np.array([z]))[0].tolist())
            w = mpmath.mpc(z)
            for got, want in zip(triple, (w, 1 / (1 - w), (w - 1) / w)):
                # z' is subnormal past |z| of about 4.5e307
                err = float(abs(mpmath.mpc(got) - want))
                assert err <= 4e-16 * float(abs(want)) + 2e-323


def test_degenerate_shapes_rejected():
    for bad in (0, 1, 1e-9, 1 + 1e-9j):
        with pytest.raises(DegenerateShape):
            derive_shape_triple(bad)
    with pytest.raises(DegenerateShape):
        ShapeAssignment((0.5 + 0.5j, 1 + 1e-10j))


# --------------------------------------------------------- exponent matrix

def test_exponent_matrix_hopf_weights():
    t, edges, E = system("hopf")
    weights = (E.a + E.a_prime + E.a_second).sum(axis=1)
    by_degree = {e.degree: weights[e.index] for e in edges}
    assert by_degree[4] == 4 and by_degree[1] == 1


def test_exponent_matrix_column_sums_two():
    for name in ("hopf", "trefoil", "fig8_complement", "fig8_in_s3",
                 "doubled_tetrahedron"):
        _, _, E = system(name)
        for M in (E.a, E.a_prime, E.a_second):
            assert (M.sum(axis=0) == 2).all()


def test_exponent_matrix_row_sums_are_degrees():
    for seed in range(6):
        t = random_triangulation(1 + seed % 4, seed=seed)
        edges = compute_edge_classes(t)
        E = build_exponent_matrix(t, edges)
        assert E.degree.tolist() == [e.degree for e in edges]


def test_exponent_matrix_invariants_on_enumeration():
    for t in enumerate_one_tetrahedron_triangulations():
        edges = compute_edge_classes(t)
        E = build_exponent_matrix(t, edges)
        for M in (E.a, E.a_prime, E.a_second):
            assert (M.sum(axis=0) == 2).all()
        assert E.degree.tolist() == [e.degree for e in edges]


def test_fig8_rows_have_weight_six():
    _, _, E = system("fig8_complement")
    assert E.degree.tolist() == [6, 6]


# --------------------------------------------------------------- holonomies

def test_hopf_holonomy_family(rng):
    t, edges, E = system("hopf")
    for _ in range(5):
        (z,) = random_shapes(rng, 1).z
        hol = all_holonomies(ShapeAssignment((z,)), E)
        h = {e.degree: [] for e in edges}
        for e in edges:
            h[e.degree].append(hol[e.index])
        assert all(abs(v - z) < 1e-13 * abs(z) for v in h[1])
        assert abs(h[4][0] - z ** -2) < 1e-13


def test_fig8_complete_solution_holonomies():
    _, edges, E = system("fig8_complement")
    h = all_holonomies(ShapeAssignment((cmath.exp(1j * math.pi / 3),) * 2), E)
    for e in edges:
        assert abs(h[e.index] - 1) < 1e-14


def test_regular_shapes_holonomy_is_degree_times_pi_over_three():
    for name in ("hopf", "trefoil", "fig8_in_s3", "doubled_tetrahedron"):
        t, edges, E = system(name)
        h = all_holonomies(ShapeAssignment((REGULAR,) * t.tetra_count), E)
        for e in edges:
            expect = cmath.exp(1j * e.degree * math.pi / 3)
            assert abs(h[e.index] - expect) < 1e-13


def test_holonomies_are_slot_products_on_random_triangulations(rng):
    for t, edges, E in random_systems():
        for _ in range(5):
            Z = random_shapes(rng, t.tetra_count)
            triples = [derive_shape_triple(z) for z in Z.z]
            h = all_holonomies(Z, E)
            for e in edges:
                expect = 1.0 + 0.0j
                for tet, slot, _ in e.cycle:
                    expect *= triples[tet][SLOT_LABELS[slot]]
                assert abs(h[e.index] - expect) <= 1e-12 * abs(expect)


def test_product_of_all_holonomies_is_one(rng):
    for name in ("hopf", "trefoil", "fig8_complement", "fig8_in_s3"):
        t, edges, E = system(name)
        for _ in range(10):
            Z = random_shapes(rng, t.tetra_count)
            assert abs(np.prod(all_holonomies(Z, E)) - 1) < 1e-10


# ---------------------------------------------------------------- residuals

def test_hopf_residual_at_i():
    t, edges, E = system("hopf")
    Z = ShapeAssignment((1j,))
    xi = ConeTarget(tuple(1j if e.degree == 1 else -1 for e in edges))
    assert np.abs(evaluate_residual(Z, E, xi)).max() < 1e-15
    r = evaluate_residual(Z, E, ConeTarget.ones(3))
    by_degree = {e.degree: r[e.index] for e in edges}
    assert abs(by_degree[1] - (1j - 1)) < 1e-15
    assert abs(by_degree[4] - (-2)) < 1e-15


def test_trefoil_family_residual_zero():
    t, edges, E = system("trefoil")
    for theta in (0.4, 1.3, 2.9):
        z = cmath.exp(1j * theta)
        xi = ConeTarget(tuple(z if e.degree == 1 else 1 / z for e in edges))
        assert np.abs(evaluate_residual(ShapeAssignment((z,)), E, xi)).max() < 1e-14


def test_residual_vanishes_at_xi_from_shapes(rng):
    t, edges, E = system("fig8_in_s3")
    # on-circle shapes are rare at random; instead check the identity
    # residual(Z, xi_from_shapes(Z)) = 0
    Z = ShapeAssignment((cmath.exp(0.9j), REGULAR, REGULAR))
    xi = xi_from_shapes(Z, E)
    assert np.abs(evaluate_residual(Z, E, xi)).max() == 0.0


# ----------------------------------------------------------------- Jacobian

def test_jacobian_single_z_slot_is_one(rng):
    t, edges, E = system("hopf")
    j = next(e.index for e in edges if e.degree == 1)
    for _ in range(5):
        Z = random_shapes(rng, 1)
        J = E.dense(jacobian(Z, E))
        assert abs(J[j, 0] - 1) < 1e-13   # h = z on a degree-one z-slot


def central_difference_jacobian(Z, E, step=1e-5):
    n = E.tet_count
    out = np.zeros((E.edge_count, n), dtype=complex)
    for i in range(n):
        zp = list(Z.z)
        zm = list(Z.z)
        zp[i] += step
        zm[i] -= step
        hp = all_holonomies(ShapeAssignment(tuple(zp)), E)
        hm = all_holonomies(ShapeAssignment(tuple(zm)), E)
        out[:, i] = (hp - hm) / (2 * step)
    return out


def test_jacobian_matches_finite_differences(rng):
    systems = [system(name) for name in ("hopf", "fig8_complement",
                                         "fig8_in_s3")] + random_systems()
    for t, edges, E in systems:
        for _ in range(8):
            Z = random_shapes(rng, t.tetra_count)
            J = E.dense(jacobian(Z, E))
            Jfd = central_difference_jacobian(Z, E)
            scale = np.maximum(np.abs(J), 1.0)
            assert (np.abs(J - Jfd) / scale).max() < 1e-6


def central_difference_log_jacobian(Z, E, step=1e-5):
    """d log h / dz by central differences, each taken as
    log(h(z + step) / h(z - step)), whose ratio is near 1 and so never
    crosses the branch cut of log."""
    out = np.zeros((E.edge_count, E.tet_count), dtype=complex)
    for i in range(E.tet_count):
        zp, zm = list(Z.z), list(Z.z)
        zp[i] += step
        zm[i] -= step
        out[:, i] = np.log(all_holonomies(ShapeAssignment(tuple(zp)), E)
                           / all_holonomies(ShapeAssignment(tuple(zm)), E)
                           ) / (2 * step)
    return out


def test_log_jacobian_matches_finite_differences(rng):
    systems = [system(name) for name in CORPUS_NAMES] + random_systems()
    for t, edges, E in systems:
        for _ in range(8):
            Z = random_shapes(rng, t.tetra_count)
            D = E.dense(log_jacobian(Z, E))
            scale = np.maximum(np.abs(D), 1.0)
            assert (np.abs(D - central_difference_log_jacobian(Z, E))
                    / scale).max() < 1e-6


def test_relation_rows_lie_in_the_log_jacobians_left_null_space(rng):
    # sum_e W[v, e] log h(e) is constant, so W D = 0: the sampler's real
    # system [Re D, -Im D] has the rows of W in its left null space
    systems = [system(name) for name in CORPUS_NAMES] + random_systems()
    for t, edges, E in systems:
        W = E.relations
        for _ in range(4):
            D = E.dense(log_jacobian(random_shapes(rng, t.tetra_count), E))
            assert np.abs(W @ D).max() <= 1e-12 * max(np.abs(D).max(), 1.0)


def test_jacobian_is_bitwise_its_one_expression(rng):
    # jacobian reads its log-derivative from log_jacobian; its values are
    # those of the one expression it was written as, bit for bit
    for t, edges, E in [system(name) for name in CORPUS_NAMES] + random_systems():
        n = t.tetra_count
        Z = rng.uniform(-2, 2, (5, n)) + 1j * rng.uniform(0.1, 2, (5, n))
        w, h = Z.take(E.cols, axis=-1), all_holonomies(Z, E)
        want = h.take(E.rows, axis=-1) * (
            E.pair_a / w + E.pair_a_prime / (1.0 - w)
            + E.pair_a_second / (w * (w - 1.0)))
        assert np.array_equal(jacobian(Z, E), want)
        assert np.array_equal(jacobian(Z, E, h), want)
        for k in range(len(Z)):
            assert np.array_equal(jacobian(ShapeAssignment(Z[k]), E), want[k])


# ------------------------------------------------------------ xi from shapes

def test_xi_from_shapes_regular_product_one():
    for name in ("hopf", "trefoil", "fig8_in_s3"):
        t, edges, E = system(name)
        Z = ShapeAssignment((REGULAR,) * t.tetra_count)
        xi = xi_from_shapes(Z, E)
        assert isinstance(xi, ConeTarget)
        assert abs(np.prod(xi.xi) - 1) < 1e-12


def test_xi_from_shapes_reports_off_circle_edges():
    t, edges, E = system("hopf")
    with pytest.raises(NotUnitModulus) as info:
        xi_from_shapes(ShapeAssignment((2.0 + 0j,)), E)
    msg = str(info.value)
    assert msg.startswith("the shapes are not a cone point: ")
    assert all(f"e{j} has |h(e)| = " in msg for j in (0, 1, 2))
    assert "|h(e)| = 2," in msg


def test_xi_from_shapes_names_an_edge_whose_holonomy_overflows():
    # h(e0) is nan, which fails the unit-circle test by name, and the
    # overflow raises no RuntimeWarning
    t, edges, E = system("fig8_complement")
    with pytest.raises(NotUnitModulus) as info:
        xi_from_shapes(ShapeAssignment((1e200 + 1e200j,) * 2), E)
    assert str(info.value) == ("the shapes are not a cone point: e0 has "
                               "|h(e)| = nan, e1 has |h(e)| = 0")


def test_xi_from_shapes_trefoil_seventh_root():
    t, edges, E = system("trefoil")
    z = cmath.exp(2j * math.pi / 7)
    xi = xi_from_shapes(ShapeAssignment((z,)), E)
    assert isinstance(xi, ConeTarget)
    vals = {e.degree: xi[e.index] for e in edges}
    assert abs(vals[1] - z) < 1e-13
    assert abs(vals[5] - z.conjugate()) < 1e-13


@pytest.mark.parametrize("z", [math.nan, math.inf, complex(0.5, math.nan),
                               complex(-math.inf, 1.0)])
def test_non_finite_shapes_are_rejected(z):
    with pytest.raises(DegenerateShape, match="not finite"):
        ShapeAssignment((REGULAR, z))


@pytest.mark.parametrize("z", [complex(1.5e308, 1.5e308),
                               complex(-1.3e308, 1.3e308)])
def test_a_shape_whose_modulus_overflows_is_rejected(z):
    # abs(z) raised OverflowError: a traceback from every command that
    # parses such a shape
    with pytest.raises(DegenerateShape,
                       match="has a modulus past the largest float"):
        ShapeAssignment((REGULAR, z))
    # finite parts of a float modulus are a shape, in both paths
    ok = np.array([[complex(1e308, 1e308), complex(-1.7e308, 1e-300)]])
    assert ShapeAssignment.rows(ok)[0] == ShapeAssignment(ok[0])


@pytest.mark.parametrize("x", [math.nan, math.inf, complex(math.nan, 1.0),
                               complex(1.0, -math.inf)])
def test_non_finite_cone_targets_are_rejected(x):
    with pytest.raises(NotUnitModulus):
        ConeTarget((1.0, x))


# ------------------------------------------------ result rows from a stack

def raised(build, *args):
    """(type, message) of the exception build(*args) raises."""
    with pytest.raises(Exception) as info:
        build(*args)
    return info.type, str(info.value)


def test_shape_rows_are_the_constructor_rows(rng):
    Z = rng.uniform(-2, 2, (5, 3)) + 1j * rng.uniform(0.1, 2, (5, 3))
    Z[0, 0] = complex(-0.0, 1.0)        # signed zeros survive
    rows = ShapeAssignment.rows(Z)
    assert [S.z for S in rows] == [ShapeAssignment(z).z for z in Z]
    assert all(type(S) is ShapeAssignment for S in rows)
    assert all(type(w) is complex for S in rows for w in S.z)
    assert math.copysign(1.0, rows[0][0].real) == -1.0
    assert ShapeAssignment.rows(np.empty((0, 3), dtype=complex)) == []


def per_entry(z):
    """The constructor's values, one check_nondegenerate per entry."""
    return tuple(check_nondegenerate(w) for w in z)


@pytest.mark.parametrize("entries", [
    lambda: (REGULAR, 2, -3.5, complex(-0.0, 2.0)),
    lambda: (w for w in (REGULAR, 0.25j)),
    lambda: (np.complex128(REGULAR), np.float64(-2.0), np.float32(0.1),
             np.int64(3), np.complex64(0.2 + 0.3j), np.longdouble(0.3)),
    lambda: (REGULAR, 2**53 + 1, 2**63 + 1, 2**70 + 1),
    lambda: (REGULAR, 10**400),
    lambda: (REGULAR, 0, 10**400),
    lambda: (REGULAR, 1 + 1e-9j, math.nan),
    lambda: (REGULAR, complex(1.5e308, 1.5e308)),
    lambda: (REGULAR, None),
    lambda: (REGULAR, b"0.3"),
    lambda: (REGULAR, "0.3+1j"),
    lambda: 5,
], ids=["ints", "generator", "numpy scalars", "rounded ints", "huge int",
        "degenerate before huge int", "first bad entry", "modulus overflow",
        "none", "bytes", "string", "not iterable"])
def test_shape_assignment_is_the_per_entry_check(entries):
    # the constructor's one array test keeps every value and every error
    # of checking the entries one at a time
    try:
        want = per_entry(entries())
    except Exception as err:
        assert raised(ShapeAssignment, entries()) == (type(err), str(err))
    else:
        got = ShapeAssignment(entries()).z
        assert repr(got) == repr(want)
        assert all(type(w) is complex for w in got)


@pytest.mark.parametrize("bad", [math.nan, math.inf, complex(0.5, -math.inf),
                                 1 + 1e-10j, 0.0, complex(1.5e308, 1.5e308),
                                 complex(-1.3e308, -1.3e308)])
def test_shape_rows_fail_as_the_constructor_fails(bad):
    Z = np.full((3, 2), REGULAR)
    Z[1, 1] = bad
    want = raised(ShapeAssignment, Z[1])
    assert want[0] is DegenerateShape
    assert raised(ShapeAssignment.rows, Z) == want


def test_cone_target_rows_are_the_constructor_rows(rng):
    H = np.exp(1j * rng.uniform(-4, 4, (4, 6))) * (1 + 1e-9 * rng.uniform(
        -1, 1, (4, 6)))
    rows = ConeTarget.rows(H)
    assert [x.xi for x in rows] == [ConeTarget(h).xi for h in H]
    assert all(type(x) is ConeTarget for x in rows)
    assert all(type(w) is complex for x in rows for w in x.xi)


@pytest.mark.parametrize("bad", [math.nan, complex(1.0, math.inf), 1.5,
                                 1 + 2e-8j * 1j])
def test_cone_target_rows_fail_as_the_constructor_fails(bad):
    H = np.full((3, 4), REGULAR)
    H[2, 1] = bad
    want = raised(ConeTarget, H[2])
    assert want[0] is NotUnitModulus
    assert raised(ConeTarget.rows, H) == want
