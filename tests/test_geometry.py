"""Dilogarithm, Bloch-Wigner volume, dihedral angles."""
import cmath
import math
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from idealglue import (BranchCut, DegenerateShape, ShapeAssignment, V_TET,
                       bloch_wigner, build_exponent_matrix,
                       compute_edge_classes, corpus, dihedral_angles, dilog,
                       edge_cone_angles, parse_triangulation,
                       solution_volume)
from idealglue.geometry import _BERNOULLI, _N_BERNOULLI, _bloch_wigner_array
from idealglue.gluing import SLOT_LABELS, _triples
from conftest import chain_cover_text, random_shapes, random_systems

REGULAR = cmath.exp(1j * math.pi / 3)


def li2_oracle(z):
    """Independent high-precision reference."""
    return complex(mpmath.polylog(2, complex(z)))


def test_dilog_special_values():
    assert dilog(0) == 0
    assert abs(dilog(1) - math.pi ** 2 / 6) < 1e-15
    series_half = sum((0.5 ** k) / k ** 2 for k in range(1, 60))
    assert abs(dilog(0.5) - series_half) < 1e-15
    assert abs(dilog(0.5) - (math.pi ** 2 / 12 - math.log(2) ** 2 / 2)) < 1e-14


def test_bernoulli_table_is_the_recurrence():
    # B_0 .. B_47 from sum_{j <= m} C(m + 1, j) B_j = 0, exactly; the table
    # holds the nonzero ones as floats, and every odd B_k past B_1 is 0
    b = [Fraction(1)]
    for m in range(1, _N_BERNOULLI):
        b.append(-sum(math.comb(m + 1, j) * b[j] for j in range(m)) / (m + 1))
    assert _BERNOULLI == {k: float(x) for k, x in enumerate(b) if x}
    assert sorted(_BERNOULLI) == [0, 1] + list(range(2, _N_BERNOULLI, 2))


def test_dilog_branch_cut():
    with pytest.raises(BranchCut):
        dilog(1.5)
    with pytest.raises(BranchCut):
        dilog(100.0)
    # just off the cut is fine and continuous from both sides
    up = dilog(1.5 + 1e-12j)
    dn = dilog(1.5 - 1e-12j)
    assert abs(up.real - dn.real) < 1e-9
    assert abs(up.imag + dn.imag) < 1e-9


def test_dilog_against_oracle(rng):
    worst = 0.0
    for _ in range(400):
        z = complex(rng.uniform(-3, 3), rng.uniform(-3, 3))
        if abs(z) < 1e-2 or abs(z - 1) < 1e-2:
            continue
        worst = max(worst, abs(dilog(z) - li2_oracle(z)))
    assert worst < 1e-12


def test_bloch_wigner_real_is_zero():
    for x in (-3.0, -0.4, 0.2, 0.7, 2.5, 100.0):
        assert bloch_wigner(x) == 0.0
    with pytest.raises(DegenerateShape):
        bloch_wigner(0.0)
    with pytest.raises(DegenerateShape):
        bloch_wigner(1.0)


def test_bloch_wigner_conjugation_antisymmetry(rng):
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.01, 3))
        if abs(z) < 0.05 or abs(z - 1) < 0.05:
            continue
        assert abs(bloch_wigner(z) + bloch_wigner(z.conjugate())) < 1e-12


def test_bloch_wigner_shape_triple_invariance(rng):
    for _ in range(100):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.02, 3))
        if abs(z) < 0.05 or abs(z - 1) < 0.05:
            continue
        d = bloch_wigner(z)
        assert abs(d - bloch_wigner(1 / (1 - z))) < 1e-10
        assert abs(d - bloch_wigner((z - 1) / z)) < 1e-10


def test_bloch_wigner_sign_pattern(rng):
    for _ in range(50):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        if abs(z) < 0.1 or abs(z - 1) < 0.1:
            continue
        assert bloch_wigner(z) > 0
        assert bloch_wigner(z.conjugate()) < 0


def bloch_wigner_oracle(z):
    z = mpmath.mpc(z)
    return float(mpmath.im(mpmath.polylog(2, z))
                 + mpmath.arg(1 - z) * mpmath.log(abs(z)))


def test_bloch_wigner_against_oracle_where_the_series_is_hard(rng):
    # near 0, 1 and oo, on the unit circle, near the real axis (flat), below
    # it, and at random
    near = [c + r * cmath.exp(1j * a) for c in (0.0, 1.0)
            for r in (1e-9, 1e-5, 1e-2, 0.3) for a in np.linspace(-3, 3, 13)]
    far = [r * cmath.exp(1j * a) for r in (1e3, 1e8) for a in np.linspace(-3, 3, 13)]
    circle = [cmath.exp(1j * a) for a in np.linspace(-3.1, 3.1, 63) if a]
    flat = [complex(x, y) for x in (-7.0, -0.5, 0.3, 0.9, 1.2, 40.0)
            for y in (1e-12, -1e-9, 1e-6)]
    shapes = near + far + circle + flat + list(
        rng.uniform(-4, 4, 200) + 1j * rng.uniform(-4, 4, 200))
    for z in shapes:
        assert abs(bloch_wigner(z) - bloch_wigner_oracle(z)) < 1e-14, z
    array = _bloch_wigner_array(np.array(shapes))
    scalar = np.array([bloch_wigner(z) for z in shapes])
    assert np.abs(array - scalar).max() <= 1e-15


def test_v_tet_value_and_maximality():
    # value from the series oracle
    ref = (mpmath.im(mpmath.polylog(2, mpmath.mpc(REGULAR)))
           + mpmath.arg(1 - mpmath.mpc(REGULAR)) * mpmath.log(abs(mpmath.mpc(REGULAR))))
    assert abs(V_TET - float(ref)) < 1e-12
    assert abs(V_TET - 1.0149416064096536) < 1e-12
    assert abs(V_TET - bloch_wigner(REGULAR)) <= 4e-16
    # grid + local refinement: the maximum sits at the regular shape
    best = max(bloch_wigner(complex(x, y))
               for x in np.linspace(-1.5, 2.5, 81)
               for y in np.linspace(0.05, 2.0, 60))
    assert best <= V_TET + 1e-12
    for dx, dy in ((1e-4, 0), (-1e-4, 0), (0, 1e-4), (0, -1e-4)):
        assert bloch_wigner(REGULAR + complex(dx, dy)) <= V_TET


def test_solution_volume_fig8_complete():
    Z = ShapeAssignment((REGULAR, REGULAR))
    rep = solution_volume(Z)
    assert abs(rep.total - 2.029883212819) < 1e-9
    assert abs(rep.total - 2 * V_TET) < 1e-12
    assert rep.flat_tetrahedra == ()
    assert rep.negatively_oriented == ()


def test_solution_volume_flat_point():
    rep = solution_volume(ShapeAssignment((-1.0 + 0j,)))
    assert rep.total == 0.0
    assert rep.flat_tetrahedra == (0,)


def test_solution_volume_negative_orientation():
    rep = solution_volume(ShapeAssignment((REGULAR.conjugate(),)))
    assert rep.negatively_oriented == (0,)
    assert rep.total < 0


def test_dihedral_angles():
    a = dihedral_angles(cmath.exp(0.8j))
    assert abs(a[0] - 0.8) < 1e-14
    assert abs(a[1] - (math.pi - 0.8) / 2) < 1e-13
    assert abs(a[2] - (math.pi - 0.8) / 2) < 1e-13

    a = dihedral_angles(REGULAR)
    assert all(abs(x - math.pi / 3) < 1e-14 for x in a)

    a = dihedral_angles(2.0 + 0j)
    assert sorted(abs(x) for x in a) == pytest.approx([0, 0, math.pi])
    assert abs(sum(a) - math.pi) < 1e-14


def test_dihedral_angle_sum_upper_half_plane(rng):
    for _ in range(100):
        z = complex(rng.uniform(-2, 2), rng.uniform(0.05, 2))
        if abs(z) < 0.1 or abs(z - 1) < 0.1:
            continue
        a = dihedral_angles(z)
        assert all(x > 0 for x in a)
        assert abs(sum(a) - math.pi) < 1e-10


def test_edge_cone_angles_recover_winding():
    # hopf on the unit-circle family: angle 2(pi - alpha) at the degree-four
    # edge and alpha at the degree-one edges; the arg of h alone would lose
    # the 2 pi winding
    t = corpus("hopf")
    edges = compute_edge_classes(t)
    E = build_exponent_matrix(t, edges)
    alpha = 2.2
    Z = ShapeAssignment((cmath.exp(1j * alpha),))
    angles = edge_cone_angles(Z, E)
    by_degree = {e.degree: angles[e.index] for e in edges}
    assert abs(by_degree[1] - alpha) < 1e-12
    assert abs(by_degree[4] - 2 * (math.pi - alpha)) < 1e-12

    # trefoil: angle at the degree-five edge is 2 pi - alpha
    t = corpus("trefoil")
    edges = compute_edge_classes(t)
    E = build_exponent_matrix(t, edges)
    angles = edge_cone_angles(ShapeAssignment((cmath.exp(1j * alpha),)), E)
    by_degree = {e.degree: angles[e.index] for e in edges}
    assert abs(by_degree[1] - alpha) < 1e-12
    assert abs(by_degree[5] - (2 * math.pi - alpha)) < 1e-12


def test_edge_cone_angles_are_slot_sums_on_random_triangulations(rng):
    for t, edges, E in random_systems():
        for _ in range(5):
            Z = random_shapes(rng, t.tetra_count)
            angles = edge_cone_angles(Z, E)
            for e in edges:
                expect = sum(dihedral_angles(Z[tet])[SLOT_LABELS[slot]]
                             for tet, slot, _ in e.cycle)
                assert abs(angles[e.index] - expect) < 1e-12


def test_edge_cone_angles_are_slot_sums_on_a_large_chain_cover(rng):
    t = parse_triangulation(chain_cover_text(64))      # n = 128
    edges, E = compute_edge_classes(t), build_exponent_matrix(t)
    Z = random_shapes(rng, t.tetra_count)
    angles = edge_cone_angles(Z, E)
    dihedral = [dihedral_angles(z) for z in Z.z]
    for e in edges:
        expect = sum(dihedral[tet][SLOT_LABELS[slot]] for tet, slot, _ in e.cycle)
        assert abs(angles[e.index] - expect) < 1e-12


HUGE = [complex(1e308, 1e308), complex(-1.2e308, -1.2e308),
        complex(1.27e308, 1e308), complex(-1e308, 1e300), complex(0, 1e308),
        complex(3e301, -2e301), complex(1e300, 1e300), complex(1.7e308, 1.0)]


@pytest.mark.parametrize("z", HUGE)
def test_volume_and_angles_at_the_top_of_the_float_range(z):
    # (z - 1) / z overflowed in NumPy's complex division past |z| of about
    # 1.27e308: RuntimeWarnings, z' = 0, z'' = nan and a nan volume
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        vol = solution_volume(ShapeAssignment((z, REGULAR)))
        angles = dihedral_angles(z)
    with mpmath.workdps(40):    # D(z) is about log|z| / |z| here
        w = mpmath.mpc(z)
        want = (mpmath.im(mpmath.polylog(2, w))
                + mpmath.arg(1 - w) * mpmath.log(abs(w)))
        arg = [mpmath.arg(w), mpmath.arg(1 / (1 - w)), mpmath.arg((w - 1) / w)]
    assert abs(vol.per_tetrahedron[0] - float(want)) < 1e-15
    assert vol.per_tetrahedron[1] == bloch_wigner(REGULAR)
    assert max(abs(a - float(b)) for a, b in zip(angles, arg)) < 1e-15


def test_bloch_wigner_at_large_shapes_matches_mpmath():
    # below the 1 / z form's old threshold of 2^1000, (z - 1) / z rounded
    # the argument of z'' to about 1e-16 absolute, which D multiplies by
    # log|z'|: D missed mpmath by up to 3.7e-14 on these shapes
    rng = np.random.default_rng(5)
    z = 10 ** rng.uniform(6, 301, 400) * np.exp(1j * rng.uniform(-np.pi, np.pi,
                                                                400))
    got = _bloch_wigner_array(z)
    with mpmath.workdps(50):
        for zi, d in zip(z, got):
            w = mpmath.mpc(zi)
            want = (mpmath.im(mpmath.polylog(2, w))
                    + mpmath.arg(1 - w) * mpmath.log(abs(w)))
            assert abs(d - float(want)) < 1e-15


def test_huge_shapes_leave_the_other_triples_bitwise(rng):
    z = rng.uniform(-3, 3, 200) + 1j * rng.uniform(-3, 3, 200)
    triple = np.stack([z, 1.0 / (1.0 - z), (z - 1.0) / z], axis=-1)
    assert np.array_equal(_triples(z), triple)
    mixed = _triples(np.concatenate([z, HUGE]))
    assert np.array_equal(mixed[:len(z)], triple)
    assert np.isfinite(mixed).all()


def test_solution_volume_is_never_nan():
    # a non-finite shape no longer reaches solution_volume, whose total
    # would be nan
    for z in (math.nan, complex(math.inf, 1.0)):
        with pytest.raises(DegenerateShape):
            solution_volume(ShapeAssignment((REGULAR, z)))
    assert math.isfinite(solution_volume(ShapeAssignment((REGULAR,) * 2)).total)
