"""Developing maps, elementary face pairings, and the closed-form holonomy
fixtures for the one-tetrahedron triangulations."""
import cmath
import math

import numpy as np
import pytest

from idealglue import (IdealGlueError, ShapeAssignment, all_holonomies,
                       build_exponent_matrix, compute_edge_classes, corpus,
                       develop_across_face, develop_spanning_tree,
                       edge_cone_angles, edge_holonomy_matrix,
                       parse_triangulation, xi_from_shapes)
from idealglue.gluing import DegenerateShape
from idealglue.triangulation import EDGE_SLOTS, VertexPermutation
from conftest import (chain_cover_text, conjugate_match, psl2_dist,
                      random_shapes)
from oracles import relabel

REGULAR = cmath.exp(1j * math.pi / 3)


# reference fixtures (Hopf link triangulation, flat point z = -1)
HOPF_GAMMA0_FLAT = np.array([[1j, -2j], [0, -1j]])
HOPF_GAMMA1_FLAT = np.array([[-1j, 0], [-1j, 1j]])


def hopf_family_matrices(z):
    """Closed-form generator images for the Hopf family, unit-circle z."""
    sz = cmath.sqrt(z)
    g0 = np.array([[z, 1 - z], [0, 1]]) / sz
    g1 = np.array([[1, 0], [-z, z]]) / sz
    return g0, g1


def trefoil_family_matrices(z):
    sz = cmath.sqrt(z)
    g3 = np.array([[0, z], [-1, z]]) / sz
    ginf = np.array([[1, z], [0, z]]) / sz
    return g3, ginf


# ------------------------------------------------- developed points (oracle)

# even-permutation representative (a, b, c, d) per slot {a, b}
EVEN_REPS = {
    (0, 1): (0, 1, 2, 3), (2, 3): (2, 3, 0, 1),
    (0, 2): (0, 2, 3, 1), (1, 3): (1, 3, 2, 0),
    (0, 3): (0, 3, 1, 2), (1, 2): (1, 2, 0, 3),
}


def _det(u, v):
    return u[0] * v[1] - u[1] * v[0]


def same_point(u, v):
    """Projective distance of two CP^1 lifts."""
    return abs(_det(u, v)) / (np.linalg.norm(u) * np.linalg.norm(v))


def developed_points(dc, Z, tet):
    """Tetrahedron tet's vertices (0, oo, 1, z) in its own frame, carried
    into tetrahedron 0's frame, as CP^1 lifts."""
    F = dc.frames[tet]
    return [F @ np.array(v, dtype=complex)
            for v in ((0, 1), (1, 0), (1, 1), (Z[tet], 1))]


def shape_at(points, slot):
    """Cross-ratio read-back at slot {a, b}: the image of p_d under the map
    sending (p_a, p_b, p_c) to (0, oo, 1), for the even representative
    (a, b, c, d)."""
    p, q, r, s = (points[v] for v in EVEN_REPS[tuple(sorted(slot))])
    return _det(q, r) * _det(p, s) / (_det(p, r) * _det(q, s))


def adjugate(m):
    """The inverse of a det-1 matrix, exactly as the develop forms it."""
    (a, b), (c, d) = m
    return np.array([[d, -b], [-c, a]])


def face_pairing(frames, steps, g):
    """The elementary face pairing of gluing g in tetrahedron 0's frame,
    frames[target] step(g)^-1 frames[source]^-1."""
    return (frames[g.target_tet] @ steps[4 * g.target_tet + g.target_face]
            @ adjugate(frames[g.source_tet]))


def mobius_from_triples(src, dst):
    """The det-1 matrix of the Mobius map sending (0, 1, oo) to dst."""
    assert src == (0, 1, math.inf)
    a, b, c = dst
    k = (b - a) / (c - b)
    m = np.array([[c * k, a], [k, 1]])
    return m / cmath.sqrt(np.linalg.det(m))


def test_initial_tetrahedron_develops_to_0_oo_1_z():
    # tetrahedron 0's frame is the identity, so it fixes (0, oo, 1, z)
    dc = develop_spanning_tree(corpus("hopf"), ShapeAssignment((1j,)))
    assert np.array_equal(dc.frames[0], np.eye(2))


def test_developed_shape_readback(rng):
    from idealglue import random_triangulation
    for seed in range(12):
        t = random_triangulation(1 + seed % 6, seed=seed)
        Z = random_shapes(rng, t.tetra_count)
        dc = develop_spanning_tree(t, Z)
        for tet, z in enumerate(Z.z):
            got = shape_at(developed_points(dc, Z, tet), (0, 1))
            assert abs(got - z) < 1e-9 * max(1, abs(z))


def test_place_initial_regular_all_slots():
    # the regular shape reads back as itself at every slot of every
    # developed tetrahedron
    for name in ("hopf", "fig8_in_s3"):
        t = corpus(name)
        Z = ShapeAssignment((REGULAR,) * t.tetra_count)
        dc = develop_spanning_tree(t, Z)
        for tet in range(t.tetra_count):
            pts = developed_points(dc, Z, tet)
            for slot in EDGE_SLOTS:
                assert abs(shape_at(pts, slot) - REGULAR) < 1e-12


def test_placement_slot_invariants(rng):
    # every developed tetrahedron reads z at its opposite slots {01, 23},
    # z' at {03, 12} and z'' at {02, 13}
    t = corpus("fig8_in_s3")
    for Z in [ShapeAssignment((REGULAR,) * 3)] + [
            random_shapes(rng, 3) for _ in range(10)]:
        dc = develop_spanning_tree(t, Z)
        for tet, z in enumerate(Z.z):
            pts = developed_points(dc, Z, tet)
            for slots, want in ((((0, 1), (2, 3)), z),
                                (((0, 3), (1, 2)), 1 / (1 - z)),
                                (((0, 2), (1, 3)), (z - 1) / z)):
                for slot in slots:
                    assert abs(shape_at(pts, slot) - want) < 1e-10


def test_develop_rejects_degenerate_shape():
    # develop takes a ShapeAssignment, whose constructor rejects a shape in
    # the guard band around {0, 1}, so develop never receives one
    with pytest.raises(DegenerateShape, match="within 1e-08 of"):
        ShapeAssignment((1 + 1e-12j,))
    with pytest.raises(DegenerateShape, match="within 1e-08 of"):
        ShapeAssignment((REGULAR, 1e-9j))


# ---------------------------------------------------------------- face steps

def test_develop_across_shares_face_points_exactly(rng):
    # the face step sends each shared vertex of the target's frame onto the
    # source's, and the fourth vertex where the target's shape puts it; the
    # reversed gluings' steps are the adjugates
    t = corpus("fig8_complement")
    for g in t.gluings + tuple(g.reversed() for g in t.gluings):
        for _ in range(10):
            Z = random_shapes(rng, 2)
            S = develop_across_face(t, Z)[4 * g.source_tet + g.source_face]
            assert abs(np.linalg.det(S) - 1) < 1e-14
            src, frame = ([np.array(v, dtype=complex)
                           for v in ((0, 1), (1, 0), (1, 1), (Z[tet], 1))]
                          for tet in (g.source_tet, g.target_tet))
            moved = [S @ frame[g.perm(v)] for v in range(4)]
            for v in range(4):
                if v != g.source_face:
                    assert same_point(moved[v], src[v]) < 1e-15
            pts = [None] * 4
            for v in range(4):
                pts[g.perm(v)] = moved[v] if v != g.source_face else \
                    S @ frame[g.target_face]
            assert abs(shape_at(pts, (0, 1)) - Z[g.target_tet]) < 1e-11


def test_develop_out_and_back_restores_placement(rng):
    # the reverse gluing's step is the inverse, and the development caches
    # exactly that
    t = corpus("fig8_complement")
    Z = random_shapes(rng, 2)
    dc = develop_spanning_tree(t, Z)
    steps = develop_across_face(t, Z)
    for g in t.gluings:
        there = steps[4 * g.source_tet + g.source_face]
        back = steps[4 * g.target_tet + g.target_face]
        assert psl2_dist(there @ back, np.eye(2)) < 1e-13
        assert np.array_equal(dc.steps[4 * g.source_tet + g.source_face], there)
        assert np.array_equal(dc.steps[4 * g.target_tet + g.target_face],
                              adjugate(there))


def test_develop_fig8_neighbor_has_regular_triple():
    t = corpus("fig8_complement")
    Z = ShapeAssignment((REGULAR, REGULAR))
    pts = developed_points(develop_spanning_tree(t, Z), Z, 1)
    for slot in EDGE_SLOTS:
        v = shape_at(pts, slot)
        assert min(abs(v - REGULAR), abs(v - 1 / (1 - REGULAR)),
                   abs(v - (REGULAR - 1) / REGULAR)) < 1e-13


# ------------------------------------------------------------ spanning tree

def test_spanning_tree_counts():
    dc = develop_spanning_tree(corpus("hopf"), ShapeAssignment((1j,)))
    assert len(dc.tree) == 0
    assert len(dc.generators) == 2

    dc = develop_spanning_tree(corpus("fig8_complement"),
                               ShapeAssignment((1j, 1j)))
    assert len(dc.tree) == 1
    assert len(dc.generators) == 3

    dc = develop_spanning_tree(corpus("fig8_in_s3"),
                               ShapeAssignment((1j, 1j, 1j)))
    assert len(dc.tree) == 2
    assert len(dc.generators) == 4   # n + 1


def test_tree_gluings_share_developed_faces():
    t = corpus("fig8_in_s3")
    Z = ShapeAssignment((0.3 + 1.1j, -0.4 + 0.8j, 1.2 + 0.7j))
    dc = develop_spanning_tree(t, Z)
    for g in dc.tree:
        src = developed_points(dc, Z, g.source_tet)
        dst = developed_points(dc, Z, g.target_tet)
        for v in range(4):
            if v != g.source_face:
                assert same_point(src[v], dst[g.perm(v)]) < 1e-14


# ---------------------------------------------------- reference generators

def test_hopf_flat_generators_match_reference():
    t = corpus("hopf")
    dc = develop_spanning_tree(t, ShapeAssignment((-1.0 + 0j,)))
    G = list(dc.generator_matrices)
    matches = []
    for a, b in ((0, 1), (1, 0)):
        m = conjugate_match([(HOPF_GAMMA0_FLAT, G[a]), (HOPF_GAMMA1_FLAT, G[b])])
        if m is not None:
            matches.append(m[0])
    assert matches and min(matches) < 1e-9


def test_hopf_family_generators_match_reference(rng):
    t = corpus("hopf")
    for theta in (0.9, 2.0):
        z = cmath.exp(1j * theta)
        dc = develop_spanning_tree(t, ShapeAssignment((z,)))
        G = list(dc.generator_matrices)
        g0p, g1p = hopf_family_matrices(z)
        best = min(m[0] for a, b in ((0, 1), (1, 0))
                   for m in [conjugate_match([(g0p, G[a]), (g1p, G[b])])]
                   if m is not None)
        assert best < 1e-9


def test_hopf_generator_traces_along_family():
    t = corpus("hopf")
    for theta in (math.pi / 3, math.pi / 2, 2 * math.pi / 3, math.pi):
        dc = develop_spanning_tree(t, ShapeAssignment((cmath.exp(1j * theta),)))
        for m in dc.generator_matrices:
            assert abs(abs(np.trace(m)) - abs(2 * math.cos(theta / 2))) < 1e-9


def test_trefoil_generators_match_reference():
    t = corpus("trefoil")
    for theta in (0.9, 2 * math.pi / 3):
        z = cmath.exp(1j * theta)
        dc = develop_spanning_tree(t, ShapeAssignment((z,)))
        G = dc.generator_matrices
        g3p, ginfp = trefoil_family_matrices(z)
        # the gluing fixing the degree-one edge pointwise corresponds to
        # gamma_inf; deck direction inverts both
        i_rot = next(i for i, g in enumerate(dc.generators)
                     if sum(g.perm(v) != v for v in range(4)) == 2)
        ginf = np.linalg.inv(G[i_rot])
        g3 = np.linalg.inv(G[1 - i_rot])
        m = conjugate_match([(g3p, g3), (ginfp, ginf)])
        assert m is not None and m[0] < 1e-9


def test_trefoil_modular_limit():
    # z -> 1 along the circle: generator traces approach (1, 2) and their
    # product's trace approaches 0 (the modular group limit)
    t = corpus("trefoil")
    z = cmath.exp(1e-6j)
    dc = develop_spanning_tree(t, ShapeAssignment((z,)))
    G = dc.generator_matrices
    trs = sorted(abs(np.trace(m)) for m in G)
    assert abs(trs[0] - 1) < 1e-5
    assert abs(trs[1] - 2) < 1e-9
    prod_traces = (abs(np.trace(G[0] @ G[1])),
                   abs(np.trace(G[0] @ np.linalg.inv(G[1]))))
    assert min(prod_traces) < 1e-5


def trefoil_order_two_composite(dc):
    """The order-two symmetry of the trefoil family: the composite
    gamma3^-3 ginf gamma3 ginf gamma3^-1 ginf in the deck generators
    (gamma = inverse of the elementary pairing from the canonical gluing
    side).  Its matrix is (0 z; -1/z 0) up to conjugation for every family
    point."""
    G = dc.generator_matrices
    i_rot = next(i for i, g in enumerate(dc.generators)
                 if sum(g.perm(v) != v for v in range(4)) == 2)
    ginf = np.linalg.inv(G[i_rot])
    g3 = np.linalg.inv(G[1 - i_rot])
    g3i = np.linalg.inv(g3)
    return g3i @ g3i @ g3i @ ginf @ g3 @ ginf @ g3i @ ginf


def test_trefoil_order_two_composite():
    t = corpus("trefoil")
    for theta in (0.9, math.pi / 2, 2 * math.pi / 3, 2.7):
        z = cmath.exp(1j * theta)
        dc = develop_spanning_tree(t, ShapeAssignment((z,)))
        g2 = trefoil_order_two_composite(dc)
        assert abs(np.trace(g2)) < 1e-9
        assert psl2_dist((g2 @ g2), np.eye(2)) < 1e-9
        # projectively conjugate to the closed form (0 z; -1/z 0)
        target = np.array([[0, z], [-1 / z, 0]])
        m = conjugate_match([(target, g2)])
        assert m is not None and m[0] < 1e-8


def test_generator_determinants(rng):
    for name in ("hopf", "fig8_complement", "fig8_in_s3"):
        t = corpus(name)
        Z = random_shapes(rng, t.tetra_count)
        dc = develop_spanning_tree(t, Z)
        for m in dc.generator_matrices:
            assert abs(np.linalg.det(m) - 1) < 1e-12


# ------------------------------------------------------------- edge matrices

def test_fig8_complete_edge_matrices_are_identity():
    t = corpus("fig8_complement")
    Z = ShapeAssignment((REGULAR, REGULAR))
    dc = develop_spanning_tree(t, Z)
    for j in range(2):
        M, mult = dc.edge_matrices[j], dc.multipliers[j]
        assert psl2_dist(M, np.eye(2)) < 1e-9
        assert abs(mult - 1) < 1e-9


def test_hopf_edge_multiplier_family():
    t = corpus("hopf")
    edges = compute_edge_classes(t)
    j4 = next(e.index for e in edges if e.degree == 4)
    for theta in (0.7, 1.9, 2.8):
        z = cmath.exp(1j * theta)
        Z = ShapeAssignment((z,))
        dc = develop_spanning_tree(t, Z)
        M, mult = dc.edge_matrices[j4], dc.multipliers[j4]
        assert abs(mult - cmath.exp(-2j * theta)) < 1e-11
        assert abs(abs(np.trace(M)) - abs(z + 1 / z)) < 1e-11


def test_hopf_flat_edge_matrix_is_minus_identity():
    t = corpus("hopf")
    Z = ShapeAssignment((-1.0 + 0j,))
    dc = develop_spanning_tree(t, Z)
    j4 = next(e.index for e in compute_edge_classes(t) if e.degree == 4)
    M, mult = dc.edge_matrices[j4], dc.multipliers[j4]
    assert psl2_dist(M, -np.eye(2)) < 1e-12
    assert abs(abs(np.trace(M)) - 2) < 1e-12


def test_edge_closure_multiplier_on_random_triangulations(rng):
    """The multiplier contract is intrinsic: it holds on arbitrary valid
    triangulations (random face pairings hit degree-one and degree-two
    edges, self-gluings and long cycles the corpus does not)."""
    from idealglue import random_triangulation
    for seed in range(12):
        n = 1 + seed % 6
        t = random_triangulation(n, seed=seed)
        edges = compute_edge_classes(t)
        E = build_exponent_matrix(t, edges)
        Z = random_shapes(rng, n)
        h = all_holonomies(Z, E)
        dc = develop_spanning_tree(t, Z)
        for e in edges:
            M, mult = dc.edge_matrices[e.index], dc.multipliers[e.index]
            assert abs(mult - h[e.index]) / max(1.0, abs(h[e.index])) < 1e-9
            assert abs(np.linalg.det(M) - 1) < 1e-10


def test_edge_matrices_are_the_walk_around_each_edge(rng):
    # the reference: each edge class's own steps, one 2x2 product at a time,
    # in the order the stacked walk multiplies them
    from idealglue import random_triangulation
    for seed in range(12):
        t = random_triangulation(1 + seed % 6, seed=seed)
        Z = random_shapes(rng, t.tetra_count)
        dc = develop_spanning_tree(t, Z)
        for e in compute_edge_classes(t):
            M = np.eye(2, dtype=complex)
            for g in e.steps:
                M = M @ dc.steps[4 * g.source_tet + g.source_face]
            assert np.array_equal(M, dc.edge_matrices[e.index])


def test_develop_rejects_disconnected():
    import pytest
    from idealglue import make_triangulation
    # two disjoint doubled tetrahedra
    pair = [(0, f, 1, [1, 0, 2, 3][f], (1, 0, 2, 3)) for f in range(4)]
    pair += [(2, f, 3, [1, 0, 2, 3][f], (1, 0, 2, 3)) for f in range(4)]
    t = make_triangulation(4, pair)
    with pytest.raises(ValueError, match="disconnected"):
        develop_spanning_tree(t, ShapeAssignment((1j,) * 4))


def test_develop_failures_are_package_errors():
    # the CLI reports a package error as exit 2; ValueError keeps the type
    # these failures had before
    from idealglue import DevelopFailure, IdealGlueError
    assert issubclass(DevelopFailure, IdealGlueError)
    assert issubclass(DevelopFailure, ValueError)


SHAPE_READERS = {
    "develop_spanning_tree": lambda t, E, Z: develop_spanning_tree(t, Z),
    "develop_across_face": lambda t, E, Z: develop_across_face(t, Z),
    "edge_holonomy_matrix": lambda t, E, Z: edge_holonomy_matrix(
        t, Z, develop_across_face(t, ShapeAssignment((REGULAR,) * 2))),
    "edge_cone_angles": lambda t, E, Z: edge_cone_angles(Z, E),
    "xi_from_shapes": lambda t, E, Z: xi_from_shapes(Z, E),
}


@pytest.mark.parametrize("count", [1, 3])
@pytest.mark.parametrize("read", SHAPE_READERS.values(), ids=SHAPE_READERS)
def test_a_wrong_shape_count_is_named_at_every_entry_point(read, count):
    # with three shapes for two tetrahedra these used the first two, and
    # with one they raised IndexError
    t = corpus("fig8_complement")
    with pytest.raises(IdealGlueError,
                       match=f"expected 2 shapes \\(one per tetrahedron\\), "
                             f"got {count}"):
        read(t, build_exponent_matrix(t), ShapeAssignment((REGULAR,) * count))


def test_edge_closure_multiplier_pointwise(rng):
    """multiplier = h(e) for arbitrary shapes, solutions or not."""
    for name in ("hopf", "trefoil", "fig8_complement", "fig8_in_s3",
                 "doubled_tetrahedron"):
        t = corpus(name)
        edges = compute_edge_classes(t)
        E = build_exponent_matrix(t, edges)
        for _ in range(10):
            Z = random_shapes(rng, t.tetra_count)
            h = all_holonomies(Z, E)
            dc = develop_spanning_tree(t, Z)
            for e in edges:
                M, mult = dc.edge_matrices[e.index], dc.multipliers[e.index]
                assert abs(mult - h[e.index]) / max(1.0, abs(h[e.index])) < 1e-9
                assert abs(np.linalg.det(M) - 1) < 1e-10


def test_tree_gluing_elementary_pairing_is_identity(rng):
    """A gluing whose two developed face triples already coincide (any tree
    gluing) has the identity as its elementary pairing."""
    t = corpus("fig8_complement")
    Z = random_shapes(rng, 2)
    dc = develop_spanning_tree(t, Z)
    m = face_pairing(dc.frames, dc.steps, dc.tree[0])
    assert psl2_dist(m, np.eye(2)) < 1e-10


def test_trefoil_flat_point_edge_involution():
    """At z = -1 the degree-five target has order two, and the composed edge
    matrix is a half-turn: trace 0, square = +-identity."""
    t = corpus("trefoil")
    Z = ShapeAssignment((-1.0 + 0j,))
    dc = develop_spanning_tree(t, Z)
    j5 = next(e.index for e in compute_edge_classes(t) if e.degree == 5)
    M, mult = dc.edge_matrices[j5], dc.multipliers[j5]
    assert abs(mult - (-1)) < 1e-12           # h(e2) = z^{-1} = -1
    assert abs(np.trace(M)) < 1e-12
    assert psl2_dist((M @ M), np.eye(2)) < 1e-12


def test_generators_conjugate_under_initial_placement_change(rng):
    """Re-choosing tetrahedron 0's frame moves every frame by one Mobius
    map, so every generator conjugates simultaneously and traces are
    unchanged."""
    C = mobius_from_triples((0, 1, math.inf), (1j, 2 - 1j, 0.3 + 0.4j))
    for name in ("hopf", "trefoil", "fig8_complement", "fig8_in_s3",
                 "doubled_tetrahedron"):
        t = corpus(name)
        Z = random_shapes(rng, t.tetra_count)
        dc = develop_spanning_tree(t, Z)
        moved = C @ dc.frames
        for g, m in zip(dc.generators, dc.generator_matrices):
            m1 = face_pairing(dc.frames, dc.steps, g)
            m2 = face_pairing(moved, dc.steps, g)
            assert np.array_equal(m, m1)
            conj = C @ m1 @ np.linalg.inv(C)
            assert psl2_dist(m2, conj) < 1e-9
            assert min(abs(np.trace(m2) - np.trace(m1)),
                       abs(np.trace(m2) + np.trace(m1))) < 1e-10


def test_traces_invariant_under_renumbering(rng):
    """Renumbering tetrahedra re-roots the development.  Generator traces
    are preserved when the renumbered spanning tree uses the same gluing
    pairs; edge-matrix traces are canonical and always preserved."""
    ident = VertexPermutation((0, 1, 2, 3))
    for name, tet_perm in (("fig8_complement", [1, 0]),
                           ("fig8_in_s3", [2, 0, 1]),
                           ("doubled_tetrahedron", [1, 0])):
        t = corpus(name)
        Z = random_shapes(rng, t.tetra_count)
        dc = develop_spanning_tree(t, Z)

        t2 = relabel(t, [ident] * t.tetra_count, tet_perm)
        z2 = [None] * t.tetra_count
        for old, new in enumerate(tet_perm):
            z2[new] = Z.z[old]
        Z2 = ShapeAssignment(tuple(z2))
        dc2 = develop_spanning_tree(t2, Z2)

        med1 = sorted(abs(np.trace(M)) for M in dc.edge_matrices)
        med2 = sorted(abs(np.trace(M)) for M in dc2.edge_matrices)
        assert np.allclose(med1, med2, atol=1e-9), name

        tree1_relabeled = {
            frozenset(((tet_perm[g.source_tet], g.source_face),
                       (tet_perm[g.target_tet], g.target_face)))
            for g in dc.tree}
        tree2 = {frozenset((g.source, g.target)) for g in dc2.tree}
        if tree1_relabeled == tree2:
            # same generating set: traces match up to sign
            tr1 = sorted(abs(np.trace(m)) for m in dc.generator_matrices)
            tr2 = sorted(abs(np.trace(m)) for m in dc2.generator_matrices)
            assert np.allclose(tr1, tr2, atol=1e-9), name


def test_traces_invariant_under_vertex_relabeling(rng):
    """An even vertex relabeling cycles the shape coordinate z -> z' but
    leaves the geometric structure, hence all traces, unchanged."""
    t = corpus("hopf")
    (z,) = random_shapes(rng, 1).z
    dc = develop_spanning_tree(t, ShapeAssignment((z,)))
    tr1 = sorted(abs(np.trace(m)) for m in dc.generator_matrices)

    # (0,1,2,3) -> (1,2,3,0)-type even relabelings permute the slot labels
    # cyclically; the relabeled triangulation with coordinate z' = 1/(1-z)
    # is the same geometric object
    perm = VertexPermutation((1, 0, 3, 2))    # Klein element: labels fixed
    t2 = relabel(t, [perm])
    dc2 = develop_spanning_tree(t2, ShapeAssignment((z,)))
    tr2 = sorted(abs(np.trace(m)) for m in dc2.generator_matrices)
    assert np.allclose(tr1, tr2, atol=1e-9)


@pytest.mark.parametrize("name", ["hopf", "trefoil", "fig8_complement",
                                  "fig8_in_s3", "doubled_tetrahedron",
                                  "chain2", "chain8", "chain128"])
def test_develop_labels_are_the_gluings_of_their_faces(name, rng):
    # the tree and generator labels come from the face table; each is the
    # gluing `gluing_at` gives for its source face, down to its text
    t = (parse_triangulation(chain_cover_text(int(name[5:]) // 2))
         if name.startswith("chain") else corpus(name))
    dc = develop_spanning_tree(t, random_shapes(rng, t.tetra_count))
    assert len(dc.tree) == t.tetra_count - 1
    assert len(dc.tree) + len(dc.generators) == 2 * t.tetra_count
    for g in dc.tree + dc.generators:
        want = t.gluing_at(g.source_tet, g.source_face)
        assert type(g) is type(want) and g == want and str(g) == str(want)
