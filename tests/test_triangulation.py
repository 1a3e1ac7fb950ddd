"""Identification combinatorics: validation, edge classes, vertex links,
abstract neighbourhoods, self-identifications, enumeration."""
import copy
import hashlib
import itertools
import pickle
import random

import numpy as np
import pytest

from idealglue import (IdealGlueError, VertexPermutation, compute_edge_classes,
                       compute_vertex_classes, corpus, make_triangulation,
                       random_triangulation, self_identification_report,
                       validate)
from idealglue.triangulation import Triangulation
from oracles import (abstract_edge_neighbourhood,
                     enumerate_one_tetrahedron_triangulations,
                     reference_random_triangulation, relabel)


def degrees(t):
    return sorted(e.degree for e in compute_edge_classes(t))


# ------------------------------------------------------------ permutations

def test_vertex_permutation_basics():
    p = VertexPermutation((1, 0, 2, 3))
    assert p.parity == 1
    assert p.inverse() == p
    q = VertexPermutation((1, 2, 3, 0))
    assert q.parity == 1
    assert q.compose(q.inverse()) == VertexPermutation((0, 1, 2, 3))
    assert q.inverse()(1) == 0


def test_vertex_permutation_rejects_non_bijection():
    with pytest.raises(ValueError):
        VertexPermutation((0, 0, 1, 2))


# ---------------------------------------------------------------- validate

def test_corpus_entries_are_valid():
    for name in ("hopf", "trefoil", "fig8_complement", "fig8_in_s3",
                 "doubled_tetrahedron"):
        assert validate(corpus(name)).ok, name


def test_hopf_is_the_degree_114_one_tet_triangulation():
    assert degrees(corpus("hopf")) == [1, 1, 4]


def test_double_glued_face_reported():
    t = make_triangulation(1, [(0, 0, 0, 1, (1, 0, 2, 3)),
                               (0, 0, 0, 2, (2, 1, 0, 3)),
                               (0, 2, 0, 3, (0, 1, 3, 2))])
    rep = validate(t)
    assert not rep.ok
    assert any(i.code == "FaceDoubleGlued" for i in rep.issues)


def test_unglued_face_reported():
    t = make_triangulation(2, [(0, 0, 1, 0, (0, 1, 3, 2))])
    rep = validate(t)
    assert any(i.code == "FaceUnglued" for i in rep.issues)
    # offending faces are named
    named = {(i.tet, i.face) for i in rep.issues if i.code == "FaceUnglued"}
    assert (0, 1) in named and (1, 3) in named


def test_unglued_faces_past_the_first_are_counted():
    # 4 n unglued faces: the first twelve named, the rest counted
    named = [f"FaceUnglued at ({tet},{face})"
             for tet in range(3) for face in range(4)]
    for n in (4, 1000):
        issues = validate(Triangulation(n, [])).issues
        assert [str(i) for i in issues] == named + [
            f"FaceUnglued: {4 * n - 12} more faces"]


def test_out_of_range_face_reference_reported():
    # built directly, past make_triangulation: tetrahedron 1 does not exist
    t = Triangulation(1, [(0, 0, 1, 0, VertexPermutation((0, 1, 3, 2)))])
    rep = validate(t)
    assert not rep.ok and not rep.face_coverage_ok
    assert str(rep.issues[0]) == ("FaceUnglued at (1,0): face reference out "
                                  "of range")
    # a side of tetrahedron -1 is named too, not read as "no location"
    rep = validate(Triangulation(2, [(0, 0, -1, 2, 1)]))
    assert str(rep.issues[0]) == ("FaceUnglued at (-1,2): face reference out "
                                  "of range")


@pytest.mark.parametrize("pair", [(1, 0, 0, 0, 99), (0, 0, 1, 0, 99),
                                  (0, 0, 1, 0, -1), (0, 0, 1, 0, 24)])
def test_a_permutation_index_out_of_range_is_refused_with_its_pair(pair):
    # 99 raised IndexError, from __init__ or from validate, and -1 was read
    # as the last permutation, 3210
    with pytest.raises(ValueError) as err:
        Triangulation(2, [(0, 1, 1, 1, 1), pair])
    assert str(err.value) == f"permutation index not in 0..23: {pair}"


@pytest.mark.parametrize("face", [7, 4, -1])
def test_a_face_out_of_range_is_reported_not_raised(face):
    # a face of 7 raised IndexError in the carry check, and -1 was read as 3
    rep = validate(Triangulation(2, [(0, face, 1, 0, 1)]))
    assert not rep.ok and not rep.face_coverage_ok
    assert rep.involution_ok and rep.orientability_ok
    assert str(rep.issues[0]) == (f"FaceUnglued at (0,{face}): face "
                                  "reference out of range")
    assert all(i.code == "FaceUnglued" for i in rep.issues)


def test_gluing_at_rejects_a_face_out_of_range():
    t = corpus("fig8_complement")
    g = t.gluing_at(1, 3)
    assert g.source == (1, 3) and g.target == (0, 3)
    for tet, face in ((2, 0), (-1, 0), (0, 4), (0, -1)):
        with pytest.raises(KeyError):
            t.gluing_at(tet, face)


def test_equal_triangulations_hash_alike_and_repr_their_size():
    t = corpus("fig8_complement")
    same = Triangulation(2, reversed([g.reversed() for g in t.gluings]))
    assert same == t and hash(same) == hash(t) and len({t, same}) == 1
    assert hash(corpus("fig8_in_s3")) != hash(t)
    assert repr(t) == "Triangulation(n=2, pairs=4)"


def test_even_permutation_is_orientation_violation():
    t = make_triangulation(1, [(0, 0, 0, 1, (1, 0, 3, 2)),
                               (0, 2, 0, 3, (0, 1, 3, 2))])
    rep = validate(t)
    assert any(i.code == "OrientationViolation" for i in rep.issues)


def test_empty_triangulation_rejected():
    rep = validate(Triangulation(0, []))
    assert [i.code for i in rep.issues] == ["EmptyTriangulation"]


# ------------------------------------------------------------ edge classes

def test_edge_degree_multisets():
    assert degrees(corpus("hopf")) == [1, 1, 4]
    assert degrees(corpus("trefoil")) == [1, 5]
    assert degrees(corpus("fig8_complement")) == [6, 6]
    assert degrees(corpus("fig8_in_s3")) == [1, 5, 5, 7]
    assert degrees(corpus("doubled_tetrahedron")) == [2] * 6


def test_edge_classes_partition_all_slots():
    for name in ("hopf", "trefoil", "fig8_complement", "fig8_in_s3"):
        t = corpus(name)
        classes = compute_edge_classes(t)
        assert sum(e.degree for e in classes) == 6 * t.tetra_count
        slots = [(tet, s) for e in classes for (tet, s, _) in e.cycle]
        assert len(slots) == len(set(slots))


def test_edge_cycle_closure_and_direction():
    # traversing deg(e) steps returns to the starting directed slot
    for name in ("hopf", "fig8_in_s3"):
        t = corpus(name)
        for e in compute_edge_classes(t):
            tet, (a, b) = e.directed[0]
            for g in e.steps:
                a, b = g.perm(a), g.perm(b)
            assert (e.directed[0][0], (a, b)) == e.directed[0]


def test_edge_classes_independent_of_gluing_order(rng):
    t = corpus("fig8_in_s3")
    raw = [(g.source_tet, g.source_face, g.target_tet, g.target_face,
            g.perm.images) for g in t.gluings]
    ref = [e.cycle for e in compute_edge_classes(t)]
    for _ in range(5):
        shuffled = list(raw)
        random.Random(int(rng.integers(1 << 30))).shuffle(shuffled)
        flipped = [(t2, f2, t1, f1, VertexPermutation(p).inverse().images)
                   if random.Random(int(rng.integers(1 << 30))).random() < 0.5
                   else (t1, f1, t2, f2, p)
                   for (t1, f1, t2, f2, p) in shuffled]
        t2 = make_triangulation(3, flipped)
        assert [e.cycle for e in compute_edge_classes(t2)] == ref
        assert compute_vertex_classes(t2) == compute_vertex_classes(t)


@pytest.mark.parametrize("n, message", [
    (0, "n must be >= 1, got 0"), (-2, "n must be >= 1, got -2"),
    (True, "n must be an int, got True"), (2.5, "n must be an int"),
    ("3", "n must be an int"), (None, "n must be an int"),
])
def test_random_triangulation_rejects_what_is_no_tetrahedron_count(n, message):
    # n <= 0 looped forever: no pairing of no tetrahedra is connected
    with pytest.raises(IdealGlueError, match=message):
        random_triangulation(n, seed=0)


def test_random_triangulation_takes_any_integer_type():
    assert random_triangulation(np.int64(3), seed=5) == random_triangulation(
        3, seed=5)


# sha256 of the pair tables of random_triangulation(n, seed), seeds 0-50
# and n = 1-8, as drawn when each face's partner was removed by value
SEEDED_PAIRS_SHA256 = ("3a41ad3537822bf255fcee32e4c03489"
                       "bf7f4d658d3c4636756a9c2c8702bd00")


def test_seeded_random_triangulations_are_pinned():
    # the drawn partner face is deleted at its index, not searched for by
    # value: the same gluings for every seed, in linear time per face
    digest = hashlib.sha256()
    for seed in range(51):
        for n in range(1, 9):
            t = random_triangulation(n, seed=seed)
            digest.update(repr(t._pair_array.tolist()).encode())
    assert digest.hexdigest() == SEEDED_PAIRS_SHA256


def test_random_triangulation_is_the_plain_list_algorithm():
    # the Fenwick tree finds the face that the list algorithm deletes, with
    # the same draws in the same order
    cases = [(n, seed) for n in (1, 2, 3, 5) for seed in range(300)]
    for n, seed in cases + [(n, seed) for n in (500, 2000) for seed in range(5)]:
        assert np.array_equal(random_triangulation(n, seed=seed)._pair_array,
                              reference_random_triangulation(n, seed)._pair_array)


def test_random_triangulations_are_valid_and_partition():
    for seed in range(10):
        n = 1 + seed % 5
        t = random_triangulation(n, seed=seed)
        assert validate(t).ok
        assert len(t.gluings) == 2 * n
        assert sum(e.degree for e in compute_edge_classes(t)) == 6 * n


# ---------------------------------------------------------- vertex classes

def test_vertex_links():
    vc = compute_vertex_classes(corpus("fig8_complement"))
    assert len(vc) == 1 and vc[0].link_genus == 1   # torus link

    vc = compute_vertex_classes(corpus("hopf"))
    assert [v.link_genus for v in vc] == [0, 0]

    vc = compute_vertex_classes(corpus("trefoil"))
    assert len(vc) == 1 and vc[0].link_genus == 0

    vc = compute_vertex_classes(corpus("fig8_in_s3"))
    assert len(vc) == 1 and vc[0].link_genus == 0


def test_vertex_corner_count_and_chi_parity():
    for name in ("hopf", "trefoil", "fig8_complement", "fig8_in_s3",
                 "doubled_tetrahedron"):
        t = corpus(name)
        vcs = compute_vertex_classes(t)
        assert sum(len(v.corners) for v in vcs) == 4 * t.tetra_count
        for v in vcs:
            assert v.link_euler_characteristic % 2 == 0
            assert v.link_euler_characteristic <= 2
            assert v.link_genus == (2 - v.link_euler_characteristic) // 2


def test_vertex_links_of_random_triangulations_close_up():
    for seed in range(8):
        t = random_triangulation(1 + seed % 4, seed=100 + seed)
        for v in compute_vertex_classes(t):
            assert v.link_euler_characteristic % 2 == 0
            assert v.link_euler_characteristic <= 2


# ------------------------------------------------- abstract neighbourhoods

def test_abstract_neighbourhood_hopf_degree_four():
    t = corpus("hopf")
    classes = compute_edge_classes(t)
    j = next(e.index for e in classes if e.degree == 4)
    nb = abstract_edge_neighbourhood(t, j)
    assert nb.degree == 4
    assert all(tet == 0 for tet, _ in nb.copies)      # 4 copies of tet 0
    assert len(nb.gluings) == 4


def test_abstract_neighbourhood_degree_one():
    t = corpus("trefoil")
    j = next(e.index for e in compute_edge_classes(t) if e.degree == 1)
    nb = abstract_edge_neighbourhood(t, j)
    assert nb.degree == 1
    assert len(nb.copies) == 1


def test_abstract_neighbourhood_fig8_alternates():
    t = corpus("fig8_complement")
    for j in range(2):
        nb = abstract_edge_neighbourhood(t, j)
        assert nb.degree == 6
        tets = [tet for tet, _ in nb.copies]
        assert all(tets[k] != tets[(k + 1) % 6] for k in range(6))


# ------------------------------------------------------ self-identification

def test_hopf_not_almost_non_singular():
    rep = self_identification_report(corpus("hopf"))
    assert not rep.almost_non_singular
    assert not rep.non_singular


def test_doubled_tetrahedron_non_singular():
    rep = self_identification_report(corpus("doubled_tetrahedron"))
    assert rep.almost_non_singular
    assert rep.non_singular
    assert all(not ti.vertex_pairs and not ti.edge_pairs for ti in rep.per_tet)


def test_one_tetrahedron_never_non_singular():
    for t in enumerate_one_tetrahedron_triangulations():
        assert not self_identification_report(t).non_singular


def test_self_identification_invariant_under_relabeling():
    t = corpus("fig8_in_s3")
    rep = self_identification_report(t)
    perm = VertexPermutation((2, 3, 0, 1))
    t2 = relabel(t, [perm] * 3, [2, 0, 1])
    rep2 = self_identification_report(t2)
    assert rep.almost_non_singular == rep2.almost_non_singular
    assert rep.non_singular == rep2.non_singular


# --------------------------------------------------------------- enumeration

def test_one_tet_enumeration_pins_corpus():
    reps = enumerate_one_tetrahedron_triangulations()
    multisets = [tuple(degrees(t)) for t in reps]
    assert (1, 1, 4) in multisets
    assert (1, 5) in multisets
    for t in reps:
        assert validate(t).ok
    # the S^3 entries are unique up to relabeling
    assert multisets.count((1, 1, 4)) == 1
    assert multisets.count((1, 5)) == 1


# ------------------------------------------------------- the 24 permutations

def test_the_24_permutations_are_shared_and_consistent():
    table = list(itertools.permutations(range(4)))
    perms = [VertexPermutation(images) for images in table]
    identity = VertexPermutation((0, 1, 2, 3))
    assert len({id(p) for p in perms}) == 24
    for images, p in zip(table, perms):
        assert p.images == images
        assert repr(p) == f"VertexPermutation({''.join(map(str, images))})"
        assert p == VertexPermutation(list(images)) and hash(p) == hash(images)
        for same in (list(images), np.array(images), "".join(map(str, images)),
                     (v for v in images)):
            assert VertexPermutation(same) is p
        inversions = sum(images[i] > images[j]
                         for i, j in itertools.combinations(range(4), 2))
        assert p.parity == inversions % 2
        assert p.inverse().compose(p) is identity
        assert p.compose(p.inverse()) is identity
        for q in perms:
            assert p.compose(q).images == tuple(p(q(v)) for v in range(4))
        assert copy.copy(p) is p and copy.deepcopy(p) is p
        assert pickle.loads(pickle.dumps(p)) is p
        for attr in ("images", "parity", "other"):
            with pytest.raises(AttributeError, match="immutable"):
                setattr(p, attr, (0, 1, 2, 3))
    for bad in ((0, 1, 2, 4), (0, 1, 2), (3, 2, 1, 0, 0), "0012"):
        with pytest.raises(ValueError, match="not a bijection"):
            VertexPermutation(bad)
