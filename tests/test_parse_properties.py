"""Properties of text -> Triangulation over random triangulations: the
parse inverts the format whatever the glue-line order and side, every
gluing carries one of the 24 shared permutations, and the edge classes
equal a parity-per-step walk and partition the 6n edge slots."""
import itertools

from hypothesis import given, settings, strategies as st

from idealglue import (VertexPermutation, compute_edge_classes,
                       format_triangulation, parse_triangulation,
                       random_triangulation)
from oracles import relabel
from test_compile import parity_walk_edge_classes

PERMUTATIONS = [VertexPermutation(p) for p in itertools.permutations(range(4))]


@st.composite
def triangulation_texts(draw):
    """(t, text): a relabelled random triangulation and a text for it with
    the glue lines shuffled and some written from their other side."""
    n = draw(st.integers(1, 40))
    t = random_triangulation(n, seed=draw(st.integers(0, 2 ** 32 - 1)))
    # vertex relabellings of one parity keep every gluing odd
    parity = draw(st.integers(0, 1))
    same_parity = [p for p in PERMUTATIONS if p.parity == parity]
    t = relabel(t, draw(st.lists(st.sampled_from(same_parity),
                                 min_size=n, max_size=n)),
                draw(st.permutations(range(n))))
    lines = []
    for g in draw(st.permutations(t.gluings)):
        if draw(st.booleans()):
            g = g.reversed()
        lines.append(str(g))
    return t, "\n".join(format_triangulation(t).splitlines()[:2] + lines) + "\n"


@settings(max_examples=60, deadline=None)
@given(triangulation_texts())
def test_parse_inverts_format_and_shares_permutations(case):
    t, text = case
    parsed = parse_triangulation(text)
    canonical = format_triangulation(t)
    assert parsed == t
    assert format_triangulation(parsed) == canonical
    assert parse_triangulation(canonical) == t
    assert format_triangulation(parse_triangulation(canonical)) == canonical
    faces = [(tet, face) for tet in range(t.tetra_count) for face in range(4)]
    for g in list(parsed.gluings) + [parsed.gluing_at(*f) for f in faces]:
        assert any(g.perm is p for p in PERMUTATIONS)


@settings(max_examples=60, deadline=None)
@given(triangulation_texts())
def test_edge_classes_match_parity_walk_and_partition_slots(case):
    t, text = case
    parsed = parse_triangulation(text)
    edges = compute_edge_classes(parsed)
    assert ([(e.index, e.cycle, e.steps, e.directed) for e in edges]
            == parity_walk_edge_classes(parsed))
    slots = sorted((tet, slot) for e in edges for (tet, slot, _) in e.cycle)
    assert slots == [(tet, slot) for tet in range(t.tetra_count)
                     for slot in range(6)]
