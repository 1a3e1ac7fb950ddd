"""Properties of the compiled integer tables over random triangulations and
chain covers: the edge classes, exponent pairs, vertex classes, cusp
relations and self-identifications read off the face and successor tables
equal plain object-by-object oracles, the format inverts the parse, and
malformed input is diagnosed line for line and issue for issue as a plain
line-by-line parser and gluing-by-gluing validator diagnose it, whether
it comes as text or as a pair table built directly."""
import itertools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from idealglue import (ParseError, Triangulation, ValidationError,
                       VertexPermutation, build_exponent_matrix,
                       compute_edge_classes, compute_vertex_classes,
                       format_triangulation, make_triangulation,
                       parse_triangulation, random_triangulation, validate)
from idealglue.gluing import SLOT_LABELS
from idealglue.triangulation import (PERMUTATIONS, UNGLUED_NAMED,
                                     SelfIdentificationReport,
                                     TetSelfIdentifications,
                                     self_identification_report)
from conftest import chain_cover_text
from test_compile import parity_walk_edge_classes
from test_relations import union_find_vertex_classes

TOKENS = ["".join(p) for p in itertools.product("0123", repeat=4)]


@st.composite
def canonical_texts(draw):
    """The canonical text of a random triangulation or a chain cover."""
    if draw(st.booleans()):
        t = parse_triangulation(chain_cover_text(draw(st.integers(1, 24))))
    else:
        t = random_triangulation(draw(st.integers(1, 30)),
                                 seed=draw(st.integers(0, 2 ** 32 - 1)))
    return format_triangulation(t)


def dense_exponents(t, classes):
    """a, a', a'' counted slot by slot along the oracle's cycles."""
    mats = np.zeros((3, len(classes), t.tetra_count), dtype=int)
    for j, cycle, _, _ in classes:
        for tet, slot, _ in cycle:
            mats[SLOT_LABELS[slot], j, tet] += 1
    return mats


@settings(max_examples=60, deadline=None)
@given(canonical_texts())
def test_tables_reproduce_the_object_oracles(text):
    t = parse_triangulation(text)
    assert format_triangulation(t) == text
    classes = parity_walk_edge_classes(t)
    edges = compute_edge_classes(t)
    assert [(e.index, e.cycle, e.steps, e.directed) for e in edges] == classes
    assert [e.degree for e in edges] == [len(c[1]) for c in classes]

    E = build_exponent_matrix(t)
    a, a_prime, a_second = dense_exponents(t, classes)
    assert np.array_equal(E.a, a) and np.array_equal(E.a_prime, a_prime)
    assert np.array_equal(E.a_second, a_second)
    rows, cols = np.nonzero(a + a_prime + a_second)
    assert np.array_equal(E.rows, rows) and np.array_equal(E.cols, cols)
    assert np.array_equal(E.degree, (a + a_prime + a_second).sum(axis=1))

    vertices = union_find_vertex_classes(t)
    assert compute_vertex_classes(t) == vertices
    corner_class = {c: v.index for v in vertices for c in v.corners}
    W = np.zeros((len(vertices), len(classes)), dtype=int)
    for j, _, _, directed in classes:
        tet, (tail, head) = directed[0]
        W[corner_class[(tet, tail)], j] += 1
        W[corner_class[(tet, head)], j] += 1
    assert np.array_equal(E.relations,
                          W / np.linalg.norm(W, axis=1, keepdims=True))

    edge_class = {(tet, slot): j for j, cycle, _, _ in classes
                  for tet, slot, _ in cycle}
    per_tet = tuple(TetSelfIdentifications(
        tet,
        tuple((v, w) for v, w in itertools.combinations(range(4), 2)
              if corner_class[(tet, v)] == corner_class[(tet, w)]),
        tuple((i, k) for i, k in itertools.combinations(range(6), 2)
              if edge_class[(tet, i)] == edge_class[(tet, k)]))
        for tet in range(t.tetra_count))
    almost = not any(ti.edge_pairs for ti in per_tet)
    assert self_identification_report(t) == SelfIdentificationReport(
        per_tet, almost, almost and not any(ti.vertex_pairs for ti in per_tet))


def test_tables_of_an_invalid_triangulation_are_refused():
    # one face pair of two tetrahedra: six faces unglued
    t = make_triangulation(2, [(0, 0, 1, 0, (0, 1, 3, 2))])
    for read in (compute_edge_classes, compute_vertex_classes,
                 lambda t: t.gluing_at(0, 0)):
        with pytest.raises(ValidationError, match="FaceUnglued at"):
            read(t)


# ------------------------------------------------------- malformed input

def reference_diagnosis(text):
    """What a line-by-line parser and a gluing-by-gluing validator make of
    text: ("parse", line, message), ("invalid", flags, issues) or
    ("valid", canonical glue lines)."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "tri v1":
        return ("parse", 1, "expected header 'tri v1'")
    if len(lines) < 2:
        return ("parse", 2, "missing 'tetrahedra <n>' line")
    head = lines[1].split()
    if len(head) != 2 or head[0] != "tetrahedra":
        return ("parse", 2, "expected 'tetrahedra <n>'")
    try:
        n = int(head[1])
    except ValueError:
        return ("parse", 2, f"bad tetrahedron count {head[1]!r}")
    gluings = []
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "glue" or len(parts) != 6:
            return ("parse", lineno, f"unrecognized line {line.strip()!r}")
        try:
            t1, f1, t2, f2 = map(int, parts[1:5])
        except ValueError:
            return ("parse", lineno, "indices must be integers")
        token = parts[5]
        if sorted(token) != list("0123"):
            if len(token) != 4 or not (token.isascii() and token.isdigit()):
                return ("parse", lineno, f"bad permutation {token!r}")
            return ("parse", lineno, f"permutation {token!r} is not a bijection")
        for tet, face in ((t1, f1), (t2, f2)):
            if not (0 <= tet < max(n, 1) and 0 <= face < 4):
                return ("parse", lineno, f"face ({tet},{face}) out of range")
        perm = tuple(map(int, token))
        if (t1, f1) > (t2, f2):
            inverse = tuple(perm.index(v) for v in range(4))
            t1, f1, t2, f2, perm = t2, f2, t1, f1, inverse
        gluings.append((t1, f1, t2, f2, perm))
    gluings.sort(key=lambda g: g[:4])
    if n < 1:
        return ("invalid", (False, False, False), ["EmptyTriangulation"])
    issues, seen, coverage = [], set(), True
    for t1, f1, t2, f2, _ in gluings:
        for side in ((t1, f1), (t2, f2)):
            if side in seen:
                coverage = False
                issues.append(f"FaceDoubleGlued at ({side[0]},{side[1]})")
            seen.add(side)
    for side in itertools.product(range(n), range(4)):
        if side not in seen:
            coverage = False
            issues.append(f"FaceUnglued at ({side[0]},{side[1]})")
    involution = orientation = True
    for t1, f1, t2, f2, perm in gluings:
        where = f"at ({t1},{f1})"
        if (t1, f1) == (t2, f2):
            involution = False
            issues.append(f"NonInvolutiveGluing {where}: face glued to itself")
            continue
        if perm[f1] != f2:
            involution = False
            issues.append(f"NonInvolutiveGluing {where}: "
                          "permutation does not carry face to face")
        if VertexPermutation(perm).parity == 0:
            orientation = False
            issues.append(f"OrientationViolation {where}: even permutation")
    if issues:
        return ("invalid", (coverage, involution, orientation), issues)
    return ("valid", [f"glue {t1} {f1} {t2} {f2} {''.join(map(str, p))}"
                      for t1, f1, t2, f2, p in gluings])


def diagnosis(text):
    try:
        t = parse_triangulation(text)
    except ParseError as err:
        return ("parse", err.line, str(err).split(": ", 1)[1])
    except ValidationError as err:
        r = err.report
        return ("invalid",
                (r.face_coverage_ok, r.involution_ok, r.orientability_ok),
                [str(i) for i in r.issues])
    return ("valid", format_triangulation(t).splitlines()[2:])


@st.composite
def damaged_texts(draw):
    """A canonical text with a few glue lines reversed, duplicated,
    dropped, given another permutation token or index, or replaced by a
    malformed line."""
    lines = draw(canonical_texts()).splitlines()
    n = int(lines[1].split()[1])
    for _ in range(draw(st.integers(1, 3))):
        k = draw(st.integers(2, len(lines) - 1))
        if len(lines[k].split()) != 6:
            continue
        _, t1, f1, t2, f2, p = lines[k].split()
        kind = draw(st.sampled_from(["reverse", "duplicate", "drop", "token",
                                     "index", "junk"]))
        if kind == "reverse":
            inverse = "".join(str(p.index(str(v))) for v in range(4)) \
                if sorted(p) == list("0123") else p
            lines[k] = f"glue {t2} {f2} {t1} {f1} {inverse}"
        elif kind == "duplicate":
            lines.insert(k, lines[k])
        elif kind == "drop" and len(lines) > 3:
            del lines[k]
        elif kind == "token":
            lines[k] = f"glue {t1} {f1} {t2} {f2} {draw(st.sampled_from(TOKENS))}"
        elif kind == "index":
            words = lines[k].split()
            words[draw(st.integers(1, 4))] = str(draw(st.integers(-1, n + 1)))
            lines[k] = " ".join(words)
        elif kind == "junk":
            lines[k] = draw(st.sampled_from(
                ["frobnicate", "glue 0 0 1", "glue a 0 1 0 0132",
                 "glue 0 0 1 0 01a2", "  ", "glue 0 0 1 0 0132 9"]))
    return "\n".join(lines) + "\n"


@settings(max_examples=150, deadline=None)
@given(damaged_texts())
def test_malformed_input_is_diagnosed_line_by_line(text):
    assert diagnosis(text) == reference_diagnosis(text)


# ------------------------------------------------- pair tables built directly

def reference_validation(n, pairs):
    """What a gluing-by-gluing validator makes of the pair table of
    `Triangulation(n, pairs)`: the flags and the issues as (code, tet,
    face, detail) tuples.  Each pair is written from its smaller side and
    the pairs are sorted by their faces, as the Triangulation keeps them."""
    canon = sorted(((c, d, a, b, PERMUTATIONS[p].inverse()) if (a, b) > (c, d)
                    else (a, b, c, d, PERMUTATIONS[p])
                    for a, b, c, d, p in pairs), key=lambda g: g[:4])
    if n < 1:
        return (False, False, False), [("EmptyTriangulation", None, None, "")]
    issues, seen = [], set()
    for a, b, c, d, _ in canon:
        for side in ((a, b), (c, d)):
            if not (0 <= side[0] < n and 0 <= side[1] < 4):
                issues.append(("FaceUnglued", *side,
                               "face reference out of range"))
            elif side in seen:
                issues.append(("FaceDoubleGlued", *side, ""))
            seen.add(side)
    glued = {(tet, face) for tet, face in seen if 0 <= tet < n and 0 <= face < 4}
    free = ((tet, face) for tet in range(n) for face in range(4)
            if (tet, face) not in glued)
    issues += [("FaceUnglued", *side, "")
               for side in itertools.islice(free, UNGLUED_NAMED)]
    if 4 * n - len(glued) > UNGLUED_NAMED:
        issues.append(("FaceUnglued", None, None,
                       f"{4 * n - len(glued) - UNGLUED_NAMED} more faces"))
    coverage = not issues
    involution = orientation = True
    for a, b, c, d, perm in canon:
        if (a, b) == (c, d):
            involution = False
            issues.append(("NonInvolutiveGluing", a, b, "face glued to itself"))
            continue
        if perm(b) != d:
            involution = False
            issues.append(("NonInvolutiveGluing", a, b,
                           "permutation does not carry face to face"))
        if perm.parity == 0:
            orientation = False
            issues.append(("OrientationViolation", a, b, "even permutation"))
    return (coverage, involution, orientation), issues


@st.composite
def pair_tables(draw):
    """(n, pairs): a random triangulation's pair table with a few pairs
    dropped, duplicated or given another tetrahedron or permutation, or a
    few random pairs on up to 2^62 declared tetrahedra, with tetrahedra
    from -1 to n + 1, faces 0..3 and any permutation index."""
    if draw(st.booleans()):
        n = draw(st.integers(1, 6))
        pairs = random_triangulation(n, seed=draw(st.integers(0, 999))
                                     )._pair_array.tolist()
        for _ in range(draw(st.integers(0, 3))):
            k = draw(st.integers(0, len(pairs) - 1))
            kind = draw(st.sampled_from(["drop", "duplicate", "tet", "perm"]))
            if kind == "drop" and len(pairs) > 1:
                del pairs[k]
            elif kind == "duplicate":
                pairs.append(list(pairs[k]))
            elif kind == "tet":
                pairs[k][draw(st.sampled_from([0, 2]))] = draw(
                    st.integers(-1, n + 1))
            elif kind == "perm":
                pairs[k][4] = draw(st.integers(-2, 25))
        return n, [tuple(g) for g in pairs]
    n = draw(st.sampled_from([0, 1, 2, 3, 10 ** 7, 2 ** 62]))
    tets = st.one_of(st.integers(-1, min(n, 3) + 1),
                     st.integers(max(-1, n - 2), n + 1))
    pair = st.tuples(tets, st.integers(0, 3), tets, st.integers(0, 3),
                     st.one_of(st.integers(0, 23), st.integers(-2, 25)))
    return n, draw(st.lists(pair, max_size=10))


@settings(max_examples=300, deadline=None)
@given(pair_tables())
def test_pair_tables_are_validated_as_gluing_by_gluing(case):
    n, pairs = case
    if not all(0 <= p < 24 for *_, p in pairs):
        with pytest.raises(ValueError, match="permutation index not in 0..23"):
            Triangulation(n, pairs)
        return
    r = validate(Triangulation(n, pairs))
    assert ((r.face_coverage_ok, r.involution_ok, r.orientability_ok),
            [tuple(i) for i in r.issues]) == reference_validation(n, pairs)
