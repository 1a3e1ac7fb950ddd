"""Triangulation format, corpus pinning, equation-system matcher."""
import itertools

import pytest

import idealglue.fileio as fileio
from idealglue import (ParseError, UnknownCorpusEntry, ValidationError,
                       build_exponent_matrix, compute_edge_classes, corpus,
                       export_corpus, format_triangulation,
                       parse_triangulation, random_triangulation)
from idealglue.corpus import CORPUS_NAMES, CORPUS_TEXT


def test_corpus_roundtrip_byte_for_byte():
    for name in CORPUS_NAMES:
        text = CORPUS_TEXT[name]
        assert format_triangulation(parse_triangulation(text)) == text


def test_random_roundtrip():
    for seed in range(100):
        t = random_triangulation(1 + seed % 6, seed=seed)
        text = format_triangulation(t)
        assert format_triangulation(parse_triangulation(text)) == text


def test_parse_rejects_empty_triangulation():
    with pytest.raises(ValidationError) as err:
        parse_triangulation("tri v1\ntetrahedra 0\n")
    assert any(i.code == "EmptyTriangulation" for i in err.value.report.issues)


def test_parse_rejects_bad_permutation():
    with pytest.raises(ParseError) as err:
        parse_triangulation("tri v1\ntetrahedra 1\nglue 0 0 0 1 0012\n")
    assert err.value.line == 3


def test_parse_rejects_unknown_lines_with_line_number():
    with pytest.raises(ParseError) as err:
        parse_triangulation("tri v1\ntetrahedra 1\nfrobnicate\n")
    assert err.value.line == 3
    with pytest.raises(ParseError) as err:
        parse_triangulation("nope\n")
    assert err.value.line == 1


def test_parse_reports_validation_failures():
    # fig8 text with one gluing dropped: faces unglued
    text = "tri v1\ntetrahedra 2\nglue 0 0 1 0 0132\n"
    with pytest.raises(ValidationError) as err:
        parse_triangulation(text)
    assert any(i.code == "FaceUnglued" for i in err.value.report.issues)


def test_unknown_corpus_entry():
    with pytest.raises(UnknownCorpusEntry):
        corpus("borromean")


def test_export_corpus(tmp_path):
    paths = export_corpus(tmp_path)
    assert len(paths) == len(CORPUS_NAMES)
    for p in paths:
        with open(p) as fh:
            parse_triangulation(fh.read())


def test_fig8_in_s3_shape():
    t = corpus("fig8_in_s3")
    edges = compute_edge_classes(t)
    assert t.tetra_count == 3
    assert len(edges) == 4
    assert sorted(e.degree for e in edges) == [1, 5, 5, 7]


# ------------------------------------------------------- system matcher
# The reference four-equation system for the figure-eight-knot-in-S^3
# triangulation, in positive-exponent form over edges (K, e1, e2, e3):
#   K : z0 = xi_K
#   e1: z0' z0'' z1' z1'' z2''     = xi_1
#   e2: z0' z0'' z1'' z2' z2''    = xi_2
#   e3: z0 z1^2 z1' z2^2 z2'      = xi_3
REFERENCE_FIG8_S3_ROWS = {
    ((1, 0, 0), (0, 0, 0), (0, 0, 0)),
    ((0, 0, 0), (1, 1, 0), (1, 1, 1)),
    ((0, 0, 0), (1, 0, 1), (1, 1, 1)),
    ((1, 2, 2), (0, 1, 1), (0, 0, 0)),
}


def exponent_rows(t):
    edges = compute_edge_classes(t)
    E = build_exponent_matrix(t, edges)
    return [(tuple(int(x) for x in E.a[j]),
             tuple(int(x) for x in E.a_prime[j]),
             tuple(int(x) for x in E.a_second[j]))
            for j in range(len(edges))]


def system_matches(t, reference_rows):
    """True if the generated system equals the reference one up to edge and
    tetrahedron relabeling."""
    rows = exponent_rows(t)
    if len(rows) != len(reference_rows):
        return False
    for tau in itertools.permutations(range(t.tetra_count)):
        image = {(tuple(a[tau[i]] for i in range(3)),
                  tuple(ap[tau[i]] for i in range(3)),
                  tuple(app[tau[i]] for i in range(3)))
                 for (a, ap, app) in rows}
        if image == reference_rows:
            return True
    return False


def test_fig8_in_s3_system_matches_reference_equations():
    assert system_matches(corpus("fig8_in_s3"), REFERENCE_FIG8_S3_ROWS)


def test_matcher_rejects_other_triangulations():
    assert not system_matches(corpus("fig8_complement"), REFERENCE_FIG8_S3_ROWS)
    assert not system_matches(corpus("hopf"), REFERENCE_FIG8_S3_ROWS)


# ------------------------------------------------------------ diagnostics
# Each malformed input with the exception type, line and message it raises.
HEAD = "tri v1\ntetrahedra 1\n"
PARSE_DIAGNOSTICS = [
    ("nope\n", 1, "expected header 'tri v1'"),
    ("tri v1\n", 2, "missing 'tetrahedra <n>' line"),
    ("tri v1\ntetrahedra x\n", 2, "bad tetrahedron count 'x'"),
    ("tri v1\ntetrahedra 1 2\n", 2, "expected 'tetrahedra <n>'"),
    (HEAD + "glue 0 a 0 1 1023\n", 3, "indices must be integers"),
    (HEAD + "glue 0 0 0 1\n", 3, "unrecognized line 'glue 0 0 0 1'"),
    (HEAD + "glue 0 0 0 1 1023 7\n", 3,
     "unrecognized line 'glue 0 0 0 1 1023 7'"),
    (HEAD + "frobnicate\n", 3, "unrecognized line 'frobnicate'"),
    (HEAD + "glue 0 0 0 1 01a3\n", 3, "bad permutation '01a3'"),
    (HEAD + "glue 0 0 0 1 012\n", 3, "bad permutation '012'"),
    (HEAD + "glue 0 0 0 1 0012\n", 3, "permutation '0012' is not a bijection"),
    (HEAD + "glue 0 0 0 1 0124\n", 3, "permutation '0124' is not a bijection"),
    (HEAD + "glue 0 a 0 1 0012\n", 3, "indices must be integers"),
    (HEAD + "glue 0 0 0 1 1023\nglue 0 2 0 4 0132\n", 4,
     "face (0,4) out of range"),
    (HEAD + "\nglue 0 0 0 1 1023\n  glue 5 2 0 3 0132\n", 5,
     "face (5,2) out of range"),
    (HEAD + "glue 0 0 0 9 0012\n", 3, "permutation '0012' is not a bijection"),
]


@pytest.mark.parametrize("text, line, message", PARSE_DIAGNOSTICS)
def test_parse_error_diagnostics_are_pinned(text, line, message):
    for _ in range(2):      # a failed parse is not held: it fails again
        with pytest.raises(ParseError) as err:
            parse_triangulation(text)
        assert type(err.value) is ParseError
        assert err.value.line == line
        assert str(err.value) == f"line {line}: {message}"
    assert text not in fileio._cache


VALIDATION_DIAGNOSTICS = [
    ("tri v1\ntetrahedra 0\n", "EmptyTriangulation"),
    (HEAD + "glue 0 0 0 1 1023\nglue 0 0 0 2 2103\nglue 0 2 0 3 0132\n",
     "FaceDoubleGlued at (0,0), FaceDoubleGlued at (0,2)"),
    ("tri v1\ntetrahedra 2\nglue 0 0 1 0 0132\n",
     "FaceUnglued at (0,1), FaceUnglued at (0,2), FaceUnglued at (0,3), "
     "FaceUnglued at (1,1), FaceUnglued at (1,2), FaceUnglued at (1,3)"),
    (HEAD + "glue 0 0 0 1 0132\nglue 0 2 0 3 0132\n",
     "NonInvolutiveGluing at (0,0): permutation does not carry face to face"),
    (HEAD + "glue 0 0 0 1 1032\nglue 0 2 0 3 0132\n",
     "OrientationViolation at (0,0): even permutation"),
]


@pytest.mark.parametrize("text, message", VALIDATION_DIAGNOSTICS)
def test_validation_error_diagnostics_are_pinned(text, message):
    for _ in range(2):      # a failed parse is not held: it fails again
        with pytest.raises(ValidationError) as err:
            parse_triangulation(text)
        assert type(err.value) is ValidationError
        assert str(err.value) == message
        assert ", ".join(str(i) for i in err.value.report.issues) == message
    assert text not in fileio._cache
