"""The triangulation text format.

    tri v1
    tetrahedra <n>
    glue <t1> <f1> <t2> <f2> <p0p1p2p3>

One `glue` line per identified face pair, written from the lexicographically
smaller (tet, face) side and sorted by it; p0p1p2p3 are the images of the
vertex permutation.  parse(format(t)) is the identity on canonical files.

The parser maps each permutation token to its shared VertexPermutation with
one dict lookup over the 24 tokens, which is also the bijection check.
"""
from __future__ import annotations

import itertools

from .errors import ParseError
from .triangulation import (FaceGluing, Triangulation, VertexPermutation,
                            require_valid)

HEADER = "tri v1"

# Each of the 24 tokens p0p1p2p3 to its shared VertexPermutation: one lookup
# converts a token and checks that it is a bijection of {0,1,2,3}.
_PERMUTATION_OF_TOKEN = {"".join(map(str, p)): VertexPermutation(p)
                         for p in itertools.permutations(range(4))}


def format_triangulation(t: Triangulation) -> str:
    lines = [HEADER, f"tetrahedra {t.tetra_count}"]
    for g in t.gluings:
        lines.append(str(g))
    return "\n".join(lines) + "\n"


def parse_triangulation_lenient(text: str) -> Triangulation:
    """Parse the syntax only; the result may fail validate()."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != HEADER:
        raise ParseError(1, f"expected header '{HEADER}'")
    if len(lines) < 2:
        raise ParseError(2, "missing 'tetrahedra <n>' line")
    head = lines[1].split()
    if len(head) != 2 or head[0] != "tetrahedra":
        raise ParseError(2, "expected 'tetrahedra <n>'")
    try:
        n = int(head[1])
    except ValueError:
        raise ParseError(2, f"bad tetrahedron count {head[1]!r}") from None

    bound = max(n, 1)
    gluings = []
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if not parts:
            continue
        if parts[0] != "glue" or len(parts) != 6:
            raise ParseError(lineno, f"unrecognized line {line.strip()!r}")
        try:
            t1, f1, t2, f2 = map(int, parts[1:5])
        except ValueError:
            raise ParseError(lineno, "indices must be integers") from None
        token = parts[5]
        perm = _PERMUTATION_OF_TOKEN.get(token)
        if perm is None:
            if len(token) != 4 or not (token.isascii() and token.isdigit()):
                raise ParseError(lineno, f"bad permutation {token!r}")
            raise ParseError(lineno, f"permutation {token!r} is not a bijection")
        for tet, face in ((t1, f1), (t2, f2)):
            if not (0 <= tet < bound and 0 <= face < 4):
                raise ParseError(lineno, f"face ({tet},{face}) out of range")
        gluings.append(FaceGluing(t1, f1, t2, f2, perm))
    return Triangulation(n, gluings)


def parse_triangulation(text: str) -> Triangulation:
    """Parse and validate.  Raises ParseError (with the offending line
    number) on malformed input and ValidationError on a well-formed file
    describing an invalid triangulation."""
    return require_valid(parse_triangulation_lenient(text))
