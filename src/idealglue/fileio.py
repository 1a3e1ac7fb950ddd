"""The triangulation text format.

    tri v1
    tetrahedra <n>
    glue <t1> <f1> <t2> <f2> <p0p1p2p3>

One `glue` line per identified face pair, written from the lexicographically
smaller (tet, face) side and sorted by it; p0p1p2p3 are the images of the
vertex permutation.  parse(format(t)) is the identity on canonical files.

The parser turns each line into the integer tuple (t1, f1, t2, f2, p) of
the triangulation's pair table, p the permutation's index, found with one
dict lookup over the 24 tokens, which is also the bijection check.
"""
from __future__ import annotations

from .errors import ParseError
from .triangulation import PERMUTATIONS, Triangulation, require_valid

HEADER = "tri v1"

# p0p1p2p3 by permutation index, and back: one lookup converts a token and
# checks that it is a bijection of {0,1,2,3}
_TOKENS = tuple("".join(map(str, p.images)) for p in PERMUTATIONS)
_INDEX_OF_TOKEN = {token: k for k, token in enumerate(_TOKENS)}


def format_triangulation(t: Triangulation) -> str:
    tokens = _TOKENS
    lines = [HEADER, f"tetrahedra {t.tetra_count}"]
    lines += [f"glue {a} {b} {c} {d} {tokens[p]}" for a, b, c, d, p in t._pairs]
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
    pairs = []
    append, index_of = pairs.append, _INDEX_OF_TOKEN.get
    for lineno, line in enumerate(lines[2:], start=3):
        parts = line.split()
        if len(parts) != 6 or parts[0] != "glue":
            if not parts:
                continue
            raise ParseError(lineno, f"unrecognized line {line.strip()!r}")
        _, t1, f1, t2, f2, token = parts
        try:
            t1, f1, t2, f2 = int(t1), int(f1), int(t2), int(f2)
        except ValueError:
            raise ParseError(lineno, "indices must be integers") from None
        p = index_of(token)
        if p is None:
            if len(token) != 4 or not (token.isascii() and token.isdigit()):
                raise ParseError(lineno, f"bad permutation {token!r}")
            raise ParseError(lineno, f"permutation {token!r} is not a bijection")
        if not (0 <= t1 < bound and 0 <= f1 < 4 and 0 <= t2 < bound and 0 <= f2 < 4):
            tet, face = (t2, f2) if 0 <= t1 < bound and 0 <= f1 < 4 else (t1, f1)
            raise ParseError(lineno, f"face ({tet},{face}) out of range")
        append((t1, f1, t2, f2, p))
    return Triangulation(n, pairs)


def parse_triangulation(text: str) -> Triangulation:
    """Parse and validate.  Raises ParseError (with the offending line
    number) on malformed input and ValidationError on a well-formed file
    describing an invalid triangulation."""
    return require_valid(parse_triangulation_lenient(text))
