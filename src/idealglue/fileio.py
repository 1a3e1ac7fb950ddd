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

Each text is compiled once per process: `parse_triangulation` keeps the
validated Triangulation of every text it accepted, with the tables
memoised on it, in a cache shared by every caller (the CLI's readers,
`corpus`, `verify_report`).  The cache holds at most CACHE_TETRAHEDRA
tetrahedra in all, evicting the least recently used first, or one larger
triangulation alone; a text that fails to parse or validate is not held.
"""
from __future__ import annotations

import threading
from collections import OrderedDict

from .errors import ParseError
from .triangulation import PERMUTATIONS, Triangulation, require_valid

HEADER = "tri v1"

# the tetrahedra the compile cache holds before it evicts: about 25 MB at
# the 0.7-0.8 KB a compiled tetrahedron takes (n = 20000 and 2000)
CACHE_TETRAHEDRA = 2 ** 15

_cache: OrderedDict = OrderedDict()     # text -> Triangulation, LRU first
_cache_lock = threading.Lock()
_held = 0                               # tetrahedra in _cache

# p0p1p2p3 by permutation index, and back: one lookup converts a token and
# checks that it is a bijection of {0,1,2,3}
_TOKENS = tuple("".join(map(str, p.images)) for p in PERMUTATIONS)
_INDEX_OF_TOKEN = {token: k for k, token in enumerate(_TOKENS)}


def format_triangulation(t: Triangulation) -> str:
    """The canonical text of t, built once and memoised on t."""
    if t._text is None:
        lines = [HEADER, f"tetrahedra {t.tetra_count}"]
        lines += [f"glue {a} {b} {c} {d} {_TOKENS[p]}"
                  for a, b, c, d, p in zip(*t._pair_array.T.tolist())]
        t._text = "\n".join(lines) + "\n"
    return t._text


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
    describing an invalid triangulation, on every call.

    Every parse of the same text returns the same Triangulation, shared
    with its compiled tables from the compile cache (see the module
    docstring); the first parse of a text validates it."""
    global _held
    with _cache_lock:
        t = _cache.get(text)
        if t is not None:
            _cache.move_to_end(text)
            return t
    t = require_valid(parse_triangulation_lenient(text))
    with _cache_lock:
        if text not in _cache:      # not added by another thread meanwhile
            _cache[text] = t
            _held += t.tetra_count
            while _held > CACHE_TETRAHEDRA and len(_cache) > 1:
                _held -= _cache.popitem(last=False)[1].tetra_count
        return _cache[text]


def clear_compile_cache() -> None:
    """Drop every triangulation the compile cache holds."""
    global _held
    with _cache_lock:
        _cache.clear()
        _held = 0
