"""Ideal triangulations as face-paired tetrahedra, and their identification
combinatorics: edge classes, vertex links and self-identification reports.

Conventions used throughout the package:

* Tetrahedra are indexed 0..n-1 and carry the standard orientation of the
  vertex order (0,1,2,3).
* Face f of a tetrahedron is the 2-simplex omitting vertex f.
* The six edge slots of a tetrahedron are the unordered vertex pairs
  {01, 02, 03, 12, 13, 23}, in that fixed order.
* A face gluing is orientation-compatible iff its vertex permutation is odd.
* A vertex permutation is one of 24 shared VertexPermutation instances,
  `PERMUTATIONS[index]` in lexicographic order of the images, built at
  import with its index, parity and inverse.

A Triangulation keeps its face pairs in one integer array, a row
(t1, f1, t2, f2, p) per pair, p an index into PERMUTATIONS.  What is
compiled from it is built on first use by a `compiled` function and kept
in its one store: the validation report and, for a valid one, the
`EdgeTables` of one walk: the face table, the successor table over the
12n directed edge slots 12 tet + 2 s + r (slot s of EDGE_SLOTS, reversed
when r = 1), the edge class of each slot 6 tet + s and the vertex class
of each corner 4 tet + v.  Edge classes are the orbits of the successor
table and vertex classes the components of the corner identifications;
`gluing` and `fileio` compile the gluing system and the canonical text
into the same store.  FaceGluings, the EdgeClasses and their
`cycle`/`steps`/`directed` views are built only when read.
"""
from __future__ import annotations

import functools
import itertools
import operator
import random
from collections import namedtuple
from typing import NamedTuple

import numpy as np

from .errors import ValidationError, check_count

EDGE_SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SLOT_INDEX = {pair: k for k, pair in enumerate(EDGE_SLOTS)}


class VertexPermutation:
    """A bijection of the vertex labels {0,1,2,3}, stored as its image tuple,
    with `parity` 0 for even and 1 for odd and `index` (also its
    `__index__`) its position in PERMUTATIONS.

    There are 24 instances, one per element of S4, built once at import with
    their parity and inverse; the constructor returns the shared instance.
    """

    __slots__ = ("images", "parity", "index", "_inverse")

    def __new__(cls, images):
        images = tuple(images)
        try:
            return _PERMUTATIONS[images]
        except KeyError:
            images = tuple(int(v) for v in images)
        if images not in _PERMUTATIONS:
            raise ValueError(f"not a bijection of {{0,1,2,3}}: {images}")
        return _PERMUTATIONS[images]

    def __setattr__(self, *a):
        raise AttributeError("VertexPermutation is immutable")

    def __reduce__(self):
        return (VertexPermutation, (self.images,))

    def __call__(self, v: int) -> int:
        return self.images[v]

    def __index__(self) -> int:
        return self.index

    def __eq__(self, other):
        return isinstance(other, VertexPermutation) and self.images == other.images

    def __hash__(self):
        return hash(self.images)

    def __repr__(self):
        return f"VertexPermutation({''.join(map(str, self.images))})"

    def inverse(self) -> "VertexPermutation":
        return self._inverse

    def compose(self, other: "VertexPermutation") -> "VertexPermutation":
        """self after other: (self.compose(other))(v) = self(other(v))."""
        s = self.images
        return _PERMUTATIONS[tuple(s[v] for v in other.images)]


def _build_permutations() -> dict:
    """The 24 shared VertexPermutations keyed by image tuple, in
    lexicographic order."""
    table = {}
    for index, images in enumerate(itertools.permutations(range(4))):
        p = object.__new__(VertexPermutation)
        object.__setattr__(p, "images", images)
        object.__setattr__(p, "index", index)
        object.__setattr__(p, "parity", sum(
            a > b for a, b in itertools.combinations(images, 2)) % 2)
        table[images] = p
    for images, p in table.items():
        inverse = tuple(images.index(v) for v in range(4))
        object.__setattr__(p, "_inverse", table[inverse])
    return table


_PERMUTATIONS = _build_permutations()
PERMUTATIONS = tuple(_PERMUTATIONS.values())

IMAGES = np.array([p.images for p in PERMUTATIONS])     # IMAGES[p, v] = P(v)
_INVERSE = np.array([p.inverse().index for p in PERMUTATIONS])
_ODD = np.array([p.parity == 1 for p in PERMUTATIONS])

# a tetrahedron's directed slot k = 2 s + r: slot s, reversed when r = 1
DIRECTED_SLOTS = tuple(pair[::-1] if r else pair for pair in EDGE_SLOTS
                       for r in (0, 1))
_TAIL = np.array(DIRECTED_SLOTS)[:, 0]
# the walk around an edge leaves the directed slot (a, b) through the face
# c making (a, b, c, d) an even permutation
EXIT_FACE = np.array([
    next(c for c in range(4) if c not in (a, b)
         and VertexPermutation((a, b, c, 6 - a - b - c)).parity == 0)
    for a, b in DIRECTED_SLOTS])
# _ENTER[p, k]: the directed slot (P a, P b) entered from k = (a, b) across
# a gluing with permutation P = PERMUTATIONS[p]
_ENTER = np.array([[DIRECTED_SLOTS.index((p.images[a], p.images[b]))
                    for a, b in DIRECTED_SLOTS] for p in PERMUTATIONS])


class FaceGluing(namedtuple("FaceGluing", "source_tet source_face target_tet "
                                          "target_face perm")):
    """Identification of face `source_face` of tetrahedron `source_tet` with
    face `target_face` of `target_tet` under `perm` (source vertex labels to
    target vertex labels; perm maps source_face to target_face)."""

    __slots__ = ()

    @property
    def source(self):
        return (self.source_tet, self.source_face)

    @property
    def target(self):
        return (self.target_tet, self.target_face)

    def reversed(self) -> "FaceGluing":
        return FaceGluing(self.target_tet, self.target_face,
                          self.source_tet, self.source_face,
                          self.perm.inverse())

    def __str__(self):
        p = "".join(map(str, self.perm.images))
        return (f"glue {self.source_tet} {self.source_face} "
                f"{self.target_tet} {self.target_face} {p}")


class Triangulation:
    """A closed, face-paired collection of tetrahedra.

    The face pairs are the rows (t1, f1, t2, f2, p) of one read-only
    integer array, p an index into PERMUTATIONS, each written from its
    lexicographically smaller (tet, face) side and sorted by the four
    faces; `gluings` views them as FaceGluings.  A Triangulation is not
    modified after construction, and this is load-bearing:
    `fileio.parse_triangulation` returns one instance per text to every
    caller, so its compiled data (see the module docstring and `compiled`),
    each value built once on first use, is shared by every parse of the
    same text.
    """

    def __init__(self, tetra_count: int, gluings):
        """`gluings`: FaceGluings, or (t1, f1, t2, f2, p) tuples with p a
        VertexPermutation or its index; raises ValueError naming the first
        pair whose index is not one of 0..23."""
        index = operator.index
        pairs = [(a, b, c, d, index(p)) for a, b, c, d, p in gluings]
        P = np.fromiter(itertools.chain.from_iterable(pairs), np.intp,
                        5 * len(pairs)).reshape(-1, 5)
        for k in np.flatnonzero((P[:, 4] < 0) | (P[:, 4] >= 24))[:1]:
            raise ValueError(f"permutation index not in 0..23: {pairs[k]}")
        a, b, c, d, p = P.T
        swap = (a > c) | ((a == c) & (b > d))     # write from the smaller side
        P[swap] = np.column_stack([c, d, a, b, _INVERSE[p]])[swap]
        P = P[np.lexsort(P[:, 3::-1].T)]
        P.setflags(write=False)
        self.tetra_count, self._pair_array = int(tetra_count), P
        self._compiled = {}         # see `compiled`

    @property
    def gluings(self) -> tuple:
        """The face pairs as FaceGluings, built on each read."""
        return tuple(FaceGluing(a, b, c, d, PERMUTATIONS[p])
                     for a, b, c, d, p in self._pair_array.tolist())

    def gluing_at(self, tet: int, face: int) -> FaceGluing:
        """The gluing departing from (tet, face); KeyError for a face out of
        range (and ValidationError, from `edge_tables`, when t is invalid)."""
        if not (0 <= tet < self.tetra_count and 0 <= face < 4):
            raise KeyError((tet, face))
        return _gluing(edge_tables(self).face, tet, face)

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.tetra_count == other.tetra_count
                and np.array_equal(self._pair_array, other._pair_array))

    def __hash__(self):
        return hash((self.tetra_count, self._pair_array.tobytes()))

    def __repr__(self):
        return f"Triangulation(n={self.tetra_count}, pairs={len(self._pair_array)})"


def make_triangulation(tetra_count, raw_gluings) -> Triangulation:
    """Build a Triangulation from (t1, f1, t2, f2, images) tuples."""
    return Triangulation(tetra_count, [(t1, f1, t2, f2, VertexPermutation(p))
                                       for (t1, f1, t2, f2, p) in raw_gluings])


def compiled(build):
    """Memoise `build(t)` on the Triangulation t, in t's one store of
    compiled data: the first call builds the value, passing on any further
    arguments, and every later call returns it.  Threads that build one
    value at once all get the one stored first (`dict.setdefault`)."""
    key = f"{build.__module__}.{build.__qualname__}"

    @functools.wraps(build)
    def memo(t, *args):
        try:
            return t._compiled[key]
        except KeyError:
            return t._compiled.setdefault(key, build(t, *args))
    return memo


def _gluing(table: np.ndarray, tet: int, face: int) -> FaceGluing:
    """The FaceGluing departing from (tet, face) in a face table."""
    tt, tf, p = table[4 * tet + face].tolist()
    return FaceGluing(tet, face, tt, tf, PERMUTATIONS[p])


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

# validate() names the first unglued faces and counts the rest in one issue
UNGLUED_NAMED = 12


class ValidationIssue(NamedTuple):
    code: str            # EmptyTriangulation | FaceDoubleGlued | FaceUnglued |
                         # NonInvolutiveGluing | OrientationViolation
    tet: int | None = None          # None: the issue has no location
    face: int | None = None
    detail: str = ""

    def __str__(self):
        loc = f" at ({self.tet},{self.face})" if self.tet is not None else ""
        extra = f": {self.detail}" if self.detail else ""
        return f"{self.code}{loc}{extra}"


class ValidationReport(NamedTuple):
    face_coverage_ok: bool
    involution_ok: bool
    orientability_ok: bool
    issues: tuple         # of ValidationIssue

    @property
    def ok(self) -> bool:
        return not self.issues


@compiled
def validate(t: Triangulation) -> ValidationReport:
    """Check face coverage, involutivity and the odd-permutation orientation
    convention.  Returns the report, built once per triangulation, and
    never raises.

    Array tests over the pair table find every fault, and the issues name
    them in order: each side out of range or glued before, in pair order;
    the first UNGLUED_NAMED unglued faces, then one more FaceUnglued issue
    counting the rest, so a file declaring millions of tetrahedra gets a
    short report; then per pair a face glued to itself, a permutation not
    carrying its face (tested only where both faces are 0..3) or an even
    permutation.  The work is bounded by the pairs, whatever n is
    declared."""
    n = t.tetra_count
    if n < 1:
        return ValidationReport(False, False, False,
                                (ValidationIssue("EmptyTriangulation"),))

    P = t._pair_array
    a, b, c, d, p = P.T
    tet, face = P[:, :4].reshape(-1, 2).T       # the sides, in pair order
    inside = (tet >= 0) & (tet < n) & (face >= 0) & (face < 4)
    order = np.lexsort((face, np.where(inside, tet, -1)))
    ts, fs = tet[order], face[order]
    repeat = np.zeros(len(tet), dtype=bool)     # glued at an earlier side
    repeat[order[1:]] = (ts[1:] == ts[:-1]) & (fs[1:] == fs[:-1])
    first = (inside & ~repeat)[order]           # each glued face once, sorted
    unglued = 4 * n - int(first.sum())
    # the j-th free face is j + the number of glued faces below it, all of
    # them on tetrahedra below len(tet) + UNGLUED_NAMED
    low = first & (ts < len(tet) + UNGLUED_NAMED)
    glued = 4 * ts[low] + fs[low]
    j = np.arange(min(unglued, UNGLUED_NAMED))
    free = j + np.searchsorted(glued - np.arange(len(glued)), j, side="right")

    named = np.flatnonzero(~inside | repeat)
    issues = [ValidationIssue("FaceDoubleGlued", *side) if ok else
              ValidationIssue("FaceUnglued", *side, "face reference out of range")
              for *side, ok in zip(tet[named].tolist(), face[named].tolist(),
                                   inside[named].tolist())]
    issues += [ValidationIssue("FaceUnglued", *divmod(k, 4)) for k in free.tolist()]
    if unglued > UNGLUED_NAMED:
        issues.append(ValidationIssue(
            "FaceUnglued", detail=f"{unglued - UNGLUED_NAMED} more faces"))
    coverage_ok = not issues

    itself = (a == c) & (b == d)
    faces = (b >= 0) & (b < 4) & (d >= 0) & (d < 4)
    astray = ~itself & faces & (IMAGES[p, b % 4] != d)
    even = ~itself & ~_ODD[p]
    checks = ((itself, "NonInvolutiveGluing", "face glued to itself"),
              (astray, "NonInvolutiveGluing", "permutation does not carry face to face"),
              (even, "OrientationViolation", "even permutation"))
    for k in np.flatnonzero(itself | astray | even).tolist():
        issues += [ValidationIssue(code, *P[k, :2].tolist(), detail)
                   for bad, code, detail in checks if bad[k]]
    return ValidationReport(coverage_ok, not (itself | astray).any(),
                            not even.any(), tuple(issues))


def require_valid(t: Triangulation) -> Triangulation:
    report = validate(t)
    if not report.ok:
        raise ValidationError(report)
    return t


# --------------------------------------------------------------------------
# edge classes
# --------------------------------------------------------------------------

# A triangulation's compiled tables (`edge_tables`), read-only integer
# arrays but the int vertex_count: the face table (row 4 tet + f: the
# tetrahedron and face glued to face f of tet, the permutation index); the
# successor table; starts[j], edge class j's first directed slot;
# slot_class, the edge class of each slot 6 tet + s; the degrees; corner,
# the vertex class of each corner 4 tet + v; the number of vertex classes;
# ends, per edge class the vertex classes at its first slot's tail, head.
EdgeTables = namedtuple("EdgeTables", "face succ starts slot_class degree "
                                      "corner vertex_count ends")


class EdgeClass:
    """An identification orbit of edge slots: an orbit of the successor
    table, walked from its first directed slot.

    `cycle` lists (tet, slot, forward) in traversal order, where slot is the
    unordered pair index into EDGE_SLOTS and forward records whether the
    traversal passes the slot in its (min, max) direction.  `steps[k]` is the
    face gluing identifying cycle[k] with cycle[(k+1) % degree]; the traversal
    leaves cycle[k] through the face making the ordered tuple
    (tail, head, exit, other) an even permutation of (0,1,2,3).  `directed`
    lists the (tet, (tail, head)) matching cycle.  Each of the three walks
    the orbit when it is read.
    """

    __slots__ = ("index", "degree", "_tables")

    def __init__(self, index: int, degree: int, tables: EdgeTables):
        self.index, self.degree, self._tables = index, degree, tables

    def _walk(self) -> list:
        """The directed slots of the orbit in traversal order."""
        succ, d = self._tables.succ, int(self._tables.starts[self.index])
        slots = [d]
        while (d := int(succ[d])) != slots[0]:
            slots.append(d)
        return slots

    @property
    def cycle(self) -> tuple:
        return tuple((d // 12, d % 12 >> 1, not d & 1) for d in self._walk())

    @property
    def directed(self) -> tuple:
        return tuple((d // 12, DIRECTED_SLOTS[d % 12]) for d in self._walk())

    @property
    def steps(self) -> tuple:
        face = self._tables.face
        return tuple(_gluing(face, d // 12, int(EXIT_FACE[d % 12]))
                     for d in self._walk())


def _walk_edge_classes(t: Triangulation) -> EdgeTables:
    """Compile the valid t's face and successor tables and find its edge
    classes, the orbits, and its vertex classes.

    The least slot of every orbit comes from pointer doubling: after round
    k, low[d] is the least of the 2^k slots from d on, and a round that
    changes nothing has found it.  The orbit through the (min, max)
    direction of a class's least slot u is the class's own (least slot
    2u); the reversed walk is the orbit of 2u + 1, so the class of a slot
    is that of the lesser least slot of its two directions.  On a valid
    triangulation the successor table is a permutation.  The vertex
    classes are the components of the corners joined by the walks around
    the edges: a directed slot's tail corner and its successor's (the head
    of slot d is the tail of d ^ 1).
    """
    n, P = t.tetra_count, t._pair_array
    a, b, c, d, p = P.T
    face = np.empty((4 * n, 3), dtype=np.intp)
    face[4 * a + b] = P[:, 2:]
    face[4 * c + d] = np.column_stack([a, b, _INVERSE[p]])
    exits = face[4 * np.arange(n)[:, None] + EXIT_FACE]     # n x 12 x 3
    succ = (12 * exits[..., 0] + _ENTER[exits[..., 2], np.arange(12)]).ravel()
    ids = np.arange(12 * n)
    low, jump = ids, succ
    while True:
        nxt = np.minimum(low, low[jump])
        if (nxt == low).all():
            break
        low, jump = nxt, jump[jump]
    first = (low == ids) & ((ids & 1) == 0)     # a class's least slot
    starts = np.flatnonzero(first)
    slot_class = (np.cumsum(first) - 1)[np.minimum(low[0::2], low[1::2])]
    tail = 4 * (ids // 12) + np.tile(_TAIL, n)
    label = _components(tail, tail[succ], 4 * n)
    roots = np.flatnonzero(label == np.arange(4 * n))
    corner = np.searchsorted(roots, label)
    ends = corner[tail[np.column_stack([starts, starts ^ 1])]]
    tables = EdgeTables(face, succ, starts, slot_class,
                        np.bincount(slot_class, minlength=len(starts)),
                        corner, len(roots), ends)
    for value in tables:
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
    return tables


@compiled
def edge_tables(t: Triangulation) -> EdgeTables:
    """t's compiled tables (see EdgeTables), walked once per triangulation;
    raises ValidationError when t is invalid."""
    return _walk_edge_classes(require_valid(t))


@compiled
def compute_edge_classes(t: Triangulation) -> tuple[EdgeClass, ...]:
    """Partition the 6n edge slots into identification cycles.

    Deterministic: classes appear in order of their lexicographically least
    slot, each traversed from that slot in (min, max) direction.  The
    views of `edge_tables` are built once per triangulation.
    """
    tables = edge_tables(t)
    return tuple(EdgeClass(j, degree, tables)
                 for j, degree in enumerate(tables.degree.tolist()))


# --------------------------------------------------------------------------
# vertex classes
# --------------------------------------------------------------------------

class VertexClass(NamedTuple):
    """An identification orbit of tetrahedron corners, with the Euler
    characteristic and genus of its (closed, orientable) link surface."""

    index: int
    corners: tuple        # of (tet, vertex)
    link_euler_characteristic: int
    link_genus: int


def _components(a: np.ndarray, b: np.ndarray, size: int) -> np.ndarray:
    """The least node of each node's component, in the graph on
    range(size) with the edges (a[k], b[k]).  Each round hooks the larger
    root of every edge between two components onto the smaller, then
    moves every label to its root, until no edge joins two roots."""
    label = np.arange(size)
    while True:
        ra, rb = label[a], label[b]
        cross = ra != rb
        if not cross.any():
            return label
        ra, rb = ra[cross], rb[cross]
        np.minimum.at(label, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            up = label[label]
            if (up == label).all():
                break
            label = up


@compiled
def _vertex_classes(t: Triangulation) -> tuple[VertexClass, ...]:
    """The vertex classes of t, read off `edge_tables` once per
    triangulation (see `compute_vertex_classes`)."""
    tables = edge_tables(t)
    count, corner = tables.vertex_count, tables.corner
    members = [[] for _ in range(count)]
    for c, k in enumerate(corner.tolist()):
        members[k].append(divmod(c, 4))
    chi = (np.bincount(tables.ends.ravel(), minlength=count)
           - np.bincount(corner, minlength=count) // 2).tolist()
    return tuple(VertexClass(k, tuple(c), x, (2 - x) // 2)
                 for k, (c, x) in enumerate(zip(members, chi)))


def compute_vertex_classes(t: Triangulation) -> list[VertexClass]:
    """Corner orbits with link surface data, in order of their least
    corner.

    The link of a vertex class is assembled from one normal triangle per
    member corner, sides matched along face gluings.  Its vertices are the
    edge-class ends incident with the class, so
    chi = (#edge ends at the class) - (#corners)/2.  The classes are built
    once per triangulation; every call returns a new list of them.
    """
    return list(_vertex_classes(t))


# --------------------------------------------------------------------------
# self-identifications
# --------------------------------------------------------------------------

class TetSelfIdentifications(NamedTuple):
    tet: int
    vertex_pairs: tuple   # pairs (v, w), v < w, identified in P
    edge_pairs: tuple     # pairs (slot_i, slot_j), i < j, identified in P


class SelfIdentificationReport(NamedTuple):
    per_tet: tuple
    almost_non_singular: bool   # no tetrahedron has two edges identified
    non_singular: bool          # additionally no vertex identifications


def self_identification_report(t: Triangulation) -> SelfIdentificationReport:
    tables = edge_tables(t)
    vmap = tables.corner.reshape(-1, 4).tolist()
    emap = tables.slot_class.reshape(-1, 6).tolist()

    per_tet = []
    for tet in range(t.tetra_count):
        vc, ec = vmap[tet], emap[tet]
        vp = tuple((v, w) for v, w in itertools.combinations(range(4), 2)
                   if vc[v] == vc[w])
        ep = tuple((i, j) for i, j in itertools.combinations(range(6), 2)
                   if ec[i] == ec[j])
        per_tet.append(TetSelfIdentifications(tet, vp, ep))
    almost = all(not ti.edge_pairs for ti in per_tet)
    non_singular = almost and all(not ti.vertex_pairs for ti in per_tet)
    return SelfIdentificationReport(tuple(per_tet), almost, non_singular)


# --------------------------------------------------------------------------
# random generation
# --------------------------------------------------------------------------

def _odd_perms_fixing(f1: int, f2: int):
    return [p for p in itertools.permutations(range(4))
            if p[f1] == f2 and VertexPermutation(p).parity == 1]


def is_connected(t: Triangulation) -> bool:
    """True if the face-pairing graph on tetrahedra (its in-range pairs) is
    connected."""
    n, P = t.tetra_count, t._pair_array[:, [0, 2]]
    P = P[((P >= 0) & (P < n)).all(axis=1)]
    return n > 0 and not _components(P[:, 0], P[:, 1], n).any()


def random_triangulation(n: int, seed=None) -> Triangulation:
    """A uniform-ish random closed orientable connected triangulation with n
    tetrahedra (random face pairing with random odd permutations; retries
    when the pairing splits into components).  Valid by construction, but
    typically not geometric.  Raises IdealGlueError unless n is an int
    >= 1 (`check_count`)."""
    n = check_count("n", n, least=1)
    rng = random.Random(seed)
    while True:
        faces = [(tet, f) for tet in range(n) for f in range(4)]
        gl = []
        while faces:
            t1, f1 = faces.pop(0)
            t2, f2 = faces[rng.randrange(len(faces))]
            faces.remove((t2, f2))
            p = _odd_perms_fixing(f1, f2)[rng.randrange(3)]
            gl.append((t1, f1, t2, f2, p))
        t = make_triangulation(n, gl)
        if is_connected(t):
            return t
