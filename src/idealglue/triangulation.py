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

A valid Triangulation is compiled, once and on first use, into flat integer
tables: its face pairs (t1, f1, t2, f2, p), p an index into PERMUTATIONS;
the face table (per face 4 tet + f: glued tetrahedron, face, permutation);
and the successor table over the 12n directed edge slots 12 tet + 2 s + r
(slot s of EDGE_SLOTS, reversed when r = 1), the slot that the walk around
an edge enters next.  Edge classes are the orbits of the successor table
and vertex classes the components of the corner identifications; `gluing`
reads the exponent pairs and cusp relations off the same arrays.
FaceGluings, the EdgeClasses and their `cycle`/`steps`/`directed` views
are built only when read.
"""
from __future__ import annotations

import itertools
import operator
import random
from collections import namedtuple
from dataclasses import dataclass, field

import numpy as np

from .errors import ValidationError

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
_INVERSE = [p.inverse().index for p in PERMUTATIONS]
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

    The face pairs are integer tuples (t1, f1, t2, f2, p), p an index into
    PERMUTATIONS, each written from its lexicographically smaller
    (tet, face) side and sorted by the four faces; `gluings` views them as
    FaceGluings.  A Triangulation is not modified after construction, and
    this is load-bearing: `fileio.parse_triangulation` returns one instance
    per text to every caller, so its tables (see the module docstring),
    what is read off them and its canonical text, each compiled once on
    first use, are shared by every parse of the same text.
    """

    def __init__(self, tetra_count: int, gluings):
        """`gluings`: FaceGluings, or (t1, f1, t2, f2, p) tuples with p a
        VertexPermutation or its index."""
        inverse, index = _INVERSE, operator.index
        canon = [(c, d, a, b, inverse[p]) if (a, b) > (c, d)
                 else (a, b, c, d, index(p)) for a, b, c, d, p in gluings]
        canon.sort(key=operator.itemgetter(0, 1, 2, 3))
        self.tetra_count = int(tetra_count)
        self._pairs = tuple(canon)
        self._pair_array = np.fromiter(itertools.chain.from_iterable(canon),
                                       np.intp, 5 * len(canon)).reshape(-1, 5)
        # compiled on first use, then shared by every consumer
        self._face_table = self._edge_tables = self._edge_classes = None
        self._exponent_matrix = self._vertex_tables = self._vertex_classes = None
        self._text = None
        self._valid = False         # set by validate(): the tables need it

    @property
    def gluings(self) -> tuple:
        """The face pairs as FaceGluings, built on each read."""
        return tuple(FaceGluing(a, b, c, d, PERMUTATIONS[p])
                     for a, b, c, d, p in self._pairs)

    def gluing_at(self, tet: int, face: int) -> FaceGluing:
        """The gluing departing from (tet, face); KeyError for a face out of
        range (and ValidationError, from `face_table`, when t is invalid)."""
        if not (0 <= tet < self.tetra_count and 0 <= face < 4):
            raise KeyError((tet, face))
        return _gluing(face_table(self), tet, face)

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.tetra_count == other.tetra_count
                and self._pairs == other._pairs)

    def __hash__(self):
        return hash((self.tetra_count, self._pairs))

    def __repr__(self):
        return f"Triangulation(n={self.tetra_count}, pairs={len(self._pairs)})"


def make_triangulation(tetra_count, raw_gluings) -> Triangulation:
    """Build a Triangulation from (t1, f1, t2, f2, images) tuples."""
    return Triangulation(tetra_count, [(t1, f1, t2, f2, VertexPermutation(p))
                                       for (t1, f1, t2, f2, p) in raw_gluings])


def face_table(t: Triangulation) -> np.ndarray:
    """The face table, a read-only 4n-by-3 integer array memoised on t: row
    4 tet + f holds the tetrahedron and face glued to face f of tet and the
    permutation index.  Like every table compiled from it, it exists only
    for a valid triangulation: raises ValidationError otherwise."""
    if t._face_table is None:
        if not t._valid:
            require_valid(t)
        n, P = t.tetra_count, t._pair_array
        a, b, c, d, p = P.T
        table = np.empty((4 * n, 3), dtype=np.intp)
        table[4 * a + b] = P[:, 2:]
        table[4 * c + d] = np.column_stack([a, b, np.take(_INVERSE, p)])
        table.setflags(write=False)
        t._face_table = table
    return t._face_table


def _gluing(table: np.ndarray, tet: int, face: int) -> FaceGluing:
    """The FaceGluing departing from (tet, face) in a face table."""
    tt, tf, p = table[4 * tet + face].tolist()
    return FaceGluing(tet, face, tt, tf, PERMUTATIONS[p])


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

# validate() names the first unglued faces and counts the rest in one issue
UNGLUED_NAMED = 12


@dataclass(frozen=True)
class ValidationIssue:
    code: str            # EmptyTriangulation | FaceDoubleGlued | FaceUnglued |
                         # NonInvolutiveGluing | OrientationViolation | BadFaceMap
    tet: int = -1
    face: int = -1
    detail: str = ""

    def __str__(self):
        loc = f" at ({self.tet},{self.face})" if self.tet >= 0 else ""
        extra = f": {self.detail}" if self.detail else ""
        return f"{self.code}{loc}{extra}"


@dataclass
class ValidationReport:
    face_coverage_ok: bool
    involution_ok: bool
    orientability_ok: bool
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues


def validate(t: Triangulation) -> ValidationReport:
    """Check face coverage, involutivity and the odd-permutation orientation
    convention.  Returns a report and never raises.

    A valid triangulation passes one array test (every face named once,
    every permutation odd and carrying face to face) and is marked valid,
    which its tables need; any other is walked pair by pair to name its
    faults.  The unglued faces past the first UNGLUED_NAMED are counted in
    one more FaceUnglued issue, so a file declaring millions of tetrahedra
    gets a short report."""
    issues = []
    n = t.tetra_count
    if n < 1:
        issues.append(ValidationIssue("EmptyTriangulation"))
        return ValidationReport(False, False, False, issues)

    P = t._pair_array
    sides = P[:, :4].reshape(-1, 2)
    if (len(P) == 2 * n and ((sides >= 0) & (sides < (n, 4))).all()
            and (np.bincount(4 * sides[:, 0] + sides[:, 1]) == 1).all()
            and (IMAGES[P[:, 4], P[:, 1]] == P[:, 3]).all()
            and _ODD[P[:, 4]].all()):
        t._valid = True
        return ValidationReport(True, True, True, issues)

    seen = set()
    for a, b, c, d, _ in t._pairs:
        for side in ((a, b), (c, d)):
            if not (0 <= side[0] < n and 0 <= side[1] < 4):
                issues.append(ValidationIssue("FaceUnglued", *side,
                                              "face reference out of range"))
            elif side in seen:
                issues.append(ValidationIssue("FaceDoubleGlued", *side))
            seen.add(side)
    # at most len(seen) glued faces precede the first UNGLUED_NAMED unglued
    # ones, so the work is bounded by the pairs, whatever n is declared
    unglued = 4 * n - sum(0 <= tet < n and 0 <= face < 4 for tet, face in seen)
    free = ((tet, face) for tet in range(n) for face in range(4)
            if (tet, face) not in seen)
    issues += [ValidationIssue("FaceUnglued", *side)
               for side in itertools.islice(free, UNGLUED_NAMED)]
    if unglued > UNGLUED_NAMED:
        issues.append(ValidationIssue(
            "FaceUnglued", detail=f"{unglued - UNGLUED_NAMED} more faces"))
    coverage_ok = not issues
    for a, b, c, d, p in t._pairs:
        if a == c and b == d:
            issues.append(ValidationIssue("NonInvolutiveGluing", a, b,
                                          "face glued to itself"))
            continue
        if PERMUTATIONS[p].images[b] != d:
            issues.append(ValidationIssue("NonInvolutiveGluing", a, b,
                                          "permutation does not carry face to face"))
        if PERMUTATIONS[p].parity == 0:
            issues.append(ValidationIssue("OrientationViolation", a, b,
                                          "even permutation"))
    codes = {i.code for i in issues}
    involution_ok = "NonInvolutiveGluing" not in codes
    orientation_ok = "OrientationViolation" not in codes
    return ValidationReport(coverage_ok, involution_ok, orientation_ok, issues)


def require_valid(t: Triangulation) -> Triangulation:
    report = validate(t)
    if not report.ok:
        raise ValidationError(report)
    return t


# --------------------------------------------------------------------------
# edge classes
# --------------------------------------------------------------------------

# A triangulation's compiled edge data (`edge_tables`), read-only integer
# arrays: the face table; the successor table; low[d], the least slot on d's
# orbit; starts[j], edge class j's first directed slot; fwd, the slots on
# the classes' own orbits, with their classes fwd_class; the degrees.
EdgeTables = namedtuple("EdgeTables", "face succ low starts fwd fwd_class degree")


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
    """Compile t's successor table and find its edge classes, the orbits.

    The least slot of every orbit comes from pointer doubling: after round
    k, low[d] is the least of the 2^k slots from d on, and a round that
    changes nothing has found it.  The orbit through the (min, max)
    direction of a class's least slot u is the class's own (least slot
    2u); the reversed walk is the orbit of 2u + 1.  On a valid
    triangulation the successor table is a permutation.
    """
    n, face = t.tetra_count, face_table(t)
    exits = face[4 * np.arange(n)[:, None] + EXIT_FACE]     # n x 12 x 3
    succ = (12 * exits[..., 0] + _ENTER[exits[..., 2], np.arange(12)]).ravel()
    ids = np.arange(12 * n)
    low, jump = ids, succ
    while True:
        nxt = np.minimum(low, low[jump])
        if (nxt == low).all():
            break
        low, jump = nxt, jump[jump]
    own = (low & 1) == 0                # on a class's own orbit
    first = own & (low == ids)
    fwd = np.flatnonzero(own)
    fwd_class = (np.cumsum(first) - 1)[low[fwd]]
    starts = np.flatnonzero(first)
    tables = EdgeTables(face, succ, low, starts, fwd, fwd_class,
                        np.bincount(fwd_class, minlength=len(starts)))
    for value in tables[1:]:
        value.setflags(write=False)
    return tables


def edge_tables(t: Triangulation) -> EdgeTables:
    """t's compiled edge data (see EdgeTables), walked once per
    triangulation and memoised on it."""
    if t._edge_tables is None:
        t._edge_tables = _walk_edge_classes(t)
    return t._edge_tables


def compute_edge_classes(t: Triangulation) -> tuple[EdgeClass, ...]:
    """Partition the 6n edge slots into identification cycles.

    Deterministic: classes appear in order of their lexicographically least
    slot, each traversed from that slot in (min, max) direction.  The
    views of `edge_tables` are built on the first call; later calls return
    the memoised tuple.
    """
    if t._edge_classes is None:
        tables = edge_tables(t)
        t._edge_classes = tuple(
            EdgeClass(j, degree, tables)
            for j, degree in enumerate(tables.degree.tolist()))
    return t._edge_classes


# --------------------------------------------------------------------------
# vertex classes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class VertexClass:
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


def vertex_tables(t: Triangulation):
    """(corner_class, count, ends), memoised on t: the vertex class of each
    corner 4 tet + v, the number of classes, in order of their least
    corner, and for each edge class the classes at the tail and head of its
    first directed slot (an m-by-2 array).  The classes are the components
    of the corners joined by the walks around the edges: a directed slot's
    tail corner and its successor's (the head of slot d is the tail of
    d ^ 1)."""
    if t._vertex_tables is None:
        n, tables = t.tetra_count, edge_tables(t)
        tail = 4 * (np.arange(12 * n) // 12) + np.tile(_TAIL, n)
        label = _components(tail, tail[tables.succ], 4 * n)
        roots = np.flatnonzero(label == np.arange(4 * n))
        corner = np.searchsorted(roots, label)
        ends = corner[tail[np.column_stack([tables.starts, tables.starts ^ 1])]]
        for value in (corner, ends):
            value.setflags(write=False)
        t._vertex_tables = (corner, len(roots), ends)
    return t._vertex_tables


def compute_vertex_classes(t: Triangulation) -> list[VertexClass]:
    """Corner orbits with link surface data, in order of their least
    corner.

    The link of a vertex class is assembled from one normal triangle per
    member corner, sides matched along face gluings.  Its vertices are the
    edge-class ends incident with the class, so
    chi = (#edge ends at the class) - (#corners)/2.  The classes are built
    once per triangulation; later calls return a new list of them.
    """
    if t._vertex_classes is None:
        corner, count, ends = vertex_tables(t)
        members = [[] for _ in range(count)]
        for c, k in enumerate(corner.tolist()):
            members[k].append(divmod(c, 4))
        chi = (np.bincount(ends.ravel(), minlength=count)
               - np.bincount(corner, minlength=count) // 2).tolist()
        t._vertex_classes = tuple(VertexClass(k, tuple(c), x, (2 - x) // 2)
                                  for k, (c, x) in enumerate(zip(members, chi)))
    return list(t._vertex_classes)


# --------------------------------------------------------------------------
# self-identifications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class TetSelfIdentifications:
    tet: int
    vertex_pairs: tuple   # pairs (v, w), v < w, identified in P
    edge_pairs: tuple     # pairs (slot_i, slot_j), i < j, identified in P


@dataclass(frozen=True)
class SelfIdentificationReport:
    per_tet: tuple
    almost_non_singular: bool   # no tetrahedron has two edges identified
    non_singular: bool          # additionally no vertex identifications


def self_identification_report(t: Triangulation) -> SelfIdentificationReport:
    vmap = vertex_tables(t)[0].reshape(-1, 4).tolist()
    tables = edge_tables(t)
    least = np.minimum(tables.low[0::2], tables.low[1::2])
    emap = np.searchsorted(tables.starts, least).reshape(-1, 6).tolist()

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
    typically not geometric."""
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
