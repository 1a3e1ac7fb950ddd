"""Ideal triangulations as face-paired tetrahedra, and their identification
combinatorics: edge classes, vertex links, abstract edge neighbourhoods and
self-identification reports.

Conventions used throughout the package:

* Tetrahedra are indexed 0..n-1 and carry the standard orientation of the
  vertex order (0,1,2,3).
* Face f of a tetrahedron is the 2-simplex omitting vertex f.
* The six edge slots of a tetrahedron are the unordered vertex pairs
  {01, 02, 03, 12, 13, 23}, in that fixed order.
* A face gluing is orientation-compatible iff its vertex permutation is odd.
* A vertex permutation is one of 24 shared VertexPermutation instances, one
  per element of S4, built at import with its parity and inverse, so that
  building, inverting and validating gluings computes no permutation.
"""
from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field

from .errors import ValidationError

EDGE_SLOTS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
SLOT_INDEX = {pair: k for k, pair in enumerate(EDGE_SLOTS)}
OPPOSITE_SLOT = {(0, 1): (2, 3), (2, 3): (0, 1), (0, 2): (1, 3),
                 (1, 3): (0, 2), (0, 3): (1, 2), (1, 2): (0, 3)}


class VertexPermutation:
    """A bijection of the vertex labels {0,1,2,3}, stored as its image tuple,
    with `parity` 0 for even and 1 for odd.

    There are 24 instances, one per element of S4, built once at import with
    their parity and inverse; the constructor returns the shared instance.
    """

    __slots__ = ("images", "parity", "_inverse")

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
    """The 24 shared VertexPermutations keyed by image tuple."""
    table = {}
    for images in itertools.permutations(range(4)):
        p = object.__new__(VertexPermutation)
        object.__setattr__(p, "images", images)
        object.__setattr__(p, "parity", sum(
            a > b for a, b in itertools.combinations(images, 2)) % 2)
        table[images] = p
    for images, p in table.items():
        inverse = tuple(images.index(v) for v in range(4))
        object.__setattr__(p, "_inverse", table[inverse])
    return table


_PERMUTATIONS = _build_permutations()


@dataclass(frozen=True)
class FaceGluing:
    """Identification of face `source_face` of tetrahedron `source_tet` with
    face `target_face` of `target_tet` under `perm` (source vertex labels to
    target vertex labels; perm maps source_face to target_face)."""

    source_tet: int
    source_face: int
    target_tet: int
    target_face: int
    perm: VertexPermutation

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


_GLUING_ORDER = operator.attrgetter("source_tet", "source_face",
                                   "target_tet", "target_face")


class Triangulation:
    """A closed, face-paired collection of tetrahedra.

    `gluings` holds one FaceGluing per identified face pair, stored from its
    lexicographically smaller (tet, face) side and sorted.  The implied
    inverse gluings are generated on demand.  A Triangulation is not
    modified after construction, so its edge and vertex classes, exponent
    matrix and cusp relations are compiled once and memoised on the
    instance.
    """

    def __init__(self, tetra_count: int, gluings):
        self.tetra_count = int(tetra_count)
        canon = [g.reversed()
                 if (g.source_tet, g.source_face) > (g.target_tet, g.target_face)
                 else g for g in gluings]
        self.gluings = tuple(sorted(canon, key=_GLUING_ORDER))
        # face lookup built permissively; validate() reports structural faults
        lookup = {}
        for g in self.gluings:
            lookup.setdefault((g.source_tet, g.source_face), g)
            target = (g.target_tet, g.target_face)
            if target not in lookup:
                lookup[target] = g.reversed()
        self._lookup = lookup
        # compiled on first use by compute_edge_classes,
        # compute_vertex_classes, gluing.build_exponent_matrix and
        # gluing.build_relation_matrix, then shared by every consumer
        self._edge_classes = None
        self._exponent_matrix = None
        self._vertex_classes = None
        self._relation_matrix = None

    def gluing_at(self, tet: int, face: int) -> FaceGluing:
        """The gluing departing from (tet, face)."""
        return self._lookup[(tet, face)]

    def __eq__(self, other):
        return (isinstance(other, Triangulation)
                and self.tetra_count == other.tetra_count
                and self.gluings == other.gluings)

    def __hash__(self):
        return hash((self.tetra_count, self.gluings))

    def __repr__(self):
        return f"Triangulation(n={self.tetra_count}, pairs={len(self.gluings)})"


def make_triangulation(tetra_count, raw_gluings) -> Triangulation:
    """Build a Triangulation from (t1, f1, t2, f2, images) tuples."""
    gl = [FaceGluing(t1, f1, t2, f2, VertexPermutation(p))
          for (t1, f1, t2, f2, p) in raw_gluings]
    return Triangulation(tetra_count, gl)


# --------------------------------------------------------------------------
# validation
# --------------------------------------------------------------------------

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
    convention.  Pure; returns a report and never raises."""
    issues = []
    if t.tetra_count < 1:
        issues.append(ValidationIssue("EmptyTriangulation"))
        return ValidationReport(False, False, False, issues)

    n = t.tetra_count
    seen = set()
    coverage_ok = True
    for g in t.gluings:
        for side in ((g.source_tet, g.source_face), (g.target_tet, g.target_face)):
            tet, face = side
            if not (0 <= tet < n and 0 <= face < 4):
                coverage_ok = False
                issues.append(ValidationIssue("FaceUnglued", tet, face,
                                              "face reference out of range"))
                continue
            if side in seen:
                coverage_ok = False
                issues.append(ValidationIssue("FaceDoubleGlued", tet, face))
            seen.add(side)
    if len(seen) < 4 * n:       # seen holds in-range faces only
        for tet in range(n):
            for face in range(4):
                if (tet, face) not in seen:
                    issues.append(ValidationIssue("FaceUnglued", tet, face))
                    coverage_ok = False

    involution_ok = True
    orientation_ok = True
    for g in t.gluings:
        if g.source_tet == g.target_tet and g.source_face == g.target_face:
            involution_ok = False
            issues.append(ValidationIssue("NonInvolutiveGluing", *g.source,
                                          "face glued to itself"))
            continue
        if g.perm(g.source_face) != g.target_face:
            involution_ok = False
            issues.append(ValidationIssue("NonInvolutiveGluing", *g.source,
                                          "permutation does not carry face to face"))
        if g.perm.parity == 0:
            orientation_ok = False
            issues.append(ValidationIssue("OrientationViolation", *g.source,
                                          "even permutation"))
    return ValidationReport(coverage_ok, involution_ok, orientation_ok, issues)


def require_valid(t: Triangulation) -> Triangulation:
    report = validate(t)
    if not report.ok:
        raise ValidationError(report)
    return t


# --------------------------------------------------------------------------
# edge classes
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeClass:
    """An identification orbit of edge slots.

    `cycle` lists (tet, slot, forward) in traversal order, where slot is the
    unordered pair index into EDGE_SLOTS and forward records whether the
    traversal passes the slot in its (min, max) direction.  `steps[k]` is the
    face gluing identifying cycle[k] with cycle[(k+1) % degree]; the traversal
    leaves cycle[k] through the face making the ordered tuple
    (tail, head, exit, other) an even permutation of (0,1,2,3).
    """

    index: int
    cycle: tuple          # of (tet, slot_index, forward)
    steps: tuple          # of FaceGluing
    directed: tuple       # of (tet, (tail, head)) matching cycle

    @property
    def degree(self) -> int:
        return len(self.cycle)


def _edge_walk_table() -> dict:
    """Directed slot (tail, head) -> (exit face, slot index, forward).

    The walk around an edge leaves the directed slot (tail, head) through
    the face `exit` making (tail, head, exit, other) an even permutation of
    (0,1,2,3); the twelve directed slots are tabulated once here so the
    walk itself takes no parities.
    """
    table = {}
    for a, b in itertools.permutations(range(4), 2):
        c, d = (v for v in range(4) if v not in (a, b))
        exit_face = c if VertexPermutation((a, b, c, d)).parity == 0 else d
        table[(a, b)] = (exit_face, SLOT_INDEX[(min(a, b), max(a, b))], a < b)
    return table


_EDGE_WALK = _edge_walk_table()


def _walk_edge_classes(t: Triangulation) -> tuple[EdgeClass, ...]:
    """Walk around every edge once; the classes of `compute_edge_classes`."""
    lookup = t._lookup
    limit = 6 * t.tetra_count
    seen = set()
    classes = []
    for tet in range(t.tetra_count):
        for slot, (tail, head) in enumerate(EDGE_SLOTS):
            if (tet, slot) in seen:
                continue
            cycle, steps, directed = [], [], []
            tt, a, b = tet, tail, head
            while True:
                exit_face, s, forward = _EDGE_WALK[(a, b)]
                cycle.append((tt, s, forward))
                directed.append((tt, (a, b)))
                seen.add((tt, s))
                g = lookup[(tt, exit_face)]
                steps.append(g)
                images = g.perm.images
                tt, a, b = g.target_tet, images[a], images[b]
                if tt == tet and a == tail and b == head:
                    break
                if len(cycle) > limit:
                    raise AssertionError("edge traversal failed to close")
            classes.append(EdgeClass(len(classes), tuple(cycle), tuple(steps),
                                     tuple(directed)))
    return tuple(classes)


def compute_edge_classes(t: Triangulation) -> tuple[EdgeClass, ...]:
    """Partition the 6n edge slots into identification cycles.

    Deterministic: classes appear in order of their lexicographically least
    unvisited slot, each traversed from that slot in (min, max) direction.
    Walked once per triangulation; later calls return the memoised tuple.
    """
    if t._edge_classes is None:
        t._edge_classes = _walk_edge_classes(t)
    return t._edge_classes


def edge_class_of_slot(edges: list[EdgeClass]) -> dict:
    """Map (tet, slot_index) -> edge class index."""
    out = {}
    for e in edges:
        for (tet, slot, _) in e.cycle:
            out[(tet, slot)] = e.index
    return out


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


def _union_corners(t: Triangulation):
    """Union the corners (tet, v), numbered 4 tet + v, across every face
    gluing.  Returns the classes of `compute_vertex_classes` and, for each
    edge class, the vertex classes of the tail and head of its first
    directed slot."""
    parent = list(range(4 * t.tetra_count))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]       # path halving
        return x

    for g in t.gluings:
        s, d, images = 4 * g.source_tet, 4 * g.target_tet, g.perm.images
        for v in range(4):
            if v != g.source_face:
                a, b = find(s + v), find(d + images[v])
                if a != b:
                    parent[a] = b

    # classes in order of their least corner, which is met first
    index = {}
    corner_class = [index.setdefault(find(c), len(index))
                    for c in range(len(parent))]
    members = [[] for _ in index]
    for c, k in enumerate(corner_class):
        members[k].append(divmod(c, 4))
    ends = []
    for e in compute_edge_classes(t):
        tet, (a, b) = e.directed[0]
        ends.append((corner_class[4 * tet + a], corner_class[4 * tet + b]))
    end_count = [0] * len(members)
    for a, b in ends:
        end_count[a] += 1
        end_count[b] += 1
    classes = []
    for k, corners in enumerate(members):
        chi = end_count[k] - len(corners) // 2
        classes.append(VertexClass(k, tuple(corners), chi, (2 - chi) // 2))
    return tuple(classes), tuple(ends)


def _compiled_vertices(t: Triangulation):
    if t._vertex_classes is None:
        t._vertex_classes = _union_corners(t)
    return t._vertex_classes


def compute_vertex_classes(t: Triangulation) -> list[VertexClass]:
    """Corner orbits with link surface data, in order of their least
    corner.

    The link of a vertex class is assembled from one normal triangle per
    member corner, sides matched along face gluings.  Its vertices are the
    edge-class ends incident with the class, so
    chi = (#edge ends at the class) - (#corners)/2.  The corner union is
    taken once per triangulation; later calls return a new list of the
    memoised classes.
    """
    return list(_compiled_vertices(t)[0])


def edge_end_classes(t: Triangulation) -> tuple[tuple[int, int], ...]:
    """For each edge class, the indices of the vertex classes at its two
    ends (a loop at one vertex class lists it twice); memoised with the
    vertex classes."""
    return _compiled_vertices(t)[1]


# --------------------------------------------------------------------------
# abstract edge neighbourhood and self-identifications
# --------------------------------------------------------------------------

@dataclass(frozen=True)
class AbstractNeighbourhood:
    """The ball B(e) of deg(e) tetrahedron copies around an interior edge.

    `copies[k]` is the (tet, (tail, head)) visited at step k; a tetrahedron
    appears once per pre-image of the edge.  `gluings[k]` identifies the face
    of copy k with the face of copy (k+1) % degree through which the
    traversal passes.
    """

    edge_index: int
    copies: tuple
    gluings: tuple

    @property
    def degree(self) -> int:
        return len(self.copies)


def abstract_edge_neighbourhood(t: Triangulation, j: int) -> AbstractNeighbourhood:
    edges = compute_edge_classes(t)
    if not 0 <= j < len(edges):
        raise IndexError(f"edge index {j} out of range (m={len(edges)})")
    e = edges[j]
    return AbstractNeighbourhood(j, e.directed, e.steps)


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
    vclasses = compute_vertex_classes(t)
    vmap = {}
    for vc in vclasses:
        for c in vc.corners:
            vmap[c] = vc.index
    emap = edge_class_of_slot(compute_edge_classes(t))

    per_tet = []
    for tet in range(t.tetra_count):
        vp = tuple((v, w) for v, w in itertools.combinations(range(4), 2)
                   if vmap[(tet, v)] == vmap[(tet, w)])
        ep = tuple((i, j) for i, j in itertools.combinations(range(6), 2)
                   if emap[(tet, i)] == emap[(tet, j)])
        per_tet.append(TetSelfIdentifications(tet, vp, ep))
    almost = all(not ti.edge_pairs for ti in per_tet)
    non_singular = almost and all(not ti.vertex_pairs for ti in per_tet)
    return SelfIdentificationReport(tuple(per_tet), almost, non_singular)


# --------------------------------------------------------------------------
# relabeling, canonical forms, enumeration, random generation
# --------------------------------------------------------------------------

def relabel(t: Triangulation, vertex_perms, tet_perm=None) -> Triangulation:
    """Relabel vertices of each tetrahedron (vertex_perms[i] applied to tet i)
    and optionally renumber tetrahedra."""
    if tet_perm is None:
        tet_perm = list(range(t.tetra_count))
    out = []
    for g in t.gluings:
        ps = vertex_perms[g.source_tet]
        pt = vertex_perms[g.target_tet]
        new_perm = pt.compose(g.perm).compose(ps.inverse())
        out.append(FaceGluing(tet_perm[g.source_tet], ps(g.source_face),
                              tet_perm[g.target_tet], pt(g.target_face),
                              new_perm))
    return Triangulation(t.tetra_count, out)


def _encoding(t: Triangulation) -> tuple:
    return tuple((g.source, g.target, g.perm.images) for g in t.gluings)


def _canonical_form(t: Triangulation) -> Triangulation:
    """Lexicographically least relabeling.  Intended for small n (searches
    all vertex relabelings and tetrahedron renumberings)."""
    best = None
    all_perms = list(_PERMUTATIONS.values())
    for tet_perm in itertools.permutations(range(t.tetra_count)):
        for combo in itertools.product(all_perms, repeat=t.tetra_count):
            cand = relabel(t, list(combo), list(tet_perm))
            enc = _encoding(cand)
            if best is None or enc < best[0]:
                best = (enc, cand)
    return best[1]


def _odd_perms_fixing(f1: int, f2: int):
    out = []
    for p in itertools.permutations(range(4)):
        if p[f1] == f2 and VertexPermutation(p).parity == 1:
            out.append(p)
    return out


def enumerate_one_tetrahedron_triangulations() -> list[Triangulation]:
    """All closed orientable one-tetrahedron triangulations up to relabeling,
    sorted by edge-degree multiset.  Serves as the pinning oracle for the
    hopf and trefoil corpus entries."""
    raw = []
    for (fa, fb), (fc, fd) in [((0, 1), (2, 3)), ((0, 2), (1, 3)), ((0, 3), (1, 2))]:
        for p1 in _odd_perms_fixing(fa, fb):
            for p2 in _odd_perms_fixing(fc, fd):
                raw.append(make_triangulation(1, [(0, fa, 0, fb, p1),
                                                  (0, fc, 0, fd, p2)]))
    reps = {}
    for t in raw:
        reps.setdefault(_encoding(_canonical_form(t)), t)
    out = [_canonical_form(t) for t in reps.values()]
    out.sort(key=lambda t: (sorted(e.degree for e in compute_edge_classes(t)),
                            _encoding(t)))
    return out


def is_connected(t: Triangulation) -> bool:
    """True if the face-pairing graph on tetrahedra is connected."""
    if t.tetra_count == 0:
        return False
    seen = {0}
    queue = [0]
    while queue:
        tet = queue.pop()
        for face in range(4):
            try:
                g = t.gluing_at(tet, face)
            except KeyError:
                continue
            if g.target_tet not in seen:
                seen.add(g.target_tet)
                queue.append(g.target_tet)
    return len(seen) == t.tetra_count


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
