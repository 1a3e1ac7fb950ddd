"""Developing a triangulation into hyperbolic 3-space and reading off
holonomy.

Placements store ideal points as projective CP^1 vectors, which keeps every
formula polynomial (no special-casing of oo and no loss of accuracy near it);
the boundary points exposed to callers are elements of C u {oo}, with oo
represented by complex(inf, 0).

Conventions, pinned by the closed-form Hopf/trefoil holonomy fixtures:

* the initial tetrahedron is placed at (0, oo, 1, z), and the shape read
  back at edge {0,1} is z;
* shape read-back at slot {a,b} is the cross-ratio [p_a : p_b : p_c : p_d]
  (image of p_d under the map sending (p_a, p_b, p_c) to (0, oo, 1)) for the
  even-permutation representative (a, b, c, d);
* an edge cycle leaves the slot (tail, head) through the face `exit` making
  (tail, head, exit, other) an even permutation; the composed rotation around
  the edge then has derivative h(e) at the developed tail point.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import DevelopFailure, EdgeCycleNotClosed
from .gluing import ShapeAssignment, check_nondegenerate
from .triangulation import (EDGE_SLOTS, EdgeClass, FaceGluing, Triangulation,
                            compute_edge_classes)

INFINITY = complex(math.inf, 0.0)

# even-permutation representative (a, b, c, d) per slot {a, b}
_EVEN_REPS = {
    (0, 1): (0, 1, 2, 3), (2, 3): (2, 3, 0, 1),
    (0, 2): (0, 2, 3, 1), (1, 3): (1, 3, 2, 0),
    (0, 3): (0, 3, 1, 2), (1, 2): (1, 2, 0, 3),
}


def _lift(p: complex) -> np.ndarray:
    if cmath.isinf(p):
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([p, 1.0], dtype=complex)


def _unlift(v: np.ndarray) -> complex:
    if abs(v[1]) <= 1e-15 * abs(v[0]):
        return INFINITY
    return complex(v[0] / v[1])


def _lform(p: np.ndarray) -> np.ndarray:
    """Coefficients of the linear form vanishing at the CP^1 point p."""
    return np.array([-p[1], p[0]], dtype=complex)


def _std_matrix(p, q, r) -> np.ndarray:
    """Matrix sending the CP^1 triple (p, q, r) to (0, oo, 1), det 1."""
    lp, lq = _lform(p), _lform(q)
    M = np.array([(lq @ r) * lp, (lp @ r) * lq])
    det = M[0, 0] * M[1, 1] - M[0, 1] * M[1, 0]
    if abs(det) < 1e-30:
        raise DevelopFailure("triple contains coincident points")
    return M / cmath.sqrt(det)


def _cross_ratio(p, q, r, s) -> complex:
    lp, lq = _lform(p), _lform(q)
    num = (lq @ r) * (lp @ s)
    den = (lp @ r) * (lq @ s)
    if den == 0:
        return INFINITY
    return num / den


class MobiusMap:
    """An element of PSL(2, C): a 2x2 complex matrix of determinant 1,
    compared up to global sign."""

    __slots__ = ("matrix",)

    def __init__(self, matrix, normalize: bool = True):
        m = np.asarray(matrix, dtype=complex).reshape(2, 2)
        if normalize:
            det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
            if abs(det) < 1e-30:
                raise DevelopFailure("singular matrix is not a Mobius map")
            m = m / cmath.sqrt(det)
        self.matrix = m
        self.matrix.setflags(write=False)

    @classmethod
    def identity(cls) -> "MobiusMap":
        return cls(np.eye(2, dtype=complex), normalize=False)

    @classmethod
    def from_triples(cls, src, dst) -> "MobiusMap":
        """The unique map carrying the source point triple to the target
        triple (points in C u {oo})."""
        A = _std_matrix(*(_lift(p) for p in src))
        B = _std_matrix(*(_lift(p) for p in dst))
        return cls(np.linalg.inv(B) @ A)

    def det(self) -> complex:
        m = self.matrix
        return m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]

    def inverse(self) -> "MobiusMap":
        a, b, c, d = self.matrix.ravel()
        return MobiusMap(np.array([[d, -b], [-c, a]]), normalize=False)

    def __matmul__(self, other: "MobiusMap") -> "MobiusMap":
        return MobiusMap(self.matrix @ other.matrix, normalize=False)

    def __call__(self, w: complex) -> complex:
        return _unlift(self.matrix @ _lift(w))

    def trace(self) -> complex:
        """a + d; well defined only up to sign in PSL(2, C)."""
        return complex(self.matrix[0, 0] + self.matrix[1, 1])

    def same_projective(self, other: "MobiusMap", tol: float = 1e-9) -> bool:
        """Equality up to global sign."""
        d1 = np.abs(self.matrix - other.matrix).max()
        d2 = np.abs(self.matrix + other.matrix).max()
        return min(d1, d2) < tol

    def _multiplier_at_lift(self, v: np.ndarray) -> complex:
        """Derivative at the fixed point whose lift is v."""
        image = self.matrix @ v
        i = int(np.argmax(np.abs(v)))
        lam = image[i] / v[i]
        return complex(1.0 / (lam * lam))

    def __repr__(self):
        a, b, c, d = np.round(self.matrix.ravel(), 6)
        return f"MobiusMap([[{a}, {b}], [{c}, {d}]])"


class IdealPlacement:
    """Positions of a tetrahedron's four ideal vertices on the sphere at
    infinity, stored projectively."""

    __slots__ = ("lifts",)

    def __init__(self, lifts):
        self.lifts = [np.asarray(v, dtype=complex) for v in lifts]

    @classmethod
    def from_points(cls, points) -> "IdealPlacement":
        lifts = []
        for p in points:
            v = _lift(complex(p))
            lifts.append(v / np.linalg.norm(v))
        return cls(lifts)

    @property
    def points(self):
        """The four vertices as elements of C u {oo}."""
        return tuple(_unlift(v) for v in self.lifts)

    def shape_at(self, slot) -> complex:
        """Cross-ratio read-back of the dihedral invariant at an edge slot
        (unordered pair or index into EDGE_SLOTS)."""
        if isinstance(slot, int):
            slot = EDGE_SLOTS[slot]
        a, b, c, d = _EVEN_REPS[tuple(sorted(slot))]
        return complex(_cross_ratio(self.lifts[a], self.lifts[b],
                                    self.lifts[c], self.lifts[d]))

    def transformed(self, m: MobiusMap) -> "IdealPlacement":
        return IdealPlacement([m.matrix @ v for v in self.lifts])


def place_initial(z: complex) -> IdealPlacement:
    """Embed a tetrahedron of shape z at (0, oo, 1, z); the shape read back
    at edge {0,1} is z."""
    check_nondegenerate(z)
    return IdealPlacement.from_points((0.0, INFINITY, 1.0, z))


def develop_across_face(p: IdealPlacement, g: FaceGluing,
                        z_neighbor: complex) -> IdealPlacement:
    """Place the neighbouring tetrahedron across a glued face.

    The three shared face points are copied (never recomputed); the fourth is
    the unique point giving the neighbour its assigned shape, obtained by
    inverting the cross-ratio read-back at the neighbour's {0,1} slot.
    """
    check_nondegenerate(z_neighbor)
    lifts = [None] * 4
    for v in range(4):
        if v != g.source_face:
            lifts[g.perm(v)] = p.lifts[v]
    u = g.target_face
    zl = _lift(z_neighbor)
    # move the unknown to the last slot of the cross-ratio via the Klein
    # four-group symmetries; the (p,q,s) arrangement inverts the value
    if u == 0:
        M = _std_matrix(lifts[3], lifts[2], lifts[1])
    elif u == 1:
        M = _std_matrix(lifts[2], lifts[3], lifts[0])
    elif u == 2:
        M = _std_matrix(lifts[0], lifts[1], lifts[3])
        zl = _lift(1.0 / z_neighbor)
    else:
        M = _std_matrix(lifts[0], lifts[1], lifts[2])
    w = np.linalg.solve(M, zl)
    lifts[u] = w / np.linalg.norm(w)
    return IdealPlacement(lifts)


@dataclass
class DevelopedComplex:
    """One placement per tetrahedron, developed along a breadth-first dual
    spanning tree from tetrahedron 0; the non-tree gluings are the holonomy
    generators."""

    triangulation: Triangulation
    placements: list
    tree: tuple          # FaceGluings used to develop
    generators: tuple    # remaining FaceGluings (canonical orientation)


def develop_spanning_tree(t: Triangulation, Z: ShapeAssignment) -> DevelopedComplex:
    placements = {0: place_initial(Z[0])}
    tree, generators = [], []
    queue = [0]
    used = set()
    while queue:
        tet = queue.pop(0)
        for face in range(4):
            g = t.gluing_at(tet, face)
            key = frozenset((g.source, g.target))
            if key in used:
                continue
            used.add(key)
            if g.target_tet not in placements:
                placements[g.target_tet] = develop_across_face(
                    placements[tet], g, Z[g.target_tet])
                tree.append(g)
                queue.append(g.target_tet)
            else:
                # store from the canonical (lex smaller) side
                generators.append(g if g.source <= g.target else g.reversed())
    if len(placements) != t.tetra_count:
        raise DevelopFailure("triangulation is disconnected; cannot develop "
                             f"({len(placements)} of {t.tetra_count} "
                             "tetrahedra reachable from tetrahedron 0)")
    return DevelopedComplex(t, [placements[i] for i in range(t.tetra_count)],
                            tuple(tree), tuple(generators))


def generator_holonomy(dc: DevelopedComplex, g: FaceGluing) -> MobiusMap:
    """The elementary face pairing of a non-tree gluing: the unique Mobius
    map carrying the developed source-face triple to the developed
    target-face triple, matched by the gluing permutation."""
    src = dc.placements[g.source_tet]
    dst = dc.placements[g.target_tet]
    vs = [v for v in range(4) if v != g.source_face]
    A = _std_matrix(*(src.lifts[v] for v in vs))
    B = _std_matrix(*(dst.lifts[g.perm(v)] for v in vs))
    return MobiusMap(np.linalg.inv(B) @ A)


def generator_maps(dc: DevelopedComplex):
    """All generator holonomies, in dc.generators order."""
    return [generator_holonomy(dc, g) for g in dc.generators]


def edge_holonomy_matrix(dc: DevelopedComplex, t: Triangulation,
                         Z: ShapeAssignment, j) -> tuple:
    """Compose the elementary face pairings once around edge j's cycle.

    Returns (map, multiplier).  The map fixes the two developed endpoints of
    the edge; the multiplier is its derivative at the developed tail of the
    cycle's starting slot and equals h(e_j) for every shape assignment, not
    only on solutions.

    Raises EdgeCycleNotClosed if the once-around placement does not match the
    starting placement projectively (impossible on valid input).
    """
    if isinstance(j, EdgeClass):
        edge = j
    else:
        edge = compute_edge_classes(t)[j]
    tet0, (tail, head) = edge.directed[0]
    start = dc.placements[tet0]
    current = start
    for g in edge.steps:
        current = develop_across_face(current, g, Z[g.target_tet])
    idx = (0, 1, 2)
    M = MobiusMap(np.linalg.inv(_std_matrix(*(current.lifts[v] for v in idx)))
                  @ _std_matrix(*(start.lifts[v] for v in idx)))
    # closure: the fourth vertex must match too
    v, w = M.matrix @ start.lifts[3], current.lifts[3]
    mismatch = abs(v[0] * w[1] - v[1] * w[0]) / (np.linalg.norm(v) * np.linalg.norm(w))
    if mismatch > 1e-6:
        raise EdgeCycleNotClosed(f"edge {edge.index}: mismatch {mismatch:.3e}")
    return M, M._multiplier_at_lift(start.lifts[tail])
