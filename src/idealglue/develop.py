"""Developing a triangulation into hyperbolic 3-space and reading off
holonomy, in local frames.

Each tetrahedron i has its own frame, in which its vertices 0, 1, 2, 3 sit
at (0, oo, 1, z_i); the shape read back at edge {0,1} is z_i.  A face
gluing is one SL(2, C) matrix in those frames, its face step: the Mobius
map carrying the target tetrahedron's frame into the source's, so that it
sends each shared face vertex perm(v) of the target to vertex v of the
source.  The reverse gluing's step is its inverse (the adjugate).  This is
the n = 2 case of Garoufalidis-Goerner-Zickert, "Gluing equations for
PGL(n, C)-representations of 3-manifolds" (AGT 2015, arXiv:1207.6711).

A tetrahedron's frame in tetrahedron 0's is the product of the face steps
along the breadth-first dual spanning tree.  Generators (the non-tree
gluings) are given in tetrahedron 0's frame; an edge matrix, the product of
the deg(e) face steps around the edge, in its first tetrahedron's.  No
cross-ratio is inverted and no two points are compared.

Conventions, pinned by the closed-form Hopf/trefoil holonomy fixtures: an
edge cycle leaves the slot (tail, head) through the face `exit` making
(tail, head, exit, other) an even permutation; the composed rotation around
the edge then has derivative h(e) at the tail vertex.  Ideal points exposed
to callers are elements of C u {oo}, with oo represented by complex(inf, 0).
"""
from __future__ import annotations

import cmath
from collections import deque
from dataclasses import dataclass

import numpy as np

from .errors import DevelopFailure, EdgeCycleNotClosed
from .gluing import ShapeAssignment, check_nondegenerate
from .triangulation import (EdgeClass, FaceGluing, Triangulation,
                            compute_edge_classes)

INFINITY = complex("inf")


def _lift(p: complex) -> np.ndarray:
    if cmath.isinf(p):
        return np.array([1.0, 0.0], dtype=complex)
    return np.array([p, 1.0], dtype=complex)


def _unlift(v: np.ndarray) -> complex:
    if abs(v[1]) <= 1e-15 * abs(v[0]):
        return INFINITY
    return complex(v[0] / v[1])


def _vertices(z: complex) -> tuple:
    """Lifts of a tetrahedron's vertices (0, oo, 1, z) in its own frame."""
    return ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0), (z, 1.0))


def _std_matrix(p, q, r) -> np.ndarray:
    """Matrix sending the CP^1 triple (p, q, r) to (0, oo, 1), det 1."""
    qr = q[0] * r[1] - q[1] * r[0]
    pr = p[0] * r[1] - p[1] * r[0]
    det = qr * pr * (p[0] * q[1] - p[1] * q[0])
    if abs(det) < 1e-30:
        raise DevelopFailure("triple contains coincident points")
    return np.array([[-qr * p[1], qr * p[0]],
                     [-pr * q[1], pr * q[0]]], dtype=complex) / cmath.sqrt(det)


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


def develop_across_face(g: FaceGluing, Z: ShapeAssignment) -> MobiusMap:
    """The face step of gluing g: the map from the target tetrahedron's
    frame to the source's that sends vertex g.perm(v) of the target to
    vertex v of the source for the three vertices v of the glued face."""
    src, dst = _vertices(Z[g.source_tet]), _vertices(Z[g.target_tet])
    face = [v for v in range(4) if v != g.source_face]
    A = _std_matrix(*(src[v] for v in face))
    B = _std_matrix(*(dst[g.perm(v)] for v in face))
    (a, b), (c, d) = A
    return MobiusMap(np.array([[d, -b], [-c, a]]) @ B, normalize=False)


@dataclass
class DevelopedComplex:
    """A development along a breadth-first dual spanning tree from
    tetrahedron 0: per tetrahedron its frame in tetrahedron 0's, and per
    face (index 4 tet + face) the face step of the gluing leaving it; the
    non-tree gluings are the holonomy generators."""

    triangulation: Triangulation
    frames: list         # MobiusMap per tetrahedron
    steps: list          # MobiusMap per face
    tree: tuple          # FaceGluings used to develop
    generators: tuple    # remaining FaceGluings (canonical orientation)


def develop_spanning_tree(t: Triangulation, Z: ShapeAssignment) -> DevelopedComplex:
    """Develop t at the shapes Z.  Raises DegenerateShape for a shape within
    the guard of {0, 1} and DevelopFailure for a disconnected t."""
    for z in Z.z:
        check_nondegenerate(z)
    steps = [None] * (4 * t.tetra_count)
    for g in t.gluings:
        step = develop_across_face(g, Z)
        steps[4 * g.source_tet + g.source_face] = step
        steps[4 * g.target_tet + g.target_face] = step.inverse()
    frames = {0: MobiusMap.identity()}
    tree, generators, used = [], [], set()
    queue = deque([0])
    while queue:
        tet = queue.popleft()
        for face in range(4):
            g = t.gluing_at(tet, face)
            if g.source in used:
                continue
            used.update((g.source, g.target))
            if g.target_tet not in frames:
                frames[g.target_tet] = frames[tet] @ steps[4 * tet + face]
                tree.append(g)
                queue.append(g.target_tet)
            else:
                # store from the canonical (lex smaller) side
                generators.append(g if g.source <= g.target else g.reversed())
    if len(frames) != t.tetra_count:
        raise DevelopFailure("triangulation is disconnected; cannot develop "
                             f"({len(frames)} of {t.tetra_count} "
                             "tetrahedra reachable from tetrahedron 0)")
    return DevelopedComplex(t, [frames[i] for i in range(t.tetra_count)],
                            steps, tuple(tree), tuple(generators))


def generator_holonomy(dc: DevelopedComplex, g: FaceGluing) -> MobiusMap:
    """The elementary face pairing of gluing g in tetrahedron 0's frame,
    frames[target] step(g)^-1 frames[source]^-1: the map carrying the
    developed source face to the developed target face, matched by the
    gluing permutation (the identity for a tree gluing)."""
    return (dc.frames[g.target_tet] @ dc.steps[4 * g.target_tet + g.target_face]
            @ dc.frames[g.source_tet].inverse())


def generator_maps(dc: DevelopedComplex):
    """All generator holonomies, in dc.generators order."""
    return [generator_holonomy(dc, g) for g in dc.generators]


def edge_holonomy_matrix(dc: DevelopedComplex, t: Triangulation,
                         Z: ShapeAssignment, j) -> tuple:
    """Compose the face steps once around edge j's cycle, in the frame of
    the cycle's first tetrahedron; dc is the development of t at Z.

    Returns (map, multiplier).  The map fixes the edge's tail and head
    vertices; the multiplier is its derivative at the tail and equals
    h(e_j) for every shape assignment, not only on solutions.

    Raises EdgeCycleNotClosed if the map moves the tail or the head
    (impossible on valid input).
    """
    edge = j if isinstance(j, EdgeClass) else compute_edge_classes(t)[j]
    tet, (tail, head) = edge.directed[0]
    M = MobiusMap.identity()
    for g in edge.steps:
        M = M @ dc.steps[4 * g.source_tet + g.source_face]
    ends = [np.array(_vertices(Z[tet])[v], dtype=complex) for v in (tail, head)]
    for v in ends:
        w = M.matrix @ v
        w, u = w / np.linalg.norm(w), v / np.linalg.norm(v)
        mismatch = abs(w[0] * u[1] - w[1] * u[0])
        if mismatch > 1e-6:
            raise EdgeCycleNotClosed(f"edge {edge.index}: mismatch {mismatch:.3e}")
    return M, M._multiplier_at_lift(ends[0])
