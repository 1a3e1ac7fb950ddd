"""Developing a triangulation into hyperbolic 3-space and reading off
holonomy, in local frames, on the compiled tables of `triangulation`.

Each tetrahedron i has its own frame, in which its vertices 0, 1, 2, 3 sit
at (0, oo, 1, z_i).  A face gluing's step is the SL(2, C) matrix carrying
the target tetrahedron's frame into the source's, so that it sends each
shared face vertex perm(v) of the target to vertex v of the source; the
reverse side's step is its adjugate.  This is the n = 2 case of
Garoufalidis-Goerner-Zickert, "Gluing equations for PGL(n, C)-
representations of 3-manifolds" (AGT 2015, arXiv:1207.6711).  A frame is
the product of the steps along the breadth-first dual spanning tree; a
generator (a non-tree gluing) is given in tetrahedron 0's frame, and an
edge matrix, the product of the deg(e) steps around the edge, in its first
tetrahedron's.  Each kind is one stacked (k, 2, 2) complex array, det 1,
meant up to sign; no cross-ratio is inverted, no two points are compared.

Conventions, pinned by the closed-form Hopf/trefoil holonomy fixtures: an
edge cycle leaves the slot (tail, head) through the face `exit` making
(tail, head, exit, other) an even permutation; the composed rotation around
the edge then has derivative h(e) at the tail vertex.
"""
from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DevelopFailure, EdgeCycleNotClosed
from .gluing import ShapeAssignment, build_exponent_matrix, check_shape_length
from .triangulation import (DIRECTED_SLOTS, EXIT_FACE, IMAGES, Triangulation,
                            _gluing, edge_tables)

_FACE = np.array([[v for v in range(4) if v != f] for f in range(4)])
_ENDS = np.array(DIRECTED_SLOTS)          # (tail, head) per directed slot
# vertex v of a tetrahedron lifts to (_X[v], _Y[v]), but vertex 3 to (z, 1)
_X, _Y = np.array([0.0, 1.0, 1.0, 0.0]), np.array([1.0, 0.0, 1.0, 1.0])


def _adjugate(M: np.ndarray) -> np.ndarray:
    """The adjugate of each matrix of a (k, 2, 2) stack."""
    return np.stack([M[:, 1, 1], -M[:, 0, 1], -M[:, 1, 0], M[:, 0, 0]],
                    1).reshape(-1, 2, 2)


def _lifts(z: np.ndarray, verts: np.ndarray) -> tuple:
    """The lifts (x, y) of vertices verts of tetrahedra of shapes z."""
    return np.where(verts == 3, z, _X[verts]), _Y[verts]


def _std_matrices(z: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Per row, the matrix sending the lifts of the vertex triple verts =
    (p, q, r) of a tetrahedron of shape z to (0, oo, 1), det 1."""
    (p0, q0, r0), (p1, q1, r1) = (c.T for c in _lifts(z[:, None], verts))
    qr = q0 * r1 - q1 * r0
    pr = p0 * r1 - p1 * r0
    det = qr * pr * (p0 * q1 - p1 * q0)
    M = np.stack([-qr * p1, qr * p0, -pr * q1, pr * q0], 1)
    return (M / np.sqrt(det)[:, None]).reshape(-1, 2, 2)


def develop_across_face(t: Triangulation, Z: ShapeAssignment) -> np.ndarray:
    """All 4n face steps, a (4n, 2, 2) array: row 4 tet + f is the step of
    the gluing leaving face f of tet, sending vertex perm(v) of the target
    to vertex v of tet for the three vertices v of the face.  A pair's step
    is computed from its lexicographically smaller side, and the other
    side's is its adjugate.  Raises IdealGlueError unless Z has one shape
    per tetrahedron."""
    check_shape_length(Z, build_exponent_matrix(t))
    table, z = edge_tables(t).face, np.asarray(Z.z)
    back = 4 * table[:, 0] + table[:, 1]
    src = np.flatnonzero(np.arange(len(table)) < back)
    verts = _FACE[src % 4]
    A = _std_matrices(z[src // 4], verts)
    B = _std_matrices(z[table[src, 0]], IMAGES[table[src, 2:], verts])
    steps = np.empty((len(table), 2, 2), dtype=complex)
    steps[src] = np.matmul(_adjugate(A), B)
    steps[back[src]] = _adjugate(steps[src])
    return steps


class DevelopedComplex(NamedTuple):
    """A development along a breadth-first dual spanning tree from
    tetrahedron 0; the non-tree gluings are the holonomy generators."""

    triangulation: Triangulation
    frames: np.ndarray              # (n, 2, 2): each frame in tetrahedron 0's
    steps: np.ndarray               # (4n, 2, 2): the step leaving face 4 tet + f
    tree: tuple                     # FaceGluings used to develop, in BFS order
    generators: tuple               # the other FaceGluings (canonical side)
    generator_matrices: np.ndarray  # per generator, in tetrahedron 0's frame
    edge_matrices: np.ndarray       # per edge class (`edge_holonomy_matrix`)
    multipliers: np.ndarray         # per edge class, h(e)


def develop_spanning_tree(t: Triangulation, Z: ShapeAssignment) -> DevelopedComplex:
    """Develop t at the shapes Z, off the guard band around {0, 1} as every
    ShapeAssignment is.  Raises DevelopFailure for a disconnected t, and
    IdealGlueError unless Z has one shape per tetrahedron.  A
    generator's matrix is frames[target] step^-1 frames[source]^-1, its
    elementary face pairing (the identity for a tree gluing)."""
    table, n = edge_tables(t).face, t.tetra_count
    steps, face = develop_across_face(t, Z), table.tolist()
    used, reached = [False] * (4 * n), [True] + [False] * (n - 1)
    order, tree, gens = [0], [], []
    frames = np.broadcast_to(np.eye(2, dtype=complex), (n, 2, 2)).copy()
    for tet in order:               # breadth first: order grows as we go
        for k in range(4 * tet, 4 * tet + 4):
            tt, tf, _ = face[k]
            if used[k]:
                continue
            used[k] = used[4 * tt + tf] = True
            if reached[tt]:
                gens.append(min(k, 4 * tt + tf))
            else:
                reached[tt] = True
                order.append(tt)
                tree.append(k)
                frames[tt] = frames[tet] @ steps[k]
    if len(order) != n:
        raise DevelopFailure("triangulation is disconnected; cannot develop "
                             f"({len(order)} of {n} tetrahedra reachable "
                             "from tetrahedron 0)")
    g = np.array(gens, dtype=np.intp)
    tt, back = table[g, 0], 4 * table[g, 0] + table[g, 1]
    G = np.matmul(np.matmul(frames[tt], steps[back]), _adjugate(frames[g // 4]))
    tree, gens = (tuple([_gluing(table, k // 4, k % 4) for k in ks])
                  for ks in (tree, gens))
    return DevelopedComplex(t, frames, steps, tree, gens, G,
                            *edge_holonomy_matrix(t, Z, steps))


def edge_holonomy_matrix(t: Triangulation, Z: ShapeAssignment,
                         steps: np.ndarray) -> tuple:
    """(matrices, multipliers), an (m, 2, 2) and an (m,) array: the face
    steps composed around each edge class's cycle, walked on the successor
    table from its first directed slot, in that slot's tetrahedron's frame;
    steps is `develop_across_face(t, Z)`.  Each matrix fixes its edge's
    tail and head; its multiplier, the derivative at the tail, is h(e_j)
    for every shape assignment.  Raises EdgeCycleNotClosed if a matrix
    moves its tail or head by more than 1e-6 relative: a convention fault,
    or, on valid input, the rounding of the steps at a shape of large
    modulus (a mismatch of 5e-6 at |z| = 1e5 on fig8_complement, 1 from
    |z| = 1e9), and IdealGlueError unless Z has one shape per
    tetrahedron."""
    check_shape_length(Z, build_exponent_matrix(t))
    tables = edge_tables(t)
    first, d = tables.starts, tables.starts
    M = np.broadcast_to(np.eye(2, dtype=complex), (len(first), 2, 2)).copy()
    for k in range(int(tables.degree.max())):   # every edge's k-th step at once
        live = tables.degree > k
        M[live] = M[live] @ steps[4 * (d[live] // 12) + EXIT_FACE[d[live] % 12]]
        d = tables.succ[d]
    v, z = _ENDS[first % 12], np.asarray(Z.z)[first // 12, None]
    ends = np.stack(_lifts(z, v), -1)                           # (m, 2, 2)
    images = np.matmul(M[:, None], ends[..., None])[..., 0]
    mismatch = (abs(images[..., 0] * ends[..., 1] - images[..., 1] * ends[..., 0])
                / (np.linalg.norm(images, axis=-1) * np.linalg.norm(ends, axis=-1)))
    for j in np.flatnonzero((mismatch > 1e-6).any(axis=1))[:1]:
        raise EdgeCycleNotClosed(int(j), float(mismatch[j].max()), 1e-6)
    i = np.argmax(abs(ends[:, 0]), axis=1)[:, None]     # the tail's larger entry
    lam = np.take_along_axis(images[:, 0], i, 1) / np.take_along_axis(ends[:, 0], i, 1)
    return M, 1.0 / (lam[:, 0] * lam[:, 0])
