"""Oracles that only the tests read: the abstract edge neighbourhood,
relabelling, canonical forms and the enumeration of the one-tetrahedron
triangulations, and the Gauss-Newton step with nothing formed ahead of
its call (`unplanned_step`)."""
import contextlib
import itertools
from dataclasses import dataclass

import numpy as np

from idealglue import (Triangulation, compute_edge_classes,
                       make_triangulation)
from idealglue.gluing import _pair_products, pair_matvec
from idealglue.triangulation import PERMUTATIONS, _odd_perms_fixing


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


def relabel(t: Triangulation, vertex_perms, tet_perm=None) -> Triangulation:
    """Relabel vertices of each tetrahedron (vertex_perms[i] applied to tet i)
    and optionally renumber tetrahedra."""
    tet_perm = range(t.tetra_count) if tet_perm is None else tet_perm
    out = []
    for a, b, c, d, p in t.gluings:
        ps, pt = vertex_perms[a], vertex_perms[c]
        out.append((tet_perm[a], ps(b), tet_perm[c], pt(d),
                    pt.compose(p).compose(ps.inverse())))
    return Triangulation(t.tetra_count, out)


def _pairs(t: Triangulation) -> list:
    """t's face pairs (t1, f1, t2, f2, permutation index), in order."""
    return t._pair_array.tolist()


def canonical_form(t: Triangulation) -> Triangulation:
    """Lexicographically least relabeling.  Intended for small n (searches
    all vertex relabelings and tetrahedron renumberings)."""
    best = None
    for tet_perm in itertools.permutations(range(t.tetra_count)):
        for combo in itertools.product(PERMUTATIONS, repeat=t.tetra_count):
            cand = relabel(t, list(combo), list(tet_perm))
            if best is None or _pairs(cand) < _pairs(best):
                best = cand
    return best


def enumerate_one_tetrahedron_triangulations() -> list:
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
        reps.setdefault(canonical_form(t), t)
    out = [canonical_form(t) for t in reps.values()]
    out.sort(key=lambda t: (sorted(e.degree for e in compute_edge_classes(t)),
                            _pairs(t)))
    return out


def unplanned_step(V, E, b, M):
    """`solver._least_squares_step` with nothing formed ahead of the call,
    for a stack of rows: M (holding U^H U, completed in place) is scattered
    into through an index built from M's shape, each product with D^H
    conjugates V and gathers it into tetrahedron order anew, and the
    check's two right-hand sides are joined by `np.stack`.  The solver's
    step, which forms the index once per solve and D^H's values once per
    step, must equal it bit for bit."""
    by_tet, _, starts, pairs, entry = _pair_products(E)

    def rmatvec(y):                     # D^H y
        return np.add.reduceat((V.conj() * y.take(E.rows, axis=-1)).take(
            by_tet, axis=-1), starts, axis=-1)

    v = V.take(pairs, axis=-1)
    prod = v[..., :len(entry)] * v[..., len(entry):].conj()
    real = not np.iscomplexobj(M)
    if real:
        prod = prod.real
    start = np.arange(0, M.size, M.shape[-1] ** 2)[:, None]   # of each M
    np.add.at(M.reshape(-1), (start + entry).ravel(), prod.ravel())
    y = b[..., None]
    try:
        y = np.linalg.solve(M, y)
    except np.linalg.LinAlgError:
        y = np.full(y.shape, np.nan, np.result_type(M, y))
        for k in range(len(M)):
            with contextlib.suppress(np.linalg.LinAlgError):
                y[k] = np.linalg.solve(M[k], b[k, :, None])
    x = rmatvec(y[..., 0])
    Ax = pair_matvec(V, E, x)
    g = rmatvec(np.stack([(Ax.real if real else Ax) - b, b]))
    g = np.vecdot(g, g).real            # |A^H (A x - b)|^2, |A^H b|^2
    for k, ok in enumerate((g[0] <= 1e-16 * g[1]).tolist()):
        if not ok:
            D, n = E.dense(V[k]), E.tet_count
            A = np.concatenate([D.real, -D.imag], axis=-1) if real else D
            step = np.linalg.lstsq(A, b[k], rcond=None)[0]
            x[k] = step[:n] + 1j * step[n:] if real else step
    return x
