"""Shape parameters, exponent matrices, and the (cone-)hyperbolic gluing
equations.

The three labels z, z', z'' are assigned to opposite-edge pairs of each
tetrahedron; with the local frame (0, oo, 1, z) used by the developing
module, the consistent assignment is

    {01, 23} -> z        {02, 13} -> z''        {03, 12} -> z'

(the other orientation convention swaps z' and z'' and breaks the contract
that the composed rotation around an edge has multiplier h(e); see the
developing-module tests, which pin this down against the closed-form Hopf
and trefoil holonomies).

The equations are read off the triangulation's compiled tables
(`triangulation.edge_tables`, `vertex_tables`): the exponent matrix is kept
as its nonzero (edge, tetrahedron) pairs, counted with `np.bincount` from
the slots on each edge class's orbit, and the cusp relation matrix W from
the vertex classes at each edge's ends; both are built once per
triangulation, and h, J and the residual are evaluated over the pairs.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShape, IdealGlueError, NotUnitModulus
from .triangulation import SLOT_INDEX, Triangulation, edge_tables, vertex_tables

DEGENERACY_GUARD = 1e-8

LABEL_Z, LABEL_ZP, LABEL_ZPP = 0, 1, 2
LABEL_NAMES = ("z", "z'", "z''")

# slot index (into EDGE_SLOTS) -> label
SLOT_LABELS = (LABEL_Z, LABEL_ZPP, LABEL_ZP, LABEL_ZP, LABEL_ZPP, LABEL_Z)
_SLOT_LABELS = np.array(SLOT_LABELS)


def edge_slot_label(slot) -> str:
    """Label carried by an edge slot, as one of "z", "z'", "z''".

    `slot` is an unordered vertex pair or an index into EDGE_SLOTS.
    """
    if not isinstance(slot, int):
        a, b = sorted(slot)
        slot = SLOT_INDEX[(a, b)]
    return LABEL_NAMES[SLOT_LABELS[slot]]


def check_nondegenerate(z: complex, guard: float = DEGENERACY_GUARD) -> complex:
    """z as a complex number; raises DegenerateShape when z is not finite or
    lies within `guard` of {0, 1}."""
    z = complex(z)
    if not cmath.isfinite(z):
        raise DegenerateShape(f"shape {z} is not finite")
    if min(abs(z), abs(z - 1)) < guard:
        raise DegenerateShape(f"shape {z} within {guard} of {{0, 1}}")
    return z


def derive_shape_triple(z: complex):
    """(z, z', z'') with z' = 1/(1-z) and z'' = (z-1)/z.

    The triple satisfies z(1-z'') = z'(1-z) = z''(1-z') = 1 and
    z z' z'' = -1 exactly (to rounding).
    """
    z = check_nondegenerate(z)
    return z, 1.0 / (1.0 - z), (z - 1.0) / z


@dataclass(frozen=True)
class ShapeAssignment:
    """One shape parameter per tetrahedron, all finite and away from {0, 1}."""

    z: tuple

    def __init__(self, z, guard: float = DEGENERACY_GUARD):
        zs = tuple(check_nondegenerate(w, guard) for w in z)
        object.__setattr__(self, "z", zs)

    def __len__(self):
        return len(self.z)

    def __getitem__(self, i) -> complex:
        return self.z[i]


@dataclass(frozen=True)
class ConeTarget:
    """A unit-modulus target xi_e per edge class.  The all-ones vector gives
    the classical hyperbolic gluing equations."""

    xi: tuple

    def __init__(self, xi, tol: float = 1e-8):
        vals = tuple(complex(x) for x in xi)
        for k, x in enumerate(vals):
            if not abs(abs(x) - 1.0) < tol:     # also rejects nan and inf
                raise NotUnitModulus(f"xi[{k}] = {x} has |xi| = {abs(x)}")
        object.__setattr__(self, "xi", vals)

    def __len__(self):
        return len(self.xi)

    def __getitem__(self, j) -> complex:
        return self.xi[j]

    @classmethod
    def ones(cls, m: int) -> "ConeTarget":
        return cls((1.0 + 0.0j,) * m)


class ExponentMatrix:
    """Slot-label counts a, a', a'' per (edge class, tetrahedron), kept as
    their nonzero pairs.

    a[j, i] counts the slots of tetrahedron i in edge class j that carry
    the label z, and a', a'' likewise for z', z''.  Each tetrahedron has two
    slots of each label, so every column of each m-by-n matrix sums to 2,
    and row sums across the three give the edge degrees.

    The nonzero (edge, tetrahedron) pairs, in row-major order, are the
    index arrays `rows`, `cols` with their exponents `pair_a`,
    `pair_a_prime`, `pair_a_second`; `row_starts[j]` is the first pair of
    edge j.  The arrays are shared and read-only.  The dense matrices `a`,
    `a_prime`, `a_second` are built when read.
    """

    __slots__ = ("edge_count", "tet_count", "rows", "cols", "pair_a",
                 "pair_a_prime", "pair_a_second", "row_starts")

    def __init__(self, edge_count: int, tet_count: int, rows, cols, counts):
        self.edge_count, self.tet_count = edge_count, tet_count
        self.rows, self.cols = rows, cols
        self.pair_a, self.pair_a_prime, self.pair_a_second = (
            np.ascontiguousarray(counts.T))
        self.row_starts = np.searchsorted(rows, np.arange(edge_count))
        for name in self.__slots__[2:]:
            getattr(self, name).setflags(write=False)

    def _dense(self, counts) -> np.ndarray:
        M = np.zeros((self.edge_count, self.tet_count), dtype=int)
        M[self.rows, self.cols] = counts
        M.setflags(write=False)
        return M

    a = property(lambda self: self._dense(self.pair_a))
    a_prime = property(lambda self: self._dense(self.pair_a_prime))
    a_second = property(lambda self: self._dense(self.pair_a_second))

    def degrees(self):
        return np.add.reduceat(self.pair_a + self.pair_a_prime
                               + self.pair_a_second, self.row_starts)


def build_exponent_matrix(t: Triangulation, edges=None) -> ExponentMatrix:
    """The exponent matrix of t's edge classes, built once per
    triangulation and memoised on it.  `edges` (t's own edge classes) is
    ignored; it stays in the signature because the benchmark harness and
    the tests pass it.

    Each slot on an edge class's orbit adds one to the count of its label
    at (class, tetrahedron): the pairs are the distinct keys
    class * n + tetrahedron, and `np.bincount` counts the labels per key.
    """
    if t._exponent_matrix is None:
        tables, n = edge_tables(t), t.tetra_count
        slot = tables.fwd >> 1
        keys, pair = np.unique(tables.fwd_class * n + slot // 6,
                               return_inverse=True)
        counts = np.bincount(3 * pair + _SLOT_LABELS[slot % 6],
                             minlength=3 * len(keys)).reshape(-1, 3)
        t._exponent_matrix = ExponentMatrix(len(tables.starts), n,
                                            keys // n, keys % n, counts)
    return t._exponent_matrix


def check_target_length(xi: ConeTarget, E: ExponentMatrix) -> None:
    """Raise IdealGlueError unless xi has one target per edge class."""
    if len(xi) != E.edge_count:
        raise IdealGlueError(f"expected {E.edge_count} xi entries (one per "
                             f"edge class), got {len(xi)}")


def check_shape_length(Z, E: ExponentMatrix) -> None:
    """Raise IdealGlueError unless Z has one shape per tetrahedron."""
    if len(Z) != E.tet_count:
        raise IdealGlueError(f"expected {E.tet_count} shapes (one per "
                             f"tetrahedron), got {len(Z)}")


def build_relation_matrix(t: Triangulation) -> np.ndarray:
    """The c-by-m cusp relation matrix W, built once per triangulation and
    memoised on it (read-only): W[v, e] counts the ends of edge class e at
    vertex class v.

    Around vertex class v every corner contributes log z + log z' +
    log z'' = log(-1), so sum_e W[v, e] log h(e) is constant and
    sum_e (W[v, e] / h(e)) J[e, :] = 0: the rows of W / h lie in the left
    null space of the Jacobian (Neumann-Zagier).
    """
    if t._relation_matrix is None:
        _, count, ends = vertex_tables(t)
        W = np.zeros((count, len(ends)), dtype=int)
        np.add.at(W, (ends.T, np.arange(len(ends))), 1)
        W.setflags(write=False)
        t._relation_matrix = W
    return t._relation_matrix


def _shapes(Z: ShapeAssignment | np.ndarray) -> np.ndarray:
    return np.asarray(Z.z if isinstance(Z, ShapeAssignment) else Z,
                      dtype=complex)


def all_holonomies(Z: ShapeAssignment | np.ndarray,
                   E: ExponentMatrix) -> np.ndarray:
    """h(e_j) = prod_i z_i^a z_i'^a' z_i''^a'', the product of the shape
    parameters at every slot of edge j; the integer powers are exact.

    Z is a ShapeAssignment or an array of shapes whose last axis runs over
    the tetrahedra; leading axes are a batch, and each row's holonomies
    equal those of the row alone, bit for bit.  Only the nonzero
    (edge, tetrahedron) pairs are evaluated, each power first and then the
    product in tetrahedron order, which is the dense product's order.
    """
    w = _shapes(Z).take(E.cols, axis=-1)
    return np.multiply.reduceat(w ** E.pair_a * (1.0 / (1.0 - w)) ** E.pair_a_prime
                                * ((w - 1.0) / w) ** E.pair_a_second,
                                E.row_starts, axis=-1)


def evaluate_residual(Z: ShapeAssignment | np.ndarray, E: ExponentMatrix,
                      xi: ConeTarget | np.ndarray) -> np.ndarray:
    """Component j is h(e_j) - xi_j; identically zero exactly on solutions of
    the xi-hyperbolic gluing equations.  xi is a ConeTarget or the array of
    its values; Z may carry batch axes as in `all_holonomies`."""
    target = np.array(xi.xi) if isinstance(xi, ConeTarget) else xi
    return all_holonomies(Z, E) - target


def jacobian(Z: ShapeAssignment | np.ndarray,
             E: ExponentMatrix) -> np.ndarray:
    """Analytic m-by-n complex Jacobian d h(e_j) / d z_i, with the leading
    batch axes of Z (one m-by-n matrix per row, as in `all_holonomies`).

    Uses d log z'/dz = 1/(1-z) and d log z''/dz = 1/(z(z-1)), so
    J[j,i] = h(e_j) (a/z + a'/(1-z) + a''/(z(z-1))), evaluated at the
    nonzero (edge, tetrahedron) pairs; the other entries are 0.
    """
    z = _shapes(Z)
    w = z.take(E.cols, axis=-1)
    h = all_holonomies(z, E)
    J = np.zeros(z.shape[:-1] + (E.edge_count, E.tet_count), dtype=complex)
    J[..., E.rows, E.cols] = h.take(E.rows, axis=-1) * (
        E.pair_a / w + E.pair_a_prime / (1.0 - w)
        + E.pair_a_second / (w * (w - 1.0)))
    return J


@dataclass(frozen=True)
class NotUnitModulusReport:
    """Edges whose holonomy modulus is off the unit circle, with the moduli."""

    edges: tuple          # edge indices
    moduli: tuple         # |h(e)| for those edges


def xi_from_shapes(Z: ShapeAssignment, E: ExponentMatrix, tol: float = 1e-8):
    """Solve the cone equations for xi at a given shape assignment.

    Returns the ConeTarget (h(e_1), ..., h(e_m)) when every |h(e)| is within
    tol of 1, and a NotUnitModulusReport naming the offending edges
    otherwise.
    """
    h = all_holonomies(Z, E)
    bad = [j for j in range(len(h)) if abs(abs(h[j]) - 1.0) >= tol]
    if bad:
        return NotUnitModulusReport(tuple(bad), tuple(abs(h[j]) for j in bad))
    return ConeTarget(tuple(h), tol=10 * tol)
