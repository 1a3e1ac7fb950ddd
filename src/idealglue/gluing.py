"""Shape parameters, exponent matrices, and the (cone-)hyperbolic gluing
equations.

The three labels z, z', z'' are assigned to opposite-edge pairs of each
tetrahedron; with the initial placement (0, oo, 1, z) used by the developing
module, the consistent assignment is

    {01, 23} -> z        {02, 13} -> z''        {03, 12} -> z'

(the other orientation convention swaps z' and z'' and breaks the contract
that the composed rotation around an edge has multiplier h(e); see the
developing-module tests, which pin this down against the closed-form Hopf
and trefoil holonomies).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateShape, NotUnitModulus
from .triangulation import SLOT_INDEX, EdgeClass, Triangulation

DEGENERACY_GUARD = 1e-8

LABEL_Z, LABEL_ZP, LABEL_ZPP = 0, 1, 2
LABEL_NAMES = ("z", "z'", "z''")

# slot index (into EDGE_SLOTS) -> label
SLOT_LABELS = (LABEL_Z, LABEL_ZPP, LABEL_ZP, LABEL_ZP, LABEL_ZPP, LABEL_Z)


def edge_slot_label(slot) -> str:
    """Label carried by an edge slot, as one of "z", "z'", "z''".

    `slot` is an unordered vertex pair or an index into EDGE_SLOTS.
    """
    if not isinstance(slot, int):
        a, b = sorted(slot)
        slot = SLOT_INDEX[(a, b)]
    return LABEL_NAMES[SLOT_LABELS[slot]]


def check_nondegenerate(z: complex, guard: float = DEGENERACY_GUARD) -> complex:
    z = complex(z)
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
    """One shape parameter per tetrahedron, all away from {0, 1}."""

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
            if abs(abs(x) - 1.0) >= tol:
                raise NotUnitModulus(f"xi[{k}] = {x} has |xi| = {abs(x)}")
        object.__setattr__(self, "xi", vals)

    def __len__(self):
        return len(self.xi)

    def __getitem__(self, j) -> complex:
        return self.xi[j]

    @classmethod
    def ones(cls, m: int) -> "ConeTarget":
        return cls((1.0 + 0.0j,) * m)


@dataclass(frozen=True)
class ExponentMatrix:
    """Slot-label counts a, a', a'' per (edge class, tetrahedron).

    Row j of each m-by-n matrix counts the slots of each tetrahedron in edge
    class j carrying the corresponding label.  Each tetrahedron has two slots
    of each label, so every column of each matrix sums to 2, and row sums
    across the three matrices give the edge degrees.
    """

    a: np.ndarray
    a_prime: np.ndarray
    a_second: np.ndarray

    @property
    def edge_count(self) -> int:
        return self.a.shape[0]

    @property
    def tet_count(self) -> int:
        return self.a.shape[1]

    def row(self, j: int):
        return self.a[j], self.a_prime[j], self.a_second[j]

    def degrees(self):
        return (self.a + self.a_prime + self.a_second).sum(axis=1)


def build_exponent_matrix(t: Triangulation, edges: list[EdgeClass]) -> ExponentMatrix:
    m, n = len(edges), t.tetra_count
    mats = [np.zeros((m, n), dtype=int) for _ in range(3)]
    for e in edges:
        for (tet, slot, _) in e.cycle:
            mats[SLOT_LABELS[slot]][e.index, tet] += 1
    return ExponentMatrix(*mats)


def all_holonomies(Z: ShapeAssignment, E: ExponentMatrix) -> np.ndarray:
    """h(e_j) = prod_i z_i^a z_i'^a' z_i''^a'', the product of the shape
    parameters at every slot of edge j; the integer powers are exact."""
    z = np.array(Z.z, dtype=complex)
    return np.prod(z ** E.a * (1.0 / (1.0 - z)) ** E.a_prime
                   * ((z - 1.0) / z) ** E.a_second, axis=1)


def evaluate_residual(Z: ShapeAssignment, E: ExponentMatrix, xi: ConeTarget) -> np.ndarray:
    """Component j is h(e_j) - xi_j; identically zero exactly on solutions of
    the xi-hyperbolic gluing equations."""
    return all_holonomies(Z, E) - np.array(xi.xi)


def jacobian(Z: ShapeAssignment, E: ExponentMatrix) -> np.ndarray:
    """Analytic m-by-n complex Jacobian d h(e_j) / d z_i.

    Uses d log z'/dz = 1/(1-z) and d log z''/dz = 1/(z(z-1)), so
    J[j,i] = h(e_j) (a/z + a'/(1-z) + a''/(z(z-1))).
    """
    z = np.array(Z.z, dtype=complex)
    h = all_holonomies(Z, E)
    return h[:, None] * (E.a / z + E.a_prime / (1.0 - z)
                         + E.a_second / (z * (z - 1.0)))


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
