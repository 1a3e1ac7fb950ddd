"""Hyperbolic volume and angle computations.

The volume of the ideal tetrahedron of shape z is the Bloch-Wigner function
D(z) = Im Li2(z) + arg(1-z) log|z|; it is positive for Im z > 0, zero for
real shapes (flat tetrahedra) and odd under conjugation.

D, the dihedral angles and the cone angles (sums of the slot angles
around each edge) are array kernels; the scalar `bloch_wigner` and
`dihedral_angles` are their one-element cases.
"""
from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .errors import BranchCut, DegenerateShape
from .gluing import (ExponentMatrix, ShapeAssignment, _triples,
                     check_nondegenerate, check_shape_length)

PI2_OVER_6 = math.pi * math.pi / 6.0
FLAT_TOL = 1e-9

_N_BERNOULLI = 48

# B_k by k, as floats: B_0, B_1 and the even B_2 .. B_46 (the odd B_k past
# B_1 vanish); tests/test_geometry.py checks them against the defining
# recurrence in exact rational arithmetic
_BERNOULLI = {
    0: 1.0, 1: -0.5,
    2: 0.16666666666666666, 4: -0.03333333333333333,
    6: 0.023809523809523808, 8: -0.03333333333333333,
    10: 0.07575757575757576, 12: -0.2531135531135531,
    14: 1.1666666666666667, 16: -7.092156862745098,
    18: 54.971177944862156, 20: -529.1242424242424,
    22: 6192.123188405797, 24: -86580.25311355312,
    26: 1425517.1666666667, 28: -27298231.067816094,
    30: 601580873.9006424, 32: -15116315767.092157,
    34: 429614643061.1667, 36: -13711655205088.332,
    38: 488332318973593.2, 40: -1.9296579341940068e+16,
    42: 8.416930475736826e+17, 44: -4.0338071854059454e+19,
    46: 2.1150748638081993e+21,
}


# B_{2j} / (2j+1)! for j = 1, ..., 23: the coefficients of u^(2j+1) in the
# Bernoulli series
_SERIES = np.array([_BERNOULLI[2 * j] / math.factorial(2 * j + 1)
                    for j in range(1, _N_BERNOULLI // 2)])
# the doubling steps (k, m) of `_li2_of_log`: v^(k+1) ... v^(k+m) as
# v ... v^m times v^k, until all 23 powers are formed
_DOUBLING = tuple((k, min(k, len(_SERIES) - k)) for k in (1, 2, 4, 8, 16))


def _li2_of_log(u):
    """Li2(w) from u = -log(1 - w), a complex or an array of them: the
    Bernoulli series sum_k B_k u^(k+1) / (k+1)!, which converges for
    |u| < 2 pi, summed to B_46 as u - u^2/4 + u sum_j c_j v^j, v = u^2, in
    a few NumPy calls whatever the length: the powers v, ..., v^23 by
    doubling (v^(k+1) ... v^(2k) as v ... v^k times v^k), then one product
    of their real and imaginary parts with the c_j (`_SERIES`)."""
    u = np.asarray(u)
    v = u * u
    powers = np.empty((len(_SERIES),) + v.shape, complex)
    powers[0] = v
    for k, m in _DOUBLING:
        np.multiply(powers[:m], powers[k - 1], out=powers[k:k + m])
    series = (_SERIES @ powers.reshape(len(powers), -1).view(float)).view(complex)
    return u - 0.25 * v + u * series.reshape(v.shape)


def dilog(z: complex) -> complex:
    """Principal-branch dilogarithm Li2(z), accurate to ~1e-14 absolute.

    The inversion identity Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2/2 takes
    |z| > 1 into the unit disk, and the reflection
    Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z) takes its part with
    Re z > 1/2 to Re z < 1/2, where |log(1 - z)| < 1.8 and the Bernoulli
    series `_li2_of_log` converges fast.  The boundary value
    Li2(1) = pi^2/6 is returned at exactly 1; real z > 1 lies on the branch
    cut and raises BranchCut.
    """
    z = complex(z)
    if z.imag == 0.0:
        if z.real == 1.0:
            return complex(PI2_OVER_6, 0.0)
        if z.real > 1.0:
            raise BranchCut(f"Li2 evaluated on the cut [1, oo): z = {z.real}")
    if abs(z) > 1.0:
        return -dilog(1.0 / z) - PI2_OVER_6 - 0.5 * cmath.log(-z) ** 2
    if z.real > 0.5:
        return PI2_OVER_6 - cmath.log(z) * cmath.log(1.0 - z) - dilog(1.0 - z)
    return complex(_li2_of_log(-cmath.log(1.0 - z)))


def shape_table(z: np.ndarray) -> tuple:
    """(z, z', z'') per shape of a 1-D array and their arguments, as two
    n-by-3 arrays: the one table that the volumes and the cone angles of a
    solution are read off."""
    triple = _triples(z)
    return triple, np.arctan2(triple.imag, triple.real)     # np.angle


def _bloch_wigner_array(z: np.ndarray, table=None) -> np.ndarray:
    """D(z) for a 1-D array of shapes off {0, 1}; exactly 0 where Im z = 0.
    `table`, when given, is `shape_table(z)`.

    D takes the same value at the three shapes (z, z', z'') (Zagier, "The
    Dilogarithm Function", 2007), and at each w of them
    D(w) = Im Li2(w) - Im(u) log|w| with u = -log(1 - w), the log of the
    shape that follows w in the cycle z -> z' -> z'' -> z.  There
    Li2(w) = sum_k B_k u^(k+1) / (k+1)!, a series that converges for
    |u| < 2 pi (`_li2_of_log`).  The w whose u is least is taken; that |u|
    is largest, pi/3, at the regular shape, where the three agree.
    """
    triple, arg = shape_table(z) if table is None else table
    mod = np.log(np.abs(triple))
    # u = log of triple[k]: w = triple[k - 1]; k and k - 1 as indices into
    # the flattened n-by-3 tables
    k = np.argmin(mod * mod + arg * arg, axis=-1)
    row = np.arange(0, mod.size, 3)
    u = mod.take(row + k) + 1j * arg.take(row + k)
    d = _li2_of_log(u).imag - u.imag * mod.take(row + (k + 2) % 3)
    return np.where(z.imag == 0.0, 0.0, d)


def bloch_wigner(z: complex) -> float:
    """D(z) = Im Li2(z) + arg(1-z) log|z|, evaluated as the one-element
    `_bloch_wigner_array`.

    Exactly zero for real z (flat tetrahedra), by the conjugation
    antisymmetry D(conj z) = -D(z).
    """
    z = complex(z)
    if z == 0.0 or z == 1.0:
        raise DegenerateShape(f"D undefined at {z}")
    return float(_bloch_wigner_array(np.array([z]))[0])


# volume of the regular ideal tetrahedron, D(exp(i pi / 3)) = Cl2(pi / 3);
# a literal, so that importing the package runs no array kernel
# (tests/test_geometry.py checks it against bloch_wigner and mpmath)
V_TET = 1.0149416064096537


class VolumeReport(NamedTuple):
    per_tetrahedron: tuple
    total: float
    flat_tetrahedra: tuple          # |Im z| < FLAT_TOL; volume reported as 0
    negatively_oriented: tuple      # Im z <= -FLAT_TOL


def solution_volume(Z: ShapeAssignment, table=None) -> VolumeReport:
    """Per-tetrahedron Bloch-Wigner volumes, evaluated as one array, and
    their sum.  `table`, when given, is `shape_table` of Z's shapes."""
    if table is None:
        table = shape_table(np.array(Z.z, dtype=complex))
    z = table[0][:, 0]
    flat = np.abs(z.imag) < FLAT_TOL
    vols = np.where(flat, 0.0, _bloch_wigner_array(z, table)).tolist()
    return VolumeReport(tuple(vols), float(sum(vols)),
                        tuple(np.flatnonzero(flat).tolist()),
                        tuple(np.flatnonzero(z.imag <= -FLAT_TOL).tolist()))


def _dihedral_array(arg: np.ndarray) -> np.ndarray:
    """(arg z, arg z', arg z'') per shape, from the arguments of
    `shape_table`, normalized to (-pi, pi]."""
    return np.where(arg <= -math.pi, math.pi, arg)


def dihedral_angles(z: complex):
    """(arg z, arg z', arg z'') normalized to (-pi, pi].

    For Im z > 0 these are the angles of a Euclidean triangle: positive with
    sum pi.  For real z the triple degenerates to a (0, pi, 0) pattern, still
    summing to pi.
    """
    z = check_nondegenerate(z)
    return tuple(_dihedral_array(shape_table(np.array([z]))[1])[0].tolist())


def edge_cone_angles(Z: ShapeAssignment, E: ExponentMatrix,
                     table=None) -> np.ndarray:
    """Total angle around each edge: the sum of the slot angles, gathered
    in `all_holonomies`' slot order (`E.slots`).

    This recovers arg h(e) + 2 pi k with the correct winding k, which arg of
    the holonomy product alone cannot provide.  `table`, when given, is
    `shape_table` of Z's shapes.  Raises IdealGlueError unless Z has one
    shape per tetrahedron.
    """
    check_shape_length(Z, E)
    if table is None:
        table = shape_table(np.array(Z.z, dtype=complex))
    # transposed, the angles are label-major, as the slots index them
    return np.add.reduceat(_dihedral_array(table[1]).T.take(E.slots),
                           E.slot_starts)
