"""Hyperbolic volume and angle computations.

The volume of the ideal tetrahedron of shape z is the Bloch-Wigner function
D(z) = Im Li2(z) + arg(1-z) log|z|; it is positive for Im z > 0, zero for
real shapes (flat tetrahedra) and odd under conjugation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BranchCut, DegenerateShape
from .gluing import ExponentMatrix, ShapeAssignment, derive_shape_triple

PI2_OVER_6 = math.pi * math.pi / 6.0
FLAT_TOL = 1e-9

_SERIES_RADIUS = 0.5
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


def _li2_series(z: complex) -> complex:
    """Direct sum of z^k / k^2; use only for |z| <= 1/2."""
    total = 0.0 + 0.0j
    term = complex(z)
    k = 1
    while True:
        add = term / (k * k)
        total += add
        if abs(add) <= 1e-18 * max(1.0, abs(total)):
            return total
        term *= z
        k += 1
        if k > 200:
            return total


def _li2_log_series(z: complex) -> complex:
    """Li2(z) = sum_k B_k u^{k+1} / (k+1)! with u = -log(1-z); converges for
    |u| < 2 pi, used in the annulus where neither z nor 1-z is small."""
    u = -cmath.log(1.0 - z)
    total = 0.0 + 0.0j
    upow = u
    factorial = 1.0
    for k in range(_N_BERNOULLI):
        factorial *= k + 1
        if k in _BERNOULLI:
            total += _BERNOULLI[k] * upow / factorial
        upow *= u
    return total


def dilog(z: complex) -> complex:
    """Principal-branch dilogarithm Li2(z), accurate to ~1e-14 absolute.

    Strategy: direct series inside |z| <= 1/2; the inversion identity
    Li2(z) = -Li2(1/z) - pi^2/6 - log(-z)^2/2 for |z| > 1; the reflection
    Li2(z) = pi^2/6 - log(z) log(1-z) - Li2(1-z) near 1; the Bernoulli
    log-series elsewhere.  The boundary value Li2(1) = pi^2/6 is returned at
    exactly 1; real z > 1 lies on the branch cut and raises BranchCut.
    """
    z = complex(z)
    if z.imag == 0.0:
        if z.real == 1.0:
            return complex(PI2_OVER_6, 0.0)
        if z.real > 1.0:
            raise BranchCut(f"Li2 evaluated on the cut [1, oo): z = {z.real}")
    if abs(z) > 1.0:
        return -dilog(1.0 / z) - PI2_OVER_6 - 0.5 * cmath.log(-z) ** 2
    if abs(z) <= _SERIES_RADIUS:
        return _li2_series(z)
    if abs(1.0 - z) <= _SERIES_RADIUS:
        return PI2_OVER_6 - cmath.log(z) * cmath.log(1.0 - z) - _li2_series(1.0 - z)
    return _li2_log_series(z)


def bloch_wigner(z: complex) -> float:
    """D(z) = Im Li2(z) + arg(1-z) log|z|.

    Exactly zero for real z (flat tetrahedra), by the conjugation
    antisymmetry D(conj z) = -D(z).
    """
    z = complex(z)
    if z == 0.0 or z == 1.0:
        raise DegenerateShape(f"D undefined at {z}")
    if z.imag == 0.0:
        return 0.0
    return dilog(z).imag + cmath.phase(1.0 - z) * math.log(abs(z))


# volume of the regular ideal tetrahedron, D(e^{i pi/3})
V_TET = bloch_wigner(cmath.exp(1j * math.pi / 3.0))


@dataclass(frozen=True)
class VolumeReport:
    per_tetrahedron: tuple
    total: float
    flat_tetrahedra: tuple          # |Im z| < FLAT_TOL; volume reported as 0
    negatively_oriented: tuple      # Im z < -FLAT_TOL


def solution_volume(Z: ShapeAssignment) -> VolumeReport:
    """Per-tetrahedron Bloch-Wigner volumes and their sum."""
    vols, flats, negs = [], [], []
    for i, z in enumerate(Z.z):
        if abs(z.imag) < FLAT_TOL:
            flats.append(i)
            vols.append(0.0)
            continue
        if z.imag < 0:
            negs.append(i)
        vols.append(bloch_wigner(z))
    return VolumeReport(tuple(vols), float(sum(vols)), tuple(flats), tuple(negs))


def dihedral_angles(z: complex):
    """(arg z, arg z', arg z'') normalized to (-pi, pi].

    For Im z > 0 these are the angles of a Euclidean triangle: positive with
    sum pi.  For real z the triple degenerates to a (0, pi, 0) pattern, still
    summing to pi.
    """
    triple = derive_shape_triple(z)
    out = []
    for w in triple:
        a = cmath.phase(w)
        if a <= -math.pi:
            a = math.pi
        out.append(a)
    return tuple(out)


def edge_cone_angles(Z: ShapeAssignment, E: ExponentMatrix) -> np.ndarray:
    """Total angle around each edge: the sum of the slot angles.

    This recovers arg h(e) + 2 pi k with the correct winding k, which arg of
    the holonomy product alone cannot provide.
    """
    t0, t1, t2 = np.array([dihedral_angles(z) for z in Z.z]).T
    return E.a @ t0 + E.a_prime @ t1 + E.a_second @ t2
