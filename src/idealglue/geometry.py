"""Hyperbolic volume and angle computations.

The volume of the ideal tetrahedron of shape z is the Bloch-Wigner function
D(z) = Im Li2(z) + arg(1-z) log|z|; it is positive for Im z > 0, zero for
real shapes (flat tetrahedra) and odd under conjugation.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import BranchCut, DegenerateShape
from .gluing import ExponentMatrix, ShapeAssignment, derive_shape_triple

PI2_OVER_6 = math.pi * math.pi / 6.0
FLAT_TOL = 1e-9

_SERIES_RADIUS = 0.5
_N_BERNOULLI = 48


def _bernoulli_numbers(count: int):
    """B_0 .. B_{count-1} as floats, by the defining recurrence in exact
    rational arithmetic."""
    b = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        binom = 1
        for j in range(m):
            acc += binom * b[j]
            binom = binom * (m + 1 - j) // (j + 1)
        b.append(-acc / (m + 1))
    return [float(x) for x in b]


_BERNOULLI = _bernoulli_numbers(_N_BERNOULLI)


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
