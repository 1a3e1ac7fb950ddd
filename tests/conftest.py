"""Shared test helpers: random shape vectors away from the degeneracy
locus, chain covers of the figure-eight knot complement, and PSL(2,C)
matching utilities."""
import cmath
import itertools

import numpy as np
import pytest

from idealglue import (ShapeAssignment, build_exponent_matrix,
                       compute_edge_classes, random_triangulation)
from idealglue.fileio import clear_compile_cache


@pytest.fixture(autouse=True)
def empty_compile_cache():
    """Start every test with an empty compile cache, so that no test sees
    the triangulations, or the tables compiled on them, of the tests that
    ran before it."""
    clear_compile_cache()


def random_shapes(rng, n, margin=0.1, upper_only=False):
    """Random shape vector with every entry at least `margin` from {0, 1}
    and modulus in [0.3, 1.8]."""
    out = []
    while len(out) < n:
        z = complex(rng.uniform(-1.8, 1.8), rng.uniform(0.0 if upper_only else -1.8, 1.8))
        if not 0.3 <= abs(z) <= 1.8:
            continue
        if abs(z) < margin or abs(z - 1) < margin or abs(z.imag) < 0.05:
            continue
        out.append(z)
    return ShapeAssignment(tuple(out))


def random_systems():
    """Seeded random triangulations with n = 2..6 tetrahedra, each with its
    edge classes and exponent matrix."""
    out = []
    for n in range(2, 7):
        t = random_triangulation(n, seed=n)
        edges = compute_edge_classes(t)
        out.append((t, edges, build_exponent_matrix(t, edges)))
    return out


def chain_cover_text(k):
    """The k-fold cyclic cover of fig8_complement (n = 2k, every edge of
    degree 6): base gluing g joins tetrahedron (i, s), numbered 2 s + i, to
    (j, s + phi(g) mod k) with phi = (0, 1, 1, 0)."""
    base = ((0, 0, 1, 0, "0132", 0), (0, 1, 1, 1, "2103", 1),
            (0, 2, 1, 2, "0321", 1), (0, 3, 1, 3, "1023", 0))
    lines = ["tri v1", f"tetrahedra {2 * k}"]
    for s in range(k):
        for t1, f1, t2, f2, perm, phi in base:
            lines.append(f"glue {2 * s + t1} {f1} "
                         f"{2 * ((s + phi) % k) + t2} {f2} {perm}")
    return "\n".join(lines) + "\n"


def psl2_dist(A, B):
    """Distance between 2x2 matrices up to global sign."""
    A = np.asarray(A)
    B = np.asarray(B)
    return min(np.abs(A - B).max(), np.abs(A + B).max())


def conjugate_match(pairs, tol=1e-8):
    """Find C in SL(2,C) with C A C^-1 = +-B simultaneously for all pairs
    (A, B); returns (residual, C) or None.

    Solved as a nullspace problem: C A - s B C = 0 is linear in C for each
    sign choice s.
    """
    best = None
    for signs in itertools.product([1, -1], repeat=len(pairs)):
        rows = []
        for s, (A, B) in zip(signs, pairs):
            rows.append(np.kron(np.eye(2), np.asarray(A).T)
                        - s * np.kron(np.asarray(B), np.eye(2)))
        L = np.vstack(rows)
        _, sv, Vh = np.linalg.svd(L)
        null = [Vh[k].conj() for k in range(4) if sv[k] < tol]
        if not null:
            continue
        # the nullspace may contain singular matrices; search combinations
        candidates = list(null)
        for v1, v2 in itertools.combinations(null, 2):
            candidates.extend((v1 + v2, v1 - v2, v1 + 1j * v2))
        for vec in candidates:
            C = vec.reshape(2, 2)
            det = np.linalg.det(C)
            if abs(det) < 1e-6:
                continue
            C = C / cmath.sqrt(det)
            Cinv = np.linalg.inv(C)
            resid = max(psl2_dist(C @ A @ Cinv, B) for A, B in pairs)
            if best is None or resid < best[0]:
                best = (resid, C)
    return best


@pytest.fixture
def rng():
    return np.random.default_rng(20260810)
