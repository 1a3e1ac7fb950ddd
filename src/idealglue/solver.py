"""Numerical exploration of the deformation variety and its cone
generalisation: damped Gauss-Newton solves at fixed xi, S^1 family sweeps,
cone-locus sampling, the regular solution, and branched-cover order
bookkeeping.

Every solve runs the one damped Gauss-Newton loop `_damped_gauss_newton`;
a solve supplies only its residual, its ordered candidate steps and its
stopping test.  `newton_solve` tries the complex least-squares step on
h(z) - xi and then deterministic kicks; `cone_locus_sample` tries the real
least-squares step on |h(z)| - 1.  Edge classes and the exponent matrix
are built once per call (once per sweep for `sweep_family`).
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, NotUnitModulus
from .geometry import V_TET
from .gluing import (ConeTarget, ShapeAssignment, all_holonomies,
                     build_exponent_matrix, evaluate_residual, jacobian,
                     xi_from_shapes)
from .triangulation import Triangulation, compute_edge_classes

REGULAR_SHAPE = complex(0.5, math.sqrt(3.0) / 2.0)


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10              # residual 2-norm for convergence
    max_iterations: int = 100
    max_halvings: int = 30          # damping: step halvings per iteration
    guard: float = 1e-8             # keep-out band around {0, 1}
    unit_tol: float = 1e-8          # |.|=1 test for xi and cone loci
    root_tol: float = 1e-9          # root-of-unity detection
    q_max: int = 10_000             # highest order searched
    seed: int = 0


@dataclass(frozen=True)
class SolveResult:
    shapes: ShapeAssignment
    residual_norm: float
    iterations: int
    converged: bool
    reason: str = "converged"       # else: degree_one_edge_obstruction |
                                    # degenerate_shape | max_iterations | stalled
    detail: str = ""


def _system(t: Triangulation):
    edges = compute_edge_classes(t)
    return edges, build_exponent_matrix(t, edges)


def degree_one_obstructions(edges, xi: ConeTarget, tol: float = 1e-8):
    """Degree-one edges whose target is 1: the single slot value would have
    to be a forbidden shape, so the xi-equations have no solution."""
    return [e.index for e in edges
            if e.degree == 1 and abs(xi[e.index] - 1.0) < tol]


def _in_guard(z, guard: float) -> bool:
    return any(min(abs(w), abs(w - 1.0)) < guard for w in z)


def _damped_gauss_newton(residual, directions, done, z, cfg: SolverConfig):
    """The damped Gauss-Newton loop shared by every solve.

    Each iteration evaluates `residual` at the current point and stops when
    `done(F)`; otherwise it tries the steps in the list `directions(z, F)`
    in order, halving each until the residual norm decreases and the
    iterate stays off the guard band around {0, 1}.  The first step that
    does so is taken.  Returns (z, F, iterations, reason) with reason
    "converged", "max_iterations", or, when no step could be taken,
    "degenerate_shape" (the full first step enters the guard band) or
    "stalled".
    """
    for it in range(cfg.max_iterations):
        F = residual(z)
        if done(F):
            return z, F, it, "converged"
        r = np.linalg.norm(F)
        steps = directions(z, F)
        for step in steps:
            lam = 1.0
            for _ in range(cfg.max_halvings):
                cand = z + lam * step
                lam *= 0.5
                if (not _in_guard(cand, cfg.guard)
                        and np.linalg.norm(residual(cand)) < r):
                    break
            else:
                continue
            z = cand
            break
        else:
            near = _in_guard(z + steps[0], cfg.guard)
            return z, F, it, "degenerate_shape" if near else "stalled"
    F = residual(z)
    return (z, F, cfg.max_iterations,
            "converged" if done(F) else "max_iterations")


def _newton(edges, E, xi: ConeTarget, initial: ShapeAssignment,
            cfg: SolverConfig) -> SolveResult:
    obstructed = degree_one_obstructions(edges, xi, cfg.unit_tol)
    if obstructed:
        names = ", ".join(f"e{j}" for j in obstructed)
        return SolveResult(initial, float("inf"), 0, False,
                           "degree_one_edge_obstruction",
                           f"degree-one edge(s) {names} have xi = 1; the "
                           f"single incident shape parameter would be "
                           f"forbidden, so the system has no solution")

    def residual(z):
        return evaluate_residual(ShapeAssignment(z, guard=0.0), E, xi)

    def directions(z, F):
        J = jacobian(ShapeAssignment(z, guard=0.0), E)
        step, *_ = np.linalg.lstsq(J, -F, rcond=None)
        # near a stationary point of |F|^2 away from a solution the step is
        # tiny or cannot be damped into a decrease: deterministic kicks
        # break the symmetry, re-entering Gauss-Newton after
        kick = 0.05 * (1.0 + np.abs(z)) * np.exp(0.7j * (1 + np.arange(len(z))))
        kicks = [kick, 1j * kick, -kick]
        if np.linalg.norm(step) < 1e-12 * (1.0 + np.linalg.norm(z)):
            return kicks
        return [step] + kicks

    z, F, it, reason = _damped_gauss_newton(
        residual, directions, lambda F: np.linalg.norm(F) < cfg.tol,
        np.array(initial.z, dtype=complex), cfg)
    r = float(np.linalg.norm(F))
    detail = {
        "converged": "",
        "degenerate_shape": "iterates pushed into the guard band around "
                            "{0, 1} (ideal point)",
        "stalled": "damping could not reduce the residual",
        "max_iterations": f"residual {r:.3e} after {it} iterations",
    }[reason]
    return SolveResult(ShapeAssignment(z, guard=0.0), r, it,
                       reason == "converged", reason, detail)


def newton_solve(t: Triangulation, xi: ConeTarget, initial: ShapeAssignment,
                 cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Damped Gauss-Newton least squares on F(z) = h(z) - xi over the
    reduced coordinates (one z per tetrahedron).

    The m-by-n system is rank-deficient (the product of all edge holonomies
    is identically 1), so steps are least-squares solutions.  When the step
    is tiny or cannot be damped into a decrease (a stationary point of
    |F|^2 away from a solution), three deterministic kicks are tried next.
    """
    edges, E = _system(t)
    return _newton(edges, E, xi, initial, cfg)


def regular_solution(t: Triangulation):
    """Assign every tetrahedron the regular ideal shape (1 + i sqrt 3)/2.

    Every edge holonomy then lies on the unit circle with argument
    deg(e) pi/3, so (Z, xi) lies on the cone-deformation variety, and the
    volume is n times the regular ideal tetrahedron volume.
    """
    Z = ShapeAssignment((REGULAR_SHAPE,) * t.tetra_count)
    xi = ConeTarget(tuple(cmath.exp(1j * math.pi * e.degree / 3.0)
                          for e in compute_edge_classes(t)))
    return Z, xi, t.tetra_count * V_TET


@dataclass(frozen=True)
class SweepPoint:
    theta: float
    result: SolveResult


def sweep_family(t: Triangulation, xi_of_theta, theta_grid,
                 cfg: SolverConfig = SolverConfig(),
                 initial: ShapeAssignment | None = None) -> list:
    """Continuation along a parameterized family of cone targets.

    Each solve is seeded from the last converged solution; failures are
    recorded and the sweep continues from the surviving seed.
    """
    if initial is None:
        initial = ShapeAssignment((REGULAR_SHAPE,) * t.tetra_count)
    edges, E = _system(t)
    seed = initial
    out = []
    for theta in theta_grid:
        xi = xi_of_theta(theta)
        if not isinstance(xi, ConeTarget):
            xi = ConeTarget(xi)
        res = _newton(edges, E, xi, seed, cfg)
        out.append(SweepPoint(float(theta), res))
        if res.converged:
            seed = res.shapes
    return out


def random_starts(t: Triangulation, count: int, cfg: SolverConfig = SolverConfig()):
    """Random initial shape vectors: uniform on the upper-half disk of
    radius 2, rejecting the guard band around {0, 1} (geometric solutions
    have positive imaginary parts)."""
    rng = np.random.default_rng(cfg.seed)
    starts = []
    while len(starts) < count:
        z = []
        while len(z) < t.tetra_count:
            w = complex(rng.uniform(-2, 2), rng.uniform(0, 2))
            if abs(w) > 2 or w.imag < 1e-3:
                continue
            if min(abs(w), abs(w - 1)) < 10 * cfg.guard:
                continue
            z.append(w)
        starts.append(ShapeAssignment(tuple(z)))
    return starts


def cone_locus_sample(t: Triangulation, starts, cfg: SolverConfig = SolverConfig()):
    """Project random starts onto the cone-deformation variety.

    Gauss-Newton on the real residuals |h(e)| - 1 over (Re z, Im z); points
    whose holonomy moduli all land within unit_tol of 1 are returned with
    their cone target, others are dropped.

    Returns (samples, dropped_count) where samples is a list of
    (ShapeAssignment, ConeTarget).
    """
    _, E = _system(t)
    n = t.tetra_count

    def residual(z):
        return np.abs(all_holonomies(ShapeAssignment(z, guard=0.0), E)) - 1.0

    def directions(z, F):
        Z = ShapeAssignment(z, guard=0.0)
        h = all_holonomies(Z, E)
        # d|h| = Re(conj(h)/|h| * h'(z) dz): real m x 2n system
        W = (np.conj(h) / np.abs(h))[:, None] * jacobian(Z, E)
        step, *_ = np.linalg.lstsq(np.concatenate([W.real, -W.imag], axis=1),
                                   -F, rcond=None)
        return [step[:n] + 1j * step[n:]]

    def done(F):
        return np.max(np.abs(F)) < cfg.unit_tol

    samples, dropped = [], 0
    for start in starts:
        z, _, _, reason = _damped_gauss_newton(
            residual, directions, done, np.array(start.z, dtype=complex), cfg)
        if reason != "converged":
            dropped += 1
            continue
        Z = ShapeAssignment(z, guard=0.0)
        xi = xi_from_shapes(Z, E, tol=cfg.unit_tol)
        if isinstance(xi, ConeTarget):
            samples.append((Z, xi))
        else:
            dropped += 1
    return samples, dropped


def order_of_root_of_unity(xi: complex, tol: float = 1e-9,
                           q_max: int = 10_000):
    """Smallest q <= q_max with |xi^q - 1| < tol, else math.inf.

    Requires |xi| = 1 within tol; powers are taken on the circle through the
    argument, so no error accumulates for large q.
    """
    xi = complex(xi)
    if abs(abs(xi) - 1.0) >= tol:
        raise NotUnitModulus(f"|xi| = {abs(xi)}")
    angle = cmath.phase(xi)
    for q in range(1, q_max + 1):
        if 2.0 * abs(math.sin(0.5 * q * angle)) < tol:
            return q
    return math.inf


@dataclass(frozen=True)
class EdgeCoverEntry:
    edge_index: int
    xi: complex
    order: float            # int-valued or math.inf
    degree: int
    lifted_degree: float    # order * degree when finite, else math.inf


@dataclass(frozen=True)
class CoverDegreeReport:
    """Edge-degree bookkeeping for the branched cover determined by the
    multiplicative orders of the cone targets."""

    entries: tuple
    all_orders_finite: bool
    trivial_cover: bool     # all orders 1: the cover is the manifold itself

    def orders(self):
        return tuple(e.order for e in self.entries)

    def lifted_degrees(self):
        return tuple(e.lifted_degree for e in self.entries)


def branched_cover_report(edges, xi: ConeTarget,
                          cfg: SolverConfig = SolverConfig()) -> CoverDegreeReport:
    entries = []
    for e in edges:
        o = order_of_root_of_unity(xi[e.index], cfg.root_tol, cfg.q_max)
        lifted = math.inf if math.isinf(o) else o * e.degree
        entries.append(EdgeCoverEntry(e.index, complex(xi[e.index]), o,
                                      e.degree, lifted))
    finite = all(not math.isinf(en.order) for en in entries)
    trivial = finite and all(en.order == 1 for en in entries)
    return CoverDegreeReport(tuple(entries), finite, trivial)


@dataclass(frozen=True)
class Certificate:
    """Record of the essential-edges conclusion drawn from a verified
    solution of the xi-hyperbolic gluing equations."""

    kind: str               # "manifold" (xi = 1) or "branched_cover"
    statement: str
    residual_norm: float
    shapes: ShapeAssignment
    xi: ConeTarget
    cover: CoverDegreeReport


def essential_edge_certificate(t: Triangulation, result: SolveResult,
                               xi: ConeTarget,
                               cfg: SolverConfig = SolverConfig()) -> Certificate:
    """Certify that the edges of the associated (branched-cover)
    triangulation are essential, given a converged solve.

    With xi = (1, ..., 1) the conclusion applies to the triangulation itself;
    otherwise to the branched cover with branch index o(xi_e) at edge e.
    Raises NotConverged on a failed solve.
    """
    if not result.converged:
        raise NotConverged(result.reason or "solve did not converge")
    edges, E = _system(t)
    # verify independently of the solver's bookkeeping
    res = float(np.linalg.norm(evaluate_residual(result.shapes, E, xi)))
    if res >= cfg.tol * 10:
        raise NotConverged(f"re-evaluated residual {res:.3e} too large")
    cover = branched_cover_report(edges, xi, cfg)
    if cover.trivial_cover:
        kind = "manifold"
        statement = ("solution of the hyperbolic gluing equations found: "
                     "all edges of the triangulation are essential")
    else:
        kind = "branched_cover"
        orders = ", ".join(f"e{e.edge_index}:o={e.order}" for e in cover.entries)
        statement = ("solution of the xi-hyperbolic gluing equations found: "
                     "all edges of the induced ideal triangulation of the "
                     f"branched cover are essential (branch orders {orders})")
        if not cover.all_orders_finite:
            statement += ("; edges of infinite order lift to non-manifold "
                          "points of the cover")
    return Certificate(kind, statement, res, result.shapes, xi, cover)
