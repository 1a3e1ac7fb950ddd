"""Numerical exploration of the deformation variety and its cone
generalisation: damped Gauss-Newton solves at fixed xi, S^1 family sweeps,
cone-locus sampling, the regular solution, and branched-cover order
bookkeeping.

Every solve runs the one damped Gauss-Newton loop `_damped_gauss_newton`
on a stack of shape vectors, one row per start; a solve supplies only its
residual, its ordered candidate steps and its stopping test, each acting
on such a stack.  `newton_solve`, a batch of one, tries the complex
least-squares step on h(z) - xi and then deterministic kicks;
`cone_locus_sample` runs all its starts as one batch and takes the real
min-norm step on |h(z)| - 1.  `newton_solve` is the one entry for a solve
at fixed xi: `sweep_family` calls it once per theta.  Every solve, sweep,
sample and certificate reads the edge classes and exponent matrix
compiled once per triangulation (`compute_edge_classes`,
`build_exponent_matrix`), and the loops evaluate h and J on raw shape
arrays.

A sweep is predictor-corrector continuation.  Once two points have
converged, each solve starts from the Lagrange extrapolation in theta of
log z through the last three converged points (linear while only two
have): quadratic, so exact where log z is quadratic in theta, as on the
families with z = exp(i theta).  The prediction is the start only when
it is finite, off the guard band and nearer xi(theta) in residual than
the last converged solution, which is the start otherwise.  Where the
solution set at fixed xi has positive dimension, the start decides which
of its points Newton reaches, so a sweep point is one solution of the
family there, not a canonical one.

The step of `newton_solve` is the min-norm least-squares solution of
J x = -F.  J is rank-deficient, and its left null space is known: around
each vertex class the product of the edge holonomies, each raised to the
number of its ends there, is constant (Neumann-Zagier), so the rows of
W / h annihilate J, where W is the cusp relation matrix
(`build_relation_matrix`).  With U = W / h, J J^H + U^H U is invertible and
x = J^H (J J^H + U^H U)^-1 (-F): one dense m-by-m solve, about a sixth of
the time of lstsq's SVD at n = 128.  The step is taken when
n > RELATION_STEP_CUTOFF and it meets the least-squares optimality
condition to 1e-8 (else lstsq's step is).  At or below the cutoff the step
is lstsq's, bit for bit: below n of about 8 lstsq's fixed cost is lower,
and lowering the cutoff from 32 toward 8 waits on a change that shows
which answers it moves.  The normal equations square J's
condition number; at the near-complete solutions the solver meets, it is
below 100 and the two steps agree to about 1e-13.

`SolverConfig` holds the three values callers set: the convergence
tolerance, the iteration limit and the seed of `random_starts`.  The rest
are constants: the guard band around {0, 1} is `gluing.DEGENERACY_GUARD`,
a step is halved at most `MAX_HALVINGS` times, and the unit-circle and
root-of-unity tolerances are the defaults of `xi_from_shapes`,
`degree_one_obstructions` and `order_of_root_of_unity`.
"""
from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import NotConverged, NotUnitModulus
from .geometry import V_TET
from .gluing import (DEGENERACY_GUARD, ConeTarget, ShapeAssignment,
                     all_holonomies, build_exponent_matrix,
                     build_relation_matrix, check_shape_length,
                     check_target_length, evaluate_residual, jacobian)
from .triangulation import Triangulation, compute_edge_classes

REGULAR_SHAPE = complex(0.5, math.sqrt(3.0) / 2.0)
MAX_HALVINGS = 30                   # damping: step halvings per iteration
RELATION_STEP_CUTOFF = 32           # newton_solve: n above which the step
                                    # comes from the cusp relations


@dataclass(frozen=True)
class SolverConfig:
    tol: float = 1e-10              # residual 2-norm for convergence
    max_iterations: int = 100
    seed: int = 0                   # random_starts


@dataclass(frozen=True)
class SolveResult:
    shapes: ShapeAssignment
    residual_norm: float
    iterations: int
    converged: bool
    reason: str = "converged"       # else: degree_one_edge_obstruction |
                                    # degenerate_shape | max_iterations | stalled
    detail: str = ""


def degree_one_obstructions(edges, xi: ConeTarget, tol: float = 1e-8):
    """Degree-one edges whose target is 1: the single slot value would have
    to be a forbidden shape, so the xi-equations have no solution."""
    return [e.index for e in edges
            if e.degree == 1 and abs(xi[e.index] - 1.0) < tol]


def _in_guard(Z) -> np.ndarray:
    """Per row of Z: does some shape lie in the guard band around {0, 1}?"""
    return (np.minimum(np.abs(Z), np.abs(Z - 1.0)) < DEGENERACY_GUARD).any(-1)


def _norms(F) -> np.ndarray:
    """The 2-norm of each row of F, summed as `np.linalg.norm` sums one
    row, so a batch of one takes exactly the decisions of a 1-D loop."""
    return np.sqrt(np.vecdot(F.real, F.real) + np.vecdot(F.imag, F.imag))


def _take_steps(residual, z, steps, r):
    """Move each row of z, in place, by the first of its rows of `steps`
    (an iterable, consumed only as far as needed) that, halved at most
    MAX_HALVINGS times, stays off the guard band around {0, 1} and brings
    its residual norm below r.  Returns the indices of the rows no step
    moved and, for each, whether its full first step enters the band."""
    # rows not moved yet: all, then indices; the truth tests go through
    # lists, which for a few rows cost less than numpy's any and all
    todo, first = slice(None), None
    for step in steps:
        first = step if first is None else first
        lam = 1.0
        for _ in range(MAX_HALVINGS):
            cand = z[todo] + lam * step[todo]
            lam *= 0.5
            ok = ~_in_guard(cand)
            if all(ok.tolist()):
                ok = _norms(residual(cand)) < r[todo]
            elif any(ok.tolist()):
                ok[ok] = _norms(residual(cand[ok])) < r[todo][ok]
            if all(ok.tolist()):
                z[todo] = cand
                return (), ()
            todo = np.arange(len(z))[todo]
            z[todo[ok]] = cand[ok]
            todo = todo[~ok]
    todo = np.arange(len(z))[todo]
    return todo, _in_guard(z[todo] + first[todo])


@np.errstate(over="ignore", invalid="ignore")
def _damped_gauss_newton(residual, directions, done, Z, cfg: SolverConfig):
    """The damped Gauss-Newton loop shared by every solve, on a stack Z of
    shape vectors, one row per start.  Iterates running toward an ideal
    point overflow; NumPy's warnings for that are silenced here, since a
    trial step with a non-finite residual is rejected (`_take_steps`).

    Each iteration evaluates `residual` on the rows still running, and a
    row stops when `done(F, r)` holds for its residual F and residual norm
    r; otherwise it takes one of the steps `directions(Z, F)` yields
    (`_take_steps`).  Stopped rows drop out, and `residual` and
    `directions` are never called on an empty stack.

    Returns (Z, F, iterations, reasons), one entry per row, with reason
    "converged", "max_iterations", or, when no step could be taken,
    "degenerate_shape" (the full first step enters the guard band) or
    "stalled".
    """
    Z = np.array(Z, dtype=complex)
    F_out, iterations, reasons = [None] * len(Z), [None] * len(Z), [None] * len(Z)
    rows, z = np.arange(len(Z)), Z.copy()      # the running rows of Z

    def stop(k, F, it, why):        # k: positions in rows; why: per row
        for i, zi, f, w in zip(rows[k].tolist(), z[k], F[k], why):
            Z[i], F_out[i], iterations[i], reasons[i] = zi, f, it, w

    for it in range(cfg.max_iterations + 1):
        if not rows.size:
            break
        F = residual(z)
        r = _norms(F)
        fin = done(F, r)
        if it == cfg.max_iterations:
            stop(slice(None), F, it,
                 np.where(fin, "converged", "max_iterations").tolist())
            break
        if any(fin.tolist()):
            stop(fin, F, it, itertools.repeat("converged"))
            rows, z, F, r = rows[~fin], z[~fin], F[~fin], r[~fin]
            if not rows.size:
                break
        stuck, near = _take_steps(residual, z, directions(z, F), r)
        if len(stuck):
            stop(stuck, F, it,
                 np.where(near, "degenerate_shape", "stalled").tolist())
            rows, z = np.delete(rows, stuck), np.delete(z, stuck, axis=0)
    return Z, F_out, iterations, reasons


def _least_squares_step(J, b, U=None):
    """The min-norm least-squares solution x of J x = b.

    U, when given, holds rows u with u J = 0 meant to span the left null
    space of J (the cusp relations W / h).  Then J J^H + U^H U is
    invertible, and x = J^H (J J^H + U^H U)^-1 b is one dense m-by-m
    solve.  That x is returned when it meets the least-squares optimality
    condition |J^H (J x - b)| <= 1e-8 |J^H b|; otherwise, and without U,
    x is lstsq's SVD solution.
    """
    if U is not None:
        JH = J.conj().T
        try:
            x = JH @ np.linalg.solve(J @ JH + U.conj().T @ U, b)
        except np.linalg.LinAlgError:       # U misses part of the null space
            pass
        else:
            if (np.linalg.norm(JH @ (J @ x - b))
                    <= 1e-8 * np.linalg.norm(JH @ b)):
                return x
    return np.linalg.lstsq(J, b, rcond=None)[0]


def newton_solve(t: Triangulation, xi: ConeTarget, initial: ShapeAssignment,
                 cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Damped Gauss-Newton least squares on F(z) = h(z) - xi over the
    reduced coordinates (one z per tetrahedron), as a batch of one.

    The m-by-n system is rank-deficient (the cusp relations W / h span the
    left null space of J), so steps are min-norm least-squares solutions:
    above RELATION_STEP_CUTOFF tetrahedra from the relations, at or below
    it from lstsq (`_least_squares_step`).  When the step is tiny or
    cannot be damped into a decrease (a stationary point of |F|^2 away
    from a solution), three deterministic kicks are tried next.  Raises
    IdealGlueError unless `initial` has one shape per tetrahedron and xi
    one target per edge class.
    """
    E = build_exponent_matrix(t)
    check_shape_length(initial, E)
    check_target_length(xi, E)
    obstructed = degree_one_obstructions(compute_edge_classes(t), xi)
    if obstructed:
        names = ", ".join(f"e{j}" for j in obstructed)
        return SolveResult(initial, float("inf"), 0, False,
                           "degree_one_edge_obstruction",
                           f"degree-one edge(s) {names} have xi = 1; the "
                           f"single incident shape parameter would be "
                           f"forbidden, so the system has no solution")
    W = (build_relation_matrix(t) if t.tetra_count > RELATION_STEP_CUTOFF
         else None)
    target = np.array(xi.xi)
    rotation = np.exp(0.7j * (1 + np.arange(t.tetra_count)))

    # the batch is one row: the kernels evaluate it as a plain vector
    def residual(Z):
        return evaluate_residual(Z[0], E, target)[None]

    def directions(Z, F):
        U = None if W is None else W / all_holonomies(Z[0], E)
        step = _least_squares_step(jacobian(Z[0], E), -F[0], U)
        if not np.linalg.norm(step) < 1e-12 * (1.0 + np.linalg.norm(Z[0])):
            yield step[None]
        # near a stationary point of |F|^2 away from a solution the step is
        # tiny or cannot be damped into a decrease: deterministic kicks
        # break the symmetry, re-entering Gauss-Newton after
        kick = 0.05 * (1.0 + np.abs(Z)) * rotation
        yield from (kick, 1j * kick, -kick)

    Z, F, its, reasons = _damped_gauss_newton(
        residual, directions, lambda F, r: r < cfg.tol,
        [initial.z], cfg)
    it, reason = its[0], reasons[0]
    r = float(np.linalg.norm(F[0]))
    detail = {
        "converged": "",
        "degenerate_shape": "iterates pushed into the guard band around "
                            "{0, 1} (ideal point)",
        "stalled": "damping could not reduce the residual",
        "max_iterations": f"residual {r:.3e} after {it} iterations",
    }[reason]
    return SolveResult(ShapeAssignment(Z[0], guard=0.0), r, it,
                       reason == "converged", reason, detail)


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


def _predicted_start(thetas, Z, theta, seed, E, target):
    """The start of a sweep's solve at theta: the Lagrange polynomial
    through the points (thetas[k], log Z[k]), evaluated at theta and
    mapped back by exp, when it is finite, lies off the guard band around
    {0, 1} and has a smaller residual |h(z) - target| than `seed`;
    otherwise `seed`.  The logs are taken relative to the last row, so
    their branch never jumps between nearby rows."""
    if len(set(thetas)) < len(thetas):
        return seed
    w = [math.prod((theta - tj) / (tk - tj) for tj in thetas if tj != tk)
         for tk in thetas]
    last = np.array(Z[-1])
    with np.errstate(all="ignore"):     # a non-finite start is rejected
        z = last * np.exp(np.dot(w, np.log(np.array(Z) / last)))
        if not np.isfinite(z).all() or _in_guard(z):
            return seed
        r = _norms(evaluate_residual(np.array([z, seed.z]), E, target))
    return ShapeAssignment(z, guard=0.0) if r[0] < r[1] else seed


def sweep_family(t: Triangulation, xi_of_theta, theta_grid,
                 cfg: SolverConfig = SolverConfig(),
                 initial: ShapeAssignment | None = None) -> list:
    """Continuation along a parameterized family of cone targets, one
    `newton_solve` per theta.

    The first solve starts from `initial`, the next from the first
    converged solution.  Once two or more points have converged, each
    solve starts from a prediction: the Lagrange extrapolation in theta
    of log z through the last three converged points (quadratic; linear
    while only two have converged), mapped back by exp.  The prediction
    is taken only when it is finite, lies off the guard band around
    {0, 1}, and its residual |h(z) - xi(theta)| is smaller than that of
    the last converged solution, which is the start otherwise.  Failures
    are recorded and the sweep continues from the converged points before
    them.

    Where the solution set at fixed xi has positive dimension, the start
    decides which of its points the solve reaches: a sweep point is one
    solution of the family there, not a canonical one.  Raises
    IdealGlueError unless `initial` has one shape per tetrahedron and each
    target one entry per edge class.
    """
    E = build_exponent_matrix(t)
    if initial is None:
        initial = ShapeAssignment((REGULAR_SHAPE,) * t.tetra_count)
    check_shape_length(initial, E)
    seed, thetas, past = initial, [], []    # the last converged points
    out = []
    for theta in theta_grid:
        xi = xi_of_theta(theta)
        if not isinstance(xi, ConeTarget):
            xi = ConeTarget(xi)
        check_target_length(xi, E)
        theta, start = float(theta), seed
        if len(past) > 1:
            start = _predicted_start(thetas, past, theta, seed, E,
                                     np.array(xi.xi))
        res = newton_solve(t, xi, start, cfg)
        out.append(SweepPoint(theta, res))
        if res.converged:
            seed = res.shapes
            thetas, past = thetas[-2:] + [theta], past[-2:] + [seed.z]
    return out


def random_starts(t: Triangulation, count: int, cfg: SolverConfig = SolverConfig()):
    """Random initial shape vectors: uniform on the upper-half disk of
    radius 2, rejecting the guard band around {0, 1} (geometric solutions
    have positive imaginary parts).

    The (Re, Im) pairs are drawn in bulk but in the stream order of one
    pair per shape, and kept in that order, so the starts depend on the
    seed alone."""
    n = t.tetra_count
    need = max(count, 0) * n
    rng = np.random.default_rng(cfg.seed)
    z = np.empty(0, dtype=complex)
    while len(z) < need:
        w = rng.uniform((-2.0, 0.0), (2.0, 2.0), (need + need // 3 + 16, 2))
        w = w.view(complex)[:, 0]
        ok = ((np.abs(w) <= 2) & (w.imag >= 1e-3)
              & (np.minimum(np.abs(w), np.abs(w - 1)) >= 10 * DEGENERACY_GUARD))
        z = np.concatenate([z, w[ok]])
    return [ShapeAssignment(row) for row in z[:need].reshape(-1, n)]


def cone_locus_sample(t: Triangulation, starts, cfg: SolverConfig = SolverConfig()):
    """Project random starts onto the cone-deformation variety.

    Gauss-Newton on the real residuals |h(e)| - 1 over (Re z, Im z), all
    starts in one batch; points whose holonomy moduli all land within 1e-8
    of 1 are returned with their cone target, others are dropped.

    Returns (samples, dropped_count) where samples is a list of
    (ShapeAssignment, ConeTarget).  Raises IdealGlueError unless every
    start has one shape per tetrahedron.
    """
    E = build_exponent_matrix(t)
    n = t.tetra_count
    starts = list(starts)
    for start in starts:
        check_shape_length(start, E)

    def residual(Z):
        return np.abs(all_holonomies(Z, E)) - 1.0

    def directions(Z, F):
        h = all_holonomies(Z, E)
        # d|h| = Re(conj(h)/|h| * h'(z) dz): a real m x 2n system per row,
        # solved for its min-norm step with lstsq's singular-value cutoff
        W = (np.conj(h) / np.abs(h))[..., None] * jacobian(Z, E)
        A = np.concatenate([W.real, -W.imag], axis=-1)
        rcond = np.finfo(float).eps * max(A.shape[-2:])
        step = (np.linalg.pinv(A, rcond=rcond) @ -F[..., None])[..., 0]
        return [step[:, :n] + 1j * step[:, n:]]

    def done(F, r):     # xi_from_shapes's |h(e)| = 1 test at its default tol
        return np.max(np.abs(F), axis=-1) < 1e-8

    Z0 = np.array([start.z for start in starts], dtype=complex).reshape(-1, n)
    Z, _, _, reasons = _damped_gauss_newton(residual, directions, done, Z0, cfg)
    Z = Z[[reason == "converged" for reason in reasons]]
    # `done` passed on these rows' holonomies, which the stacked kernel
    # gives bit for bit: every |h(e)| is within 1e-8 of 1, so each row is
    # kept with the target xi_from_shapes would give it
    samples = [(ShapeAssignment(z, guard=0.0), ConeTarget(h, tol=1e-7))
               for z, h in zip(Z, all_holonomies(Z, E))]
    return samples, len(Z0) - len(samples)


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


def branched_cover_report(edges, xi: ConeTarget) -> CoverDegreeReport:
    """The order of each edge's target and its lifted degree; the order of
    each distinct target value is found once."""
    entries, orders = [], {}
    for e in edges:
        x = complex(xi[e.index])
        o = orders.get(x)
        if o is None:
            o = orders[x] = order_of_root_of_unity(x)
        lifted = math.inf if math.isinf(o) else o * e.degree
        entries.append(EdgeCoverEntry(e.index, x, o, e.degree, lifted))
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
    Raises NotConverged on a failed solve, and IdealGlueError unless the
    solve has one shape per tetrahedron and xi one target per edge class.
    """
    edges, E = compute_edge_classes(t), build_exponent_matrix(t)
    check_shape_length(result.shapes, E)
    check_target_length(xi, E)
    if not result.converged:
        raise NotConverged(result.reason or "solve did not converge")
    # verify independently of the solver's bookkeeping
    res = float(np.linalg.norm(evaluate_residual(result.shapes, E, xi)))
    if res >= cfg.tol * 10:
        raise NotConverged(f"re-evaluated residual {res:.3e} too large")
    cover = branched_cover_report(edges, xi)
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
