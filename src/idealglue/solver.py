"""Numerical exploration of the deformation variety and its cone
generalisation: damped Gauss-Newton solves at fixed xi, S^1 family sweeps,
cone-locus sampling, the regular solution, and branched-cover order
bookkeeping.

Every solve runs the one damped Gauss-Newton loop `_damped_gauss_newton`
on a stack of shape vectors, one row per start, each row with its own
iteration limit, and every row converges by one rule: its residual
2-norm is below cfg.tol.  A solve supplies only its residual and its
ordered candidate steps, each acting on such a stack and told the batch
indices of the rows it acts on, so each row can have its own target.
Each point's holonomies h are evaluated once, by the call that first
meets the point: the sweep's predictor for a block's starts
(`_block_starts`), the line search for every point it accepts
(`_take_steps`), and the loop's residual only at starts whose h it was
not given.  The residual (which, given h, only forms F from it), the
step and the result rows all read that h.  `_newton_rows` solves
h(z) = xi_k from each row's start, trying the complex least-squares
step on h(z) - xi_k and then deterministic kicks, every row bit for bit
as it would be solved alone; `newton_solve` is a batch of one of it,
and `sweep_family` corrects blocks of grid points as one stack.
`cone_locus_sample` runs all its starts as one batch and takes the real
min-norm step on log|h(z)|, whose rows converge at |log|h|| < tol, so
every kept |h(e)| is within about tol of 1.  Every solve, sweep,
sample and certificate reads the exponent matrix compiled once per
triangulation (`build_exponent_matrix`), edge degrees included, and the
loops evaluate h and J on raw shape arrays.  The line search
(`_take_steps`) makes one residual call for the full steps of all rows
and one for all further halvings of the rows they leave, and the result
rows are built from the stack (`ShapeAssignment.rows`).

A sweep is block predictor-corrector continuation with step-length
control (Allgower-Georg, Introduction to Numerical Continuation Methods,
SIAM 2003, ch. 6).  Once two points have converged, the next block of
grid points is predicted at once by the Lagrange extrapolation in theta
of log z through the last three converged points (linear while only two
have): quadratic, so exact where log z is quadratic in theta, as on the
families with z = exp(i theta).  A prediction is the start only when it
is finite, off the guard band and nearer xi(theta) in residual than the
last converged solution, which is the start otherwise.  The block is
then corrected as one stack, its first row with up to cfg.max_iterations
iterations and the others with up to `ACCEPT_ITERATIONS`, and its rows
are accepted in grid order: the first always, an obstructed row where it
stands, and each later row only while it converged.  The first rejected
row and the rows after it are predicted again, from the updated history,
in the next block.  The first block holds `BLOCK_ROWS` points; a block
whose rows were all accepted makes the next four times as long, any
other makes it as long as the rows it accepted, and no block's stacked
normal matrices pass about 4 MB.  Where the solution set at fixed xi has
positive dimension, the start decides which of its points Newton
reaches, so a sweep point is one solution of the family there, not a
canonical one.

Both solves take one step, the min-norm least-squares solution of
A x = b for each row of a stack (`_least_squares_step`): A = J and
U = W / h for `newton_solve`, and for the sampler's real system
log|h| = 0 its real m-by-2n Jacobian A = [Re D, -Im D], with
D = d log h / dz, and U = W.  W is the cusp relation matrix with its rows
scaled to unit norm (`E.relations`, which keeps M well conditioned):
around each vertex class the sum of the edges' log h, each counted once
per end there, is constant (Neumann-Zagier), so the rows of U span the
left null space of A, and x = A^H (A A^H + U^H U)^-1 b is one
dense m-by-m solve with no singular-value cutoff for rounding noise to
pass.  The normal equations square A's condition number; at the
near-complete solutions the solver meets, it is below 100 and the step
agrees with lstsq's to about 1e-13.  The step reads J and D as their
values on the exponent pairs (`gluing.jacobian`, `log_jacobian`):
A^H y = D^H y, A x = D x or Re(D x), and M = J J^H + U^H U or, for the
sampler, Re(D D^H) + U^T U = A A^T, at most 36 n products where the
dense product costs O(m^2 n) (`gluing.pair_rmatvec`, `pair_matvec`,
`normal_matrix`).  Only a row that falls back to lstsq builds its
dense A.  Each solve builds its step plan (`_step_plan`) when it starts,
with its rows: one (rows, m, m) workspace for its M and the flat index
that `normal_matrix` adds the pair products into it through
(`gluing.normal_index`).  Rows only drop out of a solve, so every step
writes U^H U into the workspace's prefix of the rows still running (the
sampler copies one W^T W formed per call) and has `normal_matrix` add
the pair products to it in place through the same prefix of the index.
The plan is freed when the solve returns.  Each step forms D^H's values
once (`gluing.pair_adjoint`) for x = D^H y and the check's
D^H [A x - b, b].

`SolverConfig` holds the three values callers set: the convergence
tolerance, the iteration limit and the seed of `random_starts`.  The rest
are constants: the guard band around {0, 1} is `gluing.DEGENERACY_GUARD`,
a step is scaled by 2^-j for j < `MAX_HALVINGS`, a degree-one obstruction
is a target within 1e-8 of 1, every |x| = 1 test is within
`gluing.UNIT_TOL`, and the order of a target is the least q <= `Q_MAX`
with |xi^q - 1| < `ROOT_TOL`, found among the denominators of the
continued-fraction convergents of its argument over 2 pi.
"""
from __future__ import annotations

import cmath
import contextlib
import itertools
import math
import operator
from numbers import Real
from typing import NamedTuple

import numpy as np

from .errors import IdealGlueError, NotConverged, NotUnitModulus, check_count
from .geometry import V_TET
from .gluing import (UNIT_TOL, ConeTarget, ExponentMatrix, FrozenSlots,
                     ShapeAssignment, all_holonomies, build_exponent_matrix,
                     check_shape_length, check_target_length,
                     evaluate_residual, in_guard_band, jacobian, log_jacobian,
                     normal_index, normal_matrix, pair_adjoint, pair_matvec,
                     pair_rmatvec)
from .triangulation import Triangulation

REGULAR_SHAPE = complex(0.5, math.sqrt(3.0) / 2.0)
MAX_HALVINGS = 30                   # damping: step scales 2^-j, j < 30
BLOCK_ROWS = 16                     # sweep: grid points in its first block
ACCEPT_ITERATIONS = 3               # sweep: iteration limit of later rows
STACK_ENTRIES = 2**18               # entries (4 MB) per stacked array
ROOT_TOL = 1e-9                     # order of xi: least q <= Q_MAX with
Q_MAX = 10_000                      # |xi^q - 1| < ROOT_TOL, else infinite
_SCALES = np.ldexp(1.0, -np.arange(MAX_HALVINGS))[:, None]  # 2^-j, exact


class SolverConfig(FrozenSlots):
    """A solve's settings: `tol`, the residual 2-norm for convergence, a
    finite real > 0; `max_iterations`, an int >= 0; and `seed`, the
    `random_starts` seed, an int >= 0.  The ints may be of any integer
    type (`operator.index`) and are kept as ints; a bool is not one."""

    __slots__ = ("tol", "max_iterations", "seed")

    def __init__(self, tol: float = 1e-10, max_iterations: int = 100,
                 seed: int = 0):
        if (isinstance(tol, bool) or not isinstance(tol, Real)
                or not (math.isfinite(tol) and tol > 0)):
            raise IdealGlueError(f"tol must be a real > 0, got {tol!r}")
        object.__setattr__(self, "tol", tol)
        object.__setattr__(self, "max_iterations",
                           check_count("max_iterations", max_iterations))
        object.__setattr__(self, "seed", check_count("seed", seed))


class SolveResult(NamedTuple):
    shapes: ShapeAssignment
    residual_norm: float
    iterations: int
    converged: bool
    reason: str = "converged"       # else: degree_one_edge_obstruction |
                                    # degenerate_shape | max_iterations | stalled
    detail: str = ""


def _norms(F) -> np.ndarray:
    """The 2-norm of each row of a (k, m) stack F, summed with BLAS's dot
    as `np.linalg.norm` sums one row."""
    return np.sqrt(np.vecdot(F.real, F.real) + np.vecdot(F.imag, F.imag))


def _take_steps(residual, z, h, steps, r, rows):
    """Move each row of z, in place, by the first of its rows of `steps`
    (an iterable, consumed only as far as needed) that stays off the guard
    band around {0, 1} and brings its residual norm below r when scaled by
    some lam = 2^-j, j < MAX_HALVINGS; the row takes the largest such lam.
    The full steps are one residual call, and the rows left try all further
    lam at once, in stacks of at most STACK_ENTRIES shapes.  `residual` is
    given the batch indices, out of `rows`, of the rows it evaluates, and
    returns (F, h); the search reads F, and writes the h and the residual
    norm of the point each row accepts into that row of h and r, in place,
    as it writes the point.  Every candidate is evaluated, in one residual
    call per pass, and one in the band is rejected whatever its residual.
    Returns the indices of the rows no step moved, whose rows of z, h and
    r are left as they were, and, for each, whether its full first step
    enters the band."""
    # rows not moved yet: all, then indices; the truth tests go through
    # lists, which for a few rows cost less than numpy's any and all
    todo, first, n = slice(None), None, z.shape[-1]
    for step in steps:
        first = step if first is None else first
        j = 0
        while j < MAX_HALVINGS:
            k = 1 if j == 0 else min(MAX_HALVINGS - j,
                                     max(1, STACK_ENTRIES // (len(todo) * n)))
            # row i k + l of flat is row i's candidate at lam = 2^-(j + l);
            # the full step, lam = 1, is taken unscaled
            cand = ((z[todo] + step[todo])[:, None] if j == 0 else
                    z[todo, None] + _SCALES[j:j + k] * step[todo, None])
            flat, at, bound = cand.reshape(-1, n), rows[todo], r[todo]
            if k > 1:
                at, bound = np.repeat(at, k), np.repeat(bound, k)
            F, H = residual(flat, at)
            norm = _norms(F)
            ok = (norm < bound) & ~in_guard_band(flat)
            if all(ok.tolist()):        # each row takes its first candidate
                z[todo], h[todo], r[todo] = cand[:, 0], H[::k], norm[::k]
                return (), ()
            ok, todo = ok.reshape(-1, k), np.arange(len(z))[todo]
            hit = ok.any(-1)
            lam = ok[hit].argmax(-1)
            z[todo[hit]] = cand[hit, lam]
            h[todo[hit]] = H.reshape(len(cand), k, -1)[hit, lam]
            r[todo[hit]] = norm.reshape(len(cand), k)[hit, lam]
            todo = todo[~hit]
            if not todo.size:
                return (), ()
            j += k
    return todo, in_guard_band(z[todo] + first[todo])


@np.errstate(divide="ignore", over="ignore", invalid="ignore")
def _damped_gauss_newton(residual, directions, Z, cfg: SolverConfig,
                         limit=None, H0=None):
    """The damped Gauss-Newton loop shared by every solve, on a stack Z of
    shape vectors, one row per start.  NumPy's divide, overflow and
    invalid warnings are silenced here: the line search evaluates every
    candidate, also one at 0 or 1, where h divides by zero, and iterates
    running toward an ideal point overflow; such a candidate is in the
    guard band or has a non-finite residual, and is rejected
    (`_take_steps`).

    `residual(Z, rows, h=None)` returns (F, h): the residual and the
    holonomies it was computed from, one row per row of Z; given h, the
    holonomies at Z, it computes F from them and returns that h.  Each
    point's h is computed once, where it is first evaluated: `H0`, when
    given, is the h of the starts, and every later point is a step the
    line search accepted, whose h and residual norm it hands on
    (`_take_steps`).  So each iteration calls `residual(Z, rows, h)` on the
    rows still running with their known h, and with h = None only at the
    starts when H0 is None; it takes the norm of F only at the starts.
    A row converges when its residual 2-norm is below cfg.tol, and stops
    then or at its iteration limit (`limit[k]` for row k, else
    cfg.max_iterations); otherwise it takes one of the steps
    `directions(Z, F, h, rows)` yields (`_take_steps`), given the current
    point's h.  Both callbacks are given the batch indices `rows` of the
    rows they act on, the residual in the line search too, so a solve can
    give each row its own target.  Stopped rows drop out, and `residual`
    and `directions` are never called on an empty stack.

    Returns (Z, r, h, iterations, reasons), one entry per row (of h, one
    row of an array): its last point, the residual norm and holonomies
    there, and its reason "converged", "max_iterations" (at the row's
    limit), or, when no step could be taken, "degenerate_shape" (the full
    first step enters the guard band) or "stalled".  Every row of Z is its
    start or a step `_take_steps` accepted, so it is finite and off the
    guard band when its start is.
    """
    Z = np.array(Z, dtype=complex)
    r_out, iterations = np.empty(len(Z)), np.empty(len(Z), dtype=int)
    h_out, why = None, np.empty(len(Z), dtype=int)     # why: into `names`
    names = ("max_iterations", "converged", "stalled", "degenerate_shape")
    rows, z = np.arange(len(Z)), Z.copy()      # the running rows of Z
    h = None if H0 is None else np.array(H0, dtype=complex)
    # the running rows' iteration limits
    limit = (np.full(len(Z), cfg.max_iterations) if limit is None
             else np.array(limit))

    def stop(k, r, h, it, reason):  # k: positions in rows; reason: per row
        i = rows[k]
        Z[i], r_out[i], h_out[i], iterations[i], why[i] = (
            z[k], r[k], h[k], it, reason)

    r = None    # the running rows' residual norms; the search hands them on
    for it in itertools.count():
        if not rows.size:
            break
        F, h = residual(z, rows, h)
        if r is None:
            r, h_out = _norms(F), np.empty_like(h)
        fin = r < cfg.tol
        out = fin | (limit == it)
        if any(out.tolist()):
            stop(out, r, h, it, fin[out])
            keep = ~out
            rows, z, F, h, r, limit = (rows[keep], z[keep], F[keep],
                                       h[keep], r[keep], limit[keep])
            if not rows.size:
                break
        stuck, near = _take_steps(residual, z, h, directions(z, F, h, rows),
                                  r, rows)
        if len(stuck):
            stop(stuck, r, h, it, 2 + near)
            rows, z, h, r, limit = (
                np.delete(rows, stuck), np.delete(z, stuck, axis=0),
                np.delete(h, stuck, axis=0), np.delete(r, stuck),
                np.delete(limit, stuck))
    return (Z, r_out.tolist(), h_out, iterations.tolist(),
            [names[k] for k in why.tolist()])


def _step_plan(E, count: int, dtype) -> tuple:
    """A solve's step plan, built when the solve starts, for its `count`
    rows: the (count, m, m) workspace that every step forms its
    normal matrices in, and the workspace's `gluing.normal_index`.  Rows
    only drop out of a solve, so a step on k rows forms its matrices in
    the workspace's first k, which the index's prefix addresses."""
    m = E.edge_count
    return np.empty((count, m, m), dtype), normal_index(E, count)


def _least_squares_step(V, E, b, M, index):
    """The min-norm least-squares solution x[k] of A[k] x = b[k] for each
    row k of a stack, where the rows of U[k] span the left null space of
    A[k]: x = A^H M^-1 b for M = A A^H + U^H U (`gluing.normal_matrix`),
    one dense m-by-m solve per row.  M holds U^H U on entry, written by
    the caller into the solve's workspace, and the step adds A A^H to it
    in place through `index`, the workspace's `gluing.normal_index` (see
    `_step_plan`).  A is D, given by its values V on E's pairs, or for a
    real M (a real U) the real [Re D, -Im D], whose x is returned as
    x[:n] + i x[n:]: then A^H y = D^H y, A x = Re(D x), and both products
    with A^H read D^H's values, formed once (`gluing.pair_adjoint`).  A
    row whose x
    misses the optimality condition |A^H (A x - b)| <= 1e-8 |A^H b|, or
    whose M is singular, takes lstsq's step on its dense A; each row's
    step is that of the row alone, bit for bit."""
    M, y = normal_matrix(V, E, M, index), b[..., None]
    real = M.dtype.kind != "c"
    try:
        y = np.linalg.solve(M, y)
    except np.linalg.LinAlgError:
        # U misses part of some row's null space: solve the rows apart,
        # leaving nan (so lstsq's step) where a row's M is singular
        y = np.full(y.shape, np.nan, np.result_type(M, y))
        for k in range(len(M)):
            with contextlib.suppress(np.linalg.LinAlgError):
                y[k] = np.linalg.solve(M[k], b[k, :, None])
    Vh = pair_adjoint(V, E)
    x = pair_rmatvec(Vh, E, y[..., 0])
    Ax = pair_matvec(V, E, x)
    g = pair_rmatvec(Vh, E, np.array([(Ax.real if real else Ax) - b, b]))
    g = np.vecdot(g, g).real            # |A^H (A x - b)|^2, |A^H b|^2
    for k, ok in enumerate((g[0] <= 1e-16 * g[1]).tolist()):
        if not ok:                      # also when g is nan
            D, n = E.dense(V[k]), E.tet_count
            A = np.concatenate([D.real, -D.imag], axis=-1) if real else D
            step = np.linalg.lstsq(A, b[k], rcond=None)[0]
            x[k] = step[:n] + 1j * step[n:] if real else step
    return x


def _newton_rows(E, targets, Z0, cfg: SolverConfig, limit=None,
                 H0=None) -> list:
    """Solve h(z) = targets[k] from Z0[k] for each row k of a stack, in one
    damped Gauss-Newton loop, each row as `newton_solve` solves it alone,
    bit for bit: the relation step, unless the row's step is tiny, then
    three deterministic kicks.  Row k stops at limit[k] iterations, when
    given, else at cfg.max_iterations; up to its limit it takes the steps
    of the row alone.  H0, when given, holds the holonomies at the starts,
    as `all_holonomies(Z0, E)` gives them.  E is the exponent matrix, whose
    unit relation rows W the step reads; returns one SolveResult per row,
    in row order.
    A degree-one edge's equation sets a single shape to xi_e, which no
    shape off {0, 1} meets at xi_e = 1: such a row keeps its start,
    unsolved, with residual inf and reason "degree_one_edge_obstruction"."""
    Z0 = np.array(Z0, dtype=complex)
    obstructed = np.abs(targets[:, E.degree_one] - 1.0) < 1e-8
    solve = ~obstructed.any(-1)
    targets = targets[solve]

    def residual(Z, rows, h=None):
        if h is None:
            h = all_holonomies(Z, E)
        return evaluate_residual(Z, E, targets[rows], h), h

    def directions(Z, F, h, rows):
        U = E.relations / h[:, None]
        M = np.matmul(U.mT.conj(), U, out=plan[0][:len(Z)])
        step = _least_squares_step(jacobian(Z, E, h), E, -F, M, plan[1])
        tiny = _norms(step) < 1e-12 * (1.0 + _norms(Z))
        if not any(tiny.tolist()):
            yield step
        # near a stationary point of |F|^2 away from a solution the step is
        # tiny or cannot be damped into a decrease: deterministic kicks
        # break the symmetry, re-entering Gauss-Newton after
        kick = 0.05 * (1.0 + np.abs(Z)) * np.exp(0.7j * (1 + np.arange(E.tet_count)))
        kicks = [kick, 1j * kick, -kick]
        if any(tiny.tolist()) and not all(tiny.tolist()):
            # a row with a tiny step tries each kick one turn early and its
            # last kick twice, which fails again as it did the first time
            ahead = tiny[:, None]
            kicks = [np.where(ahead, b, a)
                     for a, b in zip([step] + kicks, kicks + [-kick])]
        yield from kicks

    detail = {
        "converged": "",
        "degenerate_shape": "iterates pushed into the guard band around "
                            "{0, 1} (ideal point)",
        "stalled": "damping could not reduce the residual",
    }
    results = []
    if solve.any():
        plan = _step_plan(E, len(targets), complex)
        Z, norms, _, its, reasons = _damped_gauss_newton(
            residual, directions, Z0[solve], cfg,
            None if limit is None else np.asarray(limit)[solve],
            None if H0 is None else np.asarray(H0)[solve])
        for S, r, it, reason in zip(ShapeAssignment.rows(Z), norms, its,
                                    reasons):
            results.append(SolveResult(
                S, r, it, reason == "converged", reason,
                f"residual {r:.3e} after {it} iterations"
                if reason == "max_iterations" else detail[reason]))
    # the obstructed rows, in row order, each inserted where it stands
    for k in np.flatnonzero(~solve).tolist():
        results.insert(k, SolveResult(
            ShapeAssignment(Z0[k]), math.inf, 0, False,
            "degree_one_edge_obstruction", f"degree-one edge(s) "
            f"{', '.join(f'e{j}' for j in E.degree_one[obstructed[k]])} have "
            "xi = 1; the single incident shape parameter would be forbidden, "
            "so the system has no solution"))
    return results


def newton_solve(t: Triangulation, xi: ConeTarget, initial: ShapeAssignment,
                 cfg: SolverConfig = SolverConfig()) -> SolveResult:
    """Damped Gauss-Newton least squares on F(z) = h(z) - xi over the
    reduced coordinates (one z per tetrahedron), as a batch of one of the
    stacked solve `_newton_rows`, which leaves obstructions unsolved.

    The m-by-n system is rank-deficient (the cusp relations W / h span the
    left null space of J), so steps are min-norm least-squares solutions
    taken from the relations (`_least_squares_step`).  When the step is
    tiny or cannot be damped into a decrease (a stationary point of |F|^2
    away from a solution), three deterministic kicks are tried next.  Raises
    IdealGlueError unless `initial` has one shape per tetrahedron and xi
    one target per edge class.
    """
    E = build_exponent_matrix(t)
    check_shape_length(initial, E)
    check_target_length(xi, E)
    return _newton_rows(E, np.array([xi.xi]), [initial.z], cfg)[0]


def regular_solution(t: Triangulation):
    """Assign every tetrahedron the regular ideal shape (1 + i sqrt 3)/2.

    Every edge holonomy then lies on the unit circle with argument
    deg(e) pi/3, so (Z, xi) lies on the cone-deformation variety, and the
    volume is n times the regular ideal tetrahedron volume.
    """
    Z = ShapeAssignment((REGULAR_SHAPE,) * t.tetra_count)
    xi = ConeTarget(tuple(cmath.exp(1j * math.pi * d / 3.0)
                          for d in build_exponent_matrix(t).degree.tolist()))
    return Z, xi, t.tetra_count * V_TET


class SweepPoint(NamedTuple):
    theta: float
    result: SolveResult


def _block_starts(thetas, past, block, E, targets) -> tuple:
    """(Z0, H0): the starts of a sweep's solves at the thetas `block`,
    whose targets are the rows of `targets`, and the holonomies there.  For
    each theta the start is the Lagrange polynomial through the converged
    points (thetas[k], log past[k]), evaluated at theta and mapped back by
    exp, when it is finite, lies off the guard band around {0, 1} and has
    a smaller residual |h(z) - target| than the last converged point,
    past[-1]; otherwise that point.  The logs are taken relative to the
    last point, so their branch never jumps between nearby points, and one
    holonomy call evaluates every prediction and the last point; each
    start's row of that call is its row of H0, which the solve reads
    instead of evaluating h again."""
    P = np.array(past)
    last = P[-1]
    if len(set(thetas)) < len(thetas):
        Z = np.tile(last, (len(block), 1))
        return Z, all_holonomies(Z, E)
    T, own = np.array(thetas), np.eye(len(thetas), dtype=bool)
    w = np.where(own, 1.0, np.subtract.outer(block, T)[:, None]
                 / (T[:, None] - T + own)).prod(-1)
    with np.errstate(all="ignore"):     # a non-finite start is rejected
        L = np.log(P / last)
        # two real products: a complex one leaves np.exp slow (README)
        Z = last * np.exp(w @ L.real + 1j * (w @ L.imag))
        h = all_holonomies(np.vstack([Z, last]), E)
        ok = (np.isfinite(Z).all(-1) & ~in_guard_band(Z)
              & (_norms(h[:-1] - targets) < _norms(h[-1] - targets)))[:, None]
    return np.where(ok, Z, last), np.where(ok, h[:-1], h[-1])


def sweep_family(t: Triangulation, xi_of_theta, theta_grid,
                 cfg: SolverConfig = SolverConfig(),
                 initial: ShapeAssignment | None = None) -> list:
    """Continuation along a parameterized family of cone targets, in
    growing blocks of grid points corrected as one stacked solve
    (`_newton_rows`).

    The first solve starts from `initial`, the next from the first
    converged solution, one point at a time.  Once two or more points have
    converged, the sweep takes the next block of grid points: `BLOCK_ROWS`
    at first, then four times as many after a block whose rows were all
    accepted, or as many as were accepted after any other block; never so
    many that the block's stacked m-by-m normal matrices would pass about
    4 MB (so from m of about 360 on, one point at a time).
    Each point of the block starts from a prediction:
    the Lagrange extrapolation in theta of log z through the last three
    converged points before the block (quadratic; linear while only two
    have converged), mapped back by exp.  The prediction is taken only
    when it is finite, lies off the guard band around {0, 1}, and its
    residual |h(z) - xi(theta)| is smaller than that of the last converged
    solution, which is the start otherwise.  The block is one stacked
    solve, each point solved as `newton_solve` would solve it from that
    start, bit for bit, the first with up to cfg.max_iterations
    iterations and the others with up to `ACCEPT_ITERATIONS`; a theta
    whose target has a degree-one obstruction is not solved.  The rows
    are accepted in grid order: the first always, converged or failed, an
    obstructed one where it stands, and each later one only while it
    converged.  So every accepted point is the `newton_solve` from its
    start, bit for bit.  The first rejected row and all rows after it go
    to the next block, predicted again from the history the accepted
    points extend; failures are recorded, and the sweep continues from
    the converged points before them.

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
    grid = [float(theta) for theta in theta_grid]
    # at most STACK_ENTRIES of stacked m-by-m normal matrices
    cap = max(1, STACK_ENTRIES // E.edge_count ** 2)
    size = min(BLOCK_ROWS, cap)
    quick = min(ACCEPT_ITERATIONS, cfg.max_iterations)
    seed, thetas, past = initial, [], []    # the last converged points
    out = []
    while len(out) < len(grid):
        blocked = len(past) > 1
        block = grid[len(out):len(out) + (size if blocked else 1)]
        xis = [xi if isinstance(xi, ConeTarget) else ConeTarget(xi)
               for xi in map(xi_of_theta, block)]
        for xi in xis:
            check_target_length(xi, E)
        targets = np.array([xi.xi for xi in xis], dtype=complex)
        Z0, H0 = (_block_starts(thetas, past, block, E, targets)
                  if blocked else (np.array([seed.z]), None))
        results = _newton_rows(E, targets, Z0, cfg, [cfg.max_iterations]
                               + [quick] * (len(block) - 1), H0)
        accepted = 0
        for theta, res in zip(block, results):
            # a later row hit its limit unless it converged within `quick`
            if accepted and not (res.converged or res.reason
                                 == "degree_one_edge_obstruction"):
                break
            accepted += 1
            out.append(SweepPoint(theta, res))
            if res.converged:
                seed = res.shapes
                thetas, past = thetas[-2:] + [theta], past[-2:] + [seed.z]
        if blocked:
            size = min(4 * size, cap) if accepted == len(block) else accepted
    return out


def random_starts(t: Triangulation, count: int, cfg: SolverConfig = SolverConfig()):
    """Random initial shape vectors: uniform on the upper-half disk of
    radius 2, rejecting the guard band around {0, 1} (geometric solutions
    have positive imaginary parts).

    The (Re, Im) pairs are drawn in bulk but in the stream order of one
    pair per shape, and kept in that order, so the starts depend on the
    seed alone.  Raises IdealGlueError unless count is an int >= 0
    (`check_count`)."""
    count = check_count("count", count)
    n = t.tetra_count
    need = count * n
    rng = np.random.default_rng(cfg.seed)
    z = np.empty(0, dtype=complex)
    while len(z) < need:
        w = rng.uniform((-2.0, 0.0), (2.0, 2.0), (need + need // 3 + 16, 2))
        w = w.view(complex)[:, 0]
        # Im w >= 1e-3 keeps w far off the guard band around {0, 1}
        z = np.concatenate([z, w[(np.abs(w) <= 2) & (w.imag >= 1e-3)]])
    return ShapeAssignment.rows(z[:need].reshape(-1, n))


def cone_locus_sample(t: Triangulation, starts, cfg: SolverConfig = SolverConfig()):
    """Project random starts onto the cone-deformation variety.

    Gauss-Newton on the real residuals log|h(e)| over (Re z, Im z), all
    starts in one batch.  In this logarithmic form of the gluing equations
    (Thurston's notes, ch. 4; Neumann-Zagier) log|h(e)| is a sum over the
    tetrahedra, so its linearisation holds far from the unit circle too;
    that of |h(e)| - 1, a product, is poor where |h| is about 100, and
    its damped steps there cut the residual by about 0.1 % per iteration.
    A row converges, as in every solve, when its residual 2-norm
    |log|h|| is below cfg.tol, which puts every |h(e)| within about tol
    of 1.  The converged points that pass ConeTarget's UNIT_TOL test (all
    of them, unless tol is above about UNIT_TOL) are returned with their
    cone target; the other rows, also those that reach the iteration
    limit or stall, are dropped.

    Returns (samples, dropped_count) where samples is a list of
    (ShapeAssignment, ConeTarget).  Raises IdealGlueError unless every
    start has one shape per tetrahedron.
    """
    E = build_exponent_matrix(t)
    starts = list(starts)
    for start in starts:
        check_shape_length(start, E)
    if not starts:
        return [], 0

    def residual(Z, rows, h=None):
        if h is None:
            h = all_holonomies(Z, E)
        return np.log(np.abs(h)), h

    # U = W is constant: each step starts its workspace from one W^T W
    WtW, plan = E.relations.T @ E.relations, _step_plan(E, len(starts), float)

    def directions(Z, F, h, rows):
        # d log|h| = Re(D dz), D = d log h / dz: a real m x 2n system per
        # row, whose left null space the rows of W span, since
        # sum_e W[v, e] log h(e) is constant
        M = plan[0][:len(Z)]
        M[...] = WtW
        return [_least_squares_step(log_jacobian(Z, E), E, -F, M, plan[1])]

    Z0 = np.array([s.z for s in starts], dtype=complex)
    Z, _, H, _, reasons = _damped_gauss_newton(residual, directions, Z0, cfg)
    # a tol above about UNIT_TOL lets a converged row miss ConeTarget's
    # |h(e)| = 1 test; the stacked kernel gives the holonomies bit for bit,
    # so each kept row has the target xi_from_shapes would give it
    kept = ((np.array(reasons) == "converged")
            & (np.abs(np.abs(H) - 1.0) < UNIT_TOL).all(-1))
    samples = list(zip(ShapeAssignment.rows(Z[kept]), ConeTarget.rows(H[kept])))
    return samples, len(Z0) - len(samples)


def order_of_root_of_unity(xi: complex):
    """Smallest q <= Q_MAX with |xi^q - 1| < ROOT_TOL, else math.inf.

    Raises NotUnitModulus unless |xi| = 1 within UNIT_TOL; powers are taken
    on the circle through the argument phi, so no error accumulates for
    large q: |xi^q - 1| = 2 |sin(q phi / 2)|.  The least such q makes q
    phi / 2 pi nearer an integer than any smaller q does, so it is the
    denominator of a convergent of phi / 2 pi (a best approximation, as
    in Khinchin, Continued Fractions, ch. II); only those are tested, in
    increasing order, on the exact value num / den of the float phi / 2 pi.
    """
    xi = complex(xi)
    if not abs(abs(xi) - 1.0) < UNIT_TOL:
        raise NotUnitModulus(f"|xi| = {abs(xi)}")
    angle = cmath.phase(xi)
    num, den = (angle / (2.0 * math.pi)).as_integer_ratio()
    q_prev, q = 0, 1            # denominators of the last two convergents
    while q <= Q_MAX:
        if 2.0 * abs(math.sin(0.5 * q * angle)) < ROOT_TOL:
            return q
        num %= den              # the fractional part, num / den
        if not num:             # the expansion ends: no later convergent
            break
        num, den = den, num     # its reciprocal
        q_prev, q = q, num // den * q + q_prev
    return math.inf


class CoverDegreeReport(NamedTuple):
    """Edge-degree bookkeeping for the branched cover determined by the
    multiplicative orders of the cone targets, one entry per edge j:
    orders[j] is an int or math.inf, lifted_degrees[j] = orders[j] deg(e_j)."""

    orders: tuple
    lifted_degrees: tuple
    all_orders_finite: bool
    trivial_cover: bool     # all orders 1: the cover is the manifold itself


def branched_cover_report(E: ExponentMatrix,
                          xi: ConeTarget) -> CoverDegreeReport:
    """The order of each edge's target and its lifted degree; the order of
    each distinct target value is found once, in order of first occurrence.
    Raises IdealGlueError unless xi has one target per edge class."""
    check_target_length(xi, E)
    found = {x: order_of_root_of_unity(x) for x in dict.fromkeys(xi.xi)}
    orders = tuple(map(found.__getitem__, xi.xi))
    return CoverDegreeReport(
        orders, tuple(map(operator.mul, orders, E.degree.tolist())),
        math.inf not in orders, orders.count(1) == len(orders))


class Certificate(NamedTuple):
    """Record of the essential-edges conclusion drawn from a verified
    solution of the xi-hyperbolic gluing equations."""

    kind: str               # "manifold" (xi = 1) or "branched_cover"
    statement: str
    residual_norm: float
    shapes: ShapeAssignment
    xi: ConeTarget
    cover: CoverDegreeReport


def cover_certificate(cover: CoverDegreeReport, residual_norm: float,
                      shapes: ShapeAssignment, xi: ConeTarget) -> Certificate:
    """The certificate drawn from a solution at targets xi whose
    branched-cover bookkeeping is `cover`: its statement is about the
    triangulation itself when every order is 1, else about the branched
    cover."""
    if cover.trivial_cover:
        return Certificate("manifold", "solution of the hyperbolic gluing "
                           "equations found: all edges of the triangulation "
                           "are essential", residual_norm, shapes, xi, cover)
    orders = ", ".join(f"e{j}:o={o}" for j, o in enumerate(cover.orders))
    statement = ("solution of the xi-hyperbolic gluing equations found: "
                 "all edges of the induced ideal triangulation of the "
                 f"branched cover are essential (branch orders {orders})")
    if not cover.all_orders_finite:
        statement += ("; edges of infinite order lift to non-manifold "
                      "points of the cover")
    return Certificate("branched_cover", statement, residual_norm, shapes, xi,
                       cover)


def residual_check(res: float, cfg: SolverConfig = SolverConfig()) -> tuple:
    """(res <= 10 tol, 10 tol): a certificate's residual test and bound."""
    return res <= 10 * cfg.tol, 10 * cfg.tol


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
    E = build_exponent_matrix(t)
    check_shape_length(result.shapes, E)
    check_target_length(xi, E)
    if not result.converged:
        raise NotConverged(result.reason or "solve did not converge")
    # verify independently of the solver's bookkeeping
    res = float(np.linalg.norm(evaluate_residual(result.shapes, E, xi)))
    if not residual_check(res, cfg)[0]:
        raise NotConverged(f"re-evaluated residual {res:.3e} too large")
    return cover_certificate(branched_cover_report(E, xi), res,
                             result.shapes, xi)
