"""Oracles that only the tests read: the abstract edge neighbourhood,
relabelling, canonical forms, random triangulations by the plain list
algorithm (`reference_random_triangulation`), the enumeration of the
one-tetrahedron triangulations, the holonomies by the exponent-matrix
power formula (`power_holonomies`), the Gauss-Newton step with nothing
formed ahead of its call (`unplanned_step`), a sweep block's predicted
starts by the Lagrange weights' plain formula (`reference_block_starts`),
and the field-by-field report verifier (`reference_verify_report`)."""
import contextlib
import functools
import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from idealglue import (ConeTarget, EdgeCycleNotClosed, IdealGlueError,
                       ShapeAssignment, Triangulation, build_exponent_matrix,
                       build_solution_report, compute_edge_classes,
                       evaluate_residual, make_triangulation,
                       parse_triangulation)
from idealglue.gluing import (all_holonomies, check_shape_length,
                              check_target_length, in_guard_band, pair_matvec)
from idealglue.report import ReportCheck
from idealglue.solver import (_norms, branched_cover_report,
                              cover_certificate, residual_check)
from idealglue.triangulation import (PERMUTATIONS, _odd_perms_fixing,
                                     is_connected)


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


def reference_random_triangulation(n: int, seed=None) -> Triangulation:
    """`random_triangulation` by its plain list algorithm, quadratic in n:
    pop the least unpaired face, then delete the k-th of the others.  The
    package's must give the same pairs for every seed."""
    rng = random.Random(seed)
    while True:
        faces = [(tet, f) for tet in range(n) for f in range(4)]
        gl = []
        while faces:
            t1, f1 = faces.pop(0)
            k = rng.randrange(len(faces))
            t2, f2 = faces[k]
            del faces[k]
            p = _odd_perms_fixing(f1, f2)[rng.randrange(3)]
            gl.append((t1, f1, t2, f2, p))
        t = make_triangulation(n, gl)
        if is_connected(t):
            return t


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


def power_holonomies(Z, E):
    """h(e_j) = prod_i z_i^a z_i'^a' z_i''^a'' over E's nonzero
    (edge, tetrahedron) pairs, each pair's three powers first, then the
    pairs' product in tetrahedron order: h by its exponent-matrix formula,
    which `all_holonomies`, a product over the slots, equals to rounding."""
    w = np.asarray(Z).take(E.cols, axis=-1)
    return np.multiply.reduceat(w ** E.pair_a * (1.0 / (1.0 - w)) ** E.pair_a_prime
                                * ((w - 1.0) / w) ** E.pair_a_second,
                                E.row_starts, axis=-1)


def unplanned_step(V, E, b, M):
    """`solver._least_squares_step` with nothing formed ahead of the call,
    for a stack of rows: M (holding U^H U, completed in place) is scattered
    into through an index built from M's shape, each product with D^H
    conjugates V and gathers it into tetrahedron order anew, and the
    check's two right-hand sides are joined by `np.stack`.  The solver's
    step, which forms the index once per solve and D^H's values once per
    step, must equal it bit for bit."""
    by_tet, starts, pairs, entry = (E.by_tet, E.tet_starts, E.pair_pairs,
                                    E.pair_entry)

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


def reference_block_starts(thetas, past, block, E, targets) -> tuple:
    """`solver._block_starts` by its plain formula: the Lagrange weight of
    node k at theta is the product over j of a (theta, k, j) array that
    holds (theta - T_j) / (T_k - T_j), and 1 where j = k; the prediction
    is formed as a complex sum and joined to the last point by `np.vstack`
    for the holonomy call.  The solver's starts and holonomies must equal
    these bit for bit."""
    P = np.array(past)
    last = P[-1]
    if len(thetas) < 2 or len(set(thetas)) < len(thetas):
        Z = np.tile(last, (len(block), 1))
        return Z, all_holonomies(Z, E)
    T, own = np.array(thetas), np.eye(len(thetas), dtype=bool)
    w = np.where(own, 1.0, np.subtract.outer(block, T)[:, None]
                 / (T[:, None] - T + own)).prod(-1)
    with np.errstate(all="ignore"):
        L = np.log(P / last)
        Z = last * np.exp(w @ L.real + 1j * (w @ L.imag))
        h = all_holonomies(np.vstack([Z, last]), E)
        ok = (np.isfinite(Z).all(-1) & ~in_guard_band(Z)
              & (_norms(h[:-1] - targets) < _norms(h[-1] - targets)))[:, None]
    return np.where(ok, Z, last), np.where(ok, h[:-1], h[-1])


# ------------------------------------------------ the field-by-field verifier

def _ref_is_pairs(value) -> bool:
    return (type(value) is list and set(map(type, value)) <= {list}
            and set(map(len, value)) <= {2}
            and set(map(type, itertools.chain.from_iterable(value)))
            <= {int, float})


def _ref_complex(pairs: list) -> np.ndarray:
    return np.array(pairs, dtype=float).reshape(1, -1, 2).view(complex)[..., 0]


def _ref_decode(report: dict, key: str, decode):
    try:
        return decode(report[key])
    except OverflowError:
        raise IdealGlueError(f"report field {key!r} holds a number past the "
                             "float range") from None


def _ref_det_error(matrix) -> float:
    a, b, c, d = (complex(re, im) for re, im in zip(matrix[::2], matrix[1::2]))
    s = max(1.0, abs(a), abs(b), abs(c), abs(d))
    a, b, c, d = a / s, b / s, c / s, d / s
    return abs(a * d - b * c - 1.0 / s / s)


_REF_INPUTS = {"triangulation": lambda v: isinstance(v, str),
               "tol": lambda v: type(v) in (int, float) and 0 < v < math.inf,
               "residual_norm": lambda v: type(v) in (int, float),
               "shapes": _ref_is_pairs, "xi": _ref_is_pairs}
# per block of a report, per field: its check name and the numbers in one
# of its values
REPORT_BLOCKS = {
    "volume": {"per_tetrahedron": ("volume per_tetrahedron", 1),
               "total": ("volume total", 1),
               "flat_tetrahedra": ("volume flat_tetrahedra", 1),
               "negatively_oriented": ("volume negatively_oriented", 1)},
    "edges": {"degree": ("degree", 1), "holonomy": ("holonomy", 2),
              "order": ("order", 1), "lifted_degree": ("lifted_degree", 1),
              "cone_angle": ("cone_angle", 1)},
    "generators": {"gluing": ("holonomy labels", 1),
                   "matrix": ("generator matrix", 8),
                   "trace": ("generator trace", 2)},
    "edge_matrices": {"matrix": ("edge matrix", 8),
                      "multiplier": ("multiplier", 2),
                      "trace": ("edge trace", 2)},
}
_REF_HOLONOMY = {"generators", "edge_matrices"}


def _ref_values(column, width: int):
    """A column cut into its values, `width` entries each."""
    if width == 1 or not isinstance(column, list):
        return column
    return [column[i:i + width] for i in range(0, len(column), width)]


def _ref_fields(report: dict) -> dict:
    """Each claim by its check name: a top-level field, or a block's field
    as its list of values."""
    fields = {}
    for key, value in report.items():
        if key in _REF_INPUTS:
            continue
        if key not in REPORT_BLOCKS:
            fields[key] = value
        elif isinstance(value, dict):
            for k, column in value.items():
                name, width = REPORT_BLOCKS[key].get(k, (f"{key} {k}", 1))
                fields[name] = _ref_values(column, width)
    return fields


def _ref_names(report: dict) -> set:
    """The report's top-level keys, inputs aside, and its blocks' fields."""
    return ({k for k in report if k not in _REF_INPUTS}
            | {(k, f) for k in REPORT_BLOCKS if isinstance(report.get(k), dict)
               for f in report[k]})


def _ref_match(name: str, got, want) -> ReportCheck:
    numeric = isinstance(want, float) or (
        isinstance(want, list) and bool(want) and isinstance(want[0], (float, list)))
    worst = 0.0 if got == want else math.inf
    if worst and numeric and got is not None:   # None: a missing field
        try:
            g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        except (TypeError, ValueError, OverflowError):
            g = w = np.empty(0)
        if g.shape == w.shape and w.size:
            g, w = (a.reshape(a.shape[:1] + (-1,)) for a in (g, w))
            err = np.abs(g - w).max(-1)
            if name.endswith(("matrix", "trace")):
                err = np.minimum(err, np.abs(g + w).max(-1))
            worst = float(np.max(err / np.maximum(1.0, np.abs(w).max(-1))))
    label = "match" if name.endswith("labels") else "matches"
    tol = 1e-12 if numeric else 0.0
    return ReportCheck(f"{name} {label}", worst <= tol, worst, tol)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def reference_verify_report(report: dict) -> list:
    """`verify_report` field by field, on a report of schema version 2:
    each claimed column cut into its values (a number, a [re, im] pair or a
    matrix of four pairs) and compared on its own by Python's ==, then to
    1e-12 as floats, so that a bool passes for the number 1 or 0 and an
    integral float for an int; the rebuild writes its inputs, h(e) is
    evaluated twice and the invariants one matrix at a time.  The checks
    the verifier makes must equal these, but where a value of another JSON
    type stands in for a claimed one."""
    if not isinstance(report, dict):
        raise IdealGlueError(f"a report is a JSON object, not {type(report).__name__}")
    version = report.get("report_version")
    if type(version) is int and version != 2:
        raise IdealGlueError(f"report_version {version} is not read: this "
                             "program reads version 2 reports only; write "
                             "the report again")
    for key, ok in _REF_INPUTS.items():
        if not ok(report.get(key)):
            raise IdealGlueError(f"report field {key!r} is missing or malformed")
    t = parse_triangulation(report["triangulation"])
    (Z,) = ShapeAssignment.rows(_ref_decode(report, "shapes", _ref_complex))
    (xi,) = ConeTarget.rows(_ref_decode(report, "xi", _ref_complex))
    tol = _ref_decode(report, "tol", float)
    claim = _ref_decode(report, "residual_norm", float)
    E = build_exponent_matrix(t)
    check_shape_length(Z, E)
    check_target_length(xi, E)
    res = float(np.linalg.norm(evaluate_residual(Z, E, xi)))
    claimed = report.get("certificate") is not None
    certificate = (cover_certificate(branched_cover_report(E, xi), res, Z, xi)
                   if claimed else None)
    rebuild = functools.partial(build_solution_report, t, Z, xi, claim,
                                report.get("converged") is True, certificate,
                                tol=tol)
    holonomy, checks = _REF_HOLONOMY & report.keys(), []
    try:
        rebuilt = rebuild(include_holonomy=bool(holonomy))
    except EdgeCycleNotClosed as err:
        checks.append(ReportCheck("holonomy develops", False, err.mismatch,
                                  err.tolerance))
        report = {k: v for k, v in report.items() if k not in holonomy}
        rebuilt = rebuild(include_holonomy=False)
    want, got = _ref_fields(rebuilt), _ref_fields(report)
    odd = len(_ref_names(report) ^ _ref_names(rebuilt))
    checks += [ReportCheck("report fields match", not odd, float(odd), 0.0),
               _ref_match("residual_norm", report["residual_norm"], res)]
    checks += [_ref_match(name, got.get(name), value)
               for name, value in want.items()]
    if rebuilt["converged"] or claimed:
        ok, bound = residual_check(res, tol)
        checks.append(ReportCheck("residual_norm <= 10 tol", ok, res, bound))
    prod = abs(math.prod(xi.xi) - 1.0)
    checks.append(ReportCheck("prod xi = 1", prod < 1e-8, prod, 1e-8))
    if "edge_matrices" in rebuilt:
        h = _ref_complex(rebuilt["edges"]["holonomy"])[0]
        mult = _ref_complex(rebuilt["edge_matrices"]["multiplier"])[0]
        worst = float(np.max(np.abs(mult - h) / np.maximum(1.0, np.abs(h))))
        checks.append(ReportCheck("multiplier = h(e)", worst < 1e-9, worst, 1e-9))
        for name, key in (("edge matrix det = 1", "edge_matrices"),
                          ("generator det = 1", "generators")):
            matrices = _ref_values(rebuilt[key]["matrix"], 8)
            worst = float(np.max([_ref_det_error(m) for m in matrices],
                                 initial=0.0))
            checks.append(ReportCheck(name, worst <= 1e-10, worst, 1e-10))
    return checks
