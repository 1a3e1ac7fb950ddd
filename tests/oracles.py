"""Oracles that only the tests read: the abstract edge neighbourhood,
relabelling, canonical forms and the enumeration of the one-tetrahedron
triangulations, the Gauss-Newton step with nothing formed ahead of its
call (`unplanned_step`), and the field-by-field report verifier
(`reference_verify_report`)."""
import contextlib
import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from idealglue import (ConeTarget, EdgeCycleNotClosed, IdealGlueError,
                       ShapeAssignment, Triangulation, build_exponent_matrix,
                       build_solution_report, compute_edge_classes,
                       evaluate_residual, make_triangulation,
                       parse_triangulation)
from idealglue.gluing import (check_shape_length, check_target_length,
                              pair_matvec)
from idealglue.report import ReportCheck
from idealglue.solver import (branched_cover_report, cover_certificate,
                              residual_check)
from idealglue.triangulation import PERMUTATIONS, _odd_perms_fixing


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
    a, b, c, d = (complex(*p) for p in matrix)
    s = max(1.0, abs(a), abs(b), abs(c), abs(d))
    a, b, c, d = a / s, b / s, c / s, d / s
    return abs(a * d - b * c - 1.0 / s / s)


_REF_INPUTS = {"triangulation": lambda v: isinstance(v, str),
               "shapes": _ref_is_pairs, "xi": _ref_is_pairs,
               "residual_norm": lambda v: type(v) in (int, float)}
_REF_ROWS = {"edges": "", "generators": "generator ", "edge_matrices": "edge "}
_REF_HOLONOMY = {"generators", "edge_matrices"}
_REF_RENAMED = {"edge multiplier": "multiplier", **dict.fromkeys((
    "generator gluing", "generator up_to_sign", "edge edge", "edge up_to_sign"),
    "holonomy labels")}


def _ref_fields(report: dict) -> dict:
    fields = {}
    for key in sorted(report.keys() - _REF_INPUTS.keys()):
        value = report[key]
        if key == "volume" and isinstance(value, dict):
            fields.update((f"volume {k}", v) for k, v in value.items())
        elif key in _REF_ROWS and isinstance(value, list) and all(
                isinstance(row, dict) for row in value):
            for k in dict.fromkeys(itertools.chain.from_iterable(value)):
                name = f"{_REF_ROWS[key]}{k}"
                fields.setdefault(_REF_RENAMED.get(name, name), []).extend(
                    [row[k] for row in value if k in row])
        else:
            fields[key] = value
    return fields


def _ref_match(name: str, got, want) -> ReportCheck:
    numeric = isinstance(want, float) or (
        isinstance(want, list) and bool(want) and isinstance(want[0], (float, list)))
    worst = 0.0 if got == want else math.inf
    if worst and numeric:
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
    """`verify_report` as it was before its equality fast path: every field
    flattened and compared on its own by Python's ==, then to 1e-12 as
    floats, so that a bool passes for the number 1 or 0 and an integral
    float for an int; h(e) evaluated twice and the invariants one matrix
    at a time.  The checks the verifier makes must equal these, but where
    a value of another JSON type stands in for a claimed one."""
    if not isinstance(report, dict):
        raise IdealGlueError(f"a report is a JSON object, not {type(report).__name__}")
    for key, ok in _REF_INPUTS.items():
        if not ok(report.get(key)):
            raise IdealGlueError(f"report field {key!r} is missing or malformed")
    t = parse_triangulation(report["triangulation"])
    (Z,) = ShapeAssignment.rows(_ref_decode(report, "shapes", _ref_complex))
    (xi,) = ConeTarget.rows(_ref_decode(report, "xi", _ref_complex))
    claim = _ref_decode(report, "residual_norm", float)
    E = build_exponent_matrix(t)
    check_shape_length(Z, E)
    check_target_length(xi, E)
    res = float(np.linalg.norm(evaluate_residual(Z, E, xi)))
    claimed = report.get("certificate") is not None
    certificate = (cover_certificate(branched_cover_report(E, xi), res, Z, xi)
                   if claimed else None)
    rebuild = functools.partial(build_solution_report, t, Z, xi, claim,
                                report.get("converged") is True, certificate)
    holonomy, checks = _REF_HOLONOMY & report.keys(), []
    try:
        rebuilt = rebuild(include_holonomy=bool(holonomy))
    except EdgeCycleNotClosed as err:
        checks.append(ReportCheck("holonomy develops", False, err.mismatch,
                                  err.tolerance))
        report = {k: v for k, v in report.items() if k not in holonomy}
        rebuilt = rebuild(include_holonomy=False)
    want = _ref_fields(rebuilt)
    got = _ref_fields(report)
    odd = len(got.keys() ^ want.keys())
    checks += [ReportCheck("report fields match", not odd, float(odd), 0.0),
               _ref_match("residual_norm", report["residual_norm"], res)]
    checks += [_ref_match(name, got.get(name), value)
               for name, value in want.items()]
    if rebuilt["converged"] or claimed:
        ok, bound = residual_check(res)
        checks.append(ReportCheck("residual_norm <= 10 tol", ok, res, bound))
    prod = abs(math.prod(xi.xi) - 1.0)
    checks.append(ReportCheck("prod xi = 1", prod < 1e-8, prod, 1e-8))
    if "edge_matrices" in rebuilt:
        h = np.array([complex(*e["holonomy"]) for e in rebuilt["edges"]])
        mult = np.array([complex(*m["multiplier"]) for m in rebuilt["edge_matrices"]])
        worst = float(np.max(np.abs(mult - h) / np.maximum(1.0, np.abs(h))))
        checks.append(ReportCheck("multiplier = h(e)", worst < 1e-9, worst, 1e-9))
        for name, key in (("edge matrix det = 1", "edge_matrices"),
                          ("generator det = 1", "generators")):
            worst = float(np.max([_ref_det_error(e["matrix"]) for e in rebuilt[key]],
                                 initial=0.0))
            checks.append(ReportCheck(name, worst <= 1e-10, worst, 1e-10))
    return checks
