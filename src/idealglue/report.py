"""Self-contained JSON solution reports, schema version 2, and their
re-validation.

A report holds its inputs, `triangulation`, `tol`, `residual_norm`,
`shapes` and `xi` (complex numbers as [re, im] pairs), and its claims:
`report_version`, `converged`, `all_orders_finite`, `certificate`, the
`volume` block and the row blocks `edges` and, with the holonomy block,
`generators` and `edge_matrices`.  A row block is one object of
equal-length columns, each one flat list of JSON values in row order: a
number, int or string per row, or the re and im parts of a complex value,
and for a matrix those of its entries a, b, c, d.  json round-trips doubles
bit-exactly, so `verify_report` rebuilds a report from its inputs with the
one writer, without a solve, and compares each claimed field, a column at
a time, with the rebuilt one.
"""
from __future__ import annotations

import functools
import itertools
import json
import math
from typing import NamedTuple

import numpy as np

from .develop import develop_spanning_tree
from .errors import EdgeCycleNotClosed, IdealGlueError, check_tol
from .fileio import format_triangulation, parse_triangulation
from .geometry import (VolumeReport, edge_cone_angles, shape_table,
                       solution_volume)
from .gluing import (ConeTarget, ShapeAssignment, all_holonomies,
                     build_exponent_matrix, check_shape_length,
                     check_target_length, evaluate_residual)
from .solver import (SolverConfig, branched_cover_report, cover_certificate,
                     residual_check)
from .triangulation import Triangulation

REPORT_VERSION = 2


def _pairs(values) -> list:
    """Complex values as [re, im] pairs: a vector as a list of pairs, a
    stack of matrices as one list of pairs per matrix, in C order."""
    a = np.ascontiguousarray(values, dtype=complex)
    rows = a.shape[:1] if a.ndim > 1 else ()
    return a.view(float).reshape(rows + (-1, 2)).tolist()


def _flat(values) -> list:
    """Complex values, or a stack of matrices, as one flat list of their
    parts, re then im of each entry, in C order: a report column."""
    return np.ascontiguousarray(values, dtype=complex).view(float).ravel().tolist()


def _det_error(matrices) -> np.ndarray:
    """|det M - 1| relative to max(1, |M|^2), |M| the largest entry modulus
    (rounding alone leaves about eps |M|^2), as |det(M/s) - 1/s^2| with
    s = max(1, |M|): no entry is squared unscaled (|M| is 1e187 at n = 2000).
    M is four [re, im] pairs (a, b, c, d), or a stack of them; the
    arithmetic is complex arithmetic's, spelled out on the parts."""
    m = np.asarray(matrices, dtype=float)
    s = np.maximum(1.0, np.hypot(m[..., 0], m[..., 1]).max(-1))
    (ar, ai), (br, bi), (cr, ci), (dr, di) = np.moveaxis(
        m / s[..., None, None], (-2, -1), (0, 1))
    return np.hypot((ar * dr - ai * di) - (br * cr - bi * ci) - 1.0 / s / s,
                    (ar * di + ai * dr) - (br * ci + bi * cr))


def volume_payload(vol: VolumeReport) -> dict:
    """A VolumeReport as a JSON object, its tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in vol._asdict().items()}


def build_solution_report(t: Triangulation, Z: ShapeAssignment,
                          xi: ConeTarget, residual_norm: float,
                          converged: bool = True,
                          certificate=None,
                          include_holonomy: bool = True,
                          tol: float = SolverConfig().tol) -> dict:
    """Assemble the full structured report for a solution point, as JSON
    data: its inputs, then the claims `_solution_report` writes; `tol` is
    the solve's tolerance, which bounds the residual of a converged or
    certified report.  The cover bookkeeping is the certificate's when it
    was drawn at the same xi.  Raises IdealGlueError unless Z has one
    shape per tetrahedron, xi one target per edge class and tol is a
    finite real > 0."""
    return {"report_version": REPORT_VERSION,
            "triangulation": format_triangulation(t),
            "tol": float(check_tol(tol)),
            "residual_norm": float(residual_norm),
            "shapes": _pairs(Z.z), "xi": _pairs(xi.xi),
            **_solution_report(t, Z, xi, converged, certificate,
                               include_holonomy)}


def _solution_report(t, Z, xi, converged, certificate, include_holonomy,
                     h=None) -> dict:
    """The claims of a report, the one writer of each: all but the inputs,
    which `verify_report` reads off the report it rebuilds.  `h`, when
    given, is `all_holonomies(Z, E)`, as in `evaluate_residual`."""
    E = build_exponent_matrix(t)
    check_shape_length(Z, E)
    check_target_length(xi, E)
    cover = (certificate.cover if certificate is not None and certificate.xi == xi
             else branched_cover_report(E, xi))
    orders, lifted = list(cover.orders), list(cover.lifted_degrees)
    if not cover.all_orders_finite:
        orders, lifted = ([None if math.isinf(o) else o for o in v]
                          for v in (orders, lifted))
    table = shape_table(np.array(Z.z, dtype=complex))   # for volume, angles
    report = {
        "report_version": REPORT_VERSION,
        "converged": bool(converged),
        "edges": {"degree": E.degree.tolist(),
                  "holonomy": _flat(all_holonomies(Z, E) if h is None else h),
                  "order": orders, "lifted_degree": lifted,
                  "cone_angle": edge_cone_angles(Z, E, table).tolist()},
        "all_orders_finite": cover.all_orders_finite,
        "volume": volume_payload(solution_volume(Z, table)),
        "certificate": certificate.statement if certificate else None,
    }
    if include_holonomy:            # one develop for the whole block
        dc = develop_spanning_tree(t, Z)
        G, M = dc.generator_matrices, dc.edge_matrices
        report["generators"] = {"gluing": list(map(str, dc.generators)),
                                "matrix": _flat(G),
                                "trace": _flat(G[:, 0, 0] + G[:, 1, 1])}
        report["edge_matrices"] = {"matrix": _flat(M),
                                   "multiplier": _flat(dc.multipliers),
                                   "trace": _flat(M[:, 0, 0] + M[:, 1, 1])}
    return report


class ReportCheck(NamedTuple):
    name: str
    ok: bool
    value: float
    tolerance: float

    def __str__(self):
        flag = "ok" if self.ok else "FAIL"
        return f"{self.name}: {flag} ({self.value:.3e} vs tol {self.tolerance:.1e})"


def _flat_pairs(value):
    """The numbers of a list of [re, im] pairs of JSON numbers, in order;
    None for any other value."""
    if (type(value) is list and set(map(type, value)) <= {list}
            and set(map(len, value)) <= {2}):
        flat = list(itertools.chain.from_iterable(value))
        if set(map(type, flat)) <= _NUMBERS:
            return flat
    return None


def _complex(pairs: list) -> np.ndarray:
    """[re, im] pairs, or their numbers in order (a report column), as a
    1-by-k complex array, each entry complex(re, im) bit for bit."""
    return np.array(pairs, dtype=float).reshape(1, -1, 2).view(complex)[..., 0]


def complex_column(column: list) -> list:
    """The values of a report column of complex numbers, as Python
    complex numbers in row order."""
    return _complex(column)[0].tolist()


def _tol(value):
    """`value` as a float when it is a tolerance (`check_tol`), else None."""
    try:
        return float(check_tol(value))
    except IdealGlueError:
        return None


def _decode(key: str, decode, value):
    """decode(value) for the well-typed input field `key`; a JSON integer
    past the float range (`OverflowError`) raises IdealGlueError naming
    the field."""
    try:
        return decode(value)
    except OverflowError:
        raise IdealGlueError(f"report field {key!r} holds a number past the "
                             "float range") from None


_NUMBERS = {int, float}             # JSON numbers; a bool is not one
# the fields a report is rebuilt from, each read by a test that gives the
# value to decode, or None when the field is malformed
_INPUTS = {"triangulation": lambda v: v if isinstance(v, str) else None,
           "tol": _tol,
           "residual_norm": lambda v: v if type(v) in _NUMBERS else None,
           "shapes": _flat_pairs, "xi": _flat_pairs}
# the blocks of a report: each field's check, and how many numbers make
# one of its values (a [re, im] pair 2, a matrix 8), or 0 for a field of
# ints, nulls or strings; a field outside the blocks is compared exactly,
# in the check named after it
_BLOCKS = {
    "volume": {"per_tetrahedron": ("volume per_tetrahedron matches", 1),
               "total": ("volume total matches", 1),
               "flat_tetrahedra": ("volume flat_tetrahedra matches", 0),
               "negatively_oriented": ("volume negatively_oriented matches",
                                       0)},
    "edges": {"degree": ("degree matches", 0),
              "holonomy": ("holonomy matches", 2),
              "order": ("order matches", 0),
              "lifted_degree": ("lifted_degree matches", 0),
              "cone_angle": ("cone_angle matches", 1)},
    "generators": {"gluing": ("holonomy labels match", 0),
                   "matrix": ("generator matrix matches", 8),
                   "trace": ("generator trace matches", 2)},
    "edge_matrices": {"matrix": ("edge matrix matches", 8),
                      "multiplier": ("multiplier matches", 2),
                      "trace": ("edge trace matches", 2)},
}
_HOLONOMY = {"generators", "edge_matrices"}


def _check(name: str, width: int, got, want) -> ReportCheck:
    """The check `name` of a claimed field `got` against the rebuilt
    `want`, a JSON value or a column of them, in one type test and one
    comparison.  With width 0 exactly, each value of the rebuilt JSON
    type: true is not 1, nor 6.0 the int 6.  Else the claimed values are
    JSON numbers, ints or floats but not booleans, within 1e-12 of the
    rebuilt ones (`_error`).  A column of another length fails."""
    if type(want) is not list:
        got, want = [got], [want]
    worst = math.inf
    if (type(got) is list and len(got) == len(want)
            and set(map(type, got)) <= (_NUMBERS if width
                                        else set(map(type, want)))):
        if got == want:
            worst = 0.0
        elif width:
            worst = _error(name, got, want, width)
    tol = 1e-12 if width else 0.0
    return ReportCheck(name, worst <= tol, worst, tol)


def _error(name: str, got: list, want: list, width: int) -> float:
    """The largest error of a column of JSON numbers, relative to
    max(1, |value|), one value being `width` numbers in a row and |value|
    their largest modulus; matrices and traces up to sign.  inf for an int
    past the float range."""
    try:
        g = np.array(got, dtype=float).reshape(-1, width)
    except OverflowError:
        return math.inf
    w = np.array(want, dtype=float).reshape(-1, width)
    err = np.abs(g - w).max(-1)
    if name.endswith(("matrix matches", "trace matches")):
        err = np.minimum(err, np.abs(g + w).max(-1))
    return float(np.max(err / np.maximum(1.0, np.abs(w).max(-1))))


def _compare(report: dict, rebuilt: dict) -> tuple:
    """The number of fields, inputs aside, that only one of a report and
    its rebuild has, counting the report's top-level keys and the fields
    of each block, where a block that is not a JSON object has none; and
    the `_check` of each rebuilt field, in the rebuild's order."""
    odd, checks = len((report.keys() - _INPUTS.keys()) ^ rebuilt.keys()), []
    for key, want in rebuilt.items():
        if key not in _BLOCKS:
            checks.append(_check(f"{key} matches", 0, report.get(key), want))
            continue
        got = report.get(key)
        got = got if type(got) is dict else {}
        odd += len(got.keys() ^ want.keys())
        checks += [_check(*_BLOCKS[key][k], got.get(k), column)
                   for k, column in want.items()]
    return odd, checks


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verify_report(report: dict) -> list:
    """Re-check every claim of a version-2 report by rebuilding it, without
    a solve.

    The inputs `triangulation`, `shapes` and `xi` go to the report writer
    with the report's `converged` flag, the holonomy block when the report
    has one, and, when a certificate is stated, the certificate
    `cover_certificate` draws from the cover bookkeeping, which the rebuilt
    rows then share; h(e) is evaluated once at the shapes, for the
    residual and the rebuilt rows.  `residual_norm` must equal the
    re-evaluated residual and every other field the rebuilt one, a column
    at a time (`_check`): ints, null, booleans and strings exactly and of
    the rebuilt JSON type, numbers as JSON numbers (a bool is not one) to
    1e-12.  A missing or extra field, at the top level or in a block,
    fails "report fields match".
    Invariants: residual <= 10 tol, the report's own `tol`, and <= 1e-8
    (`residual_check`), when convergence or a certificate is claimed,
    prod xi = 1, multiplier = h(e), |det M - 1| <= 1e-10 max(1, |M|^2).
    When the shapes do not develop (`EdgeCycleNotClosed`: an edge matrix
    misses its ends, as rounding makes it at shapes of modulus 1e5 and
    more), "holonomy develops" fails and the holonomy block goes
    unchecked.  A value that overflows in the rebuild is not finite and
    fails its check, without a NumPy warning, as does a claimed number past
    the float range (a JSON integer such as 10^400).  Raises
    IdealGlueError, naming the field, unless the report is an object of
    `report_version` 2 (an int of another version is refused; there is no
    converter) with well-typed inputs, a `tol` that is a finite JSON
    number > 0, each number within the float range, one shape per
    tetrahedron and one target per edge class."""
    if not isinstance(report, dict):
        raise IdealGlueError(f"a report is a JSON object, not {type(report).__name__}")
    version = report.get("report_version")
    if type(version) is int and version != REPORT_VERSION:
        raise IdealGlueError(f"report_version {version} is not read: this "
                             f"program reads version {REPORT_VERSION} reports "
                             "only; write the report again")
    inputs = {key: read(report.get(key)) for key, read in _INPUTS.items()}
    for key, value in inputs.items():
        if value is None:
            raise IdealGlueError(f"report field {key!r} is missing or malformed")
    t = parse_triangulation(inputs["triangulation"])
    z = _decode("shapes", _complex, inputs["shapes"])
    (Z,) = ShapeAssignment.rows(z)
    x = _decode("xi", _complex, inputs["xi"])
    (xi,) = ConeTarget.rows(x)
    _decode("residual_norm", float, inputs["residual_norm"])   # in range
    E = build_exponent_matrix(t)
    check_shape_length(Z, E)
    check_target_length(xi, E)
    h = all_holonomies(z[0], E)
    res = float(np.linalg.norm(evaluate_residual(Z, E, x[0], h)))
    claimed = report.get("certificate") is not None
    certificate = (cover_certificate(branched_cover_report(E, xi), res, Z, xi)
                   if claimed else None)
    rebuild = functools.partial(_solution_report, t, Z, xi,
                                report.get("converged") is True, certificate,
                                h=h)
    holonomy, checks = _HOLONOMY & report.keys(), []
    try:
        rebuilt = rebuild(bool(holonomy))
    except EdgeCycleNotClosed as err:
        checks.append(ReportCheck("holonomy develops", False, err.mismatch,
                                  err.tolerance))
        report = {k: v for k, v in report.items() if k not in holonomy}
        rebuilt = rebuild(False)
    odd, fields = _compare(report, rebuilt)
    checks += [ReportCheck("report fields match", not odd, float(odd), 0.0),
               _check("residual_norm matches", 1, report["residual_norm"], res),
               *fields]
    if rebuilt["converged"] or claimed:
        ok, bound = residual_check(res, inputs["tol"])
        checks.append(ReportCheck("residual_norm <= 10 tol", ok, res, bound))
    prod = abs(math.prod(xi.xi) - 1.0)
    checks.append(ReportCheck("prod xi = 1", prod < 1e-8, prod, 1e-8))
    if "edge_matrices" in rebuilt:
        mult = _complex(rebuilt["edge_matrices"]["multiplier"])[0]
        worst = float(np.max(np.abs(mult - h) / np.maximum(1.0, np.abs(h))))
        checks.append(ReportCheck("multiplier = h(e)", worst < 1e-9, worst, 1e-9))
        for name, key in (("edge matrix det = 1", "edge_matrices"),
                          ("generator det = 1", "generators")):
            matrices = np.reshape(rebuilt[key]["matrix"], (-1, 4, 2))
            worst = float(np.max(_det_error(matrices),
                                 initial=0.0))     # a nan propagates
            checks.append(ReportCheck(name, worst <= 1e-10, worst, 1e-10))
    return checks


def dumps(report: dict) -> str:
    """RFC 8259 JSON; raises IdealGlueError for a value it cannot hold."""
    try:
        return json.dumps(report, allow_nan=False)
    except ValueError as err:
        raise IdealGlueError(f"cannot write the report: {err}") from err
