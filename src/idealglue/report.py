"""Self-contained JSON solution reports and their re-validation.

Complex numbers serialize as [re, im] pairs; json round-trips doubles
bit-exactly, so `verify_report` can rebuild a report from its own inputs
with `build_solution_report`, without a solve, and compare every field.
"""
from __future__ import annotations

import functools
import itertools
import json
import marshal
import math
import operator
from typing import NamedTuple

import numpy as np

from .develop import develop_spanning_tree
from .errors import EdgeCycleNotClosed, IdealGlueError
from .fileio import format_triangulation, parse_triangulation
from .geometry import (VolumeReport, edge_cone_angles, shape_table,
                       solution_volume)
from .gluing import (ConeTarget, ShapeAssignment, all_holonomies,
                     build_exponent_matrix, check_shape_length,
                     check_target_length, evaluate_residual)
from .solver import branched_cover_report, cover_certificate, residual_check
from .triangulation import Triangulation

REPORT_VERSION = 1


def _pairs(values) -> list:
    """Complex values as [re, im] pairs: a vector as a list of pairs, a
    stack of matrices as one list of pairs per matrix, in C order."""
    a = np.ascontiguousarray(values, dtype=complex)
    rows = a.shape[:1] if a.ndim > 1 else ()
    return a.view(float).reshape(rows + (-1, 2)).tolist()


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
                          include_holonomy: bool = True) -> dict:
    """Assemble the full structured report for a solution point.  The cover
    bookkeeping is the certificate's when it was drawn at the same xi.
    Raises IdealGlueError unless Z has one shape per tetrahedron and xi one
    target per edge class."""
    return _solution_report(t, Z, xi, residual_norm, converged, certificate,
                            include_holonomy)


def _solution_report(t, Z, xi, residual_norm, converged, certificate,
                     include_holonomy, h=None) -> dict:
    """`build_solution_report`, the one report writer; `h`, when given, is
    `all_holonomies(Z, E)`, as in `evaluate_residual`."""
    E = build_exponent_matrix(t)
    check_shape_length(Z, E)
    check_target_length(xi, E)
    cover = (certificate.cover if certificate is not None and certificate.xi == xi
             else branched_cover_report(E, xi))
    orders, lifted = cover.orders, cover.lifted_degrees
    if not cover.all_orders_finite:
        orders, lifted = ([None if math.isinf(o) else o for o in v]
                          for v in (orders, lifted))
    z = np.array(Z.z, dtype=complex)
    table = shape_table(z)          # one for the volume and the angles
    rows = zip(range(E.edge_count), E.degree.tolist(), orders, lifted,
               _pairs(all_holonomies(Z, E) if h is None else h),
               edge_cone_angles(Z, E, table).tolist())
    report = {
        "report_version": REPORT_VERSION,
        "triangulation": format_triangulation(t),
        "converged": bool(converged),
        "shapes": _pairs(z),
        "xi": _pairs(xi.xi),
        "residual_norm": float(residual_norm),
        "edges": [{"index": j, "degree": d, "holonomy": hol, "order": o,
                   "lifted_degree": lift, "cone_angle": angle}
                  for j, d, o, lift, hol, angle in rows],
        "all_orders_finite": cover.all_orders_finite,
        "volume": volume_payload(solution_volume(Z, table)),
        "certificate": certificate.statement if certificate else None,
    }
    if include_holonomy:            # one develop for the whole block
        dc = develop_spanning_tree(t, Z)
        G, M = dc.generator_matrices, dc.edge_matrices
        report["generators"] = [
            {"gluing": str(g), "matrix": m, "up_to_sign": True, "trace": tr}
            for g, m, tr in zip(dc.generators, _pairs(G),
                                _pairs(G[:, 0, 0] + G[:, 1, 1]))]
        report["edge_matrices"] = [
            {"edge": j, "matrix": m, "up_to_sign": True, "multiplier": mult,
             "trace": tr}
            for j, (m, mult, tr) in enumerate(zip(_pairs(M), _pairs(dc.multipliers),
                                                  _pairs(M[:, 0, 0] + M[:, 1, 1])))]
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
        if set(map(type, flat)) <= {int, float}:
            return flat
    return None


def _complex(pairs: list) -> np.ndarray:
    """[re, im] pairs, or their numbers in order (`_flat_pairs`), as a
    1-by-k complex array, each entry complex(re, im) bit for bit."""
    return np.array(pairs, dtype=float).reshape(1, -1, 2).view(complex)[..., 0]


def _decode(key: str, decode, value):
    """decode(value) for the well-typed input field `key`; a JSON integer
    past the float range (`OverflowError`) raises IdealGlueError naming
    the field."""
    try:
        return decode(value)
    except OverflowError:
        raise IdealGlueError(f"report field {key!r} holds a number past the "
                             "float range") from None


# the fields a report is rebuilt from, each read by a test that gives the
# value to decode, or None when the field is malformed
_INPUTS = {"triangulation": lambda v: v if isinstance(v, str) else None,
           "shapes": _flat_pairs, "xi": _flat_pairs,
           "residual_norm": lambda v: v if type(v) in (int, float) else None}
# row blocks, by the prefix of their fields' check names
_ROWS = {"edges": "", "generators": "generator ", "edge_matrices": "edge "}
_HOLONOMY = {"generators", "edge_matrices"}
_RENAMED = {"edge multiplier": "multiplier", **dict.fromkeys((
    "generator gluing", "generator up_to_sign", "edge edge", "edge up_to_sign"),
    "holonomy labels")}


def _fields(report: dict) -> dict:
    """A report's claims by check name: a top-level field but the inputs, a
    volume entry as "volume <key>", a row field as its list over the rows."""
    fields = {}
    for key in sorted(report.keys() - _INPUTS.keys()):
        value = report[key]
        if key == "volume" and isinstance(value, dict):
            fields.update((f"volume {k}", v) for k, v in value.items())
        elif key in _ROWS and isinstance(value, list) and all(
                isinstance(row, dict) for row in value):
            for k in dict.fromkeys(itertools.chain.from_iterable(value)):
                name = f"{_ROWS[key]}{k}"
                fields.setdefault(_RENAMED.get(name, name), []).extend(
                    [row[k] for row in value if k in row])
        else:
            fields[key] = value
    return fields


def _leaf_types(value) -> set:
    """The types of a JSON value's entries, through nested lists."""
    if type(value) is list:
        return set().union(*map(_leaf_types, value))
    return {type(value)}


def _same(got, want) -> bool:
    """got == want as JSON values, where Python's True == 1 == 1.0 is not."""
    if type(want) is list:
        return (type(got) is list and len(got) == len(want)
                and all(map(_same, got, want)))
    return type(got) is type(want) and got == want


def _same_as_rebuilt(report: dict, rebuilt: dict) -> bool:
    """`_same` for a report and its rebuild, inputs aside, in C-level
    passes: Python's ==, then marshal's bytes for the fields outside the
    rows (marshal writes each value with its type, and a float bit for
    bit), and a type test per field of a block of rows, where the writer
    gives each field one JSON type (or null) in every row, so a claimed
    entry needs only the type of the field's first rebuilt entry."""
    keys = rebuilt.keys() - _INPUTS.keys()
    if report.keys() != rebuilt.keys() or any(report[k] != rebuilt[k]
                                              for k in keys):
        return False
    rest = sorted(keys - _ROWS.keys())
    try:
        if (marshal.dumps([report[k] for k in rest], 2)
                != marshal.dumps([rebuilt[k] for k in rest], 2)):
            return False
    except ValueError:                  # not JSON data
        return False
    for key in keys & _ROWS.keys():
        for k, first in rebuilt[key][0].items():
            values = map(operator.itemgetter(k), report[key])
            while type(first) is list and first:
                values, first = itertools.chain.from_iterable(values), first[0]
            if not set(map(type, values)) <= {type(first), type(None)}:
                return False
    return True


# the field checks of a report the same as its rebuild, by the rebuild's
# keys: one entry for each key set the writer writes (with and without the
# holonomy block), each a tuple of immutable checks
_CLEAN = {}


def _clean_checks(rebuilt: dict) -> tuple:
    """The field checks of a report the same as its rebuild, each ok at 0.
    The writer gives every row of a block the same keys, and each key one
    JSON type, so the rebuild's keys fix each check's name and tolerance:
    they are read off one row of each block, once per set of keys."""
    keys = tuple(rebuilt)
    if keys not in _CLEAN:
        one_row = {k: v[:1] if k in _ROWS else v for k, v in rebuilt.items()}
        _CLEAN[keys] = tuple(_match(name, want, want)
                             for name, want in _fields(one_row).items())
    return _CLEAN[keys]


def _match(name: str, got, want) -> ReportCheck:
    """Whether a reported field equals the rebuilt one: ints, None, bools,
    strings and labels exactly, with the rebuilt JSON type (`_same`);
    numbers, ints or floats, to 1e-12 relative to max(1, |value|), one
    value being a number, a [re, im] pair or a matrix of pairs, |value| its
    largest entry; matrices and traces up to sign."""
    numeric = isinstance(want, float) or (
        isinstance(want, list) and bool(want) and isinstance(want[0], (float, list)))
    if not numeric:
        worst = 0.0 if _same(got, want) else math.inf
    elif {bool, str} & _leaf_types(got):
        worst = math.inf                # not a JSON number
    elif got == want:
        worst = 0.0
    else:
        try:
            g, w = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
        except (TypeError, ValueError, OverflowError):
            g = w = np.empty(0)         # not floats: worst stays inf
        worst = math.inf
        if g.shape == w.shape and w.size:   # one row per value
            g, w = (a.reshape(a.shape[:1] + (-1,)) for a in (g, w))
            err = np.abs(g - w).max(-1)
            if name.endswith(("matrix", "trace")):
                err = np.minimum(err, np.abs(g + w).max(-1))
            worst = float(np.max(err / np.maximum(1.0, np.abs(w).max(-1))))
    label = "match" if name.endswith("labels") else "matches"
    tol = 1e-12 if numeric else 0.0
    return ReportCheck(f"{name} {label}", worst <= tol, worst, tol)


@np.errstate(over="ignore", invalid="ignore", divide="ignore")
def verify_report(report: dict) -> list:
    """Re-check every claim of a report by rebuilding it, without a solve.

    The inputs `triangulation`, `shapes` and `xi` go to the report writer
    with the report's `converged` flag, the holonomy block when the report
    has one, and, when a certificate is stated, the certificate
    `cover_certificate` draws from the cover bookkeeping, which the rebuilt
    rows then share; h(e) is evaluated once at the shapes, for the
    residual and the rebuilt rows.  `residual_norm` and every other field
    must equal the re-evaluated or rebuilt one (`_match`): ints, null,
    booleans, strings and labels of the same JSON type too, numbers as
    JSON numbers (a bool is neither).  A report equal to its rebuild
    (`_same_as_rebuilt`) passes each field check at 0 without a field
    being compared on its own, as it would field by field.  A missing or
    extra field fails "report fields match".
    Invariants: residual <= 10 tol (`residual_check`) when convergence or a
    certificate is claimed, prod xi = 1, multiplier = h(e),
    |det M - 1| <= 1e-10 max(1, |M|^2).  When the shapes do not develop
    (`EdgeCycleNotClosed`: an edge matrix misses its ends, as rounding
    makes it at shapes of modulus 1e5 and more), "holonomy develops" fails
    and the holonomy block goes unchecked.  A value that overflows in the
    rebuild is not finite and fails its check, without a NumPy warning.
    A claimed number past the float range (a JSON integer such as 10^400)
    fails its check.  Raises IdealGlueError, naming the field, unless the
    report is an object with well-typed inputs and `residual_norm`, each
    number within the float range, one shape per tetrahedron and one
    target per edge class."""
    if not isinstance(report, dict):
        raise IdealGlueError(f"a report is a JSON object, not {type(report).__name__}")
    inputs = {key: read(report.get(key)) for key, read in _INPUTS.items()}
    for key, value in inputs.items():
        if value is None:
            raise IdealGlueError(f"report field {key!r} is missing or malformed")
    t = parse_triangulation(inputs["triangulation"])
    z = _decode("shapes", _complex, inputs["shapes"])
    (Z,) = ShapeAssignment.rows(z)
    x = _decode("xi", _complex, inputs["xi"])
    (xi,) = ConeTarget.rows(x)
    claim = _decode("residual_norm", float, inputs["residual_norm"])
    E = build_exponent_matrix(t)
    check_shape_length(Z, E)
    check_target_length(xi, E)
    h = all_holonomies(z[0], E)
    res = float(np.linalg.norm(evaluate_residual(Z, E, x[0], h)))
    claimed = report.get("certificate") is not None
    certificate = (cover_certificate(branched_cover_report(E, xi), res, Z, xi)
                   if claimed else None)
    rebuild = functools.partial(_solution_report, t, Z, xi, claim,
                                report.get("converged") is True, certificate,
                                h=h)
    holonomy, checks = _HOLONOMY & report.keys(), []
    try:
        rebuilt = rebuild(include_holonomy=bool(holonomy))
    except EdgeCycleNotClosed as err:
        checks.append(ReportCheck("holonomy develops", False, err.mismatch,
                                  err.tolerance))
        report = {k: v for k, v in report.items() if k not in holonomy}
        rebuilt = rebuild(include_holonomy=False)

    if _same_as_rebuilt(report, rebuilt):
        odd, fields = 0, _clean_checks(rebuilt)
    else:
        want, got = _fields(rebuilt), _fields(report)
        odd = len(got.keys() ^ want.keys())
        fields = [_match(name, got.get(name), value)
                  for name, value in want.items()]
    checks += [ReportCheck("report fields match", not odd, float(odd), 0.0),
               _match("residual_norm", report["residual_norm"], res), *fields]
    if rebuilt["converged"] or claimed:
        ok, bound = residual_check(res)
        checks.append(ReportCheck("residual_norm <= 10 tol", ok, res, bound))
    prod = abs(math.prod(xi.xi) - 1.0)
    checks.append(ReportCheck("prod xi = 1", prod < 1e-8, prod, 1e-8))
    if "edge_matrices" in rebuilt:
        mult = _complex(list(map(operator.itemgetter("multiplier"),
                                 rebuilt["edge_matrices"])))[0]
        worst = float(np.max(np.abs(mult - h) / np.maximum(1.0, np.abs(h))))
        checks.append(ReportCheck("multiplier = h(e)", worst < 1e-9, worst, 1e-9))
        for name, key in (("edge matrix det = 1", "edge_matrices"),
                          ("generator det = 1", "generators")):
            matrices = list(map(operator.itemgetter("matrix"), rebuilt[key]))
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
