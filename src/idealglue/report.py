"""Self-contained JSON solution reports and their re-validation.

Complex numbers serialize as [re, im] pairs; json round-trips doubles
bit-exactly, so a report can be re-checked without re-running the solve.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .develop import develop_spanning_tree, edge_holonomy_matrix, generator_maps
from .fileio import format_triangulation, parse_triangulation
from .geometry import edge_cone_angles, solution_volume
from .gluing import (ConeTarget, ShapeAssignment, all_holonomies,
                     build_exponent_matrix, check_shape_length,
                     check_target_length, evaluate_residual)
from .solver import SolverConfig, branched_cover_report
from .triangulation import Triangulation, compute_edge_classes

REPORT_VERSION = 1


def _c(z: complex):
    return [float(z.real), float(z.imag)]


def _uc(pair) -> complex:
    return complex(pair[0], pair[1])


def _volume_block(vol) -> dict:
    """The report's volume block: the VolumeReport fields, tuples as lists."""
    return {k: list(v) if isinstance(v, tuple) else v
            for k, v in vars(vol).items()}


def _match(name: str, got, want) -> "ReportCheck":
    """Whether the reported values equal the recomputed ones, entry by
    entry, to 1e-12 relative to max(1, |value|)."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    worst = (math.inf if got.shape != want.shape else float(np.max(
        np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0)))
    return ReportCheck(f"{name} matches", worst <= 1e-12, worst, 1e-12)


def _match_complex(name: str, got, want, up_to_sign: bool) -> "ReportCheck":
    """Whether each reported value (a matrix, a trace or a multiplier, as
    [re, im] pairs) equals the recomputed one, up to global sign when
    `up_to_sign`, to 1e-12 relative to max(1, its largest modulus)."""
    def rows(x):
        a = np.asarray(x, dtype=float).reshape(len(x), -1, 2)
        return a[..., 0] + 1j * a[..., 1]
    got, want = rows(got), rows(want)
    if got.shape != want.shape:
        worst = math.inf
    else:
        err = np.abs(got - want).max(-1)
        if up_to_sign:
            err = np.minimum(err, np.abs(got + want).max(-1))
        worst = float(np.max(err / np.maximum(1.0, np.abs(want).max(-1)),
                             initial=0.0))
    return ReportCheck(f"{name} matches", worst <= 1e-12, worst, 1e-12)


def _det_error(matrix) -> float:
    """|det M - 1| relative to max(1, |M|^2), |M| the largest entry
    modulus: rounding alone leaves about eps |M|^2.  Computed as
    |det(M/s) - 1/s^2| with s = max(1, |M|), so no entry is squared
    before it is scaled (|M| reaches 1e187 at n = 2000)."""
    a, b, c, d = (_uc(p) for p in matrix)
    s = max(1.0, abs(a), abs(b), abs(c), abs(d))
    a, b, c, d = a / s, b / s, c / s, d / s
    return abs(a * d - b * c - 1.0 / s / s)


def _holonomy_block(t: Triangulation, Z: ShapeAssignment, edges) -> tuple:
    """The report's generators and edge matrices, from one develop."""
    dc = develop_spanning_tree(t, Z)
    gens = [{"gluing": str(g), "matrix": [_c(v) for v in m.matrix.ravel()],
             "up_to_sign": True, "trace": _c(m.trace())}
            for g, m in zip(dc.generators, generator_maps(dc))]
    mats = []
    for e in edges:
        M, mult = edge_holonomy_matrix(dc, t, Z, e)
        mats.append({"edge": e.index,
                     "matrix": [_c(v) for v in M.matrix.ravel()],
                     "up_to_sign": True, "multiplier": _c(mult),
                     "trace": _c(M.trace())})
    return gens, mats


def build_solution_report(t: Triangulation, Z: ShapeAssignment,
                          xi: ConeTarget, residual_norm: float,
                          converged: bool = True,
                          certificate=None,
                          include_holonomy: bool = True) -> dict:
    """Assemble the full structured report for a solution point.  The cover
    bookkeeping is the certificate's when it was drawn at the same xi.
    Raises IdealGlueError unless Z has one shape per tetrahedron and xi one
    target per edge class."""
    edges, E = compute_edge_classes(t), build_exponent_matrix(t)
    check_shape_length(Z, E)
    check_target_length(xi, E)
    h = all_holonomies(Z, E).tolist()
    cover = (certificate.cover if certificate is not None and certificate.xi == xi
             else branched_cover_report(edges, xi))
    angles = edge_cone_angles(Z, E).tolist()
    report = {
        "report_version": REPORT_VERSION,
        "triangulation": format_triangulation(t),
        "converged": bool(converged),
        "shapes": [_c(z) for z in Z.z],
        "xi": [_c(x) for x in xi.xi],
        "residual_norm": float(residual_norm),
        "edges": [
            {
                "index": e.index,
                "degree": e.degree,
                "holonomy": _c(h[e.index]),
                "order": None if math.isinf(entry.order) else int(entry.order),
                "lifted_degree": (None if math.isinf(entry.lifted_degree)
                                  else int(entry.lifted_degree)),
                "cone_angle": angles[e.index],
            }
            for e, entry in zip(edges, cover.entries)
        ],
        "all_orders_finite": cover.all_orders_finite,
        "volume": _volume_block(solution_volume(Z)),
        "certificate": certificate.statement if certificate else None,
    }
    if include_holonomy:
        report["generators"], report["edge_matrices"] = _holonomy_block(t, Z, edges)
    return report


@dataclass(frozen=True)
class ReportCheck:
    name: str
    ok: bool
    value: float
    tolerance: float

    def __str__(self):
        flag = "ok" if self.ok else "FAIL"
        return f"{self.name}: {flag} ({self.value:.3e} vs tol {self.tolerance:.1e})"


def verify_report(report: dict) -> list:
    """Re-check a report from its own serialized data: the residual norm
    (and that it is within 10 tol when the report claims convergence or a
    certificate; tol is the default `SolverConfig().tol`, since a report
    does not record the tol it was solved with), the product identity over
    the cone targets, the volume block and each edge's cone angle
    (recomputed from the shapes, to 1e-12 relative to max(1, |value|), and
    the flat and negatively oriented lists exactly), and the holonomy
    block: the generators and edge matrices are rebuilt from the shapes by
    one develop and compared with the reported gluings, edge indices,
    matrices and traces (up to sign) and multipliers, to 1e-12 relative to
    max(1, |M|); the rebuilt multipliers must equal h(e), and each reported
    matrix must have |det M - 1| <= 1e-10 max(1, |M|^2), |M| its largest
    entry modulus.  No solve is re-run.  Raises IdealGlueError unless the
    report has one shape per tetrahedron and one target per edge class."""
    t = parse_triangulation(report["triangulation"])
    Z = ShapeAssignment(tuple(_uc(p) for p in report["shapes"]))
    xi = ConeTarget(tuple(_uc(p) for p in report["xi"]))
    edges, E = compute_edge_classes(t), build_exponent_matrix(t)
    check_shape_length(Z, E)
    check_target_length(xi, E)
    checks = []

    res = float(np.linalg.norm(evaluate_residual(Z, E, xi)))
    checks.append(ReportCheck("residual_norm matches",
                              abs(res - report["residual_norm"]) < 1e-12,
                              abs(res - report["residual_norm"]), 1e-12))
    if report.get("converged") or report.get("certificate"):
        bound = 10 * SolverConfig().tol
        checks.append(ReportCheck("residual_norm <= 10 tol", res <= bound,
                                  res, bound))

    prod = 1.0 + 0.0j
    for x in xi.xi:
        prod *= x
    checks.append(ReportCheck("prod xi = 1", abs(prod - 1.0) < 1e-8,
                              abs(prod - 1.0), 1e-8))

    if "volume" in report:
        for key, value in _volume_block(solution_volume(Z)).items():
            checks.append(_match(f"volume {key}", report["volume"][key], value))
    if "edges" in report:
        checks.append(_match("cone_angle", [e["cone_angle"] for e in report["edges"]],
                             edge_cone_angles(Z, E)))

    if "generators" in report or "edge_matrices" in report:
        gens, mats = _holonomy_block(t, Z, edges)
        got_g = report.get("generators", [])
        got_m = report.get("edge_matrices", [])
        labels = [g["gluing"] for g in gens] + [m["edge"] for m in mats]
        got_labels = [g["gluing"] for g in got_g] + [m["edge"] for m in got_m]
        checks.append(ReportCheck("holonomy labels match", got_labels == labels,
                                  float(got_labels != labels), 0.0))
        for name, got, want, key in (
                ("generator matrix", got_g, gens, "matrix"),
                ("generator trace", got_g, gens, "trace"),
                ("edge matrix", got_m, mats, "matrix"),
                ("edge trace", got_m, mats, "trace"),
                ("multiplier", got_m, mats, "multiplier")):
            checks.append(_match_complex(name, [e[key] for e in got],
                                         [e[key] for e in want],
                                         up_to_sign=key != "multiplier"))
        h = all_holonomies(Z, E)
        mult = np.array([_uc(m["multiplier"]) for m in mats])
        worst = float(np.max(np.abs(mult - h) / np.maximum(1.0, np.abs(h))))
        checks.append(ReportCheck("multiplier = h(e)", worst < 1e-9, worst, 1e-9))
        for name, got in (("edge matrix det = 1", got_m),
                          ("generator det = 1", got_g)):
            worst = max((_det_error(e["matrix"]) for e in got), default=0.0)
            checks.append(ReportCheck(name, worst <= 1e-10, worst, 1e-10))
    return checks


def dumps(report: dict) -> str:
    return json.dumps(report, indent=2)


def loads(text: str) -> dict:
    return json.loads(text)
