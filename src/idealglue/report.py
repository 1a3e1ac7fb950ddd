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
        dc = develop_spanning_tree(t, Z)
        gens = []
        for g, m in zip(dc.generators, generator_maps(dc)):
            gens.append({
                "gluing": str(g),
                "matrix": [_c(v) for v in m.matrix.ravel()],
                "up_to_sign": True,
                "trace": _c(m.trace()),
            })
        report["generators"] = gens
        mats = []
        for e in edges:
            M, mult = edge_holonomy_matrix(dc, t, Z, e)
            mats.append({
                "edge": e.index,
                "matrix": [_c(v) for v in M.matrix.ravel()],
                "up_to_sign": True,
                "multiplier": _c(mult),
                "trace": _c(M.trace()),
            })
        report["edge_matrices"] = mats
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
    the flat and negatively oriented lists exactly), the edge-matrix
    multiplier contract and determinant normalization.  No solve is
    re-run.  Raises
    IdealGlueError unless the report has one shape per tetrahedron and one
    target per edge class."""
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

    h = all_holonomies(Z, E)
    if "edge_matrices" in report:
        dc = develop_spanning_tree(t, Z)
        worst_mult, worst_det = 0.0, 0.0
        for entry in report["edge_matrices"]:
            j = entry["edge"]
            M, mult = edge_holonomy_matrix(dc, t, Z, edges[j])
            worst_mult = max(worst_mult,
                             abs(mult - h[j]) / max(1.0, abs(h[j])))
            m = np.array([_uc(p) for p in entry["matrix"]]).reshape(2, 2)
            worst_det = max(worst_det, abs(np.linalg.det(m) - 1.0))
        checks.append(ReportCheck("multiplier = h(e)", worst_mult < 1e-9,
                                  worst_mult, 1e-9))
        checks.append(ReportCheck("edge matrix det = 1", worst_det < 1e-10,
                                  worst_det, 1e-10))
    if "generators" in report:
        worst = 0.0
        for entry in report["generators"]:
            m = np.array([_uc(p) for p in entry["matrix"]]).reshape(2, 2)
            worst = max(worst, abs(np.linalg.det(m) - 1.0))
        checks.append(ReportCheck("generator det = 1", worst < 1e-10,
                                  worst, 1e-10))
    return checks


def dumps(report: dict) -> str:
    return json.dumps(report, indent=2)


def loads(text: str) -> dict:
    return json.loads(text)
