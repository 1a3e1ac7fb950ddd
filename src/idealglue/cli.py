"""Command-line interface.

Exit codes: 0 success, 1 solve failure, 2 input error.  Diagnostics go to
stderr; results to stdout (JSON with --json).
"""
from __future__ import annotations

import argparse
import cmath
import json
import sys

import numpy as np

from . import report as report_mod
from .corpus import CORPUS_NAMES, corpus, export_corpus
from .errors import IdealGlueError
from .fileio import format_triangulation, parse_triangulation
from .geometry import solution_volume
from .gluing import (ConeTarget, LABEL_NAMES, NotUnitModulusReport,
                     SLOT_LABELS, ShapeAssignment, build_exponent_matrix,
                     evaluate_residual, xi_from_shapes)
from .solver import (SolverConfig, cone_locus_sample, essential_edge_certificate,
                     newton_solve, random_starts, regular_solution, sweep_family)
from .triangulation import (EDGE_SLOTS, compute_edge_classes,
                            compute_vertex_classes, self_identification_report,
                            validate)

EXIT_OK, EXIT_SOLVE_FAILURE, EXIT_INPUT_ERROR = 0, 1, 2


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return EXIT_INPUT_ERROR


def _load_triangulation(args):
    if args.corpus:
        return corpus(args.corpus)
    if args.file:
        with open(args.file) as fh:
            return parse_triangulation(fh.read())
    raise IdealGlueError("one of --corpus or --file is required")


def _parse_complex(text: str) -> complex:
    re_s, im_s = text.split(",")
    return complex(float(re_s), float(im_s))


def _parse_xi(text: str, m: int) -> ConeTarget:
    """'ones', ';'-separated re,im pairs, or comma-separated complex
    literals such as '1j,-1,1j'."""
    if text == "ones":
        return ConeTarget.ones(m)
    if ";" in text:
        vals = [_parse_complex(p) for p in text.split(";") if p]
    else:
        parts = [p for p in text.split(",") if p]
        try:
            vals = [complex(p) for p in parts]
        except ValueError:
            vals = None
        if vals is None or (len(vals) != m and len(parts) == 2):
            vals = [_parse_complex(text)]       # a single re,im pair
    if len(vals) != m:
        raise IdealGlueError(f"expected {m} xi entries, got {len(vals)}")
    return ConeTarget(tuple(vals))


def _parse_initial(text: str, n: int) -> ShapeAssignment:
    parts = [p for p in text.split(";") if p]
    if len(parts) == 1:
        return ShapeAssignment((_parse_complex(parts[0]),) * n)
    if len(parts) != n:
        raise IdealGlueError(f"expected {n} initial shapes, got {len(parts)}")
    return ShapeAssignment(tuple(_parse_complex(p) for p in parts))


def _config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iterations=args.max_iter,
                        max_halvings=getattr(args, "max_halvings", 30),
                        seed=args.seed)


def _emit(args, payload: dict, human: str) -> None:
    if args.json:
        print(report_mod.dumps(payload))
    else:
        print(human)


def _cmd_info(args) -> int:
    t = _load_triangulation(args)
    rep = validate(t)
    edges = compute_edge_classes(t)
    verts = compute_vertex_classes(t)
    selfid = self_identification_report(t)
    lines = [
        f"tetrahedra: {t.tetra_count}, face pairs: {len(t.gluings)}",
        f"valid: {rep.ok}",
        "edges: " + ", ".join(f"e{e.index} deg {e.degree}" for e in edges),
        "vertex links: " + ", ".join(
            f"v{v.index} chi {v.link_euler_characteristic} genus {v.link_genus}"
            for v in verts),
        f"almost non-singular: {selfid.almost_non_singular}, "
        f"non-singular: {selfid.non_singular}",
    ]
    payload = {
        "tetrahedra": t.tetra_count,
        "valid": rep.ok,
        "edge_degrees": [e.degree for e in edges],
        "vertex_links": [{"chi": v.link_euler_characteristic,
                          "genus": v.link_genus,
                          "corners": len(v.corners)} for v in verts],
        "almost_non_singular": selfid.almost_non_singular,
        "non_singular": selfid.non_singular,
    }
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _cmd_equations(args) -> int:
    t = _load_triangulation(args)
    edges = compute_edge_classes(t)
    E = build_exponent_matrix(t, edges)
    lines = []
    for e in edges:
        factors = []
        a, ap, app = E.row(e.index)
        for i in range(t.tetra_count):
            for count, name in ((a[i], "z"), (ap[i], "z'"), (app[i], "z''")):
                if count:
                    sup = f"^{count}" if count > 1 else ""
                    factors.append(f"{name}_{i}{sup}")
        lines.append(f"e{e.index} (deg {e.degree}): " + " ".join(factors)
                     + " = xi_" + str(e.index))
    payload = {
        "edge_degrees": [e.degree for e in edges],
        "a": E.a.tolist(),
        "a_prime": E.a_prime.tolist(),
        "a_second": E.a_second.tolist(),
        "slot_labels": {str(EDGE_SLOTS[k]): LABEL_NAMES[SLOT_LABELS[k]]
                        for k in range(6)},
    }
    _emit(args, payload, "\n".join(lines))
    return EXIT_OK


def _solve_common(args):
    t = _load_triangulation(args)
    edges = compute_edge_classes(t)
    xi = _parse_xi(args.xi, len(edges))
    initial = _parse_initial(args.initial, t.tetra_count)
    cfg = _config(args)
    res = newton_solve(t, xi, initial, cfg)
    return t, xi, cfg, res


def _cmd_solve(args) -> int:
    t, xi, cfg, res = _solve_common(args)
    if not res.converged:
        print(f"solve failed: {res.reason}: {res.detail}", file=sys.stderr)
        if args.json:
            print(report_mod.dumps({"converged": False, "reason": res.reason,
                                    "detail": res.detail,
                                    "residual_norm": res.residual_norm}))
        return EXIT_SOLVE_FAILURE
    rep = report_mod.build_solution_report(t, res.shapes, xi,
                                           res.residual_norm, cfg=cfg)
    human = ["converged in %d iterations, residual %.3e"
             % (res.iterations, res.residual_norm)]
    for i, z in enumerate(res.shapes.z):
        human.append(f"  z_{i} = {z:.15g}")
    human.append("  volume = %.15g" % rep["volume"]["total"])
    _emit(args, rep, "\n".join(human))
    return EXIT_OK


def _cmd_certify(args) -> int:
    t, xi, cfg, res = _solve_common(args)
    if not res.converged:
        print(f"certification failed: {res.reason}: {res.detail}",
              file=sys.stderr)
        return EXIT_SOLVE_FAILURE
    cert = essential_edge_certificate(t, res, xi, cfg)
    rep = report_mod.build_solution_report(t, res.shapes, xi,
                                           res.residual_norm,
                                           certificate=cert, cfg=cfg)
    _emit(args, rep, f"certificate: {cert.statement}")
    return EXIT_OK


def _cmd_regular(args) -> int:
    t = _load_triangulation(args)
    Z, xi, volume = regular_solution(t)
    prod = 1.0 + 0.0j
    for x in xi.xi:
        prod *= x
    rep = report_mod.build_solution_report(
        t, Z, xi, 0.0, cfg=_config(args),
        include_holonomy=not args.no_holonomy)
    human = ["regular solution: all shapes (1+i sqrt(3))/2",
             "  xi: " + "; ".join(f"{x:.15g}" for x in xi.xi),
             f"  prod xi = {prod:.15g}",
             f"  volume = {volume:.15g}"]
    _emit(args, rep, "\n".join(human))
    return EXIT_OK


def _cmd_volume(args) -> int:
    t = _load_triangulation(args)
    if args.shapes:
        Z = _parse_initial(args.shapes, t.tetra_count)
    else:
        _, _, cfg, res = _solve_common(args)
        if not res.converged:
            print(f"solve failed: {res.reason}", file=sys.stderr)
            return EXIT_SOLVE_FAILURE
        Z = res.shapes
    vol = solution_volume(Z)
    payload = {"per_tetrahedron": list(vol.per_tetrahedron),
               "total": vol.total,
               "flat_tetrahedra": list(vol.flat_tetrahedra),
               "negatively_oriented": list(vol.negatively_oriented)}
    _emit(args, payload,
          "volume = %.15g (flat: %s, negative: %s)"
          % (vol.total, list(vol.flat_tetrahedra),
             list(vol.negatively_oriented)))
    return EXIT_OK


def _cmd_holonomy(args) -> int:
    t = _load_triangulation(args)
    if args.shapes:
        Z = _parse_initial(args.shapes, t.tetra_count)
        E = build_exponent_matrix(t, compute_edge_classes(t))
        xi = xi_from_shapes(Z, E)
        if isinstance(xi, NotUnitModulusReport):
            return _fail("the shapes are not a cone point: " + ", ".join(
                f"e{j} has |h(e)| = {m:.9g}"
                for j, m in zip(xi.edges, xi.moduli)))
        residual = float(np.linalg.norm(evaluate_residual(Z, E, xi)))
    else:
        t, xi, cfg, res = _solve_common(args)
        if not res.converged:
            print(f"solve failed: {res.reason}", file=sys.stderr)
            return EXIT_SOLVE_FAILURE
        Z, residual = res.shapes, res.residual_norm
    rep = report_mod.build_solution_report(t, Z, xi, residual,
                                           cfg=SolverConfig(seed=args.seed))
    human = []
    for g in rep["generators"]:
        human.append(f"generator {g['gluing']}: trace {complex(*g['trace']):.9g} "
                     f"(up to sign)")
    for em in rep["edge_matrices"]:
        human.append(f"edge e{em['edge']}: multiplier {complex(*em['multiplier']):.9g}, "
                     f"trace {complex(*em['trace']):.9g}")
    _emit(args, rep, "\n".join(human))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    t = _load_triangulation(args)
    edges = compute_edge_classes(t)
    weights = [int(w) for w in args.xi_weights.split(",")]
    if len(weights) != len(edges):
        return _fail(f"expected {len(edges)} xi weights")
    thetas = [float(x) for x in args.theta_grid.split(",")]

    def xi_of_theta(theta):
        return ConeTarget(tuple(cmath.exp(1j * w * theta) for w in weights))

    initial = _parse_initial(args.initial, t.tetra_count)
    points = sweep_family(t, xi_of_theta, thetas, _config(args), initial)
    payload = {"points": [{
        "theta": p.theta,
        "converged": p.result.converged,
        "reason": p.result.reason,
        "residual_norm": p.result.residual_norm,
        "shapes": [[z.real, z.imag] for z in p.result.shapes.z],
    } for p in points]}
    human = []
    for p in points:
        status = "ok" if p.result.converged else f"failed ({p.result.reason})"
        zs = "; ".join(f"{z:.9g}" for z in p.result.shapes.z)
        human.append(f"theta {p.theta:.6g}: {status}  z = {zs}")
    _emit(args, payload, "\n".join(human))
    if not any(p.result.converged for p in points):
        return EXIT_SOLVE_FAILURE
    return EXIT_OK


def _cmd_sample(args) -> int:
    t = _load_triangulation(args)
    cfg = _config(args)
    starts = random_starts(t, args.count, cfg)
    samples, dropped = cone_locus_sample(t, starts, cfg)
    payload = {"dropped": dropped, "samples": [{
        "shapes": [[z.real, z.imag] for z in Z.z],
        "xi": [[x.real, x.imag] for x in xi.xi],
    } for Z, xi in samples]}
    human = [f"{len(samples)} cone-locus samples ({dropped} starts dropped)"]
    for Z, xi in samples[:10]:
        human.append("  z = " + "; ".join(f"{z:.6g}" for z in Z.z))
    _emit(args, payload, "\n".join(human))
    return EXIT_OK if samples else EXIT_SOLVE_FAILURE


def _cmd_export_corpus(args) -> int:
    paths = export_corpus(args.out)
    print("\n".join(paths))
    return EXIT_OK


def _cmd_verify_report(args) -> int:
    with open(args.report) as fh:
        rep = json.load(fh)
    checks = report_mod.verify_report(rep)
    for c in checks:
        print(str(c))
    return EXIT_OK if all(c.ok for c in checks) else EXIT_SOLVE_FAILURE


def _cmd_print(args) -> int:
    t = _load_triangulation(args)
    sys.stdout.write(format_triangulation(t))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idealglue",
        description="Gluing equations, cone structures, holonomy and edge "
                    "certificates for ideal triangulations.")
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, xi=False, initial=False, shapes=False):
        p.add_argument("--corpus", choices=CORPUS_NAMES,
                       help="built-in triangulation")
        p.add_argument("--file", help="triangulation file (tri v1 format)")
        p.add_argument("--tol", type=float, default=1e-10)
        p.add_argument("--max-iter", type=int, default=100)
        p.add_argument("--max-halvings", type=int, default=30,
                       help="damping: step halvings per iteration")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--json", action="store_true",
                       help="emit a JSON report on stdout")
        if xi:
            p.add_argument("--xi", default="ones",
                           help="'ones', ';'-separated re,im pairs, or "
                                "comma-separated complex literals (e.g. "
                                "'1j,-1,1j'), one per edge class")
        if initial:
            p.add_argument("--initial", default="0.5,0.8",
                           help="initial shape 're,im', one value or ';'-list")
        if shapes:
            p.add_argument("--shapes", default=None,
                           help="evaluate at these shapes instead of solving")

    add_common(sub.add_parser("info", help="validation and combinatorics"))
    add_common(sub.add_parser("equations", help="gluing equation exponents"))
    add_common(sub.add_parser("solve", help="Newton solve at fixed xi"),
               xi=True, initial=True)
    add_common(sub.add_parser("certify",
                              help="solve and certify essential edges"),
               xi=True, initial=True)
    p = sub.add_parser("regular", help="the all-regular-shapes cone solution")
    add_common(p)
    p.add_argument("--no-holonomy", action="store_true",
                   help="skip generator/edge matrices in the report")
    add_common(sub.add_parser("volume", help="Bloch-Wigner volume report"),
               xi=True, initial=True, shapes=True)
    add_common(sub.add_parser("holonomy",
                              help="generator and edge holonomy matrices"),
               xi=True, initial=True, shapes=True)
    p = sub.add_parser("sweep", help="continuation along a xi family")
    add_common(p, initial=True)
    p.add_argument("--xi-weights", required=True,
                   help="integer weights w_e: xi_e(theta) = exp(i w_e theta)")
    p.add_argument("--theta-grid", required=True,
                   help="comma-separated theta values")
    p = sub.add_parser("sample", help="sample the cone-deformation variety")
    add_common(p)
    p.add_argument("--count", type=int, default=20)
    p = sub.add_parser("export-corpus", help="write corpus files")
    p.add_argument("--out", default="corpus")
    p = sub.add_parser("verify-report", help="re-check a JSON report")
    p.add_argument("--report", required=True)
    add_common(sub.add_parser("print", help="canonical triangulation text"))

    return ap


_COMMANDS = {
    "info": _cmd_info,
    "equations": _cmd_equations,
    "solve": _cmd_solve,
    "certify": _cmd_certify,
    "regular": _cmd_regular,
    "volume": _cmd_volume,
    "holonomy": _cmd_holonomy,
    "sweep": _cmd_sweep,
    "sample": _cmd_sample,
    "export-corpus": _cmd_export_corpus,
    "verify-report": _cmd_verify_report,
    "print": _cmd_print,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except IdealGlueError as err:
        return _fail(str(err))
    except FileNotFoundError as err:
        return _fail(str(err))


if __name__ == "__main__":
    sys.exit(main())
