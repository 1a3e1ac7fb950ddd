"""Command-line interface.

Exit codes: 0 success, 1 solve failure (for verify-report, a failed
check), 2 input error, including a file that cannot be read, a malformed
report or an input too large to hold in memory, 141 (128 + SIGPIPE) when
the reader of stdout closed it early.  Diagnostics go to stderr; results
to stdout (JSON with --json).

`run` is the process entry (`python -m idealglue.cli`, the `idealglue`
script); `main` runs one command in the calling process.
"""
from __future__ import annotations

import argparse
import cmath
import gc
import json
import math
import os
import sys

from . import report as report_mod
from .corpus import CORPUS_NAMES, corpus, export_corpus
from .errors import IdealGlueError, NotConverged
from .fileio import format_triangulation, parse_triangulation
from .geometry import solution_volume
from .gluing import (ConeTarget, LABEL_NAMES, SLOT_LABELS, ShapeAssignment,
                     build_exponent_matrix, xi_from_shapes)
from .solver import (SolverConfig, cone_locus_sample, essential_edge_certificate,
                     newton_solve, random_starts, regular_solution, sweep_family)
from .triangulation import (EDGE_SLOTS, compute_edge_classes,
                            compute_vertex_classes, self_identification_report,
                            validate)

EXIT_OK, EXIT_SOLVE_FAILURE, EXIT_INPUT_ERROR = 0, 1, 2
EXIT_BROKEN_PIPE = 141         # 128 + SIGPIPE, as a killed cat reports


def _load_triangulation(args):
    if args.corpus:
        return corpus(args.corpus)
    if args.file:
        with open(args.file) as fh:
            try:
                text = fh.read()
            except UnicodeDecodeError as err:
                raise IdealGlueError(f"{args.file}: not a text file ({err})") from err
        return parse_triangulation(text)
    raise IdealGlueError("one of --corpus or --file is required")


def _pair(text: str) -> complex:
    re_s, im_s = text.split(",")
    return complex(float(re_s), float(im_s))


def _parse_list(flag: str, text: str, parse, sep: str = ",") -> list:
    """`parse` of each `sep`-separated entry, after one trailing `sep` is
    dropped (so 're,im;' is one pair, and '' or `sep` no entry); an empty,
    malformed or non-finite entry is an input error naming the flag."""
    entries = text.removesuffix(sep)
    try:
        vals = [parse(p) for p in entries.split(sep)] if entries else []
        if all(cmath.isfinite(v) for v in vals):
            return vals
    except ValueError:          # also parse(''), from an empty entry
        pass
    raise IdealGlueError(f"{flag}: empty, malformed or non-finite entry in {text!r}")


def _parse_xi(text: str, m: int) -> ConeTarget:
    """'ones'; a value containing ';' is a list of re,im pairs (a single
    pair is written 're,im;'); anything else is a comma list of complex
    literals such as '1j,-1,1j'."""
    if text == "ones":
        return ConeTarget.ones(m)
    if ";" in text:
        vals = _parse_list("--xi", text, _pair, ";")
    else:
        vals = _parse_list("--xi", text, complex)
    if len(vals) != m:
        raise IdealGlueError(f"expected {m} xi entries, got {len(vals)}")
    return ConeTarget(tuple(vals))


def _parse_initial(text: str, n: int, flag: str = "--initial") -> ShapeAssignment:
    zs = _parse_list(flag, text, _pair, ";")
    if len(zs) == 1:
        return ShapeAssignment((zs[0],) * n)
    if len(zs) != n:
        raise IdealGlueError(f"{flag}: expected {n} shapes, got {len(zs)}")
    return ShapeAssignment(tuple(zs))


def _finite(x: float):
    """x, or None (JSON null) when it is not finite: JSON has no inf."""
    return x if math.isfinite(x) else None


def _config(args) -> SolverConfig:
    return SolverConfig(tol=args.tol, max_iterations=args.max_iter)


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
    E = build_exponent_matrix(t)
    degrees = E.degree.tolist()
    if args.json:               # the dense m-by-n lists are for --json only
        print(report_mod.dumps({
            "edge_degrees": degrees,
            "a": E.a.tolist(),
            "a_prime": E.a_prime.tolist(),
            "a_second": E.a_second.tolist(),
            "slot_labels": {str(EDGE_SLOTS[k]): LABEL_NAMES[SLOT_LABELS[k]]
                            for k in range(6)},
        }))
        return EXIT_OK
    factors = [[] for _ in degrees]     # from each edge's pairs, in tet order
    for j, i, *counts in zip(E.rows.tolist(), E.cols.tolist(),
                             E.pair_a.tolist(), E.pair_a_prime.tolist(),
                             E.pair_a_second.tolist()):
        factors[j] += [f"{name}_{i}" + (f"^{c}" if c > 1 else "")
                       for c, name in zip(counts, LABEL_NAMES) if c]
    print("\n".join(f"e{j} (deg {d}): " + " ".join(factors[j]) + f" = xi_{j}"
                    for j, d in enumerate(degrees)))
    return EXIT_OK


def _solve(args, t):
    """(xi, cfg, result) of the solve that args ask for; raises
    NotConverged, carrying the result, unless it converged."""
    xi = _parse_xi(args.xi, build_exponent_matrix(t).edge_count)
    initial = _parse_initial(args.initial, t.tetra_count)
    cfg = _config(args)
    res = newton_solve(t, xi, initial, cfg)
    if not res.converged:
        raise NotConverged(f"{res.reason}: {res.detail}", res)
    return xi, cfg, res


def _cmd_solve(args) -> int:
    t = _load_triangulation(args)
    xi, cfg, res = _solve(args, t)
    rep = report_mod.build_solution_report(t, res.shapes, xi,
                                           res.residual_norm, tol=cfg.tol)
    human = ["converged in %d iterations, residual %.3e"
             % (res.iterations, res.residual_norm)]
    for i, z in enumerate(res.shapes.z):
        human.append(f"  z_{i} = {z:.15g}")
    human.append("  volume = %.15g" % rep["volume"]["total"])
    _emit(args, rep, "\n".join(human))
    return EXIT_OK


def _cmd_certify(args) -> int:
    t = _load_triangulation(args)
    xi, cfg, res = _solve(args, t)
    cert = essential_edge_certificate(t, res, xi, cfg)
    rep = report_mod.build_solution_report(t, res.shapes, xi,
                                           res.residual_norm,
                                           certificate=cert, tol=cfg.tol)
    _emit(args, rep, f"certificate: {cert.statement}")
    return EXIT_OK


def _cmd_regular(args) -> int:
    t = _load_triangulation(args)
    Z, xi, volume = regular_solution(t)
    rep = report_mod.build_solution_report(
        t, Z, xi, 0.0, include_holonomy=not args.no_holonomy)
    human = ["regular solution: all shapes (1+i sqrt(3))/2",
             "  xi: " + "; ".join(f"{x:.15g}" for x in xi.xi),
             f"  prod xi = {math.prod(xi.xi):.15g}",
             f"  volume = {volume:.15g}"]
    _emit(args, rep, "\n".join(human))
    return EXIT_OK


def _cmd_volume(args) -> int:
    t = _load_triangulation(args)
    if args.shapes:
        Z = _parse_initial(args.shapes, t.tetra_count, "--shapes")
    else:
        Z = _solve(args, t)[2].shapes
    vol = solution_volume(Z)
    _emit(args, report_mod.volume_payload(vol),
          "volume = %.15g (flat: %s, negative: %s)"
          % (vol.total, list(vol.flat_tetrahedra),
             list(vol.negatively_oriented)))
    return EXIT_OK


def _cmd_holonomy(args) -> int:
    t = _load_triangulation(args)
    if args.shapes:
        Z = _parse_initial(args.shapes, t.tetra_count, "--shapes")
        # xi is h(Z) itself, so the residual h(Z) - xi is 0
        xi, residual = xi_from_shapes(Z, build_exponent_matrix(t)), 0.0
    else:
        xi, _, res = _solve(args, t)
        Z, residual = res.shapes, res.residual_norm
    rep = report_mod.build_solution_report(t, Z, xi, residual, tol=args.tol)
    gens, edges = rep["generators"], rep["edge_matrices"]
    values = report_mod.complex_column
    human = [f"generator {g}: trace {tr:.9g} (up to sign)"
             for g, tr in zip(gens["gluing"], values(gens["trace"]))]
    human += [f"edge e{j}: multiplier {mult:.9g}, trace {tr:.9g}"
              for j, (mult, tr) in enumerate(zip(values(edges["multiplier"]),
                                                 values(edges["trace"])))]
    _emit(args, rep, "\n".join(human))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    t = _load_triangulation(args)
    m = build_exponent_matrix(t).edge_count
    weights = _parse_list("--xi-weights", args.xi_weights, int)
    if len(weights) != m:
        raise IdealGlueError(f"expected {m} xi weights")
    thetas = _parse_list("--theta-grid", args.theta_grid, float)
    if not thetas:
        raise IdealGlueError("--theta-grid is empty")

    def xi_of_theta(theta):
        return ConeTarget(tuple(cmath.exp(1j * w * theta) for w in weights))

    initial = _parse_initial(args.initial, t.tetra_count)
    points = sweep_family(t, xi_of_theta, thetas, _config(args), initial)
    payload = {"points": [{
        "theta": p.theta,
        "converged": p.result.converged,
        "reason": p.result.reason,
        "residual_norm": _finite(p.result.residual_norm),
        "shapes": report_mod._pairs(p.result.shapes.z),
    } for p in points]}
    human = []
    for p in points:
        status = "ok" if p.result.converged else f"failed ({p.result.reason})"
        zs = "; ".join(f"{z:.9g}" for z in p.result.shapes.z)
        human.append(f"theta {p.theta:.6g}: {status}  z = {zs}")
    _emit(args, payload, "\n".join(human))
    return EXIT_OK if any(p.result.converged for p in points) else EXIT_SOLVE_FAILURE


def _cmd_sample(args) -> int:
    if args.count < 1:
        raise IdealGlueError(f"--count must be at least 1, got {args.count}")
    t = _load_triangulation(args)
    cfg = SolverConfig(max_iterations=args.max_iter, seed=args.seed)
    starts = random_starts(t, args.count, cfg)
    samples, dropped = cone_locus_sample(t, starts, cfg)
    payload = {"dropped": dropped, "samples": [{
        "shapes": report_mod._pairs(Z.z), "xi": report_mod._pairs(xi.xi),
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
        try:
            rep = json.load(fh)
        except ValueError as err:       # not JSON, or not text at all
            raise IdealGlueError(f"{args.report}: not a JSON report ({err})")
    checks = report_mod.verify_report(rep)
    for c in checks:
        print(str(c))
    return EXIT_OK if all(c.ok for c in checks) else EXIT_SOLVE_FAILURE


def _cmd_print(args) -> int:
    t = _load_triangulation(args)
    sys.stdout.write(format_triangulation(t))
    return EXIT_OK


_DEFAULT = SolverConfig()            # the defaults of the solve flags
# flags shared by several subcommands; each command names those it reads
_FLAGS = {
    "--corpus": dict(choices=CORPUS_NAMES, help="built-in triangulation"),
    "--file": dict(help="triangulation file (tri v1 format)"),
    "--tol": dict(type=float, default=_DEFAULT.tol),
    "--max-iter": dict(type=int, default=_DEFAULT.max_iterations),
    "--seed": dict(type=int, default=_DEFAULT.seed),
    "--json": dict(action="store_true", help="emit a JSON report on stdout"),
    "--xi": dict(default="ones",
                 help="'ones', ';'-separated re,im pairs (one pair: "
                      "'re,im;'), or comma-separated complex literals (e.g. "
                      "'1j,-1,1j'), one per edge class"),
    "--initial": dict(default="0.5,0.8",
                      help="initial shape 're,im', one value or ';'-list"),
    "--shapes": dict(default=None,
                     help="evaluate at these shapes instead of solving"),
}


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="idealglue",
        description="Gluing equations, cone structures, holonomy and edge "
                    "certificates for ideal triangulations.")
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help, *flags):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
        return p

    source = ("--corpus", "--file")
    solve = source + ("--tol", "--max-iter", "--json", "--xi", "--initial")
    command("info", _cmd_info, "validation and combinatorics",
            *source, "--json")
    command("equations", _cmd_equations, "gluing equation exponents",
            *source, "--json")
    command("solve", _cmd_solve, "Newton solve at fixed xi", *solve)
    command("certify", _cmd_certify, "solve and certify essential edges",
            *solve)
    p = command("regular", _cmd_regular,
                "the all-regular-shapes cone solution", *source, "--json")
    p.add_argument("--no-holonomy", action="store_true",
                   help="skip generator/edge matrices in the report")
    command("volume", _cmd_volume, "Bloch-Wigner volume report",
            *solve, "--shapes")
    command("holonomy", _cmd_holonomy, "generator and edge holonomy matrices",
            *solve, "--shapes")
    p = command("sweep", _cmd_sweep, "continuation along a xi family",
                *source, "--tol", "--max-iter", "--json", "--initial")
    p.add_argument("--xi-weights", required=True,
                   help="integer weights w_e: xi_e(theta) = exp(i w_e theta)")
    p.add_argument("--theta-grid", required=True,
                   help="comma-separated theta values")
    p = command("sample", _cmd_sample, "sample the cone-deformation variety",
                *source, "--max-iter", "--seed", "--json")
    p.add_argument("--count", type=int, default=20)
    p = command("export-corpus", _cmd_export_corpus, "write corpus files")
    p.add_argument("--out", default="corpus")
    p = command("verify-report", _cmd_verify_report, "re-check a JSON report")
    p.add_argument("--report", required=True)
    command("print", _cmd_print, "canonical triangulation text", *source)
    return ap


def main(argv=None) -> int:
    """Run the command that argv (default sys.argv[1:]) names, in this
    process, and return its exit code."""
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except NotConverged as err:     # a failed solve or a refused certificate
        print(f"solve failed: {err}", file=sys.stderr)
        res = err.result
        if args.json and res is not None:
            print(report_mod.dumps({"converged": False, "reason": res.reason,
                                    "detail": res.detail,
                                    "residual_norm": _finite(res.residual_norm)}))
        return EXIT_SOLVE_FAILURE
    except BrokenPipeError:         # the reader is gone: not an input error
        return EXIT_BROKEN_PIPE
    except (IdealGlueError, OSError, MemoryError) as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT_ERROR


def run() -> int:
    """The process entry: `main()` on the process's arguments, then stdout
    and stderr flushed and every object alive frozen out of the cyclic
    collector (`gc.freeze`), so that the interpreter's exit skips its
    final pass over them; atexit handlers still run.  When the reader of
    stdout has closed it, what is left unwritten goes to the null device,
    so the interpreter's own flush cannot fail again, and the exit code
    is EXIT_BROKEN_PIPE."""
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_BROKEN_PIPE
    if code == EXIT_BROKEN_PIPE:
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.stderr.flush()
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
