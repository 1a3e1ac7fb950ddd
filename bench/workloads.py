"""The three benchmark workloads: their inputs, one op each, and the checks
of every answer against a known reference.

A workload builds its inputs from the seed alone; `idealglue` sees only
`tri v1` text and arguments.  `ops` is the fixed op sequence of one pass:
rounds in which every input appears once, in a seeded order.
`run(op, clock)` does the program's work inside `with clock:` (the timed
and traced region) and checks the answers after it, returning an
`Outcome`:

* "ok";
* "failed": the program reported a failure (exception, non-zero exit, a
  solve that did not converge, a failed `verify_report` check);
* "wrong": the program returned an answer as valid that is off its
  reference (shape, volume, closed form, residual, cone target).

`starts_processes` picks the reference work that scales the op's time
(`reference.py`): a fresh interpreter when the ops start processes, the
compute kernel otherwise.
"""
from __future__ import annotations

import cmath
import json
import math
import random
import resource
import subprocess
import sys
import time
from dataclasses import dataclass

import idealglue as ig
import numpy as np

from covers import (CL2_2PI_OVER_3, REGULAR_SHAPE, chain_cover_text,
                    chain_cover_volume)

# Input triangulations, as the corpus of idealglue 0.1.0 pins them; the
# closed forms below depend on these vertex labelings.
TRI_TEXT = {
    "hopf": "tri v1\ntetrahedra 1\nglue 0 0 0 1 1023\nglue 0 2 0 3 0132\n",
    "trefoil": "tri v1\ntetrahedra 1\nglue 0 0 0 1 1023\nglue 0 2 0 3 2031\n",
    "fig8_complement": ("tri v1\ntetrahedra 2\nglue 0 0 1 0 0132\n"
                        "glue 0 1 1 1 2103\nglue 0 2 1 2 0321\n"
                        "glue 0 3 1 3 1023\n"),
    "fig8_in_s3": ("tri v1\ntetrahedra 3\nglue 0 0 1 0 0132\n"
                   "glue 0 1 2 0 1023\nglue 0 2 0 3 0132\n"
                   "glue 1 1 2 2 1230\nglue 1 2 2 1 3012\n"
                   "glue 1 3 2 3 1023\n"),
}

# Cone families with the closed form z = exp(i theta): the weight of each
# edge by its degree, xi_e(theta) = exp(i w_e theta).
CLOSED_FORM_WEIGHTS = {"hopf": {1: 1, 4: -2}, "trefoil": {1: 1, 5: -1}}

# label of each edge slot 01, 02, 03, 12, 13, 23 (0: z, 1: z', 2: z'')
SLOT_SHAPE = (0, 2, 1, 1, 2, 0)

TOL = 1e-10                 # SolverConfig().tol, the solve tolerance
UNIT_TOL = 1e-8             # |xi| = 1 and prod xi = 1 on samples
CLOSED_FORM_TOL = 1e-9


@dataclass(frozen=True)
class Outcome:
    status: str             # "ok" | "failed" | "wrong"
    detail: str = ""


OK = Outcome("ok")


def near_regular(rng: random.Random, radius: float) -> complex:
    """A point drawn uniformly from the disk of `radius` about exp(i pi/3)."""
    r = radius * math.sqrt(rng.random())
    return REGULAR_SHAPE + cmath.rect(r, 2 * math.pi * rng.random())


def rounds(rng: random.Random, inputs, count: int) -> list:
    """`count` rounds, each of every input once in a seeded order."""
    out = []
    for _ in range(count):
        order = list(inputs)
        rng.shuffle(order)
        out.extend(order)
    return out


def edge_cycles(t) -> list:
    """(tet, slot) pairs around each edge class, for `holonomies`."""
    return [[(tet, slot) for tet, slot, _ in e.cycle]
            for e in ig.compute_edge_classes(t)]


def holonomies(cycles, z) -> list:
    """h(e) as the product of the slot shapes around each edge, evaluated
    here from the edge cycles and not through `idealglue.gluing`."""
    triples = [(w, 1.0 / (1.0 - w), (w - 1.0) / w) for w in z]
    out = []
    for cycle in cycles:
        h = 1.0 + 0.0j
        for tet, slot in cycle:
            h *= triples[tet][SLOT_SHAPE[slot]]
        out.append(h)
    return out


def residual_norm(cycles, z, xi) -> float:
    return math.sqrt(sum(abs(h - x) ** 2
                         for h, x in zip(holonomies(cycles, z), xi)))


class CoverCertify:
    """Few large solves: the certify pipeline on chain covers."""

    name = "cover_certify"
    SIZES = (32, 64, 128)
    REPEATS = 15
    # within 0.02 of exp(i pi/3) a start takes 3 Newton iterations at
    # n = 32, 64 and 128 (rarely 2); within 0.05 half of them take 4, which
    # made the amount of work depend on the seed
    START_RADIUS = 0.02
    rusage = resource.RUSAGE_SELF
    starts_processes = False

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        self.texts = {n: chain_cover_text(n // 2) for n in self.SIZES}
        self.ops = [(n, near_regular(rng, self.START_RADIUS))
                    for n in rounds(rng, self.SIZES, self.REPEATS)]
        self.warmup_op = (min(self.SIZES), near_regular(rng, self.START_RADIUS))
        self.json_bytes = 0

    def parse_inputs(self) -> None:
        for text in self.texts.values():
            ig.parse_triangulation(text)

    def run(self, op, clock) -> Outcome:
        n, c = op
        try:
            with clock:
                t = ig.parse_triangulation(self.texts[n])
                xi = ig.ConeTarget.ones(len(ig.compute_edge_classes(t)))
                res = ig.newton_solve(t, xi, ig.ShapeAssignment((c,) * n))
                cert = ig.essential_edge_certificate(t, res, xi)
                report = ig.build_solution_report(
                    t, res.shapes, xi, res.residual_norm, certificate=cert,
                    include_holonomy=False)
                checks = ig.verify_report(report)
        except Exception as err:    # an op's failure must not end the run
            return Outcome("failed", f"n={n}: {type(err).__name__}: {err}")
        if clock.tracer is not None:
            self.json_bytes += len(json.dumps(report, indent=2))
        tol = 1e-9 * n
        shape_err = max(abs(z - REGULAR_SHAPE) for z in res.shapes.z)
        vol_err = abs(report["volume"]["total"] - chain_cover_volume(n // 2))
        if shape_err > tol or vol_err > tol:
            return Outcome("wrong", f"n={n}: shape error {shape_err:.3e}, "
                                    f"volume error {vol_err:.3e}")
        bad = "; ".join(str(c) for c in checks if not c.ok)
        if bad:
            return Outcome("failed", f"n={n}: verify_report: {bad}")
        return OK


class ConeExplore:
    """Many tiny solves: S^1 sweeps and cone-locus sampling."""

    name = "cone_explore"
    CYCLE = ("hopf", "trefoil", "fig8_complement", "fig8_in_s3", "cover8")
    REPEATS = 30
    POINTS = 64
    STARTS = 32
    # theta windows (first theta, seeded shift of it up to +-, span): the
    # closed-form families start near the regular shape's theta = pi/3, the
    # others at the regular solution, theta = 0
    CLOSED_FORM_WINDOW = (math.pi / 3, 0.2, 1.2)
    REGULAR_WINDOW = (0.0, 0.05, 0.6)
    rusage = resource.RUSAGE_SELF
    starts_processes = False

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        self.texts = dict(TRI_TEXT, cover8=chain_cover_text(4))
        self.ops = [(name, rng.uniform(-1.0, 1.0), rng.randrange(2**31))
                    for name in rounds(rng, self.CYCLE, self.REPEATS)]
        self.warmup_op = ("hopf", 0.0, rng.randrange(2**31))
        self.json_bytes = 0

    def parse_inputs(self) -> None:
        self.tri, self.cycles, self.family = {}, {}, {}
        for name, text in self.texts.items():
            t = ig.parse_triangulation(text)
            self.tri[name] = t
            self.cycles[name] = edge_cycles(t)
            degrees = [len(c) for c in self.cycles[name]]
            if name in CLOSED_FORM_WEIGHTS:
                weights = [CLOSED_FORM_WEIGHTS[name][d] for d in degrees]
                base = [0.0] * len(degrees)
            else:
                # integer weights summing to 0 about the regular solution
                weights = [(-1) ** j for j in range(len(degrees))]
                if len(degrees) % 2:
                    weights[-1] = 0
                base = [math.pi * d / 3.0 for d in degrees]
            self.family[name] = (weights, base)

    def run(self, op, clock) -> Outcome:
        name, offset, sample_seed = op
        t, cycles = self.tri[name], self.cycles[name]
        weights, base = self.family[name]
        closed_form = name in CLOSED_FORM_WEIGHTS
        theta0, shift, span = (self.CLOSED_FORM_WINDOW if closed_form
                               else self.REGULAR_WINDOW)
        first = theta0 + shift * offset
        grid = [first + span * j / (self.POINTS - 1) for j in range(self.POINTS)]

        def xi_of_theta(theta):
            return ig.ConeTarget(tuple(cmath.exp(1j * (b + w * theta))
                                       for w, b in zip(weights, base)))

        cfg = ig.SolverConfig(seed=sample_seed)
        try:
            with clock:
                points = ig.sweep_family(t, xi_of_theta, grid)
                starts = ig.random_starts(t, self.STARTS, cfg)
                samples, _ = ig.cone_locus_sample(t, starts, cfg)
        except Exception as err:    # an op's failure must not end the run
            return Outcome("failed", f"{name}: {type(err).__name__}: {err}")
        stuck = [p.theta for p in points if not p.result.converged]
        if stuck:
            return Outcome("failed", f"{name}: {len(stuck)} of {len(points)} "
                                     f"sweep points did not converge")
        for p in points:
            z = p.result.shapes.z
            xi = [cmath.exp(1j * (b + w * p.theta))
                  for w, b in zip(weights, base)]
            res = residual_norm(cycles, z, xi)
            if res >= 10 * TOL:
                return Outcome("wrong", f"{name}: theta {p.theta:.6f} "
                                        f"re-evaluated residual {res:.3e}")
            if closed_form:
                miss = abs(z[0] - cmath.exp(1j * p.theta))
                if miss > CLOSED_FORM_TOL:
                    return Outcome("wrong", f"{name}: theta {p.theta:.6f} "
                                            f"closed-form miss {miss:.3e}")
        for Z, xi in samples:
            unit = max(abs(abs(x) - 1.0) for x in xi.xi)
            prod = abs(math.prod(xi.xi) - 1.0)
            if unit > UNIT_TOL or prod > UNIT_TOL:
                return Outcome("wrong", f"{name}: sample with ||xi| - 1| = "
                                        f"{unit:.3e}, |prod xi - 1| = {prod:.3e}")
        return OK


class CliRoundtrip:
    """The command line: `certify --json` then `verify-report`, each a
    fresh process."""

    name = "cli_roundtrip"
    COVERS = (8, 16, 32)
    REPEATS = 6
    CONE_THETA = 2 * math.pi / 3
    rusage = resource.RUSAGE_CHILDREN       # peak RSS of the largest child
    starts_processes = True

    def __init__(self, seed: int, workdir):
        rng = random.Random(seed)
        self.workdir = workdir
        texts = {name: TRI_TEXT[name]
                 for name in ("fig8_complement", "hopf", "trefoil")}
        texts.update({f"cover{n}": chain_cover_text(n // 2)
                      for n in self.COVERS})
        self.texts = texts
        self.files = {}
        for name, text in texts.items():
            path = workdir / f"{name}.tri"
            path.write_text(text)
            self.files[name] = path
        self.ops = rounds(rng, list(texts), self.REPEATS)
        self.warmup_op = "hopf"
        self.json_bytes = 0
        self.import_s = 0.0

    def parse_inputs(self) -> None:
        self.ref = {}
        for name, text in self.texts.items():
            t = ig.parse_triangulation(text)
            degrees = [len(c) for c in edge_cycles(t)]
            n = t.tetra_count
            if name in CLOSED_FORM_WEIGHTS:
                w = CLOSED_FORM_WEIGHTS[name]
                xi = [cmath.exp(1j * w[d] * self.CONE_THETA) for d in degrees]
                arg = ["--xi=" + ";".join(f"{x.real!r},{x.imag!r}" for x in xi)]
                self.ref[name] = (arg, cmath.exp(1j * self.CONE_THETA),
                                  CL2_2PI_OVER_3, n)
            else:
                self.ref[name] = ([], REGULAR_SHAPE,
                                  chain_cover_volume(n // 2), n)

    def command(self, clock, *argv) -> list:
        if clock.tracer is None:
            return [sys.executable, "-m", "idealglue.cli", *argv]
        return [sys.executable, str(clock.child_script), str(clock.spans_path),
                *argv]

    def _child(self, clock, span, argv, stdout):
        start = time.perf_counter()
        proc = subprocess.run(self.command(clock, *argv), stdout=stdout,
                              stderr=subprocess.PIPE, text=True,
                              env=clock.env, cwd=clock.cwd, timeout=120)
        end = time.perf_counter()
        if clock.tracer is not None:
            parent = clock.tracer.add_span(span, start, end)
            with open(clock.spans_path) as fh:
                child = json.load(fh)
            clock.tracer.adopt(child["spans"], parent)
            self.import_s += child["import_s"]
        return proc

    def run(self, op, clock) -> Outcome:
        name = op
        xi_arg, ref_shape, ref_volume, n = self.ref[name]
        report_path = self.workdir / f"{name}.json"
        certify = ["certify", "--file", str(self.files[name]), *xi_arg,
                   "--json"]
        verify = None
        try:
            with clock:
                with open(report_path, "w") as out:
                    cert = self._child(clock, "cli.certify", certify, out)
                if cert.returncode == 0:
                    verify = self._child(
                        clock, "cli.verify",
                        ["verify-report", "--report", str(report_path)],
                        subprocess.PIPE)
        except (OSError, subprocess.SubprocessError) as err:
            return Outcome("failed", f"{name}: {type(err).__name__}: {err}")
        if cert.returncode != 0:
            return Outcome("failed", f"{name}: certify exit {cert.returncode}: "
                                     f"{cert.stderr.strip()[-200:]}")
        text = report_path.read_text()
        if clock.tracer is not None:
            self.json_bytes += len(text)
        try:
            report = json.loads(text)
            shapes = [complex(*p) for p in report["shapes"]]
            volume = report["volume"]["total"]
        except (ValueError, KeyError, TypeError) as err:
            return Outcome("failed", f"{name}: unreadable report: {err}")
        tol = 1e-9 * n
        shape_err = max(abs(z - ref_shape) for z in shapes)
        vol_err = abs(volume - ref_volume)
        if shape_err > tol or vol_err > tol:
            return Outcome("wrong", f"{name}: shape error {shape_err:.3e}, "
                                    f"volume error {vol_err:.3e}")
        if verify.returncode != 0:
            bad = [line for line in verify.stdout.splitlines() if "FAIL" in line]
            return Outcome("failed", f"{name}: verify-report exit "
                                     f"{verify.returncode}: {'; '.join(bad)}")
        return OK


WORKLOADS = {w.name: w for w in (CoverCertify, ConeExplore, CliRoundtrip)}


def develop_verified_n_max(cap: int = 128) -> int:
    """Largest chain-cover n, stepping n by 4 from 4, up to which every full
    holonomy report of the complete structure passes `verify_report`.

    The shapes are the exact regular solution and the residual is the one
    the program computes, so only the developing map and the holonomy
    matrices can fail the report.  The scan stops at the first failure.
    """
    best = 0
    for n in range(4, cap + 1, 4):
        t = ig.parse_triangulation(chain_cover_text(n // 2))
        Z, _, _ = ig.regular_solution(t)
        edges = ig.compute_edge_classes(t)
        xi = ig.ConeTarget.ones(len(edges))
        E = ig.build_exponent_matrix(t, edges)
        res = float(np.linalg.norm(ig.evaluate_residual(Z, E, xi)))
        try:
            report = ig.build_solution_report(t, Z, xi, res)
            ok = all(c.ok for c in ig.verify_report(report))
        except Exception:           # a raise is a failed report here
            ok = False
        if not ok:
            break
        best = n
    return best
